"""Normalized rational functions over Q and substitution of rational maps.

A rational function is stored as a reduced pair (num, den): the polynomial
gcd of the two parts is constant, the pair has coprime integer coefficients
jointly, and the denominator's graded-lex leading coefficient is positive.
This normal form is canonical, so equality of values implies equality of the
stored representation, and both parts are integer polynomials (denominator
1), whose int term maps ``substitute`` and the power tables read directly.
It is built in Z: each part is split once into a rational content and a
primitive integer polynomial, the gcd of the two primitive parts comes with
their cofactors (``poly._gcd_primitive``; by Gauss's lemma the cofactors stay
primitive, and the denominator's keeps a positive leading coefficient), and
the ratio of the contents, in lowest terms, scales the two cofactors.  The
gcd's own exact division, the divisor test or the one after the
pseudo-remainder sequence, is the only division.

Substitution x_i -> g_i = num_i / den_i runs on packed exponents (Monagan
and Pearce, CASC 2007).  ``PowerTables`` holds num_i^k and den_i^k for
k <= top_i; inside it an exponent tuple (a_0, ..., a_{n-1}) of the target
variables is the one int sum(a_j * w_j), with w_{n-1} = 1, w_j = w_{j+1} *
r_{j+1} and the radix

    r_j = 1 + sum_i top_i * maxexp_j(num_i, den_i),

maxexp_j being the largest exponent of x_j in num_i or den_i.  Every
polynomial the tables form is a product of at most top_i parts of image i,
summed, so its exponent of x_j is below r_j: no slot carries, adding packed
keys multiplies monomials exactly, and the first variable is the most
significant digit, so packed order is lex order.  Each result is unpacked
once.  A map keeps the tables of its coordinates
(``DynamicalSystem.power_tables``), so every composition into the same map
and every pullback by it reuse them; a call that needs a higher power gets
new tables whose top at least doubles, and tables are never changed in
place.  ``substitute`` and ``cleared_monomial_images`` build tables for
their one call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..errors import (IndeterminacyError, PreconditionError, VariableMismatchError,
                      ZeroDenominatorError)
from .poly import (Exponent, Polynomial, _combine_int, _gcd_primitive,
                   _int_primitive, _times, divide_exact, poly_lcm)


class RationalFunction:
    """Quotient of two polynomials over the same variables, kept in normal form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.constant(num.variables, 1)
        if num.variables != den.variables:
            raise VariableMismatchError("numerator and denominator variables differ")
        if den.is_zero:
            raise ZeroDenominatorError("denominator is the zero polynomial")
        if num.is_zero:
            self.num = num
            self.den = Polynomial.constant(num.variables, 1)
            return
        kn, pn = _int_primitive(num)
        kd, pd = _int_primitive(den)
        # pn and pd become the cofactors of their gcd, which the gcd returns
        # with no further division
        _, pn, pd = _gcd_primitive(pn, pd)
        # num / den = (a / b) * pn / pd, the ratio of the contents in lowest
        # terms with b > 0
        a, b = kn * den._den, kd * num._den
        h = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
        self.num = Polynomial._make(num.variables, _times(pn, a // h))
        self.den = Polynomial._make(num.variables, _times(pd, b // h))

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "RationalFunction":
        return cls(Polynomial.constant(variables, value))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RationalFunction":
        return cls(Polynomial.variable(variables, name))

    # -- queries -------------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.num.variables

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    @property
    def degree(self) -> int:
        """max(deg num, deg den) of the normal form."""
        return max(self.num.total_degree, self.den.total_degree)

    def max_exponents(self) -> Tuple[int, ...]:
        """Componentwise maximum exponent over num and den."""
        return tuple(map(max, zip(*self.num._num, *self.den._num)))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variables {other.variables} vs {self.variables}")
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.variables, other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDenominatorError("division by the zero function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            if self.num.is_zero:
                raise ZeroDenominatorError("negative power of zero")
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, index: int) -> "RationalFunction":
        p, q = self.num, self.den
        return RationalFunction(p.derivative(index) * q - p * q.derivative(index),
                                q * q)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.evaluate(point) / d

    def embed(self, new_variables: Sequence[str], positions: Sequence[int]) -> "RationalFunction":
        out = RationalFunction.__new__(RationalFunction)
        out.num = self.num.embed(new_variables, positions)
        out.den = self.den.embed(new_variables, positions)
        return out

    def __str__(self):
        if self.den == Polynomial.constant(self.variables, 1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def ratfunc_normalize(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Canonical reduced form of num/den; idempotent, value-preserving."""
    return RationalFunction(num, den)


# The packed 1, shared by every table; nothing changes a packed poly in place.
_ONE = {0: 1}


def _mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """The product of two packed int polys (see ``PowerTables``)."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        (k, c), = b.items()
        if c == 1:
            return a if k == 0 else {e + k: v for e, v in a.items()}
        return {e + k: v * c for e, v in a.items()}
    out: Dict[int, int] = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class PowerTables:
    """The powers num_i^k and den_i^k, k <= top[i], of some images, packed.

    A packed int poly is an ``{int: int}`` dict keyed by exponent tuples of
    the images' variables written in mixed radix (see the module
    docstring).  Immutable: a caller that needs higher powers asks
    ``covering`` for a new object.
    """

    __slots__ = ("images", "top", "_weights", "_npw", "_dpw")

    def __init__(self, images: Sequence[RationalFunction], top: Sequence[int]):
        self.images = images = tuple(images)
        self.top = top = tuple(top)
        parts = []
        # r_j = 1 + sum_i top_i * maxexp_j(num_i, den_i), so no slot carries
        radix = [1] * len(images[0].variables) if images else []
        for g, t in zip(images, top):
            num, den = g.num, g.den
            if num._den != 1 or den._den != 1:
                raise AssertionError(f"normal form {g} has a non-integer coefficient")
            parts.append((num._num, den._num, t))
            if t:
                for j, column in enumerate(zip(*num._num, *den._num)):
                    radix[j] += t * max(column)
        weights = [1] * len(radix)
        for j in range(len(radix) - 1, 0, -1):
            weights[j - 1] = weights[j] * radix[j]
        self._weights = weights
        unit = (0,) * len(radix)
        mul = operator.mul
        self._npw, self._dpw = npw, dpw = [], []
        for num, den, t in parts:
            for part, pw in ((num, npw), (den, dpw)):
                const = part.get(unit) if len(part) == 1 else None
                if not t or const == 1:
                    pw.append([_ONE] * (t + 1))  # a den of 1 costs nothing
                    continue
                p = ({0: const} if const is not None
                     else {sum(map(mul, e, weights)): c for e, c in part.items()})
                powers = [_ONE, p]
                for _ in range(t - 1):
                    powers.append(_mul(powers[-1], p))
                pw.append(powers)

    def unpack(self, p: Dict[int, int]) -> Dict[Exponent, int]:
        """The int poly of a packed one, with exponent tuple keys."""
        w = self._weights
        if len(w) == 1:
            return {(k,): c for k, c in p.items()}
        if len(w) == 2:
            return {divmod(k, w[0]): c for k, c in p.items()}
        out = {}
        for k, c in p.items():
            e = []
            for wj in w[:-1]:
                q, k = divmod(k, wj)
                e.append(q)
            e.append(k)
            out[tuple(e)] = c
        return out

    def covering(self, bounds: Sequence[int]) -> "PowerTables":
        """self if it holds the powers up to ``bounds``, otherwise new tables
        whose top at least doubles where it falls short."""
        if all(map(operator.le, bounds, self.top)):
            return self
        return PowerTables(self.images, [t if b <= t else max(b, 2 * t)
                                         for b, t in zip(bounds, self.top)])

    def cleared(self, exponents: Sequence[Exponent],
                bounds: Sequence[int]) -> List[Dict[int, int]]:
        """The packed N_e of ``cleared_monomial_images``; each exponent must
        lie in [0, bounds] and bounds in [0, top], which is not checked.
        The results may share storage with the tables and with each other."""
        tables = []
        for i, (npw, dpw, b) in enumerate(zip(self._npw, self._dpw, bounds)):
            table = {}
            for k in {e[i] for e in exponents} if b else (0,):
                n, d = npw[k], dpw[b - k]  # T_i[k] for the k that occur
                table[k] = n if d is _ONE else d if n is _ONE else _mul(n, d)
            tables.append(table)
        out = []
        for e in exponents:
            t = _ONE
            for table, k in zip(tables, e):
                f = table[k]
                if f is not _ONE:  # such as x_i^0 over the denominator 1
                    t = f if t is _ONE else _mul(t, f)
            out.append(t)
        return out

    def substitute(self, f: RationalFunction, bounds: Sequence[int]) -> RationalFunction:
        """f(images), for f over one variable per image whose largest
        exponents (``f.max_exponents()``) are ``bounds`` <= top; raises
        IndeterminacyError when the composed denominator vanishes
        identically."""
        # Clear every image denominator with a single power product: both
        # compositions share the denominator prod den_i^{b_i}, which cancels.
        exponents = list(dict.fromkeys([*f.num._num, *f.den._num]))
        cleared = dict(zip(exponents, self.cleared(exponents, bounds)))
        den = _combine_int(f.den._num, cleared)
        if not den:
            raise IndeterminacyError("composition lands inside the pole set")
        target = self.images[0].variables
        return RationalFunction(
            Polynomial._make(target, self.unpack(_combine_int(f.num._num, cleared))),
            Polynomial._make(target, self.unpack(den)))


def substitute(f: RationalFunction, images: Sequence[RationalFunction]) -> RationalFunction:
    """Exact composition f(images).

    ``images`` supplies one rational function per variable of f, all over a
    common variable tuple (which becomes the result's variable tuple).  Raises
    IndeterminacyError when the composed denominator vanishes identically.
    """
    if len(images) != len(f.variables):
        raise VariableMismatchError(
            f"{len(images)} images for {len(f.variables)} variables")
    if not images:
        raise VariableMismatchError("substitution needs at least one variable")
    target = images[0].variables
    for g in images:
        if g.variables != target:
            raise VariableMismatchError("images over different variable tuples")
    bounds = f.max_exponents()
    return PowerTables(images, bounds).substitute(f, bounds)


def cleared_monomial_images(images: Sequence[RationalFunction],
                            exponents: Sequence[Exponent],
                            bounds: Sequence[int]) -> List[Dict[Exponent, int]]:
    """Integer numerators of the monomials x^e after x_i -> images[i].

    Every exponent tuple e with 0 <= e_i <= bounds[i] satisfies
    x^e(images) = N_e / prod(den_i^bounds[i]), and N_e = prod T_i[e_i] with
    T_i[k] = num_i^k * den_i^(bounds[i] - k), formed once per variable for
    the k that occur.  Normal-form parts are integer polynomials, so each
    N_e is an ``{exponent: int}`` dict; they are returned in the order of
    ``exponents``.
    """
    if any(b < 0 for b in bounds):
        raise PreconditionError(f"negative exponent bound in {tuple(bounds)}")
    for e in exponents:
        if not all(map(operator.le, e, bounds)) or min(e, default=0) < 0:
            raise PreconditionError(f"exponent {e} outside the bounds {tuple(bounds)}")
    tables = PowerTables(images, bounds)
    return [tables.unpack(N) for N in tables.cleared(exponents, bounds)]


def clear_denominators(values: Sequence[RationalFunction]
                       ) -> Tuple[Polynomial, Dict[Exponent, int], List[Dict[int, int]]]:
    """Clear denominators jointly and lay out coefficient vectors over Z.

    Returns the lcm ``den`` of the denominators, a column index per monomial,
    and per value the sparse integer row (column -> coefficient) of
    ``value * den``, all times one positive integer (1 unless some value's
    denominator has an integer content above 1; den is primitive), which
    leaves the rank, the span and the kernel of the rows unchanged.
    """
    den = values[0].den
    for v in values[1:]:
        den = poly_lcm(den, v.den)
    nums = [v.num * divide_exact(den, v.den) for v in values]
    scale = math.lcm(*(p._den for p in nums))
    index: Dict[Exponent, int] = {}
    return den, index, [{index.setdefault(e, len(index)): c * (scale // p._den)
                         for e, c in p._num.items()} for p in nums]
