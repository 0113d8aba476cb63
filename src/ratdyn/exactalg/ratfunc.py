"""Normalized rational functions over Q and substitution of rational maps.

A rational function is stored as a reduced pair (num, den): the polynomial
gcd of the two parts is constant, the pair has coprime integer coefficients
jointly, and the denominator's graded-lex leading coefficient is positive.
This normal form is canonical, so equality of values implies equality of the
stored representation, and both parts are integer polynomials (denominator
1), whose int term maps ``substitute`` and the power tables read directly.
It is built in Z: each part is split once into a rational content and a
primitive integer polynomial, the gcd of the two primitive parts is divided
out (by Gauss's lemma the quotients stay primitive, and the denominator's
keeps a positive leading coefficient), and the ratio of the contents, in
lowest terms, scales the two quotients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..errors import IndeterminacyError, VariableMismatchError, ZeroDenominatorError
from .poly import (Exponent, Polynomial, _combine_int, _divide_int,
                   _gcd_primitive, _int_primitive, _is_constant, _mul_int,
                   _times, divide_exact, poly_lcm)


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
        g = _gcd_primitive(pn, pd)
        if not _is_constant(g):
            pn, pd = _divide_int(pn, g), _divide_int(pd, g)
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

    # Clear every image denominator with a single power product: with
    # d_i = max exponent of variable i across num and den, both compositions
    # share the denominator prod den_i^{d_i}, which then cancels.
    bounds = tuple(max(a, b) for a, b in
                   zip(f.num.max_exponents(), f.den.max_exponents()))
    exponents = list(dict.fromkeys(list(f.num._num) + list(f.den._num)))
    cleared = dict(zip(exponents, cleared_monomial_images(images, exponents, bounds)))

    def compose(p: Polynomial) -> Polynomial:
        return Polynomial._make(target, _combine_int(p._num, cleared))

    den_image = compose(f.den)
    if den_image.is_zero:
        raise IndeterminacyError("composition lands inside the pole set")
    return RationalFunction(compose(f.num), den_image)


def cleared_monomial_images(images: Sequence[RationalFunction],
                            exponents: Sequence[Exponent],
                            bounds: Sequence[int]) -> List[Dict[Exponent, int]]:
    """Integer numerators of the monomials x^e after x_i -> images[i].

    Every exponent tuple e with e_i <= bounds[i] satisfies
    x^e(images) = N_e / prod(den_i^bounds[i]), and N_e = prod T_i[e_i] with
    T_i[k] = num_i^k * den_i^(bounds[i] - k), tabulated once per variable
    for the k that occur.  Normal-form parts are integer polynomials, so
    each N_e is an ``{exponent: int}`` dict; they are returned in the order
    of ``exponents`` and may share storage, so callers must not change them.
    """
    one = {(0,) * len(images[0].variables): 1}
    tables = []
    for i, (g, b) in enumerate(zip(images, bounds)):
        if g.num._den != 1 or g.den._den != 1:
            raise AssertionError(f"normal form {g} has a non-integer coefficient")
        num, den = g.num._num, g.den._num
        npw = [one]
        dpw = [one]
        for _ in range(b):
            npw.append(_mul_int(npw[-1], num))
            dpw.append(_mul_int(dpw[-1], den))
        table = {}
        for k in {e[i] for e in exponents}:  # the entries some monomial takes
            n, d = npw[k], dpw[b - k]
            table[k] = n if d == one else d if n == one else _mul_int(n, d)
        tables.append(table)
    out = []
    for e in exponents:
        t = one
        for table, k in zip(tables, e):
            f = table[k]
            if f != one:  # such as x_i^0 over the denominator 1
                t = f if t is one else _mul_int(t, f)
        out.append(t)
    return out


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
