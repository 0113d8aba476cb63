"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial carries an ordered tuple of variable names and a dict mapping
exponent tuples to nonzero ``Fraction`` coefficients.  The zero polynomial has
an empty term map.  Every constructor canonicalizes, so two polynomials are
equal iff their term maps are equal.

The monomial order used throughout (leading terms, sign normalization,
printing) is graded lexicographic: total degree first, then the exponent
tuple itself, earlier variables weighing more.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import VariableMismatchError

Exponent = Tuple[int, ...]


def grlex_key(exponents: Exponent):
    """Sort key realizing the graded lexicographic order."""
    return (sum(exponents), exponents)


def monomials_upto(n: int, d: int) -> List[Exponent]:
    """Exponent tuples in n variables of total degree <= d, ascending grlex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], d, n)
    out.sort(key=grlex_key)
    return out


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive gcd of two rationals: gcd(p1/q1, p2/q2) = gcd(p1 q2, p2 q1)/(q1 q2)."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


class Polynomial:
    """Immutable sparse polynomial over Q.

    Instances should be treated as immutable after construction; all
    arithmetic returns new objects and values are shareable across threads.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Optional[Mapping[Exponent, Fraction]] = None):
        vars_t = tuple(variables)
        n = len(vars_t)
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                e = tuple(expo)
                if len(e) != n:
                    raise VariableMismatchError(
                        f"exponent tuple {e} does not match {n} variables")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[e] = c
        self.variables = vars_t
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        c = Fraction(value)
        if not c:
            return cls(variables)
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vars_t = tuple(variables)
        idx = vars_t.index(name)
        expo = [0] * len(vars_t)
        expo[idx] = 1
        return cls(vars_t, {tuple(expo): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    @property
    def total_degree(self) -> int:
        """Maximum total degree of a term; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return 0
        return max(e[index] for e in self.terms)

    def max_exponents(self) -> Tuple[int, ...]:
        """Componentwise maximum exponent over all terms."""
        n = len(self.variables)
        out = [0] * n
        for e in self.terms:
            for i, x in enumerate(e):
                if x > out[i]:
                    out[i] = x
        return tuple(out)

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) pair under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def coefficient(self, expo: Exponent) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def sorted_terms(self, reverse: bool = True):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=reverse)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variables {other.variables} vs {self.variables}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

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
        if not self.terms or not o.terms:
            return Polynomial(self.variables)
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scaled(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial(self.variables)
        return Polynomial(self.variables, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items()))
            self._hash = hash((self.variables, items))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        out: Dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k:
                ne = list(e)
                ne[index] = k - 1
                out[tuple(ne)] = c * k
        return Polynomial(self.variables, out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point (one value per variable, in order)."""
        if len(point) != len(self.variables):
            raise VariableMismatchError("point length does not match variables")
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total

    def embed(self, new_variables: Sequence[str], positions: Sequence[int]) -> "Polynomial":
        """Rewrite over a wider variable tuple; positions[i] locates old var i."""
        new_vars = tuple(new_variables)
        m = len(new_vars)
        out: Dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * m
            for i, k in enumerate(e):
                if k:
                    ne[positions[i]] = k
            out[tuple(ne)] = c
        return Polynomial(new_vars, out)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.variables, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


# -- content and primitive part ---------------------------------------------


def integer_primitive(p: Polynomial) -> Tuple[Fraction, Polynomial]:
    """Split p = c * q with q having coprime integer coefficients and positive
    graded-lex leading coefficient.  Returns (0, p) for the zero polynomial."""
    if p.is_zero:
        return Fraction(0), p
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    _, lead = p.leading()
    if lead < 0:
        content = -content
    return content, p.scaled(1 / content)


def primitive_part(p: Polynomial) -> Polynomial:
    return integer_primitive(p)[1]


# -- exact division ------------------------------------------------------------


def try_divide(a: Polynomial, b: Polynomial) -> Optional[Polynomial]:
    """Quotient a/b when b divides a exactly, else None."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.variables != b.variables:
        raise VariableMismatchError("operands over different variables")
    if a.is_zero:
        return a
    if b.is_constant:
        return a.scaled(1 / b.constant_value())
    quot: Dict[Exponent, Fraction] = {}
    rem = a
    be, bc = b.leading()
    while rem.terms:
        re, rc = rem.leading()
        qe = tuple(x - y for x, y in zip(re, be))
        if any(x < 0 for x in qe):
            return None
        qc = rc / bc
        quot[qe] = quot.get(qe, Fraction(0)) + qc
        t = Polynomial(a.variables, {qe: qc})
        rem = rem - t * b
    return Polynomial(a.variables, quot)


def divide_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    q = try_divide(a, b)
    if q is None:
        raise ValueError(f"({a}) is not divisible by ({b})")
    return q


# -- multivariate gcd ----------------------------------------------------------
#
# Classical primitive pseudo-remainder sequence, recursing on the last
# variable; contents of the univariate view are handled by the same recursion
# one variable down.  The exact result is authoritative; no modular shortcut
# is taken here.


def _coeffs_wrt(p: Polynomial, k: int) -> Dict[int, Polynomial]:
    """Coefficients of powers of variable k, with that exponent zeroed."""
    out: Dict[int, Dict[Exponent, Fraction]] = {}
    for e, c in p.terms.items():
        d = e[k]
        ne = list(e)
        ne[k] = 0
        out.setdefault(d, {})[tuple(ne)] = c
    return {d: Polynomial(p.variables, t) for d, t in out.items()}


def _shift(p: Polynomial, k: int, t: int) -> Polynomial:
    """Multiply by variable k to the power t."""
    if t == 0 or p.is_zero:
        return p
    out = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[k] += t
        out[tuple(ne)] = c
    return Polynomial(p.variables, out)


def _content_wrt(p: Polynomial, k: int) -> Polynomial:
    coeffs = list(_coeffs_wrt(p, k).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant:
            break
        g = _gcd_rec(g, c, k - 1)
    if g.is_constant:
        g = Polynomial.constant(p.variables, 1)
    return g


def _prem(a: Polynomial, b: Polynomial, k: int) -> Polynomial:
    """Pseudo-remainder of a by b in variable k (deg_k a >= deg_k b >= 1)."""
    db = b.degree_in(k)
    lb = _coeffs_wrt(b, k)[db]
    r = a
    while r.terms and r.degree_in(k) >= db:
        dr = r.degree_in(k)
        lr = _coeffs_wrt(r, k)[dr]
        r = lb * r - _shift(lr * b, k, dr - db)
    return r


def _gcd_rec(a: Polynomial, b: Polynomial, k: int) -> Polynomial:
    if a.is_constant or b.is_constant:
        return Polynomial.constant(a.variables, 1)
    if k < 0:
        return Polynomial.constant(a.variables, 1)
    da, db = a.degree_in(k), b.degree_in(k)
    if da == 0 and db == 0:
        return _gcd_rec(a, b, k - 1)
    if da == 0 or db == 0:
        # one operand is free of x_k: gcd divides the other's content
        free, mixed = (a, b) if da == 0 else (b, a)
        return _gcd_rec(free, _content_wrt(mixed, k), k - 1)
    ca = _content_wrt(a, k)
    cb = _content_wrt(b, k)
    d = ca if ca.is_constant and cb.is_constant else _gcd_rec(ca, cb, k - 1)
    if d.is_constant:
        d = Polynomial.constant(a.variables, 1)
    pa = primitive_part(divide_exact(a, ca))
    pb = primitive_part(divide_exact(b, cb))
    if pa.degree_in(k) < pb.degree_in(k):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb, k)
        if r.is_zero:
            g = pb
            break
        if r.degree_in(k) == 0:
            return d
        pa, pb = pb, primitive_part(divide_exact(r, _content_wrt(r, k)))
    g = primitive_part(divide_exact(g, _content_wrt(g, k)))
    return d * g


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, content-normalized: the result has coprime
    integer coefficients and positive graded-lex leading coefficient.

    gcd(0, b) is the normalized b; the gcd of anything with a nonzero
    constant is 1.
    """
    if a.variables != b.variables:
        raise VariableMismatchError("gcd of polynomials over different variables")
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero:
        return primitive_part(b)
    if b.is_zero:
        return primitive_part(a)
    if a.is_constant or b.is_constant:
        return Polynomial.constant(a.variables, 1)
    pa = primitive_part(a)
    pb = primitive_part(b)
    g = _gcd_rec(pa, pb, len(a.variables) - 1)
    return primitive_part(g)


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial(a.variables)
    g = poly_gcd(a, b)
    return primitive_part(divide_exact(a * b, g))


# -- gcd-driven partial factorization ----------------------------------------


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p (characteristic zero),
    obtained by dividing out gcd(p, dp/dx_1, ..., dp/dx_n)."""
    p = primitive_part(p)
    if p.is_zero or p.is_constant:
        return p
    g = p
    for i in range(len(p.variables)):
        dp = p.derivative(i)
        if dp.is_zero:
            continue
        g = poly_gcd(g, dp)
        if g.is_constant:
            return p
    return primitive_part(divide_exact(p, g))


def squarefree_chain(p: Polynomial) -> List[Polynomial]:
    """p, p/sqf(p), ... down to a constant.

    The k-th entry collects the factors of p of multiplicity above k, so the
    squarefree parts of the entries multiply to p up to a constant, and a
    coprime factor basis of the entries covers p with its multiplicities.
    """
    chain = []
    while not p.is_constant:
        chain.append(p)
        p = divide_exact(p, squarefree_part(p))
    return chain


def coprime_factor_basis(polys: Iterable[Polynomial],
                         basis: Sequence[Polynomial] = ()) -> list:
    """Pairwise coprime, squarefree, primitive factors covering the radicals
    of the inputs, refining ``basis`` (already such a set) when one is given.

    This is gcd-driven partial factorization: factors coprime to everything
    else stay unsplit even if reducible.  It covers radicals, not
    multiplicities: for (x + 1)^2*y alone the basis is [x*y + y], of which
    the input is no power product; feed ``squarefree_chain`` of each input
    when it must be.  Output order is deterministic (degree, then graded-lex
    leading monomial, then text).
    """
    work = []
    for p in polys:
        if p.is_zero:
            continue
        sf = squarefree_part(p)
        if not sf.is_constant:
            work.append(sf)
    basis = list(basis)
    while work:
        p = work.pop()
        if p.is_constant:
            continue
        split = False
        for i, q in enumerate(basis):
            if p == q:
                split = True
                break
            g = poly_gcd(p, q)
            if not g.is_constant:
                basis.pop(i)
                for part in (g, try_divide(q, g), try_divide(p, g)):
                    if part is not None and not part.is_constant:
                        work.append(primitive_part(part))
                split = True
                break
        if not split:
            basis.append(p)
    basis.sort(key=lambda f: (f.total_degree, grlex_key(f.leading()[0]), str(f)))
    return basis


def basis_exponents(p: Polynomial, basis: Sequence[Polynomial]
                    ) -> Tuple[List[int], Polynomial]:
    """Exponents a and cofactor r with p = r * prod(basis[j]^a[j]), where no
    basis element divides r, found by trial division.

    For pairwise coprime basis elements the exponents are the multiplicities,
    and r is constant exactly when the basis covers p.
    """
    exponents = []
    for b in basis:
        a = 0
        while True:
            q = try_divide(p, b)
            if q is None:
                break
            p, a = q, a + 1
        exponents.append(a)
    return exponents, p
