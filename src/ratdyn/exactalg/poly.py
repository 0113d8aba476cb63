"""Sparse multivariate polynomials over Q: one integer term map over one
denominator.

A polynomial holds an ordered tuple of variable names, an int term map
``{exponent tuple: nonzero int}`` and a positive integer denominator coprime
to the gcd of the coefficients, as FLINT's ``fmpq_poly`` does; zero is the
empty map over 1.  The pair is canonical, so equality compares it directly.
Arithmetic runs on Python ints, with one gcd of the denominator and the
coefficients per result (none over 1).  ``terms`` ({exponent: Fraction}) is
a read-only view built on first access for the public API; no arithmetic
builds it.

The monomial order used throughout (leading terms, sign normalization,
printing) is graded lexicographic: total degree first, then the exponent
tuple itself, earlier variables weighing more.

gcd and exact division run on the integer term maps ("int polys"): the
operands are split as c * P with P primitive in Z[x], and by Gauss's lemma
the gcd and the quotient over Q follow from those of the P's.  Exact
division keeps one remainder dict and takes its leading terms off a heap.
Every gcd goes through ``_gcd_primitive``, which returns the gcd g together
with the cofactors a / g and b / g, so no caller divides by a gcd it has
just taken: ``poly_gcd`` keeps g, and ``poly_lcm``, ``squarefree_part``,
``coprime_factor_basis``, ``invsearch``'s Darboux split and
RationalFunction's normal form use the cofactors.  Its steps:

1. an operand that is constant gives the gcd 1;
2. each operand's monomial content (the componentwise minimum exponent) is
   split off: the gcd is x^m times that of the rest, m the smaller content;
3. the rest with fewer terms is tried as an exact divisor of the other by
   trial division, which stops at the first leading term of the remainder
   that it does not divide (in exponents or integer coefficient); if it
   divides, it is the gcd (gcd(a, b) = b when b divides a) and the quotient
   is the other's cofactor.  A rest of one term is the constant 1, which
   divides with no division;
4. a certificate tries to prove the rest coprime: for each variable x_k of
   positive degree in both, it evaluates the others mod a fixed prime at a
   fixed point with independent coordinates, drawn from a fixed seed.  If
   neither leading coefficient in x_k vanishes there, the gcd's image keeps
   its degree in x_k and divides both images, so univariate images with a
   constant gcd in F_p prove deg_k gcd = 0.  When that holds for every such
   variable the gcd is 1;
5. otherwise the primitive pseudo-remainder sequence runs (over Z,
   recursing on the last variable), and exact division by its result gives
   the cofactors.

The divisor test and the certificate only ever prove a gcd, so the results
are exact either way.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import VariableMismatchError

Exponent = Tuple[int, ...]


def grlex_key(exponents: Exponent):
    """Sort key realizing the graded lexicographic order."""
    return (sum(exponents), exponents)


def _exponent_vectors(degrees: Sequence[int], top: int) -> Iterator[Exponent]:
    """The vectors e >= 0 with sum(e_k * degrees[k]) <= top, degrees >= 1,
    in ascending lex order (the first entry varies slowest), from 0; none
    when top < 0."""
    if top < 0:
        return
    e, left = [0] * len(degrees), top
    while True:
        yield tuple(e)
        k = len(e) - 1
        while k >= 0 and degrees[k] > left:
            left += e[k] * degrees[k]
            e[k] = 0
            k -= 1
        if k < 0:
            return
        e[k] += 1
        left -= degrees[k]


def monomials_upto(n: int, d: int) -> List[Exponent]:
    """Exponent tuples in n variables of total degree <= d, ascending grlex."""
    return sorted(_exponent_vectors((1,) * n, d), key=grlex_key)


def _cleared_terms(terms: Mapping[Exponent, Fraction]
                   ) -> Tuple[int, Dict[Exponent, int]]:
    """(d, {e: n}) with terms[e] = n / d, d the lcm of the denominators.

    For coefficients in lowest terms, d is coprime to the gcd of the n's: a
    prime dividing d divides the denominator of some coefficient to the full
    power it has in d, so it does not divide that coefficient's n."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return 1, {e: c.numerator for e, c in terms.items()}
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _times(p: Dict[Exponent, int], k: int) -> Dict[Exponent, int]:
    """The int poly k * p (p itself when k is 1); k is nonzero."""
    return p if k == 1 else {e: c * k for e, c in p.items()}


class Polynomial:
    """Immutable sparse polynomial over Q, the int term map ``_num`` over
    ``_den`` (see the module docstring); results may share term maps."""

    __slots__ = ("variables", "_num", "_den", "_view", "_hash")

    def __init__(self, variables: Sequence[str], terms: Optional[Mapping[Exponent, Fraction]] = None):
        vars_t = tuple(variables)
        n = len(vars_t)
        clean: Dict[Exponent, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            e = tuple(expo)
            if len(e) != n:
                raise VariableMismatchError(
                    f"exponent tuple {e} does not match {n} variables")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
            if c:
                clean[e] = c
        self.variables = vars_t
        self._den, self._num = _cleared_terms(clean)
        self._view = None
        self._hash = None

    @classmethod
    def _make(cls, variables: Tuple[str, ...], num: Dict[Exponent, int],
              den: int = 1) -> "Polynomial":
        """num / den for an int poly num without zero coefficients and an
        integer den > 0, reduced by one gcd when den is not 1; unchecked, for
        arithmetic results (``__init__`` checks outside input)."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        p = object.__new__(cls)
        p.variables = variables
        p._num = num
        p._den = den
        p._view = None
        p._hash = None
        return p

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only view {exponent: Fraction coefficient}, built once."""
        if self._view is None:
            d = self._den
            self._view = MappingProxyType({e: Fraction(c, d) for e, c in self._num.items()})
        return self._view

    def support(self):
        """The exponent tuples of the nonzero terms (a read-only keys view)."""
        return self._num.keys()

    def __reduce__(self):
        # pickle and copy the pair alone: the view cannot be pickled, and a
        # hash of strings differs from one process to the next
        return Polynomial._make, (self.variables, self._num, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls._make(tuple(variables), {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        vars_t = tuple(variables)
        c = Fraction(value)
        return cls._make(vars_t, {(0,) * len(vars_t): c.numerator} if c else {},
                         c.denominator)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vars_t = tuple(variables)
        idx = vars_t.index(name)
        expo = [0] * len(vars_t)
        expo[idx] = 1
        return cls._make(vars_t, {tuple(expo): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._num)

    def constant_value(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self._num.values())), self._den)

    @property
    def total_degree(self) -> int:
        """Maximum total degree of a term; 0 for the zero polynomial."""
        if not self._num:
            return 0
        return max(map(sum, self._num))

    def degree_in(self, index: int) -> int:
        if not self._num:
            return 0
        return max(e[index] for e in self._num)

    def max_exponents(self) -> Tuple[int, ...]:
        """Componentwise maximum exponent over all terms."""
        if not self._num:
            return (0,) * len(self.variables)
        return tuple(map(max, zip(*self._num)))

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) pair under graded lex."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._num, key=grlex_key)
        return e, Fraction(self._num[e], self._den)

    def coefficient(self, expo: Exponent) -> Fraction:
        return Fraction(self._num.get(tuple(expo), 0), self._den)

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
        # both term maps over the lcm of the denominators
        den = math.lcm(self._den, o._den)
        out = dict(self._num) if den == self._den else _times(self._num, den // self._den)
        k = den // o._den
        for e, c in o._num.items():
            s = out.get(e, 0) + c * k
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial._make(self.variables, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.variables, _times(self._num, -1), self._den)

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
        if not self._num or not o._num:
            return Polynomial._make(self.variables, {})
        return Polynomial._make(self.variables, _mul_int(self._num, o._num),
                                self._den * o._den)

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
            return Polynomial._make(self.variables, {})
        return Polynomial._make(self.variables, _times(self._num, c.numerator),
                                self._den * c.denominator)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.variables, other)
        return (self.variables == other.variables and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, self._den, frozenset(self._num.items())))
        return self._hash

    def __bool__(self):
        return bool(self._num)

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        out: Dict[Exponent, int] = {}
        for e, c in self._num.items():
            k = e[index]
            if k:
                out[e[:index] + (k - 1,) + e[index + 1:]] = c * k
        return Polynomial._make(self.variables, out, self._den)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a rational point (one value per variable, in order)."""
        if len(point) != len(self.variables):
            raise VariableMismatchError("point length does not match variables")
        # with v = n/d and top the largest exponent of its variable, v^k is
        # n^k d^(top-k) over the common denominator d^top
        den = self._den
        tables = []
        for v, top in zip(point, self.max_exponents()):
            v = Fraction(v)
            table = [v.denominator ** top]
            for _ in range(top):
                table.append(table[-1] // v.denominator * v.numerator)
            tables.append(table)
            den *= table[0]
        total = 0
        for e, c in self._num.items():
            for table, k in zip(tables, e):
                c *= table[k]
            total += c
        return Fraction(total, den)

    def embed(self, new_variables: Sequence[str], positions: Sequence[int]) -> "Polynomial":
        """Rewrite over a wider variable tuple; positions[i] locates old var i."""
        new_vars = tuple(new_variables)
        m = len(new_vars)
        out: Dict[Exponent, int] = {}
        for e, c in self._num.items():
            ne = [0] * m
            for i, k in enumerate(e):
                if k:
                    ne[positions[i]] = k
            out[tuple(ne)] = c
        return Polynomial._make(new_vars, out, self._den)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self._num:
            return "0"
        den = self._den
        parts = []
        for e in sorted(self._num, key=grlex_key, reverse=True):
            c = self._num[e]
            factors = []
            for v, k in zip(self.variables, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mono = "*".join(factors)
            mag = abs(c) if den == 1 else Fraction(abs(c), den)
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


# -- the integer core ------------------------------------------------------------
#
# gcd and exact division run on primitive int polys.  Over Q a polynomial is
# c * P with P primitive in Z[x], and by Gauss's lemma a product of
# primitive polynomials is primitive, so:
#
#   * gcd(a, b) over Q is gcd(A, B) over Z up to a constant;
#   * if B divides A over Q, the quotient A / B has integer coefficients, and
#     a / b = (c_a / c_b) * (A / B).  A leading coefficient that does not
#     divide exactly therefore already proves that b does not divide a.


def _int_primitive(p: Polynomial) -> Tuple[int, Dict[Exponent, int]]:
    """(k, P) with p = (k / p._den) * P, P an int poly with coprime
    coefficients and positive graded-lex leading coefficient; p must be
    nonzero."""
    q = _normalized(p._num)
    e = next(iter(q))
    return p._num[e] // q[e], q


def _scaled_int(variables: Tuple[str, ...], p: Dict[Exponent, int],
                n: int, d: int = 1) -> Polynomial:
    """The Polynomial (n / d) * p of an int poly p; n and d nonzero."""
    if d < 0:
        n, d = -n, -d
    return Polynomial._make(variables, _times(p, n), d)


def _is_constant(p: Dict[Exponent, int]) -> bool:
    return len(p) == 1 and not any(next(iter(p)))


def _one_like(p: Dict[Exponent, int]) -> Dict[Exponent, int]:
    return {(0,) * len(next(iter(p))): 1}


def _normalized(p: Dict[Exponent, int]) -> Dict[Exponent, int]:
    """Coprime coefficients, positive graded-lex leading coefficient."""
    g = math.gcd(*p.values())
    if p[max(p, key=grlex_key)] < 0:
        g = -g
    return p if g == 1 else {e: c // g for e, c in p.items()}


def _mul_int(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> Dict[Exponent, int]:
    out: Dict[Exponent, int] = {}
    get = out.get
    add = operator.add
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _combine_int(coeffs: Dict[Exponent, int],
                 tables: Mapping[Exponent, Dict[Exponent, int]]) -> Dict[Exponent, int]:
    """sum(c * tables[e]) over the terms c x^e of coeffs."""
    acc: Dict[Exponent, int] = {}
    for e, c in coeffs.items():
        for m, v in tables[e].items():
            acc[m] = acc.get(m, 0) + c * v
    return {m: c for m, c in acc.items() if c}


def _minus_shifted(a: Dict[Exponent, int], e: Exponent,
                   b: Dict[Exponent, int]) -> Dict[Exponent, int]:
    """a - x^e * b, in place on a; returns a."""
    for m, c in b.items():
        k = tuple(map(operator.add, m, e))
        a[k] = a.get(k, 0) - c
        if not a[k]:
            del a[k]
    return a


def _valuation(f: Dict[Exponent, int], a: Dict[Exponent, int]
               ) -> Tuple[int, Dict[Exponent, int]]:
    """The largest m with f^m | a, and a / f^m, by trial division; int
    polys, f not constant, a nonzero."""
    m = 0
    while (q := _divide_int(a, f)) is not None:
        a, m = q, m + 1
    return m, a


def _divide_int(a: Dict[Exponent, int],
                b: Dict[Exponent, int]) -> Optional[Dict[Exponent, int]]:
    """The int poly q with a = q * b, or None when there is none.

    The remainder is one dict updated in place; its graded-lex leading term
    comes off a heap keyed by an integer that encodes the order (every
    exponent of the remainder is at most deg a, so base deg a + 1 is exact).
    A term pushed twice is harmless: its second pop finds it gone.
    """
    be = max(b, key=grlex_key)
    bc = b[be]
    tail = [(e, c) for e, c in b.items() if e != be]
    base = max(sum(e) for e in a) + 1

    def key(e):
        k = sum(e)
        for x in e:
            k = k * base + x
        return -k

    rem = dict(a)
    heap = [(key(e), e) for e in rem]
    heapq.heapify(heap)
    quot: Dict[Exponent, int] = {}
    sub = operator.sub
    add = operator.add
    while heap:
        re = heapq.heappop(heap)[1]
        rc = rem.pop(re, 0)
        if not rc:
            continue
        qe = tuple(map(sub, re, be))
        if min(qe) < 0:
            return None
        qc, r = divmod(rc, bc)
        if r:
            return None
        quot[qe] = qc
        for e, c in tail:
            m = tuple(map(add, qe, e))
            v = rem.get(m)
            if v is None:
                rem[m] = -qc * c
                heapq.heappush(heap, (key(m), m))
            else:
                v -= qc * c
                if v:
                    rem[m] = v
                else:
                    del rem[m]
    return quot


def primitive_part(p: Polynomial) -> Polynomial:
    return p if p.is_zero else Polynomial._make(p.variables, _int_primitive(p)[1])


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
    ka, pa = _int_primitive(a)
    kb, pb = _int_primitive(b)
    q = _divide_int(pa, pb)
    if q is None:
        return None
    return _scaled_int(a.variables, q, ka * b._den, kb * a._den)


def divide_exact(a: Polynomial, b: Polynomial) -> Polynomial:
    q = try_divide(a, b)
    if q is None:
        raise ValueError(f"({a}) is not divisible by ({b})")
    return q


# -- multivariate gcd ----------------------------------------------------------
#
# ``_gcd_primitive`` returns the gcd with its two cofactors.  After the
# constant check and the monomial split it tries the operand with fewer terms
# as an exact divisor of the other, whose cofactor is then the quotient; then
# a coprimality certificate mod one prime (below); when neither applies, the
# primitive pseudo-remainder sequence over Z, recursing on the last variable,
# and the cofactors by exact division.  At level k the operands involve
# x_0..x_k only; a polynomial is split into its coefficients in x_k
# ({degree: int poly with x_k^0}), and its content in x_k (the gcd of those
# coefficients) comes from the same recursion one variable down.  Contents
# and pseudo-remainders are made primitive over Z as they arise, which keeps
# the coefficients small and changes the result only by a unit; the exit
# normalizes it.


def _split(p: Dict[Exponent, int], k: int) -> Dict[int, Dict[Exponent, int]]:
    parts: Dict[int, Dict[Exponent, int]] = {}
    for e, c in p.items():
        d = e[k]
        if d:
            e = e[:k] + (0,) + e[k + 1:]
        parts.setdefault(d, {})[e] = c
    return parts


def _join(parts: Dict[int, Dict[Exponent, int]], k: int) -> Dict[Exponent, int]:
    out: Dict[Exponent, int] = {}
    for d, coeff in parts.items():
        if d:
            for e, c in coeff.items():
                out[e[:k] + (d,) + e[k + 1:]] = c
        else:
            out.update(coeff)
    return out


def _content(parts: Dict[int, Dict[Exponent, int]], k: int) -> Dict[Exponent, int]:
    """gcd of the coefficients in x_k, primitive over Z (1 when constant)."""
    coeffs = sorted(parts.values(), key=len)
    g = coeffs[0]
    for c in coeffs[1:]:
        if _is_constant(g):
            break
        g = _gcd_int(g, c, k - 1)
    return _one_like(g) if _is_constant(g) else _normalized(g)


def _primitive(parts: Dict[int, Dict[Exponent, int]],
               content: Dict[Exponent, int]) -> Dict[int, Dict[Exponent, int]]:
    """Divide every coefficient by the content, then by the integer content."""
    if not _is_constant(content):
        parts = {d: _divide_int(c, content) for d, c in parts.items()}
    h = math.gcd(*(x for c in parts.values() for x in c.values()))
    if h != 1:
        parts = {d: {e: x // h for e, x in c.items()} for d, c in parts.items()}
    return parts


def _prem_int(a: Dict[int, Dict[Exponent, int]],
              b: Dict[int, Dict[Exponent, int]]) -> Dict[int, Dict[Exponent, int]]:
    """A pseudo-remainder of a by b, both split in the same variable with
    deg a >= deg b >= 1: r = lc(b)^j * a - s * b with deg r < deg b.  When
    lc(b) is an integer that divides the leading coefficient of the
    remainder, that step subtracts without scaling, which keeps the
    coefficients small (a fifth off the QRT iterates' gcds); either way r
    differs from the classical pseudo-remainder by a nonzero factor free of
    the variable, which the caller's primitive part removes."""
    db = max(b)
    lb = b[db]
    unit = lb[next(iter(lb))] if _is_constant(lb) else None
    tail = [(j, c) for j, c in b.items() if j != db]
    r = a
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        if unit is not None and all(x % unit == 0 for x in lr.values()):
            scaled = {e: x // unit for e, x in lr.items()}
            out = {j: c for j, c in r.items() if j != dr}
        else:
            scaled = lr
            out = {j: _mul_int(lb, c) for j, c in r.items() if j != dr}
        shift = dr - db
        for j, c in tail:
            t = _mul_int(scaled, c)
            cur = out.get(j + shift)
            if cur is None:
                out[j + shift] = {e: -x for e, x in t.items()}
                continue
            cur = dict(cur)
            for e, x in t.items():
                v = cur.get(e, 0) - x
                if v:
                    cur[e] = v
                else:
                    cur.pop(e, None)
            if cur:
                out[j + shift] = cur
            else:
                del out[j + shift]
        r = out
    return r


def _gcd_int(a: Dict[Exponent, int], b: Dict[Exponent, int],
             k: int) -> Dict[Exponent, int]:
    """A gcd of nonzero int polys in x_0..x_k, up to sign and integer content."""
    while True:
        if _is_constant(a) or _is_constant(b) or k < 0:
            return _one_like(a)
        da = max(e[k] for e in a)
        db = max(e[k] for e in b)
        if da or db:
            break
        k -= 1
    if not (da and db):
        # one operand is free of x_k: the gcd divides the other's content
        free, mixed = (a, b) if not da else (b, a)
        return _gcd_int(free, _content(_split(mixed, k), k), k - 1)
    sa, sb = _split(a, k), _split(b, k)
    ca, cb = _content(sa, k), _content(sb, k)
    d = ca if _is_constant(ca) else _gcd_int(ca, cb, k - 1)
    pa, pb = _primitive(sa, ca), _primitive(sb, cb)
    if da < db:
        pa, pb = pb, pa
    while True:
        r = _prem_int(pa, pb)
        if not r:
            break
        if max(r) == 0:
            return d
        pa, pb = pb, _primitive(r, _content(r, k))
    g = _join(pb, k)
    return g if _is_constant(d) else _mul_int(d, g)


# -- the coprimality certificate ---------------------------------------------
#
# Let G = gcd(A, B) and fix a variable x_k in which both A and B have
# positive degree.  Evaluating every other variable at a point modulo a prime
# p is a ring map Z[x] -> F_p[x_k], so the image of G divides the images of
# A and B.  If the leading coefficients of A and B in x_k do not vanish at
# the point, the images keep their degrees; the image of A is
# image(G) * image(A / G), whose degrees cannot add up to deg_k A unless the
# image of G keeps deg_k G as well.  So deg_k G is at most the degree of the
# gcd of the images in F_p[x_k].  When that is 0 for every such x_k (and
# where one operand is free of x_k, G is too), G is constant.  A vanishing
# leading coefficient or a common image factor proves nothing, and the exact
# sequence above runs instead: the certificate can say "coprime", never
# "not coprime".

_CERT_PRIME = 2**61 - 1


@functools.lru_cache(maxsize=None)
def _cert_point(n: int) -> Tuple[int, ...]:
    """The fixed evaluation point: independent residues from a fixed seed."""
    rng = random.Random(0x9E3779B97F4A7C15)
    return tuple(rng.randrange(1, _CERT_PRIME) for _ in range(n))


def _image_mod_p(p: Dict[Exponent, int], k: int, powers: List[List[int]],
                 degree: int) -> List[int]:
    """Coefficients (constant term first) of p in F_p[x_k] at the point."""
    out = [0] * (degree + 1)
    for e, c in p.items():
        for i, x in enumerate(e):
            if x and i != k:
                c = c * powers[i][x] % _CERT_PRIME
        out[e[k]] += c
    return [c % _CERT_PRIME for c in out]


def _gcd_degree_mod_p(f: List[int], g: List[int]) -> int:
    """Degree of gcd(f, g) in F_p[x]; f, g have nonzero leading entries."""
    while g:
        inv = pow(g[-1], -1, _CERT_PRIME)
        f = f[:]
        while len(f) >= len(g):
            q = f[-1] * inv % _CERT_PRIME
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % _CERT_PRIME
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _certified_coprime(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> bool:
    """True only if gcd(a, b) is constant (see above)."""
    n = len(next(iter(a)))
    da = [max(e[i] for e in a) for i in range(n)]
    db = [max(e[i] for e in b) for i in range(n)]
    powers = []
    for v, top in zip(_cert_point(n), map(max, da, db)):
        row = [1]
        for _ in range(top):
            row.append(row[-1] * v % _CERT_PRIME)
        powers.append(row)
    for k in range(n):
        if not (da[k] and db[k]):
            continue
        fa = _image_mod_p(a, k, powers, da[k])
        fb = _image_mod_p(b, k, powers, db[k])
        if not (fa[-1] and fb[-1]) or _gcd_degree_mod_p(fa, fb):
            return False
    return True


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
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(a: Polynomial, b: Polynomial
                   ) -> Tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a / g, b / g) for nonzero a and b, g = poly_gcd(a, b)."""
    if a.variables != b.variables:
        raise VariableMismatchError("gcd of polynomials over different variables")
    ka, pa = _int_primitive(a)
    kb, pb = _int_primitive(b)
    g, qa, qb = _gcd_primitive(pa, pb)
    v = a.variables
    return (Polynomial._make(v, g), _scaled_int(v, qa, ka, a._den),
            _scaled_int(v, qb, kb, b._den))


def _gcd_primitive(a: Dict[Exponent, int], b: Dict[Exponent, int]
                   ) -> Tuple[Dict[Exponent, int], Dict[Exponent, int], Dict[Exponent, int]]:
    """(g, a / g, b / g) for nonzero primitive int polys a and b of positive
    leading coefficient, g their normalized gcd (see the module docstring)."""
    if _is_constant(a) or _is_constant(b):
        return _one_like(a), a, b

    def shift(p, m, op):
        return {tuple(map(op, e, m)): c for e, c in p.items()} if any(m) else p

    sub, add = operator.sub, operator.add
    m, n = (tuple(map(min, zip(*p))) for p in (a, b))
    s = tuple(map(min, m, n))
    a, b = shift(a, m, sub), shift(b, n, sub)
    one = _one_like(a)
    # the operand with fewer terms is the gcd if it divides the other.  One
    # term left after the split is the constant 1, which divides anything.
    small, big = (b, a) if len(b) <= len(a) else (a, b)
    q = big if len(small) == 1 else _divide_int(big, small)
    if q is not None:
        g, qa, qb = (small, q, one) if small is b else (small, one, q)
    elif _certified_coprime(a, b):
        g, qa, qb = one, a, b
    else:
        g = _normalized(_gcd_int(a, b, len(m) - 1))
        qa, qb = (a, b) if _is_constant(g) else (_divide_int(a, g), _divide_int(b, g))
    return (shift(g, s, add), shift(qa, tuple(map(sub, m, s)), add),
            shift(qb, tuple(map(sub, n, s)), add))


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return Polynomial(a.variables)
    return primitive_part(a * _gcd_cofactors(a, b)[2])


# -- gcd-driven partial factorization ----------------------------------------


def _squarefree_split(p: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """(sqf(p), p / sqf(p)) for a nonconstant p, with no division.

    With p = c*P, P primitive, the chain g <- gcd(g, dP/dx_i) from g = P
    ends at g = gcd(P, dP/dx_1, ..., dP/dx_n), and P / g is the product of
    the cofactors g_old / g_new of its steps: that is sqf(p), and p / sqf(p)
    is exactly c*g."""
    k, num = _int_primitive(p)
    v = p.variables
    g = P = Polynomial._make(v, num)
    sf = Polynomial.constant(v, 1)
    for i in range(len(v)):
        dp = P.derivative(i)
        if dp.is_zero:
            continue
        g, cofactor, _ = _gcd_cofactors(g, dp)
        if g.is_constant:
            return P, _scaled_int(v, g._num, k, p._den)
        sf = sf * cofactor
    return primitive_part(sf), _scaled_int(v, g._num, k, p._den)


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of p (characteristic zero),
    obtained by dividing out gcd(p, dp/dx_1, ..., dp/dx_n)."""
    if p.is_zero or p.is_constant:
        return primitive_part(p)
    return _squarefree_split(p)[0]


def squarefree_chain(p: Polynomial) -> List[Polynomial]:
    """p, p/sqf(p), ... down to a constant.

    The k-th entry collects the factors of p of multiplicity above k, so the
    squarefree parts of the entries multiply to p up to a constant, and a
    coprime factor basis of the entries covers p with its multiplicities.
    Each next entry is the gcd that ``_squarefree_split`` finds, scaled by
    p's content.
    """
    chain = []
    while not p.is_constant:
        chain.append(p)
        p = _squarefree_split(p)[1]
    return chain


def coprime_factor_basis(polys: Iterable[Polynomial],
                         basis: Sequence[Polynomial] = ()) -> list:
    """Pairwise coprime, squarefree, primitive factors covering the radicals
    of the inputs, refining ``basis`` (already such a set) when one is given.

    This is gcd-driven partial factorization: factors coprime to everything
    else stay unsplit even if reducible.  It covers radicals, not
    multiplicities: for (x + 1)^2*y alone the basis is [x*y + y], of which
    the input is no power product; feed ``squarefree_chain`` of each input
    when it must be.  The output is in ``canonical_order``.
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
            g, p_g, q_g = _gcd_cofactors(p, q)
            if not g.is_constant:
                basis.pop(i)
                for part in (g, q_g, p_g):
                    if not part.is_constant:
                        work.append(primitive_part(part))
                split = True
                break
        if not split:
            basis.append(p)
    return canonical_order(basis)


def canonical_order(polys: Iterable[Polynomial]) -> List[Polynomial]:
    """The nonzero polynomials sorted by the graded-lex key of the leading
    monomial, which holds the total degree, then by text; the text is
    rendered only to order a run of tied keys."""
    keyed = sorted(((grlex_key(max(p._num, key=grlex_key)), p) for p in polys),
                   key=operator.itemgetter(0))
    out: List[Polynomial] = []
    for _, run in itertools.groupby(keyed, key=operator.itemgetter(0)):
        run = [p for _, p in run]
        if len(run) > 1:
            run.sort(key=str)
        out += run
    return out


def basis_exponents(p: Polynomial, basis: Sequence[Polynomial]
                    ) -> Tuple[List[int], Polynomial]:
    """Exponents a and cofactor r with p = r * prod(basis[j]^a[j]), where no
    basis element divides r, found by trial division.

    For pairwise coprime basis elements the exponents are the multiplicities,
    and r is constant exactly when the basis covers p.
    """
    n, rest = _int_primitive(p)
    d = p._den
    exponents = []
    for b in basis:
        kb, pb = _int_primitive(b)
        a, rest = _valuation(pb, rest)
        # p = (n / d) * rest * prod b^a, and b = (kb / b._den) * pb
        n, d = n * b._den ** a, d * kb ** a
        exponents.append(a)
    return exponents, _scaled_int(p.variables, rest, n, d)
