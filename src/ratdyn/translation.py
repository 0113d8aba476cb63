"""Evidence for group-translation structure of a rational self-map.

Three independent sources of evidence are produced:

  * closed-form recognizers (affine maps, products of one-variable Moebius
    maps, monomial maps) that certify translation structure outright;
  * the degree profile of the iterates -- bounded degrees are necessary for
    the iterates to live in one algebraic family, so bounded growth upgrades
    an unrecognized map to a candidate, and exponential growth is negative
    evidence;
  * a lattice oracle for monomial maps, used to cross-check the linear
    invariant search by brute-force enumeration.

The block normalization ``normalize_leading_sequence`` rewrites a Q-linearly
independent list of univariate polynomials (coefficients in a rational
function field) into one with the same Q-span whose equal-degree blocks have
Q-linearly independent leading coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dynsys import (EVIDENCE_WINDOW, DegreeProfile, DynamicalSystem,
                     GROWTH_EXPONENTIAL, degree_sequence)
from .errors import PreconditionError, SingularMatrixError
from .exactalg import (Polynomial, RationalFunction, clear_denominators,
                       jacobian_row, monomials_upto, nullspace, rank, transpose)

CLASS_AFFINE = "affine"
CLASS_MOBIUS_PRODUCT = "mobius-product"
CLASS_MONOMIAL = "monomial"
CLASS_UNRECOGNIZED = "unrecognized"

VERDICT_PROVEN = "translational-proven"
VERDICT_CANDIDATE = "translational-candidate"
VERDICT_NEGATIVE = "not-translational-evidence"


@dataclass(frozen=True)
class TranslationEvidence:
    profile: DegreeProfile
    recognized_class: str
    verdict: str


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer exponent matrix of a monomial map x_i -> prod_j x_j^{A_ij}."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise PreconditionError("exponent matrix must be square")

    @property
    def size(self) -> int:
        return len(self.entries)

    def times(self, other: "ExponentMatrix") -> "ExponentMatrix":
        n = self.size
        a, b = self.entries, other.entries
        return ExponentMatrix(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)))

    def is_identity(self) -> bool:
        return all(v == (1 if i == j else 0)
                   for i, row in enumerate(self.entries)
                   for j, v in enumerate(row))

    def has_finite_order(self) -> bool:
        """Exact test: A has finite multiplicative order iff A^M = I where M
        is the lcm of all m with euler_phi(m) <= n (the minimal polynomial of
        a finite-order integer matrix is a product of such cyclotomics).

        A^M = I over Z implies A^M = I mod p, so A^M mod a fixed prime that
        is not the identity is an exact "no" at word size; only a matrix
        that passes it is raised to the M-th power over Z, where the entries
        of an expanding matrix would grow to thousands of digits."""
        if rank(self.entries) < self.size:
            return False
        M = _order_exponent(self.size)
        return (_power_is_identity(self.entries, M, _ORDER_PRIME)
                and _power_is_identity(self.entries, M))


_ORDER_PRIME = 2147483647


def _order_exponent(n: int) -> int:
    """M = lcm{m : euler_phi(m) <= n}: every n x n matrix A over Q of finite
    order k has A^M = I, since its minimal polynomial divides t^k - 1 and
    so is a product of distinct cyclotomic polynomials of degree <= n.
    euler_phi(m) >= sqrt(m / 2), so every such m is at most 2 n^2."""
    return math.lcm(*(m for m in range(1, 2 * n * n + 1) if _euler_phi(m) <= n))


def _power_is_identity(entries: Sequence[Sequence[int]], k: int,
                       modulus: Optional[int] = None) -> bool:
    """Whether A^k = I over Z, or modulo ``modulus`` when one is given, by
    repeated squaring."""

    def reduce(v):
        return v if modulus is None else v % modulus

    def times(a, b):
        cols = list(zip(*b))
        return [[reduce(sum(x * y for x, y in zip(row, col))) for col in cols]
                for row in a]

    n = len(entries)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    result, power = identity, [[reduce(v) for v in row] for row in entries]
    while k:
        if k & 1:
            result = times(result, power)
        k >>= 1
        if k:
            power = times(power, power)
    return result == identity


def _euler_phi(m: int) -> int:
    out = m
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            out -= out // p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


# the fixed-point scan of ``_proves_infinite_order``: at most this many
# points of {-2, ..., 2}^n, each coordinate running through these values in
# this order, so that the origin comes first
_SCAN_VALUES = (0, 1, -1, 2, -2)
_SCAN_POINTS = 125


def _int_value(p: Polynomial, point: Sequence[int]) -> int:
    """A normal-form part, whose coefficients are integers, at an integer
    point."""
    return sum(c * math.prod(v ** k for v, k in zip(point, e)) for e, c in p._num.items())


def _proves_infinite_order(sys: DynamicalSystem) -> bool:
    """Whether an exact certificate shows that no iterate of the dominant
    map is the identity: True proves infinite order, False declines and
    proves nothing.  No sampling and no float.

    In one variable the test is complete.  The degree of a composition is
    the product of the degrees, so a map of degree d >= 2 has iterates of
    degree d^k, none of them the identity.  A Moebius map (ax + b)/(cx + d)
    has order k exactly when its eigenvalue ratio z is a k-th root of unity,
    and tr^2/det = z + 1/z + 2.  Over Q that value is rational, so a
    finite-order map other than the identity (a scalar matrix) has
    tr^2/det in {0, 1, 2, 3} (orders 2, 3, 4, 6); 4 is a parabolic map.

    In n variables the certificate is a fixed point P, among the integer
    points of the scan (``_SCAN_VALUES``), at which the map is regular:
    points are evaluated in integers and skipped at the first coordinate
    that is not fixed or has a pole there.  If phi^k = id, the chain rule
    at P gives J^k = I for J = D phi(P), and so J^M = I with
    M = ``_order_exponent(n)``.  So a residue of J^M other than I modulo
    ``_ORDER_PRIME`` proves infinite order.  J is ``jacobian_row`` over
    den(P)^2, and a point where the prime divides some den(P) is skipped.
    """
    if sys.dim == 1:
        f = sys.coords[0]
        if f.degree != 1:
            return True
        a, b, c, d = _mobius_entries(f, 0)
        if b == c == 0 and a == d:
            return False
        tr, det = a + d, a * d - b * c
        return tr * tr not in (0, det, 2 * det, 3 * det)
    M = _order_exponent(sys.dim)
    points = itertools.product(_SCAN_VALUES, repeat=sys.dim)
    for point in itertools.islice(points, _SCAN_POINTS):
        dens = []
        for x, f in zip(point, sys.coords):
            q = _int_value(f.den, point)
            if q == 0 or _int_value(f.num, point) != x * q:
                break
            dens.append(q)
        else:
            if all(q % _ORDER_PRIME for q in dens):
                J = [[v * pow(q * q, -1, _ORDER_PRIME) for v in jacobian_row(f, point)]
                     for f, q in zip(sys.coords, dens)]
                if not _power_is_identity(J, M, _ORDER_PRIME):
                    return True
    return False


# -- recognizers ------------------------------------------------------------------


def _is_affine(sys: DynamicalSystem) -> bool:
    return all(c.den.is_constant and c.num.total_degree <= 1 for c in sys.coords)


def _mobius_entries(f: RationalFunction, i: int) -> Tuple[Fraction, ...]:
    """(a, b, c, d) of f read as (a x_i + b)/(c x_i + d): the coefficients
    of x_i and of 1 in its numerator and its denominator."""
    n = len(f.variables)
    x, one = tuple(int(j == i) for j in range(n)), (0,) * n
    return (f.num.coefficient(x), f.num.coefficient(one),
            f.den.coefficient(x), f.den.coefficient(one))


def _is_mobius_product(sys: DynamicalSystem) -> bool:
    for i, f in enumerate(sys.coords):
        for e in itertools.chain(f.num.support(), f.den.support()):
            if any(k for j, k in enumerate(e) if j != i):
                return False
        if f.num.degree_in(i) > 1 or f.den.degree_in(i) > 1:
            return False
        a, b, c, d = _mobius_entries(f, i)
        if a * d - b * c == 0:
            return False
    return True


def system_exponent_matrix(sys: DynamicalSystem) -> Optional[ExponentMatrix]:
    """Exponent matrix when every coordinate is a single monomial with
    coefficient 1 (negative exponents come from the denominator)."""
    rows = []
    for c in sys.coords:
        if len(c.num.support()) != 1 or len(c.den.support()) != 1:
            return None
        (en, cn), (ed, cd) = c.num.leading(), c.den.leading()
        if cn != 1 or cd != 1:
            return None
        rows.append(tuple(a - b for a, b in zip(en, ed)))
    return ExponentMatrix(tuple(rows))


def monomial_system(variables: Sequence[str], A: ExponentMatrix) -> DynamicalSystem:
    """The monomial map with the given exponent matrix."""
    vars_t = tuple(variables)
    n = len(vars_t)
    if A.size != n:
        raise PreconditionError("matrix size does not match variable count")
    coords = []
    for row in A.entries:
        num = {i: k for i, k in enumerate(row) if k > 0}
        den = {i: -k for i, k in enumerate(row) if k < 0}
        pnum = Polynomial(vars_t, {tuple(num.get(i, 0) for i in range(n)): Fraction(1)})
        pden = Polynomial(vars_t, {tuple(den.get(i, 0) for i in range(n)): Fraction(1)})
        coords.append(RationalFunction(pnum, pden))
    return DynamicalSystem(vars_t, tuple(coords))


def classify_system(sys: DynamicalSystem) -> TranslationEvidence:
    """Pattern-match the coordinates and combine with degree growth.

    Affine maps and products of one-variable Moebius maps are group
    translations outright; a monomial map is one exactly when its exponent
    matrix has finite multiplicative order.  Everything else is judged by
    the degree profile only: bounded growth yields a candidate verdict,
    exponential growth negative evidence.
    """
    profile = degree_sequence(sys, EVIDENCE_WINDOW)
    matrix = None
    if _is_affine(sys):
        cls = CLASS_AFFINE
    elif _is_mobius_product(sys):
        cls = CLASS_MOBIUS_PRODUCT
    else:
        matrix = system_exponent_matrix(sys)
        cls = CLASS_UNRECOGNIZED if matrix is None else CLASS_MONOMIAL
    if cls in (CLASS_AFFINE, CLASS_MOBIUS_PRODUCT):
        verdict = VERDICT_PROVEN
    elif cls == CLASS_MONOMIAL and matrix.has_finite_order():
        verdict = VERDICT_PROVEN
    elif profile.growth_class == GROWTH_EXPONENTIAL:
        verdict = VERDICT_NEGATIVE
    else:
        verdict = VERDICT_CANDIDATE
    return TranslationEvidence(profile=profile, recognized_class=cls, verdict=verdict)


# -- monomial lattice oracle ---------------------------------------------------------


def monomial_invariant_lattice(A: ExponentMatrix, d: int) -> List[Tuple[int, ...]]:
    """All exponent vectors u >= 0 with |u| <= d and (A transpose) u = u.

    Exhaustive enumeration of the simplex; this is the brute-force oracle for
    the invariant monomials of the monomial map with matrix A.
    """
    if d < 0:
        raise PreconditionError("degree bound must be >= 0")
    if rank(A.entries) < A.size:
        raise SingularMatrixError("exponent matrix must be nonsingular")
    n = A.size
    return [u for u in monomials_upto(n, d)
            if all(sum(A.entries[j][i] * u[j] for j in range(n)) == u[i]
                   for i in range(n))]


# -- block normalization of polynomial sequences ----------------------------------------


class UnivariatePolynomial:
    """Polynomial in one distinguished variable with rational-function
    coefficients (the coefficient field is Q(s_1, ..., s_r), represented by
    RationalFunction values over shared auxiliary variables)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalFunction]):
        cs = list(coeffs)
        if not cs:
            raise PreconditionError("need at least the constant coefficient")
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        base = cs[0].variables
        for c in cs:
            if c.variables != base:
                raise PreconditionError("coefficients over different variables")
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> RationalFunction:
        return self.coeffs[-1]

    def combine(self, scalar, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        """self + scalar * other."""
        width = max(len(self.coeffs), len(other.coeffs))
        variables = self.coeffs[0].variables
        zero = RationalFunction.constant(variables, 0)
        out = []
        for i in range(width):
            a = self.coeffs[i] if i < len(self.coeffs) else zero
            b = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(a + b * scalar)
        return UnivariatePolynomial(out)

    def scale(self, scalar) -> "UnivariatePolynomial":
        return UnivariatePolynomial([c * scalar for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self):
        parts = []
        for i, c in enumerate(reversed(self.coeffs)):
            d = len(self.coeffs) - 1 - i
            if c.is_zero:
                continue
            body = f"({c})"
            parts.append(body if d == 0 else f"{body}*t^{d}" if d > 1 else f"{body}*t")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"UnivariatePolynomial({self})"


@dataclass(frozen=True)
class NormalizedSequence:
    """Output of the block normalization plus the recorded change of basis:
    polys = forward . inputs and inputs = backward . polys over Q."""

    polys: Tuple[UnivariatePolynomial, ...]
    forward: Tuple[Tuple[Fraction, ...], ...]
    backward: Tuple[Tuple[Fraction, ...], ...]


def _dependence(values: Sequence[RationalFunction]) -> Optional[List[Fraction]]:
    """A Q-linear dependence among field elements, or None if independent.

    Decided by the exact nullspace after clearing denominators.  The
    returned vector is the canonical one whose last nonzero entry sits at
    the largest possible index and equals 1.
    """
    # one equation per monomial of the cleared numerators
    _, _, rows = clear_denominators(values)
    kernel = nullspace(transpose(rows), len(values))
    if not kernel:
        return None
    best = max(kernel, key=lambda v: max(i for i, x in enumerate(v) if x))
    last = max(i for i, x in enumerate(best) if x)
    return [x / best[last] for x in best]


def normalize_leading_sequence(qs: Sequence[UnivariatePolynomial]) -> NormalizedSequence:
    """Rewrite to the same Q-span with independent leading blocks.

    Whenever the leading coefficients of an equal-degree block admit a
    Q-linear dependence, the dependent member of largest index is replaced by
    the corresponding lower-degree combination; the descent terminates
    because each step shrinks a block without touching higher degrees.
    Transition matrices in both directions are recorded and returned.
    """
    ps = list(qs)
    s = len(ps)
    if s == 0:
        raise PreconditionError("empty input sequence")
    for p in ps:
        if p.is_zero:
            raise PreconditionError("input sequence is Q-linearly dependent (zero entry)")
    forward = [[Fraction(1 if i == j else 0) for j in range(s)] for i in range(s)]
    backward = [[Fraction(1 if i == j else 0) for j in range(s)] for i in range(s)]

    while True:
        blocks: Dict[int, List[int]] = {}
        for i, p in enumerate(ps):
            blocks.setdefault(p.degree, []).append(i)
        target = None
        for deg in sorted(blocks, reverse=True):
            idxs = blocks[deg]
            if len(idxs) == 1:
                continue
            dep = _dependence([ps[i].leading() for i in idxs])
            if dep is not None:
                target = (idxs, dep)
                break
        if target is None:
            break
        idxs, dep = target
        support = [k for k, c in enumerate(dep) if c]
        j_local = support[-1]
        j = idxs[j_local]
        replacement = None
        for k_local in support:
            i = idxs[k_local]
            term = ps[i].scale(dep[k_local])
            replacement = term if replacement is None else replacement.combine(
                Fraction(1), term)
        if replacement.is_zero:
            raise PreconditionError("input sequence is Q-linearly dependent")
        assert dep[j_local] == 1
        # row operation p_j <- sum_k dep_k p_{idxs_k}
        new_row = [Fraction(0)] * s
        for k_local, c in enumerate(dep):
            if c:
                for col in range(s):
                    new_row[col] += c * forward[idxs[k_local]][col]
        forward[j] = new_row
        # on the inverse, column j stays and the other involved columns lose
        # its contribution: B <- B E^{-1} with E the unit row modification
        for k_local in support[:-1]:
            i = idxs[k_local]
            c = dep[k_local]
            for r in range(s):
                backward[r][i] -= backward[r][j] * c
        ps[j] = replacement
    # final consistency: the recorded matrices must be mutually inverse
    for i in range(s):
        for j in range(s):
            acc = sum(forward[i][k] * backward[k][j] for k in range(s))
            assert acc == (1 if i == j else 0), "transition bookkeeping broke"
    return NormalizedSequence(polys=tuple(ps),
                              forward=tuple(tuple(r) for r in forward),
                              backward=tuple(tuple(r) for r in backward))


def leading_blocks_independent(polys: Sequence[UnivariatePolynomial]) -> bool:
    """Check the normalized property: per degree block, full leading rank."""
    blocks: Dict[int, List[RationalFunction]] = {}
    for p in polys:
        blocks.setdefault(p.degree, []).append(p.leading())
    return all(_dependence(leads) is None for leads in blocks.values())
