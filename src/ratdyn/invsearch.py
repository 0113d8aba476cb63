"""Bounded-degree search for invariant rational functions.

The fixed field of the pullback is approached in three stages, each exact:

  * polynomial stage -- the fixed-denominator solve below at q = 1, which
    runs first: invariance of a polynomial of bounded degree is a linear
    condition on its coefficients; solve the nullspace over Q;
  * fixed-denominator stage -- for each denominator q from a catalog of
    products of factors of the map's iterated numerators and denominators,
    invariance of p/q is linear in p.  The denominator of an invariant in
    lowest terms divides its own cleared pullback I(q) (it is a Darboux
    polynomial), so only a q that divides I(q) is solved, as I(p) = p*r
    with r = I(q)/q; the catalog's factors are split until skipping the
    other q loses nothing, and until the test "q divides I(q)" is one on
    the exponents of q's factors (below);
  * pencil stage -- when nothing was found, the full bilinear condition on
    p/q is linearized on the antisymmetrized coefficient pairs
    p_i q_j - p_j q_i; decomposable points of that nullspace are exactly
    the invariant pencils, and are extracted when the nullspace is small
    enough to solve the quadratic conditions.

The stages of one search share one table of cleared monomial pullbacks per
degree, and the fixed-denominator stage makes one solve per table degree and
cofactor r: catalog entries with the same r share it.  Every distinct
emitted function is verified once against the exact identity "pullback
equals the function itself", and kept unless it lies in the span of the
capped Laurent products of those kept before it; budget exhaustion only
limits completeness, which is never claimed.

The catalog decides "q divides I(q)" without forming q.  Each q is a
product prod f_k^e_k of squarefree, pairwise coprime, primitive factors, and
at the stage's clearing degree d = max(dp, deg q) its cleared pullback is
c * prod J_j^e_j * D^(d - deg q), with J_j the cleared pullback of f_j at
degree deg f_j and D = prod den_i.  A Darboux factor (f_k | J_k) always
divides it to the power e_k.  ``_darboux_split`` splits every other factor
until it has one valuation at all its irreducible factors in each den_i and
each J_j, and a factor of degree 1 is irreducible, so the valuations at the
whole factor, found by trial division, decide exactly: q | I(q) iff for each
non-Darboux f_k with e_k > 0,

    e_k <= sum_j e_j v(f_k, J_j) + (d - deg q) v(f_k, D).

Only the products that pass are formed, sorted and solved, and each
valuation is computed once, when a test first needs it.

The search is lazy (``_kept_invariants``): it yields each invariant as it
is kept, and a caller that stops pulling stops the search; one that stops
within the q = 1 solve never builds the catalog.  ``invariants``
lists everything found, so it runs to the end; ``square_gain_check`` stops
each of its searches at a proven bound on the rank, with K the invariant
field of phi on X, n = dim X, and L that of phi x phi on X x X:

  * trdeg K <= n - 1 when phi has infinite order: if trdeg K = n, then
    k(X)/K is finite and phi* one of its finitely many K-automorphisms, so
    phi has finite order;
  * trdeg L <= n + trdeg K: subtracting from a shortest relation over
    k(X_2) among elements of L its image under phi* shows that L and k(X_2)
    are linearly disjoint over K_2, the invariants of the second factor.

So the base rank is at most n, or n - 1, and the square rank at most 2n, or
2n - 1, when ``translation._proves_infinite_order`` proves infinite order.
The generators, the ranks and the witness (the first square invariant
independent of the pullbacks) are fixed by the prefix of each search that
reaches its final rank: once the square rank exceeds the pullback rank, a
member of that prefix is independent of the pullbacks, so the witness lies
in it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .dynsys import (EVIDENCE_WINDOW, DegreeProfile, DynamicalSystem, degree_sequence,
                     diagonal_power, iterates, pullback, require_dominant)
from .errors import PreconditionError
from .exactalg import (JacobianSelector, Polynomial, RationalFunction,
                       basis_exponents, coprime_factor_basis, echelon_step,
                       jacobian_rank, monomials_upto, nullspace, poly_gcd,
                       primitive_part, squarefree_chain, transpose, try_divide)
from .exactalg.poly import (_cleared_terms, _combine_int, _divide_int, _gcd_cofactors,
                            _int_primitive, _minus_shifted, _mul_int, _normalized,
                            canonical_order)
from .translation import _proves_infinite_order

_CATALOG_CAP = 2000          # deterministic cap on denominator candidates


@dataclass(frozen=True)
class SearchBudget:
    """Truncation of the invariant search; all fields are >= 0."""

    max_num_degree: int = 3
    max_den_degree: int = 3
    denominator_catalog_depth: int = 2
    nullspace_rank1_limit: int = 3

    def __post_init__(self):
        for name in ("max_num_degree", "max_den_degree",
                     "denominator_catalog_depth", "nullspace_rank1_limit"):
            if getattr(self, name) < 0:
                raise PreconditionError(f"{name} must be >= 0")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class InvariantReport:
    system: DynamicalSystem
    budget: SearchBudget
    invariants: Tuple[RationalFunction, ...]
    independence_rank: int
    verified: bool
    reduction_generators: Tuple[RationalFunction, ...]


@dataclass(frozen=True)
class SquareGainReport:
    """Invariant gain of the diagonal square over single-factor pullbacks."""

    base_rank: int
    square_rank: int
    pullback_rank: int
    new_invariant_found: bool
    witness: Optional[RationalFunction]
    degree_profile: Optional[DegreeProfile]


# -- shared machinery -----------------------------------------------------------


def _pullback_table(sys: DynamicalSystem, d: int, tables: dict) -> dict:
    """The monomials of degree <= d, in ascending graded-lex order, mapped to
    the numerators of their pullbacks over the common denominator
    prod(den_i^d); kept in ``tables`` by d, one dict per search."""
    if d not in tables:
        monos = monomials_upto(sys.dim, d)
        bounds = (d,) * sys.dim
        power = sys.power_tables(bounds)
        tables[d] = {m: power.unpack(N)
                     for m, N in zip(monos, power.cleared(monos, bounds))}
    return tables[d]


def _positive(p: Polynomial) -> Polynomial:
    """p or -p, whichever has a positive leading coefficient; p is nonzero."""
    return -p if p.leading()[1] < 0 else p


def _kernel_polynomials(sys, monos, basis) -> List[Polynomial]:
    """Kernel vectors over the monomials as polynomials, each with a
    positive leading coefficient."""
    return [_positive(Polynomial(sys.variables,
                                 {monos[i]: v for i, v in enumerate(vec) if v}))
            for vec in basis]


def _darboux_kernel(sys: DynamicalSystem, q_int: dict, dp: int, d: int,
                    tables: dict, kernels: dict) -> List[Polynomial]:
    """The p of degree <= dp with I(p) = p*r, r = I(q)/q, for a primitive
    int q of degree <= d that divides I(q), cleared at degree d: the reduced
    row echelon kernel of the columns I(m) - m*r, one per monomial m of
    degree <= dp, as ``_kernel_polynomials``.

    The columns depend only on d, dp and r, so ``kernels`` holds one solve
    per table degree and cofactor, keyed by (d, r), for one search (whose dp
    is fixed); a q that shares both reuses it, and lies in that kernel when
    deg q <= dp, since I(q) = q*r.  ``tables`` caches ``_pullback_table``."""
    table = _pullback_table(sys, d, tables)
    r = _divide_int(_combine_int(q_int, table), q_int)
    assert r is not None, "q does not divide its cleared pullback"
    key = (d, frozenset(r.items()))
    if key not in kernels:
        monos = [e for e in table if sum(e) <= dp]
        basis = nullspace(transpose(_minus_shifted(dict(table[m]), m, r) for m in monos),
                          len(monos))
        kernels[key] = _kernel_polynomials(sys, monos, basis)
    return kernels[key]


def polynomial_invariant_basis(sys: DynamicalSystem, d: int) -> List[Polynomial]:
    """Basis over Q of the polynomials of total degree <= d fixed by the map.

    The fixed-denominator solve at q = 1: the exact nullspace of the linear
    operator sending f to the numerator of (f after the map) - f,
    echelonized deterministically with columns in ascending graded-lex
    order; the constant 1 is always the first element.
    """
    if d < 0:
        raise PreconditionError("degree bound must be >= 0")
    require_dominant(sys)
    return _darboux_kernel(sys, {(0,) * sys.dim: 1}, d, d, {}, {})


# -- denominator catalog ----------------------------------------------------------


class _FactorImages:
    """For each catalog factor f of one search: its primitive int form, its
    cleared pullback J(f) = I(f) over prod(den_i^deg f) as an int poly, and
    whether f divides it (f is a Darboux factor), each computed once, when
    first asked for; ``tables`` caches ``_pullback_table``."""

    def __init__(self, sys: DynamicalSystem, tables: dict):
        self.sys, self.tables = sys, tables
        self._ints: Dict[Polynomial, Dict[Tuple[int, ...], int]] = {}
        self._images: Dict[Polynomial, Dict[Tuple[int, ...], int]] = {}
        self._darboux: Dict[Polynomial, bool] = {}

    def primitive(self, f: Polynomial) -> Dict[Tuple[int, ...], int]:
        if f not in self._ints:
            self._ints[f] = _int_primitive(f)[1]
        return self._ints[f]

    def image(self, f: Polynomial) -> Dict[Tuple[int, ...], int]:
        if f not in self._images:
            table = _pullback_table(self.sys, f.total_degree, self.tables)
            self._images[f] = _combine_int(self.primitive(f), table)
        return self._images[f]

    def darboux(self, f: Polynomial) -> bool:
        # f is primitive, so it divides the int poly J(f) over Z if over Q
        if f not in self._darboux:
            self._darboux[f] = _divide_int(self.image(f), self.primitive(f)) is not None
        return self._darboux[f]


def _darboux_split(sys: DynamicalSystem, factors: List[Polynomial],
                   images: _FactorImages) -> List[Polynomial]:
    """The factors, each non-Darboux f (one that does not divide J(f), its
    cleared pullback at degree deg f) split by its gcd with the squarefree
    chains of the coordinate denominators and of every factor's J, until
    nothing changes.

    Then each non-Darboux factor of degree > 1 has one valuation at all its
    irreducible factors in each of those chains: it is squarefree, and a
    chain entry that it neither divides nor is coprime to would have cut it.
    So it has one valuation at all of them in each den_i, in prod(den_i) and
    in each J(f_j), and trial division by the whole factor finds it; a
    factor of degree 1 is irreducible, so the same holds for it.
    ``_denominator_catalog`` decides its Darboux test on these valuations,
    and reuses the images and Darboux flags of ``images``."""
    chain = functools.cache(squarefree_chain)
    dens = [coord.den for coord in sys.coords]
    out = factors
    while True:
        loose = [f for f in out if f.total_degree > 1 and not images.darboux(f)]
        if not loose:
            return out
        splitters = [c for p in dens + [Polynomial._make(sys.variables, images.image(f))
                                        for f in out] for c in chain(p)]
        cuts = {}
        for f in loose:
            for c in splitters:
                g, f_g, _ = _gcd_cofactors(f, c)
                if 0 < g.total_degree < f.total_degree:
                    cuts[f] = (g, primitive_part(f_g))
                    break
        if not cuts:
            return out
        # each piece takes its factor's place
        out = [h for f in out for h in cuts.get(f, (f,))]


def _exponent_vectors(degrees: Sequence[int], top: int) -> Iterator[Tuple[int, ...]]:
    """The vectors e >= 0 with sum(e_k * degrees[k]) <= top, degrees >= 1,
    in ascending lex order (the first entry varies slowest), from 0."""
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


def _valuation(f: Dict[Tuple[int, ...], int], a: Dict[Tuple[int, ...], int]) -> int:
    """The largest m with f^m | a, by trial division; int polys, f primitive
    and not constant, a nonzero."""
    m = 0
    while (a := _divide_int(a, f)) is not None:
        m += 1
    return m


def _denominator_catalog(sys: DynamicalSystem, budget: SearchBudget,
                         tables: dict) -> List[Polynomial]:
    """The Darboux products of iterated numerator/denominator factors, in
    ``canonical_order``.

    Invariant denominators are Darboux polynomials, which concentrate among
    the factors of the iterates; the catalog collects the coprime factor
    basis of the first few iterates up to the denominator degree budget,
    split by ``_darboux_split`` (``tables`` caches ``_pullback_table``), and
    keeps those of its products up to that budget that divide their own
    cleared pullback.  The products are enumerated as exponent vectors in
    ascending lex order, and the first ``_CATALOG_CAP`` of them are tested,
    kept or not.

    Dropping a product q that fails loses nothing the search keeps:

      (a) a candidate p/q = p'/q' in lowest terms has q' | I(q'), so q'
          divides G, q's largest Darboux divisor: the limit of
          g <- gcd(g, I(g)) from g = q;
      (b) after ``_darboux_split`` each non-Darboux factor has the same
          valuation at each of its irreducible factors in every pullback
          and every denominator chain, so G is a product of whole factors;
          G's exponent vector is below q's in lex order, so the cap cannot
          test q and cut G, and G sorts earlier, its degree being lower;
      (c) G's own solve uses the full numerator bound dp (p'*G/q' has
          degree <= deg p), so everything q could emit lies in the pool's
          span of what was already kept (by (a)-(c) for G if G fails its
          own test), and the collector would drop it.

    The test is on exponents.  A product q = prod f_k^e_k of the squarefree,
    pairwise coprime, primitive factors f_k, cleared at the stage's degree
    d = max(dp, deg q), is I_d(q) = c * prod J_j^e_j * D^(d - deg q), with
    J_j = J(f_j) and D = prod den_i.  At an irreducible p dividing f_k, q
    has valuation e_k and I_d(q) the sum of e_j v_p(J_j) and
    (d - deg q) v_p(D).  A Darboux factor passes: v_p(J_k) >= 1.  Every other
    factor has one valuation at all its irreducible factors in each J_j and
    in D (``_darboux_split``), found by trial division, and 0 in its own J,
    so q divides I_d(q) exactly when, for each non-Darboux f_k with e_k > 0,

        e_k <= sum_j e_j v(f_k, J_j) + (d - deg q) v(f_k, D).

    Each Darboux flag and each valuation is computed once, when a test
    first needs it, and a Polynomial is formed only for a product that
    passes.
    """
    if budget.max_den_degree == 0 or budget.denominator_catalog_depth == 0:
        return []
    pool = []
    for it in itertools.islice(iterates(sys), budget.denominator_catalog_depth):
        for c in it.coords:
            pool.append(c.num)
            pool.append(c.den)
    images = _FactorImages(sys, tables)
    factors = _darboux_split(sys, [f for f in coprime_factor_basis(pool)
                                   if f.total_degree <= budget.max_den_degree], images)
    degrees = [f.total_degree for f in factors]
    ints = [images.primitive(f) for f in factors]
    den = functools.reduce(_mul_int, (coord.den._num for coord in sys.coords))
    valuations: Dict[Tuple[int, int], int] = {}

    def valuation(k, j):
        # v(f_k, J_j), and v(f_k, D) at j = -1
        if (k, j) not in valuations:
            valuations[k, j] = _valuation(ints[k], den if j < 0 else
                                          images.image(factors[j]))
        return valuations[k, j]

    def divides(e, degree):
        spare = max(budget.max_num_degree, degree) - degree
        support = [j for j, ej in enumerate(e) if ej]
        for k in support:
            if images.darboux(factors[k]):
                continue
            have = spare * valuation(k, -1) if spare else 0
            for j in support:
                if have >= e[k]:
                    break
                if j != k:  # v(f_k, J_k) = 0
                    have += e[j] * valuation(k, j)
            if have < e[k]:
                return False
        return True

    products = []
    vectors = _exponent_vectors(degrees, budget.max_den_degree)
    for e in itertools.islice(vectors, 1, _CATALOG_CAP + 1):
        if divides(e, sum(map(operator.mul, e, degrees))):
            products.append(functools.reduce(operator.mul, (
                f for f, k in zip(factors, e) for _ in range(k))))
    return canonical_order(products)


def _fixed_denominator_invariants(sys: DynamicalSystem, q: Polynomial,
                                  budget: SearchBudget, tables: dict,
                                  kernels: dict) -> List[RationalFunction]:
    """Stage 1: with q fixed, invariance of p/q is linear in p; q = 1 is the
    polynomial stage.

    With I the pullback cleared at degree max(dp, deg q), p/q is invariant
    iff I(p)*q = p*I(q).  q is 1 or a catalog entry, so it divides I(q),
    and this is I(p) = p*r with r = I(q)/q, one column I(m) - m*r per
    monomial m of degree <= dp; the output is the reduced row echelon
    kernel, each vector with a positive leading coefficient (when
    deg q <= dp, q is a kernel vector, and the line through q alone gives
    only constants).  That kernel depends only on the clearing degree and
    r, so every q that shares both with an earlier one reuses its solve
    (``kernels``).  ``tables`` caches ``_pullback_table`` and ``kernels``
    the solves, both for one search.
    """
    dp = budget.max_num_degree
    kernel = _darboux_kernel(sys, _int_primitive(q)[1], dp, max(dp, q.total_degree),
                             tables, kernels)
    if q.total_degree <= dp and len(kernel) == 1:
        return []
    candidates = (RationalFunction(p, q) for p in kernel)
    return [f for f in candidates if not f.is_constant]


# -- stage 2: invariant pencils -----------------------------------------------------


def _point(t) -> Tuple[int, ...]:
    """The primitive integer representative of a projective point (int or
    Fraction entries, not all zero) with a positive first nonzero entry."""
    den = math.lcm(*(v.denominator for v in t))
    ints = [v.numerator * (den // v.denominator) for v in t]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _grid_points(k: int) -> List[Tuple[int, ...]]:
    """The distinct points of {-2, ..., 2}^k without 0, in first-seen order."""
    combos = (c for c in itertools.product(range(-2, 3), repeat=k) if any(c))
    return list(dict.fromkeys(map(_point, combos)))


def _pencil_rows(t: Tuple[int, ...], basis) -> List[Dict[int, int]]:
    """The nonzero rows of the antisymmetric matrix sum(t_k basis_k), in
    row order, as sparse int rows; basis_k maps pairs i < j to ints."""
    rows: Dict[int, Dict[int, int]] = {}
    for tk, vec in zip(t, basis):
        if tk:
            for (i, j), v in vec.items():
                upper, lower = rows.setdefault(i, {}), rows.setdefault(j, {})
                upper[j] = upper.get(j, 0) + tk * v
                lower[i] = lower.get(i, 0) - tk * v
    nonzero = ({c: v for c, v in row.items() if v} for _, row in sorted(rows.items()))
    return [row for row in nonzero if row]


def _rational_roots(f: Polynomial) -> List[Fraction]:
    """All rational roots of a polynomial in one variable, exactly."""
    d = f.total_degree
    if d == 0:
        return []
    num = _normalized(f._num)  # f over its content
    ints = [num.get((i,), 0) for i in range(d + 1)]
    if d == 1:
        return [Fraction(-ints[0], ints[1])]
    if d == 2:
        c, b, a = ints
        disc = b * b - 4 * a * c
        root = math.isqrt(max(disc, 0))
        if root * root != disc:
            return []
        return sorted({Fraction(-b + root, 2 * a), Fraction(-b - root, 2 * a)})
    # low stakes beyond degree 2: scan the divisor candidates p/q, each by
    # the integer q^d * f(p/q)
    lead, const = ints[d], next(c for c in ints if c)
    roots = [Fraction(0)] if ints[0] == 0 else []

    def divisors(n):  # n is nonzero
        small = [i for i in range(1, math.isqrt(abs(n)) + 1) if n % i == 0]
        return {*small, *(abs(n) // i for i in small)}

    for p in divisors(const):
        for q in divisors(lead):
            for cand in (p, -p):
                if not sum(c * cand ** i * q ** (d - i) for i, c in enumerate(ints)):
                    roots.append(Fraction(cand, q))
    return sorted(set(roots))


def _common_roots(coefficients: Iterable[Sequence[int]]) -> List[Fraction]:
    """The common rational roots of polynomials in one variable, each given
    by its integer coefficients, constant term first and not all zero: the
    rational roots of their gcd."""
    return _rational_roots(functools.reduce(poly_gcd, (
        Polynomial(("t",), {(i,): c for i, c in enumerate(cs)}) for cs in coefficients)))


def _binary_zeros(forms: Sequence[Polynomial]) -> List[Tuple[int, int]]:
    """The common rational zeros of nonzero binary forms in (t1, t2), as
    integer pairs: (n, d) for each common root n/d at t2 = 1, ascending,
    then (1, 0) when every form vanishes there (has no t1^deg term)."""
    zeros = [(r.numerator, r.denominator) for r in _common_roots(
        [f._num.get((i, f.total_degree - i), 0) for i in range(f.total_degree + 1)]
        for f in forms)]
    if all((f.total_degree, 0) not in f.support() for f in forms):
        zeros.append((1, 0))
    return zeros


def _sub_pfaffians(basis) -> List[Polynomial]:
    """The nonzero 4x4 sub-Pfaffians of sum(t_k basis_k), quadrics in
    t1..tk, at most 400 of them: enough to cut out the decomposable locus
    in practice.  Every point is re-checked by an exact rank test, so the
    cap can only cost completeness, never soundness."""
    k = len(basis)
    support = sorted({idx for vec in basis for pair in vec for idx in pair})
    tvars = tuple(f"t{i + 1}" for i in range(k))

    def entry(i, j) -> Polynomial:
        terms = {}
        for m, vec in enumerate(basis):
            val = vec.get((i, j))
            if val:
                e = [0] * k
                e[m] = 1
                terms[tuple(e)] = val
        return Polynomial(tvars, terms)

    quadrics = []
    for a, b, c, d in itertools.combinations(support, 4):
        q = (entry(a, b) * entry(c, d) - entry(a, c) * entry(b, d)
             + entry(a, d) * entry(b, c))
        if not q.is_zero:
            quadrics.append(q)
        if len(quadrics) >= 400:
            break
    return quadrics


def _decomposable_points(basis) -> List[Tuple[Dict[int, int], Dict[int, int]]]:
    """The rows (p, q) of each parameter point t where sum(t_k basis_k) has
    rank 2, for int basis vectors (maps from pairs i < j to ints), in the
    order the points are found.

    For dimension 2 and 3 the quadratic decomposability conditions
    (``_sub_pfaffians``) are solved exactly: by the common zeros of the
    binary quadrics, or by those of their resultants in t3, each lifted to
    the common roots in t3.  Otherwise, and after the lift, a deterministic
    grid supplies the points, so that degenerate positive-dimensional
    solution sets still yield witnesses (in dimension 1 it is the basis
    vector itself).  Each point is tried once, as its ``_point``
    representative: its rows are reduced in order into one echelon, the
    first row outside the span of those before it is p, the second is q,
    and a third shows a rank above 2.
    """
    k = len(basis)
    found = []
    seen = set()

    def push(t):
        t = _point(t)
        if t in seen:
            return
        seen.add(t)
        echelon, kept = {}, []
        for row in _pencil_rows(t, basis):
            if echelon_step(echelon, row):
                kept.append(row)
                if len(kept) > 2:
                    return
        if len(kept) == 2:
            found.append(tuple(kept))

    quadrics = _sub_pfaffians(basis) if k in (2, 3) else []
    if k == 2 and quadrics:
        for t in _binary_zeros(quadrics):
            push(t)
    elif quadrics:
        # k = 3: eliminate t3 between pairs of quadrics
        def split(q):
            # q = A t3^2 + B t3 + C with A constant, B linear, C quadratic in t1,t2
            parts = ({}, {}, {})
            for e, coeff in q._num.items():
                parts[e[2]][e[:2]] = coeff
            return tuple(Polynomial._make(("t1", "t2"), part) for part in reversed(parts))

        def at(q, t1, t2):
            # the coefficients of q at (t1, t2) in t3, constant term first
            coeffs = [0] * 3
            for e, coeff in q._num.items():
                coeffs[e[2]] += coeff * t1 ** e[0] * t2 ** e[1]
            return coeffs

        resultants = []
        for q1, q2 in itertools.combinations(quadrics, 2):
            a1, b1, c1 = split(q1)
            a2, b2, c2 = split(q2)
            res = ((a1 * c2 - c1 * a2) ** 2
                   - (a1 * b2 - b1 * a2) * (b1 * c2 - c1 * b2))
            if not res.is_zero:
                resultants.append(res)
        # At a zero (n, d) the roots in t3 are d times those at (n/d, 1), so
        # each point (n, d, t3) is the point (n/d, 1, t3/d).  A nonzero
        # resultant needs a quadric with a t3^2 term, which vanishes at no
        # (t1, t2), so the gcd in t3 is never zero.  Wherever the quadrics
        # share a root in t3 every resultant vanishes, so the zeros, (1, 0)
        # included, miss no point
        for t1, t2 in _binary_zeros(resultants) if resultants else ():
            for t3 in _common_roots(at(q, t1, t2) for q in quadrics):
                push((t1, t2, t3))
        if all((0, 0, 2) not in q.support() for q in quadrics):
            push((0, 0, 1))
    if k != 2 or not quadrics:
        for t in _grid_points(k):
            push(t)
    return found


def _pencil_candidates(variables, monos, basis) -> List[RationalFunction]:
    """The candidate p/q of each decomposable point of the pencil
    sum(t_k basis_k), in the order the points are found.

    ``basis`` holds the kernel vectors as maps from pairs i < j to
    rationals.  They are cleared over one common denominator, which scales
    the whole pencil and moves no point; clearing each on its own would
    reparametrize it.  At a point the matrix has rank 2 and its rows are its
    columns negated: p is the first nonzero row and q the first later row
    outside p's span (``_decomposable_points``), each over the monomials
    with its sign normalized.
    """
    _, cleared = _cleared_terms({(k, pair): v for k, vec in enumerate(basis)
                                 for pair, v in vec.items()})
    ints: List[Dict[Tuple[int, int], int]] = [{} for _ in basis]
    for (k, pair), v in cleared.items():
        ints[k][pair] = v
    out = []
    for rows in _decomposable_points(ints):
        p, q = (_positive(Polynomial._make(variables,
                                           {monos[c]: v for c, v in row.items()}))
                for row in rows)
        out.append(RationalFunction(p, q))
    return out


def _pencil_stage(sys: DynamicalSystem, budget: SearchBudget,
                  tables: dict) -> List[RationalFunction]:
    """The candidates of the pencil kernel, as ``_pencil_candidates``; none
    when the kernel's dimension exceeds the rank-1 limit.  Each is invariant
    exactly, since a decomposable point p wedge q of the kernel satisfies
    P*I(Q) = Q*I(P); the collector gates it all the same.  ``tables`` caches
    ``_pullback_table``.

    The kernel has at least as many dimensions as the columns outnumber the
    rows, so two bounds reject it before the full solve: the row keys, all
    of the form e + m with e in an image's support and m a monomial, before
    any column is built, and ``nullspace``'s limit stop during the
    elimination."""
    limit = budget.nullspace_rank1_limit
    if limit == 0:
        return []
    table = _pullback_table(sys, max(budget.max_num_degree, budget.max_den_degree),
                            tables)
    monos, images = list(table), list(table.values())
    s = len(monos)
    pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    support = set().union(*images)
    keys = {tuple(map(operator.add, e, m)) for e in support for m in monos}
    if len(pairs) - len(keys) > limit:
        return []
    # images[j]*x_i - images[i]*x_j: each column negated, the kernel kept
    rows = transpose(_minus_shifted(_mul_int(images[j], {monos[i]: 1}), monos[j],
                                    images[i]) for i, j in pairs)
    basis_vecs = nullspace(rows, len(pairs), limit)
    if not basis_vecs:
        return []
    basis = [{pairs[i]: v for i, v in enumerate(vec) if v} for vec in basis_vecs]
    return _pencil_candidates(sys.variables, monos, basis)


# -- deduplication and reports ---------------------------------------------------


def _placed(x: Sequence[int], move: Sequence[Sequence[Tuple[int, int]]],
            width: int) -> List[int]:
    """The vector x over old factors moved to ``width`` refined ones: the
    j-th old factor is prod b_k^m over the pairs (k, m) of ``move[j]``."""
    out = [0] * width
    for pairs, v in zip(move, x):
        for k, m in pairs:
            out[k] += m * v
    return out


class _ClearedPool:
    """The capped Laurent products of the found invariants over their common
    denominator, as one integer echelon that grows with the invariants.

    Invariants form a field, so a candidate algebraically dependent on the
    prior ones is uninformative exactly when it is a rational combination of
    them; the linear span of the products prod g_i^e_i with integer
    exponents, capped in weight and degree, is the practical test for that.

    The pool holds the invariants it covers in factored form: pairwise
    coprime factors b_j (``factors``), and each invariant as
    c * prod(b_j^a_j) with a signed integer vector a (numerator exponents
    minus denominator exponents, in ``exponents``).  The factors cover the
    squarefree chain of every numerator and denominator, so the
    decomposition is exact.  Each product is then c * prod b_j^s_j with
    s = sum e_i a_i.  The b_j are pairwise coprime, so exponent arithmetic
    alone gives the product's normal-form degree (the larger of the positive
    and the negative part of s, each weighted by deg b_j), equality up to a
    constant (equal s), the lcm of the denominators (prod b_j^t_j, with t_j
    the largest -s_j: the lift) and each cleared row (prod b_j^(s_j + t_j));
    no gcd, lcm or division is taken.  Powers of each factor are tabulated
    once (``product``).

    ``extend`` brings the pool up to a longer list of invariants, starting
    from the pool of the empty list: the constant row alone, over no factors
    with lift 0 and denominator 1.  The capped set
    {e : sum |e_i| <= total, sum |e_i| deg g_i <= bound} does not depend on
    the order of the invariants, so the products that the new invariants
    add are exactly those of the vectors e nonzero on one of them: only
    those are formed and reduced into the kept echelon.  Each kept structure
    grows instead of being built again:

      * ``_cover`` splits only the new invariants over the factors.  When a
        part is left over, the factors are refined by it, and the refinement
        writes each old factor as a constant times a product of new ones
        (``moves``): that one map moves every old a, every old s and the
        lift.  The old factors are squarefree and pairwise coprime, so the
        pieces of different ones are disjoint: each old product, the
        denominator and every cleared row stay the same polynomials up to a
        constant;
      * a grown lift t' multiplies every cleared row by the same
        den'/den = prod b_j^(t'_j - t_j).  The echelon (``echelon``) maps
        each pivot to its row; its columns are the exponent tuples
        themselves, in lex order, and each row's pivot is its least column.
        Lex is a monomial order, so each product's least monomial is the sum
        of its factors': the multiplied echelon maps each pivot, shifted by
        the least monomial of den'/den, to its row times den'/den.  The
        rows stay triangular, with distinct pivots, which is all that
        membership needs (``echelon_step``), but a row may now hold another
        row's pivot column, which a reduction then fills.

    ``multiplied`` counts the extensions that multiplied the echelon, the
    first of them the constant row alone.

    Membership of f first requires f.den to divide the pool lcm (the
    denominator of any Q-combination does), then reduces the cleared
    numerator against the integer echelon; a nonzero remainder is a certain
    negative.  The span does not depend on the order in which rows joined,
    so neither does the answer.
    """

    def __init__(self, variables, budget: SearchBudget):
        self.one = Polynomial.constant(variables, 1)
        self.bound = max(budget.max_num_degree, budget.max_den_degree)
        self.total = max(budget.max_num_degree, 1)
        self.factors: List[Polynomial] = []  # the b_j, what a and s are over
        self.exponents: List[List[int]] = []  # a, of each covered invariant
        self.degrees: List[int] = []  # of the covered invariants, each >= 1
        self.vectors: Dict[Tuple[int, ...], None] = {(): None}  # ordered set of s
        self.lift: Tuple[int, ...] = ()
        self.den = self.one
        # the integer echelon, from the cleared row of s = 0: the lcm itself
        self.echelon: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
        echelon_step(self.echelon, self.one._num)
        self.multiplied = 0
        self._powers: Dict[Polynomial, List[Polynomial]] = {}

    def moves(self, old: Sequence[Polynomial]) -> List[List[Tuple[int, int]]]:
        """Each of the ``old`` factors, from before a refinement, as pairs
        (k, m) with old = c * prod(factors[k]^m): [(k, 1)] when the
        refinement kept it, its pieces when it split it."""
        where = {b: k for k, b in enumerate(self.factors)}
        return [[(where[b], 1)] if b in where else
                [(k, m) for k, m in enumerate(basis_exponents(b, self.factors)[0]) if m]
                for b in old]

    def _cover(self, new: Sequence[RationalFunction]):
        """Append the exponent vector a of each of the ``new`` invariants,
        after refining the factors by the parts of them left over."""
        def split():
            return [basis_exponents(p, self.factors) for g in new for p in (g.num, g.den)]

        parts = split()
        rests = [c for _, rest in parts for c in squarefree_chain(rest)]
        if rests:
            old = self.factors
            self.factors = coprime_factor_basis(rests, old)
            move, width = self.moves(old), len(self.factors)
            self.exponents = [_placed(a, move, width) for a in self.exponents]
            self.vectors = {tuple(_placed(s, move, width)): None for s in self.vectors}
            self.lift = tuple(_placed(self.lift, move, width))
            parts = split()
        for (num, num_rest), (den, den_rest) in zip(parts[::2], parts[1::2]):
            if not (num_rest.is_constant and den_rest.is_constant):
                raise AssertionError("the factors do not cover an invariant")
            self.exponents.append([a - b for a, b in zip(num, den)])

    def product(self, x: Sequence[int]) -> Polynomial:
        """prod b_j^x_j for a vector x of non-negative exponents, from the
        power tables (a single power is the table entry itself)."""
        p = self.one
        for b, k in zip(self.factors, x):
            if k:
                table = self._powers.setdefault(b, [self.one])
                while len(table) <= k:
                    table.append(table[-1] * b)
                p = table[k] if p is self.one else p * table[k]
        return p

    def _exponents(self, order, first, stop, weight_left, degree_left):
        """The nonzero sparse vectors [(i, e_i), ...] over the invariants
        order[first:] with sum |e_i| <= weight_left and
        sum |e_i| * deg g_i <= degree_left whose first entry is at a
        position below ``stop``."""
        # degree_left prunes products whose degree could only come back under
        # the budget through cancellation; missing those merely keeps an extra
        # candidate later, it never drops a sound invariant
        for pos in range(first, stop):
            i = order[pos]
            degree = self.degrees[i]
            for m in range(1, min(weight_left, degree_left // degree) + 1):
                rests = [[]]
                rests += self._exponents(order, pos + 1, len(order), weight_left - m,
                                         degree_left - m * degree)
                for rest in rests:
                    yield [(i, m)] + rest
                    yield [(i, -m)] + rest

    def extend(self, found: Sequence[RationalFunction]):
        """Add the products of ``found``, which extends the list the pool
        covers."""
        start = len(self.degrees)
        if start == len(found):
            return
        self._cover(found[start:])
        self.degrees += [g.degree for g in found[start:]]
        widths = [b.total_degree for b in self.factors]
        sparse = [[(j, aj) for j, aj in enumerate(a) if aj] for a in self.exponents]
        order = list(range(start, len(found))) + list(range(start))
        fresh = []
        lift = list(self.lift)
        for expos in self._exponents(order, 0, len(found) - start, self.total,
                                    self.bound):
            s = [0] * len(widths)
            for i, e in expos:
                for j, aj in sparse[i]:
                    s[j] += e * aj
            num_degree = sum(w * x for w, x in zip(widths, s) if x > 0)
            den_degree = -sum(w * x for w, x in zip(widths, s) if x < 0)
            s = tuple(s)
            if max(num_degree, den_degree) <= self.bound and s not in self.vectors:
                self.vectors[s] = None
                fresh.append(s)
                for j, x in enumerate(s):
                    if -x > lift[j]:
                        lift[j] = -x
        lift = tuple(lift)
        if lift != self.lift:
            # every cleared row gains the factor m = den'/den, and every
            # pivot the least monomial of m
            m = self.product(tuple(map(operator.sub, lift, self.lift)))._num
            low = min(m)
            self.echelon = {tuple(map(operator.add, pc, low)): _mul_int(row, m)
                            for pc, row in self.echelon.items()}
            self.multiplied += 1
            self.lift, self.den = lift, self.product(lift)
        for s in fresh:
            echelon_step(self.echelon, self.product(tuple(map(operator.add, s, lift)))._num)

    def contains(self, f: RationalFunction) -> bool:
        scale = try_divide(self.den, f.den)
        if scale is None:
            return False
        # the cleared numerator up to a constant, which the span ignores
        return not echelon_step(self.echelon, (f.num * scale)._num, insert=False)


class _Collector:
    """Order-preserving deduplication per the report contract.

    A candidate is kept iff it lies outside the Q-span of the capped Laurent
    products of the invariants already kept (``_ClearedPool``).  That one
    test decides alone: a candidate that raises the independence rank is
    algebraically independent of the kept ones, so it is never in the span,
    and no rank test is needed in front of this one.  Until something is
    kept the span holds only the constants, so the first candidate that is
    not a constant is kept.

    One pool serves the whole search, and holds the kept invariants in
    factored form over pairwise coprime factors: before a span test it is
    extended with the invariants kept since the last one, which moves its
    vectors to refined factors and multiplies its echelon by a grown
    denominator in place.

    Each candidate is decided once: a repeat of one already offered, kept
    or dropped, is dropped by a set lookup before the exact pullback gate,
    and every other candidate must pass the gate.  The pool's span and its
    denominator only grow, so a candidate dropped once would be dropped
    again, and a repeat of a kept one would fall in the span.
    """

    def __init__(self, sys: DynamicalSystem, budget: SearchBudget):
        self.sys = sys
        self.found: List[RationalFunction] = []
        self._decided = set()
        self._pool = _ClearedPool(sys.variables, budget)

    def offer(self, f: RationalFunction):
        if f.is_constant or f in self._decided:
            return
        self._decided.add(f)
        if pullback(self.sys, f) != f:
            raise AssertionError(f"search produced a non-invariant: {f}")
        self._pool.extend(self.found)
        if not self._pool.contains(f):
            self.found.append(f)


def _kept_invariants(sys: DynamicalSystem,
                     budget: SearchBudget) -> Iterator[RationalFunction]:
    """The search of ``rational_invariant_search``, lazily: each invariant
    is yielded as the collector keeps it, so a caller that stops pulling
    stops the search there.  A candidate was kept when ``collector.found``
    grew on its offer.  Dominance is the caller's precondition."""
    collector = _Collector(sys, budget)
    tables: dict = {}  # the one pullback table of each degree
    kernels: dict = {}  # the one Darboux kernel of each degree and cofactor

    def offered(candidates):
        for f in candidates:
            kept = len(collector.found)
            collector.offer(f)
            if len(collector.found) > kept:
                yield collector.found[-1]

    def denominators():
        # the catalog is built only once the q = 1 solve has been pulled
        yield Polynomial.constant(sys.variables, 1)
        yield from _denominator_catalog(sys, budget, tables)

    for q in denominators():
        yield from offered(_fixed_denominator_invariants(sys, q, budget, tables, kernels))
    if not collector.found:
        yield from offered(_pencil_stage(sys, budget, tables))


def rational_invariant_search(sys: DynamicalSystem,
                              budget: SearchBudget = DEFAULT_BUDGET
                              ) -> List[RationalFunction]:
    """Exact invariants found within the budget, deduplicated.

    The output is deterministic: stage order, ascending catalog order, and
    echelonized kernels fix the discovery order.  An exhausted budget is not
    an error; completeness beyond the budget is never claimed.
    """
    require_dominant(sys)
    return list(_kept_invariants(sys, budget))


def independence_rank(fs: Sequence[RationalFunction]) -> int:
    """Transcendence-degree contribution of the given functions."""
    return jacobian_rank(fs)


def _pull(sys: DynamicalSystem, budget: SearchBudget, selector: JacobianSelector,
          proven: Optional[Callable[[int], bool]] = None) -> List[RationalFunction]:
    """The invariants of the search of ``sys`` pulled in discovery order,
    each offered to ``selector`` while it keeps fewer than ``sys.dim``.
    With ``proven``, the pulling stops, before the first pull too, as soon
    as ``proven`` holds on the number the selector keeps; without it, the
    search runs to the end.  Raises NotDominantError first on a map that is
    not dominant."""
    require_dominant(sys)
    pulled = []
    search = _kept_invariants(sys, budget)
    while proven is None or not proven(len(selector.kept)):
        f = next(search, None)
        if f is None:
            break
        pulled.append(f)
        if len(selector.kept) < sys.dim:
            selector.offer(f)
    return pulled


def adim_lower_bound(sys: DynamicalSystem,
                     budget: SearchBudget = DEFAULT_BUDGET) -> InvariantReport:
    """Search, rank, and select a maximal independent generating subset.

    The generators are what a ``JacobianSelector`` keeps of the found
    invariants, offered in discovery order until it keeps n of them: each
    one is tested against the kept ones only, by the seeded test where it
    decides and by one fraction-free reduction of its own row otherwise.
    The subset is a maximal independent one, so its size, the independence
    rank, is the rank of the whole list.  It is a lower bound for the number
    of algebraically independent invariants and never exceeds the
    dimension.  Every invariant found is listed, so the search runs to the
    end.
    """
    selector = JacobianSelector(sys.variables)
    invariants = _pull(sys, budget, selector)
    generators = selector.kept
    return InvariantReport(system=sys, budget=budget,
                           invariants=tuple(invariants),
                           independence_rank=len(generators), verified=True,
                           reduction_generators=tuple(generators))


def square_gain_check(sys: DynamicalSystem,
                      budget: SearchBudget = DEFAULT_BUDGET) -> SquareGainReport:
    """Whether the diagonal square acquires invariants beyond the pullbacks.

    A positive gain on the second cartesian power is the canonical witness
    that products with some partner system gain invariants at all, and it
    predicts a positive-dimensional translational image, so the base degree
    profile is attached as evidence whenever a new invariant is found.

    The pullbacks are the base invariants embedded in either factor.  Every
    base invariant is algebraic over the base generators, so the pullbacks
    of the generators have the same algebraic closure as all of them: one
    ``JacobianSelector`` is seeded with those, and the pullback rank is the
    number it keeps.  The witness is the first square invariant that the
    same selector keeps next, that is, the first one independent of the
    pullbacks.

    The rank never exceeds the dimension.  So when the base rank is n, the
    pullbacks already have rank 2n, the square's dimension: the square rank
    is 2n, proven rather than searched, and no new invariant can exist.
    Otherwise the square rank is the larger of the searched rank and the
    pullback rank: the pullbacks are invariants of the square, so both are
    proven lower bounds, and a search that misses them reports no less.

    Each search stops as soon as its rank reaches a proven bound, since no
    later invariant can change the report:

      * base, K the invariant field: trdeg K <= n, and trdeg K <= n - 1
        when phi has infinite order.  For if trdeg K = n, then k(X)/K is
        finite, and phi* is one of its finitely many K-automorphisms, so
        phi has finite order;
      * square, L its invariant field: trdeg L <= n + trdeg K, so L has
        trdeg <= 2n, and <= 2n - 1 at infinite order.  Let l_i in L be
        linearly independent over K_2, the invariants of the second
        factor, and take a shortest relation sum a_i l_i = 0 over k(X_2),
        with a_1 = 1.  Subtracting its image under phi* leaves a shorter
        one, so every a_i is invariant, in K_2, which cannot be: L and
        k(X_2) are linearly disjoint over K_2.  So elements of L that are
        algebraically independent over K_2 stay so over k(X_2), and
        trdeg L - trdeg K <= trdeg k(X_1 x X_2)/k(X_2) = n.

    Infinite order is decided by the exact certificate
    ``_proves_infinite_order``, computed at most once per call and only
    when a stop depends on it: a search that reaches the bound of the
    finite-order case stops without it.

    Why the report stays the same: the greedy generators, and with them
    the base rank and the pullback rank, depend only on the prefix of the
    base search that reaches its final rank, and the searched square rank
    likewise.  Once the square rank R exceeds the pullback rank, some member
    of the square prefix is independent of the pullbacks (its rank over
    them alone would be at most the pullback rank otherwise), so the
    witness, the first such invariant, lies in the prefix.
    """
    n = sys.dim
    infinite_order = functools.cache(lambda: _proves_infinite_order(sys))

    def at_bound(full):
        # the bound is full, and full - 1 at infinite order
        return lambda kept: kept == full or (kept == full - 1 and infinite_order())

    base = JacobianSelector(sys.variables)
    _pull(sys, budget, base, at_bound(n))
    generators = base.kept
    square = diagonal_power(sys, 2)
    selector = JacobianSelector(square.variables)
    for g in generators:
        for positions in (range(n), range(n, 2 * n)):
            selector.offer(g.embed(square.variables, list(positions)))
    pullback_rank = len(selector.kept)
    if len(generators) == n:
        square_rank, square_invariants = 2 * n, []
    else:
        searched = JacobianSelector(square.variables)
        square_invariants = _pull(square, budget, searched, at_bound(2 * n))
        square_rank = max(len(searched.kept), pullback_rank)
    new_found = square_rank > pullback_rank
    witness = None
    if new_found:
        witness = next((f for f in square_invariants if selector.offer(f)), None)
        if witness is None:
            raise AssertionError("rank gain without a single witness")
    profile = degree_sequence(sys, EVIDENCE_WINDOW) if new_found else None
    return SquareGainReport(base_rank=len(generators),
                            square_rank=square_rank,
                            pullback_rank=pullback_rank,
                            new_invariant_found=new_found,
                            witness=witness,
                            degree_profile=profile)
