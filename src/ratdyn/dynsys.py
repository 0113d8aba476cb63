"""Rational self-maps of affine n-space: iteration, products, pullback.

A system is an ordered variable tuple plus one normalized rational function
per coordinate.  All operations are pure; systems are immutable and safe to
share across threads.  A system keeps the packed power tables of its own
coordinates (``power_tables``), which every substitution into it reads; a
call that needs higher powers builds new tables and swaps the reference,
and never changes tables in place, so a reader sees either one complete
object or the other.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import (IndeterminacyError, NotDominantError, PreconditionError,
                     VariableMismatchError, WorkLimitError)
from .exactalg import PowerTables, RationalFunction, jacobian_rank

DOMINANT = "dominant"
NOT_DOMINANT = "not-dominant"

GROWTH_BOUNDED = "bounded"
GROWTH_POLYNOMIAL = "polynomial-suspected"
GROWTH_EXPONENTIAL = "exponential-suspected"

# the degree window of the growth evidence: the "growth" expectation, the
# classifier's profile and the profile attached to a square's gain
EVIDENCE_WINDOW = 6

# the most terms that ``compose`` lets a cleared coordinate of its result
# have, by ``_term_bound``: Henon's phi^9 (205761) passes, and its phi^10
# (821121), 3 s and 336 MB on a 2-core host, does not
TERM_CAP = 300_000

# the most iterates that ``iterate`` and ``degree_sequence`` compute; on a
# 2-core host 10000 steps take 0.3 s on the shift and 4 s on the bundled
# Moebius map, whose coefficients grow, and an unbounded count could run
# for hours
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class DynamicalSystem:
    """A rational map of affine space to itself, coordinate by coordinate."""

    variables: Tuple[str, ...]
    coords: Tuple[RationalFunction, ...]
    _tables: Optional[PowerTables] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != len(self.variables):
            raise VariableMismatchError(
                f"{len(self.coords)} coordinates for {len(self.variables)} "
                "variables: only self-maps of affine n-space are admitted")
        for c in self.coords:
            if c.variables != self.variables:
                raise VariableMismatchError(
                    f"coordinate over {c.variables}, expected {self.variables}")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def degree(self) -> int:
        """max over coordinates of max(deg num, deg den), after normalization."""
        return max(c.degree for c in self.coords)

    def power_tables(self, bounds: Sequence[int]) -> PowerTables:
        """Power tables of the coordinates that hold the powers up to
        ``bounds``, kept for the next call."""
        tables = self._tables
        grown = PowerTables(self.coords, bounds) if tables is None else tables.covering(bounds)
        if grown is not tables:
            object.__setattr__(self, "_tables", grown)
        return grown

    @classmethod
    def identity(cls, variables: Sequence[str]) -> "DynamicalSystem":
        vars_t = tuple(variables)
        return cls(vars_t, tuple(RationalFunction.variable(vars_t, v) for v in vars_t))

    def __str__(self):
        body = ", ".join(f"{v} -> {c}" for v, c in zip(self.variables, self.coords))
        return f"({body})"


@dataclass(frozen=True)
class DegreeProfile:
    """Degrees of the first N iterates plus a documented growth heuristic.

    ``degrees[i]`` is the degree of the (i+1)-st iterate.  The class labels
    are evidence, not proof: bounded degrees are necessary for the iterates
    to live in one algebraic family, never sufficient on their own.
    """

    degrees: Tuple[int, ...]
    growth_class: str
    fitted_rate: Fraction


def validate_dominant(sys: DynamicalSystem) -> str:
    """Exact dominance verdict via the rank of the coordinate Jacobian.

    The map is dominant iff its Jacobian has full rank over the function
    field.  ``jacobian_rank`` decides that exactly (a seeded evaluation only
    ever proves independence), so the verdict is ``dominant`` or
    ``not-dominant``, never a guess.
    """
    return DOMINANT if jacobian_rank(sys.coords) == sys.dim else NOT_DOMINANT


def require_dominant(sys: DynamicalSystem):
    if validate_dominant(sys) != DOMINANT:
        raise NotDominantError(f"system {sys} is not dominant")


def _term_bound(outer: DynamicalSystem, inner: DynamicalSystem,
                bounds: Sequence[Sequence[int]]) -> int:
    """A bound on the terms of each cleared coordinate of
    ``compose(outer, inner)``, from the term counts and degrees at hand;
    ``bounds`` holds the largest exponents of each outer coordinate.

    Cleared at its largest exponents b, a term x^e of an outer coordinate
    becomes prod num_i^e_i den_i^(b_i - e_i) over the inner coordinates
    num_i/den_i: a polynomial with at most prod t_i^b_i terms, t_i the
    larger term count of num_i and den_i, and of degree at most
    D = sum b_i deg_i.  The bound is the sparse one, the outer coordinate's
    term count times that product; where that exceeds ``TERM_CAP``, the
    smaller of it and the dense count C(n + D, n)."""
    widths = [max(len(g.num.support()), len(g.den.support())) for g in inner.coords]
    degrees = None
    worst = 0
    for c, b in zip(outer.coords, bounds):
        bound = (len(c.num.support()) + len(c.den.support())) * math.prod(map(pow, widths, b))
        if bound > TERM_CAP:
            if degrees is None:
                degrees = [g.degree for g in inner.coords]
            bound = min(bound, math.comb(outer.dim + sum(map(operator.mul, b, degrees)),
                                         outer.dim))
        worst = max(worst, bound)
    return worst


def compose(outer: DynamicalSystem, inner: DynamicalSystem) -> DynamicalSystem:
    """The system x -> outer(inner(x)).

    Raises WorkLimitError, before composing, when ``_term_bound`` allows a
    coordinate more than ``TERM_CAP`` terms."""
    if outer.variables != inner.variables:
        raise VariableMismatchError("composition of systems over different variables")
    bounds = [c.max_exponents() for c in outer.coords]
    terms = _term_bound(outer, inner, bounds)
    if terms > TERM_CAP:
        raise WorkLimitError(f"a coordinate of the composition may have up to {terms} "
                             f"terms, above the cap of {TERM_CAP}")
    tables = inner.power_tables([max(column) for column in zip(*bounds)])
    try:
        coords = tuple(map(tables.substitute, outer.coords, bounds))
    except IndeterminacyError as exc:
        raise IndeterminacyError(
            "composition fell into a pole set; the maps are not composable "
            "as dominant rational maps") from exc
    return DynamicalSystem(outer.variables, coords)


def _size(sys: DynamicalSystem) -> int:
    """Number of numerator and denominator terms over all coordinates."""
    return sum(len(c.num.support()) + len(c.den.support()) for c in sys.coords)


def iterates(sys: DynamicalSystem) -> Iterator[DynamicalSystem]:
    """The iterates phi, phi^2, phi^3, ... of a dominant map, normalized.

    The only place where a map is composed with itself.  Powers of one map
    commute, so ``compose(current, phi)`` and ``compose(phi, current)`` give
    the same next iterate; the cost is in the power tables of the inner
    map, so the map with fewer terms goes inside, the iterate so far on a
    tie.  When phi is inside, every step reads phi's own tables, which are
    built once and grown only when a step needs higher powers.  Dominance
    is the caller's precondition: on a map that is not dominant the
    bracketing matters.  An iterate that ``compose`` bounds above
    ``TERM_CAP`` terms in a coordinate raises WorkLimitError instead.
    """
    size = _size(sys)
    current = sys
    while True:
        yield current
        if size < _size(current):
            current = compose(current, sys)
        else:
            current = compose(sys, current)


def iterate(sys: DynamicalSystem, m: int) -> DynamicalSystem:
    """m-th iterate of a dominant map, with fully normalized coordinates."""
    if m < 0:
        raise PreconditionError("iteration count must be >= 0")
    if m > MAX_ITERATIONS:
        raise PreconditionError(f"iteration count must be <= {MAX_ITERATIONS}")
    require_dominant(sys)
    if m == 0:
        return DynamicalSystem.identity(sys.variables)
    return next(itertools.islice(iterates(sys), m - 1, None))


def _fresh_names(groups: Sequence[Sequence[str]]) -> List[List[str]]:
    """Rename the i-th group by suffixing its copy index, disambiguating
    further with underscores if the naive names collide."""
    names = [[f"{v}{i + 1}" for v in group] for i, group in enumerate(groups)]
    flat = [v for g in names for v in g]
    if len(set(flat)) != len(flat):
        names = [[f"{v}_{i + 1}" for v in group] for i, group in enumerate(groups)]
        flat = [v for g in names for v in g]
        if len(set(flat)) != len(flat):
            raise VariableMismatchError("cannot build fresh variable names")
    return names


def product(a: DynamicalSystem, b: DynamicalSystem) -> DynamicalSystem:
    """Coordinate-wise product on the disjoint union of the variables.

    Variables of ``b`` are suffixed when they collide with those of ``a``.
    """
    b_names = list(b.variables)
    taken = set(a.variables)
    for i, v in enumerate(b_names):
        if v in taken:
            k = 2
            while f"{v}_{k}" in taken or f"{v}_{k}" in b_names:
                k += 1
            b_names[i] = f"{v}_{k}"
        taken.add(b_names[i])
    variables = a.variables + tuple(b_names)
    pos_a = list(range(a.dim))
    pos_b = list(range(a.dim, a.dim + b.dim))
    coords = tuple(c.embed(variables, pos_a) for c in a.coords)
    coords += tuple(c.embed(variables, pos_b) for c in b.coords)
    return DynamicalSystem(variables, coords)


def diagonal_power(sys: DynamicalSystem, m: int) -> DynamicalSystem:
    """m-fold product of the system with itself, copy i renamed v -> v{i}."""
    if m < 1:
        raise PreconditionError("power must be >= 1")
    names = _fresh_names([sys.variables] * m)
    variables = tuple(v for group in names for v in group)
    coords = []
    for i in range(m):
        offset = i * sys.dim
        positions = list(range(offset, offset + sys.dim))
        coords.extend(c.embed(variables, positions) for c in sys.coords)
    return DynamicalSystem(variables, tuple(coords))


def pullback(sys: DynamicalSystem, f: RationalFunction) -> RationalFunction:
    """The composition f after the map: the field endomorphism f -> f(coords)."""
    if f.variables != sys.variables:
        raise VariableMismatchError("function over different variables than the system")
    bounds = f.max_exponents()
    return sys.power_tables(bounds).substitute(f, bounds)


def symmetrize_iterate_invariant(sys: DynamicalSystem, f: RationalFunction,
                                 m: int) -> List[RationalFunction]:
    """Turn an invariant of the m-th iterate into invariants of the map itself.

    An f fixed by the m-th iterate is a root of the degree-m polynomial whose
    roots are the m successive pullbacks of f, so the elementary symmetric
    functions e_1..e_m of that orbit are fixed by the map.  They are returned
    in order; constant values may appear and are retained (check
    ``is_constant`` on the entries).
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    orbit = [f]
    for _ in range(m - 1):
        orbit.append(pullback(sys, orbit[-1]))
    if pullback(sys, orbit[-1]) != f:
        raise PreconditionError("f is not invariant under the m-th iterate")
    # e_k update: after absorbing the next orbit element o,
    # e_k <- e_k + o * e_{k-1}
    elem = [RationalFunction.constant(f.variables, 1)]
    for o in orbit:
        elem.append(RationalFunction.constant(f.variables, 0))
        for k in range(len(elem) - 1, 0, -1):
            elem[k] = elem[k] + o * elem[k - 1]
    outputs = elem[1:]
    for g in outputs:
        if pullback(sys, g) != g:
            raise AssertionError(f"symmetrized output {g} failed invariance")
    return outputs


def _halfwindow_slope(xs: List[float], ys: List[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / var


def degree_sequence(sys: DynamicalSystem, N: int) -> DegreeProfile:
    """Degrees of the first N normalized iterates, classified heuristically.

    Classification rule: bounded when the last ceil(N/2) degrees take at most
    two distinct values and do not exceed the maximum seen earlier in the
    window; exponential-suspected when the least-squares slope of
    log(degrees) over the last ceil(N/2) points exceeds 0.1; polynomial-
    suspected otherwise.  The sequence is not assumed monotone (normalization
    can drop degrees).
    """
    if N < 1:
        raise PreconditionError("window length must be >= 1")
    if N > MAX_ITERATIONS:
        raise PreconditionError(f"window length must be <= {MAX_ITERATIONS}")
    require_dominant(sys)
    degrees = [it.degree for it in itertools.islice(iterates(sys), N)]
    half = math.ceil(N / 2)
    tail = degrees[N - half:]
    head = degrees[:N - half]
    if len(set(tail)) <= 2 and (not head or max(tail) <= max(head)):
        return DegreeProfile(tuple(degrees), GROWTH_BOUNDED, Fraction(0))
    idx = list(range(N - half + 1, N + 1))
    logs = [math.log(max(d, 1)) for d in tail]
    slope = _halfwindow_slope([float(i) for i in idx], logs)
    if slope > 0.1:
        rate = Fraction(slope).limit_denominator(10 ** 6)
        return DegreeProfile(tuple(degrees), GROWTH_EXPONENTIAL, rate)
    exponent = _halfwindow_slope([math.log(i) for i in idx], logs)
    rate = Fraction(exponent).limit_denominator(10 ** 6)
    return DegreeProfile(tuple(degrees), GROWTH_POLYNOMIAL, rate)
