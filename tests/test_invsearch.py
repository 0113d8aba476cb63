"""Invariant search: bases, catalogs, pencils, ranks, square gain."""

import itertools
import operator
import os
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ratdyn import invsearch
from ratdyn.cli import bundled_systems_dir, run_command
from ratdyn.dynsys import (EVIDENCE_WINDOW, DynamicalSystem, degree_sequence,
                           diagonal_power, iterate, iterates, pullback)
from ratdyn.errors import NotDominantError
from ratdyn.exactalg import (JacobianSelector, Polynomial, RationalFunction,
                             basis_exponents, clear_denominators,
                             coprime_factor_basis, grlex_key,
                             jacobian_rank, monomials_upto, nullspace, poly_gcd,
                             transpose, try_divide)
from ratdyn.exactalg.linalg import _echelon
from ratdyn.exactalg.poly import (_combine_int, _divide_int, _gcd_primitive,
                                  canonical_order,
                                  _int_primitive, _is_constant, _minus_shifted,
                                  _mul_int, _normalized, _scaled_int)
from ratdyn.invsearch import (DEFAULT_BUDGET, SearchBudget, SquareGainReport,
                              _ClearedPool, adim_lower_bound, independence_rank,
                              polynomial_invariant_basis, rational_invariant_search,
                              square_gain_check)

from ratdyn.systemfile import load_system
from ratdyn.translation import classify_system

import conftest
import test_sweep
from conftest import (_fraction_jacobian_row, _fraction_reduce_row,
                      _fraction_rref, make_system, poly,
                      ref_cleared_monomial_images, ref_pencil_candidates, rf)


def test_budget_validation():
    with pytest.raises(Exception):
        SearchBudget(max_num_degree=-1)
    assert DEFAULT_BUDGET == SearchBudget(3, 3, 2, 3)


# -- polynomial stage -----------------------------------------------------------


def test_polynomial_basis_shift_pair():
    shift2 = make_system("x y", "x + 1", "y + 1")
    basis = polynomial_invariant_basis(shift2, 1)
    assert basis[0] == Polynomial.constant(("x", "y"), 1)
    assert len(basis) == 2
    assert basis[1] == poly("x - y", "x y")


def test_polynomial_basis_identity_all_monomials():
    ident = DynamicalSystem.identity(("x", "y"))
    basis = polynomial_invariant_basis(ident, 2)
    assert len(basis) == 6
    assert all(len(p.terms) == 1 for p in basis)


def test_polynomial_basis_scaling_only_constants():
    # f(2x, 2y) = f forces 2^j c = c on each graded piece, so only degree 0
    double = make_system("x y", "2*x", "2*y")
    basis = polynomial_invariant_basis(double, 2)
    assert basis == [Polynomial.constant(("x", "y"), 1)]


def test_polynomial_basis_swap_symmetric_functions():
    swap = make_system("x y", "y", "x")
    basis = polynomial_invariant_basis(swap, 2)
    assert poly("x + y", "x y") in basis
    assert poly("x*y", "x y") in basis
    assert poly("x^2 + y^2", "x y") in basis
    for p in basis:
        assert pullback(swap, RationalFunction(p)) == RationalFunction(p)


# -- rational search -------------------------------------------------------------


def test_scaling_finds_ratio():
    double = make_system("x y", "2*x", "2*y")
    found = rational_invariant_search(double, SearchBudget(1, 1, 2, 3))
    assert found == [rf("x/y", "x y")]


def test_shift_search_is_empty():
    shift = make_system("x", "x + 1")
    assert rational_invariant_search(shift, DEFAULT_BUDGET) == []


def test_shift_pair_polynomial_stage():
    shift2 = make_system("x y", "x + 1", "y + 1")
    found = rational_invariant_search(shift2, SearchBudget(1, 1, 2, 3))
    assert found == [rf("x - y", "x y")]


def test_entry_points_reject_non_dominant_maps():
    # each entry point relies on its first callee's dominance check
    collapse = make_system("x y", "x", "x")
    for call in (lambda s: polynomial_invariant_basis(s, 2),
                 rational_invariant_search, adim_lower_bound, square_gain_check,
                 lambda s: degree_sequence(s, 4), classify_system):
        with pytest.raises(NotDominantError):
            call(collapse)


@pytest.mark.parametrize("variables, exprs, budget, degrees", [
    # the q = 1 solve, every catalog solve and the pencil stage at degree 3;
    # the catalog's Darboux flags need the images of its degree-1 factors
    # at degree 1
    ("x", ("(2*x + 3)/(x + 1)",), DEFAULT_BUDGET, [3, 1]),
    # the catalog is built after the q = 1 solve, and its Darboux split
    # tabulates degree 2, then 1
    ("x y", ("y", "(y^2 + 1)/x"), DEFAULT_BUDGET, [3, 2, 1]),
    # no catalog: the q = 1 solve at degree 1, the pencil stage at 2
    ("x y", ("2*x", "2*y"), SearchBudget(1, 2, 0, 6), [1, 2]),
])
def test_search_solves_q1_first_and_tabulates_each_degree_once(variables, exprs,
                                                               budget, degrees):
    sys = make_system(variables, *exprs)
    tabulated, solved = [], []
    real_monomials, real_stage = (invsearch.monomials_upto,
                                  invsearch._fixed_denominator_invariants)

    def monomials(n, d):
        tabulated.append(d)
        return real_monomials(n, d)

    def stage(sys, q, budget, tables, kernels):
        solved.append(q)
        return real_stage(sys, q, budget, tables, kernels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "monomials_upto", monomials)
        mp.setattr(invsearch, "_fixed_denominator_invariants", stage)
        rational_invariant_search(sys, budget)
    assert tabulated == degrees
    assert solved[0] == Polynomial.constant(sys.variables, 1)
    assert not any(q.is_constant for q in solved[1:])


def test_henon_search_is_empty():
    henon = make_system("x y", "y", "y^2 - x")
    assert rational_invariant_search(henon, SearchBudget(4, 4, 2, 3)) == []


def test_pencil_stage_finds_ratio_without_catalog():
    # depth 0 disables the denominator catalog, forcing the pencil fallback
    double = make_system("x y", "2*x", "2*y")
    found = rational_invariant_search(double, SearchBudget(1, 1, 0, 3))
    assert len(found) == 1
    assert found[0] in (rf("x/y", "x y"), rf("y/x", "x y"))


def test_mobius_order_two_invariant():
    # x -> 1/x has order 2; x + 1/x generates the fixed field
    inv = make_system("x", "1/x")
    found = rational_invariant_search(inv, SearchBudget(2, 2, 2, 3))
    assert found
    expected = rf("(x^2 + 1)/x", "x")
    assert any(jacobian_rank([f, expected]) == 1 for f in found)


def test_search_soundness_and_rank():
    report = adim_lower_bound(make_system("x y", "2*x", "2*y"), SearchBudget(1, 1, 2, 3))
    assert report.independence_rank == 1
    assert report.reduction_generators == (rf("x/y", "x y"),)
    assert report.verified
    for f in report.invariants:
        assert pullback(report.system, f) == f


def test_adim_shift_rank_zero():
    report = adim_lower_bound(make_system("x", "x + 1"))
    assert report.independence_rank == 0
    assert report.invariants == ()


def test_adim_identity_rank_two():
    report = adim_lower_bound(DynamicalSystem.identity(("x", "y")),
                              SearchBudget(1, 1, 1, 3))
    assert report.independence_rank == 2
    assert len(report.reduction_generators) == 2


def test_adim_swap_rank_two():
    report = adim_lower_bound(make_system("x y", "y", "x"),
                              SearchBudget(2, 2, 2, 3))
    assert report.independence_rank == 2


def test_budget_monotonicity():
    double = make_system("x y", "2*x", "2*y")
    small = adim_lower_bound(double, SearchBudget(1, 1, 1, 1))
    big = adim_lower_bound(double, SearchBudget(2, 2, 2, 3))
    assert big.independence_rank >= small.independence_rank
    swap = make_system("x y", "y", "x")
    assert (adim_lower_bound(swap, SearchBudget(2, 2, 1, 1)).independence_rank
            >= adim_lower_bound(swap, SearchBudget(1, 1, 1, 1)).independence_rank)


def test_independence_rank_examples():
    assert independence_rank([rf("x - y", "x y"), rf("(x - y)^3 + 1", "x y")]) == 1
    assert independence_rank([rf("x/y", "x y"), rf("x + y", "x y")]) == 2
    assert independence_rank([]) == 0


def test_iterate_consistency_on_finite_order_maps():
    # the fixed field of an iterate is algebraic over the fixed field of the
    # map, so the found ranks agree at a large enough budget
    budget = SearchBudget(2, 2, 2, 3)
    for sysm, m in [(make_system("x", "-x"), 2),
                    (make_system("x y", "y", "x"), 2),
                    (make_system("x", "1/x"), 2)]:
        r1 = adim_lower_bound(sysm, budget).independence_rank
        rm = adim_lower_bound(iterate(sysm, m), budget).independence_rank
        assert r1 == rm


def test_iterate_rank_reached_via_symmetrization():
    # invariants of the m-th iterate symmetrize into invariants of the map,
    # so symmetrized outputs alone already realize the full rank
    from ratdyn.dynsys import symmetrize_iterate_invariant
    swap = make_system("x y", "y", "x")
    budget = SearchBudget(1, 1, 1, 3)
    iterate_invariants = adim_lower_bound(iterate(swap, 2), budget).invariants
    symmetrized = []
    for f in iterate_invariants:
        symmetrized.extend(symmetrize_iterate_invariant(swap, f, 2))
    assert independence_rank(symmetrized) >= adim_lower_bound(
        swap, SearchBudget(2, 2, 2, 3)).independence_rank


# -- square gain -------------------------------------------------------------------


def test_square_gain_shift():
    report = square_gain_check(make_system("x", "x + 1"))
    assert report.base_rank == 0
    assert report.square_rank >= 1
    assert report.new_invariant_found
    # witness is x1 - x2 up to scaling and addition of constants
    w = report.witness
    assert w is not None
    target = rf("x1 - x2", "x1 x2")
    one = RationalFunction.constant(("x1", "x2"), 1)
    assert jacobian_rank([w, target]) == 1
    assert report.degree_profile is not None
    assert report.degree_profile.growth_class == "bounded"


def test_square_gain_scaling_on_line():
    report = square_gain_check(make_system("x", "2*x"), SearchBudget(1, 1, 2, 3))
    assert report.base_rank == 0
    assert report.new_invariant_found
    assert report.witness == rf("x1/x2", "x1 x2")


def test_square_gain_identity_line_no_gain():
    report = square_gain_check(DynamicalSystem.identity(("x",)),
                               SearchBudget(1, 1, 1, 3))
    assert report.base_rank == 1
    assert report.square_rank == 2
    assert report.pullback_rank == 2
    assert not report.new_invariant_found
    assert report.witness is None


def test_square_gain_henon_negative():
    report = square_gain_check(make_system("x y", "y", "y^2 - x"))
    assert report.base_rank == 0
    assert report.square_rank == 0
    assert not report.new_invariant_found


def test_square_gain_swap_default_budget_is_fast():
    swap = make_system("x y", "y", "x")
    start = time.perf_counter()
    report = square_gain_check(swap)
    elapsed = time.perf_counter() - start
    assert (report.base_rank, report.square_rank, report.pullback_rank) == (2, 4, 4)
    assert not report.new_invariant_found
    assert elapsed < 20.0, f"default-budget swap square took {elapsed:.1f} s"


@pytest.mark.parametrize("sys, budget, full", [
    (make_system("x y", "y", "x"), SearchBudget(1, 1, 1, 1), False),
    (make_system("x y", "y", "x"), SearchBudget(2, 1, 1, 3), True),
    (make_system("x y", "y", "x"), SearchBudget(2, 2, 2, 3), True),
    (make_system("x y", "y", "x"), DEFAULT_BUDGET, True),
    (DynamicalSystem.identity(("x",)), SearchBudget(1, 1, 1, 1), True),
    (DynamicalSystem.identity(("x",)), SearchBudget(2, 1, 1, 3), True),
    (DynamicalSystem.identity(("x",)), SearchBudget(2, 2, 2, 3), True),
    (DynamicalSystem.identity(("x",)), DEFAULT_BUDGET, True),
    (DynamicalSystem.identity(("x", "y")), SearchBudget(1, 1, 1, 1), True),
], ids=["swap-1111", "swap-2113", "swap-2223", "swap-default", "identity-1111",
        "identity-2113", "identity-2223", "identity-default", "identity2-1111"])
def test_square_at_full_base_rank_is_proven_not_searched(sys, budget, full):
    # at base rank n the square rank is 2n without a search; the search, run
    # here as the reference, reaches the same rank (swap at 1,1,1,1 has base
    # rank 1 and is searched as before)
    searched = []
    pull = invsearch._pull

    def counted(s, b, selector, proven=None):
        searched.append(s.dim)
        return pull(s, b, selector, proven)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_pull", counted)
        report = square_gain_check(sys, budget)
    n = sys.dim
    assert (report.base_rank == n) == full
    assert searched == ([n] if full else [n, 2 * n])
    reference = adim_lower_bound(diagonal_power(sys, 2), budget)
    assert report.square_rank == reference.independence_rank
    assert report.pullback_rank == 2 * report.base_rank
    assert (report.new_invariant_found, report.witness, report.degree_profile) == (
        False, None, None)


# -- the square's searches stop at proven rank bounds --------------------------------


def _eager_square_gain_check(sys, budget):
    """``square_gain_check`` as it was before its searches stopped at a
    proven rank bound: both searches run to the end (``adim_lower_bound``),
    and the witness is the first square invariant that a selector seeded
    with the pullbacks keeps.  Returns the report and the lengths of the
    searches' outputs."""
    base = adim_lower_bound(sys, budget)
    square = diagonal_power(sys, 2)
    n = sys.dim
    selector = JacobianSelector(square.variables)
    for g in base.reduction_generators:
        for positions in (range(n), range(n, 2 * n)):
            selector.offer(g.embed(square.variables, list(positions)))
    pullback_rank = len(selector.kept)
    lengths = [len(base.invariants)]
    if base.independence_rank == n:
        square_rank, square_invariants = 2 * n, ()
    else:
        square_report = adim_lower_bound(square, budget)
        square_rank = max(square_report.independence_rank, pullback_rank)
        square_invariants = square_report.invariants
        lengths.append(len(square_invariants))
    new_found = square_rank > pullback_rank
    witness = next(f for f in square_invariants if selector.offer(f)) if new_found else None
    profile = degree_sequence(sys, EVIDENCE_WINDOW) if new_found else None
    return SquareGainReport(base_rank=base.independence_rank, square_rank=square_rank,
                            pullback_rank=pullback_rank, new_invariant_found=new_found,
                            witness=witness, degree_profile=profile), lengths


def _check_lazy_against_eager(sys, budget):
    """The same square report as the eager searches, from searches that
    keep no more invariants than theirs."""
    lengths = []
    search = invsearch._kept_invariants

    def counted(s, b):
        lengths.append(0)
        index = len(lengths) - 1

        def pulled():
            for f in search(s, b):
                lengths[index] += 1
                yield f
        return pulled()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_kept_invariants", counted)
        report = square_gain_check(sys, budget)
    reference, eager = _eager_square_gain_check(sys, budget)
    assert report == reference
    assert len(lengths) == len(eager)
    assert all(map(operator.le, lengths, eager)), (lengths, eager)
    return lengths, eager


def _sweep_system(name):
    if name in test_sweep.EXTRA_SYSTEMS:
        return make_system(*test_sweep.EXTRA_SYSTEMS[name])
    return load_system(os.path.join(bundled_systems_dir(), f"{name}.system")).build()


_SWEEP_BUDGETS = [DEFAULT_BUDGET if b == "default" else SearchBudget(*map(int, b.split(",")))
                  for b in test_sweep.BUDGETS]


@pytest.mark.parametrize("name", test_sweep._system_names())
def test_lazy_square_matches_the_eager_square_on_the_sweep(name):
    sys = _sweep_system(name)
    for budget in _SWEEP_BUDGETS:
        _check_lazy_against_eager(sys, budget)


def test_lazy_square_stops_where_the_bounds_are_proven():
    # the 3-D doubling reaches base rank 2 = n - 1 and square rank 5 = 2n - 1,
    # both bounds at infinite order, after 2 and 5 of 6 and 330 invariants
    lengths, eager = _check_lazy_against_eager(
        make_system("x y z", "2*x", "2*y", "2*z"), DEFAULT_BUDGET)
    assert (lengths, eager) == ([2, 5], [6, 330])
    # a one-variable map of infinite order has base rank 0 without a search:
    # only the square's solves run
    dims = []
    solve = invsearch._fixed_denominator_invariants

    def recorded(sys, *args):
        dims.append(sys.dim)
        return solve(sys, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_fixed_denominator_invariants", recorded)
        report = square_gain_check(make_system("x", "2*x"), DEFAULT_BUDGET)
    assert (report.base_rank, report.square_rank) == (0, 1)
    assert set(dims) == {2}


def test_lazy_pencil_stops_where_the_square_stops():
    # scale's square at 1,2,0,6 reaches its bound 2n - 1 = 1 on the first
    # pencil candidate: one point of the pencil's grid is tried, where the
    # search that runs to the end tries all 7448, and the report is the same
    sys, budget = _sweep_system("scale"), SearchBudget(1, 2, 0, 6)
    tried = []
    rows = invsearch._pencil_rows

    def counted(t, basis):
        tried.append(t)
        return rows(t, basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_pencil_rows", counted)
        report = square_gain_check(sys, budget)
        lazy = len(tried)
        reference, _ = _eager_square_gain_check(sys, budget)
    assert report == reference
    assert (lazy, len(tried) - lazy) == (1, 7448)


@pytest.mark.parametrize("name, calls", [
    ("henon", 0), ("monomial", 0), ("swap", 1), ("double3", 1), ("lyness", 1),
])
def test_square_asks_for_the_order_only_where_a_stop_needs_it(name, calls):
    # at the default budget: Henon and the monomial map end their searches
    # below n - 1 and 2n - 1, so no stop asks; swap reaches base rank
    # n - 1 = 1 on its way to 2, and the 3-D doubling and Lyness reach a
    # bound of the infinite-order case.  The order is asked for at most once
    counted = []
    order = invsearch.proven_order

    def recorded(sys):
        counted.append(sys)
        return order(sys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "proven_order", recorded)
        square_gain_check(_sweep_system(name), DEFAULT_BUDGET)
    assert len(counted) == calls


@pytest.mark.parametrize("seed", range(6))
def test_lazy_square_matches_the_eager_square_on_seeded_affine_maps(seed):
    rng = random.Random(f"lazy-square-{seed}")
    for budget in _SEARCH_BUDGETS:
        while True:
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
            if a * d != b * c:
                break
        e, f = rng.randint(-1, 1), rng.randint(-1, 1)
        _check_lazy_against_eager(
            make_system("x y", f"{a}*x + {b}*y + {e}", f"{c}*x + {d}*y + {f}"), budget)


# -- deduplication pool -----------------------------------------------------------

XYZ = ("x", "y", "z")


def test_factor_basis_covers_every_invariant_exactly():
    # shared and repeated factors: x + 1 appears squared, and in num and den;
    # alone, (x + 1)^2*y has the radical x*y + y, of which it is no power
    found = [rf(src, XYZ) for src in ("(x + 1)^2*y/z", "x/(x + 1)", "(x + 1)/y",
                                      "(x^2 - 1)/z^3", "y*z/x")]
    pool = _ClearedPool(XYZ, SearchBudget(1, 1, 1, 1))
    for n in range(1, len(found) + 1):
        pool.extend(found[:n])
        assert len(pool.exponents) == n
        for g, a in zip(found[:n], pool.exponents):
            num = pool.product([max(x, 0) for x in a])
            den = pool.product([max(-x, 0) for x in a])
            assert RationalFunction(num, den) == g
            assert num.scaled(g.num.leading()[1] / num.leading()[1]) == g.num
            assert den.scaled(g.den.leading()[1] / den.leading()[1]) == g.den
    assert sorted(map(str, pool.factors)) == ["x", "x + 1", "x - 1", "y", "z"]


def _reference_pool(found, budget):
    """The pool as built before the factored form: normalized RationalFunction
    products, the lcm of their denominators by poly_lcm, one exact division
    per cofactor, and the Fraction echelon of the cleared rows."""
    bound = max(budget.max_num_degree, budget.max_den_degree)
    total = max(budget.max_num_degree, 1)
    degrees = [g.degree for g in found]
    pool = [RationalFunction.constant(XYZ, 1)]

    def vectors(idx, weight_left, degree_left):
        if idx == len(found):
            yield ()
            return
        cap = min(weight_left, total, degree_left // degrees[idx])
        for e in range(-cap, cap + 1):
            for rest in vectors(idx + 1, weight_left - abs(e),
                                degree_left - abs(e) * degrees[idx]):
                yield (e,) + rest

    for expos in vectors(0, total, bound):
        prod = RationalFunction.constant(XYZ, 1)
        for g, e in zip(found, expos):
            if e:
                prod = prod * g ** e
        if any(expos) and prod.degree <= bound:
            pool.append(prod)
    den, index, rows = clear_denominators(list(dict.fromkeys(pool)))
    echelon, pivots = _fraction_rref(rows)
    return pool, den, index, echelon, pivots


def _reference_contains(ref, f):
    _, den, index, echelon, pivots = ref
    scale = try_divide(den, f.den)
    if scale is None:
        return False
    target = {}
    for e, c in (f.num * scale).terms.items():
        if e not in index:
            return False
        target[index[e]] = c
    return not _fraction_reduce_row(target, echelon, pivots)


_ATOMS = ["x", "y", "z", "x + 1", "x - y", "y*z + 1"]


@st.composite
def found_lists(draw):
    """Invariant-like lists whose members share and repeat factors."""
    found = []
    for _ in range(draw(st.integers(1, 3))):
        expos = draw(st.lists(st.integers(-2, 2), min_size=len(_ATOMS),
                              max_size=len(_ATOMS)))
        g = RationalFunction.constant(XYZ, 1)
        for atom, e in zip(_ATOMS, expos):
            g = g * rf(atom, XYZ) ** e
        if not g.is_constant and g.degree <= 4 and g not in found:
            found.append(g)
    if not found:
        found.append(rf("x/(x + 1)", XYZ))
    return found


@given(found_lists(), st.sampled_from([SearchBudget(1, 1, 1, 1),
                                       SearchBudget(2, 1, 1, 3),
                                       SearchBudget(2, 3, 1, 3)]),
       st.randoms(use_true_random=False))
# x/y splits the old factor x^2 + x into x and x + 1
@example([rf("x*(x + 1)/z", XYZ), rf("x/y", XYZ)], SearchBudget(2, 1, 1, 3),
         random.Random(0))
def test_factored_pool_matches_reference_pool(found, budget, rnd):
    # one pool extended along the list, as the collector does
    pool = _ClearedPool(XYZ, budget)
    for n in range(1, len(found) + 1):
        ref = _reference_pool(found[:n], budget)
        pool.extend(found[:n])
        products = ref[0]
        # same span: every reference product is a member, and the ranks agree
        assert all(pool.contains(p) for p in products)
        assert len(pool.echelon) == len(ref[3])
    inside = []
    for _ in range(4):
        combo = RationalFunction.constant(XYZ, 0)
        for p in rnd.sample(products, min(3, len(products))):
            combo = combo + p * Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
        inside.append(combo)
    outside = [found[0] ** (budget.max_num_degree + 2),
               rf("(x + 2)/y", XYZ), rf("x*y*z - 1", XYZ),
               products[-1] + rf("1/(z + 3)", XYZ)]
    for f in inside + outside:
        assert pool.contains(f) == _reference_contains(ref, f), f
    assert all(_reference_contains(ref, f) for f in inside)


def test_empty_pool_spans_only_the_constants():
    # the pool of the empty list is the constant row alone, so the collector
    # keeps its first candidate through the same span test as every other
    pool = _ClearedPool(XYZ, SearchBudget(2, 2, 1, 3))
    pool.extend([])
    assert pool.contains(RationalFunction.constant(XYZ, 3))
    assert not any(pool.contains(rf(src, XYZ))
                   for src in ("x", "x*y + 1", "1/z", "(x + 1)/y"))
    assert (pool.echelon, pool.multiplied) == ({(0, 0, 0): {(0, 0, 0): 1}}, 0)


@pytest.mark.parametrize("sources, budget, passes", [
    # x/y needs no new factor and no larger lift, so the pool is extended;
    # x^2/(y*z) = (x/y)*(x/z) comes only from a vector mixing old and new
    (["x/z", "y/z", "x/y"], SearchBudget(2, 2, 1, 3), 1),
    # y^2/x needs no new factor, but (x/y)/(y^2/x) = x^2/y^3 grows the lift
    # on y, so the echelon is multiplied by y in place
    (["x/y", "y^2/x"], SearchBudget(2, 3, 1, 3), 2),
])
def test_pool_extension_matches_the_reference_pool(sources, budget, passes):
    # passes over the echelon: one in-place multiplication per grown lift,
    # the first of them over the constant row alone
    found = [rf(src, XYZ) for src in sources]
    pool = _ClearedPool(XYZ, budget)
    pool.extend(found[:-1])
    factors = pool.factors
    pool.extend(found)
    ref = _reference_pool(found, budget)
    assert pool.factors is factors
    assert pool.multiplied == passes
    assert all(pool.contains(p) for p in ref[0])
    assert len(pool.echelon) == len(ref[3])


@pytest.mark.parametrize("sources, budget, moved, counts", [
    # the 3-cycle's fourth invariant brings a factor that sorts before the
    # third one's: the old factors move to positions 0, 1 and 3, and the
    # lift grows on the new factor
    (["x + y + z", "x^2 + y^2 + z^2", "x^3 + y^3 + z^3", "x^2*z + x*y^2 + y*z^2"],
     SearchBudget(3, 2, 1, 3), [[(0, 1)], [(1, 1)], [(3, 1)]], (4, 1)),
    # y^2/x brings no factor, and grows the lift on y, an old one
    (["x/y", "y^2/x"], SearchBudget(2, 3, 1, 3), [[(0, 1)], [(1, 1)]], (2, 1)),
    # (x + y)/z splits the old factor x^2 - y^2 into x + y and x - y, and
    # its square and their inverses grow the lift (1, 1) to (2, 2, 1)
    (["(x^2 - y^2)/z", "(x + y)/z"], SearchBudget(2, 2, 1, 3),
     [[(0, 1)], [(1, 1), (2, 1)]], (2, 1)),
    # the same split, and z/(x + y)^2 grows the lift (1, 1) to (1, 2, 1),
    # on one of the pieces alone
    (["(x^2 - y^2)/z", "z/(x + y)^2"], SearchBudget(2, 2, 1, 3),
     [[(0, 1)], [(1, 1), (2, 1)]], (2, 1)),
])
def test_extended_pool_equals_a_fresh_pool(sources, budget, moved, counts):
    # counts: the multiplications of the extended pool's echelon, and of a
    # fresh pool's, whose one pass is over the constant row alone
    found = [rf(src, XYZ) for src in sources]
    pool = _ClearedPool(XYZ, budget)
    for n in range(1, len(found)):
        pool.extend(found[:n])
    old = pool.factors
    pool.extend(found)
    assert pool.moves(old) == moved
    fresh = _ClearedPool(XYZ, budget)
    fresh.extend(found)
    assert (pool.multiplied, fresh.multiplied) == counts
    assert pool.factors == fresh.factors and pool.exponents == fresh.exponents
    assert (pool.lift, pool.den) == (fresh.lift, fresh.den)
    # a triangular echelon's pivots are its span's least monomials
    assert pool.echelon.keys() == fresh.echelon.keys()
    products = _reference_pool(found, budget)[0]
    others = [rf("(x + 2)/y", XYZ), rf("x*y*z - 1", XYZ),
              products[-1] + rf("1/(z + 3)", XYZ), found[0] ** (budget.max_num_degree + 2)]
    assert all(pool.contains(f) for f in products)
    assert [pool.contains(f) for f in others] == [fresh.contains(f) for f in others]
    assert not all(fresh.contains(f) for f in others)


# -- the collector against a rank pre-test ---------------------------------------


class _FractionCollector:
    """The reference collector: a rank pre-test in front of the span test,
    with Fraction gradients at seeded points, a Fraction rank of every
    cached row per candidate, and the gradients of a kept candidate
    evaluated again.  A candidate that raises the rank is never in the span,
    so the pre-test only decides whether the span test runs, and the kept
    list must be the collector's, which runs the span test alone."""

    def __init__(self, sys, budget):
        self.sys = sys
        self.budget = budget
        self.found = []
        self.rank = 0
        rng = random.Random(0x6465647570)
        self._points = [
            tuple(Fraction(rng.randint(-999, 999)) for _ in sys.variables)
            for _ in range(3)]
        self._rows = [[] for _ in self._points]
        self._pool = None

    def _rank_certainly_grew(self, f):
        for idx, point in enumerate(self._points):
            if self._rows[idx] is None or len(self._rows[idx]) < len(self.found):
                continue
            try:
                row = _fraction_jacobian_row(f, point)
            except ZeroDivisionError:
                continue
            rows = [{c: v for c, v in enumerate(r) if v}
                    for r in self._rows[idx] + [row]]
            if len(_fraction_rref(rows)[1]) > self.rank:
                return True
        return False

    def _remember(self, f):
        self.found.append(f)
        for idx, point in enumerate(self._points):
            if self._rows[idx] is None:
                continue
            try:
                self._rows[idx].append(_fraction_jacobian_row(f, point))
            except ZeroDivisionError:
                self._rows[idx] = None

    def offer(self, f):
        if f.is_constant:
            return
        if pullback(self.sys, f) != f:
            raise AssertionError(f"search produced a non-invariant: {f}")
        if any(f == g for g in self.found):
            return
        if self._rank_certainly_grew(f):
            self._remember(f)
            self.rank += 1
            self._pool = None
            return
        if self._pool is None:
            self._pool = _ClearedPool(self.sys.variables, self.budget)
            self._pool.extend(self.found)
        if not self._pool.contains(f):
            self._remember(f)
            self._pool = None


def _search(collector, sys, budget, points=None):
    """The kept list of rational_invariant_search run with the given
    collector class, and the search's collector; ``points`` replace the
    seeded points of the reference collector."""
    made = []

    def make(s, b):
        made.append(collector(s, b))
        if points is not None:
            made[-1]._points = points
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_Collector", make)
        found = rational_invariant_search(sys, budget)
    return found, made[0]


_SEARCH_BUDGETS = [SearchBudget(1, 1, 1, 3), SearchBudget(2, 1, 1, 3),
                   SearchBudget(2, 2, 1, 3)]


@given(st.data())
def test_collector_matches_fraction_collector(data):
    # the stage maps below, with the reference's rank pre-test at its seeded
    # points and at tiny points, where poles and points that drop the rank
    # are common
    sys = data.draw(rescaled_maps())
    budget = data.draw(st.sampled_from(_SEARCH_BUDGETS))
    points = data.draw(st.one_of(st.none(), st.lists(
        st.tuples(*[st.integers(-2, 2)] * sys.dim), min_size=3, max_size=3)))
    assert (_search(invsearch._Collector, sys, budget)[0]
            == _search(_FractionCollector, sys, budget, points)[0])


@pytest.mark.parametrize("variables, exprs, square, budget", [
    ("x y", ("y", "x"), True, SearchBudget(2, 1, 1, 3)),
    ("x y z", ("y", "z", "x"), False, SearchBudget(3, 2, 1, 3)),
    ("x y", ("2*x", "2*y"), True, SearchBudget(2, 2, 2, 3)),
])
def test_collector_matches_fraction_collector_on_heavy_searches(
        variables, exprs, square, budget):
    sys = make_system(variables, *exprs)
    if square:
        sys = diagonal_power(sys, 2)
    found, _ = _search(invsearch._Collector, sys, budget)
    reference, collector = _search(_FractionCollector, sys, budget)
    assert found == reference
    # both tests of the reference decide: its pre-test keeps some candidates
    # and its span test others
    assert collector.rank >= 1 and len(found) > collector.rank


def _check_pools_against_fresh_builds(mp, answers):
    """Make every span test of an extended pool also ask a fresh pool,
    extended once to the invariants it covers, and check that both give the
    same answer and the same rank; ``answers`` collects the answers.

    The fresh pools of one search take the factors and exponent vectors of a
    reference pool of their own, which covers the invariants but forms no
    products, and which the search's pool never touches (a fresh pool that
    factors every invariant again makes the 3-D doubling square take about
    4 s instead of 1 s).  One fresh pool serves the span tests between two
    extensions."""
    real_init, real_extend, real_contains = (
        _ClearedPool.__init__, _ClearedPool.extend, _ClearedPool.contains)

    def empty(args):
        pool = _ClearedPool.__new__(_ClearedPool)
        real_init(pool, *args)
        return pool

    def init(self, variables, budget):
        real_init(self, variables, budget)
        self.args = (variables, budget)
        self.reference = empty(self.args)
        self.covered = None

    def extend(self, found):
        real_extend(self, found)
        if self.covered != found:
            self.covered = list(found)
            reference = self.reference
            reference._cover(found[len(reference.exponents):])
            # the pool of the empty list over the reference's factors, which
            # takes the reference's exponent vectors and power tables instead
            # of covering found again
            self.fresh = fresh = empty(self.args)
            width = len(reference.factors)
            fresh.factors, fresh.exponents, fresh._powers = (
                list(reference.factors), list(reference.exponents), reference._powers)
            fresh.vectors, fresh.lift = {(0,) * width: None}, (0,) * width
            fresh._cover = lambda new: None
            real_extend(fresh, self.covered)
            # one pass over the echelon: the constant row by the first lift
            assert fresh.multiplied == (1 if found else 0)

    def contains(self, f):
        got = real_contains(self, f)
        fresh = self.fresh
        assert got == real_contains(fresh, f), (self.covered, f)
        # a triangular echelon's pivots are its span's least monomials
        assert self.echelon.keys() == fresh.echelon.keys()
        answers.append(got)
        return got

    mp.setattr(_ClearedPool, "__init__", init)
    mp.setattr(_ClearedPool, "extend", extend)
    mp.setattr(_ClearedPool, "contains", contains)


@pytest.mark.parametrize("variables, exprs, command, budget", [
    ("x y", ("2*x", "2*y"), "square", "2,2,2,3"),
    ("x y z", ("y", "z", "x"), "invariants", "3,2,1,3"),
    ("x y z", ("2*x", "2*y", "2*z"), "square", "2,2,2,3"),
])
def test_extended_pool_matches_a_fresh_pool_on_every_offer(
        tmp_path, variables, exprs, command, budget):
    # a square stops its searches at a proven rank bound, so the full
    # search of the square runs too, for the pool of 18 and 110 invariants
    names = variables.split()
    path = tmp_path / "input.system"
    path.write_text(f"var {', '.join(names)};\n"
                    + "".join(f"{v} -> {e};\n" for v, e in zip(names, exprs)))
    answers = []
    with pytest.MonkeyPatch.context() as mp:
        _check_pools_against_fresh_builds(mp, answers)
        _, code = run_command([command, str(path), "--budget", budget])
        if command == "square":
            rational_invariant_search(diagonal_power(make_system(variables, *exprs), 2),
                                      SearchBudget(*map(int, budget.split(","))))
    assert code == 0
    # both answers occur: the extended pool keeps and drops candidates
    assert set(answers) == {True, False}


@given(st.data())
def test_extended_pool_matches_a_fresh_pool_on_the_stage_maps(data):
    sys = data.draw(rescaled_maps())
    budget = data.draw(st.sampled_from(_SEARCH_BUDGETS))
    with pytest.MonkeyPatch.context() as mp:
        _check_pools_against_fresh_builds(mp, [])
        rational_invariant_search(sys, budget)


def test_double_square_moves_its_pools_without_a_split(systems_dir, pool_extensions):
    # one kept invariant after another extends the pool of each search: the
    # refinements of the factors keep every old factor, and the grown lifts
    # multiply the echelon in place, the first of each search the constant
    # row alone; a pool moves only when its factors are refined, never from
    # no factors to no factors.  The square stops its searches at their
    # proven rank bounds 1 and 3, after 1 + 3 kept invariants (the base
    # pool is never extended); the full searches keep 1 + 18
    path = os.path.join(systems_dir, "double.system")
    doc, code = run_command(["square", path, "--budget", "2,2,2,3"])
    assert code == 0 and doc["result"]["square_rank"] == 3
    assert pool_extensions.refined == [False] * 2
    assert (0, 0) not in pool_extensions.moves
    assert pool_extensions.multiplied == 2
    assert pool_extensions.kept == [1, 3]
    conftest.forget_pool_extensions(pool_extensions)
    double, budget = load_system(path).build(), SearchBudget(2, 2, 2, 3)
    assert adim_lower_bound(double, budget).independence_rank == 1
    assert len(rational_invariant_search(diagonal_power(double, 2), budget)) == 18
    assert pool_extensions.refined == [False] * 4
    assert (0, 0) not in pool_extensions.moves
    assert pool_extensions.multiplied == 4
    assert pool_extensions.kept == [1, 18]


def test_collector_drops_a_repeat_before_the_exact_gate():
    double = make_system("x y", "2*x", "2*y")
    collector = invsearch._Collector(double, SearchBudget(1, 1, 1, 3))
    gated = []
    real_pullback = invsearch.pullback

    def counting(sys, f):
        gated.append(f)
        return real_pullback(sys, f)

    ratio = rf("x/y", "x y")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "pullback", counting)
        for f in (ratio, ratio, rf("y/x", "x y"), ratio):
            collector.offer(f)
        # every candidate that is not a repeat is still gated
        with pytest.raises(AssertionError, match="non-invariant"):
            collector.offer(rf("x", "x y"))
    assert gated == [ratio, rf("y/x", "x y"), rf("x", "x y")]
    assert collector.found == [ratio]


class _RepeatsOf:
    """A collector's repeat set that holds what a given list holds, and
    nothing it is told to add."""

    def __init__(self, candidates):
        self.candidates = candidates

    def __contains__(self, f):
        return f in self.candidates

    def add(self, f):
        pass


class _UndecidedCollector(invsearch._Collector):
    """A collector that decides every offer afresh, by the exact gate and,
    once something is kept, the span test."""

    def __init__(self, sys, budget):
        super().__init__(sys, budget)
        self._decided = _RepeatsOf([])


class _KeptOnlyCollector(invsearch._Collector):
    """A collector that gates every offer but a repeat of a kept one."""

    def __init__(self, sys, budget):
        super().__init__(sys, budget)
        self._decided = _RepeatsOf(self.found)


@pytest.mark.parametrize("seed", range(4))
def test_collector_repeat_set_matches_the_linear_scan(seed):
    # a seeded stream of invariants of the doubling map, with repeats, some
    # of them written differently, and constants, against a collector that
    # decides every offer afresh
    variables = "x y"
    sys = make_system(variables, "2*x", "2*y")
    sources = ["x/y", "2*x/(2*y)", "y/x", "(x + y)/y", "x^2/y^2", "(x^2 + y^2)/(x*y)",
               "x/y + 1", "3*x/y", "(x - y)/(x + y)", "x*y/(x^2 + y^2)", "1", "-2"]
    rng = random.Random(seed)
    stream = [rf(rng.choice(sources), variables) for _ in range(40)]
    assert len(set(stream)) < len(stream)
    results = []
    for afresh in (False, True):
        gated = []
        real_pullback = invsearch.pullback

        def counting(sys, f):
            gated.append(f)
            return real_pullback(sys, f)

        collector = _UndecidedCollector if afresh else invsearch._Collector
        c = collector(sys, SearchBudget(2, 2, 1, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invsearch, "pullback", counting)
            for f in stream:
                c.offer(f)
        results.append((c.found, gated))
    (found, gated), (reference, _) = results
    assert found == reference
    # each distinct candidate is gated once, in the order first offered;
    # dropped ones are among them
    assert gated == list(dict.fromkeys(f for f in stream if not f.is_constant))
    assert len(found) < len(gated)


def _search_counts(run, reference=False):
    """run(), the invariants that every search it made yielded (all of them,
    or as many as a square pulled), and the numbers of invsearch
    ``nullspace`` calls and exact pullback gates.  With ``reference``, every
    fixed-denominator solve gets a kernel memo of its own, and every
    collector is an ``_UndecidedCollector``."""
    found, counts = [], {"nullspace": 0, "gates": 0}
    real_nullspace, real_pullback = invsearch.nullspace, invsearch.pullback
    real_kernel, real_search = invsearch._darboux_kernel, invsearch._kept_invariants

    def recorded_search(sys, budget):
        pulled = []
        found.append(pulled)

        def pulling():
            for f in real_search(sys, budget):
                pulled.append(f)
                yield f
        return pulling()

    def counted_nullspace(*args):
        counts["nullspace"] += 1
        return real_nullspace(*args)

    def counted_pullback(sys, f):
        counts["gates"] += 1
        return real_pullback(sys, f)

    def unshared_kernel(sys, q_int, dp, d, tables, kernels):
        return real_kernel(sys, q_int, dp, d, tables, {})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "nullspace", counted_nullspace)
        mp.setattr(invsearch, "pullback", counted_pullback)
        mp.setattr(invsearch, "_kept_invariants", recorded_search)
        if reference:
            mp.setattr(invsearch, "_darboux_kernel", unshared_kernel)
            mp.setattr(invsearch, "_Collector", _UndecidedCollector)
        out = run()
    return out, found, counts


def _check_against_the_undecided_search(run):
    """run() makes the same report, and its searches the same found lists,
    as with no kernel memo and no repeat set, from no more solves and
    gates; returns both counts."""
    report, found, counts = _search_counts(run)
    reference, reference_found, reference_counts = _search_counts(run, reference=True)
    assert report == reference
    assert found == reference_found
    assert counts["nullspace"] <= reference_counts["nullspace"]
    assert counts["gates"] <= reference_counts["gates"]
    return counts, reference_counts


@pytest.mark.parametrize("variables, exprs, budget, pins", [
    # of the square and of the full searches it stops early (the base
    # search, then the square's own), the solves: (without the memo, with
    # it), and the gates: (a repeat set of the kept candidates, none, one of
    # every decided candidate).  The shear square reaches no proven bound
    ("x y", ("2*x", "2*y"), "2,2,2,3",
     {"square": ((4, 4), (4, 4, 4)), "searches": ((21, 6), (96, 110, 58))}),
    ("x y z", ("2*x", "2*y", "2*z"), "2,2,2,3",
     {"square": ((4, 4), (7, 7, 7)), "searches": ((38, 6), (450, 486, 288))}),
    ("x y", ("2*x + y", "2*y"), "3,3,2,3",
     {"square": ((14, 8), (22, 31, 11)), "searches": ((14, 8), (22, 31, 11))}),
], ids=["double", "double-3d", "shear"])
def test_square_solves_each_cofactor_once_and_gates_each_candidate_once(
        variables, exprs, budget, pins, darboux_solves):
    # one solve per table degree and cofactor, one gate per distinct
    # candidate, against the search with neither
    sys = make_system(variables, *exprs)
    budget = SearchBudget(*map(int, budget.split(",")))
    runs = {"square": lambda: square_gain_check(sys, budget),
            "searches": lambda: (adim_lower_bound(sys, budget), rational_invariant_search(
                diagonal_power(sys, 2), budget))}
    for name, run in runs.items():
        solves, gates = pins[name]
        darboux_solves.clear()
        counts, reference = _check_against_the_undecided_search(run)
        # every nullspace call of both searches is a Darboux solve
        assert len(darboux_solves) == sum(solves)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invsearch, "_Collector", _KeptOnlyCollector)
            kept_only = _search_counts(run)[2]
        assert (reference["nullspace"], counts["nullspace"]) == solves
        assert (kept_only["gates"], reference["gates"], counts["gates"]) == gates


# -- the integer columns of the three linear stages --------------------------------

# small affine and Moebius maps; each is conjugated by x_i -> c_i x_i below
_STAGE_MAPS = [
    ("x y", "2*x", "2*y"), ("x y", "y", "x"), ("x y", "x + 1", "y + 1"),
    ("x y", "2*x + y", "2*y"), ("x y", "y", "-x"), ("x y", "-x", "1/y"),
    ("x", "1/x"), ("x", "(2*x + 3)/(x + 1)"), ("x", "-x"),
    ("x y z", "y", "z", "x"),
]
_SCALES = ["1", "2", "3", "-5", "1/2", "5/3"]


@st.composite
def rescaled_maps(draw, maps=_STAGE_MAPS):
    variables, *exprs = draw(st.sampled_from(maps))
    names = variables.split()
    scales = [draw(st.sampled_from(_SCALES)) for _ in names]
    # psi_i(x) = phi_i(c x) / c_i
    pattern = re.compile(r"\b(" + "|".join(names) + r")\b")
    scaled = {v: f"(({c})*{v})" for v, c in zip(names, scales)}
    return make_system(variables, *[f"({pattern.sub(lambda m: scaled[m[1]], e)})/({c})"
                                    for e, c in zip(exprs, scales)])


# the searches of the dedup-heavy and linear-solve benchmark workloads
_WORKLOAD_SEARCHES = [
    (("x y", "y", "x"), square_gain_check, SearchBudget(2, 1, 1, 3)),
    (("x y z", "y", "z", "x"), adim_lower_bound, SearchBudget(3, 2, 1, 3)),
    (("x y", "2*x", "2*y"), square_gain_check, SearchBudget(2, 2, 2, 3)),
    (("x y", "2*x + y", "2*y"), square_gain_check, SearchBudget(2, 2, 2, 3)),
    (("x y", "2*x + y", "2*y"), square_gain_check, SearchBudget(3, 3, 2, 3)),
    (("x", "(2*x + 3)/(x + 1)"), square_gain_check, SearchBudget(3, 3, 1, 3)),
    (("x", "(2*x + 3)/(x + 1)"), square_gain_check, SearchBudget(2, 3, 2, 3)),
]


@given(st.data())
def test_search_matches_the_undecided_search_on_the_stage_maps(data):
    # against no kernel memo and a collector that decides every offer
    # afresh: the same invariants, ranks and generators
    sys = data.draw(rescaled_maps())
    budget = data.draw(st.sampled_from(_SEARCH_BUDGETS))
    _check_against_the_undecided_search(lambda: adim_lower_bound(sys, budget))


@given(st.data())
def test_search_matches_the_undecided_search_on_the_workload_searches(data):
    # the same, on the rescaled workload searches: the rescaling changes
    # the cofactors, and with them the memo's keys
    spec, run, budget = data.draw(st.sampled_from(_WORKLOAD_SEARCHES))
    sys = data.draw(rescaled_maps([spec]))
    _check_against_the_undecided_search(lambda: run(sys, budget))


def _ref_pullbacks(sys, d):
    monos = monomials_upto(sys.dim, d)
    tables = ref_cleared_monomial_images(sys.coords, monos, (d,) * sys.dim)
    return monos, [Polynomial(sys.variables, t) for t in tables]


def _x(sys, e):
    return Polynomial(sys.variables, {e: Fraction(1)})


def _ref_polynomial_columns(sys, d):
    """The polynomial stage's columns as Fraction Polynomials."""
    monos, images = _ref_pullbacks(sys, d)
    full_den = Polynomial.constant(sys.variables, 1)
    for c in sys.coords:
        full_den = full_den * c.den ** d
    return [N - _x(sys, e) * full_den for e, N in zip(monos, images)]


def _ref_image(sys, q, dp):
    """The monomials, their cleared pullbacks and I(q), at the clearing
    degree of the fixed-denominator stage."""
    monos, images = _ref_pullbacks(sys, max(dp, q.total_degree))
    by_expo = {e: i for i, e in enumerate(monos)}
    q_image = Polynomial.zero(sys.variables)
    for e, c in q.terms.items():
        q_image = q_image + images[by_expo[e]].scaled(c)
    return monos, images, q_image


def _ref_fixed_denominator_columns(sys, q, dp):
    monos, images, q_image = _ref_image(sys, q, dp)
    return [images[i] * q - q_image * _x(sys, e)
            for i, e in enumerate(monos) if sum(e) <= dp]


def _ref_fixed_denominator_stage(sys, q, dp):
    """The stage's output from the full solve of the Fraction columns."""
    monos = [e for e in monomials_upto(sys.dim, max(dp, q.total_degree)) if sum(e) <= dp]
    kernel = _ref_kernel(_ref_fixed_denominator_columns(sys, q, dp))[2]
    candidates = (RationalFunction(p, q)
                  for p in invsearch._kernel_polynomials(sys, monos, kernel))
    return [f for f in candidates if not f.is_constant]


def _ref_pencil_columns(sys, dmax):
    monos, images = _ref_pullbacks(sys, dmax)
    s = len(monos)
    return [images[i] * _x(sys, monos[j]) - images[j] * _x(sys, monos[i])
            for i in range(s) for j in range(i + 1, s)]


def _kernels(run):
    """run() and (live rows, columns, kernel) of each invsearch.nullspace it
    made, so that the kernel each stage got is compared with the solve of
    the Fraction columns."""
    calls = []

    def recording(rows, ncols, limit=None):
        kernel = nullspace(rows, ncols, limit)
        calls.append((sum(1 for r in rows if r), ncols, kernel))
        return kernel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "nullspace", recording)
        out = run()
    return out, calls


def _ref_kernel(columns):
    rows = transpose(p.terms for p in columns)
    return len(rows), len(columns), nullspace(rows, len(columns))


@given(rescaled_maps(), st.integers(0, 2))
def test_polynomial_stage_kernel_matches_fraction_columns(sys, d):
    basis, calls = _kernels(lambda: polynomial_invariant_basis(sys, d))
    assert calls == [_ref_kernel(_ref_polynomial_columns(sys, d))]
    assert basis[0] == Polynomial.constant(sys.variables, 1)


def _is_darboux(sys, q, dp):
    """Whether q divides I(q), cleared at the stage's degree max(dp, deg q)."""
    return try_divide(_ref_image(sys, q, dp)[2], q) is not None


def _found_through_the_catalog(sys, q, budget, catalog):
    """Whether G, q's largest Darboux divisor (the limit of g <- gcd(g, I(g))
    from g = q), is 1 or a catalog entry, up to a constant, and every
    function f that the full solve finds for q is p/G with deg p <= dp:
    then G's solve finds p, and skipping q loses nothing."""
    dp = budget.max_num_degree
    g = q
    while (h := poly_gcd(g, _ref_image(sys, g, dp)[2])).total_degree < g.total_degree:
        g = h
    dens = [Polynomial.constant(sys.variables, 1), *catalog]
    if not any(e.total_degree == g.total_degree and try_divide(e, g) is not None
               for e in dens):
        return False
    found = _ref_fixed_denominator_stage(sys, q, dp)
    cofactors = [try_divide(g, f.den) for f in found]
    return all(c is not None and (f.num * c).total_degree <= dp
               for f, c in zip(found, cofactors))


@given(rescaled_maps(), st.sampled_from([SearchBudget(1, 1, 1, 3),
                                         SearchBudget(2, 2, 1, 3),
                                         SearchBudget(1, 3, 1, 3)]),
       st.sampled_from(["1", "3/7", "-2"]))
def test_fixed_denominator_kernels_match_fraction_columns(sys, budget, scale):
    # a product that the catalog tests, as it comes and rescaled: the stage
    # clears it either way.  A Darboux q makes one solve, with a column per
    # monomial of degree <= dp, and its output is that of the full solve for
    # p; the catalog drops any other q, and the full solve for it finds only
    # what an earlier entry's solve finds
    dp = budget.max_num_degree
    catalog = invsearch._denominator_catalog(sys, budget, {})
    for entry in _reference_catalog(sys, budget)[:6]:
        q = entry.scaled(Fraction(scale))
        if _is_darboux(sys, q, dp):
            found, calls = _kernels(lambda: invsearch._fixed_denominator_invariants(
                sys, q, budget, {}, {}))
            assert [ncols for _, ncols, _ in calls] == [len(monomials_upto(sys.dim, dp))]
            assert found == _ref_fixed_denominator_stage(sys, q, dp)
            assert all(pullback(sys, f) == f for f in found)
        else:
            assert entry not in catalog
            assert _found_through_the_catalog(sys, q, budget, catalog)


@given(rescaled_maps(), st.sampled_from([SearchBudget(1, 1, 1, 3),
                                         SearchBudget(2, 2, 1, 3),
                                         SearchBudget(1, 3, 1, 3),
                                         SearchBudget(3, 2, 2, 3)]))
def test_fixed_denominator_reduction_matches_the_full_solve(sys, budget):
    # every product that the catalog tests, with one cache of pullback
    # tables and solves for all: the full solve on a Darboux q; the catalog
    # drops any other q, losing nothing that an earlier entry's solve lacks
    dp = budget.max_num_degree
    tables, kernels = {}, {}
    catalog = invsearch._denominator_catalog(sys, budget, tables)
    for q in _reference_catalog(sys, budget):
        if _is_darboux(sys, q, dp):
            assert (invsearch._fixed_denominator_invariants(sys, q, budget, tables, kernels)
                    == _ref_fixed_denominator_stage(sys, q, dp))
        else:
            assert q not in catalog
            assert _found_through_the_catalog(sys, q, budget, catalog)


@given(rescaled_maps(), st.sampled_from([SearchBudget(1, 1, 1, 3),
                                         SearchBudget(2, 2, 1, 3),
                                         SearchBudget(1, 3, 1, 3),
                                         SearchBudget(3, 2, 2, 3)]))
def test_fixed_denominator_stage_emits_only_darboux_denominators(sys, budget):
    # the denominator of an invariant in lowest terms divides its own
    # cleared pullback, at the degree max(deg num, deg den)
    tables, kernels = {}, {}
    for q in invsearch._denominator_catalog(sys, budget, tables):
        for f in invsearch._fixed_denominator_invariants(sys, q, budget, tables,
                                                         kernels):
            assert _is_darboux(sys, f.den, f.num.total_degree)


def test_fixed_denominator_stage_skips_the_solve_above_the_numerator_budget(
        systems_dir, darboux_tests):
    # mobius's square at 2,3,2,3 has no invariant with a catalog denominator;
    # a q that does not divide its cleared pullback is not in the catalog,
    # so the search makes no solve for it, and there are such q among the
    # products that the catalog tests
    mobius = load_system(os.path.join(systems_dir, "mobius.system")).build()
    square = diagonal_power(mobius, 2)
    budget = SearchBudget(2, 3, 2, 3)
    catalog = invsearch._denominator_catalog(square, budget, {})
    skipped = 0
    for q in _reference_catalog(square, budget):
        assert _ref_fixed_denominator_stage(square, q, 2) == []
        if _is_darboux(square, q, 2):
            found, calls = _kernels(lambda: invsearch._fixed_denominator_invariants(
                square, q, budget, {}, {}))
            assert (found, len(calls)) == ([], 1)
        else:
            assert q not in catalog
            skipped += 1
    assert skipped > 0
    darboux_tests.clear()
    assert rational_invariant_search(square, budget) == []
    assert [q_int for _, q_int in darboux_tests] == [
        _int_primitive(q)[1] for q in [Polynomial.constant(square.variables, 1), *catalog]]


def test_fixed_denominator_stage_keeps_a_one_vector_kernel_off_q():
    # x -> -x, q = x^2 (the factor x, squared) above the numerator degree 1:
    # the kernel is {1} alone, and 1/x^2 is an invariant
    sys = make_system("x", "-x")
    q = poly("x^2", ("x",))
    found = invsearch._fixed_denominator_invariants(sys, q, SearchBudget(1, 3, 1, 3),
                                                    {}, {})
    assert found == [rf("1/x^2", ("x",))]


def _split_calls(run):
    """run() and the (factors, result) of each _darboux_split it made."""
    calls = []
    real = invsearch._darboux_split

    def recording(sys, factors, tables):
        given = list(factors)
        calls.append((given, real(sys, factors, tables)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_darboux_split", recording)
        out = run()
    return out, calls


# the Darboux part of a reducible catalog factor is an entry only after the split
_SPLIT_MAPS = [
    ("x y", ("x", "(x + 1)*(x + y)"), SearchBudget(2, 2, 1, 3), "x + 1", "1/(x + 1)"),
    ("x y", ("-x", "(x^2 + 1)*(y + 1)"), SearchBudget(1, 3, 1, 3), "x^2 + 1",
     "1/(x^2 + 1)"),
]


@pytest.mark.parametrize("variables, exprs, budget, entry, invariant", _SPLIT_MAPS)
def test_darboux_split_makes_the_darboux_part_a_catalog_entry(variables, exprs, budget,
                                                              entry, invariant):
    sys = make_system(variables, *exprs)
    entry, invariant = poly(entry, variables), rf(invariant, variables)
    catalog, [(factors, split)] = _split_calls(
        lambda: invsearch._denominator_catalog(sys, budget, {}))
    assert entry in split and entry not in factors and entry in catalog
    assert invariant in rational_invariant_search(sys, budget)
    # without the split, skipping the non-Darboux factor loses the invariant
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_darboux_split", lambda sys, factors, tables: factors)
        assert entry not in invsearch._denominator_catalog(sys, budget, {})
        assert invariant not in rational_invariant_search(sys, budget)


def test_darboux_split_leaves_the_bundled_factor_bases_unchanged(systems_dir):
    for name in sorted(os.listdir(systems_dir)):
        base = load_system(os.path.join(systems_dir, name)).build()
        for sys in (base, diagonal_power(base, 2)):
            for budget in (DEFAULT_BUDGET, SearchBudget(2, 3, 2, 3)):
                _, calls = _split_calls(
                    lambda: invsearch._denominator_catalog(sys, budget, {}))
                assert [factors for factors, _ in calls] == [split for _, split in calls]


def _q1_stage(sys, q, factors, budget, composed_cache):
    """The fixed-denominator stage before it solved only Darboux q: q1 =
    q / gcd(q, I(q)) found by trial division of I(q) by q's own factors
    (pairs of primitive int polys and exponents) and one gcd, then a solve
    for s in p = q1*s and the reduced echelon basis of those p."""
    dp = budget.max_num_degree
    clearing = max(dp, q.total_degree)
    table = invsearch._pullback_table(sys, clearing, composed_cache)
    cq, q_int = _int_primitive(q)
    q1, r1 = q_int, _combine_int(q_int, table)
    for f, a in factors:
        for _ in range(a):
            r = _divide_int(r1, f)
            if r is None:
                break
            q1, r1 = _divide_int(q1, f), r
    h = _gcd_primitive(q1, _normalized(r1))[0]
    if not _is_constant(h):
        q1, r1 = _divide_int(q1, h), _divide_int(r1, h)
    free = dp - max(map(sum, q1))
    if free < 0:
        return []
    smonos = [e for e in table if sum(e) <= free]
    columns = [_minus_shifted(_combine_int({tuple(map(operator.add, e, m)): c
                                            for e, c in q1.items()}, table), m, r1)
               for m in smonos]
    g = _divide_int(q_int, q1)
    basis = nullspace(transpose(columns), len(smonos))
    if q.total_degree <= dp and len(basis) == 1:
        return []
    monos = [e for e in table if sum(e) <= dp]
    col = {e: i for i, e in enumerate(monos)}
    echelon = _echelon(
        {col[e]: c for e, c in _mul_int(q1, {smonos[i]: v for i, v in enumerate(vec)
                                             if v}).items()}
        for vec in basis)
    den = _scaled_int(sys.variables, g, cq, q._den)
    out = []
    for pc, row in sorted(echelon.items()):
        pp = _normalized({monos[c]: v for c, v in row.items()})
        s = pp if _is_constant(q1) else _divide_int(pp, q1)
        f = RationalFunction(_scaled_int(sys.variables, s, 1, abs(row[pc])), den)
        if not f.is_constant:
            out.append(f)
    return out


def _q1_search(sys, budget):
    """rational_invariant_search with the q1 stage on every product that the
    catalog tests (``_reference_catalog``), Darboux or not, each q factored
    over the catalog's factor basis."""
    basis = []
    real_split = invsearch._darboux_split

    def split(sys, factors, tables):
        basis[:] = real_split(sys, factors, tables)
        return basis[:]

    def stage(sys, q, budget, tables, kernels):
        exponents = basis_exponents(q, basis)[0]
        factors = tuple((_int_primitive(f)[1], a) for f, a in zip(basis, exponents) if a)
        return _q1_stage(sys, q, factors, budget, tables)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_darboux_split", split)
        mp.setattr(invsearch, "_denominator_catalog",
                   lambda sys, budget, tables: _reference_catalog(sys, budget))
        mp.setattr(invsearch, "_fixed_denominator_invariants", stage)
        return rational_invariant_search(sys, budget)


_EXTRA_MAPS = [
    ("x y", "y", "(y + 1)/x"),           # Lyness
    ("x y", "y", "(y^2 + 1)/x"),         # QRT
    ("x", "1/x"), ("x", "-1/(x + 1)"), ("x y z", "y", "z", "x"),
] + [(variables, *exprs) for variables, exprs, *_ in _SPLIT_MAPS]


@pytest.mark.parametrize("budget", ["3,3,2,3", "1,1,1,1", "2,2,2,3", "2,3,2,3",
                                    "3,3,1,3"])
def test_darboux_only_search_matches_the_q1_stage(systems_dir, budget):
    # skipping every q that does not divide its cleared pullback drops only
    # candidates that the collector would drop: same functions, same order,
    # on the bundled systems, their squares and the maps above
    budget = SearchBudget(*map(int, budget.split(",")))
    bundled = [load_system(os.path.join(systems_dir, name)).build()
               for name in sorted(os.listdir(systems_dir))]
    systems = (bundled + [diagonal_power(sys, 2) for sys in bundled]
               + [make_system(*spec) for spec in _EXTRA_MAPS])
    for sys in systems:
        assert rational_invariant_search(sys, budget) == _q1_search(sys, budget), sys


def test_catalog_order_is_degree_leading_monomial_then_text(systems_dir):
    # the text breaks ties only, and ties are common among the products on
    # the squares, of which the catalog keeps the Darboux ones
    def key(entry):
        return entry.total_degree, grlex_key(entry.leading()[0]), str(entry)

    ties = 0
    for name in sorted(os.listdir(systems_dir)):
        base = load_system(os.path.join(systems_dir, name)).build()
        for sys in (base, diagonal_power(base, 2)):
            for budget in (DEFAULT_BUDGET, SearchBudget(2, 3, 2, 3)):
                catalog = invsearch._denominator_catalog(sys, budget, {})
                assert catalog == sorted(catalog, key=key)
                keys = [key(entry)[:2] for entry in _reference_catalog(sys, budget)]
                ties += len(keys) - len(set(keys))
    assert ties > 0


def _reference_catalog(sys, budget):
    """Every product of the split factors that the catalog tests, as a
    Polynomial, in ``canonical_order``: the products of degree up to the
    budget in ``rec`` order, the first ``_CATALOG_CAP`` of them.  The catalog
    is its Darboux part (``_reference_darboux_catalog``)."""
    if budget.max_den_degree == 0 or budget.denominator_catalog_depth == 0:
        return []
    pool = [p for it in itertools.islice(iterates(sys), budget.denominator_catalog_depth)
            for c in it.coords for p in (c.num, c.den)]
    factors = invsearch._darboux_split(
        sys, [f for f in coprime_factor_basis(pool) if f.total_degree <= budget.max_den_degree],
        invsearch._FactorImages(sys, {}))
    products = []

    def rec(idx, degree_left, acc):
        if len(products) >= invsearch._CATALOG_CAP:
            return
        if idx == len(factors):
            if not acc.is_constant:
                products.append(acc)
            return
        step, power, count = factors[idx].total_degree, acc, 0
        while True:
            rec(idx + 1, degree_left - count * step, power)
            count += 1
            if count * step > degree_left:
                break
            power = power * factors[idx]

    rec(0, budget.max_den_degree, Polynomial.constant(sys.variables, 1))
    return canonical_order(products)


def _reference_darboux_catalog(sys, budget):
    """The products of ``_reference_catalog`` that divide their own cleared
    pullback, by the Fraction pullback of each."""
    return [q for q in _reference_catalog(sys, budget)
            if _is_darboux(sys, q, budget.max_num_degree)]


@pytest.mark.parametrize("budget", test_sweep.BUDGETS)
def test_catalog_matches_the_polynomial_darboux_test(systems_dir, budget):
    # the test on exponents keeps exactly the products that divide their
    # own cleared pullback, in the same order: on the bundled systems, their
    # squares and the maps above, at every sweep budget
    budget = (DEFAULT_BUDGET if budget == "default"
              else SearchBudget(*map(int, budget.split(","))))
    bundled = [load_system(os.path.join(systems_dir, name)).build()
               for name in sorted(os.listdir(systems_dir))]
    systems = (bundled + [diagonal_power(sys, 2) for sys in bundled]
               + [make_system(*spec) for spec in _EXTRA_MAPS])
    for sys in systems:
        assert (invsearch._denominator_catalog(sys, budget, {})
                == _reference_darboux_catalog(sys, budget)), sys


@given(rescaled_maps(), st.sampled_from(test_sweep.BUDGETS[1:]))
def test_catalog_matches_the_polynomial_darboux_test_on_rescaled_maps(sys, budget):
    budget = SearchBudget(*map(int, budget.split(",")))
    assert (invsearch._denominator_catalog(sys, budget, {})
            == _reference_darboux_catalog(sys, budget))


@pytest.mark.parametrize("variables, exprs, budget, catalog", [
    # swap: x and y are not Darboux, and x*y passes only through the cross
    # terms, x | I(y) and y | I(x)
    ("x y", ("y", "x"), SearchBudget(1, 2, 1, 3), ["x*y"]),
    # x -> 1/x: I(x) = 1 at degree 1, so x passes only through the spare
    # degree of the clearing, d - deg q = dp - 1, times v(x, den) = 1
    ("x", ("1/x",), SearchBudget(2, 1, 1, 3), ["x"]),
    ("x", ("1/x",), SearchBudget(1, 1, 1, 3), []),
])
def test_catalog_passes_a_factor_through_each_term(variables, exprs, budget, catalog):
    sys = make_system(variables, *exprs)
    expected = [poly(q, variables) for q in catalog]
    assert invsearch._denominator_catalog(sys, budget, {}) == expected
    assert _reference_darboux_catalog(sys, budget) == expected


@pytest.mark.parametrize("cap", range(1, 7))
def test_catalog_cap_counts_the_products_that_fail(systems_dir, cap):
    # the cap counts every product tested, kept or not.  On swap the
    # products in test order are y, y^2, x, x*y, x^2, and only x*y passes
    swap = make_system("x y", "y", "x")
    mobius = load_system(os.path.join(systems_dir, "mobius.system")).build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_CATALOG_CAP", cap)
        catalog = invsearch._denominator_catalog(swap, SearchBudget(1, 2, 1, 3), {})
        assert catalog == ([poly("x*y", "x y")] if cap >= 4 else [])
        for sys in (mobius, diagonal_power(mobius, 2), make_system("x", "1/x")):
            for budget in (SearchBudget(2, 3, 2, 3), SearchBudget(2, 1, 1, 3)):
                assert (invsearch._denominator_catalog(sys, budget, {})
                        == _reference_darboux_catalog(sys, budget))


def test_catalog_tests_products_without_a_polynomial_pullback(systems_dir, darboux_tests):
    # mobius's square at 2,3,2,3: of the 164 products only 5 are Darboux, so
    # the search tests 6 q by their pullback, q = 1 and those 5
    mobius = load_system(os.path.join(systems_dir, "mobius.system")).build()
    square = diagonal_power(mobius, 2)
    budget = SearchBudget(2, 3, 2, 3)
    assert len(_reference_catalog(square, budget)) == 164
    assert len(invsearch._denominator_catalog(square, budget, {})) == 5
    darboux_tests.clear()
    assert rational_invariant_search(square, budget) == []
    assert len(darboux_tests) == 6


@given(rescaled_maps(), st.integers(1, 2))
def test_pencil_stage_kernel_matches_fraction_columns(sys, dmax):
    # no rank-1 limit, and no decomposable points: the stage ends at its kernel
    budget = SearchBudget(dmax, dmax, 0, 10**6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_decomposable_points", lambda basis: [])
        found, calls = _kernels(lambda: list(invsearch._pencil_stage(sys, budget, {})))
    assert calls == [_ref_kernel(_ref_pencil_columns(sys, dmax))]
    assert found == []


def _sweep_budget(text):
    return DEFAULT_BUDGET if text == "default" else SearchBudget(*map(int, text.split(",")))


@pytest.mark.parametrize("name", sorted(f[:-len(".system")] for f in os.listdir(
    bundled_systems_dir()) if f.endswith(".system")))
def test_pencil_stage_rejects_exactly_the_kernels_over_the_limit(name):
    # the support bound (before any column is built) and the limit stop of
    # nullspace reject a pencil exactly when its full kernel, solved from
    # the Fraction columns, has more vectors than the rank-1 limit
    base = _sweep_system(name)
    full = {}
    for sys in (base, diagonal_power(base, 2)):
        for text in test_sweep.BUDGETS:
            budget = _sweep_budget(text)
            limit = budget.nullspace_rank1_limit
            if limit == 0:
                continue
            dmax = max(budget.max_num_degree, budget.max_den_degree)
            if (sys.dim, dmax) not in full:
                full[sys.dim, dmax] = _ref_kernel(_ref_pencil_columns(sys, dmax))[2]
            kernel = full[sys.dim, dmax]
            solves, pencils = [], []

            def recording(rows, ncols, limit=None):
                solves.append(nullspace(rows, ncols, limit))
                return solves[-1]

            def candidates(variables, monos, basis):
                pencils.append(basis)
                return []

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(invsearch, "nullspace", recording)
                mp.setattr(invsearch, "_pencil_candidates", candidates)
                invsearch._pencil_stage(sys, budget, {})
            over = len(kernel) > limit
            if not solves:
                # the support bound is sound: it rejects only what is over
                assert over, (name, sys.dim, text)
            else:
                assert solves == [[] if over else kernel], (name, sys.dim, text)
            assert len(pencils) == (0 < len(kernel) <= limit), (name, sys.dim, text)


# -- pencil stage: pinned outputs and the rational roots ---------------------------

_DOUBLE_3D_PENCILS = [
    "(x + y)/(x - z)", "(2*x + 2*y)/(x - 2*z)", "(x + y)/(z)", "(2*x + 2*y)/(x + 2*z)",
    "(x + y)/(x + z)", "(x + 2*y)/(2*x - 2*z)", "(x + 2*y)/(x - 2*z)", "(x + 2*y)/(2*z)",
    "(x + 2*y)/(x + 2*z)", "(x + 2*y)/(2*x + 2*z)", "(y)/(x - z)", "(2*y)/(x - 2*z)",
    "(y)/(z)", "(2*y)/(x + 2*z)", "(y)/(x + z)", "(x - 2*y)/(2*x - 2*z)",
    "(x - 2*y)/(x - 2*z)", "(x - 2*y)/(2*z)", "(x - 2*y)/(x + 2*z)", "(x - 2*y)/(2*x + 2*z)",
    "(x - y)/(x - z)", "(2*x - 2*y)/(x - 2*z)", "(x - y)/(z)", "(2*x - 2*y)/(x + 2*z)",
    "(x - y)/(x + z)", "(2*x + y)/(2*x - z)", "(2*x + y)/(x - z)", "(2*x + y)/(z)",
    "(2*x + y)/(x + z)", "(2*x + y)/(2*x + z)", "(x + y)/(2*x - z)", "(x + y)/(2*x + z)",
    "(y)/(2*x - z)", "(y)/(2*x + z)", "(x - y)/(2*x - z)", "(x - y)/(2*x + z)",
    "(2*x - y)/(2*x - z)", "(2*x - y)/(x - z)", "(2*x - y)/(z)", "(2*x - y)/(x + z)",
    "(2*x - y)/(2*x + z)", "(x)/(y + z)", "(2*x)/(y + 2*z)", "(x)/(z)",
    "(2*x)/(y - 2*z)", "(x)/(y - z)", "(x)/(2*y + z)", "(x)/(2*y - z)", "(x)/(y)",
]


@pytest.mark.parametrize("variables, exprs, budget, expected", [
    # k = 2: the gcd of the binary quadrics at t2 = 1
    ("x y", ("y", "(y^2 + 1)/x"), SearchBudget(1, 2, 0, 3),
     ["(x*y)/(x^2 + y^2 + 1)"]),
    # k = 3 with one quadric, so no resultant: the grid
    ("x", ("1/x",), SearchBudget(1, 3, 0, 3),
     ["(x)/(x^2 + 1)", "(x)/(x^2 - x + 1)", "(x)/(x^2 + 1)", "(x)/(x^2 + x + 1)"]),
    ("x y z", ("2*x", "2*y", "2*z"), SearchBudget(1, 1, 0, 3), _DOUBLE_3D_PENCILS),
    # k = 3 with quadrics: the gcds of the resultants and of the specialized
    # quadrics in t3
    ("x y", ("2*x", "1/y"), SearchBudget(1, 2, 0, 3), ["(y)/(y^2 + 1)"]),
    ("x y", ("2*x + y", "2*y"), SearchBudget(1, 2, 0, 3), []),
    # k = 3 whose one pencil point lies off the grid: only the elimination
    # finds it
    ("x y", ("x + 1", "-2*x + y + 3"), SearchBudget(1, 2, 0, 3), ["x^2 - 4*x + y"]),
], ids=["qrt-k2", "inverse-k3-grid", "double-3d-k3-grid", "k3-resultants",
        "k3-resultants-empty", "k3-resultants-off-grid"])
def test_pencil_stage_outputs_are_pinned(variables, exprs, budget, expected):
    found = list(invsearch._pencil_stage(make_system(variables, *exprs), budget, {}))
    assert [str(f) for f in found] == expected


@pytest.mark.parametrize("variables, exprs, budget, candidates", [
    ("x", ("1/x",), SearchBudget(1, 3, 0, 3), 4),
    ("x y z", ("2*x", "2*y", "2*z"), SearchBudget(1, 1, 0, 3), 49),
    # k = 6: the grid alone
    ("x y", ("2*x", "2*y"), SearchBudget(2, 2, 0, 8), 58),
], ids=["inverse-k3-grid", "double-3d-k3-grid", "double-k6-grid"])
def test_pencil_stage_gates_each_distinct_candidate_once(variables, exprs, budget,
                                                         candidates):
    # the catalog is off and the q = 1 solve finds nothing, so the search
    # offers every pencil candidate to the collector, in push order, and the
    # collector gates each distinct one once, where it is first offered
    sys = make_system(variables, *exprs)
    offered, gated = [], []
    stage = invsearch._pencil_stage

    def recorded(*args):
        out = list(stage(*args))
        offered.extend(out)
        return out

    def counted(s, f):
        gated.append(f)
        return pullback(s, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_pencil_stage", recorded)
        mp.setattr(invsearch, "pullback", counted)
        found = rational_invariant_search(sys, budget)
    assert len(offered) == candidates
    assert gated == list(dict.fromkeys(offered))
    assert found and set(found) <= set(gated)


@st.composite
def pencil_bases(draw):
    """size <= 6 and 1-4 pencil basis vectors over the pairs i < j < size,
    with small rational entries, most of them zero."""
    size = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    value = st.one_of(st.just(0), st.builds(Fraction, st.integers(-2, 2),
                                            st.sampled_from([1, 2, 3])))
    basis = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.lists(value, min_size=len(pairs), max_size=len(pairs)))
        basis.append({pair: v for pair, v in zip(pairs, values) if v}
                     or {pairs[0]: Fraction(1)})
    return size, basis


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@given(pencil_bases())
# the grid without quadrics (k = 2, 4; size 3): denominators that differ
# between the vectors, and points of either sign
@example((3, [{(0, 1): _HALF}, {(0, 2): _THIRD, (1, 2): 1}]))
@example((3, [{(0, 1): _HALF}, {(0, 2): 1}, {(1, 2): _THIRD}, {(0, 2): -_HALF}]))
# the kernels of the pinned searches below (qrt-k2 in both orders and
# k3-resultants, each with a vector rescaled; inverse-k3-grid,
# k3-resultants-empty), whose quadrics have rational roots
@example((6, [{(0, 1): 1, (0, 2): 1, (1, 4): 1, (1, 5): -1, (2, 3): -1, (2, 4): 1},
              {(0, 4): _THIRD, (3, 4): _THIRD, (4, 5): -_THIRD}]))
@example((6, [{(0, 4): _THIRD, (3, 4): _THIRD, (4, 5): -_THIRD},
              {(0, 1): 1, (0, 2): 1, (1, 4): 1, (1, 5): -1, (2, 3): -1, (2, 4): 1}]))
@example((6, [{(0, 1): 1, (1, 3): -1}, {(0, 2): _HALF, (1, 4): -_HALF},
              {(1, 2): 1, (3, 4): -1}]))
@example((4, [{(0, 1): 1, (2, 3): -1}, {(0, 2): 1, (1, 3): -1}, {(1, 2): 1, (2, 3): -1}]))
@example((6, [{(0, 3): 1, (1, 2): -3},
              {(1, 3): 1, (1, 5): Fraction(-4, 5), (2, 3): Fraction(6, 5),
               (2, 4): Fraction(4, 5)},
              {(1, 4): 1, (1, 5): Fraction(-6, 5), (2, 3): Fraction(4, 5),
               (2, 4): Fraction(6, 5)}]))
def test_pencil_candidates_match_the_fraction_pencil(data):
    # the integer pencil (one common denominator, primitive points, int
    # rank and span tests) against the Fraction pencil it replaces: the
    # same p/q in the same order, repeats included
    size, basis = data
    monos = monomials_upto(2, 2)[:size]
    assert (list(invsearch._pencil_candidates(("x", "y"), monos, basis))
            == ref_pencil_candidates(("x", "y"), monos, basis))


_ROOT_GRID = sorted({Fraction(p, q) for p in range(-12, 13) for q in range(1, 7)})
_T = ("t",)


@given(st.lists(st.sampled_from(_ROOT_GRID), max_size=4),
       st.sampled_from(["1", "t^2 + 1", "t^2 - 2", "t^2 + t + 1", "t^3 - 2",
                        "4*t^4 + 1"]),
       st.sampled_from([Fraction(1), Fraction(-3), Fraction(2, 7), Fraction(-35, 4)]))
@example([Fraction(0)], "1", Fraction(1))
@example([Fraction(2, 3)], "1", Fraction(-3))
@example([Fraction(0), Fraction(-5, 2)], "1", Fraction(2, 7))
@example([Fraction(1), Fraction(1)], "1", Fraction(1))
@example([Fraction(0), Fraction(0), Fraction(4, 3), Fraction(-1, 6)], "t^2 + 1", Fraction(-3))
@example([], "t^2 - 2", Fraction(1))
@example([], "1", Fraction(5))
def test_rational_roots_match_a_brute_force_scan(roots, extra, scale):
    # linear, quadratic (no, one or two rational roots) and divisor-scan
    # inputs with zero and non-integer roots; the extra factors have none
    f = poly(extra, _T).scaled(scale)
    for r in roots:
        f = f * Polynomial(_T, {(1,): 1, (0,): -r})
    found = invsearch._rational_roots(f)
    assert found == sorted(set(roots))
    assert found == [r for r in _ROOT_GRID if f.evaluate((r,)) == 0]
    assert invsearch._rational_roots(Polynomial.zero(_T)) == []


@pytest.mark.parametrize("forms, zeros", [
    # common roots at t2 = 1: 1/2, -1/4 and 0, one form scaled
    (["(t1 - t2)*(2*t1 - t2)", "3*(2*t1 - t2)*(t1 + t2)"], [(1, 2)]),
    (["4*t1 + t2", "(4*t1 + t2)*(t1 - 5*t2)"], [(-1, 4)]),
    (["t1*t2", "t1*(t1 + t2)"], [(0, 1)]),
    # (1, 0): no form has a t1^deg term, forms of mixed degrees
    (["t1*t2", "t1*t2 + t2^2"], [(1, 0)]),
    (["t2*(t1 - t2)", "3*t2^2*(t1 - t2)"], [(1, 1), (1, 0)]),
    (["t2^2"], [(1, 0)]),
    # no common zero
    (["t1^2 + t2^2"], []),
    (["t1 - t2", "t1 + t2"], []),
    (["t1^2", "t2^2"], []),
], ids=["root-half", "root-negative", "root-zero", "one-zero", "root-and-one-zero",
        "one-zero-alone", "none-irreducible", "none-linear", "none-apart"])
def test_binary_zeros_are_the_common_zeros(forms, zeros):
    forms = [poly(src, ("t1", "t2")) for src in forms]
    assert invsearch._binary_zeros(forms) == zeros
    for n, d in zeros:
        assert all(f.evaluate((n, d)) == 0 for f in forms)


@pytest.mark.parametrize("basis", [
    # the kernel of the pinned k3-resultants-off-grid search
    [{(0, 1): 1, (0, 4): 4, (0, 5): -15, (1, 2): -4, (2, 5): 16},
     {(0, 2): 1, (0, 4): 1, (0, 5): -4, (1, 2): -1, (2, 5): 4},
     {(0, 3): 1, (0, 4): -8, (0, 5): 15, (1, 5): 2, (2, 4): 2, (2, 5): -16}],
    [{(0, 3): 1, (1, 2): -3},
     {(1, 3): 1, (1, 5): Fraction(-4, 5), (2, 3): Fraction(6, 5), (2, 4): Fraction(4, 5)},
     {(1, 4): 1, (1, 5): Fraction(-6, 5), (2, 3): Fraction(4, 5), (2, 4): Fraction(6, 5)}],
], ids=["k3-resultants-off-grid", "k3-resultants-no-zero"])
def test_k3_lift_tries_1_0_only_where_every_resultant_vanishes(basis):
    # the reference lift always tries t1:t2 = 1:0; the zeros of the
    # resultants offer it only where every resultant vanishes, which they do
    # wherever the quadrics share a root in t3, so no point is lost: the
    # points tried are the reference's, in its order
    monos = monomials_upto(2, 2)
    tried, zeros = [], []
    real_rows, real_zeros = invsearch._pencil_rows, invsearch._binary_zeros

    def rows(t, basis):
        tried.append(t)
        return real_rows(t, basis)

    def binary(forms):
        zeros.append(real_zeros(forms))
        return zeros[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_pencil_rows", rows)
        mp.setattr(invsearch, "_binary_zeros", binary)
        found = list(invsearch._pencil_candidates(("x", "y"), monos, basis))
    assert len(zeros) == 1 and (1, 0) not in zeros[0]
    # the reference builds the Fraction matrix of each distinct point it tries
    reference = []
    real_matrix = conftest._ref_pencil_matrix

    def matrix(t, basis, size):
        reference.append(t)
        return real_matrix(t, basis, size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conftest, "_ref_pencil_matrix", matrix)
        conftest._ref_decomposable_points(basis, len(monos))
    assert tried == [invsearch._point(t) for t in reference]
    assert found == ref_pencil_candidates(("x", "y"), monos, basis)


# -- generator selection against the jacobian_rank loops ---------------------------


def _ref_poly_matrix_rank(matrix):
    """Bareiss elimination with full pivoting over the whole matrix, as
    ``poly_matrix_rank`` was before the row-by-row echelon."""
    if not matrix or not matrix[0]:
        return 0
    m = [row[:] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    prev, r = None, 0
    for _ in range(min(nrows, ncols)):
        found = next(((i, j) for i in range(r, nrows) for j in range(r, ncols)
                      if not m[i][j].is_zero), None)
        if found is None:
            break
        pr, pc = found
        m[r], m[pr] = m[pr], m[r]
        for row in m:
            row[r], row[pc] = row[pc], row[r]
        pivot = m[r][r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                t = pivot * m[i][j] - m[i][r] * m[r][j]
                m[i][j] = t if prev is None else try_divide(t, prev)
            m[i][r] = Polynomial.zero(pivot.variables)
        prev, r = pivot, r + 1
    return r


def _ref_jacobian_rank(fs):
    """jacobian_rank as it was: up to 4 seeded points, and the full Bareiss
    elimination whenever the rank at a point falls short."""
    n = len(fs[0].variables)
    cap = min(len(fs), n)
    rng = random.Random(0x5261)
    for _ in range(4):
        point = tuple(rng.randint(-500001, 500001) for _ in range(n))
        try:
            rows = [_fraction_jacobian_row(f, point) for f in fs]
        except ZeroDivisionError:
            continue
        if len(_fraction_rref([{c: v for c, v in enumerate(r) if v}
                               for r in rows])[1]) == cap:
            return cap
        break
    return _ref_poly_matrix_rank(
        [[f.num.derivative(j) * f.den - f.num * f.den.derivative(j) for j in range(n)]
         for f in fs])


def _ref_generators(invariants, n):
    """The greedy loop of ``adim_lower_bound`` as it was."""
    generators = []
    for f in invariants:
        if len(generators) == n:
            break
        if _ref_jacobian_rank(generators + [f]) > len(generators):
            generators.append(f)
    return generators


def _check_selection_against_the_rank_loops(sys, budget):
    """square_gain_check's base and square generators, pullback rank and
    witness against the jacobian_rank loops on the full searches, which
    take the pullbacks of every base invariant."""
    selections = []
    pull = invsearch._pull

    def recording(s, b, selector, proven=None):
        pulled = pull(s, b, selector, proven)
        selections.append((s, list(selector.kept)))
        return pulled

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invsearch, "_pull", recording)
        report = square_gain_check(sys, budget)
    square = diagonal_power(sys, 2)
    found = {}
    for s, generators in selections:
        found[s] = rational_invariant_search(s, budget)
        assert generators == _ref_generators(found[s], s.dim)
    (base, generators), *searched = selections
    assert base == sys and report.base_rank == len(generators)
    n = sys.dim
    pulls = [g.embed(square.variables, list(positions))
             for g in found[sys]
             for positions in (range(n), range(n, 2 * n))]
    pullback_rank = _ref_jacobian_rank(pulls) if pulls else 0
    assert report.pullback_rank == pullback_rank
    if searched:
        [(s, square_generators)] = searched
        assert s == square
        assert report.square_rank == max(len(square_generators), pullback_rank)
    else:
        assert report.base_rank == n and report.square_rank == 2 * n
    witness = None
    if report.new_invariant_found:
        witness = next(f for f in found[square]
                       if _ref_jacobian_rank(pulls + [f]) > pullback_rank)
    assert report.witness == witness
    return report


@given(rescaled_maps(), st.sampled_from(_SEARCH_BUDGETS))
def test_selection_matches_the_rank_loops_on_the_stage_maps(sys, budget):
    _check_selection_against_the_rank_loops(sys, budget)


@pytest.mark.parametrize("variables, exprs, budget, found", [
    # the dedup-heavy searches: swap's square takes the full-rank path, the
    # 3-cycle's base rank is 3, and double's square finds a witness
    ("x y", ("y", "x"), SearchBudget(2, 1, 1, 3), False),
    ("x y z", ("y", "z", "x"), SearchBudget(3, 2, 1, 3), False),
    ("x y", ("2*x", "2*y"), SearchBudget(2, 2, 2, 3), True),
])
def test_selection_matches_the_rank_loops_on_the_dedup_searches(variables, exprs,
                                                                 budget, found):
    report = _check_selection_against_the_rank_loops(
        make_system(variables, *exprs), budget)
    assert report.new_invariant_found == found
