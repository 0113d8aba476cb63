"""Systems: dominance, iteration, products, pullback, degree growth."""

import functools
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from ratdyn import dynsys
from ratdyn.cli import fingerprint
from ratdyn.dynsys import (DOMINANT, GROWTH_BOUNDED, GROWTH_EXPONENTIAL,
                           NOT_DOMINANT, DynamicalSystem, compose,
                           degree_sequence, diagonal_power, iterate, iterates,
                           product, pullback, symmetrize_iterate_invariant,
                           validate_dominant)
from ratdyn.errors import (NotDominantError, PreconditionError,
                           VariableMismatchError, WorkLimitError)
from ratdyn.exactalg import substitute

from conftest import make_system, rf


def test_structural_validation():
    with pytest.raises(VariableMismatchError):
        DynamicalSystem(("x", "y"), (rf("x", ("x", "y")),))


def test_dominance_verdicts():
    assert validate_dominant(make_system("x", "x + 1")) == DOMINANT
    assert validate_dominant(make_system("x y", "x", "x")) == NOT_DOMINANT
    # Jacobian determinant of (y, y^2 - x) is the constant 1
    assert validate_dominant(make_system("x y", "y", "y^2 - x")) == DOMINANT


def test_iterate_translation_and_identity():
    shift = make_system("x", "x + 1")
    assert iterate(shift, 3).coords[0] == rf("x + 3", ("x",))
    henon = make_system("x y", "y", "y^2 - x")
    assert iterate(henon, 0) == DynamicalSystem.identity(("x", "y"))
    two = iterate(henon, 2)
    assert two.coords[0] == rf("y^2 - x", ("x", "y"))
    assert two.coords[1] == rf("(y^2 - x)^2 - y", ("x", "y"))


def test_iterate_exponent_laws():
    sysm = make_system("x y", "y", "y^2 - x")
    assert compose(iterate(sysm, 2), iterate(sysm, 1)) == iterate(sysm, 3)
    assert compose(iterate(sysm, 2), iterate(sysm, 2)) == iterate(sysm, 4)
    mob = make_system("x", "(2*x + 3)/(x + 1)")
    assert iterate(iterate(mob, 2), 3) == iterate(mob, 6)
    assert compose(iterate(mob, 3), iterate(mob, 2)) == iterate(mob, 5)


def _nonzero(rng, lo=-3, hi=3):
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _seeded_map(family, rng):
    """A dominant map of the family with seeded constants."""
    if family == "affine":
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c:
                break
        e, f = rng.randint(-3, 3), rng.randint(-3, 3)
        return make_system("x y", f"({a})*x + ({b})*y + ({e})",
                           f"({c})*x + ({d})*y + ({f})")
    if family == "mobius":
        while True:
            a, b, d = (rng.randint(-3, 3) for _ in range(3))
            c = _nonzero(rng)
            if a * d - b * c:
                break
        return make_system("x", f"(({a})*x + ({b}))/(({c})*x + ({d}))")
    if family == "monomial":
        while True:
            p, q, r, u = (rng.randint(0, 2) for _ in range(4))
            if p * u - q * r:
                break
        s, t = _nonzero(rng), _nonzero(rng)
        return make_system("x y", f"({s})*x^{p}*y^{q}", f"({t})*x^{r}*y^{u}")
    # the rest conjugated by a seeded diagonal scaling x -> a*x, y -> b*y
    a, b = _nonzero(rng), _nonzero(rng)
    if family == "henon":
        c, k = rng.randint(-3, 3), _nonzero(rng)
        return make_system("x y", f"({b})*y/({a})",
                           f"({b * b}*y^2 - ({k * a})*x + ({c}))/({b})")
    if family == "qrt":
        return make_system("x y", f"({b})*y/({a})", f"({b * b}*y^2 + 1)/(({a * b})*x)")
    assert family == "lyness"
    return make_system("x y", f"({b})*y/({a})", f"(({b})*y + 1)/(({a * b})*x)")


def _binary_power(sys, m):
    # binary powering, which iterate used before the iterates generator
    result = None
    base = sys
    while m:
        if m & 1:
            result = base if result is None else compose(result, base)
        m >>= 1
        if m:
            base = compose(base, base)
    return result


@pytest.mark.parametrize("family",
                         ["affine", "mobius", "monomial", "henon", "qrt", "lyness"])
def test_iterate_matches_both_folds_and_binary_powering(family):
    rng = random.Random(f"iterates-{family}")
    for _ in range(2):
        sysm = _seeded_map(family, rng)
        assert validate_dominant(sysm) == DOMINANT
        for m in range(1, 7):
            left = functools.reduce(lambda acc, _: compose(acc, sysm), range(m - 1), sysm)
            right = functools.reduce(lambda acc, _: compose(sysm, acc), range(m - 1), sysm)
            got = iterate(sysm, m)
            for other in (left, right, _binary_power(sysm, m)):
                assert got == other
                assert [str(c) for c in got.coords] == [str(c) for c in other.coords]


@pytest.mark.parametrize("family",
                         ["affine", "mobius", "monomial", "henon", "qrt", "lyness"])
def test_the_term_bound_holds_on_every_iterate(family):
    # the bound that compose checks is never below the terms of a part of
    # the iterate it composes
    rng = random.Random(f"term-bound-{family}")
    bounds = []
    real = dynsys.compose

    def bounded(outer, inner):
        bounds.append(dynsys._term_bound(outer, inner,
                                         [c.max_exponents() for c in outer.coords]))
        return real(outer, inner)

    for _ in range(2):
        sysm = _seeded_map(family, rng)
        bounds.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynsys, "compose", bounded)
            its = list(itertools.islice(iterates(sysm), 6))
        for bound, it in zip(bounds, its[1:]):
            assert max(len(p.support()) for c in it.coords for p in (c.num, c.den)) <= bound


def test_iterates_stop_at_the_term_cap():
    # Henon's phi^10 may have 821121 terms in a coordinate, above the cap,
    # so compose raises before forming it; phi^9 is the last iterate
    henon = make_system("x y", "y", "y^2 - x")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynsys, "TERM_CAP", 205760)
        with pytest.raises(WorkLimitError, match="may have up to 205761 terms"):
            list(itertools.islice(iterates(henon), 9))
    assert [it.degree for it in itertools.islice(iterates(henon), 9)][-1] == 512
    with pytest.raises(WorkLimitError, match="may have up to 821121 terms"):
        iterate(henon, 10)


def test_iterates_puts_the_map_with_fewer_terms_inside():
    # Henon's iterates outgrow the map, so the map goes inside; a monomial
    # map's iterates tie with it on terms, so the iterate so far goes inside
    calls = []

    def recorded(outer, inner):
        calls.append((outer is sysm, inner is sysm))
        return compose(outer, inner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynsys, "compose", recorded)
        for sysm, inner_is_phi in ((make_system("x y", "y", "y^2 - x"), True),
                                   (make_system("x y", "x^2*y", "x*y"), False)):
            calls.clear()
            list(itertools.islice(iterates(sysm), 5))
            # phi^2 is phi composed with itself, either way
            assert calls[0] == (True, True)
            assert calls[1:] == [(not inner_is_phi, inner_is_phi)] * 3


def test_iterate_requires_a_dominant_map():
    # binary powering gave (-1, 0) at m = 2 and 4 but an IndeterminacyError
    # at m = 3: on a map that is not dominant the bracketing matters
    sysm = make_system("x y", "(-2*x + 2*y - 2)/(2*x + y + 2)", "0")
    for m in range(5):
        with pytest.raises(NotDominantError):
            iterate(sysm, m)


def test_product_and_diagonal_power():
    a = make_system("x", "x + 1")
    b = make_system("y", "y + 1")
    ab = product(a, b)
    assert ab.variables == ("x", "y")
    assert ab.coords == (rf("x + 1", ("x", "y")), rf("y + 1", ("x", "y")))
    sq = diagonal_power(a, 2)
    assert sq.variables == ("x1", "x2")
    assert sq.coords == (rf("x1 + 1", ("x1", "x2")), rf("x2 + 1", ("x1", "x2")))
    quad = diagonal_power(make_system("x", "2*x"), 4)
    assert quad.variables == ("x1", "x2", "x3", "x4")
    assert all(str(c) == f"2*x{i+1}" for i, c in enumerate(quad.coords))


def test_product_renames_collisions():
    a = make_system("x", "2*x")
    ab = product(a, a)
    assert len(set(ab.variables)) == 2
    partial = product(make_system("x y", "x + y", "y"),
                      make_system("y z", "y + 1", "z + y"))
    assert partial.variables == ("x", "y", "y_2", "z")
    assert str(partial.coords[2]) == "y_2 + 1"


def test_product_componentwise_and_identity_factor():
    ab = product(make_system("x", "2*x"), make_system("y", "3*y"))
    assert [str(c) for c in ab.coords] == ["2*x", "3*y"]
    sysm = make_system("x y", "y", "y^2 - x")
    ext = product(sysm, DynamicalSystem.identity(("u", "v")))
    assert ext.dim == 4
    assert [str(c) for c in ext.coords[2:]] == ["u", "v"]
    one = diagonal_power(make_system("x", "x + 1"), 1)
    assert [str(c) for c in one.coords] == ["x1 + 1"]


def test_pullback_examples():
    shift2 = make_system("x y", "x + 1", "y + 1")
    f = rf("x - y", ("x", "y"))
    assert pullback(shift2, f) == f
    ident = DynamicalSystem.identity(("x", "y"))
    g = rf("(x^2 - y)/(x + 1)", ("x", "y"))
    assert pullback(ident, g) == g
    double = make_system("x y", "2*x", "2*y")
    assert pullback(double, rf("x/y", ("x", "y"))) == rf("x/y", ("x", "y"))


def test_pullback_functoriality():
    rng = random.Random(11)
    sysm = make_system("x y", "y", "y^2 - x")
    for _ in range(5):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        f = rf("(x + 2*y)/(y^2 + 1)", ("x", "y"))
        lhs = pullback(iterate(sysm, a + b), f)
        rhs = pullback(iterate(sysm, b), pullback(iterate(sysm, a), f))
        assert lhs == rhs


def test_pullback_is_ring_morphism():
    sysm = make_system("x y", "y", "y^2 - x")
    f = rf("x + y^2", ("x", "y"))
    g = rf("x/(y + 1)", ("x", "y"))
    assert pullback(sysm, f + g) == pullback(sysm, f) + pullback(sysm, g)
    assert pullback(sysm, f * g) == pullback(sysm, f) * pullback(sysm, g)


def test_product_pullback_compatibility():
    a = make_system("x y", "y", "y^2 - x")
    b = make_system("u", "2*u")
    ab = product(a, b)
    f = rf("(x + y)/(y^2 + 1)", ("x", "y"))
    lifted = f.embed(ab.variables, [0, 1])
    assert pullback(ab, lifted) == pullback(a, f).embed(ab.variables, [0, 1])


_SHARED_MAP = ("x y", "(x + 2*y)/(x - 3)", "-x*y + 1")


def _pullback_functions(degrees):
    variables = ("x", "y")
    return [rf(f"(x^{d} - 2*y + 1)/(y^{d} + x*y + 3)", variables) for d in degrees]


@pytest.mark.parametrize("degrees", [(1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1),
                                     (2, 6, 1, 4, 3, 5)],
                         ids=["ascending", "descending", "mixed"])
def test_shared_power_tables_are_invisible(degrees):
    # one system answers pullbacks of rising, falling and mixed degree from
    # the tables it keeps, growing them on the way; each answer equals a
    # substitution with tables built for it alone, and the system itself
    # still equals, hashes, prints and fingerprints as a fresh parse
    sysm = make_system(*_SHARED_MAP)
    seen = []
    for f in _pullback_functions(degrees):
        got = pullback(sysm, f)
        want = substitute(f, sysm.coords)
        assert got == want
        assert got.num._num == want.num._num and got.den._num == want.den._num
        tables = sysm.power_tables((0, 0))
        seen.append((tables, tables.top))
    # the tables grew unless the first call asked for the most, and no
    # table object changed once handed out
    assert (len({id(t) for t, _ in seen}) > 1) == (degrees[0] != max(degrees))
    assert all(t.top == top for t, top in seen)
    assert all(a >= max(degrees) for a in seen[-1][1])
    fresh = make_system(*_SHARED_MAP)
    assert sysm == fresh and hash(sysm) == hash(fresh)
    assert str(sysm) == str(fresh) and repr(sysm) == repr(fresh)
    assert fingerprint(sysm) == fingerprint(fresh)
    assert compose(sysm, sysm) == compose(fresh, fresh)


def test_shared_power_tables_across_threads():
    # more threads than cores ask one system for pullbacks of different
    # degrees while it swaps in grown tables; with a short switch interval
    # a table read half-built or changed in place would give a wrong answer
    functions = _pullback_functions((1, 5, 2, 6, 3, 4)) * 3
    want = [pullback(make_system(*_SHARED_MAP), f) for f in functions]
    sysm = make_system(*_SHARED_MAP)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(pullback, sysm, f) for f in functions]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert sysm == make_system(*_SHARED_MAP)


def test_symmetrize_negation():
    neg = make_system("x", "-x")
    f = rf("x", ("x",))
    e1, e2 = symmetrize_iterate_invariant(neg, f, 2)
    assert e1 == rf("0", ("x",)) and e1.is_constant
    assert e2 == rf("-x^2", ("x",))


def test_symmetrize_swap():
    swap = make_system("x y", "y", "x")
    f = rf("x", ("x", "y"))
    e1, e2 = symmetrize_iterate_invariant(swap, f, 2)
    assert e1 == rf("x + y", ("x", "y"))
    assert e2 == rf("x*y", ("x", "y"))
    for g in (e1, e2):
        assert pullback(swap, g) == g


def test_symmetrize_m1_and_precondition():
    shift = make_system("x", "x + 1")
    with pytest.raises(PreconditionError):
        symmetrize_iterate_invariant(shift, rf("x", ("x",)), 2)
    double = make_system("x y", "2*x", "2*y")
    f = rf("x/y", ("x", "y"))
    assert symmetrize_iterate_invariant(double, f, 1) == [f]


def test_degree_sequence_affine_and_henon():
    shift = make_system("x", "x + 1")
    prof = degree_sequence(shift, 5)
    assert prof.degrees == (1, 1, 1, 1, 1)
    assert prof.growth_class == GROWTH_BOUNDED
    henon = make_system("x y", "y", "y^2 - x")
    prof = degree_sequence(henon, 4)
    assert prof.degrees == (2, 4, 8, 16)
    assert prof.growth_class == GROWTH_EXPONENTIAL


def test_degree_sequence_monomial_matches_matrix_orbit():
    # independent oracle: degree of the m-th iterate of a monomial map is the
    # maximum row sum of the m-th power of the exponent matrix
    sysm = make_system("x y", "x^2*y", "x*y")
    prof = degree_sequence(sysm, 4)
    assert prof.degrees == (3, 8, 21, 55)
    assert prof.growth_class == GROWTH_EXPONENTIAL

    A = [[2, 1], [1, 1]]
    power = [[1, 0], [0, 1]]
    expected = []
    for _ in range(4):
        power = [[sum(power[i][k] * A[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)]
        expected.append(max(sum(row) for row in power))
    assert list(prof.degrees) == expected


def test_degree_sequence_qrt_cancels_every_common_factor():
    # deg phi^m = 2m only if each iterate's large common factors cancel in
    # its normal form; a missed gcd shows up as a larger degree
    qrt = make_system("x y", "y", "(y^2 + 1)/x")
    assert degree_sequence(qrt, 12).degrees == tuple(range(2, 25, 2))


@pytest.mark.parametrize("coords, degrees", [
    (("y", "(y^2 + 1)/x"), tuple(range(2, 25, 2))),                   # QRT
    (("3*y/2", "((3*y)^2 + 1)/(6*x)"), tuple(range(2, 25, 2))),       # rescaled QRT
    (("y", "(y + 1)/x"), (1, 2, 2, 1, 1, 1, 2, 2, 1, 1, 1, 2)),       # Lyness
])
def test_degree_sequence_normal_forms_run_no_prs(prs_calls, coords, degrees):
    # every common factor of these iterates' numerators and denominators is
    # one part dividing the other, which the gcd's divisor test finds, so
    # the pseudo-remainder sequence never runs
    assert degree_sequence(make_system("x y", *coords), 12).degrees == degrees
    assert prs_calls == []


def test_degree_sequence_mobius_bounded():
    mob = make_system("x", "(2*x + 3)/(x + 1)")
    prof = degree_sequence(mob, 5)
    assert prof.degrees == (1, 1, 1, 1, 1)
    assert prof.growth_class == GROWTH_BOUNDED


def test_growth_class_stable_under_linear_conjugation():
    rng = random.Random(5)
    henon = make_system("x y", "y", "y^2 - x")
    base = degree_sequence(henon, 4).growth_class
    for _ in range(5):
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c != 0:
                break
        det = a * d - b * c
        L = make_system("x y", f"({a})*x + ({b})*y", f"({c})*x + ({d})*y")
        Linv = make_system(
            "x y",
            f"({Fraction(d, det)})*x + ({Fraction(-b, det)})*y",
            f"({Fraction(-c, det)})*x + ({Fraction(a, det)})*y",
        )
        assert compose(Linv, L) == DynamicalSystem.identity(("x", "y"))
        conj = compose(Linv, compose(henon, L))
        assert degree_sequence(conj, 4).growth_class == base
