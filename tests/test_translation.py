"""Translation evidence: recognizers, lattice oracle, block normalization."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ratdyn import translation
from ratdyn.dynsys import DynamicalSystem, iterates
from ratdyn.errors import PreconditionError, SingularMatrixError
from ratdyn.exactalg import clear_denominators, jacobian_row, rank
from ratdyn.invsearch import polynomial_invariant_basis
from ratdyn.translation import (CLASS_AFFINE, CLASS_MOBIUS_PRODUCT,
                                CLASS_MONOMIAL, CLASS_UNRECOGNIZED,
                                ExponentMatrix, UnivariatePolynomial,
                                VERDICT_NEGATIVE, VERDICT_PROVEN,
                                classify_system, leading_blocks_independent,
                                monomial_invariant_lattice, monomial_system,
                                normalize_leading_sequence,
                                system_exponent_matrix, _proves_infinite_order)

from conftest import make_system, rf


# -- classification -------------------------------------------------------------


def test_classify_shift_affine_proven():
    ev = classify_system(make_system("x", "x + 1"))
    assert ev.recognized_class == CLASS_AFFINE
    assert ev.verdict == VERDICT_PROVEN
    assert ev.profile.growth_class == "bounded"


def test_classify_mobius_product_proven():
    ev = classify_system(make_system("x y", "(2*x + 3)/(x + 1)", "5*y"))
    assert ev.recognized_class == CLASS_MOBIUS_PRODUCT
    assert ev.verdict == VERDICT_PROVEN


def test_classify_henon_negative():
    ev = classify_system(make_system("x y", "y", "y^2 - x"))
    assert ev.recognized_class == CLASS_UNRECOGNIZED
    assert ev.verdict == VERDICT_NEGATIVE


def test_classify_monomial_finite_order_proven():
    # (x, y) -> (y, 1/x) has exponent matrix [[0,1],[-1,0]] of order 4
    ev = classify_system(make_system("x y", "y", "1/x"))
    assert ev.recognized_class == CLASS_MONOMIAL
    assert ev.verdict == VERDICT_PROVEN
    # the swap itself is affine-linear, so the affine recognizer wins
    assert classify_system(make_system("x y", "y", "x")).recognized_class == CLASS_AFFINE


def test_classify_monomial_infinite_order_candidate_or_negative():
    ev = classify_system(make_system("x y", "x^2*y", "x*y"))
    assert ev.recognized_class == CLASS_MONOMIAL
    assert ev.verdict == VERDICT_NEGATIVE  # (3,8,21,55,...) grows exponentially


def test_exponent_matrix_roundtrip_and_negative_entries():
    A = ExponentMatrix(((0, 1), (1, 0)))
    sysm = monomial_system(("x", "y"), A)
    assert system_exponent_matrix(sysm) == A
    B = ExponentMatrix(((1, -2), (0, 1)))
    sysb = monomial_system(("x", "y"), B)
    assert sysb.coords[0] == rf("x/y^2", "x y")
    assert system_exponent_matrix(sysb) == B


def test_finite_order_detection():
    assert ExponentMatrix(((0, 1), (1, 0))).has_finite_order()
    assert ExponentMatrix(((0, -1), (1, 0))).has_finite_order()      # order 4
    assert ExponentMatrix(((0, -1), (1, -1))).has_finite_order()     # order 3
    assert not ExponentMatrix(((2, 1), (1, 1))).has_finite_order()
    assert not ExponentMatrix(((1, 1), (0, 1))).has_finite_order()   # unipotent


def test_finite_order_rejects_expanding_matrices_quickly():
    n = 10

    def matrix(entry):
        return ExponentMatrix(tuple(tuple(entry(i, j) for j in range(n))
                                    for i in range(n)))

    for diagonal in (2, 9):
        expanding = matrix(lambda i, j: diagonal if i == j else int(j == (i + 1) % n))
        start = time.perf_counter()
        assert not expanding.has_finite_order()
        assert time.perf_counter() - start < 0.5
    assert matrix(lambda i, j: int(i == j)).has_finite_order()
    assert matrix(lambda i, j: int(j == (i + 1) % n)).has_finite_order()
    assert matrix(lambda i, j: int(j == (3 * i + 1) % n)).has_finite_order()
    rotation = ((0, -1), (1, 0))
    assert matrix(lambda i, j: rotation[i % 2][j % 2] if i // 2 == j // 2
                  else 0).has_finite_order()                    # order 4
    shear = matrix(lambda i, j: int(i == j or (i, j) == (0, n - 1)))
    assert not shear.has_finite_order()                          # unipotent


# -- the infinite-order certificate -----------------------------------------------

# integer matrices of finite order: the identity, swaps, reflections, the
# rotations of order 4, 3 and 6, and permutations of three coordinates
_FINITE_ORDER = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((0, -1), (1, 0)),
                 ((0, -1), (1, -1)), ((1, -1), (1, 0)), ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
                 ((-1, 0, 0), (0, 0, 1), (0, 1, 0)), ((1, 0, 0), (0, 0, -1), (0, 1, 0))]
# Moebius matrices of order 2, 3, 4 and 6 in PGL2
_FINITE_ORDER_MOBIUS = [((0, -1), (1, 0)), ((0, -1), (1, 1)), ((1, -1), (1, 1)),
                        ((2, -1), (1, 1))]


def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _conjugated(a, rng):
    """U a U^-1 for a seeded unimodular U, a product of elementary matrices."""
    n = len(a)
    a = [list(row) for row in a]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        e = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)]
             for r in range(n)]
        inverse = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(n)]
                   for r in range(n)]
        a = _times(_times(e, a), inverse)
    return a


def _affine(matrix, shift):
    names = "xyz"[:len(matrix)]
    exprs = [" + ".join(f"({c})*{v}" for c, v in zip(row, names)) + f" + ({t})"
             for row, t in zip(matrix, shift)]
    return make_system(" ".join(names), *exprs)


def _seeded_affine(rng):
    """An affine map x -> A x + t: A of finite order, conjugated, and fixing
    a point of the scan or none; or A with small random entries."""
    if rng.random() < 0.5:
        a = _conjugated(rng.choice(_FINITE_ORDER), rng)
    else:
        n = rng.choice((2, 3))
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if rank(a) < n:
            a = [[int(i == j) for j in range(n)] for i in range(n)]
    n = len(a)
    if rng.random() < 0.5:
        p = [rng.randint(-2, 2) for _ in range(n)]  # x -> A (x - p) + p
        shift = [pi - sum(x * y for x, y in zip(row, p)) for row, pi in zip(a, p)]
    else:
        shift = [rng.randint(-2, 2) for _ in range(n)]
    return _affine(a, shift)


def _seeded_mobius(rng):
    if rng.random() < 0.5:
        (a, b), (c, d) = _conjugated(rng.choice(_FINITE_ORDER_MOBIUS), rng)
    else:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d == b * c:
            a, b, c, d = 1, 0, 0, 1
    return make_system("x", f"(({a})*x + ({b}))/(({c})*x + ({d}))")


@pytest.mark.parametrize("family", ["affine", "mobius"])
def test_a_proven_infinite_order_has_no_iterate_that_is_the_identity(family):
    # seeded maps, half of them of finite order (at most 6): wherever the
    # certificate proves infinite order, none of phi, ..., phi^12 is the
    # identity; and every map of finite order declines
    rng = random.Random(f"infinite-order-{family}")
    outcomes = set()
    for _ in range(60):
        sysm = (_seeded_affine if family == "affine" else _seeded_mobius)(rng)
        identity = DynamicalSystem.identity(sysm.variables)
        finite = any(it == identity for it in itertools.islice(iterates(sysm), 12))
        proven = _proves_infinite_order(sysm)
        assert not (proven and finite), sysm
        outcomes.add((proven, finite))
    # both outcomes occur, and a map that is not proven may be of either order
    assert {(True, False), (False, True)} <= outcomes


@pytest.mark.parametrize("variables, exprs", [
    ("x", ("x",)), ("x y", ("y", "x")), ("x", ("1/x",)), ("x", ("-1/(x + 1)",)),
    ("x", ("-x",)), ("x y z", ("y", "z", "x")), ("x y", ("y", "(y + 1)/x")),
], ids=["identity", "swap", "inverse", "order3", "negation", "cycle3", "lyness"])
def test_the_infinite_order_certificate_declines_on_maps_of_finite_order(variables, exprs):
    assert not _proves_infinite_order(make_system(variables, *exprs))


@pytest.mark.parametrize("variables, exprs", [
    ("x y", ("2*x", "2*y")), ("x y z", ("2*x", "2*y", "2*z")), ("x", ("2*x",)),
    ("x", ("x + 1",)), ("x y", ("2*x + y", "2*y")), ("x", ("(2*x + 3)/(x + 1)",)),
    ("x y", ("y", "y^2 - x")), ("x", ("x^2 + 1",)),
], ids=["double", "double3", "scale", "shift", "shear", "mobius", "henon", "quadratic"])
def test_the_infinite_order_certificate_proves_the_maps_of_infinite_order(variables, exprs):
    assert _proves_infinite_order(make_system(variables, *exprs))


def test_henon_is_proven_at_its_fixed_point_2_2(monkeypatch):
    # Henon fixes (0, 0), where D phi has order 4, and (2, 2), where its
    # multiplier t^2 - 4t + 1 has roots 2 +- sqrt(3), which are no roots of
    # unity; the scan proves infinite order only once it reaches (2, 2)
    henon = make_system("x y", "y", "y^2 - x")
    assert [jacobian_row(c, (0, 0)) for c in henon.coords] == [[0, 1], [-1, 0]]
    assert [jacobian_row(c, (2, 2)) for c in henon.coords] == [[0, 1], [-1, 4]]
    monkeypatch.setattr(translation, "_SCAN_VALUES", (0, 1, -1))
    assert not _proves_infinite_order(henon)
    monkeypatch.setattr(translation, "_SCAN_VALUES", (0, 2))
    assert _proves_infinite_order(henon)


# -- lattice oracle ---------------------------------------------------------------


def test_lattice_identity_counts():
    A = ExponentMatrix(((1, 0), (0, 1)))
    pts = monomial_invariant_lattice(A, 2)
    assert len(pts) == 6  # all monomials of degree <= 2 are fixed


def test_lattice_expanding_map_only_origin():
    # (A^T - I) u = 0 has only u = 0 because det(A^T - I) = -1
    A = ExponentMatrix(((2, 1), (1, 1)))
    assert monomial_invariant_lattice(A, 6) == [(0, 0)]


def test_lattice_swap():
    A = ExponentMatrix(((0, 1), (1, 0)))
    assert monomial_invariant_lattice(A, 2) == [(0, 0), (1, 1)]


def test_lattice_rejects_singular():
    with pytest.raises(SingularMatrixError):
        monomial_invariant_lattice(ExponentMatrix(((1, 1), (1, 1))), 3)


def test_lattice_agrees_with_linear_search():
    # 20 seeded random non-negative matrices, n in {2, 3}, det != 0
    rng = random.Random(20260808)
    produced = 0
    while produced < 20:
        n = rng.choice([2, 3])
        rows = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n))
        A = ExponentMatrix(rows)
        if rank(rows) < n:
            continue
        produced += 1
        variables = tuple("xyz"[:n])
        sysm = monomial_system(variables, A)
        basis = polynomial_invariant_basis(sysm, 6)
        monomials = sorted(
            (next(iter(p.terms)) for p in basis if len(p.terms) == 1),
            key=lambda e: (sum(e), e))
        assert monomials == monomial_invariant_lattice(A, 6)


# -- block normalization -----------------------------------------------------------


S = ("s",)


def C(src):
    return rf(src, S)


def U(*coeff_srcs):
    return UnivariatePolynomial([C(src) for src in coeff_srcs])


def test_normalize_shift_pair():
    # (t, t + 1): the degree-1 leading coefficients are (1, 1); one descent
    # step replaces the larger index by the constant difference
    result = normalize_leading_sequence([U("0", "1"), U("1", "1")])
    assert result.polys == (U("0", "1"), U("1"))
    assert leading_blocks_independent(result.polys)


def test_normalize_one_descent_step():
    # (s t^2 + t, s t^2): blocks after one step have degrees 2 and 1
    result = normalize_leading_sequence([U("0", "1", "s"), U("0", "0", "s")])
    assert sorted(p.degree for p in result.polys) == [1, 2]
    assert leading_blocks_independent(result.polys)


def test_normalize_keeps_already_valid():
    inputs = [U("0", "0", "1"), U("0", "1")]
    result = normalize_leading_sequence(inputs)
    assert result.polys == tuple(inputs)


def test_normalize_rejects_dependent_input():
    with pytest.raises(PreconditionError):
        normalize_leading_sequence([U("0", "s"), U("0", "2*s")])


def test_normalize_transition_matrices():
    inputs = [U("0", "1", "s"), U("0", "0", "s"), U("1", "s")]
    result = normalize_leading_sequence(inputs)
    s = len(inputs)
    # matrices multiply to the identity
    for i in range(s):
        for j in range(s):
            acc = sum(result.forward[i][k] * result.backward[k][j] for k in range(s))
            assert acc == (1 if i == j else 0)
    # outputs really are the recorded combinations of the inputs
    for i in range(s):
        acc = None
        for k in range(s):
            c = result.forward[i][k]
            if c:
                term = inputs[k].scale(c)
                acc = term if acc is None else acc.combine(Fraction(1), term)
        assert acc == result.polys[i]


def test_normalize_random_suite():
    rng = random.Random(99)
    aux = ("s1", "s2")

    def random_rf():
        num = rng.choice(["1", "s1", "s2", "s1 + 1", "s1*s2", "2", "s2 - 1", "0"])
        den = rng.choice(["1", "1", "1", "s1", "s2 + 1"])
        return rf(f"({num})/({den})", aux)

    done = 0
    while done < 25:
        s = rng.randint(1, 5)
        polys = []
        for _ in range(s):
            degree = rng.randint(0, 4)
            coeffs = [random_rf() for _ in range(degree + 1)]
            if all(c.is_zero for c in coeffs):
                coeffs[-1] = rf("1", aux)
            polys.append(UnivariatePolynomial(coeffs))
        try:
            result = normalize_leading_sequence(polys)
        except PreconditionError:
            continue  # random draw was Q-linearly dependent; try another
        done += 1
        assert leading_blocks_independent(result.polys)
        k = len(polys)
        for i in range(k):
            for j in range(k):
                acc = sum(result.forward[i][m] * result.backward[m][j] for m in range(k))
                assert acc == (1 if i == j else 0)


def _rank_blocks_independent(polys):
    """Reference: full rank of each block's cleared leading coefficients."""
    blocks = {}
    for p in polys:
        blocks.setdefault(p.degree, []).append(p.leading())
    for leads in blocks.values():
        _, index, rows = clear_denominators(leads)
        dense = [[r.get(c, 0) for c in range(len(index))] for r in rows]
        if rank(dense) != len(leads):
            return False
    return True


def test_leading_blocks_independent_matches_the_rank_test():
    # singletons, zero leads, and blocks with and without a dependence
    rng = random.Random(7)
    aux = ("s1", "s2")
    leads = ["0", "1", "2", "s1", "-3*s1", "s1 + 1", "s2/(s1 + 1)", "(s1*s2 - 1)/s2",
             "1/(s1 + 1)", "s1/(s1 + 1)"]
    verdicts = set()
    for _ in range(300):
        polys = [UnivariatePolynomial([rf("1", aux)] * rng.randint(0, 2)
                                      + [rf(rng.choice(leads), aux)])
                 for _ in range(rng.randint(1, 5))]
        verdict = leading_blocks_independent(polys)
        assert verdict == _rank_blocks_independent(polys)
        verdicts.add(verdict)
    assert verdicts == {True, False}
