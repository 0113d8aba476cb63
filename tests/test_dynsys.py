"""Systems: dominance, iteration, products, pullback, degree growth."""

import random
from fractions import Fraction

import pytest

from ratdyn.dynsys import (DOMINANT, GROWTH_BOUNDED, GROWTH_EXPONENTIAL,
                           NOT_DOMINANT, DynamicalSystem, compose,
                           degree_sequence, diagonal_power, iterate, product,
                           pullback, symmetrize_iterate_invariant,
                           validate_dominant)
from ratdyn.errors import PreconditionError, VariableMismatchError

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
