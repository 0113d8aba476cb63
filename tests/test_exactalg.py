"""Exact arithmetic core: polynomials, gcd, normal forms, substitution, rank."""

import bisect
import copy
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from ratdyn.dynsys import diagonal_power, pullback
from ratdyn.errors import (IndeterminacyError, PreconditionError,
                           VariableMismatchError, ZeroDenominatorError)
from ratdyn.exactalg import linalg, poly as poly_module
from ratdyn.exactalg.poly import (_cert_point, _certified_coprime, _cleared_terms,
                                 _combine_int,
                                 _gcd_cofactors, _int_primitive, _mul_int,
                                 _squarefree_split)
from ratdyn.exactalg import (Polynomial, RationalFunction, basis_exponents,
                             clear_denominators, cleared_monomial_images,
                             coprime_factor_basis,
                             divide_exact, jacobian_rank, nullspace,
                             poly_gcd,
                             poly_matrix_rank, primitive_part,
                             ratfunc_normalize, squarefree_chain,
                             squarefree_part, substitute, try_divide)

from conftest import (_fraction_evaluate, _fraction_jacobian_row,
                      _fraction_product, _fraction_reduce_row, _fraction_rref,
                      _ref_gcd, _ref_normalize, _ref_try_divide, make_system,
                      poly, ref_cleared_monomial_images, ref_derivative,
                      ref_embed, ref_scaled, ref_str, ref_sum, rf)

XY = ("x", "y")


def P(src):
    return poly(src, XY)


def F(src):
    return rf(src, XY)


def test_every_exported_name_resolves():
    import ratdyn
    from ratdyn import exactalg
    for module in (ratdyn, exactalg):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


# -- polynomial basics -------------------------------------------------------

coeffs = st.integers(-5, 5).map(Fraction)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_st = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Polynomial(XY, terms))


@given(poly_st, poly_st, poly_st)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(poly_st)
def test_additive_and_multiplicative_identities(a):
    zero = Polynomial.zero(XY)
    one = Polynomial.constant(XY, 1)
    assert a + zero == a
    assert a * one == a
    assert a - a == zero
    assert a * zero == zero


def test_power_matches_repeated_multiplication():
    p = P("x + 2*y - 1")
    assert p ** 0 == Polynomial.constant(XY, 1)
    assert p ** 3 == p * p * p


def test_variable_mismatch_rejected():
    with pytest.raises(VariableMismatchError):
        P("x") + poly("x", ("x",))


def test_leading_term_is_graded_lex():
    p = P("x*y + y^3 + x")
    expo, coeff = p.leading()
    assert expo == (0, 3) and coeff == 1
    q = P("x*y + x^2")
    assert q.leading()[0] == (2, 0)


def test_derivative_and_evaluate():
    p = P("x^2*y - 3*y")
    assert p.derivative(0) == P("2*x*y")
    assert p.derivative(1) == P("x^2 - 3")
    assert p.evaluate((Fraction(2), Fraction(3))) == 12 - 9


rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@given(st.data())
def test_evaluate_matches_fraction_evaluation(data):
    n = data.draw(st.integers(0, 3))
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 6)] * n),
                                      rationals, max_size=6))
    point = data.draw(st.tuples(*[st.one_of(rationals, st.integers(-3, 3))] * n))
    p = Polynomial(tuple("xyz"[:n]), terms)
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == _fraction_evaluate(p, point)


# -- the int term map over one denominator, against Fraction term maps ----------


def _random_terms(rng, n):
    """A Fraction term map in n variables: empty, a constant or up to five
    terms, with non-integer coefficients and some zero ones."""
    kind = rng.random()
    if kind < 0.1:
        return {}
    if kind < 0.25:
        return {(0,) * n: Fraction(rng.randint(-9, 9), rng.randint(1, 9))}
    return {tuple(rng.randint(0, 3) for _ in range(n)):
            Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 9)))
            for _ in range(rng.randint(1, 5))}


def _assert_layout(got, variables, want_terms, point):
    """got equals the Polynomial of the reference term map on ==, hash,
    .terms, str and evaluate, and holds a canonical int pair."""
    want_terms = {e: c for e, c in want_terms.items() if c}
    want = Polynomial(variables, want_terms)
    assert got == want and hash(got) == hash(want)
    assert dict(got.terms) == want_terms == dict(want.terms)
    assert all(type(c) is Fraction for c in got.terms.values())
    assert str(got) == str(want) == ref_str(variables, want_terms)
    value = sum((c * math.prod(Fraction(v) ** k for v, k in zip(point, e))
                 for e, c in want_terms.items()), Fraction(0))
    assert got.evaluate(point) == want.evaluate(point) == value
    assert got._den > 0 and all(type(c) is int and c for c in got._num.values())
    assert math.gcd(got._den, *got._num.values()) == 1


def test_integer_layout_matches_fraction_term_maps():
    rng = random.Random(0x1A70)
    for _ in range(300):
        n = rng.randint(1, 4)
        variables = tuple("xyzw"[:n])
        ta, tb = _random_terms(rng, n), _random_terms(rng, n)
        a, b = Polynomial(variables, ta), Polynomial(variables, tb)
        ta = {e: c for e, c in ta.items() if c}
        tb = {e: c for e, c in tb.items() if c}
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
        k = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        i = rng.randrange(n)
        m = n + rng.randint(0, 2)
        positions = rng.sample(range(m), n)
        _assert_layout(a, variables, ta, point)
        _assert_layout(a * b, variables, _fraction_product(ta, tb), point)
        _assert_layout(a + b, variables, ref_sum(ta, tb), point)
        # equal values reached in another term order hash alike
        assert hash(a + b) == hash(b + a) and hash(a * b) == hash(b * a)
        _assert_layout(a - b, variables, ref_sum(ta, ref_scaled(tb, -1)), point)
        _assert_layout(-a, variables, ref_scaled(ta, -1), point)
        _assert_layout(a + k, variables, ref_sum(ta, {(0,) * n: k}), point)
        _assert_layout(a.scaled(k), variables, ref_scaled(ta, k), point)
        _assert_layout(a.derivative(i), variables, ref_derivative(ta, i), point)
        wide = tuple(f"v{j}" for j in range(m))
        _assert_layout(a.embed(wide, positions), wide, ref_embed(ta, m, positions),
                       tuple(point[positions.index(j)] if j in positions else 0
                             for j in range(m)))


def test_basis_exponents_keeps_the_scale_of_rational_factors():
    """Trial division by factors with non-integer coefficients: the cofactor
    times the factor powers gives back the input exactly."""
    rng = random.Random(0xBA515)
    for _ in range(100):
        n = rng.randint(1, 3)
        variables = tuple("xyz"[:n])
        basis = [b for b in (Polynomial(variables, _random_terms(rng, n)) for _ in range(2))
                 if not b.is_constant]
        p = Polynomial.constant(variables, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for b in basis:
            p = p * b ** rng.randint(0, 2)
        exponents, rest = basis_exponents(p, basis)
        product = rest
        for b, k in zip(basis, exponents):
            product = product * b ** k
        assert product == p


def test_terms_is_a_read_only_fraction_view():
    p = Polynomial(XY, {(1, 0): Fraction(1, 2), (0, 1): 3})
    assert dict(p.terms) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = Fraction(1)
    assert p.terms is p.terms
    assert (p._num, p._den) == ({(1, 0): 1, (0, 1): 6}, 2)


def test_polynomials_pickle_and_copy_after_the_view_is_built():
    p = Polynomial(XY, {(1, 0): Fraction(1, 2), (0, 1): 3})
    f = RationalFunction(p, P("x - y"))
    for value in (p, f):
        hash(value)
        if value is p:
            p.terms
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                       copy.copy(value)):
            assert copied == value and hash(copied) == hash(value)
            assert str(copied) == str(value)
    assert dict(pickle.loads(pickle.dumps(p)).terms) == dict(p.terms)


def test_cleared_power_tables_match_fraction_products():
    """Sparse exponent lists, bounds above the largest exponent, and images
    with a constant denominator other than 1 (a rescaled map)."""
    rng = random.Random(0x7AB1E)
    for _ in range(100):
        n = rng.randint(1, 4)
        variables = tuple("xyzw"[:n])
        images = []
        for _ in range(rng.randint(1, 3)):
            num = Polynomial(variables, _random_terms(rng, n))
            if rng.random() < 0.4:
                den = Polynomial.constant(variables, rng.choice((2, 3, 5, Fraction(1, 7))))
            else:
                den = Polynomial(variables, _random_terms(rng, n))
                if den.is_zero:
                    den = Polynomial.constant(variables, 1)
            images.append(RationalFunction(num, den))
        bounds = tuple(rng.randint(0, 3) for _ in images)
        box = list(itertools.product(*[range(b + 1) for b in bounds]))
        exponents = rng.sample(box, rng.randint(1, len(box)))
        got = cleared_monomial_images(images, exponents, bounds)
        want = ref_cleared_monomial_images(images, exponents, bounds)
        assert got == want
        assert all(type(c) is int and c for g in got for c in g.values())


# -- gcd ----------------------------------------------------------------------


def test_gcd_cancels_difference_of_squares():
    # factor both by brute-force trial division: x^2 - y^2 = (x - y)(x + y)
    assert P("(x - y)*(x + y)") == P("x^2 - y^2")
    assert poly_gcd(P("x^2 - y^2"), P("x - y")) == P("x - y")


def test_gcd_with_zero_normalizes():
    p = P("4*x^2 - 4*y^2")
    z = Polynomial.zero(XY)
    assert poly_gcd(p, z) == P("x^2 - y^2")
    assert poly_gcd(z, p) == P("x^2 - y^2")
    assert poly_gcd(z, z).is_zero


def test_gcd_of_coprime_linears_is_one():
    # the resultant of x+1 and x+2 is a nonzero constant, so they are coprime
    assert poly_gcd(P("x + 1"), P("x + 2")) == Polynomial.constant(XY, 1)


def test_gcd_multivariate_content():
    a = P("x^2*y - y")       # y (x-1)(x+1)
    b = P("x*y^2 + y^2")     # y^2 (x+1)
    g = poly_gcd(a, b)
    assert g == P("x*y + y")
    assert try_divide(a, g) is not None and try_divide(b, g) is not None


@given(poly_st, poly_st, poly_st)
def test_gcd_divides_both_products(a, b, c):
    if a.is_zero or b.is_zero or c.is_zero:
        return
    g = poly_gcd(a * c, b * c)
    assert try_divide(g, primitive_part(c)) is not None
    assert try_divide(a * c, g) is not None
    assert try_divide(b * c, g) is not None


def test_divide_exact_roundtrip():
    a, b = P("x^3*y - x*y + 2*x"), P("x^2 + y")
    assert divide_exact(a * b, b) == a
    assert try_divide(P("x^2 + 1"), P("x + 1")) is None


# -- the integer gcd against the Fraction PRS it replaced ----------------------
#
# The slow exact references (a Fraction-coefficient primitive PRS and trial
# division, and the Polynomial-level normal form built on them) live in
# conftest.py.


VARS3 = ("x", "y", "z")


@st.composite
def gcd_triples(draw):
    """g, u, v over 1-3 variables: zero, constants, monomials and small
    sums with rational coefficients."""
    n = draw(st.integers(1, 3))
    variables = VARS3[:n]
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 2)] * n)

    def one():
        size = draw(st.sampled_from([0, 1, 1, 2, 3, 3]))
        return Polynomial(variables, draw(st.dictionaries(
            expo, coeff, min_size=size, max_size=size)))

    return one(), one(), one()


def _poly3(src, n):
    return poly(src, VARS3[:n])


@given(gcd_triples())
@example((_poly3("x*y", 2), _poly3("y", 2), _poly3("1", 2)))
@example((_poly3("x*y + x", 2), _poly3("x - y", 2), _poly3("x^2 + 1", 2)))
@example((_poly3("x*z + y*z", 3), _poly3("x*y*z", 3), _poly3("z^2 + 1", 3)))
@example((_poly3("0", 1), _poly3("2", 1), _poly3("x^2", 1)))
def test_integer_gcd_matches_fraction_prs(triple):
    g, u, v = triple
    a, b = g * u, g * v
    assert poly_gcd(a, b) == _ref_gcd(a, b)
    assert poly_gcd(b, a) == _ref_gcd(b, a)
    assert poly_gcd(u, v) == _ref_gcd(u, v)
    for num, den in ((a, b), (b, a), (a, g), (a, u), (a + 1, g), (u, v)):
        if den.is_zero:
            with pytest.raises(ZeroDivisionError):
                try_divide(num, den)
            continue
        q = try_divide(num, den)
        assert q == _ref_try_divide(num, den)
        if q is None:
            with pytest.raises(ValueError):
                divide_exact(num, den)
        else:
            assert divide_exact(num, den) == q and q * den == num


def test_gcd_certificate_declines_on_a_vanishing_leading_coefficient():
    # G's leading coefficient in y is x - c0 and in x is y - c1, so at the
    # certificate's point both images of G are constant: the images of A and
    # B are coprime although A and B share G.  The certificate must decline.
    c0, c1 = (Polynomial.constant(XY, c) for c in _cert_point(2))
    x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")
    G = (x - c0) * (y - c1) + 1
    A, B = G * (x + 2), G * (x + 3)
    assert not _certified_coprime(_int_primitive(A)[1], _int_primitive(B)[1])
    assert poly_gcd(A, B) == primitive_part(G) == _ref_gcd(A, B)
    # the same shapes away from the point are certified coprime
    assert _certified_coprime(_int_primitive(x + 2)[1], _int_primitive(x + 3)[1])
    assert poly_gcd(A, B * (x + 3)) == primitive_part(G)


def test_gcd_certificate_proves_a_pair_off_the_line():
    # the y^6 coefficient of B is 6x^5 - 2x^4*z, which vanishes wherever
    # z = 3x, as on a point c*(1, 2, 3); the coordinates of the point are
    # independent, so the certificate applies
    A = _poly3("-9*y^3*z^6 - 3*y^3*z^2 + 3*x^2*y^2 + 7*z^2", 3)
    B = _poly3("6*x^5*y^6 - 2*x^4*y^6*z - 8*x^4*y^3 + 9*x^3*y^2*z - 3*z^3", 3)
    assert _certified_coprime(_int_primitive(A)[1], _int_primitive(B)[1])
    assert poly_gcd(A, B) == Polynomial.constant(VARS3, 1)


_nonzero_coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def monomial_factored_pairs(draw):
    """(g*u*m, g*v*m') for a gcd triple and monomials m, m' with rational
    coefficients, so that the pair often shares a monomial factor."""
    g, u, v = draw(gcd_triples())
    variables = g.variables
    expo = st.tuples(*[st.integers(0, 3)] * len(variables))

    def monomial():
        return Polynomial(variables, {draw(expo): draw(_nonzero_coeff)})

    return g * u * monomial(), g * v * monomial()


@given(monomial_factored_pairs())
@example((_poly3("x^3*y*z + x*y^2*z", 3), _poly3("-2*x*y*z^2 + y^3*z", 3)))
@example((_poly3("x^2*y", 2), _poly3("x*y^3 + x*y", 2)))
def test_gcd_with_monomial_factors_matches_fraction_prs(pair):
    a, b = pair
    assert poly_gcd(a, b) == _ref_gcd(a, b)
    assert poly_gcd(b, a) == _ref_gcd(b, a)


# -- the cofactor gcd against the Fraction PRS ---------------------------------
#
# _gcd_primitive tries the operand with fewer terms as an exact divisor of the
# other before the certificate and the PRS, and returns the cofactors.  The
# shapes below force each way through it: a divisor, the same polynomial, a
# monomial multiple, a divisor whose degrees fit but which does not divide,
# and a proper common factor; the divisor cases are taken after each operand
# gets its own signed monomial factor, so the monomial split runs too.

VARS4 = ("x", "y", "z", "w")
_COFACTOR_SHAPES = ("b | a", "a | b", "a == b", "b = a*x^k", "fits, no divisor",
                    "common factor")


@st.composite
def cofactor_pairs(draw, shape):
    n = draw(st.integers(1, 4))
    variables = VARS4[:n]
    coeff = st.integers(-5, 5).filter(bool)
    expo = st.tuples(*[st.integers(0, 2)] * n)

    def part(least):
        size = draw(st.integers(least, 3))
        return Polynomial(variables, draw(st.dictionaries(
            expo, coeff, min_size=size, max_size=size)))

    def monomial():
        return Polynomial(variables, {draw(expo): draw(coeff)})

    u, v = part(2), part(1)
    if shape == "a == b":
        m = monomial()
        return u * m, u * m
    if shape == "b = a*x^k":
        x = Polynomial.variable(variables, variables[draw(st.integers(0, n - 1))])
        return u, u * x ** draw(st.integers(1, 3))
    if shape == "fits, no divisor":
        # u is not constant, so it does not divide u*v + c
        return u * v + draw(coeff), u
    a, b = {"b | a": (u * v, u), "a | b": (u, u * v),
            "common factor": (u * v, u * part(1))}[shape]
    return a * monomial(), b * monomial()


def _check_cofactors(a, b):
    g, a_g, b_g = _gcd_cofactors(a, b)
    assert g * a_g == a and g * b_g == b
    # primitive over Z, with a positive leading coefficient
    assert g == primitive_part(g) and g.leading()[1] > 0
    assert g == _ref_gcd(a, b) == poly_gcd(a, b)


@pytest.mark.parametrize("shape", _COFACTOR_SHAPES)
@given(data=st.data())
def test_cofactor_gcd_matches_fraction_prs(shape, data):
    a, b = data.draw(cofactor_pairs(shape))
    _check_cofactors(a, b)
    _check_cofactors(b, a)
    for num, den in ((a, b), (b, a)):
        f = RationalFunction(num, den)
        want_num, want_den = _ref_normalize(num, den)
        assert f.num.terms == want_num.terms and f.den.terms == want_den.terms


def test_cofactor_gcd_examples():
    for a, b in ((P("-2*x^3*y - 2*x^2*y"), P("3*x*y^2 + 3*y^2")),  # equal once split
                 (P("x^2 - 1"), P("x + 1")),
                 (P("x^2 + x + 1"), P("x + 1")),                 # fits, no divisor
                 (P("x + y"), P("x + y")),
                 (P("x - y"), P("-x^3*y + x^2*y^2"))):           # b = -a*x^2*y
        _check_cofactors(a, b)
        _check_cofactors(b, a)
    p = P("x^2 + 1")
    _check_cofactors(p, p)


def test_pairs_that_share_a_factor_but_do_not_divide_reach_the_prs(prs_calls):
    assert poly_gcd(P("(x + 1)*(y + 2)"), P("(x + 1)*(y - 3)")) == P("x + 1")
    assert prs_calls


# Before the certificate and the PRS, the operand with fewer terms is tried
# as an exact divisor of the other by trial division alone.  The near misses
# below alter a true divisor u of u*v at one term: an extreme coefficient
# scaled, an extreme exponent moved, or an inner coefficient changed, so the
# division fails at its first leading term, or only after the extremes have
# divided.

_NEAR_MISSES = ("divisor", "scaled extreme", "moved extreme", "changed inner")


@st.composite
def near_miss_divisors(draw, kind):
    n = draw(st.integers(1, 3))
    variables = VARS4[:n]
    coeff = st.integers(-5, 5).filter(bool)
    expo = st.tuples(*[st.integers(0, 2)] * n)

    def part(least, most):
        size = draw(st.integers(least, most))
        return dict(draw(st.dictionaries(expo, coeff, min_size=size, max_size=size)))

    u, v = part(3, 3), part(1, 2)
    a = Polynomial(variables, u) * Polynomial(variables, v)
    if kind == "scaled extreme":
        e = draw(st.sampled_from([max(u), min(u)]))
        u[e] *= draw(st.sampled_from([2, 3, -2]))
    elif kind == "moved extreme":
        e = draw(st.sampled_from([max(u), min(u)]))
        k = draw(st.integers(0, n - 1))
        moved = e[:k] + (e[k] + 1,) + e[k + 1:]
        u[moved] = u.get(moved, 0) + u.pop(e)
    elif kind == "changed inner":
        e = draw(st.sampled_from(sorted(u)[1:-1]))
        u[e] += draw(st.sampled_from([1, -1, 2]))
    b = Polynomial(variables, {e: c for e, c in u.items() if c})
    return a * Polynomial(variables, {draw(expo): draw(coeff)}), b


@pytest.mark.parametrize("kind", _NEAR_MISSES)
@given(data=st.data())
def test_divisor_precheck_matches_fraction_prs(kind, data):
    a, b = data.draw(near_miss_divisors(kind))
    assume(not b.is_zero)
    _check_cofactors(a, b)
    _check_cofactors(b, a)


def test_squarefree_and_factor_basis():
    assert squarefree_part(P("(x + y)^3")) == P("x + y")
    basis = coprime_factor_basis([P("(x + 1)^2*y"), P("y^2*(x - 1)")])
    assert P("y") in basis and P("x + 1") in basis and P("x - 1") in basis
    for i, p in enumerate(basis):
        for q in basis[i + 1:]:
            assert poly_gcd(p, q).is_constant


def test_factor_basis_of_squarefree_chain_covers_multiplicities():
    xyz = ("x", "y", "z")
    num, den = poly("(x + 1)^2*y", xyz), poly("z", xyz)
    # the radicals alone: x*y + y stays unsplit, and (x + 1)^2*y is no power of it
    radical = coprime_factor_basis([num, den])
    assert [str(b) for b in radical] == ["z", "x*y + y"]
    assert not basis_exponents(num, radical)[1].is_constant
    assert [str(p) for p in squarefree_chain(num)] == ["x^2*y + 2*x*y + y", "x + 1"]
    basis = coprime_factor_basis(squarefree_chain(num) + squarefree_chain(den))
    assert [str(b) for b in basis] == ["z", "y", "x + 1"]
    for p, expected in ((num, [0, 1, 2]), (den, [1, 0, 0])):
        exponents, rest = basis_exponents(p, basis)
        assert exponents == expected and rest.is_constant
        product = rest
        for b, a in zip(basis, exponents):
            product = product * b ** a
        assert product == p
    # refining a basis keeps it pairwise coprime and covering the old inputs
    refined = coprime_factor_basis([poly("x^2 - 1", xyz)], basis)
    assert [str(b) for b in refined] == ["z", "y", "x + 1", "x - 1"]


@st.composite
def repeated_factor_products(draw):
    """c * prod f_i^k_i over 1-3 variables: a rational content c of either
    sign, 1-3 small factors with rational coefficients (so a negative
    leading coefficient is common), each to a power 1-3."""
    n = draw(st.integers(1, 3))
    variables = VARS3[:n]
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 1)] * n)
    p = Polynomial.constant(variables, draw(st.builds(
        Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))))
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        f = Polynomial(variables, draw(st.dictionaries(expo, coeff, min_size=size,
                                                       max_size=size)))
        p = p * f ** draw(st.integers(1, 3))
    return p


def _divide_exact_chain(p):
    """squarefree_chain as it was: each entry divided by its squarefree part."""
    chain = []
    while not p.is_constant:
        chain.append(p)
        p = divide_exact(p, squarefree_part(p))
    return chain


@given(repeated_factor_products())
@example(P("(x - 1)^3*(x + 2)").scaled(Fraction(-2, 3)))
@example(P("(2*x*y - y)^2*(x + y)^3").scaled(Fraction(5, 2)))
@example(P("(x + 1)*y").scaled(Fraction(-3, 2)))                  # squarefree
@example(poly("-(x*z - y)^2*(y + 1)^3*z", VARS3))
def test_squarefree_chain_matches_the_divide_exact_chain(p):
    chain = squarefree_chain(p)
    want = _divide_exact_chain(p)
    # the same coefficients, not just the same values
    assert [q.terms for q in chain] == [q.terms for q in want]
    if chain:
        sqf, rest = _squarefree_split(p)
        assert sqf == squarefree_part(p) and sqf * rest == p


def test_squarefree_chain_makes_no_exact_division(monkeypatch):
    divisions = []
    real = poly_module.try_divide

    def counted(a, b):
        divisions.append((a, b))
        return real(a, b)

    monkeypatch.setattr(poly_module, "try_divide", counted)
    c = Fraction(-3, 2)
    p = P("(x + 1)^3*(x*y - 2)^2*y").scaled(c)
    assert squarefree_chain(p) == [p, P("(x + 1)^2*(x*y - 2)").scaled(c),
                                   P("x + 1").scaled(c)]
    assert divisions == []
    # the chain as it was divides once per entry
    assert len(_divide_exact_chain(p)) == len(divisions) == 3


# -- rational function normalization ------------------------------------------


def test_normalize_cancels_common_factor():
    f = ratfunc_normalize(P("x^2 - y^2"), P("x - y"))
    assert f.num == P("x + y")
    assert f.den == Polynomial.constant(XY, 1)


def test_normalize_zero_numerator():
    f = ratfunc_normalize(Polynomial.zero(XY), P("x*y - 3"))
    assert f.num.is_zero and f.den == Polynomial.constant(XY, 1)


def test_normalize_sign_and_content():
    f = ratfunc_normalize(P("2*x"), Polynomial.constant(XY, -2))
    assert f.num == P("-x")
    assert f.den == Polynomial.constant(XY, 1)


def test_normalize_idempotent_and_value_preserving():
    rng = random.Random(7)
    f = ratfunc_normalize(P("6*x^2*y - 6*y"), P("-4*x*y + 4*y"))
    again = ratfunc_normalize(f.num, f.den)
    assert again == f
    for _ in range(20):
        pt = (Fraction(rng.randint(-10**6, 10**6)),
              Fraction(rng.randint(-10**6, 10**6)))
        try:
            lhs = f.evaluate(pt)
            rhs = P("6*x^2*y - 6*y").evaluate(pt) / P("-4*x*y + 4*y").evaluate(pt)
        except ZeroDivisionError:
            continue
        assert lhs == rhs


@given(monomial_factored_pairs(), _nonzero_coeff)
@example((P("2*x"), P("-2")), Fraction(1))
@example((P("x^2*y - x*y"), P("x*y^2").scaled(Fraction(-4, 3))), Fraction(-3, 2))
@example((P("0"), P("x - y")), Fraction(1))
def test_normal_form_matches_polynomial_level_reference(pair, constant):
    num, den = pair
    if den.is_zero:
        den = Polynomial.constant(num.variables, constant)
    f = RationalFunction(num, den)
    want_num, want_den = _ref_normalize(num, den)
    assert f.num.terms == want_num.terms and f.den.terms == want_den.terms


def test_normal_form_of_random_pairs_is_exact_and_fast():
    # pairs shaped like functions_and_points: 1-4 variables, exponents up
    # to 6, at most 5 terms, integer coefficients within 9
    rng = random.Random(2024)
    slowest = 0.0
    for _ in range(300):
        names = tuple("xyzw"[:rng.randint(1, 4)])

        def part():
            return Polynomial(names, {
                tuple(rng.randint(0, 6) for _ in names):
                    rng.choice([c for c in range(-9, 10) if c])
                for _ in range(rng.randint(1, 5))})

        num, den = part(), part()
        start = time.perf_counter()
        f = RationalFunction(num, den)
        slowest = max(slowest, time.perf_counter() - start)
        assert f.num * den == num * f.den
        assert f.den.leading()[1] > 0
        coeffs = list(f.num.terms.values()) + list(f.den.terms.values())
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert slowest < 1.0, f"the slowest normal form took {slowest:.2f} s"


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        ratfunc_normalize(P("x"), Polynomial.zero(XY))


def test_equality_of_values_is_equality_of_normal_forms():
    assert F("(x^2 - y^2)/(x - y)") == F("x + y")
    assert F("x/y") == F("(2*x)/(2*y)")
    assert F("x/y") != F("y/x")


# -- substitution ---------------------------------------------------------------


def test_substitute_shift_invariance():
    f = F("x - y")
    images = (F("x + 1"), F("y + 1"))
    assert substitute(f, images) == f


def test_substitute_identity():
    f = F("(x^2 + y)/(x*y - 1)")
    images = (F("x"), F("y"))
    assert substitute(f, images) == f


def test_substitute_scaling():
    # direct expansion: (2x)/(2y) normalizes back to x/y
    assert substitute(F("x/y"), (F("2*x"), F("2*y"))) == F("x/y")


def test_substitute_pole_collapse():
    # x - y composed into the denominator's zero set: f = 1/(x - y), images equal
    with pytest.raises(IndeterminacyError):
        substitute(F("1/(x - y)"), (F("x"), F("x")))


@given(poly_st, poly_st, st.integers(0, 10**6), st.integers(0, 10**6))
def test_substitute_agrees_with_pointwise_evaluation(p, q, s, t):
    # Schwartz-Zippel style: compose then evaluate vs evaluate then apply
    if q.is_zero:
        return
    f = RationalFunction(p, q)
    images = (F("x*y + 1"), F("x - 2"))
    composed = substitute(f, images)
    pt = (Fraction(s - 500000), Fraction(t - 500000))
    try:
        inner = tuple(g.evaluate(pt) for g in images)
        direct = f.evaluate(inner)
        via = composed.evaluate(pt)
    except ZeroDivisionError:
        return
    assert direct == via


# -- integer power tables against their Fraction references -------------------


_VARS = ("x", "y", "z")
_rational_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _rational_polys(n, max_size=3):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), _rational_coeffs,
                           max_size=max_size).map(lambda t: Polynomial(_VARS[:n], t))


@st.composite
def normalized_functions(draw, n):
    """Normal forms of p/q for p, q with rational coefficients."""
    num = draw(_rational_polys(n))
    den = draw(_rational_polys(n).filter(lambda q: not q.is_zero))
    return RationalFunction(num, den)


@st.composite
def image_tables(draw):
    n = draw(st.integers(1, 3))
    images = [draw(normalized_functions(n)) for _ in range(draw(st.integers(1, 3)))]
    bounds = tuple(draw(st.integers(0, 3)) for _ in images)
    return images, bounds


def _ref_substitute(f, images):
    """substitute, composing with Fraction sums over the Fraction tables."""
    bounds = tuple(max(a, b) for a, b in
                   zip(f.num.max_exponents(), f.den.max_exponents()))
    exponents = list(dict.fromkeys(list(f.num.terms) + list(f.den.terms)))
    cleared = dict(zip(exponents,
                       ref_cleared_monomial_images(images, exponents, bounds)))

    def compose(p):
        acc = {}
        for e, c in p.terms.items():
            for m, v in cleared[e].items():
                acc[m] = acc.get(m, 0) + c * v
        return Polynomial(images[0].variables, acc)

    den = compose(f.den)
    if den.is_zero:
        raise IndeterminacyError("composition lands inside the pole set")
    return RationalFunction(compose(f.num), den)


@given(image_tables())
def test_cleared_monomial_images_match_fraction_tables(table):
    images, bounds = table
    exponents = list(itertools.product(*[range(b + 1) for b in bounds]))
    got = cleared_monomial_images(images, exponents, bounds)
    want = ref_cleared_monomial_images(images, exponents, bounds)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(type(c) is int and c for c in g.values())
        assert g == w


def test_cleared_monomial_images_reject_a_non_integer_normal_form():
    broken = RationalFunction.__new__(RationalFunction)
    broken.num = Polynomial(XY, {(1, 0): Fraction(1, 2)})
    broken.den = Polynomial.constant(XY, 1)
    with pytest.raises(AssertionError):
        cleared_monomial_images([broken, F("y")], [(1, 0)], (1, 0))


def test_cleared_monomial_images_reject_exponents_outside_the_bounds():
    # packing adds exponents slot by slot, so every exponent must lie in
    # [0, bound]: above it (a bare IndexError before) or below 0 a slot
    # could carry, and a negative bound read the lists from their end
    images = [F("x + 1"), F("y/(x - 2)")]
    for exponents, bounds in ((((2, 0),), (1, 1)), (((0, 0),), (-1, 1)),
                              (((1, 2),), (1, 1)), (((-1, 0),), (1, 1))):
        with pytest.raises(PreconditionError):
            cleared_monomial_images(images, exponents, bounds)
    assert cleared_monomial_images(images, [(1, 1)], (1, 1)) == \
        [{(1, 1): 1, (0, 1): 1}]


# -- the tuple-keyed power tables, as substitution ran before packing ------------


def _tuple_cleared_monomial_images(images, exponents, bounds):
    """cleared_monomial_images over tuple-keyed power lists, built per call."""
    one = {(0,) * len(images[0].variables): 1}
    tables = []
    for i, (g, b) in enumerate(zip(images, bounds)):
        num, den = g.num._num, g.den._num
        npw = [one]
        dpw = [one]
        for _ in range(b):
            npw.append(_mul_int(npw[-1], num))
            dpw.append(_mul_int(dpw[-1], den))
        table = {}
        for k in {e[i] for e in exponents}:
            n, d = npw[k], dpw[b - k]
            table[k] = n if d == one else d if n == one else _mul_int(n, d)
        tables.append(table)
    out = []
    for e in exponents:
        t = one
        for table, k in zip(tables, e):
            f = table[k]
            if f != one:
                t = f if t is one else _mul_int(t, f)
        out.append(t)
    return out


def _tuple_substitute(f, images):
    bounds = tuple(max(a, b) for a, b in
                   zip(f.num.max_exponents(), f.den.max_exponents()))
    exponents = list(dict.fromkeys(list(f.num._num) + list(f.den._num)))
    cleared = dict(zip(exponents,
                       _tuple_cleared_monomial_images(images, exponents, bounds)))

    def compose(p):
        return Polynomial._make(images[0].variables, _combine_int(p._num, cleared))

    den = compose(f.den)
    if den.is_zero:
        raise IndeterminacyError("composition lands inside the pole set")
    return RationalFunction(compose(f.num), den)


def _random_int_poly(rng, n, terms, top):
    """An integer polynomial in n variables with up to ``terms`` terms of
    exponents <= top and coefficients of both signs."""
    return Polynomial(tuple(f"x{j}" for j in range(n)),
                      {tuple(rng.randint(0, top) for _ in range(n)):
                       rng.choice((-1, 1)) * rng.randint(1, 9)
                       for _ in range(rng.randint(1, terms))})


def _random_image(rng, n):
    """A normal form in n variables: a constant (zero included), a
    polynomial, or a quotient with a denominator that is not constant."""
    variables = tuple(f"x{j}" for j in range(n))
    kind = rng.random()
    if kind < 0.15:
        return RationalFunction.constant(variables, rng.randint(-4, 4))
    num = _random_int_poly(rng, n, 3, 2)
    if kind < 0.5:
        return RationalFunction(num)
    den = _random_int_poly(rng, n, 3, 2)
    return RationalFunction(num, den) if not den.is_zero else RationalFunction(num)


def _assert_same_term_maps(got, want):
    for g, w in zip((got.num, got.den), (want.num, want.den)):
        assert g._num == w._num and g._den == w._den


def test_packed_power_tables_match_the_tuple_keyed_tables():
    rng = random.Random(0x9AC4ED)
    for _ in range(150):
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        images = [_random_image(rng, n) for _ in range(k)]
        bounds = tuple(rng.randint(0, 3) for _ in range(k))
        box = list(itertools.product(*[range(b + 1) for b in bounds]))
        # the corner has every exponent at its bound
        exponents = [bounds] + rng.sample(box, min(len(box), rng.randint(1, 12)))
        got = cleared_monomial_images(images, exponents, bounds)
        assert got == _tuple_cleared_monomial_images(images, exponents, bounds)
        f = RationalFunction(_random_int_poly(rng, k, 2, 2),
                             _random_int_poly(rng, k, 2, 1))
        try:
            want = _tuple_substitute(f, images)
        except IndeterminacyError:
            with pytest.raises(IndeterminacyError):
                substitute(f, images)
            continue
        _assert_same_term_maps(substitute(f, images), want)


def test_packed_substitution_into_a_six_variable_square_matches():
    square = diagonal_power(make_system("x y z", "-y", "z - 2*x*y",
                                        "(x + 1)/(y^2 - 3)"), 2)
    rng = random.Random(0x5D1A6)
    for _ in range(12):
        f = RationalFunction(_random_int_poly(rng, 6, 4, 2),
                             _random_int_poly(rng, 6, 2, 2)).embed(
            square.variables, range(6))
        want = _tuple_substitute(f, square.coords)
        _assert_same_term_maps(substitute(f, square.coords), want)
        _assert_same_term_maps(pullback(square, f), want)


@st.composite
def substitutions(draw):
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f = draw(normalized_functions(k))
    images = [draw(normalized_functions(n)) for _ in range(k)]
    return f, images


@given(substitutions())
@example((F("1/(x - y)"), [F("x"), F("x")]))
@example((F("(x^2 + y)/(x*y - 1)"), [F("x/2 + 1/3"), F("(3*y - 1)/(2*x + 5)")]))
def test_substitute_matches_fraction_composition(case):
    f, images = case
    try:
        want = _ref_substitute(f, images)
    except IndeterminacyError:
        with pytest.raises(IndeterminacyError):
            substitute(f, images)
        return
    got = substitute(f, images)
    assert got == want
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms


# -- jacobian rank ----------------------------------------------------------------


def test_jacobian_rank_examples():
    assert jacobian_rank([F("x - y"), F("(x - y)^2")]) == 1
    assert jacobian_rank([F("x"), F("y")]) == 2
    assert jacobian_rank([]) == 0
    # x^2 + y^2 = (x + y)^2 - 2 x y, verified by exact elimination
    assert jacobian_rank([F("x + y"), F("x*y"), F("x^2 + y^2")]) == 2


def test_jacobian_rank_bounds_and_stability():
    fs = [F("x/y"), F("x + y")]
    r = jacobian_rank(fs)
    assert r == 2
    assert r <= min(len(fs), 2)
    # adding a rational function of existing entries never increases the rank
    dependent = fs[0] * fs[1] + fs[0] ** 2
    assert jacobian_rank(fs + [dependent]) == r


def _det(m):
    """Determinant of a square matrix of polynomials, by Laplace expansion."""
    if len(m) == 1:
        return m[0][0]
    total = Polynomial.zero(m[0][0].variables)
    for j, v in enumerate(m[0]):
        if v:
            term = v * _det([row[:j] + row[j + 1:] for row in m[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


XYZ = ("x", "y", "z")


def _selector_at(variables):
    """A JacobianSelector and the coordinates of its seeded point as
    polynomials, so that functions can be made special there."""
    selector = linalg.JacobianSelector(variables)
    return selector, [Polynomial.constant(variables, v) for v in selector._point]


def test_selector_keeps_a_function_with_a_pole_at_the_seeded_point():
    selector, (a, b) = _selector_at(XY)
    x, y = (Polynomial.variable(XY, v) for v in XY)
    pole = RationalFunction(Polynomial.constant(XY, 1), x - a)
    assert selector.offer(pole)
    # x is algebraic over 1/(x - a); the seeded echelon has no pivot for
    # the kept pole, so its empty remainder test must not keep x
    assert not selector.offer(RationalFunction(x, Polynomial.constant(XY, 1)))
    assert not selector.offer(RationalFunction(x * x - a, x - a))
    # a candidate with a pole there is decided by the exact test too
    assert selector.offer(RationalFunction(y, y - b))
    assert selector.kept == [pole, RationalFunction(y, y - b)]


def test_selector_decides_a_dependent_candidate_at_rank_n_minus_one():
    selector = linalg.JacobianSelector(XYZ)
    f = [rf(src, XYZ) for src in ("x + y + z", "x^2 + y^2 + z^2",
                                   "x*y + y*z + z*x", "(x + y + z)/(x^2 + y^2 + z^2)",
                                   "x^3 + y^3 + z^3")]
    assert selector.offer(f[0]) and selector.offer(f[1])
    # rank 2 = n - 1: the next two are algebraic over the first two, and
    # only the exact test can say so
    assert not selector.offer(f[2]) and not selector.offer(f[3])
    assert selector.offer(f[4])
    assert selector.kept == [f[0], f[1], f[4]]
    assert jacobian_rank(f) == 3 and jacobian_rank(f[:4]) == 2


def test_selector_ends_the_seeded_test_when_a_kept_row_vanishes():
    # (y - b)^2 is independent of x, but its gradient vanishes at the
    # seeded point, so y's nonzero remainder there proves nothing
    selector, (a, b) = _selector_at(XY)
    one = Polynomial.constant(XY, 1)
    x, y = (Polynomial.variable(XY, v) for v in XY)
    square = RationalFunction((y - b) * (y - b), one)
    assert selector.offer(RationalFunction(x, one)) and selector.offer(square)
    assert not selector.offer(RationalFunction(y, one))
    assert not selector.offer(RationalFunction(x * y, one + x))
    assert len(selector.kept) == 2


def test_selector_exact_rows_are_the_minors_of_sylvesters_identity():
    # a pole at the seeded point sends every function to the exact echelon;
    # row t, after t - 1 steps, holds at column j the t-minor of the first t
    # gradient rows on the earlier pivot columns and j
    selector, (a, _, _) = _selector_at(XYZ)
    x = Polynomial.variable(XYZ, "x")
    fs = [RationalFunction(Polynomial.constant(XYZ, 1), x - a),
          rf("(x + y)/(y*z + 1)", XYZ), rf("x*y*z + y^2", XYZ),
          rf("x + y + z", XYZ)]
    assert [selector.offer(f) for f in fs] == [True, True, True, False]
    grads = [linalg._gradient_row(f) for f in fs]
    columns = [c for c, _ in selector._exact]
    assert sorted(columns) == [0, 1, 2]
    for t, (c, row) in enumerate(selector._exact):
        assert row[c]
        for j in range(3):
            minor = [[g[k] for k in columns[:t] + [j]] for g in grads[:t + 1]]
            assert row[j] == _det(minor)


def test_poly_matrix_rank_matches_the_selector_on_gradient_rows():
    fs = [rf(src, XYZ) for src in ("x/y", "(x + z)/y", "x*z/y^2", "(x^2 + x*z)/y^2")]
    rows = [linalg._gradient_row(f) for f in fs]
    assert poly_matrix_rank(rows) == jacobian_rank(fs) == 2
    assert poly_matrix_rank(rows[:3]) == 2 and poly_matrix_rank([]) == 0


@st.composite
def functions_and_points(draw):
    """f in 1-4 variables with exponents up to 6, and an integer point that
    is often special: zero coordinates, and poles of f on purpose."""
    n = draw(st.integers(1, 4))
    names = tuple("xyzw"[:n])
    terms = st.dictionaries(st.tuples(*[st.integers(0, 6)] * n),
                            st.integers(-9, 9).filter(bool), min_size=1, max_size=5)
    coordinate = st.one_of(st.integers(-2, 2), st.integers(-10 ** 6, 10 ** 6),
                           st.integers(-5, 5).map(Fraction))
    point = draw(st.tuples(*[coordinate] * n))
    num, den = Polynomial(names, draw(terms)), Polynomial(names, draw(terms))
    if draw(st.booleans()):
        # den(point) = 0 through a linear factor
        den = den * (Polynomial.variable(names, names[0])
                     - Polynomial.constant(names, point[0]))
    # jacobian_row reads only the two integer term maps, so the pair is kept
    # as drawn, reduced or not
    f = RationalFunction.__new__(RationalFunction)
    f.num, f.den = num, den
    return f, point


@given(functions_and_points())
def test_jacobian_row_matches_fraction_gradient(case):
    f, point = case
    try:
        want = _fraction_jacobian_row(f, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            linalg.jacobian_row(f, point)
        return
    got = linalg.jacobian_row(f, point)
    assert got == want
    assert all(type(v) is int for v in got)
    bad = (Fraction(1, 2),) + tuple(point[1:])
    with pytest.raises(ValueError):
        linalg.jacobian_row(f, bad)


def test_jacobian_row_examples():
    # d/dx and d/dy of x^2*y/(x + 1), times (x + 1)^2, at (2, -3)
    assert linalg.jacobian_row(F("x^2*y/(x + 1)"), (2, -3)) == [-24, 12]
    assert linalg.jacobian_row(F("x*y"), (0, 0)) == [0, 0]
    with pytest.raises(ZeroDivisionError):
        linalg.jacobian_row(F("y/x"), (0, 5))
    with pytest.raises(ValueError):
        linalg.jacobian_row(F("x + y"), (1, 0.5))


# -- exact nullspace ---------------------------------------------------------------


def test_nullspace_certified():
    rows = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(-1)},
            {1: Fraction(4), 2: Fraction(-2)}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    for row in rows:
        assert sum(row.get(i, Fraction(0)) * v for i, v in enumerate(basis[0])) == 0


def test_nullspace_empty_matrix_is_identity():
    basis = nullspace([], 3)
    assert len(basis) == 3
    # explicit zero entries and empty rows constrain nothing
    assert nullspace([{0: 0, 2: Fraction(0)}, {}], 3) == basis
    assert nullspace([{0: 0, 1: 2}], 2) == [(1, 0)]
    assert nullspace([], 0) == []


def _check_kernel(rows, ncols, basis, expected_dim):
    assert len(basis) == expected_dim
    for vec in basis:
        for row in rows:
            assert sum(row.get(i, Fraction(0)) * v for i, v in enumerate(vec)) == 0


@pytest.mark.parametrize("ncols, a, b", [
    (60, 1, -2),
    (55, 10 ** 7 + 19, -1),
    (55, Fraction(1, 2147483647 * 2147483629 * 2147483587 * 2147483579), -1),
], ids=["halving", "large-numerators", "large-denominators"])
def test_nullspace_of_a_chain_is_its_geometric_line(ncols, a, b):
    # rows a*v[i] + b*v[i+1] = 0: the kernel is the line v[i] = (-a/b)^i,
    # whose entries grow past 2^1000 or shrink below 2^-6000
    rows = [{i: a, i + 1: b} for i in range(ncols - 1)]
    basis = nullspace(rows, ncols)
    _check_kernel(rows, ncols, basis, 1)
    assert basis[0] == tuple(Fraction(-a, b) ** i for i in range(ncols))


def _fraction_nullspace(rows, ncols):
    """Reference: the RREF of the kernel, all by the Fraction elimination."""
    reduced, pivots = _fraction_rref(rows)
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            v = {f: Fraction(1)}
            v.update((pc, -row[f]) for pc, row in zip(pivots, reduced) if f in row)
            kernel.append(v)
    return [tuple(row.get(c, Fraction(0)) for c in range(ncols))
            for row in _fraction_rref(kernel)[0]]


@st.composite
def sparse_matrices(draw):
    """Wide sparse rational matrices with small entries."""
    ncols = draw(st.integers(51, 56))
    nrows = draw(st.integers(40, 46))
    entry = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=3)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@st.composite
def dense_matrices(draw):
    """Dense rows with large numerators and denominators, then integer
    combinations of them, so that the rank can drop."""
    ncols = draw(st.integers(1, 7))
    numerator = st.one_of(st.integers(-9, 9), st.sampled_from([10 ** 7 + 19, -(10 ** 7 + 19)]),
                          st.integers(-2 ** 130, 2 ** 130))
    denominator = st.one_of(st.integers(1, 4),
                            st.just(2147483647 * 2147483629 * 2147483587 * 2147483579),
                            st.integers(2 ** 123, 2 ** 125))
    entry = st.builds(Fraction, numerator, denominator)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        ks = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(k * r[c] for k, r in zip(ks, rows)) for c in range(ncols)])
    rows = draw(st.permutations(rows))
    return [{c: v for c, v in enumerate(r) if v} for r in rows], ncols


def _reduced(echelon):
    """The integer echelon with each row divided by its pivot entry, in
    ascending pivot order."""
    return [{c: Fraction(v, row[pc]) for c, v in row.items()}
            for pc, row in sorted(echelon.items())]


@given(st.one_of(sparse_matrices(), dense_matrices()))
def test_integer_rref_matches_fraction_rref(matrix):
    rows, ncols = matrix
    echelon = linalg._echelon(rows)
    assert (_reduced(echelon), sorted(echelon)) == _fraction_rref(rows)
    assert all(type(v) is int for row in echelon.values() for v in row.values())
    assert all(math.gcd(*row.values()) == 1 for row in echelon.values())
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert linalg.rank(dense) == len(echelon)
    basis = nullspace(rows, ncols)
    assert basis == _fraction_nullspace(rows, ncols)
    assert all(type(v) is Fraction for vec in basis for v in vec)
    _check_kernel(rows, ncols, basis, ncols - len(echelon))
    for row in rows:
        assert not linalg.echelon_step(echelon, row, insert=False)


def test_nullspace_is_one_elimination(monkeypatch):
    # every row is reduced once, into the one echelon of the call
    echelons = []
    step = linalg.echelon_step

    def counted(echelon, row, insert=True):
        echelons.append(echelon)
        return step(echelon, row, insert)

    monkeypatch.setattr(linalg, "echelon_step", counted)
    rows = [{0: 1, 2: Fraction(-1, 3)}, {1: 2, 3: 5}, {0: 2, 2: Fraction(-2, 3)}]
    assert nullspace(rows, 5) == [
        (1, 0, 3, 0, 0),
        (0, 1, 0, Fraction(-2, 5), 0),
        (0, 0, 0, 0, 1),
    ]
    assert len(echelons) == len(rows)
    assert all(echelon is echelons[0] for echelon in echelons)


def _as_fractions(rows):
    return [{c: Fraction(v) for c, v in row.items()} for row in rows]


def test_nullspace_at_full_column_rank_matches_the_full_solve():
    rng = random.Random(0x66756C6C)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [{c: rng.choice([-5, -3, -1, 1, 2, 4]) for c in
                 rng.sample(range(ncols), rng.randint(1, ncols))}
                for _ in range(rng.randint(ncols, 2 * ncols + 3))]
        assert nullspace(rows, ncols) == _fraction_nullspace(_as_fractions(rows), ncols)


def test_nullspace_stops_at_its_rank_bound(monkeypatch):
    # ncols - 1 independent rows with kernel span{(1, ..., 1)}, then 50
    # redundant ones: below the bound ncols every row is read
    ncols = 7
    rng = random.Random(7)
    independent = [{i: 1, i + 1: -1} for i in range(ncols - 1)]
    redundant = []
    for _ in range(50):
        ks = [rng.randint(-3, 3) for _ in independent]
        combo = {c: sum(k * r.get(c, 0) for k, r in zip(ks, independent))
                 for c in range(ncols)}
        redundant.append({c: x for c, x in combo.items() if x})
    rows = independent + redundant
    steps = []
    step = linalg.echelon_step

    def counted(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(linalg, "echelon_step", counted)
    assert nullspace(rows, ncols) == [(1,) * ncols]
    assert len(steps) == len(rows)
    # at full column rank the echelon stops at ncols pivots
    steps.clear()
    full = independent + [{0: 1}] + redundant
    assert nullspace(full, ncols) == []
    assert len(steps) == ncols


@st.composite
def dependent_rows(draw):
    """Sparse rational rows, then integer combinations of them, shuffled."""
    ncols = draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    independent_at_most = len(rows)
    for _ in range(draw(st.integers(1, 3))):
        combo = {}
        for r in rows[:independent_at_most]:
            k = draw(st.integers(-2, 2))
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.append({c: v for c, v in combo.items() if v})
    return draw(st.permutations(rows)), ncols, independent_at_most


@given(dependent_rows(), st.randoms(use_true_random=False))
def test_rref_sparse_is_the_reduced_echelon_form(matrix, rnd):
    # the integer echelon of echelon_step, read as a reduced echelon form
    rows, ncols, independent_at_most = matrix
    echelon = linalg._echelon(rows)
    reduced, pivots = _reduced(echelon), sorted(echelon)
    for pc, row in echelon.items():
        assert min(row) == pc and all(row.values())
        assert all(pc not in other for p, other in echelon.items() if p != pc)
    for row in rows:
        assert not linalg.echelon_step(echelon, row, insert=False)
        assert not _fraction_reduce_row(row, reduced, pivots)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    other = linalg._echelon(shuffled)
    assert (_reduced(other), sorted(other)) == (reduced, pivots)
    # the Bareiss rank over constant polynomials is an independent reference
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    exact = poly_matrix_rank([[Polynomial.constant(("t",), v) for v in r]
                              for r in dense])
    assert linalg.rank(dense) == len(pivots) == exact <= independent_at_most
    assert len(nullspace(rows, ncols)) == ncols - exact
    units = [[Fraction(int(c == j)) for c in range(ncols)] for j in range(ncols)]
    for target in dense + units:
        sparse_target = {c: v for c, v in enumerate(target) if v}
        member = not linalg.echelon_step(echelon, sparse_target, insert=False)
        assert member == (linalg.rank(dense + [target]) == exact)
        assert member == (not _fraction_reduce_row(sparse_target, reduced, pivots))


@st.composite
def int_matrices(draw):
    """Dense integer rows, as Jacobian rows are, with repeated rows."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return [{c: v for c, v in enumerate(r) if v} for r in rows], ncols


@given(st.one_of(dense_matrices(), int_matrices(),
                 dependent_rows().map(lambda m: m[:2])))
def test_rank_and_in_span_match_fraction_rref(matrix):
    rows, ncols = matrix
    reduced, pivots = _fraction_rref(rows)
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    assert linalg.rank(dense) == len(pivots)
    units = [[int(c == j) for c in range(ncols)] for j in range(ncols)]
    mixed = [sum(k * r[c] for k, r in zip((1, -2, 3), dense)) for c in range(ncols)]
    for target in dense + units + [mixed]:
        sparse_target = {c: v for c, v in enumerate(target) if v}
        # a remainder with insert=False leaves the echelon as it was, and is
        # empty exactly for a member of the span
        echelon = {}
        for row in rows:
            linalg.echelon_step(echelon, row)
        before = {pc: dict(r) for pc, r in echelon.items()}
        remainder = linalg.echelon_step(echelon, sparse_target, insert=False)
        assert echelon == before and sorted(echelon) == pivots
        assert (not remainder) == (not _fraction_reduce_row(sparse_target, reduced, pivots))


@pytest.mark.parametrize("sources", [
    ["x/2", "y/3", "(x + y)/6", "x/(2*y)"],   # denominators with an integer content
    ["x/(x + 1)", "(y^2 - 1)/(x - y)", "3/(x + 1)^2"],
])
def test_clear_denominators_rows_are_one_multiple_of_the_cleared_values(sources):
    # integer rows of value * den, all times the same positive integer
    values = [F(src) for src in sources]
    den, index, rows = clear_denominators(values)
    ratios = set()
    for value, row in zip(values, rows):
        cleared = value * RationalFunction(den)
        assert cleared.den.is_constant
        coeffs = {index[e]: c / cleared.den.constant_value()
                  for e, c in cleared.num.terms.items()}
        assert row.keys() == coeffs.keys()
        assert all(type(v) is int for v in row.values())
        ratios |= {row[col] / c for col, c in coeffs.items()}
    assert len(ratios) == 1 and ratios.pop() > 0


@st.composite
def lex_rows(draw):
    """Rows of polynomials keyed by exponent tuples, as the dedup pool's
    are, one of them a combination of the others, and a nonzero multiplier."""
    n = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 2)] * n)
    poly_row = st.dictionaries(expo, st.integers(-4, 4).filter(bool),
                               min_size=1, max_size=4)
    rows = draw(st.lists(poly_row, min_size=1, max_size=5))
    combo = {}
    for r in rows:
        k = draw(st.integers(-2, 2))
        for e, v in r.items():
            combo[e] = combo.get(e, 0) + k * v
    combo = {e: v for e, v in combo.items() if v}
    return rows + [combo] * bool(combo), draw(poly_row), draw(expo)


@given(lex_rows())
def test_echelon_multiplied_by_a_polynomial_answers_like_a_fresh_one(data):
    # lex is a monomial order, so each product's least column is its
    # factors' sum: multiplied row by row, the echelon stays triangular
    rows, m, e = data
    echelon = linalg._echelon(rows)
    low = min(m)
    multiplied = {tuple(a + b for a, b in zip(pc, low)): _mul_int(r, m)
                  for pc, r in echelon.items()}
    assert all(min(r) == pc for pc, r in multiplied.items())
    products = [_mul_int(r, m) for r in rows]
    fresh = linalg._echelon(products)
    # the pivot set of a triangular basis is the span's own
    assert multiplied.keys() == fresh.keys()
    member = {}
    for k, r in enumerate(products):
        for c, v in r.items():
            member[c] = member.get(c, 0) + (k - 1) * v
    member = {c: v for c, v in member.items() if v}
    outside = dict(member)
    outside[e] = outside.get(e, 0) + 1
    targets = products + rows + [member, outside, {e: 1}]
    for target in targets:
        assert (not linalg.echelon_step(multiplied, target, insert=False)) == (
            not linalg.echelon_step(fresh, target, insert=False))
    assert not linalg.echelon_step(multiplied, member, insert=False)
    # an insertion keeps the multiplied echelon triangular and equal in span
    for target in targets:
        linalg.echelon_step(multiplied, target)
        linalg.echelon_step(fresh, target)
        assert all(min(r) == pc for pc, r in multiplied.items())
        assert multiplied.keys() == fresh.keys()


def test_echelon_step_drops_explicit_zero_entries():
    echelon = {}
    assert linalg.echelon_step(echelon, {0: 0, 1: 1}) == {1: 1}
    assert echelon == {1: {1: 1}}
    assert linalg.echelon_step(echelon, {0: Fraction(0), 1: 3}, insert=False) == {}


@given(int_matrices(), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_int_rows_take_the_fraction_path_result(matrix, target):
    # rows of ints skip the clearing; as Fractions (zeros included) they are
    # cleared, and both give the same remainders and echelon
    rows, _ = matrix
    target = dict(enumerate(target))
    as_fractions = [{c: Fraction(v) for c, v in row.items()} for row in rows + [target]]
    results = []
    for ints in (rows + [target], as_fractions):
        echelon = {}
        remainders = [linalg.echelon_step(echelon, row) for row in ints[:-1]]
        remainders.append(linalg.echelon_step(echelon, ints[-1], insert=False))
        assert all(type(v) is int for row in [*echelon.values(), *remainders]
                   for v in row.values())
        results.append((remainders, echelon))
    assert results[0] == results[1]


@given(dependent_rows(), st.data())
def test_explicit_zero_entries_change_nothing(matrix, data):
    # the same rows with explicit zeros (int or Fraction, placed first in the
    # dict) give the same echelon, rank, remainders and kernel
    rows, ncols, _ = matrix
    zero = st.sampled_from([0, Fraction(0)])

    def with_zeros(row):
        cols = data.draw(st.sets(st.integers(0, ncols - 1)))
        return {**{c: data.draw(zero) for c in cols - set(row)}, **row}

    zeroed = [with_zeros(row) for row in rows]
    echelon = linalg._echelon(rows)
    assert linalg._echelon(zeroed) == echelon
    assert all(all(row.values()) for row in echelon.values())
    units = [{c: int(c == j) for c in range(ncols)} for j in range(ncols)]
    for target in rows + units:
        assert (linalg.echelon_step(echelon, with_zeros(target), insert=False)
                == linalg.echelon_step(echelon, target, insert=False))
    assert nullspace(zeroed, ncols) == nullspace(rows, ncols)


# -- the pivot heap against a scan over every pivot --------------------------------


def _scan_eliminate(row, ref, pc):
    g = math.gcd(row[pc], ref[pc])
    a, b = row[pc] // g, ref[pc] // g
    out = {c: b * v for c, v in row.items()} if b != 1 else dict(row)
    for c, v in ref.items():
        s = out.get(c, 0) - a * v
        if s:
            out[c] = s
        else:
            del out[c]
    return linalg._primitive(out)


def _scan_echelon_step(echelon, pivots, row, insert=True):
    """Reference: the earlier elimination, over parallel lists of rows and
    ascending pivots, which scans every pivot for the ones a row meets and
    every row for the new pivot."""
    if not all(type(v) is int for v in row.values()):
        row = _cleared_terms(row)[1]
    row = linalg._primitive({c: v for c, v in row.items() if v})
    for pc, ref in zip(pivots, echelon):
        if row.get(pc):
            row = _scan_eliminate(row, ref, pc)
    if row and insert:
        pc = min(row)
        for i, other in enumerate(echelon):
            if other.get(pc):
                echelon[i] = _scan_eliminate(other, row, pc)
        pos = bisect.bisect(pivots, pc)
        pivots.insert(pos, pc)
        echelon.insert(pos, row)
    return row


def _both_steps(echelon, scan, row, insert=True):
    """echelon_step on the dict echelon and the reference step on its list
    pair, which must give the same remainder and the same echelon."""
    remainder = linalg.echelon_step(echelon, dict(row), insert)
    assert remainder == _scan_echelon_step(*scan, dict(row), insert)
    assert echelon == dict(zip(scan[1], scan[0]))
    return remainder


@st.composite
def mixed_rows(draw):
    """Sparse rows of ints, or of Fractions, with explicit zeros among them,
    and integer combinations, so that some rows reduce to zero."""
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        ks = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        combo = {}
        for k, r in zip(ks, rows):
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.append(combo)
    return draw(st.permutations(rows)), ncols


@given(mixed_rows())
def test_echelon_step_matches_the_pivot_scan_on_reduced_echelons(matrix):
    rows, ncols = matrix
    echelon, scan = {}, ([], [])
    for row in rows:
        _both_steps(echelon, scan, row)
    units = [{c: int(c == j) for c in range(ncols)} for j in range(ncols)]
    for target in rows + units:
        _both_steps(echelon, scan, target, insert=False)


@given(lex_rows(), st.lists(st.integers(0, 5), max_size=6))
def test_echelon_step_matches_the_pivot_scan_on_multiplied_echelons(data, picks):
    # the pool's triangular case: an echelon multiplied by one polynomial,
    # whose rows then hold pivot columns above their own, which an
    # elimination can fill
    rows, m, e = data
    scan = ([], [])
    for row in rows:
        _scan_echelon_step(*scan, row)
    low = min(m)

    def shift(pc):
        return tuple(a + b for a, b in zip(pc, low))

    scan = ([_mul_int(r, m) for r in scan[0]], [shift(pc) for pc in scan[1]])
    echelon = dict(zip(scan[1], scan[0]))
    assert echelon == {shift(pc): _mul_int(r, m)
                       for pc, r in linalg._echelon(rows).items()}
    products = [_mul_int(r, m) for r in rows]
    targets = products + rows + [{e: 1}, {**products[0], e: 7}]
    for target in targets:
        _both_steps(echelon, scan, target, insert=False)
    for k in picks:
        _both_steps(echelon, scan, targets[k % len(targets)])
    for target in targets:
        _both_steps(echelon, scan, target, insert=False)


@given(st.one_of(mixed_rows(), dependent_rows().map(lambda m: m[:2])), st.data())
def test_nullspace_limit_returns_the_kernel_only_up_to_the_limit(matrix, data):
    rows, ncols = matrix
    full = nullspace(rows, ncols)
    limit = data.draw(st.integers(0, ncols + 1))
    assert nullspace(rows, ncols, limit) == (full if len(full) <= limit else [])


def test_nullspace_limit_stops_once_the_rows_left_cannot_reach_the_rank(monkeypatch):
    # 8 columns and 6 rows of rank 4: a kernel of 4, over limit 3, needs a
    # rank below 8 - 3 = 5, which each unread row raises by at most one
    ncols = 8
    rows = [{0: 1}, {0: 2}, {1: 1}, {1: 3}, {2: 1}, {3: 1}]
    steps = []
    step = linalg.echelon_step

    def counted(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(linalg, "echelon_step", counted)
    assert nullspace(rows, ncols, 3) == []
    # after {0: 1}, {0: 2}, {1: 1} and {1: 3}: 2 pivots + 2 unread rows < 5
    assert len(steps) == 4
    steps.clear()
    assert len(nullspace(rows, ncols, 4)) == 4
    assert len(steps) == len(rows)
    steps.clear()
    # fewer rows than ncols - limit: nothing is read
    assert nullspace(rows[:2], ncols, 5) == []
    assert steps == []


# -- printing round trip ----------------------------------------------------------


def test_str_reparses_to_same_normal_form():
    for src in ["x - y", "-x^2 + 3/2", "(x^2 - y)/(x + 1)", "x/y",
                "2*x*y - x + 7", "-3*x^3*y^2 + y - 1/3"]:
        f = F(src)
        assert rf(str(f), XY) == f
