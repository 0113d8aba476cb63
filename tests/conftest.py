import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def xy():
    return ("x", "y")


def _vars(variables):
    if isinstance(variables, str):
        return tuple(variables.split())
    return tuple(variables)


def make_system(variables, *exprs):
    from ratdyn.parsing import parse_map
    return parse_map(_vars(variables), exprs)


def rf(src, variables):
    from ratdyn.parsing import parse_expression
    return parse_expression(src, _vars(variables))


def poly(src, variables):
    f = rf(src, variables)
    assert f.den.is_constant and f.den.constant_value() == 1, f"{src} is not polynomial"
    return f.num


@pytest.fixture
def systems_dir():
    import ratdyn
    return os.path.join(os.path.dirname(ratdyn.__file__), "systems")


# -- Fraction references for the integer monomial power tables -------------------


def _fraction_product(a, b):
    """Schoolbook product of two {exponent: Fraction} term maps."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_cleared_monomial_images(images, exponents, bounds):
    """cleared_monomial_images as Fraction term maps: the numerators N_e of
    x^e(images) = N_e / prod(den_i^bounds[i]), by Fraction products."""
    one = {(0,) * len(images[0].variables): 1}
    num_pows, den_pows = [], []
    for g, d in zip(images, bounds):
        npw, dpw = [one], [one]
        for _ in range(d):
            npw.append(_fraction_product(npw[-1], g.num.terms))
            dpw.append(_fraction_product(dpw[-1], g.den.terms))
        num_pows.append(npw)
        den_pows.append(dpw)
    out = []
    for e in exponents:
        t = one
        for i, k in enumerate(e):
            t = _fraction_product(t, num_pows[i][k])
            t = _fraction_product(t, den_pows[i][bounds[i] - k])
        out.append(t)
    return out


# -- Fraction references for the integer eliminations and Jacobian rows ---------


def _fraction_evaluate(p, point):
    """Reference: each term's value in Fractions, summed."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = c
        for v, k in zip(point, e):
            if k:
                term *= Fraction(v) ** k
        total += term
    return total


def _fraction_jacobian_row(f, point):
    """Reference: den^2 * grad f at the point from derivative Polynomials,
    each evaluated term by term in Fractions."""
    qv = _fraction_evaluate(f.den, point)
    if qv == 0:
        raise ZeroDivisionError("evaluation at a pole")
    pv = _fraction_evaluate(f.num, point)
    return [_fraction_evaluate(f.num.derivative(j), point) * qv
            - pv * _fraction_evaluate(f.den.derivative(j), point)
            for j in range(len(point))]


def _fraction_reduce_row(row, reduced, pivots):
    """Reference: remainder against a reduced echelon (pivot entries 1),
    in Fractions."""
    row = dict(row)
    for pc, ref in zip(pivots, reduced):
        coeff = row.get(pc)
        if coeff:
            for c, v in ref.items():
                s = row.get(c, 0) - coeff * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
    return row


def _fraction_rref(rows):
    """Reference: the Fraction elimination rref_sparse replaced."""
    reduced, pivots = [], []
    for raw in rows:
        row = _fraction_reduce_row(raw, reduced, pivots)
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        row = {c: v * inv for c, v in row.items()}
        for i, other in enumerate(reduced):
            if other.get(pc):
                reduced[i] = _fraction_reduce_row(other, [row], [pc])
        pos = sum(p < pc for p in pivots)
        pivots.insert(pos, pc)
        reduced.insert(pos, row)
    return reduced, pivots
