import math
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ratdyn.exactalg import Polynomial  # noqa: E402

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


# -- Fraction references for the integer Polynomial layout ----------------------
#
# Term maps {exponent: Fraction} without zero coefficients, combined the way
# Polynomial did before it held an int term map over one denominator.


def ref_sum(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_scaled(a, k):
    return {e: c * k for e, c in a.items() if c * k}


def ref_derivative(a, index):
    out = {}
    for e, c in a.items():
        if e[index]:
            ne = list(e)
            ne[index] -= 1
            out[tuple(ne)] = c * e[index]
    return out


def ref_embed(a, m, positions):
    out = {}
    for e, c in a.items():
        ne = [0] * m
        for i, k in enumerate(e):
            ne[positions[i]] += k
        out[tuple(ne)] = c
    return out


def ref_str(variables, terms):
    """The text of a Fraction term map, as Polynomial prints it."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(variables, e) if k)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


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
    """Reference: the reduced row echelon form (pivot entries 1) by Fraction
    elimination."""
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


# -- Fraction references for the integer gcd, division and normal form ---------
#
# A test-local copy of the earlier Fraction-coefficient primitive PRS and
# trial division, used as the slow exact reference for poly_gcd, try_divide
# and divide_exact (whose integer core also runs a mod-p coprimality
# certificate first), and of the Polynomial-level normalization that
# RationalFunction ran on top of them.


def _ref_content(p):
    """c with p / c primitive over Z and of positive leading coefficient."""
    num_gcd, den_lcm = 0, 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    return -content if p.leading()[1] < 0 else content


def _ref_primitive(p):
    return p if p.is_zero else p.scaled(1 / _ref_content(p))


def _ref_try_divide(a, b):
    if a.is_zero:
        return a
    if b.is_constant:
        return a.scaled(1 / b.constant_value())
    quot = {}
    rem = a
    be, bc = b.leading()
    while rem.terms:
        re, rc = rem.leading()
        qe = tuple(x - y for x, y in zip(re, be))
        if any(x < 0 for x in qe):
            return None
        qc = rc / bc
        quot[qe] = quot.get(qe, Fraction(0)) + qc
        rem = rem - Polynomial(a.variables, {qe: qc}) * b
    return Polynomial(a.variables, quot)


def _ref_divide_exact(a, b):
    q = _ref_try_divide(a, b)
    assert q is not None
    return q


def _ref_coeffs_wrt(p, k):
    out = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[k] = 0
        out.setdefault(e[k], {})[tuple(ne)] = c
    return {d: Polynomial(p.variables, t) for d, t in out.items()}


def _ref_shift(p, k, t):
    out = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[k] += t
        out[tuple(ne)] = c
    return Polynomial(p.variables, out)


def _ref_content_wrt(p, k):
    coeffs = list(_ref_coeffs_wrt(p, k).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant:
            break
        g = _ref_gcd_rec(g, c, k - 1)
    return Polynomial.constant(p.variables, 1) if g.is_constant else g


def _ref_prem(a, b, k):
    db = b.degree_in(k)
    lb = _ref_coeffs_wrt(b, k)[db]
    r = a
    while r.terms and r.degree_in(k) >= db:
        dr = r.degree_in(k)
        r = lb * r - _ref_shift(_ref_coeffs_wrt(r, k)[dr] * b, k, dr - db)
    return r


def _ref_gcd_rec(a, b, k):
    if a.is_constant or b.is_constant or k < 0:
        return Polynomial.constant(a.variables, 1)
    da, db = a.degree_in(k), b.degree_in(k)
    if da == 0 and db == 0:
        return _ref_gcd_rec(a, b, k - 1)
    if da == 0 or db == 0:
        free, mixed = (a, b) if da == 0 else (b, a)
        return _ref_gcd_rec(free, _ref_content_wrt(mixed, k), k - 1)
    ca, cb = _ref_content_wrt(a, k), _ref_content_wrt(b, k)
    d = ca if ca.is_constant and cb.is_constant else _ref_gcd_rec(ca, cb, k - 1)
    if d.is_constant:
        d = Polynomial.constant(a.variables, 1)
    pa = _ref_primitive(_ref_divide_exact(a, ca))
    pb = _ref_primitive(_ref_divide_exact(b, cb))
    if pa.degree_in(k) < pb.degree_in(k):
        pa, pb = pb, pa
    while True:
        r = _ref_prem(pa, pb, k)
        if r.is_zero:
            break
        if r.degree_in(k) == 0:
            return d
        pa, pb = pb, _ref_primitive(_ref_divide_exact(r, _ref_content_wrt(r, k)))
    return d * _ref_primitive(_ref_divide_exact(pb, _ref_content_wrt(pb, k)))


def _ref_gcd(a, b):
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero or b.is_zero:
        return _ref_primitive(b if a.is_zero else a)
    if a.is_constant or b.is_constant:
        return Polynomial.constant(a.variables, 1)
    g = _ref_gcd_rec(_ref_primitive(a), _ref_primitive(b), len(a.variables) - 1)
    return _ref_primitive(g)


def _ref_normalize(num, den):
    """(num, den) in normal form, the Polynomial-level way: divide out the
    gcd, then scale both parts by the gcd of their contents over Q, signed
    like the denominator's."""
    if num.is_zero:
        return num, Polynomial.constant(num.variables, 1)
    g = _ref_gcd(num, den)
    if not g.is_constant:
        num, den = _ref_divide_exact(num, g), _ref_divide_exact(den, g)
    cn, cd = _ref_content(num), _ref_content(den)
    scale = Fraction(math.gcd(cn.numerator * cd.denominator, cd.numerator * cn.denominator),
                     cn.denominator * cd.denominator)
    if cd < 0:
        scale = -scale
    return num.scaled(1 / scale), den.scaled(1 / scale)
