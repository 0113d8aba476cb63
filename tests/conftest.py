import functools
import itertools
import math
import os
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ratdyn.exactalg import Polynomial, RationalFunction, poly_gcd  # noqa: E402

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


@pytest.fixture
def prs_calls(monkeypatch):
    """The variable index of every entry into ``poly._gcd_int``, the
    pseudo-remainder sequence, during the test (recursive entries too)."""
    from ratdyn.exactalg import poly as poly_module
    calls = []
    gcd_int = poly_module._gcd_int

    def counted(a, b, k):
        calls.append(k)
        return gcd_int(a, b, k)

    monkeypatch.setattr(poly_module, "_gcd_int", counted)
    return calls


@pytest.fixture
def pool_extensions(monkeypatch):
    """What the dedup pools do during the test: ``refined`` holds, for every
    extension that moved a pool to refined factors, in order, whether the
    refinement split one of the pool's old factors, and ``moves`` the number
    of factors before and after it; ``multiplied`` counts the extensions
    that multiplied a pool's echelon by a grown denominator; ``kept`` the
    number of invariants that every search yielded, in the order the
    searches started (``invsearch._kept_invariants``, which every search
    runs, lazily)."""
    from ratdyn import invsearch
    seen = types.SimpleNamespace(refined=[], moves=[], multiplied=0, kept=[])
    pool, search = invsearch._ClearedPool, invsearch._kept_invariants
    real_extend = pool.extend

    def extend(self, found):
        factors, grown = self.factors, self.multiplied
        real_extend(self, found)
        if self.factors is not factors:
            seen.refined.append(not set(factors) <= set(self.factors))
            seen.moves.append((len(factors), len(self.factors)))
        seen.multiplied += self.multiplied - grown

    def counted(sys, budget):
        index = len(seen.kept)
        seen.kept.append(0)

        def pulled():
            for f in search(sys, budget):
                seen.kept[index] += 1
                yield f
        return pulled()

    monkeypatch.setattr(pool, "extend", extend)
    monkeypatch.setattr(invsearch, "_kept_invariants", counted)
    return seen


def forget_pool_extensions(seen):
    """Empty what a ``pool_extensions`` fixture has recorded so far."""
    seen.refined.clear()
    seen.moves.clear()
    seen.kept.clear()
    seen.multiplied = 0


@pytest.fixture
def darboux_solves(monkeypatch):
    """The (table degree, q) of every ``invsearch._darboux_kernel`` call
    during the test that reached ``nullspace``, in order; q as its primitive
    int term map."""
    from ratdyn import invsearch
    solves, reached = [], []
    kernel, nullspace = invsearch._darboux_kernel, invsearch.nullspace

    def counted_nullspace(*args):
        reached.append(True)
        return nullspace(*args)

    def counted_kernel(sys, q_int, dp, d, tables, kernels):
        reached.clear()
        out = kernel(sys, q_int, dp, d, tables, kernels)
        if reached:
            solves.append((d, q_int))
        return out

    monkeypatch.setattr(invsearch, "nullspace", counted_nullspace)
    monkeypatch.setattr(invsearch, "_darboux_kernel", counted_kernel)
    return solves


@pytest.fixture
def darboux_tests(monkeypatch):
    """The (table degree, q) of every ``invsearch._darboux_kernel`` call
    during the test, in order, solved or served from the kernel memo: each
    one divides q's cleared pullback by q, the polynomial Darboux test; q as
    its primitive int term map."""
    from ratdyn import invsearch
    tests = []
    kernel = invsearch._darboux_kernel

    def counted_kernel(sys, q_int, dp, d, tables, kernels):
        tests.append((d, q_int))
        return kernel(sys, q_int, dp, d, tables, kernels)

    monkeypatch.setattr(invsearch, "_darboux_kernel", counted_kernel)
    return tests


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
        inv = 1 / Fraction(row[pc])
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


# -- Fraction reference for the pencil stage -----------------------------------
#
# A test-local copy of the earlier pencil stage over Fraction: the dense
# antisymmetric matrix of each point with its Fraction rank, grid points and
# pushed points normalized to a first nonzero entry 1, the rational roots by
# Fraction evaluation, and p/q read off the matrix's columns with a Fraction
# span test.


def _ref_pencil_matrix(t_coeffs, basis, size):
    """Antisymmetric matrix of the combination sum(t_k * basis_k)."""
    m = [[Fraction(0)] * size for _ in range(size)]
    for t, vec in zip(t_coeffs, basis):
        if not t:
            continue
        for (i, j), val in vec.items():
            m[i][j] += t * val
            m[j][i] -= t * val
    return m


def _ref_sparse(vector):
    return {c: v for c, v in enumerate(vector) if v}


def _ref_grid_points(k):
    values = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    pts = []
    seen = set()
    for combo in itertools.product(values, repeat=k):
        if not any(combo):
            continue
        lead = next(v for v in combo if v)
        normed = tuple(v / lead for v in combo)
        if normed not in seen:
            seen.add(normed)
            pts.append(normed)
    return pts


def _ref_univariate(coeffs):
    return Polynomial(("t",), {(i,): c for i, c in enumerate(coeffs)})


def _ref_at_t2_one(form):
    deg = form.total_degree
    return _ref_univariate([form.coefficient((i, deg - i)) for i in range(deg + 1)])


def _ref_rational_roots(f):
    d = f.total_degree
    if d == 0:
        return []
    coeffs = [f.coefficient((i,)) for i in range(d + 1)]
    if d == 1:
        return [-coeffs[0] / coeffs[1]]
    if d == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        root, rootd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if root * root != disc.numerator or rootd * rootd != disc.denominator:
            return []
        s = Fraction(root, rootd)
        return sorted({(-b + s) / (2 * a), (-b - s) / (2 * a)})
    ints = [f._num.get((i,), 0) for i in range(d + 1)]
    lead, const = ints[d], next(c for c in ints if c)
    roots = [Fraction(0)] if ints[0] == 0 else []

    def divisors(n):
        n = abs(n)
        out = {i for i in range(1, math.isqrt(n) + 1) if n % i == 0}
        return out | {n // i for i in out} or {1}

    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _ref_decomposable_points(basis, size):
    k = len(basis)
    candidates = []
    seen = set()

    def push(t):
        lead = next(v for v in t if v)
        normed = tuple(Fraction(v) / lead for v in t)
        if normed in seen:
            return
        seen.add(normed)
        rows = map(_ref_sparse, _ref_pencil_matrix(normed, basis, size))
        if len(_fraction_rref(rows)[1]) == 2:
            candidates.append(normed)

    support = sorted({idx for vec in basis for pair in vec for idx in pair})
    tvars = tuple(f"t{i + 1}" for i in range(k))

    def entry(i, j):
        terms = {}
        for m, vec in enumerate(basis):
            if vec.get((i, j)):
                terms[tuple(int(x == m) for x in range(k))] = vec[(i, j)]
        return Polynomial(tvars, terms)

    quadrics = []
    for a, b, c, d in itertools.combinations(support, 4):
        q = (entry(a, b) * entry(c, d) - entry(a, c) * entry(b, d)
             + entry(a, d) * entry(b, c))
        if not q.is_zero:
            quadrics.append(q)
        if len(quadrics) >= 400:
            break
    if k == 1:
        push((Fraction(1),))
    elif not quadrics or k > 3:
        for t in _ref_grid_points(k):
            push(t)
    elif k == 2:
        g = functools.reduce(poly_gcd, map(_ref_at_t2_one, quadrics))
        for r in _ref_rational_roots(g):
            push((r, Fraction(1)))
        if all(q.coefficient((2, 0)) == 0 for q in quadrics):
            push((Fraction(1), Fraction(0)))
    else:
        two = ("t1", "t2")

        def split(q):
            b, c = {}, {}
            for e, coeff in q.terms.items():
                if e[2] == 1:
                    b[e[:2]] = coeff
                elif e[2] == 0:
                    c[e[:2]] = coeff
            return (Polynomial.constant(two, q.coefficient((0, 0, 2))),
                    Polynomial(two, b), Polynomial(two, c))

        def at(q, t1, t2):
            coeffs = [Fraction(0)] * 3
            for e, coeff in q.terms.items():
                coeffs[e[2]] += coeff * t1 ** e[0] * t2 ** e[1]
            return _ref_univariate(coeffs)

        resultants = []
        for q1, q2 in itertools.combinations(quadrics, 2):
            a1, b1, c1 = split(q1)
            a2, b2, c2 = split(q2)
            res = ((a1 * c2 - c1 * a2) ** 2
                   - (a1 * b2 - b1 * a2) * (b1 * c2 - c1 * b2))
            if not res.is_zero:
                resultants.append(res)
        pairs_t12 = []
        if resultants:
            g = functools.reduce(poly_gcd, map(_ref_at_t2_one, resultants))
            pairs_t12 = [(r, Fraction(1)) for r in _ref_rational_roots(g)]
            pairs_t12.append((Fraction(1), Fraction(0)))
        for t1, t2 in pairs_t12:
            specialized = functools.reduce(poly_gcd, (at(q, t1, t2) for q in quadrics))
            if specialized.is_zero:
                for t3 in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2)):
                    push((t1, t2, t3))
            else:
                for t3 in _ref_rational_roots(specialized):
                    push((t1, t2, t3))
        if all(q.coefficient((0, 0, 2)) == 0 for q in quadrics):
            push((Fraction(0), Fraction(0), Fraction(1)))
        for t in _ref_grid_points(k):
            push(t)
    return candidates


def ref_pencil_candidates(variables, monos, basis):
    """Reference: p/q of each decomposable point of sum(t_k basis_k), for
    rational basis vectors (maps from pairs i < j), by the Fraction pencil:
    p the first nonzero column, q the first column outside its span, each
    with a positive leading coefficient."""
    size = len(monos)
    out = []
    for t in _ref_decomposable_points(basis, size):
        m = _ref_pencil_matrix(t, basis, size)
        cols = [tuple(m[r][c] for r in range(size)) for c in range(size)]
        first = next(c for c in cols if any(c))
        reduced, pivots = _fraction_rref([_ref_sparse(first)])
        second = next(c for c in cols
                      if _fraction_reduce_row(_ref_sparse(c), reduced, pivots))
        p, q = (Polynomial(variables, {monos[i]: v for i, v in enumerate(c) if v})
                for c in (first, second))
        if p.leading()[1] < 0:
            p = -p
        if q.leading()[1] < 0:
            q = -q
        out.append(RationalFunction(p, q))
    return out
