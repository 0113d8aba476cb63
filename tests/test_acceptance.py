"""Acceptance criteria, one test per criterion with its runtime bound.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.
"""

import copy
import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ratdyn.cli import bundled_systems_dir, render_json, run_command
from ratdyn.dynsys import (DynamicalSystem, degree_sequence, diagonal_power,
                           iterate, pullback, symmetrize_iterate_invariant)
from ratdyn.exactalg import RationalFunction, rank
from ratdyn.invsearch import (DEFAULT_BUDGET, SearchBudget, adim_lower_bound,
                              polynomial_invariant_basis, square_gain_check)
from ratdyn.parsing import parse_expression
from ratdyn.systemfile import load_system
from ratdyn.translation import (ExponentMatrix, classify_system,
                                leading_blocks_independent,
                                monomial_invariant_lattice, monomial_system,
                                normalize_leading_sequence,
                                UnivariatePolynomial)
from ratdyn.verify import verify_invariant

from conftest import make_system, rf

SEED = 20260808


@contextmanager
def criterion(number, description, limit_seconds):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its runtime bound: "
        f"{elapsed:.2f}s >= {limit_seconds}s")
    print(f"[PASS] criterion {number:2d} ({elapsed:6.2f}s < {limit_seconds}s): "
          f"{description}")


def corpus(name):
    return os.path.join(bundled_systems_dir(), name)


def test_criterion_01_shift_regression():
    with criterion(1, "shift: rank 0, square acquires x1 - x2", 1.0):
        shift = make_system("x", "x + 1")
        report = adim_lower_bound(shift, DEFAULT_BUDGET)
        assert report.independence_rank == 0
        gain = square_gain_check(shift, DEFAULT_BUDGET)
        assert gain.new_invariant_found
        w = gain.witness
        # witness equals x1 - x2 up to Q-scaling and addition of constants:
        # w = a*(x1 - x2) + b exactly, with a nonzero rational
        target = rf("x1 - x2", "x1 x2")
        diff_const = None
        for a_num in range(-6, 7):
            for a_den in range(1, 4):
                if a_num == 0:
                    continue
                a = Fraction(a_num, a_den)
                rest = w - target * a
                if rest.is_constant:
                    diff_const = (a, rest.constant_value())
                    break
            if diff_const:
                break
        assert diff_const is not None, f"witness {w} is not affine in x1 - x2"


def test_criterion_02_scaling_systems():
    with criterion(2, "scaling: generator x/y; square of 2x gives x1/x2", 1.0):
        double = make_system("x y", "2*x", "2*y")
        report = adim_lower_bound(double, SearchBudget(1, 1, 2, 3))
        assert report.independence_rank == 1
        assert report.reduction_generators == (rf("x/y", "x y"),)
        for f in report.invariants:
            assert verify_invariant(double, f, mode="exact") == "invariant"
        gain = square_gain_check(make_system("x", "2*x"), SearchBudget(1, 1, 2, 3))
        assert gain.new_invariant_found
        assert gain.witness == rf("x1/x2", "x1 x2")
        square = diagonal_power(make_system("x", "2*x"), 2)
        assert verify_invariant(square, gain.witness, mode="exact") == "invariant"


def test_criterion_03_cross_ratio():
    with criterion(3, "cross ratio invariant under 5 seeded diagonal 4th powers", 5.0):
        rng = random.Random(SEED)
        produced = 0
        while produced < 5:
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            if a * d - b * c == 0:
                continue
            produced += 1
            mob = make_system("x", f"(({a})*x + ({b}))/(({c})*x + ({d}))")
            four = diagonal_power(mob, 4)
            cross = parse_expression(
                "((x1 - x3)*(x2 - x4))/((x2 - x3)*(x1 - x4))", four.variables)
            assert verify_invariant(four, cross, mode="exact") == "invariant"


def test_criterion_04_monomial_oracle_equivalence():
    with criterion(4, "20 seeded exponent matrices: linear search = lattice", 30.0):
        rng = random.Random(SEED)
        produced = 0
        while produced < 20:
            n = rng.choice([2, 3])
            rows = tuple(tuple(rng.randint(0, 2) for _ in range(n))
                         for _ in range(n))
            A = ExponentMatrix(rows)
            if rank(rows) < n:
                continue
            produced += 1
            sysm = monomial_system(tuple("xyz"[:n]), A)
            basis = polynomial_invariant_basis(sysm, 6)
            monomials = sorted(
                (next(iter(p.terms)) for p in basis if len(p.terms) == 1),
                key=lambda e: (sum(e), e))
            assert monomials == monomial_invariant_lattice(A, 6)


def test_criterion_05_iterate_symmetrization():
    with criterion(5, "symmetrized iterate invariants are map invariants", 5.0):
        neg = make_system("x", "-x")
        e1, e2 = symmetrize_iterate_invariant(neg, rf("x", "x"), 2)
        assert (e1, e2) == (rf("0", "x"), rf("-x^2", "x"))
        swap = make_system("x y", "y", "x")
        e1, e2 = symmetrize_iterate_invariant(swap, rf("x", "x y"), 2)
        assert (e1, e2) == (rf("x + y", "x y"), rf("x*y", "x y"))
        for sysm, outputs in ((neg, (e1,)), (swap, (e1, e2))):
            pass  # outputs already exact-checked inside the operation
        rng = random.Random(SEED)
        produced = 0
        while produced < 10:
            n = rng.choice([2, 3])
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(n)]
            A = ExponentMatrix(tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                for i in range(n)))
            order = 1
            power = A
            while not power.is_identity() and order <= 8:
                power = power.times(A)
                order += 1
            if order > 4:
                continue
            produced += 1
            variables = tuple("xyz"[:n])
            coords = tuple(
                (RationalFunction.variable(variables, variables[perm[i]])
                 if signs[i] == 1 else
                 -RationalFunction.variable(variables, variables[perm[i]]))
                for i in range(n))
            sysm = DynamicalSystem(variables, coords)
            assert iterate(sysm, order) == DynamicalSystem.identity(variables)
            f = rf(rng.choice(["x + 1", "x*y", "x^2 - y", "x - y",
                               "(x + 2)/(y^2 + 1)"]), variables)
            for g in symmetrize_iterate_invariant(sysm, f, order):
                assert pullback(sysm, g) == g


def test_criterion_06_star_normalization():
    with criterion(6, "25 seeded block normalizations: property + span", 10.0):
        rng = random.Random(SEED)
        aux = ("s1", "s2")

        def coeff():
            num = rng.choice(["0", "1", "2", "s1", "s2", "s1 + 1", "s1*s2",
                              "s2 - 2", "s1^2", "3*s1 - s2"])
            den = rng.choice(["1", "1", "1", "s1", "s2 + 1", "s1 + s2"])
            return rf(f"({num})/({den})", aux)

        done = 0
        while done < 25:
            count = rng.randint(1, 5)
            polys = []
            for _ in range(count):
                degree = rng.randint(0, 4)
                cs = [coeff() for _ in range(degree + 1)]
                if all(c.is_zero for c in cs):
                    cs[-1] = rf("1", aux)
                polys.append(UnivariatePolynomial(cs))
            try:
                result = normalize_leading_sequence(polys)
            except Exception:
                continue  # dependent draw; take another sample
            done += 1
            assert leading_blocks_independent(result.polys)
            k = len(polys)
            for i in range(k):
                for j in range(k):
                    prod = sum(result.forward[i][m] * result.backward[m][j]
                               for m in range(k))
                    assert prod == (1 if i == j else 0)
                acc = None
                for m in range(k):
                    c = result.forward[i][m]
                    if c:
                        term = polys[m].scale(c)
                        acc = term if acc is None else acc.combine(Fraction(1), term)
                assert acc == result.polys[i]


def test_criterion_07_degree_growth():
    with criterion(7, "degree sequences and growth classes", 10.0):
        for name in ("identity", "shift", "scale", "double", "swap", "shear"):
            sysm = load_system(corpus(f"{name}.system")).build()
            profile = degree_sequence(sysm, 5)
            assert profile.growth_class == "bounded", name
            assert set(profile.degrees) == {1}
        henon = make_system("x y", "y", "y^2 - x")
        profile = degree_sequence(henon, 4)
        assert profile.degrees == (2, 4, 8, 16)
        assert profile.growth_class == "exponential-suspected"
        mono = make_system("x y", "x^2*y", "x*y")
        profile = degree_sequence(mono, 4)
        assert profile.degrees == (3, 8, 21, 55)
        assert profile.growth_class == "exponential-suspected"


def test_criterion_08_soundness_sweep():
    # This gate must never be waived: every invariant emitted by any search
    # across the full bundled corpus passes exact verification.
    with criterion(8, "all emitted invariants verify exactly (full corpus)", 120.0):
        checked = 0
        for entry in sorted(os.listdir(bundled_systems_dir())):
            if not entry.endswith(".system"):
                continue
            sysm = load_system(corpus(entry)).build()
            report = adim_lower_bound(sysm, DEFAULT_BUDGET)
            for f in report.invariants:
                assert verify_invariant(sysm, f, mode="exact") == "invariant"
                checked += 1
            gain = square_gain_check(sysm, DEFAULT_BUDGET)
            if gain.witness is not None:
                square = diagonal_power(sysm, 2)
                assert verify_invariant(square, gain.witness,
                                        mode="exact") == "invariant"
                checked += 1
        assert checked >= 6  # the corpus is expected to produce invariants


def test_criterion_09_translational_square_gain():
    with criterion(9, "proven-translational rank-0 systems gain full square rank",
                   120.0):
        cases = [make_system("x", "x + 1"), make_system("x", "2*x")]
        rng = random.Random(SEED)
        for c in (2, 3, -2):
            cases.append(make_system("x y", f"({c})*x + y", f"({c})*y"))
        shear_scale = rng.choice([2, 3, 5])
        cases.append(make_system("x y", f"({shear_scale})*x + y",
                                 f"({shear_scale})*y"))
        for sysm in cases:
            ev = classify_system(sysm)
            assert ev.verdict == "translational-proven"
            gain = square_gain_check(sysm, DEFAULT_BUDGET)
            assert gain.base_rank == 0
            assert gain.new_invariant_found
            assert gain.square_rank >= sysm.dim


def test_criterion_11_default_budget_squares():
    # the slowest everyday queries: no rank-0 square of mobius, and the
    # square gains of double and shear; each took 0.1-0.5 s when added
    expected = {
        "mobius": (0, 0, 0, None),
        "double": (1, 2, 3, "(y1)/(y2)"),
        "shear": (0, 0, 2, "(y1)/(y2)"),
    }
    with criterion(11, "default-budget squares of mobius, double and shear", 20.0):
        for name, (base, pulled, square, witness) in expected.items():
            doc, code = run_command(["square", corpus(f"{name}.system")])
            res = doc["result"]
            assert (res["base_rank"], res["pullback_rank"], res["square_rank"],
                    res["witness"]) == (base, pulled, square, witness), name
            assert res["new_invariant_found"] is (witness is not None)
            assert code == (0 if witness else 1)


def test_criterion_10_determinism_and_roundtrip():
    with criterion(10, "byte-identical reports; expression round trips", 60.0):
        for argv in (["square", corpus("shift.system")],
                     ["invariants", corpus("double.system")],
                     ["degrees", "--n", "4", corpus("henon.system")],
                     ["verify", "--function", "x/y", corpus("double.system"),
                      "--mode", "randomized", "--trials", "16"],
                     ["selftest", "--budget", "2,2,2,3"]):
            payloads = []
            for _ in range(2):
                doc, _code = run_command(argv)
                doc = copy.deepcopy(doc)
                doc.pop("timing")
                payloads.append(render_json(doc).encode())
            assert payloads[0] == payloads[1], argv
        rng = random.Random(SEED)
        sources = ["x - y", "x/y", "(x^2 - y^2)/(x - y)", "1/2", "-x^3 + x",
                   "(2*x + 3)/(x + 1)"]
        while len(sources) < 110:
            terms = []
            for _ in range(rng.randint(1, 4)):
                c = rng.randint(-9, 9) or 1
                e1, e2 = rng.randint(0, 3), rng.randint(0, 3)
                terms.append(f"({c})*x^{e1}*y^{e2}")
            num = " + ".join(terms)
            den = rng.choice(["1", "x", "y", "x + y", "x*y - 1", "x^2 + 1"])
            sources.append(f"({num})/({den})")
        count = 0
        for src in sources:
            f = parse_expression(src, ("x", "y"))
            assert parse_expression(str(f), ("x", "y")) == f
            count += 1
        assert count >= 100
