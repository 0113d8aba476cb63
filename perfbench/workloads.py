"""Seeded inputs for the ratdyn benchmark.

A workload is a fixed list of queries.  The seed never changes which
queries run, only their inputs:

* every system is conjugated by the diagonal rescaling x_i -> c_i x_i, with
  small positive integers c_i drawn from the seed (see MAGNITUDES).  The
  rescaled map is psi_i(x) = phi_i(c x) / c_i, and f is an invariant of phi
  exactly when f(c x) is an invariant of psi.  The rescaling maps every budgeted search
  space onto itself, so dominance, degree sequences, growth classes, the
  affine and Moebius classes, the searched ranks and square gains do not
  change;
* the monomial oracle's exponent matrix is one of ORACLE_MATRICES,
  conjugated by a permutation matrix, both drawn from the seed; the
  permutation only relabels the variables.

So two seeds give the same subcommands, systems, budgets and expected
answers (``Query.expect``), and the expectations below are facts about the
unscaled systems that hold for every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("dedup-heavy", "linear-solve", "deep-iterates", "short-queries")

# c is a seeded arrangement of MAGNITUDES[:n]: the coefficient sizes, and
# so the cost, barely depend on the seed.  Signs stay positive because a
# sign flip changes which terms cancel, and with it the cost (shear square:
# about 15%).
MAGNITUDES = (2, 3, 5)


@dataclass(frozen=True)
class System:
    name: str
    variables: Tuple[str, ...]
    map: Tuple[str, ...]
    degrees: Tuple[int, ...]            # degree of the k-th iterate, k = 1, 2, ...
    expect: Dict[str, str]              # checked `expect` lines of its file


# A copy of the bundled corpus (src/ratdyn/systems), kept here so that a
# change to the corpus does not silently change the benchmark's inputs, plus
# the two systems the heavy workloads add.
_ONES = (1,) * 12
_AFFINE = {"growth": "bounded", "class": "affine",
           "verdict": "translational-proven"}
CORPUS: Dict[str, System] = {s.name: s for s in (
    System("double", ("x", "y"), ("2*x", "2*y"), _ONES,
           {**_AFFINE, "adim_rank": "1", "invariant": "x/y"}),
    System("henon", ("x", "y"), ("y", "y^2 - x"),
           tuple(2 ** k for k in range(1, 13)),
           {"growth": "exponential-suspected", "class": "unrecognized",
            "verdict": "not-translational-evidence", "adim_rank": "0"}),
    System("identity", ("x",), ("x",), _ONES, {**_AFFINE, "adim_rank": "1"}),
    System("mobius", ("x",), ("(2*x + 3)/(x + 1)",), _ONES,
           {"growth": "bounded", "class": "mobius-product",
            "verdict": "translational-proven", "adim_rank": "0"}),
    System("monomial", ("x", "y"), ("x^2*y", "x*y"),
           (3, 8, 21, 55, 144, 377, 987, 2584, 6765, 17711, 46368, 121393),
           {"growth": "exponential-suspected", "class": "monomial",
            "verdict": "not-translational-evidence", "adim_rank": "0"}),
    System("scale", ("x",), ("2*x",), _ONES, {**_AFFINE, "adim_rank": "0"}),
    System("shear", ("x", "y"), ("2*x + y", "2*y"), _ONES,
           {**_AFFINE, "adim_rank": "0"}),
    System("shift", ("x",), ("x + 1",), _ONES, {**_AFFINE, "adim_rank": "0"}),
    System("swap", ("x", "y"), ("y", "x"), _ONES,
           {**_AFFINE, "adim_rank": "2", "invariant": "x + y"}),
)}
EXTRA: Dict[str, System] = {s.name: s for s in (
    System("cycle3", ("x", "y", "z"), ("y", "z", "x"), _ONES, {}),
    # QRT map: linear degree growth 2, 4, 6, ... with large gcds to cancel
    System("qrt", ("x", "y"), ("y", "(y^2 + 1)/x"),
           tuple(range(2, 26, 2)), {}),
)}

# Classes that a diagonal rescaling keeps; a rescaled monomial map gains
# coefficients other than 1 and is no longer recognized as monomial.
_RESCALING_KEEPS_CLASS = ("affine", "mobius-product", "unrecognized")

# Exponent matrices for the degree-10 monomial oracle, each one large
# modular nullspace solve; the seed picks one and relabels its variables.
# None has a finite-order block that acts on polynomials, so the polynomial
# invariants of degree <= 10 are exactly the invariant monomials.
ORACLE_MATRICES = (
    ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
    ((2, 1, 0), (1, 1, 0), (0, 0, -1)),
    ((2, 1, 1), (1, 1, 0), (0, 0, 1)),
    ((1, -1, 0), (1, 0, 0), (0, 0, 1)),
)
ORACLE_DEGREE = 10

# Corpus systems whose default-budget square is quick: base, square and
# pullback rank, and whether the square gains an invariant.
_QUICK_SQUARES = {
    "henon": (0, 0, 0, False), "identity": (1, 2, 2, False),
    "monomial": (0, 0, 0, False), "scale": (0, 1, 0, True),
    "shift": (0, 1, 0, True),
}


@dataclass(frozen=True)
class Query:
    """One closed-loop request.

    ``kind`` is a ratdyn subcommand, run in-process through
    ``ratdyn.cli.run_command``, or ``oracle`` for the library-only monomial
    oracle.  ``args`` are the subcommand's options (the system file path is
    appended by the runner); for ``oracle`` they are the matrix rows.
    """

    kind: str
    system: Optional[str]
    args: Tuple
    expect: Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    files: Dict[str, str]   # system name -> text of its seeded system file
    scales: Dict[str, Tuple[int, ...]]
    queries: Tuple[Query, ...]


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def rescale_expression(expr: str, variables, scale) -> str:
    """expr with each variable v_j replaced by c_j * v_j."""
    subst = {v: f"({c}*{v})" for v, c in zip(variables, scale)}
    return _IDENT.sub(lambda m: subst.get(m.group(0), m.group(0)), expr)


def system_text(system: System, scale) -> str:
    """System file for the conjugate of ``system`` by x -> c x."""
    lines = [f"name {system.name};", f"var {', '.join(system.variables)};"]
    for v, expr, c in zip(system.variables, system.map, scale):
        body = rescale_expression(expr, system.variables, scale)
        lines.append(f"{v} -> ({body})/({c});")
    return "\n".join(lines) + "\n"


def _check(s: System):
    return Query("check", s.name, (), (("dim", len(s.variables)),))


def _iterate(s: System, m: int):
    return Query("iterate", s.name, ("--m", str(m)),
                 (("dim", len(s.variables)), ("degree", s.degrees[m - 1])))


def _degrees(s: System, n: int, growth: Optional[str] = None):
    expect = [("degrees", s.degrees[:n])]
    if growth is not None:
        expect.append(("growth", growth))
    return Query("degrees", s.name, ("--n", str(n)), tuple(expect))


def _invariants(s: System, rank: int, budget: Optional[str] = None):
    args = ("--jobs", "1") if budget is None else ("--budget", budget, "--jobs", "1")
    return Query("invariants", s.name, args,
                 (("dim", len(s.variables)), ("rank", rank)))


def _square(s: System, ranks, budget: Optional[str] = None):
    """``ranks``: base, square and pullback rank, and whether a new
    invariant is found, at this budget."""
    args = ("--jobs", "1") if budget is None else ("--budget", budget, "--jobs", "1")
    return Query("square", s.name, args,
                 (("dim", len(s.variables)), ("ranks", ranks)))


def _classify(s: System):
    e = s.expect
    expect = [("verdict", e["verdict"]), ("degrees", s.degrees[:6])]
    if e["class"] in _RESCALING_KEEPS_CLASS:
        expect.append(("class", e["class"]))
    return Query("classify", s.name, (), tuple(expect))


def _verify(s: System, mode: str, function: str):
    return Query("verify", s.name, ("--function", function, "--mode", mode),
                 (("mode", mode),))


def _oracle(rows):
    return Query("oracle", None, (rows, ORACLE_DEGREE), ())


def _permute(rows, perm):
    """P A P^T for the permutation matrix of ``perm``: a relabelling."""
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(len(rows)))
                 for i in range(len(rows)))


def build(workload: str, seed: int) -> Workload:
    """The query list of ``workload`` with inputs drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    systems = {**CORPUS, **EXTRA}
    scales = {name: tuple(rng.sample(MAGNITUDES[:len(s.variables)], len(s.variables)))
              for name, s in sorted(systems.items())}

    def inv(name):
        # the expected invariant f of the unscaled system becomes f(c x)
        s = systems[name]
        return rescale_expression(s.expect["invariant"], s.variables,
                                  scales[name])

    c = systems
    queries: List[Query] = []
    # Budgets and windows are reduced so that no query runs for more than
    # about a second: every query then repeats several times in a run and
    # its median latency is robust to bursts of load on a shared host.  The
    # heavy workloads list an odd number of queries, in rising cost with
    # clear gaps, so the latency median and p90 fall inside one query's
    # samples (the middle one's, the slowest one's), not in a gap between
    # two queries, and that middle query is one that the speed
    # normalisation tracks well (not the numpy-bound oracle).
    if workload == "dedup-heavy":
        queries += [_square(c["swap"], (2, 4, 4, False), "2,1,1,3"),
                    _invariants(c["cycle3"], 3, "3,2,1,3"),
                    _square(c["double"], (1, 3, 2, True), "2,2,2,3")]
    elif workload == "linear-solve":
        rows = rng.choice(ORACLE_MATRICES)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        queries += [_square(c["shear"], (0, 2, 0, True), "2,2,2,3"),
                    _oracle(_permute(rows, perm)),
                    _square(c["mobius"], (0, 0, 0, False), "3,3,1,3"),
                    _square(c["shear"], (0, 2, 0, True)),
                    _square(c["mobius"], (0, 0, 0, False), "2,3,2,3")]
    elif workload == "deep-iterates":
        queries += [_degrees(c["qrt"], 8), _degrees(c["henon"], 7),
                    _degrees(c["qrt"], 10)]
    else:
        for name in sorted(CORPUS):
            s = c[name]
            e = s.expect
            queries += [_check(s), _iterate(s, 4), _degrees(s, 6, e["growth"]),
                        _invariants(s, int(e["adim_rank"])), _classify(s)]
            if "invariant" in e:
                queries += [_verify(s, "exact", inv(name)),
                            _verify(s, "randomized", inv(name))]
            if name in _QUICK_SQUARES:
                queries.append(_square(s, _QUICK_SQUARES[name]))
    used = sorted({q.system for q in queries if q.system is not None})
    return Workload(workload,
                    {n: system_text(systems[n], scales[n]) for n in used},
                    {n: scales[n] for n in used}, tuple(queries))
