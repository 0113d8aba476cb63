"""ratdyn benchmark: seeded closed-loop queries, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload short-queries --seed 1 --seconds 20 --trace 0

One client in one process and one thread sends the workload's fixed query
list, one query at a time: the next query starts only when the previous one
has returned and been checked.  CLI queries go through
``ratdyn.cli.run_command`` in-process and are rendered with ``render_json``;
the monomial oracle calls the library.  Passes over the list repeat for
about ``--seconds`` seconds (at least one pass).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics per traced pass.  Times are normalised to a reference
speed (see speed.py); set-up is timed in fresh interpreters
(probe_setup.py).  The line before it (``info ...``) holds sample counts,
the failed fraction, the report digest, the raw (measured) times and the
environment.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (benchmark modules, next to this file)
from probe_setup import setup  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_SAMPLES = 20         # set-ups per run, each in a fresh interpreter
PROBE_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.5     # at most one reference-loop sample per interval
ORACLE_VARIABLES = ("x", "y", "z")

# Times are speed-normalised (speed.py); the *_norm_* names say so, and the
# raw counterparts are in the info line and, traced, in bench.{wall,cpu}_s.
END_TO_END = (("wall_norm_s", "s"), ("cpu_norm_s", "s"),
              ("query_p50_norm_ms", "ms"), ("query_p90_norm_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

_TIMED = ("calls", "s", "self_s")
PER_LAYER = tuple(
    [(f"from.invsearch.{f}.{m}", None) for f in
     ("poly_lcm", "try_divide", "divide_exact", "rref_sparse") for m in _TIMED]
    + [(f"linalg.nullspace.{m}", None) for m in _TIMED + ("cells",)]
    + [(f"linalg.nullspace.{size}.{m}", None) for size in ("small", "large")
       for m in ("calls", "s", "cells")]
    + [(f"{f}.{m}", None) for f in
       ("linalg.rref", "linalg.jacobian_rank", "poly.poly_gcd",
        "ratfunc.substitute", "dynsys.compose") for m in _TIMED]
    + [(f"{f}.{m}", None) for f in
       ("poly.mul", "poly.add", "poly.construct", "ratfunc.construct")
       for m in ("calls", "self_s")]
    + [("dynsys.validate_dominant.calls", None),
       ("dynsys.validate_dominant.per_query", "1/query")]
    + [(f"{f}.{m}", None) for f in
       ("cli.run_command", "cli.render_json", "systemfile.load_system",
        "parsing.parse_expression", "translation.classify_system",
        "verify.verify_invariant_report", "invsearch.polynomial_invariant_basis",
        "invsearch.rational_invariant_search", "invsearch.adim_lower_bound",
        "invsearch.square_gain_check") for m in ("calls", "s")]
    + [(f"layer.{layer}.self_s", None) for layer in LAYERS.values()]
    + [("bench.wall_s", "s"), ("bench.cpu_s", "s"),
       ("bench.traced_wall_s", "s"), ("bench.untraced_wall_s", "s"),
       ("bench.unattributed_s", "s"), ("bench.trace_overhead", "ratio"),
       ("bench.spans", "count")])


def _unit(name: str, unit):
    if unit:
        return unit
    last = name.rsplit(".", 1)[1]
    return {"calls": "count", "cells": "cells"}.get(last, "s")


# -- set-up ---------------------------------------------------------------------


class SetupTimer:
    """Set-up times, each from a fresh interpreter (see probe_setup.py).

    The samples are spread over the run, between passes: on a shared host
    a slow spell lasts seconds, and samples taken in one burst share it.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, os.path.join(HERE, "probe_setup.py"),
                     workload, str(seed),
                     os.path.join(OUT, f"probe-{os.getpid()}")]
        self.seconds = []    # measured, one per set-up
        self.spent = 0.0     # wall time taken by sampling

    def sample(self):
        started = time.perf_counter()
        done = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
        self.seconds.append(float(done.stdout.strip().splitlines()[-1]))
        self.spent += time.perf_counter() - started

    def catch_up(self, share: float):
        """Sample until ``share`` of SETUP_SAMPLES are taken."""
        while len(self.seconds) < SETUP_SAMPLES * min(share, 1.0):
            self.sample()


# -- queries and the correctness gate -------------------------------------------


def run_query(ratdyn, q):
    """Answer one query; returns (result, exit code or None, canonical text)."""
    if q.kind == "oracle":
        rows, degree = q.args
        system = ratdyn.monomial_system(ORACLE_VARIABLES,
                                        ratdyn.ExponentMatrix(rows))
        basis = ratdyn.polynomial_invariant_basis(system, degree)
        return basis, None, "\n".join(str(p) for p in basis)
    doc, code = ratdyn.cli.run_command([q.kind, *q.args, f"{q.system}.system"])
    return doc, code, ratdyn.cli.render_json(doc)


class Gate:
    """Checks every answer exactly; returns a list of failure messages."""

    def __init__(self, ratdyn, systems):
        self.rd = ratdyn
        self.systems = systems
        self._squares = {}

    def _exact(self, system, text) -> bool:
        f = self.rd.parse_expression(text, system.variables)
        return self.rd.verify_invariant(system, f, "exact") == "invariant"

    def check(self, q, result, code):
        if q.kind == "oracle":
            return self._oracle(q, result)
        doc = result
        fails = []
        if "error" in doc:
            return [f"error {doc['error']}"]
        res = doc.get("result", {})
        if res.get("kind") != q.kind:
            return [f"result kind {res.get('kind')!r}"]
        system = self.systems[q.system]
        expect = dict(q.expect)
        want_code = 0
        if q.kind == "check":
            if not (res["dominant"] and res["verdict"] == "dominant"
                    and res["dimension"] == expect["dim"]):
                fails.append("check: not dominant or wrong dimension")
        elif q.kind == "iterate":
            if len(res["map"]) != expect["dim"] or res["degree"] != expect["degree"]:
                fails.append(f"iterate: degree {res['degree']}")
        elif q.kind == "degrees":
            if tuple(res["degrees"]) != expect["degrees"]:
                fails.append(f"degrees: {res['degrees']}")
            if "growth" in expect and res["growth_class"] != expect["growth"]:
                fails.append(f"degrees: growth {res['growth_class']}")
        elif q.kind == "invariants":
            rank = res["independence_rank"]
            if rank != expect["rank"] or rank > expect["dim"] or not res["verified"]:
                fails.append(f"invariants: rank {rank}")
            if len(res["invariants"]) < rank:
                fails.append("invariants: fewer invariants than the rank")
            for text in res["invariants"]:
                if not self._exact(system, text):
                    fails.append(f"invariants: {text} is not invariant")
        elif q.kind == "square":
            base, sq, pull, new = expect["ranks"]
            n = expect["dim"]
            got = (res["base_rank"], res["square_rank"], res["pullback_rank"],
                   res["new_invariant_found"])
            if got != (base, sq, pull, new):
                fails.append(f"square: ranks {got}")
            if got[0] > n or got[1] > 2 * n or got[2] > got[1]:
                fails.append(f"square: rank above dimension {got}")
            want_code = 0 if new else 1
            if new:
                if q.system not in self._squares:
                    self._squares[q.system] = self.rd.diagonal_power(system, 2)
                if res["witness"] is None or not self._exact(
                        self._squares[q.system], res["witness"]):
                    fails.append(f"square: witness {res['witness']}")
            elif res["witness"] is not None:
                fails.append("square: witness without a gain")
        elif q.kind == "classify":
            if res["verdict"] != expect["verdict"]:
                fails.append(f"classify: verdict {res['verdict']}")
            if "class" in expect and res["recognized_class"] != expect["class"]:
                fails.append(f"classify: class {res['recognized_class']}")
            if tuple(res["profile"]["degrees"]) != expect["degrees"]:
                fails.append("classify: degree profile")
        elif q.kind == "verify":
            if expect["mode"] == "exact":
                ok = res["verdict"] == "invariant"
            else:  # randomized evaluation never affirms a true invariant
                ok = (res["verdict"] == "undefined-at-samples"
                      and res["refutation_only"])
            if not ok:
                fails.append(f"verify: {res['verdict']}")
        if code != want_code:
            fails.append(f"exit code {code}, expected {want_code}")
        return fails

    def _oracle(self, q, basis):
        rows, degree = q.args
        A = self.rd.ExponentMatrix(rows)
        lattice = set(self.rd.monomial_invariant_lattice(A, degree))
        found = set()
        for p in basis:
            if len(p.terms) != 1 or list(p.terms.values()) != [1]:
                return [f"oracle: {p} is not a monic monomial"]
            found.add(next(iter(p.terms)))
        if found != lattice or len(basis) != len(lattice):
            return [f"oracle: basis {sorted(found)} != lattice {sorted(lattice)}"]
        system = self.rd.monomial_system(ORACLE_VARIABLES, A)
        for p in basis:
            if self.rd.verify_invariant(system, self.rd.RationalFunction(p),
                                        "exact") != "invariant":
                return [f"oracle: {p} is not invariant"]
        return []


def _digest(text: str, code) -> str:
    """Report text without its ``timing`` field, plus the exit code."""
    if code is not None:
        doc = json.loads(text)
        doc.pop("timing", None)
        text = json.dumps(doc, sort_keys=True) + f"\nexit {code}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    """Closed-loop passes over one workload's query list."""

    def __init__(self, ratdyn, wl, systems, probe):
        self.rd = ratdyn
        self.wl = wl
        self.gate = Gate(ratdyn, systems)
        self.probe = probe
        self.first_digests = None   # per query, from the first pass
        self.attempted = 0
        self.failures = []
        self.passes = []            # per pass: (start, end, cpu) per query

    def one_pass(self, tracer=None):
        """Run the list once, checking every answer."""
        timings = []
        digests = []
        for i, q in enumerate(self.wl.queries):
            self.probe.maybe_sample()
            if tracer is not None:
                tracer.query_id = i
                tracer.active = True
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                result, code, text = run_query(self.rd, q)
                error = None
            except Exception as exc:  # a traceback is a failed query
                error = f"{type(exc).__name__}: {exc}"
            c1 = time.process_time()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            timings.append((t0, t1, c1 - c0))
            self.attempted += 1
            if error is None:
                try:
                    fails = self.gate.check(q, result, code)
                except Exception as exc:  # a malformed or unparseable answer
                    fails = [f"check raised {type(exc).__name__}: {exc}"]
                digests.append(_digest(text, code))
            else:
                fails = [error]
                digests.append(None)
            if (self.first_digests is not None
                    and digests[-1] != self.first_digests[i]):
                fails.append("report differs from the first pass")
            if fails:
                self.failures.append({"query": i, "kind": q.kind,
                                      "system": q.system, "why": fails})
        if self.first_digests is None:
            self.first_digests = digests
        self.passes.append(timings)

    def normalised(self, index):
        """(wall, cpu) per query of pass ``index``, speed-normalised."""
        out = []
        for t0, t1, cpu in self.passes[index]:
            f = self.probe.factor(t0, t1)
            out.append(((t1 - t0) * f, cpu * f))
        return out

    def digest(self) -> str:
        joined = "\n".join(d or "failed" for d in self.first_digests)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# -- reporting ------------------------------------------------------------------


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ratdyn", "cli.py")):
        print(f"ratdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    # ratdyn receives only the generated inputs, never the caller's seed
    os.environ.pop("RATDYN_SEED", None)

    load_start = os.getloadavg()[0]
    probe = SpeedProbe(PROBE_INTERVAL_S)
    directory = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    cwd = os.getcwd()
    try:
        _, ratdyn, wl, systems = setup(args.workload, args.seed, directory)
        # queries name their system file relative to this directory, so the
        # reports (which echo the command) do not depend on the checkout path
        os.chdir(directory)
        runner = Runner(ratdyn, wl, systems, probe)
        if args.trace:
            metrics, extra = _traced(runner, args)
        else:
            # set-up is timed in fresh interpreters only: this process has
            # already imported the benchmark's own modules
            setups = SetupTimer(args.workload, args.seed)
            metrics, extra = _untraced(runner, args, setups)
            # measured, not normalised: import and file work does not
            # follow the reference loop.  Noise on a host only adds time,
            # so the fastest sample is the steadiest figure.
            metrics["setup_s"] = {"value": min(setups.seconds), "unit": "s"}
            extra["setup_samples_s"] = setups.seconds
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "scales": wl.scales,
            "queries_per_pass": len(wl.queries), "attempted": runner.attempted,
            "failed": len(runner.failures),
            "failed_frac": len(runner.failures) / runner.attempted,
            "digest": runner.digest(), **extra,
            "reference_loop_s": statistics.median(probe.loop_s),
            "env": {**environment(), "load1_start": load_start,
                    "load1_end": os.getloadavg()[0]},
            "failures": runner.failures[:10]}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": {name: metrics[name] for name, _ in
                                  (PER_LAYER if args.trace else END_TO_END)}}))
    return 0


def _run_passes(runner, seconds, traced_too=None, setups=None):
    """Passes until the pass boundary nearest to ``seconds`` of pass time;
    with a tracer, each untraced pass is followed by a traced one, and with
    a SetupTimer, set-ups are sampled between passes.  Returns the number of
    spans the first traced pass recorded."""
    started = time.perf_counter()
    first_spans = None
    while True:
        runner.one_pass()
        if traced_too is not None:
            traced_too.install()
            try:
                runner.one_pass(traced_too)
            finally:
                traced_too.uninstall()
            if first_spans is None:
                first_spans = len(traced_too.start)
        last = runner.passes[-2:] if traced_too is not None else runner.passes[-1:]
        cycle = sum(t1 - t0 for p in last for t0, t1, _ in p)
        elapsed = time.perf_counter() - started
        if setups is not None:
            elapsed -= setups.spent
            setups.catch_up(elapsed / seconds)
        if elapsed + cycle / 2 >= seconds:
            break
    if setups is not None:
        setups.catch_up(1.0)
    runner.probe.sample()
    return first_spans


def _untraced(runner, args, setups):
    _run_passes(runner, args.seconds, setups=setups)
    norm = [runner.normalised(i) for i in range(len(runner.passes))]
    per_query = list(zip(*norm))     # per query: (wall, cpu) per pass
    # the list's time is the sum of each query's median over the passes,
    # which a burst of load moves less than a pass total does
    lat_ms = [w * 1000.0 for p in norm for w, _ in p]
    values = {
        "wall_norm_s": sum(statistics.median(w for w, _ in q) for q in per_query),
        "cpu_norm_s": sum(statistics.median(c for _, c in q) for q in per_query),
        "query_p50_norm_ms": statistics.median(lat_ms),
        "query_p90_norm_ms": _p90(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_ms = [(t1 - t0) * 1000.0 for p in runner.passes for t0, t1, _ in p]
    raw = {**_raw_sums(runner.passes), "query_p50_ms": statistics.median(raw_ms),
           "query_p90_ms": _p90(raw_ms)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END if name in values}
    return metrics, {"passes": len(runner.passes), "latency_samples": len(lat_ms),
                     "raw": raw,
                     "query_wall_norm_s": [statistics.median(w for w, _ in q)
                                           for q in per_query]}


def _raw_sums(passes):
    """Measured (not normalised) wall and CPU seconds of the query list:
    the sum over queries of each one's median over ``passes``."""
    per_query = list(zip(*passes))
    return {"wall_s": sum(statistics.median(t1 - t0 for t0, t1, _ in q)
                          for q in per_query),
            "cpu_s": sum(statistics.median(c for _, _, c in q)
                         for q in per_query)}


def _traced(runner, args):
    """Per-layer figures per traced pass, speed-normalised like the
    end-to-end ones."""
    tracer = Tracer()
    first_spans = _run_passes(runner, args.seconds, tracer)
    traced = [sum(w for w, _ in runner.normalised(i))
              for i in range(1, len(runner.passes), 2)]
    # built like wall_norm_s, so the cold first (untraced) pass counts
    # only as one sample per query
    untraced_wall, traced_wall = (
        sum(statistics.median(w for w, _ in q) for q in
            zip(*(runner.normalised(i) for i in range(first, len(runner.passes), 2))))
        for first in (0, 1))
    raw_traced = sum(t1 - t0 for p in runner.passes[1::2] for t0, t1, _ in p)
    n = len(traced)
    scale = sum(traced) / raw_traced / n      # per traced pass, normalised
    totals = tracer.totals()
    sizes = tracer.nullspace_sizes()
    nq = len(runner.wl.queries)
    attributed = sum(totals.get(f"layer.{layer}", [0, 0.0, 0.0])[2]
                     for layer in LAYERS.values())
    values = {
        "dynsys.validate_dominant.per_query":
            totals.get("dynsys.validate_dominant", [0])[0] / (n * nq),
        **{f"bench.{k}": v for k, v in _raw_sums(runner.passes[0::2]).items()},
        "bench.traced_wall_s": sum(traced) / n,
        "bench.untraced_wall_s": untraced_wall,
        "bench.unattributed_s": sum(traced) / n - attributed * scale,
        "bench.trace_overhead": traced_wall / untraced_wall,
        "bench.spans": len(tracer.start) / n,
    }
    for size in ("small", "large"):
        calls, seconds, cells = sizes[size]
        values[f"linalg.nullspace.{size}.calls"] = calls / n
        values[f"linalg.nullspace.{size}.s"] = seconds * scale
        values[f"linalg.nullspace.{size}.cells"] = cells / n
    values["linalg.nullspace.cells"] = (sizes["small"][2] + sizes["large"][2]) / n
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            key, m = name.rsplit(".", 1)
            v = totals.get(key, [0, 0.0, 0.0])[_TIMED.index(m)]
            values[name] = v / n if m == "calls" else v * scale
        metrics[name] = {"value": values[name], "unit": _unit(name, unit)}
    # the spans of the first traced pass, for reading one pass in full
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz")
    tracer.save(path, first_spans)
    return metrics, {"traced_passes": n, "trace_file": os.path.relpath(path, ROOT)}


if __name__ == "__main__":
    sys.exit(main())
