"""Tests of the benchmark's seeded inputs and its output contract.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _shape(q):
    """A query without the values the seed draws: the rescaled function of
    ``verify`` and the relabelled matrix of the oracle."""
    args = list(q.args)
    if q.kind == "verify":
        args[args.index("--function") + 1] = "<f>"
    if q.kind == "oracle":
        args[0] = "<A>"
    return (q.kind, q.system, tuple(args), q.expect)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_inputs(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_seeds_give_the_same_query_list(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert [_shape(q) for q in a.queries] == [_shape(q) for q in b.queries]
    assert sorted(a.files) == sorted(b.files)


def test_seeds_change_the_inputs():
    texts = {tuple(sorted(workloads.build("dedup-heavy", s).files.items()))
             for s in range(6)}
    assert len(texts) > 1


def test_rescaling_carries_invariants_over():
    import ratdyn
    swap = workloads.CORPUS["swap"]
    scale = (3, -2)
    sf = ratdyn.loads_system(workloads.system_text(swap, scale))
    system = sf.build()
    f = ratdyn.parse_expression(
        workloads.rescale_expression("x + y", swap.variables, scale),
        system.variables)
    assert ratdyn.verify_invariant(system, f, "exact") == "invariant"
    unscaled = ratdyn.parse_expression("x + y", system.variables)
    assert ratdyn.verify_invariant(system, unscaled, "exact") == "not-invariant"


def test_setup_probe_loads_no_dependency_before_its_clock():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import probe_setup; "
            "print('numpy' in sys.modules, 'ratdyn' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True, cwd=ROOT)
    assert out.stdout.split() == ["False", "False"]


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(name, run._unit(name, unit)) for name, unit in run.PER_LAYER])


def _run(seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "short-queries", "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    *_, info, result = out.stdout.strip().splitlines()
    return json.loads(info[len("info "):]), json.loads(result)


def test_same_seed_gives_byte_identical_reports():
    (info_a, res_a), (info_b, res_b) = _run(5), _run(5)
    assert res_a["correct"] and res_b["correct"]
    assert info_a["digest"] == info_b["digest"]
    assert sorted(res_a["metrics"]) == sorted(name for name, _ in run.END_TO_END)
