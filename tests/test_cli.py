"""System files, CLI subcommands, exit codes, determinism, verification."""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from ratdyn import cli
from ratdyn.cli import bundled_systems_dir, main, render_json, run_command
from ratdyn.dynsys import MAX_ITERATIONS, degree_sequence, diagonal_power, iterate
from ratdyn.errors import PreconditionError, SystemFileError
from ratdyn.invsearch import SearchBudget, adim_lower_bound, rational_invariant_search
from ratdyn.systemfile import SystemFile, dumps_system, load_system, loads_system
from ratdyn.verify import MAX_TRIALS, verify_invariant, verify_invariant_report

from conftest import forget_pool_extensions, make_system, rf


def corpus(name):
    return os.path.join(bundled_systems_dir(), name)


# -- system files ------------------------------------------------------------------


def test_load_text_format(systems_dir):
    sf = load_system(corpus("shift.system"))
    assert sf.name == "shift"
    assert sf.variables == ("x",)
    assert sf.map == ("x + 1",)
    assert sf.expected["adim_rank"] == "0"
    sysm = sf.build()
    assert sysm.coords[0] == rf("x + 1", ("x",))


def test_text_json_equivalence(tmp_path):
    text = dumps_system(load_system(corpus("double.system")))
    sf_text = loads_system(text)
    as_json = json.dumps({
        "name": sf_text.name,
        "variables": list(sf_text.variables),
        "map": {v: m for v, m in zip(sf_text.variables, sf_text.map)},
        "description": sf_text.description,
        "expected": sf_text.expected,
    })
    sf_json = loads_system(as_json)
    assert sf_json.build() == sf_text.build()
    assert sf_json.name == sf_text.name
    as_list = json.dumps({"name": "double", "variables": ["x", "y"],
                          "map": ["2*x", "2*y"]})
    assert loads_system(as_list).build() == sf_text.build()


def test_roundtrip_dumps_loads():
    for entry in sorted(os.listdir(bundled_systems_dir())):
        if not entry.endswith(".system"):
            continue
        sf = load_system(corpus(entry))
        again = loads_system(dumps_system(sf))
        assert again.build() == sf.build()
        assert again.expected == sf.expected


def test_malformed_files_rejected():
    with pytest.raises(SystemFileError):
        loads_system("var x; x -> x + 1; x -> x;")      # double assignment
    with pytest.raises(SystemFileError):
        loads_system("x -> x + 1;")                     # no declaration
    with pytest.raises(SystemFileError):
        loads_system("var x, y; x -> x;")               # missing assignment
    with pytest.raises(SystemFileError):
        loads_system("var 2x; 2x -> 1;")                # bad identifier
    with pytest.raises(SystemFileError):
        loads_system('{"variables": "x"}')              # bad JSON shape


def test_repeated_expect_key_rejected(tmp_path):
    # a second line of one key would silently drop the first check
    text = "var x, y; x -> y; y -> x; expect invariant x + y; expect invariant x*y;"
    with pytest.raises(SystemFileError, match="'invariant' given twice"):
        loads_system(text)
    doc, code = run_command(["check", _system_file(tmp_path, text)])
    assert code == 2 and "result" not in doc
    assert doc["error"]["code"] == "SystemFileError"
    assert "'invariant'" in doc["error"]["message"]


@pytest.mark.parametrize("source, key", [
    ('{"variables": ["x"], "map": ["x"], '
     '"expected": {"dominant": "true", "dominant": "false"}}', "'dominant'"),
    ('{"variables": ["x"], "map": ["x + 1"], "map": ["x"]}', "'map'"),
    ('{"variables": ["x"], "map": {"x": "x + 1", "x": "x"}}', "'x'"),
], ids=["expected-key", "top-level-key", "map-object-key"])
def test_cli_repeated_json_key_is_a_file_error(tmp_path, capsys, source, key):
    # json.loads keeps the last of two equal keys, which would drop a value
    with pytest.raises(SystemFileError, match=f"{key} given twice"):
        loads_system(source)
    path = tmp_path / "input.json"
    path.write_text(source)
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "SystemFileError"
    assert key in doc["error"]["message"] and "result" not in doc


def test_cli_json_map_to_an_undeclared_variable_is_a_file_error(tmp_path, capsys):
    # as in the text format, where "y -> y;" without "var y" is rejected
    source = '{"variables": ["x"], "map": {"x": "x", "y": "y"}}'
    with pytest.raises(SystemFileError, match="undeclared variable"):
        loads_system(source)
    with pytest.raises(SystemFileError, match="undeclared variable"):
        loads_system("var x; x -> x; y -> y;")
    path = tmp_path / "input.json"
    path.write_text(source)
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "SystemFileError"
    assert "'y'" in doc["error"]["message"] and "result" not in doc


# -- verification oracle ---------------------------------------------------------


def test_verify_exact_modes():
    shift2 = make_system("x y", "x + 1", "y + 1")
    assert verify_invariant(shift2, rf("x - y", "x y")) == "invariant"
    double = make_system("x", "2*x")
    assert verify_invariant(double, rf("x", "x")) == "not-invariant"


def test_verify_randomized_refutes_but_never_affirms():
    double = make_system("x", "2*x")
    rep = verify_invariant_report(double, rf("x", "x"), mode="randomized",
                                  trials=8, seed=5)
    assert rep.verdict == "not-invariant"
    assert rep.refutation_only
    shift = make_system("x", "x + 1")
    rep = verify_invariant_report(shift, rf("2", "x"), mode="randomized",
                                  trials=8, seed=5)
    assert rep.verdict == "undefined-at-samples"
    assert rep.valid_samples > 0


def test_cli_randomized_verify_caps_the_trials():
    # 10^9 trials would sample for a day; the cap rejects them before the
    # first one, as a usage error with a JSON report
    started = time.monotonic()
    doc, code = run_command(["verify", "--function", "x/y", "--mode", "randomized",
                             "--trials", str(10**9), corpus("double.system")])
    assert time.monotonic() - started < 5
    assert code == 2 and "result" not in doc
    assert doc["error"]["code"] == "PreconditionError"
    assert str(MAX_TRIALS) in doc["error"]["message"]
    double = make_system("x", "2*x")
    with pytest.raises(PreconditionError):
        verify_invariant_report(double, rf("x", "x"), mode="randomized",
                                trials=MAX_TRIALS + 1)


def test_verify_cross_ratio_of_mobius_fourth_power():
    import random
    from ratdyn.dynsys import diagonal_power
    from ratdyn.parsing import parse_expression
    rng = random.Random(20260808)
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


# -- CLI ---------------------------------------------------------------------------


def test_cli_exit_codes_on_corpus():
    assert run_command(["check", corpus("shift.system")])[1] == 0
    assert run_command(["square", corpus("shift.system")])[1] == 0
    assert run_command(["square", corpus("henon.system")])[1] == 1
    assert run_command(["verify", "--function", "x/y",
                        corpus("double.system")])[1] == 0
    assert run_command(["verify", "--function", "x + y",
                        corpus("double.system")])[1] == 1
    assert run_command(["verify", "--function", "x +", corpus("double.system")])[1] == 2
    assert run_command(["check", corpus("missing.system")])[1] == 2


def test_cli_not_dominant_exit():
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".system", delete=False) as fh:
        fh.write("var x, y;\nx -> x;\ny -> x;\n")
        path = fh.name
    doc, code = run_command(["check", path])
    assert code == 1
    assert doc["result"]["dominant"] is False
    os.unlink(path)


def _system_file(tmp_path, body):
    path = tmp_path / "input.system"
    path.write_text(body)
    return str(path)


def test_cli_not_dominant_is_a_usage_error(tmp_path):
    path = _system_file(tmp_path, "var x, y;\nx -> x;\ny -> x;\n")
    for command in ("invariants", "square", "classify"):
        doc, code = run_command([command, path])
        assert code == 2
        assert doc["error"]["code"] == "NotDominantError"


_SHIFT_JSON = {"name": "shift", "variables": ["x"], "map": ["x + 1"]}


@pytest.mark.parametrize("field, value", [
    ("variables", [1]), ("variables", ["x", None]), ("variables", []),
    ("map", [1]), ("map", {"x": 2}),
    ("expected", "abc"), ("expected", [1]), ("expected", {"dominant": True}),
    ("name", ["a"]), ("name", None), ("description", 3),
], ids=["variable-int", "variable-null", "variables-empty", "map-list-int",
        "map-object-int", "expected-string", "expected-list", "expected-bool-value",
        "name-list", "name-null", "description-int"])
def test_cli_ill_typed_json_field_is_a_file_error(tmp_path, capsys, field, value):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**_SHIFT_JSON, field: value}))
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "SystemFileError"
    assert repr(field) in doc["error"]["message"] and "result" not in doc


def test_cli_json_with_every_optional_field_loads(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**_SHIFT_JSON, "map": {"x": "x + 1"},
                                "description": None, "expected": {"dominant": "true"}}))
    doc, code = run_command(["check", str(path)])
    assert code == 0 and doc["system"]["name"] == "shift"


def test_cli_deep_nesting_is_a_parse_error(tmp_path):
    def check(body):
        return run_command(["check", _system_file(tmp_path, f"var x;\nx -> {body};\n")])

    for body in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "(" * 3000 + "x"):
        doc, code = check(body)
        assert code == 2
        assert doc["error"]["code"] == "ParseError"
        assert "nested" in doc["error"]["message"]
    # unary minus and ^ chains are parsed by loops, not recursion
    assert check("-" * 3000 + "x")[1] == 0
    assert check("x" + "^1" * 3000)[1] == 0


def test_cli_huge_exponent_is_a_parse_error(tmp_path):
    # x^2^3^4 is x^(2^81): rejected before any power is taken
    for body in ("x^2^3^4 + 1", "x^1001", "(x^2)^501", "2^3^4^5^6*x"):
        path = _system_file(tmp_path, f"var x;\nx -> {body};\n")
        doc, code = run_command(["check", path])
        assert code == 2
        assert doc["error"]["code"] == "ParseError"
    path = _system_file(tmp_path, "var x;\nx -> x^1000 + 1;\n")
    doc, code = run_command(["iterate", "--m", "1", path])
    assert code == 0
    assert doc["result"]["degree"] == 1000


def test_cli_dense_power_is_a_parse_error(tmp_path):
    # degree 200 is under the degree cap, but the power has C(204, 4) terms
    path = _system_file(tmp_path, "var x, y, z, w;\nx -> (x + y + z + w + 1)^200;\n"
                                  "y -> y;\nz -> z;\nw -> w;\n")
    start = time.perf_counter()
    doc, code = run_command(["check", path])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "ParseError"
    assert "terms" in doc["error"]["message"]


def test_cli_dense_product_is_a_parse_error(tmp_path):
    # each power has 1001 terms and passes; their products are rejected
    # before they are multiplied out, as is a sum over their product
    for body, what in (("(x+y+z+w+1)^10*(x+y+z+w+1)^10*(x+y+z+w+1)^10", "product"),
                       ("1/(x+y+z+w+1)^10 + 1/(x+y+z+w+2)^10", "sum")):
        path = _system_file(tmp_path, f"var x, y, z, w;\nx -> {body};\n"
                                      "y -> y;\nz -> z;\nw -> w;\n")
        start = time.perf_counter()
        doc, code = run_command(["check", path])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert doc["error"]["code"] == "ParseError"
        assert f"{what} of more than" in doc["error"]["message"]


def test_cli_dense_quotient_normalizes_quickly(tmp_path):
    # numerator and denominator have 4845 terms each; normalizing the
    # quotient needs their gcd, which the coprimality certificate settles
    path = _system_file(tmp_path, "var x, y, z, w;\n"
                                  "x -> (x+y+z+w+1)^16/(x+y+z+w+2)^16;\n"
                                  "y -> y;\nz -> z;\nw -> w;\n")
    start = time.perf_counter()
    doc, code = run_command(["check", path])
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert doc["result"]["verdict"] == "dominant"


def test_cli_quotient_with_a_common_monomial_normalizes_quickly(tmp_path):
    # the two parts share the monomial y*z*w; the gcd splits it off before
    # the coprimality certificate, which then settles the rest
    path = _system_file(
        tmp_path, "var x, y, z, w;\n"
        "x -> (-3*x^3*y^6*z^4*w^5 + 2*x*y^5*z^5*w^6 - 3*x*y^6*z^3*w^2"
        " + 5*y^5*z^2*w^5 + 5*x^4*y*z^2*w)/(-3*x^6*y^4*z^3*w^4"
        " + 5*x^4*y^3*z^4*w^6 + 2*x^3*y*z^5*w^6 + 5*x^3*y^5*z*w^2"
        " + 2*x*y^2*z^2*w^4);\ny -> y;\nz -> z;\nw -> w;\n")
    start = time.perf_counter()
    doc, code = run_command(["check", path])
    assert time.perf_counter() - start < 3.0
    assert code == 0
    assert doc["result"]["verdict"] == "dominant"
    assert doc["system"]["map"][0].endswith("- 2*x*y*z*w^3)")


def test_cli_overlong_literal_is_a_parse_error(tmp_path):
    path = _system_file(tmp_path, "var x;\nx -> x + 1" + "0" * 5000 + ";\n")
    doc, code = run_command(["check", path])
    assert code == 2
    assert doc["error"]["code"] == "ParseError"


def test_cli_iterate_and_degrees():
    doc, code = run_command(["iterate", "--m", "3", corpus("shift.system")])
    assert code == 0
    assert doc["result"]["map"] == ["x + 3"]
    doc, code = run_command(["degrees", "--n", "4", corpus("henon.system")])
    assert doc["result"]["degrees"] == [2, 4, 8, 16]
    assert doc["result"]["growth_class"] == "exponential-suspected"


def test_cli_invariants_report():
    doc, code = run_command(["invariants", "--budget", "1,1,2,3",
                             corpus("double.system")])
    assert code == 0
    assert doc["result"]["invariants"] == ["(x)/(y)"]
    assert doc["result"]["independence_rank"] == 1


def test_cli_invariants_from_the_pencil_grid():
    # no catalog and a 6-dimensional pencil kernel: the k >= 4 grid path
    start = time.perf_counter()
    doc, code = run_command(["invariants", "--budget", "2,2,0,8",
                             corpus("double.system")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert doc["result"]["invariants"] == [
        "(x)/(y)", "(x)/(x - y)", "(2*x^2 + 2*x*y)/(x^2 - 2*y^2)",
        "(2*x^2 + 2*x*y)/(x^2 + 2*y^2)", "(x^2 + x*y)/(x^2 + y^2)",
        "(x^2 + 2*x*y)/(x^2 - 2*y^2)", "(x^2 + 2*x*y)/(x^2 + 2*y^2)",
        "(x^2 + 2*x*y)/(2*x^2 + 2*y^2)", "(2*x^2 + x*y)/(2*x^2 - y^2)",
        "(2*x^2 + x*y)/(2*x^2 + y^2)", "(x^2 + x*y)/(2*x^2 - y^2)",
        "(x^2 + x*y)/(2*x^2 + y^2)", "(2*x^2)/(x*y - 2*y^2)", "(x^2)/(2*x*y - y^2)"]
    assert doc["result"]["independence_rank"] == 1
    assert doc["result"]["reduction_generators"] == ["(x)/(y)"]
    assert elapsed < 10.0, f"invariants --budget 2,2,0,8 took {elapsed:.1f} s"


def test_cli_square_of_3d_doubling_extends_the_pool(tmp_path, pool_extensions):
    # the square stops each search at its proven rank bound, 2 and 5, after
    # 2 + 5 kept invariants; the full searches keep 5 + 110.  Either way the
    # dedup pool of each search grows with them from the constant row: each
    # refinement of the factors keeps the old ones and only moves them, and
    # each grown lift multiplies the echelon in place, the first of each
    # search the constant row alone
    path = _system_file(tmp_path, "var x, y, z;\nx -> 2*x;\ny -> 2*y;\nz -> 2*z;\n")
    doc, code = run_command(["square", path, "--budget", "2,2,2,3"])
    assert code == 0
    assert doc["result"]["square_rank"] == 5
    assert doc["result"]["witness"] == "(z1)/(z2)"
    assert pool_extensions.refined == [False] * 5
    assert pool_extensions.multiplied == 5
    assert pool_extensions.kept == [2, 5]
    forget_pool_extensions(pool_extensions)
    sysm = load_system(path).build()
    budget = SearchBudget(2, 2, 2, 3)
    assert adim_lower_bound(sysm, budget).independence_rank == 2
    assert len(rational_invariant_search(diagonal_power(sysm, 2), budget)) == 110
    assert pool_extensions.refined == [False] * 7
    assert pool_extensions.multiplied == 7
    assert pool_extensions.kept == [5, 110]


def test_cli_square_report_fields():
    doc, code = run_command(["square", corpus("scale.system"),
                             "--budget", "1,1,2,3"])
    assert code == 0
    res = doc["result"]
    assert res["witness"] == "(x1)/(x2)"
    assert res["new_invariant_found"] is True
    assert res["degree_profile"]["growth_class"] == "bounded"
    assert doc["system"]["fingerprint"]


def test_cli_square_rank_is_at_least_the_pullback_rank(tmp_path):
    # QRT: the base search finds one invariant, whose two pullbacks have
    # rank 2 on the square, while the square's own search at these budgets
    # finds rank 0; both are lower bounds, and the larger is reported
    path = _system_file(tmp_path, "var x, y;\nx -> y;\ny -> (y^2 + 1)/x;\n")
    for budget in ("2,1,1,3", "2,2,0,3"):
        doc, code = run_command(["square", path, "--budget", budget])
        assert code == 1  # no new invariant
        res = doc["result"]
        assert (res["base_rank"], res["pullback_rank"], res["square_rank"]) == (1, 2, 2)
        assert res["new_invariant_found"] is False and res["witness"] is None


def test_cli_determinism_byte_identical():
    # identical runs agree byte for byte once the timing field is removed
    for argv in (["square", corpus("shift.system")],
                 ["invariants", corpus("swap.system")],
                 ["classify", corpus("monomial.system")],
                 ["verify", "--function", "x/y", corpus("double.system"),
                  "--mode", "randomized"]):
        docs = []
        for _ in range(2):
            doc, _code = run_command(argv)
            doc = copy.deepcopy(doc)
            doc.pop("timing")
            docs.append(render_json(doc).encode())
        assert docs[0] == docs[1]


def test_cli_jobs_flag_is_output_neutral():
    serial, _ = run_command(["invariants", corpus("shear.system")])
    parallel, _ = run_command(["invariants", corpus("shear.system"), "--jobs", "3"])
    assert serial["result"] == parallel["result"]


def test_cli_seed_env_override(monkeypatch):
    monkeypatch.setenv("RATDYN_SEED", "12345")
    doc, _ = run_command(["check", corpus("shift.system")])
    assert doc["seed"] == 12345
    monkeypatch.delenv("RATDYN_SEED")
    doc, _ = run_command(["check", corpus("shift.system"), "--seed", "7"])
    assert doc["seed"] == 7


def test_cli_entry_point_subprocess():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "ratdyn", "check", corpus("shift.system")],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["schema"] == "ratdyn-report/1"
    out = subprocess.run(
        [sys.executable, "-m", "ratdyn", "--pretty", "degrees", "--n", "3",
         corpus("shift.system")], capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "growth_class" in out.stdout


def test_cli_import_loads_no_numpy():
    # ratdyn depends on the standard library only; every CLI call pays
    # for whatever importing the package pulls in
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ratdyn.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_selftest():
    doc, code = run_command(["selftest"])
    assert code == 0
    assert doc["result"]["passed"] is True
    names = {entry["system"] for entry in doc["result"]["systems"]}
    assert {"shift", "double", "swap", "monomial", "henon", "mobius"} <= names


_DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(_DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    # each demo in a fresh interpreter, against the package as it is now
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, os.path.join(_DEMOS, demo)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def _ratdyn(*args, hash_seed=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, "-m", "ratdyn", *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [
    ["square", corpus("double.system")],
    ["invariants", "--budget", "2,3,2,3", corpus("mobius.system")],
    ["selftest", "--budget", "2,2,2,3"],
])
def test_cli_reports_do_not_depend_on_the_hash_seed(argv):
    # set and dict iteration order follows the hash seed of each process;
    # the reports must not
    reports = []
    for hash_seed in (0, 1):
        out = _ratdyn(*argv, hash_seed=hash_seed)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        doc.pop("timing")
        reports.append(render_json(doc).encode())
    assert reports[0] == reports[1]


def test_cli_negative_budget_is_a_usage_error():
    for command, budget in (("invariants", "-1,0,0,0"), ("square", "1,-2,0,0")):
        out = _ratdyn(command, f"--budget={budget}", corpus("shift.system"))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        doc = json.loads(out.stdout)
        assert doc["error"]["code"] == "UsageError"
        assert "must be >= 0" in doc["error"]["message"]


def test_cli_usage_errors_print_a_json_report(capsys, monkeypatch):
    shift = corpus("shift.system")
    for argv, word in ((["degrees", shift], "--n"),
                       (["invariants", "--budget", "1,1,1", shift], "four integers"),
                       (["frobnicate", shift], "frobnicate"), ([], "required")):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "UsageError"
        assert word in doc["error"]["message"]
        assert doc["command"] == argv and "result" not in doc
    monkeypatch.setenv("RATDYN_SEED", "abc")
    assert main(["check", shift]) == 2
    assert "RATDYN_SEED" in json.loads(capsys.readouterr().out)["error"]["message"]
    # --help is no error
    assert main(["degrees", "--help"]) == 0
    assert "usage: ratdyn degrees" in capsys.readouterr().out


def test_cli_abbreviated_flags_are_usage_errors(capsys):
    # main() picks the renderer by the literal "--pretty", so the parser
    # takes no prefix of a flag either, at the top level or after a command
    shift = corpus("shift.system")
    for argv in (["--pret", "check", shift], ["check", shift, "--pre"],
                 ["--se", "7", "check", shift], ["degrees", shift, "--n", "3", "--se", "7"],
                 ["verify", shift, "--func", "x"], ["invariants", shift, "--bud", "1,1,1,1"]):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "UsageError" and doc["command"] == argv
    # spelled in full, --pretty still renders the table in either position
    for argv in (["--pretty", "check", shift], ["check", shift, "--pretty"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("command ") and "result.dominant" in out


def test_cli_parser_is_built_once_and_reused(capsys, monkeypatch):
    shift = corpus("shift.system")
    sequence = [["check", shift, "--seed", "7"], ["degrees", shift],
                ["--seed", "11", "degrees", "--n", "3", shift], ["degrees", "--help"],
                ["iterate", "--m", "2", shift, "--seed", "5"], ["frobnicate"],
                ["check", shift]]

    def run_all():
        out = []
        for argv in sequence:
            try:
                doc, code = run_command(argv)
            except SystemExit as exc:  # --help
                out.append(("exit", exc.code, capsys.readouterr().out))
                continue
            del doc["timing"]
            out.append((render_json(doc), code))
        return out

    monkeypatch.setenv("RATDYN_SEED", "3")
    cached = run_all()
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == cached
    # a rejected command line carries the fixed default seed
    default = cli.DEFAULT_SEED
    assert ([json.loads(c[0])["seed"] for c in cached if c[0] != "exit"]
            == [7, default, 11, 5, default, 3])
    assert cached[3][:2] == ("exit", 0) and "usage: ratdyn degrees" in cached[3][2]


def test_cli_henon_degrees_are_fast():
    start = time.perf_counter()
    doc, code = run_command(["degrees", "--n", "9", corpus("henon.system")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert doc["result"]["degrees"] == [2 ** k for k in range(1, 10)]
    assert elapsed < 6.0, f"henon degrees --n 9 took {elapsed:.1f} s"


def test_cli_henon_iterate_is_fast():
    # binary powering squared phi^8 to reach phi^9, which took about 27 s on a
    # shared 2-core host
    start = time.perf_counter()
    doc, code = run_command(["iterate", "--m", "9", corpus("henon.system")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert doc["result"]["degree"] == 2 ** 9
    assert elapsed < 10.0, f"henon iterate --m 9 took {elapsed:.1f} s"


@pytest.mark.parametrize("argv", [["iterate", "--m", "64"], ["degrees", "--n", "64"]],
                         ids=["iterate", "degrees"])
def test_cli_henon_past_the_term_cap_is_an_error_at_once(argv):
    # phi^10 may have more terms in a coordinate than the cap allows, so
    # the run stops before composing it, with a JSON error and exit 2
    start = time.perf_counter()
    doc, code = run_command(argv + [corpus("henon.system")])
    elapsed = time.perf_counter() - start
    assert code == 2 and "result" not in doc
    assert doc["error"]["code"] == "WorkLimitError"
    assert "may have up to 821121 terms" in doc["error"]["message"]
    assert elapsed < 5.0, f"{' '.join(argv)} on henon took {elapsed:.1f} s"


def test_cli_iterate_of_a_map_that_is_not_dominant_is_a_usage_error(tmp_path):
    path = _system_file(tmp_path, "var x, y;\nx -> (-2*x + 2*y - 2)/(2*x + y + 2);\n"
                                  "y -> 0;\n")
    for m in ("2", "3", "4"):
        doc, code = run_command(["iterate", "--m", m, path])
        assert code == 2
        assert doc["error"]["code"] == "NotDominantError"


# -- integers too long to write out, and the iteration bound -------------------------


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes out integers of any length")
@pytest.mark.parametrize("command", ["check", "iterate"])
def test_cli_too_many_digits_is_a_work_limit_error(tmp_path, capsys, command):
    if command == "check":
        body = "var x;\nx -> 10^1000*10^1000*10^1000*10^1000*10^1000*x;\n"
        argv = ["check", _system_file(tmp_path, body)]
    else:  # the 44th iterate's leading coefficient 10^4400 has over 4300 digits
        body = "var x;\nx -> 10^100*x + 1;\n"
        argv = ["iterate", "--m", "44", _system_file(tmp_path, body)]
    limit = str(sys.get_int_max_str_digits())
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "WorkLimitError" and "result" not in doc
    assert limit in doc["error"]["message"]
    out = _ratdyn(*argv)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert json.loads(out.stdout)["error"]["code"] == "WorkLimitError"


def test_cli_iteration_counts_are_bounded():
    # each step costs about 30 us on the shift, so an unbounded count could
    # run for hours; past the bound the run stops before the first step
    shift = corpus("shift.system")
    for argv in (["iterate", "--m"], ["degrees", "--n"]):
        started = time.monotonic()
        doc, code = run_command(argv + [str(MAX_ITERATIONS + 1), shift])
        assert time.monotonic() - started < 1
        assert code == 2 and "result" not in doc
        assert doc["error"]["code"] == "PreconditionError"
        assert str(MAX_ITERATIONS) in doc["error"]["message"]
    doc, code = run_command(["iterate", "--m", str(MAX_ITERATIONS), shift])
    assert code == 0 and doc["result"]["map"] == [f"x + {MAX_ITERATIONS}"]
    shift_map = load_system(shift).build()
    with pytest.raises(PreconditionError):
        iterate(shift_map, MAX_ITERATIONS + 1)
    with pytest.raises(PreconditionError):
        degree_sequence(shift_map, MAX_ITERATIONS + 1)


# -- one result builder -------------------------------------------------------------


def test_cli_selftest_runs_each_subcommand_once_per_system(monkeypatch):
    calls = []
    result = cli._result

    def counted(command, sysm, args):
        calls.append((command, sysm))
        return result(command, sysm, args)

    monkeypatch.setattr(cli, "_result", counted)
    doc, code = run_command(["selftest"])
    assert code == 0
    assert len(calls) == len(set(calls))
    # "class" and "verdict" share one classify on every system that has both
    keys = [{c["check"] for c in entry["checks"]} for entry in doc["result"]["systems"]]
    assert any({"class", "verdict"} <= k for k in keys)
    assert (sum(command == "classify" for command, _ in calls)
            == sum(bool({"class", "verdict"} & k) for k in keys))


def test_cli_selftest_fails_one_check_on_a_malformed_expect_value(tmp_path, monkeypatch):
    # the parse error is that check's actual value; every other check runs
    (tmp_path / "bad.system").write_text(
        "var x, y;\nx -> y;\ny -> x;\nexpect dominant true;\nexpect invariant x +;\n")
    shutil.copy(corpus("swap.system"), tmp_path / "swap.system")
    monkeypatch.setattr(cli, "bundled_systems_dir", lambda: str(tmp_path))
    doc, code = run_command(["selftest"])
    assert code == 1
    bad, swap = doc["result"]["systems"]
    assert [(c["check"], c["pass"]) for c in bad["checks"]] == [("dominant", True),
                                                                ("invariant", False)]
    assert bad["checks"][1]["actual"] == (
        "ParseError: unexpected 'end of input' (line 1, column 4)")
    assert swap["checks"] and all(c["pass"] for c in swap["checks"])
    assert doc["result"]["failures"] == 1 and doc["result"]["passed"] is False


def test_format_doc_tables_every_expectation_key():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "format.md")
    with open(path) as lines:
        rows = [line.split("|")[1:4] for line in lines if line.startswith("| `")]
    table = {key.strip(" `"): (command.strip(" `").split()[0], field.strip(" `"))
             for key, command, field in rows}
    assert table == cli._EXPECTATIONS


# -- reports against docs/schema.json -------------------------------------------------

with open(os.path.join(os.path.dirname(__file__), "..", "docs", "schema.json")) as _f:
    _SCHEMA = json.load(_f)


def _schema_violations(doc):
    """Required keys missing from, and keys not allowed in, the report and its
    system, budget, error and result sections."""
    result_schemas = {s["properties"]["kind"]["const"]: s
                      for s in _SCHEMA["properties"]["result"]["oneOf"]}
    sections = [("report", doc, _SCHEMA)]
    for name in ("system", "budget", "error"):
        if name in doc:
            sections.append((name, doc[name], _SCHEMA["properties"][name]))
    if "result" in doc:
        sections.append(("result", doc["result"], result_schemas[doc["result"]["kind"]]))
    problems = []
    for name, value, schema in sections:
        problems += [f"{name} lacks {key}" for key in schema.get("required", ())
                     if key not in value]
        problems += [f"{name} has {key}" for key in value if key not in schema["properties"]]
    return problems


def test_cli_reports_match_the_schema(tmp_path):
    mobius, shift = corpus("mobius.system"), corpus("shift.system")
    reports = [["check", mobius], ["iterate", "--m", "3", mobius],
               ["degrees", "--n", "4", mobius], ["invariants", shift],
               ["square", shift], ["classify", mobius],
               ["verify", "--function", "x", "--mode", "randomized", mobius],
               ["selftest", "--budget", "1,1,1,1"],
               ["check", _system_file(tmp_path, "var x;\nx -> x +* 1;\n")],
               ["frobnicate"]]
    kinds = set()
    for argv in reports:
        doc, _ = run_command(argv)
        assert _schema_violations(doc) == [], argv
        kinds.add(doc["result"]["kind"] if "result" in doc else doc["error"]["code"])
    assert kinds == {"check", "iterate", "degrees", "invariants", "square", "classify",
                     "verify", "selftest", "ParseError", "UsageError"}
    assert _schema_violations({**doc, "extra": 1}) == ["report has extra"]
