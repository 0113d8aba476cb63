"""The report sweep: every subcommand on 15 systems.

`invariants` and `square` run at 9 budgets (270 queries); `check`,
`iterate --m 3`, `degrees --n 6`, `classify` and `verify --function <first
variable>` in exact and in randomized mode run once per system (90
queries).  Each query runs in-process through ``cli.run_command``; its
report, with ``timing`` removed, is rendered by ``render_json`` and hashed
with sha256.  ``sweep_digests.txt`` holds the digests, one
``<sha256>  <command> <system> <budget or options>`` line per query, so a
change that alters any report, even by one byte, fails here and names the
query.

Regenerate the digests only for a change that is meant to alter a
report::

    PYTHONPATH=src python tests/test_sweep.py > tests/sweep_digests.txt
"""

import hashlib
import os
import shutil

from ratdyn.cli import bundled_systems_dir, render_json, run_command
from ratdyn.systemfile import load_system

# The 9 bundled systems, plus these 6.
EXTRA_SYSTEMS = {
    "lyness": ("x y", "y", "(y + 1)/x"),
    "qrt": ("x y", "y", "(y^2 + 1)/x"),
    "double3": ("x y z", "2*x", "2*y", "2*z"),
    "inverse": ("x", "1/x"),
    "order3": ("x", "-1/(x + 1)"),
    "cycle3": ("x y z", "y", "z", "x"),
}
BUDGETS = ("default", "1,1,1,1", "2,1,1,3", "2,2,2,3", "3,2,1,3", "2,3,2,3",
           "3,3,1,3", "2,2,0,3", "1,2,0,6")
COMMANDS = ("invariants", "square")
# the subcommands without a budget, with their options
QUERIES = (("check",), ("iterate", "--m", "3"), ("degrees", "--n", "6"), ("classify",),
           ("verify", "--mode", "exact"), ("verify", "--mode", "randomized"))
DIGESTS = os.path.join(os.path.dirname(__file__), "sweep_digests.txt")


def _system_names():
    bundled = sorted(entry[:-len(".system")] for entry in os.listdir(bundled_systems_dir())
                     if entry.endswith(".system"))
    return bundled + sorted(EXTRA_SYSTEMS)


def _write_systems(directory):
    """Every sweep system as ``<name>.system`` in ``directory``."""
    for name in _system_names():
        target = os.path.join(directory, f"{name}.system")
        if name in EXTRA_SYSTEMS:
            variables, *exprs = EXTRA_SYSTEMS[name]
            variables = variables.split()
            lines = [f"name {name};", f"var {', '.join(variables)};"]
            lines += [f"{v} -> {e};" for v, e in zip(variables, exprs)]
            with open(target, "w") as out:
                out.write("\n".join(lines) + "\n")
        else:
            shutil.copy(os.path.join(bundled_systems_dir(), f"{name}.system"), target)


def _queries():
    """(query id, argv) of every sweep query, in the order of the digest file."""
    for command in COMMANDS:
        for name in _system_names():
            for budget in BUDGETS:
                argv = [command, f"{name}.system"]
                if budget != "default":
                    argv += ["--budget", budget]
                yield f"{command} {name} {budget}", argv
    for command, *options in QUERIES:
        for name in _system_names():
            path = f"{name}.system"
            function = ["--function", load_system(path).variables[0]] if command == "verify" else []
            yield " ".join([command, name, *options]), [command, path, *function, *options]


def sweep_digests():
    """{query id: sha256 of its report}, run in the current directory, which
    must hold the files of ``_write_systems``."""
    digests = {}
    for query, argv in _queries():
        doc, _ = run_command(argv)
        del doc["timing"]
        digests[query] = hashlib.sha256(render_json(doc).encode()).hexdigest()
    return digests


def _committed():
    with open(DIGESTS) as lines:
        return dict(reversed(line.rstrip("\n").split("  ", 1)) for line in lines)


def test_sweep_reports_match_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("RATDYN_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    _write_systems(tmp_path)
    expected = _committed()
    assert len(expected) == (len(COMMANDS) * len(BUDGETS) + len(QUERIES)) * len(_system_names())
    assert len(expected) == 360
    got = sweep_digests()
    assert got.keys() == expected.keys()
    changed = [query for query in expected if got[query] != expected[query]]
    assert not changed, f"reports changed: {changed}"


if __name__ == "__main__":
    import tempfile

    os.environ.pop("RATDYN_SEED", None)
    with tempfile.TemporaryDirectory() as directory:
        _write_systems(directory)
        os.chdir(directory)
        for query, digest in sweep_digests().items():
            print(f"{digest}  {query}")
