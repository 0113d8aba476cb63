"""Command-line surface: one subcommand per workbench capability.

Every run writes a single schema-versioned JSON report to stdout (or an
aligned table with --pretty).  Exit codes: 0 success, 1 mathematical negative
for the predicate subcommands (check on a non-dominant system, verify on a
non-invariant, square without a new invariant, selftest failures), 2 for
usage, parse, file and work-limit errors.  Reports are deterministic for a fixed input
and seed; only the timing field varies between runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import is_dataclass
from fractions import Fraction
from typing import Tuple

from .dynsys import (DOMINANT, EVIDENCE_WINDOW, DynamicalSystem, degree_sequence,
                     iterate, validate_dominant)
from .errors import (ParseError, PreconditionError, RatdynError, UsageError,
                     WorkLimitError)
from .exactalg import Polynomial, RationalFunction
from .invsearch import (DEFAULT_BUDGET, SearchBudget, adim_lower_bound,
                        square_gain_check)
from .parsing import parse_expression
from .systemfile import SystemFile, load_system
from .translation import classify_system
from .verify import DEFAULT_SEED, DEFAULT_TRIALS, verify_invariant_report

SCHEMA = "ratdyn-report/1"


def _text(value) -> str:
    """``str(value)``; an integer with more digits than Python writes out
    (``sys.get_int_max_str_digits()``) raises WorkLimitError instead."""
    try:
        return str(value)
    except ValueError:
        raise WorkLimitError(f"a number has more than {sys.get_int_max_str_digits()} "
                             "digits, the limit of sys.get_int_max_str_digits()") from None


def _jsonable(value):
    if value is None or isinstance(value, (str, int)):  # most leaves; bool is an int
        return value
    if isinstance(value, (RationalFunction, Polynomial, Fraction)):
        return _text(value)
    if isinstance(value, DynamicalSystem):
        return {"variables": list(value.variables), "map": list(map(_text, value.coords))}
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(getattr(value, k))
                for k in value.__dataclass_fields__}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def fingerprint(sys: DynamicalSystem) -> str:
    """Hash of the normalized coordinates; stable across formats."""
    canon = ";".join(sys.variables) + "|" + ";".join(map(_text, sys.coords))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _budget_from_string(text: str) -> SearchBudget:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "budget must be four integers: num_deg,den_deg,catalog_depth,rank1_limit")
    try:
        nums = [int(p) for p in parts]
        return SearchBudget(*nums)
    except (ValueError, PreconditionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2, so
    that a malformed command line still gets a JSON report."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _seed_default() -> int:
    text = os.environ.get("RATDYN_SEED")
    try:
        return DEFAULT_SEED if text is None else int(text)
    except ValueError:
        raise UsageError(f"RATDYN_SEED must be an integer, not {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratdyn",
        description="exact workbench for rational dynamical systems over Q")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable table instead of JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: RATDYN_SEED or a fixed constant)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # top-level value unless the subcommand position actually sets one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_budget=False):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name != "selftest":
            p.add_argument("system", help="path to a .system or .json file")
        if needs_budget:
            p.add_argument("--budget", type=_budget_from_string,
                           default=DEFAULT_BUDGET,
                           help="num_deg,den_deg,catalog_depth,rank1_limit "
                                "(default 3,3,2,3)")
        return p

    add("check", "validate the file and test dominance")
    p = add("iterate", "compose the map with itself")
    p.add_argument("--m", type=int, required=True, help="iteration count")
    p = add("degrees", "degree sequence of the iterates")
    p.add_argument("--n", type=int, required=True, help="window length")
    add("invariants", "bounded-degree invariant search", needs_budget=True)
    add("square", "invariant gain of the diagonal square", needs_budget=True)
    add("classify", "translation-structure evidence")
    p = add("verify", "verify a claimed invariant")
    p.add_argument("--function", required=True, help="expression to verify")
    p.add_argument("--mode", choices=["exact", "randomized"], default="exact")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    add("selftest", "run the bundled regression corpus", needs_budget=True)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once: parsing leaves a parser unchanged."""
    return build_parser()


def bundled_systems_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "systems")


def _result(command: str, sysm: DynamicalSystem, args) -> Tuple[dict, int]:
    """The ``result`` of one subcommand on a system, and its exit code."""
    code = 0
    if command == "check":
        verdict = validate_dominant(sysm)
        result = {"dominant": verdict == DOMINANT, "verdict": verdict, "dimension": sysm.dim}
        code = int(verdict != DOMINANT)
    elif command == "iterate":
        it = iterate(sysm, args.m)
        result = {"m": args.m, "map": _jsonable(it)["map"], "degree": it.degree}
    elif command == "degrees":
        result = _jsonable(degree_sequence(sysm, args.n))
    elif command == "invariants":
        report = vars(adim_lower_bound(sysm, args.budget))
        # the report's system and budget are the document's own sections
        result = {k: _jsonable(v) for k, v in report.items() if k not in ("system", "budget")}
    elif command == "square":
        result = _jsonable(square_gain_check(sysm, args.budget))
        code = int(not result["new_invariant_found"])
    elif command == "classify":
        result = _jsonable(classify_system(sysm))
    else:  # verify
        f = parse_expression(args.function, sysm.variables)
        result = {"function": _text(f), **_jsonable(
            verify_invariant_report(sysm, f, args.mode, args.trials, args.seed))}
        code = int(result["verdict"] == "not-invariant")
    return {"kind": command, **result}, code


# each ``expect`` key -> the subcommand whose result it checks, and the field
_EXPECTATIONS = {
    "dominant": ("check", "dominant"),
    "growth": ("degrees", "growth_class"),
    "class": ("classify", "recognized_class"),
    "verdict": ("classify", "verdict"),
    "adim_rank": ("invariants", "independence_rank"),
    "square_new": ("square", "new_invariant_found"),
    "invariant": ("verify", "verdict"),
}


def _expectation_checks(sf: SystemFile, args) -> list:
    """One check per ``expect`` line; each subcommand runs at most once."""
    sysm = sf.build()
    options = argparse.Namespace(
        n=EVIDENCE_WINDOW, budget=args.budget, function=sf.expected.get("invariant"),
        mode="exact", trials=DEFAULT_TRIALS, seed=args.seed)
    results = {}
    checks = []
    for key, expected in sorted(sf.expected.items()):
        if key in _EXPECTATIONS:
            command, field = _EXPECTATIONS[key]
            try:
                if command not in results:
                    results[command] = _result(command, sysm, options)[0]
            except ParseError as exc:  # a malformed ``invariant`` value fails its check
                actual, passed = f"ParseError: {exc}", False
            else:
                actual = results[command][field]
                actual = actual if isinstance(actual, str) else json.dumps(actual)
                if key == "invariant" and actual == "invariant":
                    actual = expected
                passed = expected == actual
        else:
            actual, passed = "unknown expectation key", False
        checks.append({"check": key, "expected": expected, "actual": actual, "pass": passed})
    return checks


def _selftest(args) -> Tuple[dict, int]:
    systems = []
    failures = 0
    for entry in sorted(os.listdir(bundled_systems_dir())):
        if entry.endswith(".system"):
            sf = load_system(os.path.join(bundled_systems_dir(), entry))
            checks = _expectation_checks(sf, args)
            failures += sum(not c["pass"] for c in checks)
            systems.append({"system": sf.name, "checks": checks})
    return ({"kind": "selftest", "systems": systems, "passed": failures == 0,
             "failures": failures}, int(failures > 0))


def run_command(argv) -> Tuple[dict, int]:
    """Execute one subcommand; returns (report document, exit code)."""
    started = time.monotonic()
    # a report whose command line is rejected carries the fixed default seed
    doc = {"schema": SCHEMA, "command": list(argv), "seed": DEFAULT_SEED}
    try:
        args = _parser().parse_args(argv)
        args.seed = doc["seed"] = _seed_default() if args.seed is None else args.seed
        if args.command == "selftest":
            doc["result"], code = _selftest(args)
        else:
            sf = load_system(args.system)
            sysm = sf.build()
            doc["system"] = {"name": sf.name, **_jsonable(sysm),
                             "fingerprint": fingerprint(sysm)}
            doc["result"], code = _result(args.command, sysm, args)
        if "budget" in args:
            doc["budget"] = _jsonable(args.budget)
    except RatdynError as exc:
        doc["error"] = {"code": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            doc["error"].update(line=exc.line, column=exc.column)
        code = 2
    doc["timing"] = {"ms": round((time.monotonic() - started) * 1000.0, 3)}
    return doc, code


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_pretty(doc: dict) -> str:
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                lines.append(f"{prefix[:-1]:<32} {value}")
            else:
                for i, v in enumerate(value):
                    emit(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]:<32} {value}")

    emit("", doc)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        doc, code = run_command(argv)
    except SystemExit as exc:  # --help exits 0 from inside argparse
        return 2 if exc.code not in (0, None) else 0
    out = render_pretty(doc) if "--pretty" in argv else render_json(doc)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
