"""Reading and writing system description files.

Two equivalent formats are supported (see docs/format.md for the grammar):

  * a line-oriented text format::

        # optional comments
        name shift;
        desc one-dimensional shift;
        var x, y;
        x -> x + 1;
        y -> y + 1;
        expect dominant true;

  * a JSON object with keys "name", "variables", "map" (expression strings,
    one per variable, as a list or a {variable: expression} object), and
    optional "description" / "expected".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .dynsys import DynamicalSystem
from .errors import SystemFileError
from .parsing import IDENT_RE, parse_expression


@dataclass
class SystemFile:
    name: str
    variables: Tuple[str, ...]
    map: Tuple[str, ...]
    description: Optional[str] = None
    expected: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.map = tuple(self.map)
        seen = set()
        for v in self.variables:
            if not IDENT_RE.fullmatch(v):
                raise SystemFileError(f"invalid variable identifier {v!r}")
            if v in seen:
                raise SystemFileError(f"duplicate variable {v!r}")
            seen.add(v)
        if len(self.map) != len(self.variables):
            raise SystemFileError(
                f"{len(self.map)} expressions for {len(self.variables)} variables")

    def build(self) -> DynamicalSystem:
        coords = tuple(parse_expression(src, self.variables) for src in self.map)
        return DynamicalSystem(self.variables, coords)


def _parse_text(source: str, default_name: str) -> SystemFile:
    stripped_lines = []
    for line in source.splitlines():
        hash_pos = line.find("#")
        stripped_lines.append(line if hash_pos < 0 else line[:hash_pos])
    body = "\n".join(stripped_lines)
    name = default_name
    description = None
    variables: List[str] = []
    assignments: Dict[str, str] = {}
    expected: Dict[str, str] = {}
    for raw in body.split(";"):
        stmt = raw.strip()
        if not stmt:
            continue
        if stmt.startswith("name "):
            name = stmt[5:].strip()
        elif stmt.startswith("desc "):
            description = stmt[5:].strip()
        elif stmt.startswith("var "):
            for part in stmt[4:].split(","):
                v = part.strip()
                if v:
                    variables.append(v)
        elif stmt.startswith("expect "):
            pieces = stmt[7:].split(None, 1)
            if len(pieces) != 2:
                raise SystemFileError(f"malformed expectation {stmt!r}")
            if pieces[0] in expected:
                raise SystemFileError(f"expectation {pieces[0]!r} given twice")
            expected[pieces[0]] = pieces[1].strip()
        elif "->" in stmt:
            lhs, rhs = stmt.split("->", 1)
            v = lhs.strip()
            if v in assignments:
                raise SystemFileError(f"variable {v!r} assigned twice")
            assignments[v] = rhs.strip()
        else:
            raise SystemFileError(f"cannot parse statement {stmt!r}")
    if not variables:
        raise SystemFileError("no variables declared (missing 'var' statement)")
    missing = [v for v in variables if v not in assignments]
    if missing:
        raise SystemFileError(f"no assignment for variable(s) {missing}")
    extra = [v for v in assignments if v not in variables]
    if extra:
        raise SystemFileError(f"assignment to undeclared variable(s) {extra}")
    return SystemFile(name=name, variables=tuple(variables),
                      map=tuple(assignments[v] for v in variables),
                      description=description, expected=expected)


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice would silently drop the
    first value, so it is an error at any level."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SystemFileError(f"JSON key {key!r} given twice")
        doc[key] = value
    return doc


def _parse_json(source: str, default_name: str) -> SystemFile:
    try:
        doc = json.loads(source, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SystemFileError("JSON system file must be an object")

    def strings(values, what):
        if not all(isinstance(v, str) for v in values):
            raise SystemFileError(f"JSON field {what} must hold strings only")
        return tuple(values)

    name = doc.get("name", default_name)
    description = doc.get("description")
    if not isinstance(name, str) or not isinstance(description, (str, type(None))):
        raise SystemFileError("JSON fields 'name' and 'description' must be strings")
    variables = doc.get("variables")
    if not isinstance(variables, list) or not variables:
        raise SystemFileError("JSON field 'variables' must be a nonempty list")
    variables = strings(variables, "'variables'")
    raw_map = doc.get("map")
    if isinstance(raw_map, dict):
        try:
            exprs = [raw_map[v] for v in variables]
        except KeyError as exc:
            raise SystemFileError(f"map misses variable {exc}") from exc
        extra = [v for v in raw_map if v not in variables]
        if extra:
            raise SystemFileError(f"assignment to undeclared variable(s) {extra}")
    elif isinstance(raw_map, list):
        exprs = raw_map
    else:
        raise SystemFileError("JSON field 'map' must be a list or an object")
    expected = doc.get("expected", {})
    if not isinstance(expected, dict):
        raise SystemFileError("JSON field 'expected' must be an object")
    strings(expected.values(), "'expected'")
    return SystemFile(name=name, variables=variables,
                      map=strings(exprs, "'map'"), description=description,
                      expected=dict(expected))


def loads_system(source: str, default_name: str = "system") -> SystemFile:
    """Parse a system description from text (format auto-detected)."""
    head = source.lstrip()
    if head.startswith("{"):
        return _parse_json(source, default_name)
    return _parse_text(source, default_name)


def load_system(path: str) -> SystemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}") from exc
    stem = os.path.splitext(os.path.basename(path))[0]
    return loads_system(source, default_name=stem)


def dumps_system(sf: SystemFile) -> str:
    """Render in the text format; load(dumps(x)) is equivalent to x."""
    lines = [f"name {sf.name};"]
    if sf.description:
        lines.append(f"desc {sf.description};")
    lines.append(f"var {', '.join(sf.variables)};")
    for v, expr in zip(sf.variables, sf.map):
        lines.append(f"{v} -> {expr};")
    for key, value in sf.expected.items():
        lines.append(f"expect {key} {value};")
    return "\n".join(lines) + "\n"
