"""Span tracing of ratdyn from outside its source files.

``Tracer.install`` wraps, in the imported ``ratdyn`` modules, every public
function of each layer module and the arithmetic methods of ``Polynomial``
and ``RationalFunction``.  A function that another ratdyn module imported by
name is re-bound there to a wrapper that also records that caller, so
``invsearch``'s calls to ``poly_lcm`` can be told apart from ``poly``'s own.
No source file changes.

Each span records its name, caller module, start, end, parent span and the
query it belongs to.  Spans are kept in flat arrays in memory while the
traced passes run, and are aggregated and written out at the end.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# ratdyn module -> layer name used in metric names
LAYERS = {
    "ratdyn.cli": "cli",
    "ratdyn.systemfile": "systemfile",
    "ratdyn.parsing": "parsing",
    "ratdyn.dynsys": "dynsys",
    "ratdyn.exactalg.poly": "poly",
    "ratdyn.exactalg.ratfunc": "ratfunc",
    "ratdyn.exactalg.linalg": "linalg",
    "ratdyn.invsearch": "invsearch",
    "ratdyn.translation": "translation",
    "ratdyn.verify": "verify",
}

# arithmetic methods -> span name suffix
_METHODS = {
    "__init__": "construct",
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow",
}
_CLASSES = (("ratdyn.exactalg.poly", "Polynomial"),
            ("ratdyn.exactalg.ratfunc", "RationalFunction"))

# nullspace calls are split at this many cells (live rows x columns).  The
# edge belongs to the benchmark, so it stays put if the program's own
# Fraction/modular cutoff is retuned.
NULLSPACE_EDGE = 2000


class Tracer:
    """Collects spans for calls made while ``active`` is true."""

    def __init__(self):
        self.keys: List[Tuple[str, str]] = []    # key id -> (name, caller)
        self._key_ids: Dict[Tuple[str, str], int] = {}
        self._base: List[int] = []               # key id -> name id
        self._name_ids: Dict[str, int] = {}
        self._depth: List[int] = []              # name id -> open spans
        self.key = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")                  # 1 unless nested in its own name
        self.cells: Dict[int, int] = {}          # span index -> nullspace cells
        self._stack: List[int] = []
        self.query_id = -1
        self.active = False
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _key_id(self, name: str, caller: str) -> int:
        kid = self._key_ids.get((name, caller))
        if kid is None:
            nid = self._name_ids.setdefault(name, len(self._name_ids))
            if nid == len(self._depth):
                self._depth.append(0)
            kid = len(self.keys)
            self.keys.append((name, caller))
            self._key_ids[(name, caller)] = kid
            self._base.append(nid)
        return kid

    def _open(self, kid: int) -> int:
        idx = len(self.start)
        nid = self._base[kid]
        self.key.append(kid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, kid: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self._base[kid]] -= 1

    def _wrap(self, fn, name: str, caller: str = ""):
        tracer = self
        kid = self._key_id(name, caller)
        if name == "linalg.nullspace":
            @functools.wraps(fn)
            def traced(rows, ncols, *args, **kwargs):
                if not tracer.active:
                    return fn(rows, ncols, *args, **kwargs)
                rows = list(rows)
                cells = sum(1 for r in rows if r) * ncols
                idx = tracer._open(kid)
                tracer.cells[idx] = cells
                try:
                    return fn(rows, ncols, *args, **kwargs)
                finally:
                    tracer._close(idx, kid)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(kid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, kid)
        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer functions and methods of the imported ratdyn."""
        originals = {}  # id(function) -> (function, span name)
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == modname):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        for modname, clsname in _CLASSES:
            cls = getattr(sys.modules[modname], clsname)
            layer = LAYERS[modname]
            wrapped = {}
            for attr, suffix in _METHODS.items():
                fn = cls.__dict__.get(attr)
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, f"{layer}.{suffix}")
                self._set(cls, attr, wrapped[id(fn)])
        # re-bind every ratdyn module's reference to a wrapped function; a
        # module other than the defining one and the packages is a caller
        for modname, mod in sorted(sys.modules.items()):
            if not (modname == "ratdyn" or modname.startswith("ratdyn.")):
                continue
            caller = LAYERS.get(modname, "")
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj)) if inspect.isfunction(obj) else None
                if entry is None or entry[0] is not obj:
                    continue
                fn, name = entry
                via = "" if fn.__module__ == modname else caller
                self._set(mod, attr, self._wrap(fn, name, via))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        key = np.frombuffer(self.key, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        end = np.frombuffer(self.end, dtype=np.float64)[:n]
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        if n:
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=n)
        return key, parent, dur, dur - child

    def totals(self):
        """Per span name, per (caller, function) and per layer:
        calls, inclusive seconds (outermost spans only) and self seconds."""
        key, parent, dur, self_t = self.arrays()
        outer = np.frombuffer(self.outer, dtype=np.int8)[:len(key)].astype(bool)
        nkeys = len(self.keys)
        calls = np.bincount(key, minlength=nkeys)
        incl = np.bincount(key, weights=np.where(outer, dur, 0.0), minlength=nkeys)
        own = np.bincount(key, weights=self_t, minlength=nkeys)
        out: Dict[str, List[float]] = {}

        def add(name, k):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += int(calls[k])
            acc[1] += float(incl[k])
            acc[2] += float(own[k])

        for k, (name, caller) in enumerate(self.keys):
            add(name, k)
            add("layer." + name.split(".", 1)[0], k)
            if caller:
                add(f"from.{caller}.{name.split('.', 1)[1]}", k)
        return out

    def nullspace_sizes(self) -> Dict[str, List[float]]:
        """calls, seconds and cells of nullspace spans below and at or above
        NULLSPACE_EDGE cells."""
        _, _, dur, _ = self.arrays()
        out = {"small": [0, 0.0, 0], "large": [0, 0.0, 0]}
        for idx, cells in self.cells.items():
            acc = out["small" if cells < NULLSPACE_EDGE else "large"]
            acc[0] += 1
            acc[1] += float(dur[idx])
            acc[2] += cells
        return out

    def save(self, path: str, count: int):
        """Write the first ``count`` spans; see README.md for the layout."""
        cells = np.zeros(count, dtype=np.int64)
        for idx, c in self.cells.items():
            if idx < count:
                cells[idx] = c
        np.savez(path,
                 names=np.array([k[0] for k in self.keys]),
                 callers=np.array([k[1] for k in self.keys]),
                 key=np.frombuffer(self.key, dtype=np.int32)[:count],
                 parent=np.frombuffer(self.parent, dtype=np.int32)[:count],
                 query=np.frombuffer(self.query, dtype=np.int32)[:count],
                 start=np.frombuffer(self.start, dtype=np.float64)[:count],
                 end=np.frombuffer(self.end, dtype=np.float64)[:count],
                 cells=cells)
