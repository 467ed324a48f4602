"""Span tracing of orbidegen's public functions, installed from outside the package.

A Tracer replaces each target function with a wrapper that records one span
per call: name, start, end, parent span and op id.  The wrapper is bound
everywhere the original is: on the defining module, on every other
orbidegen module that imported the name (``orbidegen.expand.canonical_form``
as well as ``orbidegen.graph.canonical_form``), and on the class for
methods.  Modules imported after installation are wrapped as they load, so a
lazy import inside the package is still traced.  Spans stay in memory in
flat columns and are written as JSON when the run ends.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time
from array import array
from pathlib import Path

# module -> public functions and methods to time; names are "<module>.<qualname>".
TARGETS = {
    "io": ("load_document", "dump_json"),
    "inertia": ("FiniteGroupTable.validate", "FiniteGroupTable.cyclic",
                "FiniteGroupTable.from_rows", "conjugacy_classes", "inverse_class",
                "monodromy_table", "cr_poincare_polynomial", "pairing_check"),
    "contact": ("enumerate_partitions", "aut_order"),
    "graph": ("canonical_form", "encode", "is_connected", "validate",
              "automorphism_order", "contract_edge", "contract_level",
              "stratification_poset"),
    "expand": ("enumerate_splittings", "expand", "term_record"),
    "dimension": ("virdim", "splitting_ledger"),
    "glue": ("estimate_constants", "correct", "FredholmSystem.t",
             "FredholmSystem.jacobian", "chart_map"),
    "cli": ("run",),
}

# per-span notes taken from the return value, for counters that need outcomes
NOTES = {
    "graph.is_connected": lambda result: int(bool(result)),
    "graph.validate": lambda result: int(bool(result)),
    "graph.stratification_poset": lambda poset: [len(poset.nodes), int(poset.complete)],
    "expand.enumerate_splittings": len,
    "expand.expand": len,
    "glue.correct": lambda result: result.iterations,
}

PACKAGE = "orbidegen"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.notes: dict[int, object] = {}
        self.current_op = -1
        self.recording = True
        self._stack = [-1]
        self._wrapped: dict[object, object] = {}  # original -> wrapper
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._seen_modules: set[str] = set()
        self._modules_seen_at = 0
        self._import = None

    # ---------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every target in the loaded orbidegen modules and watch imports."""
        self._wrap_loaded()
        original_import = builtins.__import__

        def traced_import(*args, **kwargs):
            module = original_import(*args, **kwargs)
            if len(sys.modules) != self._modules_seen_at:
                self._modules_seen_at = len(sys.modules)
                if not self._wrap_loaded():
                    self._modules_seen_at = -1  # look again on the next import
            return module

        self._import = original_import
        builtins.__import__ = traced_import

    def uninstall(self) -> None:
        """Restore every patched attribute and the import hook."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        # modules imported while installed bound the wrappers themselves
        originals = {id(w): o for o, w in self._wrapped.items()}
        for module in _package_modules().values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])
        self._patched.clear()
        self._wrapped.clear()
        self._seen_modules.clear()
        self._modules_seen_at = 0
        if self._import is not None:
            builtins.__import__ = self._import
            self._import = None

    def _wrap_loaded(self) -> bool:
        """Wrap newly loaded modules; False if one still runs its body."""
        loaded = _package_modules()
        if loaded.keys() <= self._seen_modules:
            return True
        # a module still executing its body is wrapped on a later import
        modules = {name: module for name, module in loaded.items()
                   if not getattr(module.__spec__, "_initializing", False)}
        for short, targets in TARGETS.items():
            module = modules.get(f"{PACKAGE}.{short}")
            if module is None or module.__name__ in self._seen_modules:
                continue
            for qualname in targets:
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrapper(f"{short}.{qualname}", original)
                self._wrapped[original] = wrapper
                # a class keeps its raw attribute, so classmethods restore intact
                self._patched.append((owner, attr, vars(owner)[attr]
                                      if isinstance(owner, type) else original))
                setattr(owner, attr, wrapper)
        # rebind names that other modules imported from the defining module
        for name, module in modules.items():
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = self._wrapped.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._seen_modules |= set(modules)
        return len(modules) == len(loaded)

    def _wrapper(self, name: str, fn):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name.append(index)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if note is not None:
                self.notes[span] = note(result)
            return result

        return wrapper

    # ---------------------------------------------------------- data

    def columns(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "notes": {str(k): v for k, v in self.notes.items()},
        }

    def merge(self, columns: dict, op: int) -> None:
        """Append spans recorded by another process under op id `op`."""
        base = len(self.start)
        remap = []
        for name in columns["names"]:
            index = self._name_index.setdefault(name, len(self.names))
            if index == len(self.names):
                self.names.append(name)
            remap.append(index)
        self.name.extend(remap[i] for i in columns["name"])
        self.start.extend(columns["start"])
        self.end.extend(columns["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in columns["parent"])
        self.op.extend(op for _ in columns["name"])
        for k, v in columns["notes"].items():
            self.notes[int(k) + base] = v

    def write(self, path: Path, extra: dict | None = None) -> None:
        payload = self.columns()
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _package_modules() -> dict:
    return {name: module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


class SpanTable:
    """Self times and parent links of a finished trace, indexed by span name."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        n = len(tracer.start)
        self.duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        covered = [0.0] * n
        self.by_name: dict[str, list[int]] = {name: [] for name in tracer.names}
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                covered[p] += self.duration[i]
            self.by_name[tracer.names[tracer.name[i]]].append(i)
        self.self_time = [self.duration[i] - covered[i] for i in range(n)]

    def spans(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def parent_name(self, span: int) -> str | None:
        p = self.tracer.parent[span]
        return self.tracer.names[self.tracer.name[p]] if p >= 0 else None

    def has_ancestor(self, span: int, name: str) -> bool:
        t = self.tracer
        p = t.parent[span]
        while p >= 0:
            if t.names[t.name[p]] == name:
                return True
            p = t.parent[p]
        return False
