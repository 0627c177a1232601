"""In-memory span tracer for collatzkit's public functions.

The tracer wraps every public function of every collatzkit module, plus
`Triplet.step_function`, and rebinds the wrapper under each name a module
imported the function by (`collatzkit.bounds.certified_sign`,
`collatzkit.dynamics.certified_sign`, ...), so calls between modules are
recorded at the layer boundary.  Each call becomes one span: name, start,
end, parent span and run id.  Spans stay in memory until `write` dumps them.

Pool workers of `verify_range` run `verify._scan_chunk`, which is private and
never wrapped: worker time is untraced and shows up only as the self time of
the `verify.verify_range` span that waited for it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

PACKAGE = "collatzkit"
MODULES = ("core", "dynamics", "families", "intervals", "bounds", "verify", "cli")
METHODS = (("core", "Triplet", "step_function"),)
WORKERS_NOTE = "pool workers run untraced (verify._scan_chunk is not wrapped)"


def _cycles_built(result) -> int:
    return len(result.cycles)


def _rows(result) -> int:
    return len(result.rows)


# Per-span notes kept for derived metrics: precision of a context or
# enclosure, precision a convergent expansion needed, rows and cycles returned.
NOTES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "intervals.make_context": lambda args, kwargs, result: args[0],
    "intervals.enclose": lambda args, kwargs, result: args[1],
    "intervals.certified_partial_quotients": lambda args, kwargs, result: result[1],
    "verify.save_checkpoint": lambda args, kwargs, result: os.path.getsize(args[1]),
    "bounds.r_infinity_bound": lambda args, kwargs, result: _rows(result),
    "bounds.farey_bound": lambda args, kwargs, result: _rows(result),
    "bounds.hurwitz_bound": lambda args, kwargs, result: _rows(result),
}
for _builder in ("build_ladder_family", "build_square_gap_family", "scale_cycles",
                 "build_dplus1_family", "build_mersenne_family", "build_two_power_family"):
    NOTES[f"families.{_builder}"] = lambda args, kwargs, result: _cycles_built(result)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.run_id = "untraced"
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording --------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid: int, parent: int, name: str, start: float, note=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(name, start, end, parent, self.run_id, note)

    def wrap(self, name: str, fn: Callable) -> Callable:
        note_of = NOTES.get(name)

        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = time.perf_counter()
            note = None
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(args, kwargs, result)
                return result
            finally:
                self._exit(sid, parent, name, start, note)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def op(self, name: str, note=None):
        """Record one benchmark operation as a root span."""
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start, note)

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers: dict[int, Callable] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        namespaces = list(mods.values()) + [importlib.import_module(PACKAGE)]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s is not None and s.parent >= 0:
                child_time[s.parent] += s.duration
        return [s.duration - child_time[i] if s is not None else 0.0
                for i, s in enumerate(spans)]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s is not None and s.parent >= 0:
                out[s.parent].append(i)
        return out

    def root_op(self, i: int) -> Optional[Span]:
        """The outermost benchmark operation span enclosing span i."""
        s = self.spans[i]
        while s is not None and s.parent >= 0:
            s = self.spans[s.parent]
        return s

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"note": WORKERS_NOTE}) + "\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run_id, "note": s.note}) + "\n")
