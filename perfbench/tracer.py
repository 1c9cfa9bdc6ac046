"""Span tracing around the package's public functions, from outside it.

No file of the package is edited.  `Tracer.install` replaces each listed
function, wherever a module of the package binds it (as a module attribute
or as a value of a module-level dict such as the CLI's stage table), with a
wrapper that records a span: name, start, end, parent span and process,
plus optional work counts taken from the call's arguments and result.

Spans are kept in memory.  Replicas farmed out through
`pipeline.parallel_map` run in forked workers; while tracing is on, each
task is routed through `_worker_entry`, which records the worker's spans
and returns them with the task's result, so the parent holds every span
when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: str
    name: str
    start: float      # time.perf_counter(); CLOCK_MONOTONIC, shared by forked workers
    end: float
    parent: str | None
    pid: int
    counts: dict | None


# The tracer that `_worker_entry` reports to.  Forked workers inherit it, and
# a task pickled by reference cannot carry it, so it lives at module level.
_ACTIVE: "Tracer | None" = None


def _worker_entry(task):
    key, parent, item = task
    tracer = _ACTIVE
    tracer.spans = []
    tracer.stack = [parent] if parent is not None else []
    result = tracer.tasks[key](item)
    return result, tracer.spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self.tasks: dict[int, object] = {}
        self._serial = 0
        self._undo: list[tuple[dict, str, object]] = []

    def _new_id(self) -> str:
        self._serial += 1
        return f"{os.getpid()}-{self._serial}"

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            counts = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    counts = {k: f(args, kwargs, out) for k, f in count.items()}
                return out
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       os.getpid(), counts))
        return traced

    def _parallel_map(self, original):
        @functools.wraps(original)
        def parallel_map(fn, items, threads):
            if threads <= 1:
                return original(fn, items, threads)
            key = len(self.tasks)
            self.tasks[key] = fn
            parent = self.stack[-1] if self.stack else None
            packed = original(_worker_entry, [(key, parent, it) for it in items],
                              threads)
            results = []
            for result, spans in packed:
                self.spans.extend(spans)
                results.append(result)
            return results
        return parallel_map

    def _replace_everywhere(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "umbrellaforest"
                                   or mod_name.startswith("umbrellaforest.")):
                continue
            space = vars(mod)
            for key, val in list(space.items()):
                if val is original:
                    self._undo.append((space, key, original))
                    space[key] = wrapped
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is original:
                            self._undo.append((val, k2, original))
                            val[k2] = wrapped

    def install(self, layers):
        """Wrap every (module, function, span name, count) in `layers`."""
        global _ACTIVE
        _ACTIVE = self
        for mod_name, func_name, span_name, count in layers:
            original = getattr(sys.modules[f"umbrellaforest.{mod_name}"], func_name)
            self._replace_everywhere(original, self._wrap(span_name, original, count))
        pipeline = sys.modules["umbrellaforest.pipeline"]
        original = pipeline.parallel_map
        self._replace_everywhere(original, self._parallel_map(original))

    def uninstall(self):
        global _ACTIVE
        for space, key, original in reversed(self._undo):
            space[key] = original
        self._undo.clear()
        _ACTIVE = None


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Busy time `<name>.s`, self time `<name>.self_s` and summed counts.

    A span's self time is its duration minus that of its direct children in
    the same process; children there run one after another, so their summed
    durations are the part of the parent's interval they cover.  Busy time
    adds up spans from every process, so it can exceed wall time.
    """
    by_id = {s.id: s for s in spans}
    covered: dict[str, float] = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.pid == s.pid:
            covered[p.id] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s.end - s.start
        out[f"{s.name}.s"] += dur
        out[f"{s.name}.self_s"] += dur - covered[s.id]
        for k, v in (s.counts or {}).items():
            out[k] += v
    return dict(out)


def count_under(spans: list[Span], name: str, ancestor_prefix: str) -> int:
    """Number of `name` spans with an ancestor whose name starts with the prefix."""
    by_id = {s.id: s for s in spans}
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and not p.name.startswith(ancestor_prefix):
            p = by_id.get(p.parent)
        n += p is not None
    return n
