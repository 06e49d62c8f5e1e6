"""Tracing from outside the program: wrappers that replace public functions
of `thermoclass` modules in this process, record one span per call (name,
start, end, parent, operation) in memory, and count the work each call did.

Nothing under `src/` is edited. A forked pool worker inherits the wrappers
but records nothing, since its spans could not reach this process.
"""

from __future__ import annotations

import gzip
import inspect
import os
import time
from collections import defaultdict


class Tracer:
    """Spans and counts of the traced calls in this process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # (name id, start, end, parent span index or -1, operation id)
        self.spans = []
        self.counts = defaultdict(int)
        self.operation = 0
        self._stack = []
        self._recording = True
        self._installed = []
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self._recording = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        """A wrapper of `fn` that records a span per call.

        `name` is a string, or a function of the bound arguments that returns
        one. `count(bound, result)` returns {counter: amount} to add.
        """
        sig = inspect.signature(fn) if callable(name) or count else None
        fixed_id = None if callable(name) else self._name_id(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            name_id = fixed_id if fixed_id is not None else self._name_id(name(bound))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.operation)
            if count is not None:
                for key, amount in count(bound, result).items():
                    self.counts[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name=None, count=None) -> None:
        """Replace `module.attr` by its traced wrapper until `uninstall`."""
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name or f"{module.__name__.rpartition('.')[2]}.{attr}",
                                        original, count))

    def replace(self, module, attr: str, value) -> None:
        """Set `module.attr` to `value` until `uninstall`."""
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV, times in seconds from the first span."""
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,operation,name,start_s,end_s\n")
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{parent},{op},{self.names[name_id]},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[index]]
        result.append((end - start) - covered([(s, e) for s, e in inside if e > s]))
    return result


def aggregate(names, spans) -> dict:
    """Per span name: calls, busy_s and self_s.

    busy_s sums the durations of the spans with no ancestor of the same name,
    so a function that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
    for index, (name_id, start, end, parent, _) in enumerate(spans):
        entry = out[names[name_id]]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return out
