"""In-memory spans and call counters for the traced benchmark run.

Tracing is applied from outside the package: module attributes are patched
for the duration of a traced pass, and operator callables are wrapped on a
copy made with dataclasses.replace.  Calls at layer boundaries (commands,
problem loads, checkers, solves, the oracle) are kept as spans
``[name, start, end, parent, pass_id, child_seconds]``.  Hot leaf calls
(operator applies and potentials, the nonlinearity f) can number 10^5 per
pass, so they are aggregated per (pass, name, parent span name) instead.
Self time of a span is its duration minus the time of the spans and leaf
calls directly under it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        # (pass, name, parent name) -> [calls, seconds, units, bytes]
        self.leaves: dict[tuple[int, str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        # (pass, key) -> value recorded at a boundary (counts taken from results)
        self.values: dict[tuple[int, str], float] = defaultdict(float)
        self.pass_id = 0
        self.muted = False
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None) -> Callable:
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, self.pass_id, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
                if parent >= 0:
                    self.spans[parent][5] += rec[2] - rec[1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def leaf(
        self,
        name: str,
        fn: Callable,
        units: Callable[[tuple], float] | None = None,
        bytes_per_call: float = 0.0,
    ) -> Callable:
        def wrapped(*args):
            if self.muted:
                return fn(*args)
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                dt = time.perf_counter() - t0
                parent = self._stack[-1] if self._stack else -1
                agg = self.leaves[(self.pass_id, name, self.spans[parent][0] if parent >= 0 else "")]
                agg[0] += 1
                agg[1] += dt
                if units is not None:
                    agg[2] += units(args)
                agg[3] += bytes_per_call
                if parent >= 0:
                    self.spans[parent][5] += dt

        return wrapped

    def patch(self, module: Any, attr: str, replacement: Callable) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def patch_span(self, module: Any, attr: str, name: str, on_result=None) -> None:
        self.patch(module, attr, self.span(name, getattr(module, attr), on_result))

    def unpatch_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- per-pass aggregates -------------------------------------------------

    def span_stats(self, pass_id: int, prefix: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of spans whose name starts with prefix."""
        calls, total, own = 0, 0.0, 0.0
        for name, start, end, _, pid, child in self.spans:
            if pid == pass_id and name.startswith(prefix):
                calls += 1
                total += end - start
                own += end - start - child
        return calls, total, own

    def leaf_stats(self, pass_id: int, name: str, parent: str | None = None) -> list[float]:
        """[calls, seconds, units, bytes] of leaf calls, optionally under one parent span name."""
        out = [0.0, 0.0, 0.0, 0.0]
        for (pid, lname, pname), agg in self.leaves.items():
            if pid == pass_id and lname == name and (parent is None or pname == parent):
                out = [a + b for a, b in zip(out, agg)]
        return out

    def dump(self) -> dict[str, Any]:
        return {
            "spans_fields": ["name", "start_s", "end_s", "parent", "pass_id", "child_s"],
            "spans": self.spans,
            "leaves": [
                {"pass_id": pid, "name": name, "parent": parent, "calls": a[0], "seconds": a[1],
                 "units": a[2], "bytes": a[3]}
                for (pid, name, parent), a in self.leaves.items()
            ],
            "values": [{"pass_id": pid, "key": key, "value": v} for (pid, key), v in self.values.items()],
        }
