"""Spans around calls into the layers of ``xpviews``, placed from outside.

A span is opened by a wrapper that replaces a function in the namespace
it is called from: ``xpviews.rewrite`` binds what it imports into its own
module, so its callees are wrapped there.  The package attribute
``xpviews.rewrite`` is the function of that name, so the module comes
from ``sys.modules``.

Spans at coarse boundaries (one per operation, rewrite, rule fixpoint,
plan evaluation, ...) are kept in memory and written out at the end.
Boundaries crossed once per view or per interleaving are only folded into
per-name totals and into the child time of the enclosing span, which keeps
the span list small.  Self time is a span's duration minus the time of
the spans it encloses.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent span index, operation]
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.operation = -1
        self._stack: list[list] = []  # [name, start_ns, child_ns, span index or -1]
        self._t0 = time.perf_counter_ns()

    def reset_totals(self) -> None:
        self.totals = {}
        self.counts = Counter()

    def _open(self, name: str, keep: bool) -> list:
        start = time.perf_counter_ns()
        index = -1
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, start, start, parent, self.operation])
        frame = [name, start, 0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, calls: int = 1) -> None:
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped is frame, "spans closed out of order"
        dur = end - frame[1]
        tot = self.totals.setdefault(frame[0], [0, 0, 0])
        tot[0] += calls
        tot[1] += dur
        tot[2] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end

    @contextmanager
    def span(self, name: str):
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn: Callable, keep: bool, count: Optional[Callable] = None) -> Callable:
        """``count(counts, result)`` records counters from the result."""

        def traced(*args, **kwargs):
            frame = self._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if count is not None:
                count(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time spent inside the generator, summed over its ``next`` calls;
        the time its consumer spends between them is not counted."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                frame = self._open(name, False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(frame, calls)
                    calls = 0
                self.counts[name + ".yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def ms(self, name: str, which: int = 1) -> float:
        """Total (``which=1``) or self (``which=2``) milliseconds of ``name``."""
        return self.totals.get(name, [0, 0, 0])[which] / 1e6

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def summary(self) -> dict:
        return {
            name: {"calls": c, "total_ms": round(t / 1e6, 3), "self_ms": round(s / 1e6, 3)}
            for name, (c, t, s) in sorted(self.totals.items())
        }

    def write(self, path: str, extra: dict) -> None:
        rows = [
            [name, round((s - self._t0) / 1e3, 1), round((e - self._t0) / 1e3, 1), parent, op]
            for name, s, e, parent, op in self.spans
        ]
        with open(path, "w") as f:
            json.dump(dict(extra, spans_fields=["name", "start_us", "end_us", "parent", "operation"], spans=rows), f)
            f.write("\n")


def _tree_result(counts: Counter, result) -> None:
    pattern, trace = result
    counts["rules.firings"] += len(trace)
    counts["rules.tree_results"] += int(hasattr(pattern, "is_tree") and pattern.is_tree())


def _images(counts: Counter, result) -> None:
    counts["containment.root_mapping.images"] += len(result)


def _unfold_nodes(counts: Counter, result) -> None:
    counts["pattern.unfold.nodes"] += len(getattr(result, "nodes", ()))


# (module, attribute, span name, kept as a span, counter)
INNER = [
    ("xpviews.pattern", "parse", "syntax.parse", False, None),
    ("xpviews.rewrite", "apply_rules", "rules.apply_rules", True, _tree_result),
    ("xpviews.rewrite", "root_mapping_out_images", "containment.root_mapping", False, _images),
    ("xpviews.rewrite", "tree_contains", "containment.tree_contains", False, None),
    ("xpviews.containment", "tree_contains", "containment.tree_contains", False, None),
    ("xpviews.rewrite", "dag_contained_in_tree", "containment.dag_contained_in_tree", True, None),
    ("xpviews.rewrite", "extended_skeleton", "fragments.extended_skeleton", False, None),
    ("xpviews.rewrite", "classify", "fragments.classify", False, None),
    ("xpviews.rewrite", "unfold_expr", "pattern.unfold_expr", True, _unfold_nodes),
    ("xpviews.rewrite", "compensate_expr", "pattern.compensate_expr", False, None),
]
GENERATORS = [("xpviews.interleaving", "interleavings", "interleaving.interleavings")]


@contextmanager
def patched(tracer: Tracer):
    """Install the inner wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, keep, count in INNER:
            mod = sys.modules[module]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), keep, count))
        for module, attr, name in GENERATORS:
            mod = sys.modules[module]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap_generator(name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
