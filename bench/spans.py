"""Spans recorded from outside the program, by wrapping module attributes.

A span is (name, start, end, parent, op): `parent` is the index of the span
open when it started (-1 for none) and `op` identifies the benchmark
operation it belongs to. Spans stay in memory until `write`.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from typing import Any, Callable

Span = tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[str | None], str],
        note: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> None:
        """Replace `owner.attr` with a wrapper recording a span per call.

        `name` may be a function of the enclosing span's name, for a call
        site whose calls belong to different layers. `note` sees each
        call's args and result, to count work where it happens.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent, parent_name = stack[-1] if stack else (-1, None)
            label = name if isinstance(name, str) else name(parent_name)
            spans.append(None)
            stack.append((idx, label))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)
            if note is not None:
                note(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """All spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], reach, start), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        row = out[span[0]]
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += own
    return out
