"""In-memory spans for the traced benchmark run, and their self times.

A span is one call across a layer boundary: its name, start and end on the
`time.perf_counter` clock, the index of the span that was open when it
started (-1 for a root), and the id of the training run it belongs to.
Spans stay in a list while the benchmark runs and are written out once, at
the end, so that file IO never lands inside a measured interval.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int


class Tracer:
    """Records nested spans while `on` is true; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.on = False
        self.run = 0
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[k].start, reach)
            hi = min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def ancestors(spans: list[Span], index: int):
    """Yield the indices of the spans enclosing `index`, innermost first."""
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent
