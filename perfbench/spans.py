"""In-memory span recorder and self-time arithmetic for the traced run.

A span is (name, start, end, parent, tag): `parent` is the index of the span
that was open when this one began, `tag` names the fit (model) that caused
it. Self time is a span's duration minus the part of its interval covered by
its child spans. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self.tag = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.tag])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_name, start, end, _parent, _tag) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def has_ancestor(spans: list, i: int, name: str, stop: str | None = None) -> bool:
    """True if a span called `name` encloses span i, with no `stop` span between."""
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        if spans[p][0] == stop:
            return False
        p = spans[p][3]
    return False
