"""In-memory spans recorded around calls into the engine's layers.

A span is (pass id, name, start, end, parent).  Spans are kept in memory
and written out when the run ends; a layer's self time is its duration
minus the part of it that its child spans cover.  ``NullTracer`` is what
the untraced (end-to-end) runs use, so they pay no recording cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    pass_id: str
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class NullTracer:
    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def begin_pass(self, pass_id: str) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pass_id = "setup"

    def begin_pass(self, pass_id: str) -> None:
        self._pass_id = pass_id

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self._pass_id, name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_time(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            kids = sorted((c.start, c.end) for c in self.spans if c.parent == i)
            covered, cur_end = 0.0, s.start
            for a, b in kids:
                a = max(a, cur_end)
                if b > a:
                    covered += b - a
                    cur_end = b
            total += (s.end - s.start) - covered
        return total

    def summary(self) -> dict:
        """Per span name: count, total and self seconds."""
        out: dict = {}
        for s in self.spans:
            e = out.setdefault(s.name, {"count": 0, "total_s": 0.0})
            e["count"] += 1
            e["total_s"] += s.end - s.start
        for name, e in out.items():
            e["self_s"] = self.self_time(name)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"summary": self.summary(),
                       "spans": [asdict(s) for s in self.spans]}, f)
