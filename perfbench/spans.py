"""In-memory spans recorded by the benchmark around its calls into ncsym.

A span is (name, start, end, parent, request, out): `parent` is the index of
the enclosing span or -1, `request` the identifier shared by every span of one
request, `out` a size count of the call's result (terms, words, tableaux).
Nothing here touches the library; the spans sit at the benchmark's own call
sites, so they measure each module's public functions from outside.  Start
and end are read from the workload's CPU clock (see `Workload.clock`).
"""
from __future__ import annotations

import json


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request: str | None = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.request, 0])
        self._open.append(idx)
        return idx

    def end(self, idx: int, out: int = 0) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = out
        self._open.pop()

    def wrap(self, name: str, fn, out=None):
        """`fn` with a span around each call; `out(result)` gives the size count."""

        def traced(*args):
            idx = self.begin(name)
            try:
                result = fn(*args)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, out(result) if out is not None else 0)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds (self time), durations, summed out."""
        table: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(
                span[0], {"calls": 0, "busy_s": 0.0, "durations": [], "out": 0}
            )
            row["calls"] += 1
            row["busy_s"] += own
            row["durations"].append(span[2] - span[1])
            row["out"] += span[5]
        return table

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, out in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "out": out,
                        }
                    )
                    + "\n"
                )
