"""In-memory spans around the benchmark's calls into majorchain.

A span records a name (``layer.function``), its start and end on the
``perf_counter_ns`` clock, the index of the span open around it, the op it
belongs to, and optional attributes such as the nodes a search took.  Spans
stay in memory until the run ends and are then written out as JSON lines.
Self time is a span's duration minus the durations of its direct children;
spans nest strictly because the benchmark is one thread.

Deterministic counters (search nodes, bytes written, call counts) are read
from span names and attributes, never from clocks, so they repeat exactly
across runs on the same inputs.

``NULL`` is the tracer of untraced runs: its spans record nothing.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer.open[-1] if tracer.open else -1
        tracer.spans.append([self.name, perf_counter_ns(), 0, parent, tracer.op_id, None])
        tracer.open.append(self.index)
        return self

    def note(self, **attrs) -> None:
        """Attach deterministic attributes (counts) to the span."""
        self.tracer.spans[self.index][5] = attrs

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = perf_counter_ns()
        tracer.open.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op_id = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def attrs(self, *names: str) -> list[dict]:
        """The attributes of every span with one of the given names."""
        return [span[5] or {} for span in self.spans if span[0] in names]

    def calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(1 for span in self.spans if span[0].startswith(prefix))

    def total_us(self, name: str) -> float:
        return sum(span[2] - span[1] for span in self.spans if span[0] == name) / 1e3

    def self_times_us(self) -> dict[str, list[float]]:
        """Self time of every span, in microseconds, grouped by name."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        grouped: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            grouped[name].append((end - start - child_ns[index]) / 1e3)
        return grouped

    def median_us(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.self_times_us().items()}

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def note(self, **attrs) -> None:
        pass


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = _NullTracer()
