"""Spans recorded from the benchmark's own files, around the calls into each layer.

A span is ``(name, start, end, parent, op_id)``; spans are kept in memory and
written out when the run ends.  A layer's *self time* is its span's duration
minus the part its direct children cover, so the self times of one op's spans
partition the op's root span exactly.

:class:`TimedSource` and :class:`TimedHBase` are the two proxies that put a
span around calls the harness cannot reach from outside (the feature reads
inside ``FeaturePlanExecutor.assemble`` and the puts inside
``StreamingFeatureUpdater.observe_request``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.features.plan import EmbeddingBlockSpec, FeatureSource

#: Field positions of a recorded span.
NAME, START, END, PARENT, OP_ID = range(5)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        self._index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(self._index)
        tracer.spans.append([self._name, time.perf_counter(), 0.0, parent, tracer.op_id])

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.spans[self._index][END] = end
        tracer._stack.pop()


class Tracer:
    """In-memory span recorder; ``op_id`` tags every span of the current op."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op_id = -1
        #: Work counts taken at the same boundaries as the spans.
        self.counts: Dict[str, float] = defaultdict(float)

    def span(self, name: str) -> _SpanContext:
        return _SpanContext(self, name)

    def mark(self) -> int:
        """Position to pass to :func:`self_times` to read only later spans."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


def empty_span_cost_s(samples: int = 2000) -> float:
    """Measured cost of recording one span (for ``trace.overhead_fraction``)."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


def self_times(spans: Sequence[Sequence], start: int = 0, stop: Optional[int] = None) -> Dict[str, float]:
    """Total self time per span name over ``spans[start:stop]``.

    Self time = the span's duration minus the summed durations of its direct
    children.  Children of one parent never overlap (the tracer is a stack),
    so the subtraction is exact; grandchildren are accounted to their own
    parent, never twice.
    """
    stop = len(spans) if stop is None else stop
    child_time: Dict[int, float] = defaultdict(float)
    for index in range(start, stop):
        span = spans[index]
        parent = span[PARENT]
        if parent >= start:
            child_time[parent] += span[END] - span[START]
    totals: Dict[str, float] = defaultdict(float)
    for index in range(start, stop):
        span = spans[index]
        totals[span[NAME]] += (span[END] - span[START]) - child_time.get(index, 0.0)
    return dict(totals)


class TimedSource(FeatureSource):
    """A :class:`FeatureSource` that records one span (and a row count) per read."""

    def __init__(self, inner: FeatureSource, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def profiles_for(self, user_ids: Sequence[str]):
        with self._tracer.span("hbase.profile_read"):
            result = self._inner.profiles_for(user_ids)
        self._tracer.counts["hbase.rows_read"] += len(result)
        return result

    def embedding_matrix(self, block: EmbeddingBlockSpec, user_ids: Sequence[str]) -> np.ndarray:
        with self._tracer.span("hbase.embedding_read"):
            result = self._inner.embedding_matrix(block, user_ids)
        self._tracer.counts["hbase.rows_read"] += len(set(user_ids))
        return result

    def aggregate_rows(self, user_ids: Sequence[str]) -> Dict[str, Mapping[str, object]]:
        with self._tracer.span("hbase.aggregate_read"):
            result = self._inner.aggregate_rows(user_ids)
        self._tracer.counts["hbase.rows_read"] += len(result)
        return result


class TimedHBase:
    """Delegates to an ``HBaseClient``; ``put`` and ``bulk_load`` record spans."""

    def __init__(self, inner: object, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)

    def put(self, *args: object, **kwargs: object) -> None:
        with self._tracer.span("hbase.put"):
            self._inner.put(*args, **kwargs)
        self._tracer.counts["hbase.rows_written"] += 1

    def bulk_load(self, *args: object, **kwargs: object) -> int:
        with self._tracer.span("hbase.bulk_load"):
            return self._inner.bulk_load(*args, **kwargs)
