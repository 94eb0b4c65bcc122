"""Span-based flight recorder with Chrome-trace export.

The *timeline* half of the observability plane.  A :class:`TraceRecorder`
is a bounded ring buffer of :class:`Span` tuples — name (the
``plane.component.phase`` scheme from DESIGN.md), plane, worker,
superstep, wall-clock start, duration.  Every process that records spans
uses ``time.time_ns()`` as the timebase, so driver and worker spans from
one run align on a common wall clock without any offset negotiation;
per-worker recorders ship their buffers over the engine's worker wires
and fold into the driver's recorder at the barrier
(:meth:`TraceRecorder.merge`).

The bounded buffer makes recording safe to leave on for long runs: once
``capacity`` spans are held the oldest are dropped (``dropped`` counts
them), like an aircraft flight recorder — the recent past is always
there, memory use is always bounded.

:class:`TraceResult` is the frozen, serialisable end product attached to
the uniform result objects: phase totals, a human summary table (with
the workers' compute overlap for a multiprocess run), classic
Prometheus exposition of the merged metrics, a JSON save/load round
trip, and :meth:`TraceResult.to_chrome_trace` — a ``chrome://tracing`` /
Perfetto-loadable event list with one timeline row per worker plus one
for the driver.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "TraceRecorder",
    "TraceResult",
    "Obs",
    "validate_chrome_trace",
]

#: Worker id used for driver-side (supervisor-side) spans.
DRIVER = -1


class Span(NamedTuple):
    """One recorded phase: ``plane.component.phase`` name plus tags.

    ``ts_ns`` is an absolute ``time.time_ns()`` wall-clock start (the
    cross-process common timebase); ``dur_ns`` the span length.  Worker
    ``-1`` means the driver/supervisor process.
    """

    name: str
    plane: str
    worker: int
    superstep: int
    ts_ns: int
    dur_ns: int

    @property
    def phase(self) -> str:
        """The trailing component of the dotted name."""
        return self.name.rpartition(".")[2]


class TraceRecorder:
    """Bounded ring buffer of spans (oldest dropped past ``capacity``)."""

    __slots__ = ("_spans", "recorded")

    def __init__(self, capacity: int = 65536):
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._spans)

    def record(
        self,
        name: str,
        start_ns: int,
        *,
        plane: str = "",
        worker: int = DRIVER,
        superstep: int = -1,
        end_ns: int = 0,
    ) -> None:
        """Append one span; ``end_ns`` defaults to *now*.

        The instrumented-site idiom is ``t0 = time.time_ns()`` before the
        phase and one ``record(name, t0, ...)`` call after it — two
        statements, both behind the ``if obs is not None`` gate.
        """
        end = end_ns or time.time_ns()
        self._spans.append(
            Span(name, plane, worker, superstep, start_ns, end - start_ns)
        )
        self.recorded += 1

    def snapshot(self) -> List[Span]:
        """The buffered spans, oldest first (buffer left intact)."""
        return list(self._spans)

    def take(self) -> List[Tuple[Any, ...]]:
        """Drain the buffer as plain tuples (the control-pipe wire form)."""
        spans = [tuple(span) for span in self._spans]
        self._spans.clear()
        return spans

    def merge(self, spans: Iterable[Tuple[Any, ...]]) -> None:
        """Fold shipped span tuples (a worker's :meth:`take`) back in."""
        for raw in spans:
            self._spans.append(Span(*raw))
            self.recorded += 1


class Obs:
    """The per-run observability context: one registry + one recorder.

    ``None`` is the disabled state everywhere — instrumented sites gate
    on ``if obs is not None`` so a run without ``trace=True`` never
    constructs, imports, or calls into this package (the zero-overhead
    contract, enforced by the counting-stub test).
    """

    __slots__ = ("metrics", "trace", "meta")

    def __init__(self, trace_capacity: int = 65536):
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder(trace_capacity)
        self.meta: Dict[str, Any] = {}

    def result(self, extra_meta: Mapping[str, Any] = None) -> "TraceResult":
        """Freeze the current state into a :class:`TraceResult`."""
        meta = dict(self.meta)
        if extra_meta:
            meta.update(extra_meta)
        return TraceResult(
            spans=tuple(self.trace.snapshot()),
            metrics=self.metrics.snapshot(),
            meta=meta,
            dropped_spans=self.trace.dropped,
        )


@dataclass(frozen=True)
class TraceResult:
    """A frozen recorded run: spans + merged metrics + run metadata."""

    spans: Tuple[Span, ...]
    metrics: Mapping[str, Any] = field(default_factory=dict)
    meta: Mapping[str, Any] = field(default_factory=dict)
    dropped_spans: int = 0

    # -- aggregation ---------------------------------------------------
    def phase_totals(self) -> Dict[str, float]:
        """Total seconds per span name, descending."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.dur_ns / 1e9
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def workers(self) -> List[int]:
        return sorted({span.worker for span in self.spans})

    def compute_overlap(self) -> Optional[float]:
        """Over the supersteps in which two or more workers have an
        ``engine.compute`` span: the time all of them computed, divided by
        the time the shortest one computed (1.0 = fully at once).  ``None``
        without such a superstep, and for any trace but a multiprocess
        run's: the in-process engine computes its shards one by one.
        """
        if self.meta.get("mode") != "multiprocess":
            return None
        steps: Dict[int, Dict[int, Span]] = {}
        for span in self.spans:
            if span.name == "engine.compute":  # a replayed step keeps its last
                steps.setdefault(span.superstep, {})[span.worker] = span
        together = shortest = 0
        for by_worker in steps.values():
            if len(by_worker) >= 2:
                spans = by_worker.values()
                end = min(span.ts_ns + span.dur_ns for span in spans)
                together += max(0, end - max(span.ts_ns for span in spans))
                shortest += min(span.dur_ns for span in spans)
        return together / shortest if shortest else None

    def summary(self) -> str:
        """A fixed-width per-phase table (count, total, mean, share)."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        totals = self.phase_totals()
        grand = sum(totals.values()) or 1.0
        lines = [f"{'span':<32}{'count':>8}{'total (s)':>12}{'mean (ms)':>12}{'share':>8}"]
        for name, total in totals.items():
            count = counts[name]
            lines.append(
                f"{name:<32}{count:>8}{total:>12.4f}"
                f"{1e3 * total / count:>12.3f}{100 * total / grand:>7.1f}%"
            )
        lines.append(
            f"{len(self.spans)} spans over {len(self.workers())} timelines"
            + (f" ({self.dropped_spans} dropped)" if self.dropped_spans else "")
        )
        overlap = self.compute_overlap()
        if overlap is not None:
            lines.append(f"worker compute overlap {100 * overlap:.1f}% "
                         "(all at once / the shortest one's compute)")
        return "\n".join(lines)

    # -- exports -------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """A ``chrome://tracing`` / Perfetto-loadable event object.

        One process row, one thread row per timeline: tid 0 is the
        driver, tid ``w + 1`` worker ``w``.  Timestamps are microseconds
        relative to the earliest span (Chrome renders absolute epoch
        nanoseconds poorly).
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": self.meta.get("mode", "repro run")},
            }
        ]
        for worker in self.workers():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": worker + 1,
                    "args": {
                        "name": "driver" if worker == DRIVER else f"worker-{worker}"
                    },
                }
            )
        origin_ns = min((span.ts_ns for span in self.spans), default=0)
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.plane or "run",
                    "ph": "X",
                    "pid": 0,
                    "tid": span.worker + 1,
                    "ts": (span.ts_ns - origin_ns) / 1e3,
                    "dur": span.dur_ns / 1e3,
                    "args": {"superstep": span.superstep},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_prometheus(self) -> str:
        """Classic text exposition of the merged metrics snapshot."""
        registry = MetricsRegistry()
        registry.merge(self.metrics)
        return registry.to_prometheus()

    # -- persistence ---------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "meta": dict(self.meta),
            "dropped_spans": self.dropped_spans,
            "metrics": self.metrics,
            "spans": [list(span) for span in self.spans],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "TraceResult":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != 1:
            raise ValueError(f"{path}: not a repro trace file (version 1)")
        return cls(
            spans=tuple(Span(*raw) for raw in payload.get("spans", [])),
            metrics=payload.get("metrics", {}),
            meta=payload.get("meta", {}),
            dropped_spans=payload.get("dropped_spans", 0),
        )


def validate_chrome_trace(obj: Any) -> None:
    """Schema-check a Chrome-trace export (raises ``ValueError``).

    Dependency-free stand-in for a JSON-Schema validator: checks the
    object layout chrome://tracing and Perfetto actually require —
    a ``traceEvents`` list of events with string ``name``/``ph`` and
    numeric ``pid``/``tid``, plus ``ts``/``dur`` on complete events.
    """
    if not isinstance(obj, dict):
        raise ValueError("chrome trace must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("chrome trace needs a non-empty traceEvents list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key, kinds in (
            ("name", str), ("ph", str), ("pid", (int,)), ("tid", (int,))
        ):
            if not isinstance(event.get(key), kinds):
                raise ValueError(f"traceEvents[{index}] field {key!r} invalid")
        if event["ph"] == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(
                        f"traceEvents[{index}] complete event missing {key!r}"
                    )
            if event["dur"] < 0:
                raise ValueError(f"traceEvents[{index}] negative duration")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"traceEvents[{index}] args must be an object")
