"""Mergeable process-local metrics: counters, gauges, log-bucket histograms.

The registry is the *numbers* half of the observability plane (the
*timeline* half is :mod:`repro.obs.trace`).  Three instrument kinds, all
name-addressed with the ``plane.component.phase`` scheme from DESIGN.md:

* :class:`Counter` — monotonically increasing totals (bytes on the wire,
  segment growths, records shipped);
* :class:`Gauge` — last-written level (ingest queue depth, coalescing
  ratio);
* :class:`Histogram` — value distributions over **fixed log-scale
  buckets** (powers of two from 2^-20 to 2^30), so WAL fsync latencies
  and staleness-at-serve distributions from different workers always
  share bucket boundaries and fold together exactly.

Each process owns its own :class:`MetricsRegistry`; per-worker snapshots
(:meth:`MetricsRegistry.snapshot`, a plain picklable/JSON-able dict)
are folded into the driver's view at the barrier with
:meth:`MetricsRegistry.merge` — counters and histogram buckets add,
gauges take the last write.  :meth:`MetricsRegistry.to_prometheus`
renders the classic text exposition format for scraping or diffing.

Zero-overhead contract: nothing in the hot loops ever *imports* or
*calls* this module unless tracing was requested — instrumented sites
gate on ``if obs is not None`` (see DESIGN.md, "Observability").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Fixed log-scale histogram bucket upper bounds: 2^-20 .. 2^30.  The
#: range covers sub-microsecond timings (seconds) up to gigabyte byte
#: counts with one shared ruler, so snapshots always merge bucket-wise.
BUCKET_BOUNDS = tuple(2.0 ** exp for exp in range(-20, 31))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A value distribution over the fixed log-scale buckets.

    ``buckets[i]`` counts observations ``v`` with ``v <= BUCKET_BOUNDS[i]``
    (and ``> BUCKET_BOUNDS[i-1]``); the final slot is the overflow bucket.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


def _sparse(buckets: List[int]) -> Dict[int, int]:
    return {i: c for i, c in enumerate(buckets) if c}


class MetricsRegistry:
    """Name → instrument map with snapshot/merge and text exposition."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors ---------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view: picklable for a worker's wire, JSON-able
        for :meth:`TraceResult.save`, and the input of :meth:`merge`."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                    "buckets": _sparse(h.buckets),
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins).  Bucket keys arrive as ints off the
        pipe and as strings after a JSON round trip; both are accepted.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).value = value
        for name, view in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            hist.count += view["count"]
            hist.sum += view["sum"]
            for bound in ("min", "max"):
                incoming = view.get(bound)
                if incoming is None:
                    continue
                current = getattr(hist, bound)
                pick = min if bound == "min" else max
                setattr(
                    hist,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )
            for index, count in view.get("buckets", {}).items():
                hist.buckets[int(index)] += count

    # -- exposition -----------------------------------------------------
    def to_prometheus(self, prefix: str = "repro") -> str:
        """Classic Prometheus text exposition of the current state."""
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(gauge.value)}")
        for name, hist in sorted(self._histograms.items()):
            metric = _prom_name(prefix, name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index, bound in enumerate(BUCKET_BOUNDS):
                cumulative += hist.buckets[index]
                if hist.buckets[index]:
                    lines.append(
                        f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                    )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{metric}_sum {_prom_value(hist.sum)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(prefix: str, name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{safe}" if prefix else safe


def _prom_value(value: float) -> str:
    # Integral floats render without the trailing ".0" Prometheus's
    # parser tolerates but humans diffing expositions do not expect.
    if isinstance(value, float) and value.is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(value)
