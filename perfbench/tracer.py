"""Spans recorded from outside the program, by timing shims.

A :class:`Tracer` replaces chosen functions and methods of the library with
wrappers that record one span per call — name, start, end, the span that
was open when the call began (its parent), and the benchmark region
(``"setup"`` or ``"timed"``) — and restores the originals on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.  Spans stay in
memory until the run writes them out.

Because the shims nest, a span's *self time* is its duration minus the
durations of its direct children, and the self times of every span in a
region plus the region's ``unattributed`` residual (wall time minus its
top-level spans) add up to the region's wall time exactly.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from statistics import median
from typing import Any, Callable, Dict, List, Optional

# A hook runs after the span closed (its cost lands in the parent span) and
# should only stash references; counting happens after the timed region.
Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self):
        #: ``[name, start_ns, end_ns, parent_index, region]`` per call.
        self.spans: List[list] = []
        #: Payloads stashed by hooks, keyed by span name.
        self.notes: Dict[str, list] = defaultdict(list)
        #: Region new spans are tagged with (``None`` outside the regions).
        self.region: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def shim(self, owner, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        """Wrap ``owner.attr`` (a module function or a class attribute)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, hook))
        else:
            wrapped = self._wrap(raw, name, hook)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, hook: Optional[Hook]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.region]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------
    def _self_ns(self) -> List[int]:
        own = [end - start for _n, start, end, _p, _r in self.spans]
        for _n, start, end, parent, _r in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str, region: Optional[str] = None) -> List[float]:
        """Inclusive seconds of every ``name`` span (in ``region``, if given)."""
        return [
            (end - start) / 1e9
            for span_name, start, end, _p, span_region in self.spans
            if span_name == name and (region is None or span_region == region)
        ]

    def self_times(self, name: str, region: Optional[str] = None) -> List[float]:
        """Self seconds of every ``name`` span (in ``region``, if given)."""
        own = self._self_ns()
        return [
            own[i] / 1e9
            for i, (span_name, _s, _e, _p, span_region) in enumerate(self.spans)
            if span_name == name and (region is None or span_region == region)
        ]

    def median_duration(self, name: str, region: Optional[str] = None) -> float:
        values = self.durations(name, region)
        return median(values) if values else 0.0

    def median_self(self, name: str, region: Optional[str] = None) -> float:
        values = self.self_times(name, region)
        return median(values) if values else 0.0

    def phase_table(self, region: str, wall_s: float) -> Dict[str, Any]:
        """Per-span-name calls / total / self seconds for one region.

        ``unattributed_s`` is the region's wall time minus its top-level
        spans, so ``sum(self_s) + unattributed_s == wall_s``.
        """
        own = self._self_ns()
        rows: Dict[str, Dict[str, float]] = {}
        top_ns = 0
        for i, (name, start, end, parent, span_region) in enumerate(self.spans):
            if span_region != region:
                continue
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += own[i] / 1e9
            if parent < 0:
                top_ns += end - start
        ordered = dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]))
        return {
            "wall_s": wall_s,
            "phases": ordered,
            "unattributed_s": wall_s - top_ns / 1e9,
        }

    def export(self) -> List[Dict[str, Any]]:
        """The spans as JSON-ready dicts (written out when the run ends)."""
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "region": r}
            for n, s, e, p, r in self.spans
        ]


def format_phase_table(title: str, table: Dict[str, Any]) -> str:
    """A fixed-width rendering of :meth:`Tracer.phase_table` output."""
    wall = table["wall_s"] or 1e-12
    lines = [
        title,
        f"  {'span':44s} {'calls':>7s} {'total s':>10s} {'self s':>10s} {'self %':>7s}",
    ]
    for name, row in table["phases"].items():
        lines.append(
            f"  {name:44s} {row['calls']:7d} {row['total_s']:10.4f} "
            f"{row['self_s']:10.4f} {100 * row['self_s'] / wall:6.1f}%"
        )
    unattributed = table["unattributed_s"]
    self_sum = sum(row["self_s"] for row in table["phases"].values())
    lines.append(
        f"  {'unattributed':44s} {'':7s} {'':10s} {unattributed:10.4f} "
        f"{100 * unattributed / wall:6.1f}%"
    )
    lines.append(
        f"  {'= wall (self sum + unattributed)':44s} {'':7s} {'':10s} "
        f"{self_sum + unattributed:10.4f} of {table['wall_s']:.4f} s"
    )
    return "\n".join(lines)
