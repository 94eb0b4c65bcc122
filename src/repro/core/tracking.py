"""Community evolution tracking across dynamic snapshots.

The paper's motivation is to *monitor the evolution of communities* upon
graph updates (Section I).  The detector maintains the label state; this
module adds the monitoring layer on top: matching the covers extracted at
consecutive points in time and classifying what happened to each community
— continuation, growth/shrinkage, birth, death, merge, and split.

Matching uses maximum Jaccard overlap with a threshold, the standard
approach in the community-evolution literature (e.g. Greene et al. 2010),
which fits the paper's streaming operating mode (Section V-B3: update
continuously, extract periodically).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.communities import Cover
from repro.utils.validation import check_fraction

__all__ = [
    "CommunityEvent",
    "TransitionReport",
    "match_covers",
    "assign_stable_ids",
    "CommunityTracker",
]


def _jaccard(a: FrozenSet[int], b: FrozenSet[int]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@dataclass(frozen=True)
class CommunityEvent:
    """One lifecycle event between two consecutive extractions.

    ``kind`` is one of ``continued``, ``grown``, ``shrunk``, ``born``,
    ``died``, ``merged``, ``split``.  ``before``/``after`` hold the indices
    of the involved communities in the old/new cover.
    """

    kind: str
    before: Tuple[int, ...]
    after: Tuple[int, ...]
    similarity: float = 0.0


@dataclass
class TransitionReport:
    """All events between two covers, plus a continuity score."""

    events: List[CommunityEvent] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[CommunityEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def num_born(self) -> int:
        return len(self.of_kind("born"))

    @property
    def num_died(self) -> int:
        return len(self.of_kind("died"))

    def continuity(self) -> float:
        """Mean match similarity over surviving communities (1.0 = frozen)."""
        survivors = [
            e.similarity
            for e in self.events
            if e.kind in ("continued", "grown", "shrunk")
        ]
        if not survivors:
            return 0.0
        return sum(survivors) / len(survivors)

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        parts = [f"{kind}={count}" for kind, count in sorted(counts.items())]
        return ", ".join(parts) if parts else "no communities"


def match_covers(
    old: Cover,
    new: Cover,
    match_threshold: float = 0.3,
    drift_tolerance: float = 0.1,
) -> TransitionReport:
    """Classify the transition from ``old`` to ``new``.

    A new community matches the old one with which it has the largest
    Jaccard overlap, provided it clears ``match_threshold``.  Old
    communities matched by several new ones are *splits*; new communities
    that are the best match of several old ones are *merges*.  Surviving
    matches are classified by relative size change against
    ``drift_tolerance``.
    """
    check_fraction(match_threshold, "match_threshold")
    if not 0 <= drift_tolerance < 1:
        raise ValueError(f"drift_tolerance must be in [0, 1), got {drift_tolerance}")

    report = TransitionReport()

    # Score only the (old, new) pairs that share a vertex, found through the
    # new cover's vertex -> community index: a disjoint pair has Jaccard 0
    # and can never clear the positive threshold.  Candidates are scanned
    # in ascending index order with a strict ``>``, so ties go to the lowest
    # index, and ``k / (|a| + |b| - k)`` divides the same integers as
    # ``|a & b| / |a | b|``: the events equal an all-pairs scan's.
    new_sizes = [len(new_c) for new_c in new]
    bwd_old = [-1] * len(new)  # new j -> best old i so far
    bwd_sim = [0.0] * len(new)
    fwd: Dict[int, Tuple[int, float]] = {}  # old i -> best new j
    for i, old_c in enumerate(old):
        shared = Counter(chain.from_iterable(map(new.memberships_of, old_c)))
        best_j, best_sim = -1, 0.0
        old_size = len(old_c)
        for j in sorted(shared):
            k = shared[j]
            sim = k / (old_size + new_sizes[j] - k)
            if sim > best_sim:
                best_j, best_sim = j, sim
            if sim > bwd_sim[j]:
                bwd_old[j], bwd_sim[j] = i, sim
        if best_sim >= match_threshold:
            fwd[i] = (best_j, best_sim)
    bwd: Dict[int, Tuple[int, float]] = {
        j: (bwd_old[j], bwd_sim[j])
        for j in range(len(new))
        if bwd_sim[j] >= match_threshold
    }

    consumed_old: set = set()
    consumed_new: set = set()

    # Merges: several old communities all point at the same new one.
    merge_groups: Dict[int, List[int]] = {}
    for i, (j, _sim) in fwd.items():
        merge_groups.setdefault(j, []).append(i)
    for j, olds in sorted(merge_groups.items()):
        if len(olds) > 1:
            sim = max(fwd[i][1] for i in olds)
            report.events.append(
                CommunityEvent("merged", tuple(sorted(olds)), (j,), sim)
            )
            consumed_old.update(olds)
            consumed_new.add(j)

    # Splits: several new communities all point back at the same old one.
    split_groups: Dict[int, List[int]] = {}
    for j, (i, _sim) in bwd.items():
        if j not in consumed_new:
            split_groups.setdefault(i, []).append(j)
    for i, news in sorted(split_groups.items()):
        if i in consumed_old:
            continue
        if len(news) > 1:
            sim = max(bwd[j][1] for j in news)
            report.events.append(
                CommunityEvent("split", (i,), tuple(sorted(news)), sim)
            )
            consumed_old.add(i)
            consumed_new.update(news)

    # Survivals: remaining forward matches.
    for i, (j, sim) in sorted(fwd.items()):
        if i in consumed_old or j in consumed_new:
            continue
        old_size, new_size = len(old[i]), len(new[j])
        if new_size > old_size * (1 + drift_tolerance):
            kind = "grown"
        elif new_size < old_size * (1 - drift_tolerance):
            kind = "shrunk"
        else:
            kind = "continued"
        report.events.append(CommunityEvent(kind, (i,), (j,), sim))
        consumed_old.add(i)
        consumed_new.add(j)

    # Everything unmatched is a death (old side) or birth (new side).
    for i in range(len(old)):
        if i not in consumed_old:
            report.events.append(CommunityEvent("died", (i,), ()))
    for j in range(len(new)):
        if j not in consumed_new:
            report.events.append(CommunityEvent("born", (), (j,)))

    return report


def assign_stable_ids(
    old: Cover,
    old_ids: Sequence[int],
    new: Cover,
    next_id: int,
    match_threshold: float = 0.3,
    drift_tolerance: float = 0.1,
) -> Tuple[Tuple[int, ...], int, TransitionReport]:
    """Carry stable community ids from ``old`` (labelled ``old_ids``) to ``new``.

    The matching is :func:`match_covers`; ids flow along its events —
    survivors inherit, a merge target inherits from its closest constituent,
    a split's closest child keeps the parent's id while its siblings are
    births, and every unmatched new community draws a fresh id from
    ``next_id`` upward.  Returns ``(new_ids, next_id, report)`` with
    ``new_ids[j]`` the stable id of ``new[j]``; ids of died/absorbed
    communities are retired, never reused.

    This is what gives the service layer's query plane identity across
    extractions: ``members(cid)`` keeps answering for the same sociological
    community even as its membership drifts.
    """
    if len(old_ids) != len(old):
        raise ValueError(
            f"old_ids has {len(old_ids)} entries for {len(old)} communities"
        )
    report = match_covers(
        old,
        new,
        match_threshold=match_threshold,
        drift_tolerance=drift_tolerance,
    )
    new_ids: List[Optional[int]] = [None] * len(new)

    def closest(candidates: Sequence[int], target: FrozenSet[int], side: Cover) -> int:
        # Deterministic tie-break: highest Jaccard, then lowest index.
        return max(candidates, key=lambda idx: (_jaccard(side[idx], target), -idx))

    for event in report.events:
        if event.kind in ("continued", "grown", "shrunk"):
            new_ids[event.after[0]] = old_ids[event.before[0]]
        elif event.kind == "merged":
            j = event.after[0]
            new_ids[j] = old_ids[closest(event.before, new[j], old)]
        elif event.kind == "split":
            i = event.before[0]
            new_ids[closest(event.after, old[i], new)] = old_ids[i]
    for j in range(len(new)):
        if new_ids[j] is None:
            new_ids[j] = next_id
            next_id += 1
    return tuple(new_ids), next_id, report


class CommunityTracker:
    """Rolling tracker: feed covers over time, receive transition reports.

    >>> tracker = CommunityTracker()
    >>> first = tracker.observe(Cover([{0, 1, 2}]))
    >>> first is None   # nothing to compare against yet
    True
    >>> report = tracker.observe(Cover([{0, 1, 2, 3}]))
    >>> report.summary()
    'grown=1'
    """

    def __init__(self, match_threshold: float = 0.3, drift_tolerance: float = 0.1):
        self.match_threshold = match_threshold
        self.drift_tolerance = drift_tolerance
        self.history: List[Cover] = []
        self.reports: List[TransitionReport] = []

    @property
    def current(self) -> Optional[Cover]:
        return self.history[-1] if self.history else None

    def observe(self, cover: Cover) -> Optional[TransitionReport]:
        """Record a new extraction; returns the transition from the last one."""
        previous = self.current
        self.history.append(cover)
        if previous is None:
            return None
        report = match_covers(
            previous,
            cover,
            match_threshold=self.match_threshold,
            drift_tolerance=self.drift_tolerance,
        )
        self.reports.append(report)
        return report

    def lifetime_of(self, vertex: int) -> List[Tuple[int, int]]:
        """``(snapshot index, membership count)`` history for one vertex."""
        return [
            (idx, len(cover.memberships_of(vertex)))
            for idx, cover in enumerate(self.history)
        ]
