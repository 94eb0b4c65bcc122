"""Community evolution tracking across dynamic snapshots.

The paper's motivation is to *monitor the evolution of communities* upon
graph updates (Section I).  The detector maintains the label state; this
module adds the monitoring layer on top: matching the covers extracted at
consecutive points in time and classifying what happened to each community
— continuation, growth/shrinkage, birth, death, merge, and split.

Matching uses maximum Jaccard overlap with a threshold, the standard
approach in the community-evolution literature (e.g. Greene et al. 2010),
which fits the paper's streaming operating mode (Section V-B3: update
continuously, extract periodically).  It runs as a join over the two
covers' membership columns (:func:`best_matches`): only community pairs
that share a vertex are counted, each once, and every row's and column's
best partner is one segmented reduction, so no per-community Python runs
before the event pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.communities import Cover
from repro.utils.validation import check_fraction

__all__ = [
    "CommunityEvent",
    "TransitionReport",
    "BestMatches",
    "best_matches",
    "check_matcher",
    "match_covers",
    "assign_stable_ids",
    "CommunityTracker",
]

_SURVIVAL_KINDS = ("continued", "grown", "shrunk")


def check_matcher(match_threshold: float, drift_tolerance: float) -> None:
    """Raise ``ValueError`` unless the matcher's two thresholds are valid:
    ``match_threshold`` in (0, 1) and ``drift_tolerance`` in [0, 1)."""
    check_fraction(match_threshold, "match_threshold")
    if not 0 <= drift_tolerance < 1:
        raise ValueError(f"drift_tolerance must be in [0, 1), got {drift_tolerance}")


class CommunityEvent(NamedTuple):
    """One lifecycle event between two consecutive extractions.

    ``kind`` is one of ``continued``, ``grown``, ``shrunk``, ``born``,
    ``died``, ``merged``, ``split``.  ``before``/``after`` hold the indices
    of the involved communities in the old/new cover.  A named tuple: a
    transition builds one per community, and a frozen dataclass costs ~10x
    as much to construct.
    """

    kind: str
    before: Tuple[int, ...]
    after: Tuple[int, ...]
    similarity: float = 0.0


@dataclass
class TransitionReport:
    """All events between two covers, plus a continuity score."""

    events: List[CommunityEvent] = field(default_factory=list)
    #: The best-match table the events were read from (``None`` for a
    #: report built by hand); :func:`assign_stable_ids` reads it.
    matches: Optional["BestMatches"] = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True, eq=False)
class BestMatches:
    """Every community's best Jaccard partner on the other side.

    ``fwd[i]`` is the new community with the largest Jaccard overlap with
    old community ``i`` (the lowest index among ties) and ``fwd_sim[i]``
    that overlap; ``bwd``/``bwd_sim`` are the same per new community.  A
    community that shares no vertex with the other side has partner −1 and
    similarity 0.0.
    """

    fwd: np.ndarray
    fwd_sim: np.ndarray
    bwd: np.ndarray
    bwd_sim: np.ndarray


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(range(s, s + c) for s, c in zip(starts, counts))``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


def _shared_counts(old: Cover, new: Cover) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, |old[i] & new[j]|)`` for every pair sharing a vertex, by ``(i, j)``.

    Each vertex in both covers contributes the cross product of its old and
    its new communities; counting the pair keys ``i * len(new) + j`` gives
    each intersection size.
    """
    old_vertices, old_offsets, old_cids = old.by_vertex()
    new_vertices, new_offsets, new_cids = new.by_vertex()
    _shared, a, b = np.intersect1d(
        old_vertices, new_vertices, assume_unique=True, return_indices=True
    )
    per_old = old_offsets[a + 1] - old_offsets[a]
    per_new = new_offsets[b + 1] - new_offsets[b]
    old_entries = _expand(old_offsets[a], per_old)
    partners = np.repeat(per_new, per_old)
    i = np.repeat(old_cids[old_entries], partners)
    j = new_cids[_expand(np.repeat(new_offsets[b], per_old), partners)]
    keys, shared = np.unique(i * len(new) + j, return_counts=True)
    i, j = np.divmod(keys, max(len(new), 1))
    return i, j, shared


def best_matches(old: Cover, new: Cover) -> BestMatches:
    """Each community's best Jaccard partner across the two covers.

    The similarity of a pair sharing ``k`` vertices is
    ``k / (|a| + |b| - k)`` in float64: the correctly rounded division of
    ``|a & b|`` by ``|a | b|``.  A disjoint pair has Jaccard 0 and can
    never clear a positive threshold, so only the sharing pairs are scored,
    and ties go to the lowest index, as an all-pairs scan in index order
    with a strict ``>`` would pick.
    """
    fwd = np.full(len(old), -1, dtype=np.int64)
    fwd_sim = np.zeros(len(old))
    bwd = np.full(len(new), -1, dtype=np.int64)
    bwd_sim = np.zeros(len(new))
    i, j, shared = _shared_counts(old, new)
    if shared.size:
        sim = shared / (np.diff(old.indptr)[i] + np.diff(new.indptr)[j] - shared)
        # Rows: the pairs are sorted by i, so each row is one segment.
        start = np.ones(i.size, dtype=bool)
        start[1:] = i[1:] != i[:-1]
        starts = np.flatnonzero(start)
        top = np.maximum.reduceat(sim, starts)
        hit = sim == np.repeat(top, np.diff(np.append(starts, sim.size)))
        first = np.minimum.reduceat(np.where(hit, np.arange(sim.size), sim.size), starts)
        fwd[i[starts]], fwd_sim[i[starts]] = j[first], top
        # Columns: scattered, so reduce with ``ufunc.at``.
        np.maximum.at(bwd_sim, j, sim)
        hit = sim == bwd_sim[j]
        bwd[:] = len(old)
        np.minimum.at(bwd, j[hit], i[hit])
        bwd[bwd_sim == 0.0] = -1
    return BestMatches(fwd, fwd_sim, bwd, bwd_sim)


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
    ``drift_tolerance``.  The report carries the :class:`BestMatches` it
    was read from.
    """
    check_matcher(match_threshold, drift_tolerance)
    m = best_matches(old, new)
    events: List[CommunityEvent] = []
    fwd_ok = m.fwd_sim >= match_threshold
    bwd_ok = m.bwd_sim >= match_threshold
    consumed_old = np.zeros(len(old), dtype=bool)
    consumed_new = np.zeros(len(new), dtype=bool)

    # Merges: several old communities all point at the same new one.
    olds = np.flatnonzero(fwd_ok)
    targets = m.fwd[olds]
    for j in np.flatnonzero(np.bincount(targets, minlength=len(new)) > 1).tolist():
        group = olds[targets == j]
        events.append(CommunityEvent(
            "merged", tuple(group.tolist()), (j,), float(m.fwd_sim[group].max())
        ))
        consumed_old[group] = True
        consumed_new[j] = True

    # Splits: several new communities all point back at the same old one.
    news = np.flatnonzero(bwd_ok & ~consumed_new)
    parents = m.bwd[news]
    splits = (np.bincount(parents, minlength=len(old)) > 1) & ~consumed_old
    for i in np.flatnonzero(splits).tolist():
        group = news[parents == i]
        events.append(CommunityEvent(
            "split", (i,), tuple(group.tolist()), float(m.bwd_sim[group].max())
        ))
        consumed_old[i] = True
        consumed_new[group] = True

    # Survivals: remaining forward matches.  Every new community two old
    # ones point at is a merge target by now, so no two survivors share one.
    survivors = np.flatnonzero(fwd_ok & ~consumed_old)
    survivors = survivors[~consumed_new[m.fwd[survivors]]]
    targets = m.fwd[survivors]
    old_size = np.diff(old.indptr)[survivors]
    new_size = np.diff(new.indptr)[targets]
    kinds = (new_size > old_size * (1 + drift_tolerance)) + 2 * (
        new_size < old_size * (1 - drift_tolerance)
    )
    events.extend(
        CommunityEvent(_SURVIVAL_KINDS[kind], (i,), (j,), sim)
        for i, j, kind, sim in zip(
            survivors.tolist(), targets.tolist(), kinds.tolist(),
            m.fwd_sim[survivors].tolist(),
        )
    )
    consumed_old[survivors] = True
    consumed_new[targets] = True

    # Everything unmatched is a death (old side) or birth (new side).
    events.extend(
        CommunityEvent("died", (i,), ()) for i in np.flatnonzero(~consumed_old).tolist()
    )
    events.extend(
        CommunityEvent("born", (), (j,)) for j in np.flatnonzero(~consumed_new).tolist()
    )
    return TransitionReport(events, matches=m)


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

    "Closest" is the highest Jaccard overlap with the merge target (split
    parent), then the lowest index.  Every merge constituent's best match
    is the target, and every split child's best match the parent, so the
    report's :class:`BestMatches` already holds each candidate's overlap.

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
    fwd_sim = report.matches.fwd_sim.tolist()
    bwd_sim = report.matches.bwd_sim.tolist()
    new_ids: List[Optional[int]] = [None] * len(new)

    def closest(candidates: Sequence[int], sims: List[float]) -> int:
        return max(candidates, key=lambda idx: (sims[idx], -idx))

    for event in report.events:
        if event.kind in _SURVIVAL_KINDS:
            new_ids[event.after[0]] = old_ids[event.before[0]]
        elif event.kind == "merged":
            new_ids[event.after[0]] = old_ids[closest(event.before, fwd_sim)]
        elif event.kind == "split":
            new_ids[closest(event.after, bwd_sim)] = old_ids[event.before[0]]
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
