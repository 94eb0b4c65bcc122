"""The retired frozenset covers and matcher, kept as the tracking oracle.

:mod:`repro.core.communities` stores a cover as two CSR arrays, and
:mod:`repro.core.tracking` matches two covers as a join over their
membership columns.  Before that, a cover was a tuple of frozensets with a
dict membership index, the matcher built one ``Counter`` per old community,
and :class:`~repro.service.index.MembershipIndex` unpacked the frozensets
into two dicts.  That code is an independent second implementation of the
same canonical order, lifecycle events and stable ids, so the tests keep it
here to pin the array path exactly.  Everything below is the retired code
moved verbatim, with one edit: :class:`CommunityEvent` and
:class:`TransitionReport` are imported from the library (the datatypes did
not change), so reports from either side compare with ``==``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.tracking import CommunityEvent, TransitionReport
from repro.metrics.entropy import size_entropy_from_sizes
from repro.utils.validation import check_fraction

__all__ = ["Cover", "match_covers", "assign_stable_ids", "MembershipIndex"]


# ----------------------------------------------------------------------
# repro.core.communities
# ----------------------------------------------------------------------
class Cover:
    """An overlapping community assignment.

    >>> cover = Cover([{0, 1, 2}, {2, 3}])
    >>> sorted(cover.memberships_of(2))
    [0, 1]
    >>> cover.overlapping_vertices()
    frozenset({2})
    """

    __slots__ = ("_communities", "_membership")

    def __init__(self, communities: Iterable[Collection[int]]):
        cleaned: List[FrozenSet[int]] = []
        for community in communities:
            fs = frozenset(community)
            if fs:
                cleaned.append(fs)
        # Canonical deterministic order: by (-size, sorted members).
        cleaned.sort(key=lambda c: (-len(c), tuple(sorted(c))))
        self._communities: Tuple[FrozenSet[int], ...] = tuple(cleaned)
        self._membership: Optional[Dict[int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def communities(self) -> Tuple[FrozenSet[int], ...]:
        return self._communities

    def __len__(self) -> int:
        return len(self._communities)

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self._communities)

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self._communities[index]

    def __bool__(self) -> bool:
        return bool(self._communities)

    def __eq__(self, other) -> bool:
        """Covers are equal as *multisets* of communities."""
        if not isinstance(other, Cover):
            return NotImplemented
        return sorted(map(sorted, self._communities)) == sorted(
            map(sorted, other._communities)
        )

    def __repr__(self) -> str:
        sizes = self.sizes()
        preview = sizes[:6]
        suffix = "..." if len(sizes) > 6 else ""
        return f"Cover(k={len(self)}, sizes={preview}{suffix})"

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def _index(self) -> Dict[int, Tuple[int, ...]]:
        if self._membership is None:
            index: Dict[int, List[int]] = {}
            for cid, community in enumerate(self._communities):
                for v in community:
                    index.setdefault(v, []).append(cid)
            self._membership = {v: tuple(cids) for v, cids in index.items()}
        return self._membership

    def memberships_of(self, vertex: int) -> Tuple[int, ...]:
        """Community indices containing ``vertex`` (empty tuple if none)."""
        return self._index().get(vertex, ())

    def covered_vertices(self) -> FrozenSet[int]:
        return frozenset(self._index())

    def overlapping_vertices(self) -> FrozenSet[int]:
        """Vertices belonging to two or more communities."""
        return frozenset(v for v, cids in self._index().items() if len(cids) > 1)

    def sizes(self) -> List[int]:
        return [len(c) for c in self._communities]

    def size_entropy(self, num_vertices: int) -> float:
        """Eq. 1 entropy of this cover's relative community sizes."""
        return size_entropy_from_sizes(self.sizes(), num_vertices)

    def membership_counts(self) -> Dict[int, int]:
        """Vertex -> number of communities it belongs to."""
        return {v: len(cids) for v, cids in self._index().items()}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_membership(cls, membership: Dict[int, Iterable[int]]) -> "Cover":
        """Build from a vertex -> community-ids mapping."""
        groups: Dict[int, Set[int]] = {}
        for vertex, cids in membership.items():
            for cid in cids:
                groups.setdefault(cid, set()).add(vertex)
        return cls(groups.values())

    def restricted_to(self, universe: Collection[int]) -> "Cover":
        """Drop vertices outside ``universe`` (empty communities vanish)."""
        keep = set(universe)
        return Cover(c & keep for c in self._communities)

    def without_smaller_than(self, min_size: int) -> "Cover":
        """Drop communities with fewer than ``min_size`` members."""
        return Cover(c for c in self._communities if len(c) >= min_size)

    def as_sets(self) -> List[Set[int]]:
        """Mutable copies of the communities (for metric functions)."""
        return [set(c) for c in self._communities]


# ----------------------------------------------------------------------
# repro.core.tracking
# ----------------------------------------------------------------------
def _jaccard(a: FrozenSet[int], b: FrozenSet[int]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


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


# ----------------------------------------------------------------------
# repro.service.index
# ----------------------------------------------------------------------
class MembershipIndex:
    """Vertex→ids / id→members maps over the latest extraction.

    >>> index = MembershipIndex()
    >>> _ = index.update(Cover([{0, 1, 2}, {2, 3}]))
    >>> index.communities_of(2)
    (0, 1)
    >>> sorted(index.members(0))
    [0, 1, 2]
    """

    def __init__(self, match_threshold: float = 0.3, drift_tolerance: float = 0.1):
        self.match_threshold = match_threshold
        self.drift_tolerance = drift_tolerance
        self._cover: Cover = Cover([])
        self._ids: Tuple[int, ...] = ()
        self._next_id = 0
        self._members: Dict[int, FrozenSet[int]] = {}
        self._vertex: Dict[int, Tuple[int, ...]] = {}
        #: Number of update() calls absorbed so far.
        self.generation = 0
        #: The transition report of the latest update (None before the 2nd).
        self.last_transition: Optional[TransitionReport] = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def update(self, cover: Cover) -> Optional[TransitionReport]:
        """Absorb a fresh extraction; returns the transition from the last.

        The first update seeds the id space (ids 0..k-1 in cover order) and
        returns ``None``; later updates carry ids across via the matcher.
        """
        first = self.generation == 0
        self._ids, self._next_id, report = assign_stable_ids(
            self._cover,
            self._ids,
            cover,
            self._next_id,
            match_threshold=self.match_threshold,
            drift_tolerance=self.drift_tolerance,
        )
        self._cover = cover
        members: Dict[int, FrozenSet[int]] = {}
        vertex: Dict[int, list] = {}
        for cid, community in zip(self._ids, cover):
            members[cid] = community
            for v in community:
                vertex.setdefault(v, []).append(cid)
        self._members = members
        self._vertex = {v: tuple(sorted(cids)) for v, cids in vertex.items()}
        self.generation += 1
        self.last_transition = None if first else report
        return self.last_transition

    def export_state(self) -> Dict[str, object]:
        """Everything that shapes future id assignment, picklable.

        Stable ids are path-dependent — each extraction is matched against
        the *previous* one — so a replica that starts indexing mid-stream
        would mint a different id trajectory than its primary.  Shipping
        this snapshot and :meth:`install_state`-ing it puts the replica on
        the primary's trajectory: identical covers then yield identical
        ids forever after.
        """
        return {
            "cover": [frozenset(c) for c in self._cover],
            "ids": self._ids,
            "next_id": self._next_id,
            "generation": self.generation,
        }

    def install_state(self, state: Dict[str, object]) -> None:
        """Adopt an :meth:`export_state` snapshot (rebuilds the query maps)."""
        self._cover = Cover(state["cover"])
        self._ids = tuple(state["ids"])
        self._next_id = int(state["next_id"])
        self.generation = int(state["generation"])
        members: Dict[int, FrozenSet[int]] = {}
        vertex: Dict[int, list] = {}
        for cid, community in zip(self._ids, self._cover):
            members[cid] = community
            for v in community:
                vertex.setdefault(v, []).append(cid)
        self._members = members
        self._vertex = {v: tuple(sorted(cids)) for v, cids in vertex.items()}
        self.last_transition = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def cover(self) -> Cover:
        """The indexed cover (positional; prefer the stable-id queries)."""
        return self._cover

    def community_ids(self) -> Tuple[int, ...]:
        """All live stable ids, sorted."""
        return tuple(sorted(self._members))

    def communities_of(self, vertex: int) -> Tuple[int, ...]:
        """Stable ids of the communities containing ``vertex`` (sorted)."""
        return self._vertex.get(vertex, ())

    def members(self, cid: int) -> FrozenSet[int]:
        """Members of stable community ``cid``; KeyError if dead/unknown."""
        try:
            return self._members[cid]
        except KeyError:
            raise KeyError(f"no live community with stable id {cid}") from None

    def overlap(self, u: int, v: int) -> Tuple[int, ...]:
        """Stable ids of the communities containing both ``u`` and ``v``."""
        cids_u = self._vertex.get(u)
        if not cids_u:
            return ()
        cids_v = set(self._vertex.get(v, ()))
        return tuple(c for c in cids_u if c in cids_v)

    def snapshot(self) -> Dict[int, FrozenSet[int]]:
        """A ``stable id -> members`` copy (drift diffing, reporting)."""
        return dict(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return (
            f"MembershipIndex(generation={self.generation}, "
            f"communities={len(self._members)}, next_id={self._next_id})"
        )
