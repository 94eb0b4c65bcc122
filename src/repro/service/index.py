"""Query plane: an inverted membership index with stable community ids.

Raw covers are positional — community 3 of one extraction has no relation
to community 3 of the next — which makes them useless as a query surface
for a long-lived service.  :class:`MembershipIndex` fixes both problems at
once:

* **Stable identity** — every extraction is matched against the previous
  one with :func:`repro.core.tracking.assign_stable_ids` (maximum-Jaccard
  matching, the Greene et al. protocol), so a community keeps its id while
  it drifts, survives merges/splits by closest continuation, and retired
  ids are never reused.  The matcher scores only the community pairs that
  share a vertex, through an inverted vertex -> community map; a disjoint
  pair has Jaccard 0 and can never clear the positive threshold, so the
  ids are the same as an all-pairs scan's.
* **Inverted maps** — the cover is unpacked into ``vertex -> (stable ids)``
  and ``stable id -> members`` dictionaries, so membership queries are
  O(memberships) lookups rather than cover scans.

The index is rebuilt wholesale per extraction and serves any number of
queries in between — this is what decouples query latency from ingest
batch size.  A refresh runs the array-native extraction of
:mod:`repro.core.postprocess` straight on the detector's label matrix:
label-collision edge weights over one canonical edge order, a τ1 sweep
that replays only the maximum spanning forest, and a vectorised weak
attachment, bit-identical to the retired per-edge dict pipeline.  Beside
it, a refresh pays for the stable-id matching and this rebuild.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.communities import Cover
from repro.core.tracking import TransitionReport, assign_stable_ids

__all__ = ["MembershipIndex"]


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
