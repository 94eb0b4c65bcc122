"""Query plane: an inverted membership index with stable community ids.

Raw covers are positional — community 3 of one extraction has no relation
to community 3 of the next — which makes them useless as a query surface
for a long-lived service.  :class:`MembershipIndex` fixes both problems at
once:

* **Stable identity** — every extraction is matched against the previous
  one with :func:`repro.core.tracking.assign_stable_ids` (maximum-Jaccard
  matching, the Greene et al. protocol), so a community keeps its id while
  it drifts, survives merges/splits by closest continuation, and retired
  ids are never reused.  The matcher is a join over the two covers'
  membership columns: it counts only the community pairs that share a
  vertex, and a disjoint pair has Jaccard 0 and can never clear the
  positive threshold, so the ids are the same as an all-pairs scan's.
* **Inverted maps** — one builder, shared by :meth:`MembershipIndex.update`
  and :meth:`MembershipIndex.install_state`, keeps the cover's
  vertex → community CSR as lists of vertices, offsets and each
  membership's stable id, plus a ``stable id -> position`` dict.  The
  first read of a vertex in a generation builds its sorted tuple of
  stable ids (one ``bisect`` and a list slice) and memoises it, so a
  refresh pays for no vertex it is not asked about; ``members`` reads
  the cover's frozenset view.

The index is rebuilt wholesale per extraction and serves any number of
queries in between — this is what decouples query latency from ingest
batch size.  A refresh runs the array-native extraction of
:mod:`repro.core.postprocess` straight on the detector's label matrix,
which hands over the cover as CSR arrays; beside it, a refresh pays for
the stable-id join and this rebuild, and no per-community frozenset or
per-vertex tuple is made on the way.  :meth:`MembershipIndex.export_state`
ships the cover as its two arrays (a :class:`~repro.core.communities.Cover`
pickles as them), which is what a replica's bootstrap and respawn install.
"""

from __future__ import annotations

from bisect import bisect_left
from time import time_ns
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.communities import Cover
from repro.core.tracking import TransitionReport, assign_stable_ids, check_matcher

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

    #: Observability context (:class:`repro.obs.Obs`) a traced service
    #: hands over: each :meth:`update` then records its two phases as
    #: ``core.tracking.match`` and ``service.index.build`` spans.  ``None``
    #: (the default) keeps the index free of :mod:`repro.obs` calls.
    obs = None

    def __init__(self, match_threshold: float = 0.3, drift_tolerance: float = 0.1):
        check_matcher(match_threshold, drift_tolerance)
        self.match_threshold = match_threshold
        self.drift_tolerance = drift_tolerance
        self._ids: Tuple[int, ...] = ()
        self._next_id = 0
        self._build(Cover([]))
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
        obs = self.obs
        if obs is not None:
            start = time_ns()
        first = self.generation == 0
        self._ids, self._next_id, report = assign_stable_ids(
            self._cover,
            self._ids,
            cover,
            self._next_id,
            match_threshold=self.match_threshold,
            drift_tolerance=self.drift_tolerance,
        )
        if obs is not None:
            matched = time_ns()
            obs.trace.record("core.tracking.match", start, plane="core", end_ns=matched)
        self._build(cover)
        if obs is not None:
            obs.trace.record("service.index.build", matched, plane="service")
        self.generation += 1
        self.last_transition = None if first else report
        return self.last_transition

    def _build(self, cover: Cover) -> None:
        """Index ``cover``, whose community ``c`` has stable id ``self._ids[c]``.

        Only the cover's vertex → community CSR is kept, as lists; a
        vertex's sorted tuple of stable ids is built on its first read in
        this generation (:meth:`communities_of`) and kept in ``_vertex``.
        """
        self._cover = cover
        self._position: Dict[int, int] = dict(zip(self._ids, range(len(self._ids))))
        vertices, offsets, communities = cover.by_vertex()
        self._vertices: List[int] = vertices.tolist()
        self._offsets: List[int] = offsets.tolist()
        self._stable: List[int] = (
            np.asarray(self._ids, dtype=np.int64)[communities].tolist()
        )
        self._vertex: Dict[int, Tuple[int, ...]] = {}

    def export_state(self) -> Dict[str, object]:
        """Everything that shapes future id assignment, picklable.

        Stable ids are path-dependent — each extraction is matched against
        the *previous* one — so a replica that starts indexing mid-stream
        would mint a different id trajectory than its primary.  Shipping
        this snapshot and :meth:`install_state`-ing it puts the replica on
        the primary's trajectory: identical covers then yield identical
        ids forever after.  The ``"cover"`` is the indexed
        :class:`~repro.core.communities.Cover`, which pickles as its two
        member arrays.
        """
        return {
            "cover": self._cover,
            "ids": self._ids,
            "next_id": self._next_id,
            "generation": self.generation,
        }

    def install_state(self, state: Dict[str, object]) -> None:
        """Adopt an :meth:`export_state` snapshot (rebuilds the query maps)."""
        self._ids = tuple(state["ids"])
        self._next_id = int(state["next_id"])
        self.generation = int(state["generation"])
        self._build(Cover(state["cover"]))
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
        return tuple(sorted(self._ids))

    def communities_of(self, vertex: int) -> Tuple[int, ...]:
        """Stable ids of the communities containing ``vertex`` (sorted)."""
        memo = self._vertex
        found = memo.get(vertex)
        if found is not None:
            return found
        vertices, offsets = self._vertices, self._offsets
        row = bisect_left(vertices, vertex)
        if row == len(vertices) or vertices[row] != vertex:
            return ()
        found = self._stable[offsets[row]:offsets[row + 1]]
        if len(found) > 1:
            # A vertex's communities ascend by position; its stable ids need not.
            found.sort()
        found = memo[vertex] = tuple(found)
        return found

    def members(self, cid: int) -> FrozenSet[int]:
        """Members of stable community ``cid``; KeyError if dead/unknown."""
        try:
            return self._cover[self._position[cid]]
        except KeyError:
            raise KeyError(f"no live community with stable id {cid}") from None

    def overlap(self, u: int, v: int) -> Tuple[int, ...]:
        """Stable ids of the communities containing both ``u`` and ``v``."""
        cids_u = self.communities_of(u)
        if not cids_u:
            return ()
        cids_v = set(self.communities_of(v))
        return tuple(c for c in cids_u if c in cids_v)

    def snapshot(self) -> Dict[int, FrozenSet[int]]:
        """A ``stable id -> members`` copy (drift diffing, reporting)."""
        return dict(zip(self._ids, self._cover.communities))

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"MembershipIndex(generation={self.generation}, "
            f"communities={len(self._ids)}, next_id={self._next_id})"
        )
