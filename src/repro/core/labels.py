"""Label-propagation state: sequences, provenance, and reverse records.

After ``T`` iterations of Algorithm 1, each vertex ``v_i`` carries a label
sequence ``L_i = (l_i^0, ..., l_i^T)`` where ``l_i^0 = i``.  The incremental
algorithm additionally needs, per slot ``(i, t)``:

* the provenance ``(src_i^t, pos_i^t)`` — which neighbour and which position
  the label was fetched from (Section IV-A);
* the reverse records ``R_i^t = {(tar, k)}`` — who fetched *this* slot
  (Section IV-B), enabling correction propagation;
* an epoch counter so repicks draw fresh counter-based randomness.

:class:`LabelState` owns all of that and maintains the provenance/record
bijection through every mutation.  ``validate(graph)`` asserts the full
invariant set and is called liberally by the tests.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.randomness import NO_SOURCE
from repro.graph.adjacency import Graph

__all__ = ["LabelState", "NO_SOURCE"]


class LabelState:
    """Mutable label state for every vertex: sequences + provenance + records."""

    __slots__ = ("labels", "srcs", "poss", "epochs", "receivers", "_t")

    def __init__(self):
        # labels[v][t] = label value at iteration t.
        self.labels: Dict[int, List[int]] = {}
        # srcs[v][t] / poss[v][t] = provenance (NO_SOURCE at t=0 / fallback).
        self.srcs: Dict[int, List[int]] = {}
        self.poss: Dict[int, List[int]] = {}
        # epochs[v][t] = how many times slot (v, t) has been (re)drawn.
        self.epochs: Dict[int, List[int]] = {}
        # receivers[v][t] = set of (tar, k): slot (tar, k) fetched (v, t).
        self.receivers: Dict[int, Dict[int, Set[Tuple[int, int]]]] = {}
        self._t = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        """T: iterations completed (sequences have T+1 entries)."""
        return self._t

    def init_vertex(self, v: int) -> None:
        """Give ``v`` its initial sequence ``(v,)`` (iteration 0)."""
        if v in self.labels:
            raise ValueError(f"vertex {v} already initialised")
        self.labels[v] = [v]
        self.srcs[v] = [NO_SOURCE]
        self.poss[v] = [NO_SOURCE]
        self.epochs[v] = [0]
        self.receivers[v] = {}

    def init_vertices(self, vertices) -> None:
        for v in vertices:
            self.init_vertex(v)

    def has_vertex(self, v: int) -> bool:
        return v in self.labels

    def drop_vertex(self, v: int) -> None:
        """Forget all state of ``v`` (used on vertex deletion).

        The caller must have already detached every slot that referenced
        ``v`` as a source — this method checks and refuses otherwise.
        """
        if v not in self.labels:
            raise KeyError(f"vertex {v} has no label state")
        dangling = [t for t, recs in self.receivers[v].items() if recs]
        if dangling:
            raise ValueError(
                f"cannot drop vertex {v}: slots {dangling[:5]} still have receivers"
            )
        del self.labels[v]
        del self.srcs[v]
        del self.poss[v]
        del self.epochs[v]
        del self.receivers[v]

    def begin_iteration(self) -> int:
        """Advance T by one and return the new iteration index."""
        self._t += 1
        return self._t

    def set_num_iterations(self, t: int) -> None:
        """Force the iteration counter (used when loading from arrays)."""
        if t < 0:
            raise ValueError(f"iteration count must be >= 0, got {t}")
        self._t = t

    # ------------------------------------------------------------------
    # Slot mutation
    # ------------------------------------------------------------------
    def append_pick(self, v: int, label: int, src: int, pos: int) -> None:
        """Record the pick of iteration ``len(labels[v])`` for vertex ``v``.

        ``src == NO_SOURCE`` encodes the degree-0 fallback (self label).
        """
        t = len(self.labels[v])
        self.labels[v].append(label)
        self.srcs[v].append(src)
        self.poss[v].append(pos)
        self.epochs[v].append(0)
        if src != NO_SOURCE:
            self._register(src, pos, v, t)

    def replace_pick(
        self, v: int, t: int, label: int, src: int, pos: int, epoch: int
    ) -> None:
        """Re-point slot ``(v, t)`` at a new provenance (incremental repick).

        Detaches the old receiver record, installs the new one, bumps the
        slot's epoch.  The label *value* is set by the caller (it must come
        from the post-correction value of the new source).
        """
        old_src = self.srcs[v][t]
        old_pos = self.poss[v][t]
        if old_src != NO_SOURCE:
            self._unregister(old_src, old_pos, v, t)
        self.labels[v][t] = label
        self.srcs[v][t] = src
        self.poss[v][t] = pos
        self.epochs[v][t] = epoch
        if src != NO_SOURCE:
            self._register(src, pos, v, t)

    def set_label(self, v: int, t: int, label: int) -> None:
        """Overwrite only the value of slot ``(v, t)`` (cascade correction)."""
        self.labels[v][t] = label

    def _register(self, src: int, pos: int, tar: int, k: int) -> None:
        self.receivers[src].setdefault(pos, set()).add((tar, k))

    def _unregister(self, src: int, pos: int, tar: int, k: int) -> None:
        bucket = self.receivers.get(src, {}).get(pos)
        if bucket is None or (tar, k) not in bucket:
            raise ValueError(
                f"record inconsistency: ({tar}, {k}) not registered at "
                f"source ({src}, {pos})"
            )
        bucket.discard((tar, k))
        if not bucket:
            del self.receivers[src][pos]

    def detach_slot(self, v: int, t: int) -> None:
        """Remove slot ``(v, t)``'s registration at its current source."""
        src = self.srcs[v][t]
        if src != NO_SOURCE:
            self._unregister(src, self.poss[v][t], v, t)
            self.srcs[v][t] = NO_SOURCE
            self.poss[v][t] = NO_SOURCE

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sequence(self, v: int) -> Tuple[int, ...]:
        """The full label sequence ``L_v`` as an immutable tuple."""
        return tuple(self.labels[v])

    def label_at(self, v: int, t: int) -> int:
        return self.labels[v][t]

    def provenance(self, v: int, t: int) -> Tuple[int, int]:
        """``(src, pos)`` of slot ``(v, t)``."""
        return self.srcs[v][t], self.poss[v][t]

    def receivers_of(self, v: int, t: int) -> Set[Tuple[int, int]]:
        """Who fetched slot ``(v, t)`` — a copy, safe to iterate while mutating."""
        return set(self.receivers.get(v, {}).get(t, ()))

    def frequencies(self, v: int) -> Counter:
        """Label -> multiplicity within ``L_v``."""
        return Counter(self.labels[v])

    def vertices(self) -> Iterator[int]:
        return iter(self.labels)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def total_slots(self) -> int:
        """Total picked labels (excluding the initial ones): ``T * |V|``-ish."""
        return sum(len(seq) - 1 for seq in self.labels.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, graph: Optional[Graph] = None) -> None:
        """Assert every structural invariant; raises ``AssertionError``.

        With ``graph`` given, additionally checks that every provenance edge
        exists in the graph — the key consistency property the incremental
        algorithm must preserve (Section IV-A).
        """
        t_expected = self._t
        for v, seq in self.labels.items():
            if len(seq) != t_expected + 1:
                raise AssertionError(
                    f"vertex {v}: sequence length {len(seq)} != T+1 = {t_expected + 1}"
                )
            if seq[0] != v:
                raise AssertionError(f"vertex {v}: initial label is {seq[0]}")
            if not (
                len(self.srcs[v]) == len(self.poss[v]) == len(self.epochs[v]) == len(seq)
            ):
                raise AssertionError(f"vertex {v}: ragged provenance arrays")
            for t in range(1, len(seq)):
                src, pos = self.srcs[v][t], self.poss[v][t]
                if src == NO_SOURCE:
                    if seq[t] != v:
                        raise AssertionError(
                            f"slot ({v}, {t}): fallback slot must carry own label"
                        )
                    continue
                if not 0 <= pos < t:
                    raise AssertionError(
                        f"slot ({v}, {t}): position {pos} out of range [0, {t})"
                    )
                if src not in self.labels:
                    raise AssertionError(f"slot ({v}, {t}): source {src} unknown")
                if self.labels[src][pos] != seq[t]:
                    raise AssertionError(
                        f"slot ({v}, {t}): label {seq[t]} != source value "
                        f"{self.labels[src][pos]} at ({src}, {pos})"
                    )
                if (v, t) not in self.receivers.get(src, {}).get(pos, ()):
                    raise AssertionError(
                        f"slot ({v}, {t}): missing reverse record at ({src}, {pos})"
                    )
                if graph is not None and not graph.has_edge(v, src):
                    raise AssertionError(
                        f"slot ({v}, {t}): provenance edge ({v}, {src}) not in graph"
                    )
        # Reverse direction: every record points at a matching slot.
        for src, per_pos in self.receivers.items():
            for pos, bucket in per_pos.items():
                for tar, k in bucket:
                    if tar not in self.srcs or k >= len(self.srcs[tar]):
                        raise AssertionError(
                            f"record ({src}, {pos}) -> ({tar}, {k}): slot missing"
                        )
                    if self.srcs[tar][k] != src or self.poss[tar][k] != pos:
                        raise AssertionError(
                            f"record ({src}, {pos}) -> ({tar}, {k}): provenance "
                            f"mismatch ({self.srcs[tar][k]}, {self.poss[tar][k]})"
                        )

    def __repr__(self) -> str:
        return f"LabelState(|V|={self.num_vertices}, T={self._t})"
