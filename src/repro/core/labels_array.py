"""Array-backed label state: the incremental engine's compute substrate.

:class:`ArrayLabelState` stores what :class:`repro.core.labels.LabelState`
stores — label sequences, provenance, epochs, reverse records — but as
numpy arrays over columns, one per vertex:

* ``labels`` / ``srcs`` / ``poss`` / ``epochs`` are ``(T+1, n)`` int64
  matrices (row ``t`` = iteration ``t``, column ``c`` = the vertex
  ``ids[c]``), exactly the layout :class:`repro.core.fast.FastPropagator`
  produces;
* ``ids`` maps columns to vertex ids, which may be any int64 except the
  ``NO_SOURCE`` sentinel (−1).  Label values are vertex ids; ``srcs``,
  reverse-record keys and every gather use columns.  When the ids are
  ``0..n-1`` the id → column lookup is the identity and nothing is
  mapped; otherwise it is one binary search over the sorted ids;
* reverse records — "which slots fetched slot ``(c, t)``" — live in a
  CSR-style flat structure: one receiver array sorted by source-slot key
  ``c * (T+1) + t``, located by binary search, instead of a dict-of-set
  per slot.

The reverse structure is maintained incrementally in O(η) per batch: a
repicked slot kills its old record via an O(1) ``rec_pos`` handle (an
``alive`` mask over the flat array) and registers its new record in a small
``extras`` overlay keyed by source slot.  When the overlay plus the dead
entries outgrow the static part, :meth:`reindex` rebuilds the flat arrays
from the provenance matrices in a few vectorised passes — amortised, never
per-slot Python work.

Both representations are freely convertible (:meth:`from_label_state` /
:meth:`to_label_state`) and the test suite asserts the round trip is exact,
including reverse records.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.labels import LabelState
from repro.core.randomness import NO_SOURCE, check_vertex_ids
from repro.graph.adjacency import Graph

__all__ = ["ArrayLabelState"]

#: The id → column lookup: ``None`` while the ids are ``0..n-1`` (the
#: identity), else ``(sorted ids, their columns)`` for a binary search.
_IdIndex = Optional[Tuple[np.ndarray, np.ndarray]]


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten per-query index ranges ``[starts[i], starts[i]+counts[i])``.

    The standard repeat/cumsum multi-slice gather (same idiom as
    :func:`repro.graph.partition.slice_csr`), so variable-length range
    lookups stay a single C-level pass.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts  # exclusive prefix sums
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def _id_index(ids: np.ndarray) -> _IdIndex:
    """Build the id → column lookup of a column → id array."""
    if np.array_equal(ids, np.arange(len(ids))):
        return None
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise ValueError("duplicate vertex ids")
    return sorted_ids, order


def _lookup(index: _IdIndex, ncols: int, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(columns, known)`` of the ids ``v``; unknown ids get a placeholder."""
    if index is None:
        return v, (v >= 0) & (v < ncols)
    sorted_ids, order = index
    at = np.minimum(np.searchsorted(sorted_ids, v), len(sorted_ids) - 1)
    return order[at], sorted_ids[at] == v


class ArrayLabelState:
    """Label sequences + provenance + reverse records as int64 matrices.

    Construct via :meth:`from_matrices` (id-valued provenance, e.g. from
    the distributed programs), :meth:`from_label_state`, or
    :meth:`repro.core.fast.FastPropagator.to_array_state`.  Vertices added
    later append a column, and dropped vertices leave a dead column that is
    resurrected if the same id is re-inserted — matching the dict state's
    semantics for the delete-then-recreate cycle.
    """

    __slots__ = (
        "labels",
        "srcs",
        "poss",
        "epochs",
        "alive",
        "ids",
        "_index",
        "_stride",
        "_rev_key",
        "_rev_tar",
        "_rev_k",
        "_rev_alive",
        "_rec_pos",
        "_extras",
        "_extra_count",
        "_dead_static",
    )

    def __init__(
        self,
        labels: np.ndarray,
        srcs: np.ndarray,
        poss: np.ndarray,
        epochs: np.ndarray,
        alive: Optional[np.ndarray] = None,
        ids: Optional[np.ndarray] = None,
    ):
        """Adopt matrices whose ``srcs`` hold columns; ``ids`` defaults to
        ``0..n-1`` (where columns and ids coincide)."""
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.srcs = np.ascontiguousarray(srcs, dtype=np.int64)
        self.poss = np.ascontiguousarray(poss, dtype=np.int64)
        self.epochs = np.ascontiguousarray(epochs, dtype=np.int64)
        shape = self.labels.shape
        if len(shape) != 2:
            raise ValueError(f"label matrix must be 2-D, got shape {shape}")
        if not (self.srcs.shape == self.poss.shape == self.epochs.shape == shape):
            raise ValueError("labels/srcs/poss/epochs shapes disagree")
        if alive is None:
            alive = np.ones(shape[1], dtype=bool)
        self.alive = np.ascontiguousarray(alive, dtype=bool)
        if self.alive.shape != (shape[1],):
            raise ValueError("alive mask length does not match the column count")
        self.ids = np.ascontiguousarray(
            np.arange(shape[1]) if ids is None else ids, dtype=np.int64
        )
        if self.ids.shape != (shape[1],):
            raise ValueError("ids length does not match the column count")
        check_vertex_ids(self.ids, "label state")
        self._index = _id_index(self.ids)
        self._stride = shape[0]  # T + 1; slot key = column * stride + t
        self._extras: Dict[int, Set[Tuple[int, int]]] = {}
        self._extra_count = 0
        self._dead_static = 0
        self.reindex()

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_matrices(
        cls,
        labels: np.ndarray,
        srcs: np.ndarray,
        poss: np.ndarray,
        epochs: Optional[np.ndarray] = None,
        ids=None,
    ) -> "ArrayLabelState":
        """Adopt ``(T+1, n)`` matrices whose ``srcs`` hold vertex ids.

        ``ids[c]`` is column ``c``'s vertex id (``None``: ``0..n-1``), and
        epochs default to all-zero.  This is the one path that maps
        id-valued provenance to columns; for ids ``0..n-1`` nothing is
        mapped.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if epochs is None:
            epochs = np.zeros_like(labels)
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
            index = _id_index(ids)
            if index is not None:
                srcs = np.array(srcs, dtype=np.int64)
                has = srcs != NO_SOURCE
                cols, known = _lookup(index, len(ids), srcs[has])
                if not known.all():
                    raise ValueError("srcs name vertices outside ids")
                srcs[has] = cols
        return cls(labels, srcs, poss, epochs, ids=ids)

    @classmethod
    def from_label_state(cls, state: LabelState) -> "ArrayLabelState":
        """Convert a dict-backed state (any vertex ids; columns in id order)."""
        ids = sorted(state.vertices())
        t1 = state.num_iterations + 1
        if not ids:
            empty = np.empty((t1, 0), dtype=np.int64)
            return cls(empty, empty.copy(), empty.copy(), empty.copy())
        labels = np.array([state.labels[v] for v in ids], dtype=np.int64).T
        srcs = np.array([state.srcs[v] for v in ids], dtype=np.int64).T
        poss = np.array([state.poss[v] for v in ids], dtype=np.int64).T
        epochs = np.array([state.epochs[v] for v in ids], dtype=np.int64).T
        return cls.from_matrices(labels, srcs, poss, epochs, ids=ids)

    def to_label_state(self) -> LabelState:
        """Materialise the equivalent fully-recorded dict-backed state."""
        state = LabelState()
        live = np.nonzero(self.alive)[0]
        vids = self.ids_of(live)
        srcs = self.srcs[:, live]
        if self._index is not None:
            srcs = np.where(srcs != NO_SOURCE, self.ids[srcs], NO_SOURCE)
        for name, matrix in (
            ("labels", self.labels[:, live]),
            ("srcs", srcs),
            ("poss", self.poss[:, live]),
            ("epochs", self.epochs[:, live]),
        ):
            getattr(state, name).update(zip(vids.tolist(), matrix.T.tolist()))
        state.receivers.update((v, {}) for v in vids.tolist())
        if live.size:
            row_idx, col_idx = np.nonzero(srcs[1:] != NO_SOURCE)
            ks = row_idx + 1
            for src, pos, tar, k in zip(
                srcs[ks, col_idx].tolist(),
                self.poss[ks, live[col_idx]].tolist(),
                vids[col_idx].tolist(),
                ks.tolist(),
            ):
                state.receivers[src].setdefault(pos, set()).add((tar, k))
        state.set_num_iterations(self.num_iterations)
        return state

    def sequences_dict(self) -> Dict[int, List[int]]:
        """Vertex -> label sequence as plain lists (post-processing input)."""
        live = np.nonzero(self.alive)[0]
        return dict(zip(self.ids_of(live).tolist(), self.labels[:, live].T.tolist()))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        return self._stride - 1

    @property
    def num_vertices(self) -> int:
        return int(self.alive.sum())

    @property
    def num_columns(self) -> int:
        """Allocated columns, including dead ones (ids ever seen)."""
        return self.labels.shape[1]

    def columns(self, vertex_ids) -> np.ndarray:
        """Columns of ``vertex_ids`` (live or dead); ``KeyError`` for an id
        this state has never seen."""
        v = np.asarray(vertex_ids, dtype=np.int64)
        cols, known = _lookup(self._index, self.num_columns, v)
        if not known.all():
            raise KeyError(f"vertices {v[~known][:5].tolist()} have no label state")
        return cols

    def ids_of(self, cols: np.ndarray) -> np.ndarray:
        """Vertex ids of the columns ``cols`` (``cols`` itself for ids 0..n-1)."""
        return cols if self._index is None else self.ids[cols]

    def vertices(self) -> Iterator[int]:
        return iter(self.ids_of(np.nonzero(self.alive)[0]).tolist())

    def has_vertex(self, v: int) -> bool:
        cols, known = _lookup(self._index, self.num_columns, np.array([v], dtype=np.int64))
        return bool(known[0]) and bool(self.alive[cols[0]])

    def slot_key(self, v: int, t: int) -> int:
        return int(self.columns([v])[0]) * self._stride + t

    def receivers_of(self, v: int, t: int) -> Set[Tuple[int, int]]:
        """Who fetched slot ``(v, t)`` — a fresh set, like the dict state."""
        if not self.has_vertex(v):
            return set()
        _, tar, k = self.receivers_query(
            np.array([self.slot_key(v, t)], dtype=np.int64)
        )
        return set(zip(self.ids_of(tar).tolist(), k.tolist()))

    # ------------------------------------------------------------------
    # Reverse-record structure
    # ------------------------------------------------------------------
    def reindex(self) -> None:
        """Rebuild the static reverse CSR from the provenance matrices.

        Fully vectorised (nonzero + one argsort); clears the extras overlay
        and the dead-entry debt.  Called at construction and whenever the
        overlay outgrows the static part (see :meth:`needs_reindex`).
        """
        if self._stride > 1 and self.num_columns:
            sub = self.srcs[1:] != NO_SOURCE
            if not self.alive.all():
                sub &= self.alive[np.newaxis, :]
            row_idx, tar = np.nonzero(sub)
            ks = row_idx + 1
            keys = self.srcs[ks, tar] * np.int64(self._stride) + self.poss[ks, tar]
            order = np.argsort(keys, kind="stable")
            self._rev_key = keys[order]
            self._rev_tar = tar[order].astype(np.int64, copy=False)
            self._rev_k = ks[order].astype(np.int64, copy=False)
        else:
            self._rev_key = np.empty(0, dtype=np.int64)
            self._rev_tar = np.empty(0, dtype=np.int64)
            self._rev_k = np.empty(0, dtype=np.int64)
        self._rev_alive = np.ones(len(self._rev_key), dtype=bool)
        self._rec_pos = np.full(self.labels.shape, -1, dtype=np.int64)
        if len(self._rev_key):
            self._rec_pos[self._rev_k, self._rev_tar] = np.arange(
                len(self._rev_key), dtype=np.int64
            )
        self._extras = {}
        self._extra_count = 0
        self._dead_static = 0

    def needs_reindex(self) -> bool:
        """True when the delta overlay justifies an amortised rebuild."""
        debt = self._extra_count + self._dead_static
        return debt > max(1024, len(self._rev_key) // 2)

    def receivers_query(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched receiver lookup for an array of source-slot keys.

        Returns ``(owner, tar, k)``: record ``i`` says slot ``(tar[i],
        k[i])`` (a column and a level) fetched the slot behind
        ``keys[owner[i]]``.  Static hits are
        a binary search plus one flat gather; overlay hits are merged from
        the extras dict (bounded by the repicks since the last reindex).
        """
        # One binary-search call covers both bounds: for integer slot keys,
        # the right bound of ``key`` is the left bound of ``key + 1``.
        bounds = np.searchsorted(
            self._rev_key, np.concatenate([keys, keys + 1])
        ).astype(np.int64)
        left, right = bounds[: len(keys)], bounds[len(keys):]
        counts = right - left
        owner = np.repeat(np.arange(len(keys), dtype=np.int64), counts)
        flat = _expand_ranges(left, counts)
        live = self._rev_alive[flat]
        owner = owner[live]
        tar = self._rev_tar[flat[live]]
        k = self._rev_k[flat[live]]
        if self._extra_count:
            ex_owner: List[int] = []
            ex_tar: List[int] = []
            ex_k: List[int] = []
            extras = self._extras
            for i, key in enumerate(keys.tolist()):
                bucket = extras.get(key)
                if bucket:
                    for tt, kk in bucket:
                        ex_owner.append(i)
                        ex_tar.append(tt)
                        ex_k.append(kk)
            if ex_owner:
                owner = np.concatenate([owner, np.array(ex_owner, dtype=np.int64)])
                tar = np.concatenate([tar, np.array(ex_tar, dtype=np.int64)])
                k = np.concatenate([k, np.array(ex_k, dtype=np.int64)])
        return owner, tar, k

    def detach_slots(self, vs: np.ndarray, ts: np.ndarray) -> None:
        """Remove the reverse records of slots ``(vs[i], ts[i])`` (columns
        and levels) and null their provenance (vectorised
        :meth:`LabelState.detach_slot`).

        Static records die via their O(1) ``rec_pos`` handle; overlay
        records are discarded from the extras dict (only slots repicked
        since the last reindex take that path).
        """
        vs = np.asarray(vs, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.int64)
        pos = self._rec_pos[ts, vs]
        static = pos >= 0
        if static.any():
            self._rev_alive[pos[static]] = False
            self._dead_static += int(static.sum())
            self._rec_pos[ts[static], vs[static]] = -1
        for i in np.nonzero(~static)[0].tolist():
            v, t = int(vs[i]), int(ts[i])
            src = int(self.srcs[t, v])
            if src == NO_SOURCE:
                continue
            key = src * self._stride + int(self.poss[t, v])
            bucket = self._extras.get(key)
            if bucket is None or (v, t) not in bucket:
                raise ValueError(
                    f"record inconsistency: ({v}, {t}) not registered at "
                    f"source slot key {key}"
                )
            bucket.discard((v, t))
            if not bucket:
                del self._extras[key]
            self._extra_count -= 1
        self.srcs[ts, vs] = NO_SOURCE
        self.poss[ts, vs] = NO_SOURCE

    def register_slots(
        self, src_arr: np.ndarray, pos_arr: np.ndarray, tar_arr: np.ndarray, ks
    ) -> None:
        """Register records ``(tar[i], ks[i])`` at source slots
        ``(src[i], pos[i])`` (columns and levels); ``ks`` may be a scalar
        level or a paired array.

        New records always land in the extras overlay (the static part is
        immutable between reindexes); the caller has already written the
        matching provenance into ``srcs``/``poss``.
        """
        keys = (src_arr * np.int64(self._stride) + pos_arr).tolist()
        extras = self._extras
        ks_list = (
            [int(ks)] * len(keys)
            if np.isscalar(ks)
            else np.asarray(ks).tolist()
        )
        for key, tar, k in zip(keys, tar_arr.tolist(), ks_list):
            extras.setdefault(key, set()).add((tar, k))
        self._extra_count += len(keys)

    # ------------------------------------------------------------------
    # Vertex lifecycle
    # ------------------------------------------------------------------
    def add_vertices(self, new_ids) -> None:
        """Create state for vertices added after propagation (fallback slots).

        An id seen before resurrects its dead column; a new id appends a
        column (in ascending id order).  The lookup stays the identity
        while the ids stay ``0..n-1``.
        """
        new = np.array(sorted(new_ids), dtype=np.int64)
        if not new.size:
            return
        check_vertex_ids(new, "new vertices")
        ncols = self.num_columns
        cols, known = _lookup(self._index, ncols, new)
        revive = cols[known]
        if self.alive[revive].any():
            raise ValueError(
                f"vertices {new[known][self.alive[revive]].tolist()} already initialised"
            )
        fresh = new[~known]
        if fresh.size:
            k = fresh.size
            self.labels = np.concatenate(
                [self.labels, np.broadcast_to(fresh, (self._stride, k))], axis=1
            )
            pad = np.full((self._stride, k), NO_SOURCE, dtype=np.int64)
            self.srcs = np.concatenate([self.srcs, pad], axis=1)
            self.poss = np.concatenate([self.poss, pad], axis=1)
            self.epochs = np.concatenate(
                [self.epochs, np.zeros((self._stride, k), dtype=np.int64)], axis=1
            )
            self.alive = np.concatenate([self.alive, np.ones(k, dtype=bool)])
            self._rec_pos = np.concatenate(
                [self._rec_pos, np.full((self._stride, k), -1, dtype=np.int64)], axis=1
            )
            extends = self._index is None and np.array_equal(
                fresh, np.arange(ncols, ncols + k)
            )
            self.ids = np.concatenate([self.ids, fresh])
            if not extends:
                self._index = _id_index(self.ids)
        self.labels[:, revive] = self.ids[revive]
        self.srcs[:, revive] = NO_SOURCE
        self.poss[:, revive] = NO_SOURCE
        self.epochs[:, revive] = 0
        self.alive[revive] = True

    def drop_vertex(self, v: int) -> None:
        """Mark ``v`` dead (its column is kept for potential resurrection).

        Mirrors :meth:`LabelState.drop_vertex`'s precondition — every slot
        referencing ``v`` must already be detached — and additionally
        requires ``v``'s own slots to be detached (sources nulled), since a
        dead column must not keep records alive.
        """
        if not self.has_vertex(v):
            raise KeyError(f"vertex {v} has no label state")
        col = int(self.columns([v])[0])
        if (self.srcs[1:, col] != NO_SOURCE).any():
            raise ValueError(
                f"cannot drop vertex {v}: its slots still hold sources "
                "(detach them first)"
            )
        keys = col * np.int64(self._stride) + np.arange(self._stride, dtype=np.int64)
        _, tar, k = self.receivers_query(keys)
        if len(tar):
            sample = sorted(zip(self.ids_of(tar).tolist(), k.tolist()))[:5]
            raise ValueError(
                f"cannot drop vertex {v}: slots {sample} still fetch from it"
            )
        self.alive[col] = False

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, graph: Optional[Graph] = None) -> None:
        """Assert the full invariant set (raises ``AssertionError``).

        Checks the array-specific reverse structure — every slot with a
        source owns exactly one live record, static handles agree with the
        matrices, overlay buckets match — then delegates the semantic
        invariants (provenance values, edge existence) to
        :meth:`LabelState.validate` on the converted state.
        """
        stride = self._stride
        expected: Dict[Tuple[int, int], Tuple[int, int]] = {}
        live_cols = np.nonzero(self.alive)[0]
        if live_cols.size and stride > 1:
            row_idx, col_idx = np.nonzero(self.srcs[1:, live_cols] != NO_SOURCE)
            ks = row_idx + 1
            tars = live_cols[col_idx]
            for tar, k, src, pos in zip(
                tars.tolist(),
                ks.tolist(),
                self.srcs[ks, tars].tolist(),
                self.poss[ks, tars].tolist(),
            ):
                expected[(tar, k)] = (src, pos)
        seen: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for flat in np.nonzero(self._rev_alive)[0].tolist():
            tar, k = int(self._rev_tar[flat]), int(self._rev_k[flat])
            key = int(self._rev_key[flat])
            if (tar, k) in seen:
                raise AssertionError(f"duplicate live record for slot ({tar}, {k})")
            seen[(tar, k)] = (key // stride, key % stride)
            if self._rec_pos[k, tar] != flat:
                raise AssertionError(
                    f"rec_pos[{k}, {tar}] = {self._rec_pos[k, tar]} != {flat}"
                )
        extra_total = 0
        for key, bucket in self._extras.items():
            for tar, k in bucket:
                extra_total += 1
                if (tar, k) in seen:
                    raise AssertionError(
                        f"slot ({tar}, {k}) recorded both statically and in extras"
                    )
                seen[(tar, k)] = (key // stride, key % stride)
                if self._rec_pos[k, tar] != -1:
                    raise AssertionError(
                        f"extras record ({tar}, {k}) shadowed by rec_pos "
                        f"{self._rec_pos[k, tar]}"
                    )
        if extra_total != self._extra_count:
            raise AssertionError(
                f"extras count drift: {extra_total} records vs "
                f"counter {self._extra_count}"
            )
        if seen != expected:
            missing = sorted(set(expected) - set(seen))[:5]
            spurious = sorted(set(seen) - set(expected))[:5]
            mismatched = sorted(
                s for s in set(seen) & set(expected) if seen[s] != expected[s]
            )[:5]
            raise AssertionError(
                f"reverse records disagree with provenance: missing={missing}, "
                f"spurious={spurious}, mismatched={mismatched}"
            )
        self.to_label_state().validate(graph)

    def __repr__(self) -> str:
        return (
            f"ArrayLabelState(|V|={self.num_vertices}, T={self.num_iterations}, "
            f"records={int(self._rev_alive.sum()) + self._extra_count})"
        )
