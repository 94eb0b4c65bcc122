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
* reverse records — "which slots fetched slot ``(c, t)``" — are int64
  ``(tar, k)`` columns keyed by the source slot ``c * (T+1) + t``: the
  *static* run in key order behind a dense slot index (``indptr`` over
  all ``num_columns·(T+1)`` keys; no key column), and one *overlay* run of
  the records registered since the last compaction, in arrival order
  beside its sorted keys, with a bool *mark* per slot key.  Each record
  has a tombstone bit and an O(1) handle ``rec_pos[k, tar]``: its index
  in the static run (``>= 0``), ``-2 - i`` for record ``i`` of the
  overlay run, or ``-1`` (no record).

The records are built lazily.  A new state holds only its matrices; the
first repair builds the records (:meth:`reindex`: one ``nonzero`` and one
argsort over the n·T slots) before it writes any provenance, so a fit's
export, a distributed gather and write-back, a checkpoint load and a
replica bootstrap never pay for them.  On a state without records,
:meth:`detach_slots` and :meth:`register_slots` write only the matrices.

Once built, the records follow every repair in array passes, with no
Python per record: a detached slot tombstones its record through its
handle, new records are appended to the overlay run (their keys sorted
and inserted into its sorted keys and marked, so only the new records
get handles), and a query is two gathers into the static index plus a
binary search of the overlay for its marked keys; a column born since
the build lies past the index.  An append still copies the
overlay's sorted keys once, so :meth:`needs_compaction` asks for a
:meth:`compact` once those copies and the static tombstones add up to the
static run's length; the compaction places the overlay's live records
among the static run's through its index (no sort, no rebuild from the
matrices) and drops the marks.

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

#: Reverse records as parallel ``(key, tar, k)`` columns.
_Records = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten per-query index ranges ``[starts[i], starts[i]+counts[i])``.

    The standard repeat/cumsum multi-slice gather (same idiom as
    :func:`repro.graph.partition.slice_csr`), so variable-length range
    lookups stay a single C-level pass.
    """
    ends = np.add.accumulate(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return _EMPTY
    return (starts + counts - ends).repeat(counts) + np.arange(total, dtype=np.int64)


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


class _Run:
    """One run of reverse records with tombstone bits.

    Record ``i`` says slot ``(tar[i], k[i])`` fetched a slot; ``alive[i]``
    is cleared when the record is detached and ``dead`` counts the cleared
    bits.  A record's index never changes while its run lives.
    """

    __slots__ = ("tar", "k", "alive", "dead")

    def __init__(self, tar: np.ndarray, k: np.ndarray):
        self.tar, self.k = tar, k
        self.alive = np.ones(len(tar), dtype=bool)
        self.dead = 0

    def __len__(self) -> int:
        return len(self.tar)

    def kill(self, rec: np.ndarray) -> None:
        self.alive[rec] = False
        self.dead += len(rec)


class _Static(_Run):
    """The static run: records in key order behind a dense slot index.

    The records of slot key ``j`` are ``indptr[j]:indptr[j + 1]``, for
    every key of the columns the run was built over; a key past the index
    (a column born since) has none.  A record's key is the slot whose
    range holds it, so the run stores no key column.
    """

    __slots__ = ("indptr",)

    def __init__(self, indptr: np.ndarray, tar: np.ndarray, k: np.ndarray):
        super().__init__(tar, k)
        self.indptr = indptr

    @classmethod
    def build(
        cls, num_keys: int, key: np.ndarray, tar: np.ndarray, k: np.ndarray
    ) -> "_Static":
        """Records in any order as a run over ``num_keys`` slot keys: one
        stable argsort by key, and one ``bincount`` and one ``cumsum``."""
        order = np.argsort(key, kind="stable")
        indptr = np.zeros(num_keys + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=num_keys), out=indptr[1:])
        return cls(indptr, tar[order], k[order])

    def merged(self, overlay: "_Overlay", num_keys: int) -> "_Static":
        """This run's live records and ``overlay``'s as one run over
        ``num_keys`` slot keys, with no sort.

        An overlay record goes after every live static record of its key
        or a lower one, and after the overlay records before it in key
        order; the live static records fill the other places in order.
        """
        key, tar, k = overlay.live()
        live = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(self.alive, out=live[1:])  # live static records before j
        end = len(self.indptr) - 1
        at = np.arange(len(key)) + live[self.indptr.take(key + 1, mode="clip")]
        rest = np.ones(int(live[-1]) + len(key), dtype=bool)
        rest[at] = False
        merged_tar = np.empty(len(rest), dtype=np.int64)
        merged_k = np.empty_like(merged_tar)
        merged_tar[at], merged_k[at] = tar, k
        merged_tar[rest], merged_k[rest] = self.tar[self.alive], self.k[self.alive]
        indptr = np.zeros(num_keys + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=num_keys), out=indptr[1:])
        indptr[: end + 1] += live[self.indptr]
        indptr[end + 1 :] += live[-1]
        return _Static(indptr, merged_tar, merged_k)

    def keys(self) -> np.ndarray:
        """Every record's key, rebuilt from the index: record ``j``'s key
        counts the ranges after the first that start at or before ``j``."""
        starts = np.bincount(self.indptr[1:-1], minlength=len(self) + 1)
        return np.cumsum(starts[: len(self)])

    def hits(self, keys: np.ndarray) -> np.ndarray:
        """The live records of ``keys``: two gathers into the index.  A
        key past it clips to its end, where no range starts."""
        left = self.indptr.take(keys, mode="clip")
        rec = _expand_ranges(left, self.indptr.take(keys + 1, mode="clip") - left)
        return rec[self.alive[rec]] if self.dead else rec


class _Overlay(_Run):
    """The overlay run: records in arrival order beside their sorted keys.

    ``key`` holds the records' keys sorted and ``at[j]`` is the record
    behind ``key[j]``; ``moved`` counts the sorted entries the appends
    have copied.  ``marks[j]`` is set once slot key ``j`` has a record
    here, so a query searches only the keys that may have one.
    """

    __slots__ = ("key", "at", "moved", "marks")

    def __init__(self, num_keys: int):
        super().__init__(_EMPTY, _EMPTY)
        self.key = self.at = _EMPTY
        self.moved = 0
        self.marks = np.zeros(num_keys, dtype=bool)

    def live(self) -> _Records:
        """The live records as ``(key, tar, k)`` columns, sorted by key."""
        keep = self.alive[self.at]
        rec = self.at[keep]
        return self.key[keep], self.tar[rec], self.k[rec]

    def append(self, key: np.ndarray, tar: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Add records in any key order; returns their indices.

        The new keys are sorted and inserted into ``key`` at their binary
        search positions, so an append copies the run once and sorts only
        the new records.
        """
        first = len(self)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        where = np.searchsorted(self.key, sorted_key, side="right")
        self.moved += len(self.key)
        self.key = np.insert(self.key, where, sorted_key)
        self.at = np.insert(self.at, where, first + order)
        self.tar = np.concatenate([self.tar, tar])
        self.k = np.concatenate([self.k, k])
        self.alive = np.concatenate([self.alive, np.ones(len(key), dtype=bool)])
        self.marks[key] = True
        return np.arange(first, len(self), dtype=np.int64)

    def hits(self, keys: np.ndarray) -> np.ndarray:
        """The live records of ``keys``: a binary search of the marked ones."""
        keys = keys[self.marks[keys]]
        if not len(keys):
            return _EMPTY
        # One binary-search call covers both bounds: for integer slot keys,
        # the right bound of ``key`` is the left bound of ``key + 1``.
        bounds = np.searchsorted(self.key, np.concatenate([keys, keys + 1]))
        left = bounds[: len(keys)]
        rec = self.at[_expand_ranges(left, bounds[len(keys):] - left)]
        return rec[self.alive[rec]] if self.dead else rec


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
        "_static",
        "_overlay",
        "_rec_pos",
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
        ``0..n-1`` (where columns and ids coincide).  The reverse records
        stay unbuilt until :meth:`reindex` or the first query."""
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
        self._static: Optional[_Run] = None
        self._overlay: Optional[_Run] = None
        self._rec_pos: Optional[np.ndarray] = None  # None: records unbuilt

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

    def live_columns(self, vertex_ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, live)`` of ``vertex_ids``: whether each is a live
        vertex, and its column if so (0 for an id that is not)."""
        v = np.asarray(vertex_ids, dtype=np.int64)
        cols, known = _lookup(self._index, self.num_columns, v)
        cols = np.where(known, cols, 0)
        live = known.copy()
        live[known] = self.alive[cols[known]]
        return cols, live

    def ids_of(self, cols: np.ndarray) -> np.ndarray:
        """Vertex ids of the columns ``cols`` (``cols`` itself for ids 0..n-1)."""
        return cols if self._index is None else self.ids[cols]

    def vertices(self) -> Iterator[int]:
        return iter(self.ids_of(np.nonzero(self.alive)[0]).tolist())

    def has_vertex(self, v: int) -> bool:
        return bool(self.live_columns([v])[1][0])

    def slot_key(self, v: int, t: int) -> int:
        return int(self.columns([v])[0]) * self._stride + t

    def receivers_of(self, v: int, t: int) -> Set[Tuple[int, int]]:
        """Who fetched slot ``(v, t)``, as ``(vertex id, level)`` pairs — a
        fresh set, like the dict state (one :meth:`receivers_query`)."""
        if not self.has_vertex(v):
            return set()
        tar, k = self.receivers_query(
            np.array([self.slot_key(v, t)], dtype=np.int64)
        )
        return set(zip(self.ids_of(tar).tolist(), k.tolist()))

    # ------------------------------------------------------------------
    # Reverse-record structure
    # ------------------------------------------------------------------
    @property
    def has_records(self) -> bool:
        """Whether the reverse records are built (see :meth:`reindex`)."""
        return self._rec_pos is not None

    def reindex(self) -> None:
        """Build the reverse records from the provenance matrices.

        One ``nonzero`` and one argsort over the n·T slots give the static
        run, and one ``bincount`` and one ``cumsum`` of its keys its slot
        index over every ``num_columns·(T+1)`` key; the overlay starts
        empty.  A repair calls this before it writes any provenance, the
        first time it meets the state; a query on a state without records
        calls it too.
        """
        sub = self.srcs[1:] != NO_SOURCE
        if not self.alive.all():
            sub &= self.alive[np.newaxis, :]
        row_idx, tar = np.nonzero(sub)
        ks = row_idx + 1
        keys = self.srcs[ks, tar] * np.int64(self._stride) + self.poss[ks, tar]
        self._rec_pos = np.full(self.labels.shape, -1, dtype=np.int64)
        self._install(_Static.build(self.labels.size, keys, tar, ks))

    def compact(self) -> None:
        """Merge the live records of both runs into one static run.

        The overlay's live records, in key order, find their places among
        the static run's through its index, with no sort; the new index
        covers every column, born ones included.  Every live record gets a
        fresh static handle, which overwrites every handle into the old
        runs.
        """
        self._install(self._static.merged(self._overlay, self.labels.size))

    def _install(self, static: _Static) -> None:
        self._static = static
        self._overlay = _Overlay(self.labels.size)
        self._rec_pos[static.k, static.tar] = np.arange(len(static), dtype=np.int64)

    def needs_compaction(self) -> bool:
        """True when a :meth:`compact` pays for itself (never on a state
        without records).

        A compaction is one pass over the static run.  Until it runs, each
        overlay append copies the overlay once more, and each static
        tombstone is dead weight that queries filter out.  Compacting once
        the copies and the tombstones exceed the static run's length keeps
        the amortised cost per batch within a constant factor of the best
        schedule, for small and large batches alike.
        """
        if self._rec_pos is None:
            return False
        return self._overlay.moved + self._static.dead > len(self._static)

    def receivers_query(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched receiver lookup for an array of source-slot keys.

        Returns ``(tar, k)``: each record says slot ``(tar[i], k[i])`` (a
        column and a level) fetched one of the slots behind ``keys``, which
        the caller names in any order, no key twice.  The static run's
        records are two gathers into its slot index; the overlay's are a
        binary search of the keys it has marked.  The order is unspecified.
        """
        if self._rec_pos is None:
            self.reindex()
        static, overlay = self._static, self._overlay
        rec, o_rec = static.hits(keys), overlay.hits(keys)
        if not len(o_rec):
            return static.tar[rec], static.k[rec]
        return (
            np.concatenate([static.tar[rec], overlay.tar[o_rec]]),
            np.concatenate([static.k[rec], overlay.k[o_rec]]),
        )

    def detach_slots(self, vs: np.ndarray, ts: np.ndarray) -> None:
        """Remove the reverse records of slots ``(vs[i], ts[i])`` (columns
        and levels, no slot twice) and null their provenance (vectorised
        :meth:`LabelState.detach_slot`).

        Each record is tombstoned through its O(1) handle, in whichever
        run it lives; without records only the matrices change.
        """
        vs = np.asarray(vs, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.int64)
        if self._rec_pos is not None:
            pos = self._rec_pos[ts, vs]
            lost = (pos == -1) & (self.srcs[ts, vs] != NO_SOURCE)
            if lost.any():
                v, t = int(vs[lost][0]), int(ts[lost][0])
                raise ValueError(
                    f"record inconsistency: ({v}, {t}) has a source but no "
                    "registered record"
                )
            self._static.kill(pos[pos >= 0])
            self._overlay.kill(-2 - pos[pos <= -2])
            self._rec_pos[ts, vs] = -1
        self.srcs[ts, vs] = NO_SOURCE
        self.poss[ts, vs] = NO_SOURCE

    def register_slots(
        self, src_arr: np.ndarray, pos_arr: np.ndarray, tar_arr: np.ndarray, ks
    ) -> None:
        """Register records ``(tar[i], ks[i])`` at source slots
        ``(src[i], pos[i])`` (columns and levels); ``ks`` may be a scalar
        level or a paired array.

        The caller has already written the matching provenance into
        ``srcs``/``poss``, so without records there is nothing to do.
        Otherwise the new records are appended to the overlay run, and
        only their handles are written.
        """
        if self._rec_pos is None:
            return
        tar_arr = np.asarray(tar_arr, dtype=np.int64)
        keys = np.asarray(src_arr, dtype=np.int64) * np.int64(self._stride) + pos_arr
        ks = np.broadcast_to(np.asarray(ks, dtype=np.int64), keys.shape)
        rec = self._overlay.append(keys, tar_arr, ks)
        self._rec_pos[ks, tar_arr] = -2 - rec

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
            if self._rec_pos is not None:
                self._rec_pos = np.concatenate(
                    [self._rec_pos, np.full((self._stride, k), -1, dtype=np.int64)],
                    axis=1,
                )
                self._overlay.marks = np.concatenate(
                    [self._overlay.marks, np.zeros(k * self._stride, dtype=bool)]
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
        tar, k = self.receivers_query(keys)
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

        With records built, checks the two-run structure first — the
        static index partitions its run and gives each record its own
        source key, every live overlay key is marked, every slot with a
        source owns exactly one live record with its source key, handles
        point at their records and nowhere else, the overlay is sorted and
        each run counts its tombstones — then delegates the semantic
        invariants (provenance values, edge existence) to
        :meth:`LabelState.validate` on the converted state.
        """
        if self._rec_pos is not None:
            self._validate_records()
        self.to_label_state().validate(graph)

    def _validate_records(self) -> None:
        stride, ncols = self._stride, self.num_columns
        static, overlay = self._static, self._overlay

        def slots_of(values) -> List[Tuple[int, int]]:
            return [(int(s % ncols), int(s // ncols)) for s in values[:5]]

        # The static index partitions its run (each record's key, checked
        # against its slot's source below, is the range that holds it),
        # and the overlay is sorted, holds every record and marks its keys.
        indptr = static.indptr
        if not (
            len(indptr) <= self.labels.size + 1
            and indptr[0] == 0
            and indptr[-1] == len(static)
            and (np.diff(indptr) >= 0).all()
        ):
            raise AssertionError("static index does not partition its run")
        if not np.array_equal(np.sort(overlay.at), np.arange(len(overlay))):
            raise AssertionError("overlay run's key order misses records")
        if (np.diff(overlay.key) < 0).any():
            raise AssertionError("overlay run is not sorted by key")
        if len(overlay.marks) != self.labels.size:
            raise AssertionError("overlay marks do not cover every slot key")
        unmarked = overlay.alive[overlay.at] & ~overlay.marks[overlay.key]
        if unmarked.any():
            key = overlay.key[unmarked][0]
            raise AssertionError(f"overlay key {key} has a live record but no mark")
        # Expected: one record per live slot with a source, keyed by it.
        sub = self.srcs != NO_SOURCE
        sub[0] = False
        sub &= self.alive[np.newaxis, :]
        e_k, e_tar = np.nonzero(sub)
        e_slot = e_k * ncols + e_tar
        e_key = self.srcs[e_k, e_tar] * stride + self.poss[e_k, e_tar]
        # Actual: the live records of both runs, with the handle each
        # should have (static index i, or -2 - i in the overlay).
        overlay_keys = np.empty_like(overlay.key)
        overlay_keys[overlay.at] = overlay.key
        runs = {"static": (static, static.keys()), "overlay": (overlay, overlay_keys)}
        recs = {name: np.flatnonzero(run.alive) for name, (run, _) in runs.items()}
        a_tar = np.concatenate([runs[n][0].tar[r] for n, r in recs.items()])
        a_k = np.concatenate([runs[n][0].k[r] for n, r in recs.items()])
        a_key = np.concatenate([runs[n][1][r] for n, r in recs.items()])
        a_handle = np.concatenate([recs["static"], -2 - recs["overlay"]])
        a_slot = a_k * ncols + a_tar
        slots, counts = np.unique(a_slot, return_counts=True)
        if (counts > 1).any():
            raise AssertionError(
                f"duplicate live record for slot {slots_of(slots[counts > 1])[0]}"
            )
        e_order, a_order = np.argsort(e_slot), np.argsort(a_slot)
        e_slot, e_key = e_slot[e_order], e_key[e_order]
        if not (
            np.array_equal(e_slot, a_slot[a_order])
            and np.array_equal(e_key, a_key[a_order])
        ):
            both = np.intersect1d(e_slot, a_slot)
            wrong = both[
                e_key[np.searchsorted(e_slot, both)]
                != a_key[a_order][np.searchsorted(a_slot[a_order], both)]
            ]
            raise AssertionError(
                "reverse records (static keys read off the index) disagree "
                "with provenance: "
                f"missing={slots_of(np.setdiff1d(e_slot, a_slot))}, "
                f"spurious={slots_of(np.setdiff1d(a_slot, e_slot))}, "
                f"mismatched={slots_of(wrong)}"
            )
        handle = self._rec_pos[a_k, a_tar]
        bad = np.flatnonzero(handle != a_handle)
        if bad.size:
            i = bad[0]
            raise AssertionError(
                f"rec_pos[{a_k[i]}, {a_tar[i]}] = {handle[i]} != {a_handle[i]}"
            )
        stale = np.count_nonzero(self._rec_pos != -1) - len(a_slot)
        if stale:
            raise AssertionError(f"{stale} handle(s) point at no live record")
        for name, (run, _) in runs.items():
            if run.dead != len(run) - len(recs[name]):
                raise AssertionError(
                    f"{name} run counts {run.dead} tombstones, holds "
                    f"{len(run) - len(recs[name])}"
                )

    def __repr__(self) -> str:
        if self._rec_pos is None:
            records = "unbuilt"
        else:
            runs = (self._static, self._overlay)
            records = sum(len(run) - run.dead for run in runs)
        return (
            f"ArrayLabelState(|V|={self.num_vertices}, T={self.num_iterations}, "
            f"records={records})"
        )
