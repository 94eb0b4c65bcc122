"""Vectorised Correction Propagation — array-backed Algorithm 2.

:class:`FastCorrectionPropagator` repairs an
:class:`~repro.core.labels_array.ArrayLabelState` after an edit batch with
the same structure as the reference
:class:`~repro.core.incremental.CorrectionPropagator`, but each phase is a
handful of numpy passes instead of per-slot Python loops.  It also owns the
live graph, as one :class:`~repro.graph.csr.EdgeKeys` adjacency over the
state's columns (sorted directed keys ``col_u·2³² + col_v`` plus
``indptr``), built once and advanced by every batch:

0. **Merge** — one binary search of the batch's keys validates it (none
   if ``validate_batch`` passed it), then one delete and one insert merge
   it into the adjacency (no re-sort).  The touched vertices' candidate
   pools are ``indptr`` ranges of the merged rows, and their batch-added
   neighbours the batch's sorted inserted keys.
1. **Classification** — every touched ``(v, t)`` slot is sorted into the
   paper's Categories 1–3 at once: deleted-source slots via one compare
   of the provenance against the batch's deleted ``(vertex, neighbour)``
   pairs, Theorem-5 keep lotteries via the broadcasting counter-hash
   kernels (bit-identical to the scalar draws the reference engine makes).
2. **Detach + pre-draw** — all scheduled repicks drop their reverse
   records through the state's O(1) record handles, then every repick's
   hash, candidate, position, epoch, and provenance is drawn and scattered
   in ONE vectorised pass (draws depend only on ``(v, t, epoch)``, never
   on the cascade), and each repick is flagged *due* at its level.
3. **Drain** — one iteration level at a time over two ``(T+1, columns)``
   bool matrices, ``due`` and ``repicked``.  A correction carries no
   value: a due slot's new label is its source slot's label, final by
   then (a source sits at a lower level).  So a level is one scan of its
   ``due`` row, ONE gather (repicks and arrived corrections alike), one
   compare and scatter, and one receivers lookup that flags them due.
4. **Register** — the batch's new reverse records are appended to the
   state's overlay run in one pass.

The state's reverse records are built at the top of the first repair,
before it writes any provenance: a build later in the batch would already
hold the batch's own new records and send cascade corrections the
reference never sends.  Later repairs compact the record runs at the same
point when they have grown (see :mod:`repro.core.labels_array`).

Total per-batch cost is O(η) array work plus one O(columns) row scan and
a fixed handful of numpy calls per level, the overlay copy and the
amortised compaction (see :meth:`ArrayLabelState.needs_compaction`) and
O(batch) Python for the edit bookkeeping itself, with no Python per
reverse record; the result is
**bit-identical** to the reference corrector for every seed, batch, and
batch epoch — labels, provenance, epochs, and reports all match, which the
test suite asserts slot for slot.  Vertex ids may be any int64 but −1:
batch endpoints map to columns through the state's id lookup, candidate
pools are in vertex id order (a row's column order, or, once a vertex is
born below the largest id, the order of one ``argsort(ids)``
permutation), every draw is keyed by the vertex id, and reports name
slots by vertex id.

The extraction (:func:`repro.core.postprocess.extract_communities` over
:attr:`FastCorrectionPropagator.adjacency` and the state) and the
service's checkpoints (:meth:`FastCorrectionPropagator.edge_array`) read
the adjacency too; a :class:`~repro.graph.adjacency.Graph` of the live
graph is an export built on demand (:attr:`FastCorrectionPropagator.graph`).

A traced service hands its observability context to the corrector
(:attr:`FastCorrectionPropagator.obs`), which then records the four phases
(the merge inside ``classify``)
as ``core.incremental_fast.{classify,detach,drain,register}`` spans and
the record build and compaction as
``core.labels_array.{build_records,compact}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from time import time_ns
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.fast import FastPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.randomness import (
    NO_SOURCE,
    check_vertex_ids,
    draw_keep_uniform_array,
    draw_position_array,
    draw_src_index_array,
    slot_hash_array,
)
from repro.graph.adjacency import Graph
from repro.graph.csr import EdgeKeys, id_order
from repro.graph.edits import EditBatch

__all__ = ["FastCorrectionPropagator", "UpdateReport"]

# Pairs of non-negative values below 2^31 (columns, ranks, group indices)
# packed into one int64 key for a sort by (first, second).
_SHIFT = np.int64(32)
_LOW = (np.int64(1) << _SHIFT) - np.int64(1)

#: What a corrector takes as its live graph: a :class:`Graph`, an
#: ``(m, 2)`` array of id pairs, or an :class:`EdgeKeys` over the state's
#: columns.
LiveGraph = Union[Graph, np.ndarray, EdgeKeys]

@dataclass(eq=False)
class UpdateReport:
    """What one incremental update did — the measurable side of Section IV-D.

    ``touched_labels`` is the paper's ``η``: the number of slots whose label
    was re-drawn or whose value was corrected by the cascade.  It is a
    count, and exact: every repicked slot is noted once, and a slot whose
    value the cascade changed once when it was not repicked (no
    correction reaches a repicked slot, detached before the cascade).
    ``cascade_corrections`` counts one per receiver of a changed slot.

    The touched slots themselves are kept as the (vertex id, level) arrays
    the correctors note; :attr:`touched_slots` builds the set of pairs
    only when it is read.  Two reports are equal when their counters and
    their touched-slot sets are.
    """

    batch_size: int = 0
    num_inserted: int = 0
    num_deleted: int = 0
    repicked: int = 0
    keep_lotteries: int = 0
    lottery_switches: int = 0
    cascade_corrections: int = 0
    value_changes: int = 0
    touched_labels: int = 0
    _touched: List[Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def note_touched(
        self, ids: Sequence[int], levels: Union[int, Sequence[int]]
    ) -> None:
        """Record slots ``(ids[i], levels[i])`` as touched; ``levels`` may
        be one level for all of them.  Kept as given until read."""
        self._touched.append((ids, levels))
        self.touched_labels += len(ids)

    @property
    def touched_slots(self) -> Set[Tuple[int, int]]:
        """The touched slots as ``(vertex id, level)`` pairs."""
        slots: Set[Tuple[int, int]] = set()
        for ids, levels in self._touched:
            ids = np.asarray(ids, dtype=np.int64)
            levels = np.broadcast_to(np.asarray(levels, dtype=np.int64), ids.shape)
            slots.update(zip(ids.tolist(), levels.tolist()))
        return slots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateReport):
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.compare
        ) and self.touched_slots == other.touched_slots


def _first(pairs: np.ndarray) -> List[Tuple[int, int]]:
    """The first few of an error's edges, as the reference reports them."""
    return sorted(map(tuple, pairs.tolist()))[:5]


def _lap(obs, name: str, start: int) -> int:
    """Record span ``name`` from ``start`` until now; returns now, the
    next phase's start."""
    end = time_ns()
    obs.trace.record(name, start, plane="core", end_ns=end)
    return end


def _pairs(edges, count: int) -> np.ndarray:
    """``count`` edges as a ``(count, 2)`` int64 id array."""
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * count)
    return flat.reshape(-1, 2)


def _sort_pairs(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs ``(a[i], b[i])`` sorted by ``(a, b)``."""
    key = (a << _SHIFT) | b
    key.sort()
    return key >> _SHIFT, key & _LOW


def _adjacency(graph: LiveGraph, state: ArrayLabelState) -> EdgeKeys:
    """The live graph over ``state``'s columns, from any :data:`LiveGraph`."""
    if isinstance(graph, EdgeKeys):
        return graph
    if isinstance(graph, Graph):
        if set(graph.vertices()) != set(state.vertices()):
            raise ValueError("label state vertices do not match the graph")
        graph = _pairs(graph.edges(), graph.num_edges)
    cols, live = state.live_columns(np.asarray(graph, dtype=np.int64).reshape(-1, 2))
    if not live.all():
        raise ValueError("label state vertices do not match the graph")
    return EdgeKeys.from_pairs(cols, state.num_columns)


class FastCorrectionPropagator:
    """Applies edit batches to an :class:`ArrayLabelState` in place.

    Drop-in counterpart of :class:`~repro.core.incremental.CorrectionPropagator`
    (same ``apply_batch`` / ``remove_vertex`` / ``batch_epoch`` surface, same
    :class:`UpdateReport` numbers) over the array substrate.  Typical
    hand-off from a fast static run::

        fast = FastPropagator(graph, seed=7)
        fast.propagate(200)
        corrector = FastCorrectionPropagator.from_fast_propagator(fast)
        corrector.apply_batch(batch)

    The corrector owns the live graph, as the :class:`EdgeKeys` adjacency
    :attr:`adjacency` over the state's columns: built once (from the fit's
    CSR snapshot, a :class:`Graph`, or an ``(m, 2)`` id-pair edge array such
    as a checkpoint's) and advanced by each batch's sorted merge.  The
    repair's candidate pools, the extraction (:attr:`adjacency` with the
    state) and the checkpoints (:meth:`edge_array`) read it;
    :attr:`graph` builds a :class:`Graph` from it on demand.
    """

    #: Observability context (:class:`repro.obs.Obs`) a traced service
    #: attaches, as it does to its checkpoint store: each repair then
    #: records its phases as ``core.incremental_fast.*`` spans and the
    #: state's record build and compaction as ``core.labels_array.*``
    #: spans.  ``None`` (the default) keeps the repair free of
    #: :mod:`repro.obs` calls.
    obs = None

    def __init__(self, graph: LiveGraph, state: ArrayLabelState, seed: int):
        self.adjacency = _adjacency(graph, state)
        self.state = state
        self.seed = seed
        self.batch_epoch = 0
        #: The last batch validate_batch passed, with its id pairs, until a merge.
        self._validated: Optional[Tuple[EditBatch, np.ndarray, np.ndarray]] = None

    @classmethod
    def from_fast_propagator(
        cls, propagator: FastPropagator
    ) -> "FastCorrectionPropagator":
        """Adopt a finished static run: export its array state, and take
        the live graph from its CSR snapshot, whose rows are the columns."""
        return cls(
            EdgeKeys.from_csr(propagator.csr),
            propagator.to_array_state(),
            propagator.seed,
        )

    # ------------------------------------------------------------------
    # The live graph
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The live graph as a new :class:`Graph` (an O(m) export)."""
        return Graph.from_edges(
            map(tuple, self.edge_array().tolist()), vertices=self.state.vertices()
        )

    def edge_array(self) -> np.ndarray:
        """The live graph's edges as ascending ``(u, v)`` id pairs with
        ``u < v``, an ``(m, 2)`` int64 array."""
        ids, u, v = self.adjacency.canonical(self.state.ids, self.state.alive)
        return np.column_stack((ids[u], ids[v]))

    def has_edges(self, edges) -> np.ndarray:
        """Whether each ``(u, v)`` id pair of ``edges`` is a live edge."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        cols, live = self.state.live_columns(pairs)
        both = live.all(axis=1)
        found = np.zeros(len(pairs), dtype=bool)
        found[both] = self.adjacency.contains(cols[both])
        return found

    def validate_batch(self, batch: EditBatch) -> None:
        """Raise ``ValueError`` unless ``batch`` applies cleanly: its
        insertions absent from the live graph, its deletions present.  An
        :meth:`apply_batch` of the same batch before a merge reuses this."""
        ins = _pairs(batch.insertions, len(batch.insertions))
        dels = _pairs(batch.deletions, len(batch.deletions))
        bad = ins[self.has_edges(ins)]
        if len(bad):
            raise ValueError(f"insertions already present: {_first(bad)}")
        bad = dels[~self.has_edges(dels)]
        if len(bad):
            raise ValueError(f"deletions not present: {_first(bad)}")
        self._validated = (batch, ins, dels)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def apply_batch(self, batch: EditBatch) -> UpdateReport:
        """Apply a validated edit batch: advance the graph, repair the state.

        Same semantics as the reference corrector: an inserted edge's new
        endpoint gets a column (or its dead column back) whatever its id.
        """
        state = self.state
        if self._validated is None or self._validated[0] is not batch:
            self.validate_batch(batch)
        _, ins, dels = self._validated
        _, live = state.live_columns(ins.ravel())
        new_vertices = sorted(set(ins.ravel()[~live].tolist()))
        check_vertex_ids(new_vertices, "edit batch")
        obs = self.obs
        if obs is not None:
            t0 = time_ns()
        # Built here, before this batch writes any provenance: a build
        # later in the batch would already hold the batch's new records.
        if not state.has_records:
            state.reindex()
            if obs is not None:
                t0 = _lap(obs, "core.labels_array.build_records", t0)
        elif state.needs_compaction():
            state.compact()
            if obs is not None:
                t0 = _lap(obs, "core.labels_array.compact", t0)
        self.batch_epoch += 1
        report = UpdateReport(
            batch_size=batch.size,
            num_inserted=len(ins),
            num_deleted=len(dels),
        )

        # --- 1. create/resurrect endpoint columns; merge the batch ------
        state.add_vertices(new_vertices)
        ins_cols, del_cols = state.columns(ins), state.columns(dels)
        self._validated = None
        self.adjacency.apply(del_cols, ins_cols, state.num_columns)

        t_max = state.num_iterations
        if not batch or t_max == 0:
            return report
        # The touched vertices and the candidate pools go in vertex id
        # order (the reference's sorted-neighbour order): through the
        # columns' id ranks when the columns do not ascend by id.
        order = id_order(state.ids)
        rank = None
        if order is not None:
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order), dtype=np.int64)
        ends = np.concatenate((ins_cols.ravel(), del_cols.ravel()))
        touched = np.sort(ends if rank is None else rank[ends])
        touched = touched[np.concatenate(([True], touched[1:] != touched[:-1]))]
        tv = touched if order is None else order[touched]
        tv_ids = state.ids_of(tv)
        m = len(tv)

        # Candidate pools of the touched vertices, as column mini-CSRs:
        # current neighbours (adjacency rows) and batch-added neighbours
        # (the inserted pairs in both directions, grouped by source).
        pool_flat, pool_counts = self.adjacency.neighbors(tv)
        if rank is not None:
            group = np.repeat(np.arange(m, dtype=np.int64), pool_counts)
            pool_flat = order[_sort_pairs(group, rank[pool_flat])[1]]
        pool_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(pool_counts, out=pool_indptr[1:])
        a_src = np.concatenate((ins_cols[:, 0], ins_cols[:, 1]))
        a_dst = np.concatenate((ins_cols[:, 1], ins_cols[:, 0]))
        if rank is None:
            a_src, a_flat = _sort_pairs(a_src, a_dst)
        else:
            a_src, a_flat = _sort_pairs(rank[a_src], rank[a_dst])
            a_flat = order[a_flat]
        a_indptr = np.searchsorted(a_src, np.append(touched, touched[-1] + 1))
        a_counts = np.diff(a_indptr)

        # --- 2. vectorised Category 1-3 classification ------------------
        # (T, m) provenance snapshot of the touched columns, rows 1..T.
        src_sub = state.srcs[1:, tv]
        no_src = src_sub == NO_SOURCE
        # Slots whose source is a deleted neighbour: one compare per level
        # and deleted (vertex, neighbour) pair, in both directions.
        d_src = np.concatenate((del_cols[:, 0], del_cols[:, 1]))
        d_dst = np.concatenate((del_cols[:, 1], del_cols[:, 0]))
        hit_t, hit = np.nonzero(state.srcs[1:, d_src] == d_dst)
        d_at = np.searchsorted(touched, d_src if rank is None else rank[d_src])
        deleted_src = np.zeros_like(no_src)
        deleted_src[hit_t, d_at[hit]] = True
        gained = (a_counts > 0)[np.newaxis, :]
        repick_all_mask = deleted_src | (no_src & gained)
        lottery_mask = ~no_src & ~deleted_src & gained
        report.keep_lotteries = int(np.count_nonzero(lottery_mask))

        # Theorem-5 keep lotteries for Category-3 slots with a surviving
        # source: chained counter hash, fresh per batch epoch.
        lrow, lcol = np.nonzero(lottery_mask)
        if lrow.size:
            lts = lrow + 1
            lvs = tv_ids[lcol]
            h = slot_hash_array(
                slot_hash_array(self.seed, lvs, lts, 0), lvs, lts, self.batch_epoch
            )
            n_added = a_counts[lcol]
            n_unchanged = (pool_counts - a_counts)[lcol]
            switch = draw_keep_uniform_array(h) < n_added / (n_unchanged + n_added)
            report.lottery_switches = int(np.count_nonzero(switch))
            rep_add_t = lts[switch]
            rep_add_col = lcol[switch]
        else:
            rep_add_t = np.empty(0, dtype=np.int64)
            rep_add_col = np.empty(0, dtype=np.int64)

        rep_all_row, rep_all_col = np.nonzero(repick_all_mask)
        rep_all_t = rep_all_row + 1

        # Unify both repick families into one level-sorted slot list; each
        # slot carries its candidate range in the concatenated pool (the
        # added pool sits after the all-neighbours pool).
        cand_flat = np.concatenate([pool_flat, a_flat])
        rp_v = np.concatenate([tv[rep_all_col], tv[rep_add_col]])
        rp_t = np.concatenate([rep_all_t, rep_add_t])
        rp_off = np.concatenate(
            [pool_indptr[rep_all_col], a_indptr[rep_add_col] + len(pool_flat)]
        )
        rp_cnt = np.concatenate([pool_counts[rep_all_col], a_counts[rep_add_col]])
        if obs is not None:
            t0 = _lap(obs, "core.incremental_fast.classify", t0)

        # --- 3. detach every slot scheduled for a repick, then pre-draw -
        # Hashes, candidate indices, positions, epochs, and provenance are
        # all independent of the cascade (only the label *value* gather
        # must read post-correction upstream rows), so the whole repick
        # schedule is drawn and scattered in one vectorised pass.
        report.repicked += len(rp_v)
        due = np.zeros(state.labels.shape, dtype=bool)
        repicked = np.zeros_like(due)
        sourceless = set()  # the levels of repicks with no candidate
        if rp_v.size:
            state.detach_slots(rp_v, rp_t)
            epochs_new = state.epochs[rp_t, rp_v] + 1
            state.epochs[rp_t, rp_v] = epochs_new
            h = slot_hash_array(self.seed, state.ids_of(rp_v), rp_t, epochs_new)
            rp_idx = draw_src_index_array(h, rp_cnt)
            rp_pos = draw_position_array(h, rp_t)
            has_mask = rp_cnt > 0
            rp_src = np.full(len(rp_v), NO_SOURCE, dtype=np.int64)
            rp_src[has_mask] = cand_flat[rp_off[has_mask] + rp_idx[has_mask]]
            rp_pos = np.where(has_mask, rp_pos, np.int64(NO_SOURCE))
            state.srcs[rp_t, rp_v] = rp_src
            state.poss[rp_t, rp_v] = rp_pos
            due[rp_t, rp_v] = repicked[rp_t, rp_v] = True
            report.note_touched(state.ids_of(rp_v), rp_t)
            sourceless = set(rp_t[~has_mask].tolist())
        if obs is not None:
            t0 = _lap(obs, "core.incremental_fast.detach", t0)

        # --- 4. drain: one gather per level -----------------------------
        # A due slot takes its source slot's label (its own row-0 label
        # without one); the slots that change make their receivers due.
        labels, srcs, poss = state.labels, state.srcs, state.poss
        for t in range(1, t_max + 1):
            cols = due[t].nonzero()[0]
            if not len(cols):
                continue
            src = srcs[t][cols]
            new = labels[poss[t][cols], src]
            if t in sourceless:
                own = src == NO_SOURCE
                new[own] = labels[0][cols[own]]
            row = labels[t]
            changed = new != row[cols]
            cols = cols[changed]
            if not len(cols):
                continue
            row[cols] = new[changed]
            report.value_changes += len(cols)
            tar, k = state.receivers_query(cols * (t_max + 1) + t)
            due[k, tar] = True
            report.cascade_corrections += len(tar)
            cascaded = cols[~repicked[t][cols]]
            if len(cascaded):
                report.note_touched(state.ids_of(cascaded), t)

        if obs is not None:
            t0 = _lap(obs, "core.incremental_fast.drain", t0)

        # --- 5. register the new reverse records (batch-end flush) ------
        # Safe to defer: a record created this batch points a receiver at a
        # level the drain has already passed, so no in-batch query needs it.
        if rp_v.size:
            state.register_slots(
                rp_src[has_mask], rp_pos[has_mask], rp_v[has_mask], rp_t[has_mask]
            )
        if obs is not None:
            _lap(obs, "core.incremental_fast.register", t0)
        return report

    def remove_vertex(self, v: int) -> UpdateReport:
        """Delete a vertex: incident-edge deletion batch, then drop its
        column once nothing references it (same flow as the reference)."""
        cols, live = self.state.live_columns([v])
        if not live[0]:
            raise KeyError(f"vertex {v} not in graph")
        neighbors, _ = self.adjacency.neighbors(cols)
        incident = EditBatch.build(
            deletions=[(v, u) for u in self.state.ids_of(neighbors).tolist()]
        )
        report = self.apply_batch(incident) if incident else UpdateReport()
        t_max = self.state.num_iterations
        if t_max:
            self.state.detach_slots(
                np.repeat(cols, t_max), np.arange(1, t_max + 1, dtype=np.int64)
            )
        self.state.drop_vertex(v)
        return report

    def __repr__(self) -> str:
        return (
            f"FastCorrectionPropagator(seed={self.seed}, "
            f"epoch={self.batch_epoch}, state={self.state!r})"
        )
