"""Vectorised Correction Propagation — array-backed Algorithm 2.

:class:`FastCorrectionPropagator` repairs an
:class:`~repro.core.labels_array.ArrayLabelState` after an edit batch with
the same three-phase structure as the reference
:class:`~repro.core.incremental.CorrectionPropagator`, but each phase is a
handful of numpy passes instead of per-slot Python loops:

1. **Classification** — every touched ``(v, t)`` slot is sorted into the
   paper's Categories 1–3 at once: deleted-source slots via one
   ``np.isin`` over ``(vertex, source)`` pair keys, Theorem-5 keep
   lotteries via the broadcasting counter-hash kernels (bit-identical to
   the scalar draws the reference engine makes).
2. **Detach + pre-draw** — all scheduled repicks drop their reverse
   records through the state's O(1) record handles, then every repick's
   hash, candidate, position, epoch, and provenance is drawn and scattered
   in ONE vectorised pass (draws depend only on ``(v, t, epoch)``, never
   on the cascade).
3. **Drain** — the cascade runs one iteration level at a time: arrived
   corrections and the level's repick value gathers are batched
   gather/scatters (upstream rows are final by then), and one notification
   query per level fans out through the CSR-style reverse index grouped by
   destination level.

Total per-batch cost is O(η) array work (plus O(batch) Python for the edit
bookkeeping itself), and the result is **bit-identical** to the reference
corrector for every seed, batch, and batch epoch — labels, provenance,
epochs, and reports all match, which the test suite asserts slot for slot.
Vertex ids may be any int64 but −1: batch endpoints map to columns through
the state's id lookup, candidate pools are sorted by vertex id, every draw
is keyed by the vertex id, and reports name slots by vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Set, Tuple

import numpy as np

from repro.core.fast import FastPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.randomness import (
    NO_SOURCE,
    check_vertex_ids,
    draw_keep_uniform_array,
    draw_position_flex,
    draw_src_index_array,
    slot_hash_flex,
)
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch

__all__ = ["FastCorrectionPropagator", "UpdateReport"]

# (column, neighbour column) pairs packed into one int64 key for the
# deleted-source membership test; columns are far below 2^31 so the halves
# cannot clash.
_PAIR = np.int64(1) << np.int64(32)

# Per-level pending notification buffers: lists of (columns, values).
_Pending = List[List[Tuple[np.ndarray, np.ndarray]]]


@dataclass
class UpdateReport:
    """What one incremental update did — the measurable side of Section IV-D.

    ``touched_labels`` is the paper's ``η``: the number of slots whose label
    was re-drawn or whose value was corrected by the cascade.

    With ``track_slots=False`` the report counts distinct touched slots
    without materialising the ``touched_slots`` set (the benchmark fast
    path).  The count is exact because the two note sources are disjoint: a
    repicked slot is detached before the cascade starts, so it can never
    also receive a cascaded correction, and each slot is repicked (and
    notified) at most once per batch.
    """

    batch_size: int = 0
    num_inserted: int = 0
    num_deleted: int = 0
    repicked: int = 0
    keep_lotteries: int = 0
    lottery_switches: int = 0
    cascade_corrections: int = 0
    value_changes: int = 0
    touched_slots: Set[Tuple[int, int]] = field(default_factory=set, repr=False)
    track_slots: bool = True
    touched_count: int = 0

    def note_touched(self, v: int, t: int) -> None:
        """Record slot ``(v, t)`` as touched (set or counter, per mode)."""
        if self.track_slots:
            self.touched_slots.add((v, t))
        else:
            self.touched_count += 1

    def note_touched_many(self, vs, t: int) -> None:
        """Record every slot ``(v, t) for v in vs`` as touched."""
        if self.track_slots:
            self.touched_slots.update((int(v), t) for v in vs)
        else:
            self.touched_count += len(vs)

    def note_touched_pairs(self, vs, ts) -> None:
        """Record slots ``(vs[i], ts[i])`` as touched (paired arrays)."""
        if self.track_slots:
            self.touched_slots.update(
                zip((int(v) for v in vs), (int(t) for t in ts))
            )
        else:
            self.touched_count += len(vs)

    @property
    def touched_labels(self) -> int:
        """η: distinct slots re-drawn or value-corrected."""
        if self.track_slots:
            return len(self.touched_slots)
        return self.touched_count


def _sorted_pool(groups, counts: np.ndarray, total: int) -> np.ndarray:
    """Concatenate per-vertex neighbour groups and sort within each group.

    The :func:`repro.graph.csr.build_csr_arrays` idiom on a vertex subset:
    one C-level fromiter over chained sets, one combined-key
    (``group * span + id - lo``) sort — no per-vertex Python sorting.
    """
    if total == 0:
        return np.empty(0, dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=total)
    group_ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    lo = int(flat.min())
    span = int(flat.max()) - lo + 1
    if span * len(counts) >= 1 << 63:  # ids too far apart for one int64 key
        return flat[np.lexsort((flat, group_ids))]
    key = group_ids * np.int64(span) + (flat - lo)
    key.sort()
    return key % np.int64(span) + lo


class FastCorrectionPropagator:
    """Applies edit batches to an :class:`ArrayLabelState` in place.

    Drop-in counterpart of :class:`~repro.core.incremental.CorrectionPropagator`
    (same ``apply_batch`` / ``remove_vertex`` / ``batch_epoch`` surface, same
    :class:`UpdateReport` numbers) over the array substrate.  Typical
    hand-off from a fast static run::

        fast = FastPropagator(graph, seed=7)
        fast.propagate(200)
        corrector = FastCorrectionPropagator(graph, fast.to_array_state(), 7)
        corrector.apply_batch(batch)
    """

    def __init__(
        self,
        graph: Graph,
        state: ArrayLabelState,
        seed: int,
        track_slots: bool = True,
    ):
        if set(graph.vertices()) != set(state.vertices()):
            raise ValueError("label state vertices do not match the graph")
        self.graph = graph
        self.state = state
        self.seed = seed
        self.batch_epoch = 0
        self.track_slots = track_slots

    @classmethod
    def from_fast_propagator(
        cls,
        propagator: FastPropagator,
        graph: Graph,
        track_slots: bool = True,
    ) -> "FastCorrectionPropagator":
        """Adopt a finished static run: export its array state and pair it
        with the mutable graph that future batches will edit."""
        return cls(graph, propagator.to_array_state(), propagator.seed, track_slots)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def apply_batch(self, batch: EditBatch) -> UpdateReport:
        """Apply a validated edit batch: mutate graph, repair label state.

        Same semantics as the reference corrector: an inserted edge's new
        endpoint gets a column (or its dead column back) whatever its id.
        """
        batch.validate_against(self.graph)
        state = self.state
        new_vertices = sorted(
            {e for edge in batch.insertions for e in edge if not self.graph.has_vertex(e)}
        )
        check_vertex_ids(new_vertices, "edit batch")
        if state.needs_reindex():
            state.reindex()
        self.batch_epoch += 1
        report = UpdateReport(
            batch_size=batch.size,
            num_inserted=len(batch.insertions),
            num_deleted=len(batch.deletions),
            track_slots=self.track_slots,
        )

        added = batch.added_neighbors()
        removed = batch.removed_neighbors()

        # --- 1. mutate the graph; create/resurrect endpoint columns -----
        for v in new_vertices:
            self.graph.add_vertex(v)
        for u, v in batch.deletions:
            self.graph.remove_edge(u, v)
        for u, v in batch.insertions:
            self.graph.add_edge(u, v)
        state.add_vertices(new_vertices)

        t_max = state.num_iterations
        touched = sorted(set(added) | set(removed))
        if not touched or t_max == 0:
            return report
        tv_ids = np.array(touched, dtype=np.int64)
        tv = state.columns(tv_ids)
        m = len(touched)

        # Candidate pools of the touched vertices, sorted by vertex id (the
        # reference's sorted-neighbour order) and mapped to columns, as one
        # mini-CSR each: current neighbours and batch-added neighbours.
        pool_counts = np.fromiter(
            (self.graph.degree(v) for v in touched), dtype=np.int64, count=m
        )
        pool_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(pool_counts, out=pool_indptr[1:])
        pool_flat = _sorted_pool(
            (self.graph.neighbors_view(v) for v in touched),
            pool_counts,
            int(pool_indptr[-1]),
        )
        a_counts = np.fromiter(
            (len(added.get(v, ())) for v in touched), dtype=np.int64, count=m
        )
        a_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(a_counts, out=a_indptr[1:])
        a_flat = _sorted_pool(
            (added.get(v, ()) for v in touched),
            a_counts,
            int(a_indptr[-1]),
        )

        # --- 2. vectorised Category 1-3 classification ------------------
        # (T, m) provenance snapshot of the touched columns, rows 1..T.
        src_sub = state.srcs[1:, tv]
        no_src = src_sub == NO_SOURCE
        if batch.deletions:
            ndel = len(batch.deletions)
            du = state.columns(
                np.fromiter((e[0] for e in batch.deletions), np.int64, count=ndel)
            )
            dv = state.columns(
                np.fromiter((e[1] for e in batch.deletions), np.int64, count=ndel)
            )
            removed_keys = np.concatenate([du * _PAIR + dv, dv * _PAIR + du])
            deleted_src = np.isin(tv[np.newaxis, :] * _PAIR + src_sub, removed_keys)
        else:
            deleted_src = np.zeros_like(no_src)
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
            h = slot_hash_flex(
                slot_hash_flex(self.seed, lvs, lts, 0), lvs, lts, self.batch_epoch
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
        cand_flat = state.columns(np.concatenate([pool_flat, a_flat]))
        rp_v = np.concatenate([tv[rep_all_col], tv[rep_add_col]])
        rp_t = np.concatenate([rep_all_t, rep_add_t])
        rp_off = np.concatenate(
            [pool_indptr[rep_all_col], a_indptr[rep_add_col] + len(pool_flat)]
        )
        rp_cnt = np.concatenate([pool_counts[rep_all_col], a_counts[rep_add_col]])
        order = np.argsort(rp_t, kind="stable")
        rp_v, rp_t = rp_v[order], rp_t[order]
        rp_off, rp_cnt = rp_off[order], rp_cnt[order]

        # --- 3. detach every slot scheduled for a repick, then pre-draw -
        # Hashes, candidate indices, positions, epochs, and provenance are
        # all independent of the cascade (only the label *value* gather
        # must read post-correction upstream rows), so the whole repick
        # schedule is drawn and scattered in one vectorised pass.
        report.repicked += len(rp_v)
        if rp_v.size:
            state.detach_slots(rp_v, rp_t)
            epochs_new = state.epochs[rp_t, rp_v] + 1
            state.epochs[rp_t, rp_v] = epochs_new
            h = slot_hash_flex(self.seed, state.ids_of(rp_v), rp_t, epochs_new)
            rp_idx = draw_src_index_array(h, rp_cnt)
            rp_pos = draw_position_flex(h, rp_t)
            has_mask = rp_cnt > 0
            rp_src = np.full(len(rp_v), NO_SOURCE, dtype=np.int64)
            rp_src[has_mask] = cand_flat[rp_off[has_mask] + rp_idx[has_mask]]
            rp_pos = np.where(has_mask, rp_pos, np.int64(NO_SOURCE))
            state.srcs[rp_t, rp_v] = rp_src
            state.poss[rp_t, rp_v] = rp_pos
            rp_fallback = state.labels[0, rp_v]  # isolated slots: own label
            report.note_touched_pairs(state.ids_of(rp_v), rp_t)
            level_bounds = np.searchsorted(rp_t, np.arange(1, t_max + 2))

        # --- 4. drain: cascade + repick value gathers, level by level ---
        pending: _Pending = [[] for _ in range(t_max + 1)]
        for t in range(1, t_max + 1):
            changed_vs: List[np.ndarray] = []
            changed_vals: List[np.ndarray] = []
            bufs = pending[t]
            if bufs:
                av, avals = (
                    bufs[0]
                    if len(bufs) == 1
                    else (
                        np.concatenate([b[0] for b in bufs]),
                        np.concatenate([b[1] for b in bufs]),
                    )
                )
                report.cascade_corrections += len(av)
                changed = state.labels[t, av] != avals
                if changed.any():
                    cv = av[changed]
                    cvals = avals[changed]
                    state.labels[t, cv] = cvals
                    report.value_changes += len(cv)
                    report.note_touched_many(state.ids_of(cv), t)
                    changed_vs.append(cv)
                    changed_vals.append(cvals)
            if rp_v.size:
                lo, hi = level_bounds[t - 1], level_bounds[t]
                if hi > lo:
                    rv = rp_v[lo:hi]
                    new_labels = rp_fallback[lo:hi].copy()
                    live = np.nonzero(has_mask[lo:hi])[0]
                    if live.size:
                        new_labels[live] = state.labels[
                            rp_pos[lo:hi][live], rp_src[lo:hi][live]
                        ]
                    old_labels = state.labels[t, rv]
                    state.labels[t, rv] = new_labels
                    changed = new_labels != old_labels
                    if changed.any():
                        report.value_changes += int(np.count_nonzero(changed))
                        changed_vs.append(rv[changed])
                        changed_vals.append(new_labels[changed])
            if changed_vs:
                self._notify(
                    np.concatenate(changed_vs)
                    if len(changed_vs) > 1
                    else changed_vs[0],
                    t,
                    np.concatenate(changed_vals)
                    if len(changed_vals) > 1
                    else changed_vals[0],
                    pending,
                )

        # --- 5. register the new reverse records (batch-end flush) ------
        # Safe to defer: a record created this batch points a receiver at a
        # level the drain has already passed, so no in-batch query needs it.
        if rp_v.size:
            state.register_slots(
                rp_src[has_mask], rp_pos[has_mask], rp_v[has_mask], rp_t[has_mask]
            )
        return report

    def remove_vertex(self, v: int) -> UpdateReport:
        """Delete a vertex: incident-edge deletion batch, then drop its
        column once nothing references it (same flow as the reference)."""
        if not self.graph.has_vertex(v):
            raise KeyError(f"vertex {v} not in graph")
        incident = EditBatch.build(
            deletions=[(v, u) for u in self.graph.neighbors_view(v)]
        )
        report = (
            self.apply_batch(incident)
            if incident
            else UpdateReport(track_slots=self.track_slots)
        )
        t_max = self.state.num_iterations
        if t_max:
            self.state.detach_slots(
                np.repeat(self.state.columns([v]), t_max),
                np.arange(1, t_max + 1, dtype=np.int64),
            )
        self.state.drop_vertex(v)
        self.graph.remove_vertex(v)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _notify(
        self,
        v_arr: np.ndarray,
        t: int,
        vals: np.ndarray,
        pending: _Pending,
    ) -> None:
        """Queue corrected values of slots ``(v, t)`` to their receivers,
        grouped by destination level (always strictly ahead of ``t``)."""
        state = self.state
        keys = v_arr * np.int64(state.num_iterations + 1) + np.int64(t)
        owner, tar, k = state.receivers_query(keys)
        if not len(tar):
            return
        if (k <= t).any():
            raise AssertionError(
                f"reverse record at level {t} points backwards in time"
            )
        order = np.argsort(k, kind="stable")
        k_sorted = k[order]
        tar_sorted = tar[order]
        val_sorted = vals[owner[order]]
        levels, starts = np.unique(k_sorted, return_index=True)
        stops = np.append(starts[1:], len(k_sorted))
        for level, lo, hi in zip(levels.tolist(), starts.tolist(), stops.tolist()):
            pending[level].append((tar_sorted[lo:hi], val_sorted[lo:hi]))

    def __repr__(self) -> str:
        return (
            f"FastCorrectionPropagator(seed={self.seed}, "
            f"epoch={self.batch_epoch}, state={self.state!r})"
        )
