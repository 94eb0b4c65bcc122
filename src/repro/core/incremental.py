"""Correction Propagation — incremental maintenance of label sequences.

Algorithm 2 of the paper.  After a batch of edge insertions/deletions, the
label state must be repaired so that every slot ``(v, t)`` can again be
treated as a uniform (source, position) draw over the *new* neighbourhood.
The paper's case analysis (Section IV-A) classifies each vertex by how its
neighbour set changed:

* **Category 1** — no change: keep everything.
* **Category 2** — only losses: a slot is repicked iff its recorded source
  edge was deleted; surviving sources remain uniform over the remaining
  neighbours (Theorem 4).
* **Category 3** — gains (and maybe losses): a slot whose source survived is
  kept with probability ``n_u / (n_u + n_a)``, otherwise repicked uniformly
  *from the added neighbours*; a slot whose source was deleted is repicked
  from all current neighbours (Theorem 5).

Repairs then cascade: every slot that fetched a changed value is corrected
through the reverse records ``R`` (Section IV-B), strictly forward in
iteration index, so a single ascending pass over ``t`` reaches the fixpoint
(a label picked at iteration ``k`` can only feed slots with ``t > k``).

The implementation is event-driven — cost proportional to the number of
touched labels ``η``, not to ``T·|V|`` — which is exactly the property
Figure 9 measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.incremental_fast import UpdateReport
from repro.core.randomness import NO_SOURCE, keep_lottery_uniform, repick_draw
from repro.core.rslpa import ReferencePropagator
from repro.graph.edits import EditBatch

__all__ = [
    "UpdateReport",
    "CorrectionPropagator",
    "keep_lottery_uniform",
    "repick_draw",
]


class CorrectionPropagator:
    """Applies edit batches to a :class:`ReferencePropagator`'s state.

    The propagator, its graph and its label state are mutated in place; each
    :meth:`apply_batch` call returns an :class:`UpdateReport`.

    The batch epoch feeds the keep-lottery randomness so that repeated
    batches draw fresh lotteries, while the per-slot epoch feeds repick
    randomness so that a slot repicked twice in one batch lifetime gets
    independent draws.

    ``track_slots=False`` switches the reports to the counting fast path
    (η without the per-slot set; see :class:`UpdateReport`).
    """

    def __init__(self, propagator: ReferencePropagator, track_slots: bool = True):
        self.propagator = propagator
        self.graph = propagator.graph
        self.state = propagator.state
        self.seed = propagator.seed
        self.batch_epoch = 0
        self.track_slots = track_slots

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def apply_batch(self, batch: EditBatch) -> UpdateReport:
        """Apply a validated edit batch: mutate graph, repair label state.

        Vertices mentioned by inserted edges that do not exist yet are
        created (the paper's vertex-insertion premise); vertices left with
        degree 0 keep their state and fall back to their own label.
        """
        batch.validate_against(self.graph)
        self.batch_epoch += 1
        report = UpdateReport(
            batch_size=batch.size,
            num_inserted=len(batch.insertions),
            num_deleted=len(batch.deletions),
            track_slots=self.track_slots,
        )

        added = batch.added_neighbors()
        removed = batch.removed_neighbors()

        # --- 1. mutate the graph and caches -----------------------------
        new_vertices: List[int] = []
        for u, v in batch.insertions:
            for endpoint in (u, v):
                if not self.graph.has_vertex(endpoint):
                    self.graph.add_vertex(endpoint)
                    new_vertices.append(endpoint)
        for u, v in batch.deletions:
            self.graph.remove_edge(u, v)
        for u, v in batch.insertions:
            self.graph.add_edge(u, v)
        for v in set(added) | set(removed):
            self.propagator.invalidate_neighbors(v)
        for v in new_vertices:
            self.propagator.add_vertex_state(v)

        # --- 2. per-slot category handling -------------------------------
        # Collect repick decisions first so that *all* stale reverse records
        # are detached before any cascade notification is generated.
        repick_all: List[Tuple[int, int]] = []  # (v, t): draw over all nbrs
        repick_added: List[Tuple[int, int]] = []  # (v, t): draw over added
        t_max = self.state.num_iterations

        touched_vertices = sorted(set(added) | set(removed))
        for v in touched_vertices:
            removed_here = removed.get(v, set())
            added_here = added.get(v, set())
            current = self.propagator.sorted_neighbors(v)
            n_current = len(current)
            n_added = len(added_here)
            n_unchanged = n_current - n_added
            for t in range(1, t_max + 1):
                src = self.state.srcs[v][t]
                if src == NO_SOURCE:
                    # Fallback slot: the vertex had no neighbours when this
                    # slot was drawn (so it has no "unchanged" source to
                    # keep).  If it gained neighbours, draw over all of them.
                    if n_added > 0:
                        repick_all.append((v, t))
                    continue
                if src in removed_here:
                    # Source edge deleted: must repick from current nbrs
                    # (Category 2 second case / Category 3 second case).
                    repick_all.append((v, t))
                    continue
                if n_added == 0:
                    continue  # Category 1 or surviving Category-2 slot: keep.
                # Category 3 with surviving source: keep lottery (Theorem 5).
                report.keep_lotteries += 1
                lottery = keep_lottery_uniform(self.seed, v, t, self.batch_epoch)
                if lottery < n_added / (n_unchanged + n_added):
                    report.lottery_switches += 1
                    repick_added.append((v, t))
                # else: keep — Theorem 5 makes the result uniform over all
                # current neighbours.

        # Detach every slot that will be repicked (clears stale records).
        for v, t in repick_all:
            self.state.detach_slot(v, t)
        for v, t in repick_added:
            self.state.detach_slot(v, t)

        # --- 3. execute repicks and cascade, ascending in t ---------------
        pending_repick_all: Dict[int, List[int]] = {}
        for v, t in repick_all:
            pending_repick_all.setdefault(t, []).append(v)
        pending_repick_added: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        for v, t in repick_added:
            pending_repick_added.setdefault(t, []).append(
                (v, tuple(sorted(added.get(v, ()))))
            )

        # notifications[t] = {vertex: corrected value}
        notifications: Dict[int, Dict[int, int]] = {}

        for t in range(1, t_max + 1):
            # 3a. cascade corrections arriving at iteration t.
            arrived = notifications.pop(t, None)
            if arrived:
                for v, new_label in arrived.items():
                    report.cascade_corrections += 1
                    if self.state.labels[v][t] == new_label:
                        continue
                    self.state.set_label(v, t, new_label)
                    report.value_changes += 1
                    report.note_touched(v, t)
                    self._notify_receivers(v, t, new_label, notifications)
            # 3b. repicks at iteration t (read post-correction upstream).
            for v in pending_repick_all.get(t, ()):
                self._execute_repick(v, t, None, report, notifications)
            for v, added_nbrs in pending_repick_added.get(t, ()):
                self._execute_repick(v, t, added_nbrs, report, notifications)

        if notifications:
            leftover = sorted(notifications)[:3]
            raise AssertionError(
                f"correction propagation left pending notifications at {leftover}"
            )
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute_repick(
        self,
        v: int,
        t: int,
        added_nbrs: Optional[Tuple[int, ...]],
        report: UpdateReport,
        notifications: Dict[int, Dict[int, int]],
    ) -> None:
        """Draw a fresh (src, pos) for slot (v, t) and install the new value.

        ``added_nbrs`` restricts the draw to the newly-added neighbours
        (the Theorem-5 switch case); ``None`` draws over all current
        neighbours.  Epochs guarantee fresh randomness per redraw.
        """
        state = self.state
        candidates = (
            added_nbrs if added_nbrs is not None else self.propagator.sorted_neighbors(v)
        )
        old_label = state.labels[v][t]
        epoch = state.epochs[v][t] + 1
        report.repicked += 1
        report.note_touched(v, t)
        if len(candidates) == 0:
            # Vertex is now isolated: fall back to its own initial label.
            state.replace_pick(v, t, state.labels[v][0], NO_SOURCE, NO_SOURCE, epoch)
        else:
            idx, pos = repick_draw(self.seed, v, t, epoch, len(candidates))
            src = candidates[idx]
            state.replace_pick(v, t, state.labels[src][pos], src, pos, epoch)
        new_label = state.labels[v][t]
        if new_label != old_label:
            report.value_changes += 1
            self._notify_receivers(v, t, new_label, notifications)

    def _notify_receivers(
        self,
        v: int,
        t: int,
        new_label: int,
        notifications: Dict[int, Dict[int, int]],
    ) -> None:
        """Queue the corrected value of slot (v, t) to all its receivers.

        A receiver ``(tar, k)`` always has ``k > t`` (labels are only fetched
        from earlier iterations), so the ascending-t driver loop will still
        visit it.
        """
        for tar, k in self.state.receivers_of(v, t):
            if k <= t:  # defensive: would violate the propagation-DAG shape
                raise AssertionError(
                    f"record ({v}, {t}) -> ({tar}, {k}) points backwards in time"
                )
            notifications.setdefault(k, {})[tar] = new_label

    # ------------------------------------------------------------------
    # Vertex-level convenience (paper Section IV premises)
    # ------------------------------------------------------------------
    def remove_vertex(self, v: int) -> UpdateReport:
        """Delete a vertex: apply the all-incident-edges deletion batch, then
        drop its state once nothing references it anymore."""
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
        # After the batch no slot sources from v (all its edges are gone and
        # every dependent slot was repicked), but v's own slots may still
        # hold sources — detach them so the reverse maps clear.
        for t in range(1, self.state.num_iterations + 1):
            self.state.detach_slot(v, t)
        self.propagator.drop_vertex_state(v)
        self.graph.remove_vertex(v)
        return report
