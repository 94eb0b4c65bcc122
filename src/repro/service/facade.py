"""The :class:`CommunityService` facade: ingest, query, survive.

One object wires the three planes together around a fitted
:class:`~repro.core.detector.RSLPADetector`:

* edits stream in through :meth:`submit` → the :class:`EditQueue`
  micro-batcher → ``detector.update`` (Correction Propagation) whenever a
  window fills;
* queries (:meth:`communities_of`, :meth:`members`, :meth:`overlap`) are
  answered from the :class:`MembershipIndex` over a cached extraction,
  re-extracted lazily once ``staleness_batches`` batches have landed since
  the last one — the paper's "update continuously, extract periodically"
  policy (Section V-B3) as a max-staleness bound;
* with a checkpoint directory configured, every applied batch is logged
  write-ahead and the state checkpoints every ``checkpoint_every``
  batches, so :meth:`recover` restores a bit-identical service after a
  crash (a torn WAL tail is discarded, counted, and surfaced in
  :meth:`stats` — by write-ahead ordering those records were never
  applied).

Ingest is synchronous: the :meth:`submit` that fills a window validates
it against the live graph, logs it and applies it before returning, so
no burst can outrun the repair; a window that does not apply raises
``ValueError`` before anything is logged.

The service degrades gracefully rather than failing hard: a lazy
re-extraction that raises keeps serving the last published index (the
queries stay answerable, counted as ``stale_serves``), and when the
detector ran on the supervised multiprocess engine its
:class:`~repro.distributed.metrics.RecoveryStats` counters appear under
``stats()["recovery"]``.

One :class:`~repro.api.config.ServicePlanConfig` configures a service,
its detector running the ``algo`` and ``execution`` as they are; keyword
arguments apply through its ``with_overrides``, bar the replication
fields, which are the supervisor's.

The facade works unchanged over every engine the detector offers: local
reference, the vectorised array substrate, or, with
``execution.num_workers > 0``, a distributed BSP fit in :meth:`start` —
all bit-identical per seed, so
the durability contract holds across them too, for any vertex ids the
detector takes (all but −1): checkpoints carry the ids, so a service
keeps checkpointing whatever ids its batches create.
"""

from __future__ import annotations

import logging
from time import time_ns
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.api.config import ExecutionConfig, ServicePlanConfig
from repro.api.plan import RunPlan
from repro.core.communities import Cover
from repro.core.detector import RSLPADetector
from repro.core.incremental_fast import UpdateReport
from repro.core.labels_array import ArrayLabelState
from repro.core.tracking import TransitionReport
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.service.durability import CheckpointStore, CorruptCheckpointError
from repro.service.index import MembershipIndex
from repro.service.ingest import EditQueue

__all__ = ["CommunityService", "ServicePlanConfig"]

logger = logging.getLogger(__name__)


def _config_of(config: Optional[ServicePlanConfig], overrides) -> ServicePlanConfig:
    """``config`` (default: :class:`ServicePlanConfig`) with the facade's
    keyword overrides; the replication ones are the supervisor's."""
    refused = sorted(set(overrides) & {
        "replicas", "heartbeat_interval", "max_failovers", "service_transport"
    })
    if refused:
        raise TypeError(
            f"CommunityService got unexpected keyword(s) {', '.join(refused)}; "
            f"a replicated deployment runs under ServiceSupervisor"
        )
    return (config or ServicePlanConfig()).with_overrides(**overrides)


def _service_obs(execution: ExecutionConfig):
    """A fresh observability context when ``execution.trace`` asks for one.

    The service plane records ``service.*`` spans (apply, extract,
    checkpoint) and metrics (queue depth, coalescing ratio, staleness at
    serve time, WAL fsync and checkpoint write latency) into the same
    context the engines use, and hands it to its checkpoint store, its
    membership index (a refresh's ``core.tracking.match`` and
    ``service.index.build`` spans) and its detector's corrector (the
    repair's ``core.incremental_fast.*`` and ``core.labels_array.*``
    spans), so one exported trace covers ingest, repair, durability,
    extraction and query; ``None`` (tracing off) keeps every service path
    free of :mod:`repro.obs` calls.
    """
    if not execution.trace:
        return None
    from repro.obs import Obs

    obs = Obs()
    obs.meta.setdefault("mode", "service")
    return obs


class CommunityService:
    """A long-lived overlapping-community service over a dynamic graph.

    >>> from repro.graph.generators import ring_of_cliques
    >>> service = CommunityService(
    ...     ring_of_cliques(4, 5), seed=3, iterations=60, batch_size=2
    ... ).start()
    >>> service.communities_of(0) != ()
    True
    >>> _ = service.submit_insert(0, 10)   # queued, window not full
    >>> service.stats()["pending_edits"]
    1
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[ServicePlanConfig] = None,
        checkpoint_dir: Optional[str] = None,
        **overrides,
    ):
        config = _config_of(config, overrides)
        detector = RSLPADetector(
            graph, algo=config.algo, execution=config.execution
        )
        store = (
            CheckpointStore(checkpoint_dir, keep=config.keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        self._setup(config, detector, store)

    def _setup(
        self,
        config: ServicePlanConfig,
        detector: RSLPADetector,
        store: Optional[CheckpointStore],
        *,
        started: bool = False,
        batches_applied: int = 0,
        edits_applied: int = 0,
        checkpoint_fallbacks: int = 0,
    ) -> None:
        """Set every field; shared by :meth:`__init__` and :meth:`_restore`."""
        self.config = config
        self.detector = detector
        self.queue = EditQueue(batch_size=config.batch_size)
        self.index = MembershipIndex(
            match_threshold=config.match_threshold,
            drift_tolerance=config.drift_tolerance,
        )
        self.store = store
        self.obs = _service_obs(config.execution)
        self.detector.obs = self.obs
        self.index.obs = self.obs
        if store is not None:
            store.obs = self.obs
        self._started = started
        self.checkpoint_fallbacks = checkpoint_fallbacks
        self.batches_applied = batches_applied
        self.edits_applied = edits_applied
        self.batches_since_extract = 0
        self.extractions = 0
        self.queries_served = 0
        self.wal_discarded_records = 0
        self.stale_serves = 0
        self.refresh_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The live graph (read-only).  On the fast backend each read
        builds it from the repair's array adjacency (O(m)); the service's
        own paths read the adjacency instead."""
        return self.detector.graph

    def plan(self) -> RunPlan:
        """The detector's resolved execution plan for the live graph."""
        return self.detector.plan()

    def start(self) -> "CommunityService":
        """Fit the detector, build the first extraction, and write the
        baseline checkpoint.

        The config's :class:`ExecutionConfig` says where the fit runs:
        ``execution.num_workers > 0`` makes it a distributed BSP fit on
        that many workers, else it runs locally.
        """
        if self._started:
            raise RuntimeError("service already started")
        if self.config.execution.num_workers:
            self.detector.fit_distributed()
        else:
            self.detector.fit()
        if self.obs is not None:
            # A traced distributed fit recorded its spans into the engine's
            # own context (created by the cluster wrappers); fold them into
            # the service's so one export covers fit + ingest + queries.
            engine_obs = getattr(
                getattr(self.detector, "comm_stats", None), "obs", None
            )
            if engine_obs is not None and engine_obs is not self.obs:
                self.obs.trace.merge(engine_obs.trace.snapshot())
                self.obs.metrics.merge(engine_obs.metrics.snapshot())
        self._started = True
        self.refresh()
        if self.store is not None:
            self.checkpoint()
        return self

    @classmethod
    def recover(
        cls,
        checkpoint_dir: str,
        config: Optional[ServicePlanConfig] = None,
        **overrides,
    ) -> "CommunityService":
        """Restore a service from its checkpoint directory.

        Loads the latest checkpoint, replays the WAL tail, and re-extracts
        — the result is bit-identical (label matrices and cover) to the
        state the crashed service held after its last durably-applied
        batch.  The seed and iterations are taken from the checkpoint;
        other config (backend, staleness, batching, tracing) may differ
        from the original run without affecting the recovered state.

        A torn WAL tail (the crash interrupted an append) is discarded —
        by write-ahead ordering those records were never applied — but the
        loss is logged and surfaced as ``wal_discarded_records`` in
        :meth:`stats`.

        A corrupt checkpoint *file* (torn copy, disk fault, flipped byte)
        raises :class:`~repro.service.durability.CorruptCheckpointError` — but
        only after falling back through every older retained checkpoint:
        the WAL keeps each retained checkpoint's full tail, so recovering
        from an older epoch replays to the exact same state.  The number
        of files skipped that way is surfaced as ``checkpoint_fallbacks``
        in :meth:`stats`.
        """
        service = cls._restore(checkpoint_dir, config, **overrides)
        service.refresh()
        return service

    @classmethod
    def _restore(
        cls,
        checkpoint_dir: str,
        config: Optional[ServicePlanConfig] = None,
        **overrides,
    ) -> "CommunityService":
        """:meth:`recover` without its closing extraction: the one restore.

        Loads the newest checkpoint that loads (falling back through older
        ones) and replays the intact WAL tail through :meth:`_replay`.
        The index is left unpublished: :meth:`recover` extracts, and a
        read replica installs its primary's exported index instead.
        """
        config = _config_of(config, overrides)
        store = CheckpointStore(checkpoint_dir, keep=config.keep_checkpoints)
        epochs = store.checkpoint_epochs()
        if not epochs:
            raise FileNotFoundError(f"no checkpoints under {checkpoint_dir}")
        ckpt = None
        corrupt: list = []
        for epoch in reversed(epochs):
            try:
                ckpt = store.load_checkpoint(epoch)
                break
            except CorruptCheckpointError as exc:
                corrupt.append(exc)
                logger.warning(
                    "skipping corrupt checkpoint (falling back an epoch): %s",
                    exc,
                )
        if ckpt is None:
            # Every retained checkpoint is bad; re-raise the freshest
            # failure — it names the file the operator should inspect.
            raise corrupt[0]
        config = config.with_overrides(seed=ckpt.seed, iterations=ckpt.iterations)
        detector = RSLPADetector.from_state(
            ckpt.edges,
            ckpt.state,
            ckpt.seed,
            backend=config.backend,
            tau_step=config.tau_step,
            batch_epoch=ckpt.batch_epoch,
        )
        service = cls.__new__(cls)
        service._setup(
            config,
            detector,
            store,
            started=True,
            batches_applied=ckpt.batch_epoch,
            edits_applied=ckpt.edits_applied,
            checkpoint_fallbacks=len(corrupt),
        )
        for epoch, batch in service._wal_tail():
            service._replay(epoch, batch)
        return service

    def _wal_tail(self) -> List[Tuple[int, EditBatch]]:
        """The intact logged records past ``batches_applied``, in order.

        A torn tail the read cut off is counted in
        ``wal_discarded_records`` and logged; by write-ahead ordering it
        was never applied.
        """
        records = self.store.read_wal(after_epoch=self.batches_applied)
        self.wal_discarded_records = self.store.last_discarded_records
        if self.wal_discarded_records:
            logger.warning(
                "discarded %d torn WAL record(s); by write-ahead ordering "
                "they were never applied, so the state replayed to batch "
                "epoch %d is still exact",
                self.wal_discarded_records,
                records[-1][0] if records else self.batches_applied,
            )
        return records

    def _replay(self, epoch: int, batch: EditBatch) -> Optional[UpdateReport]:
        """Apply one logged record at the next batch epoch.

        The only code that advances the state: recovery, a replica's
        bootstrap, shipping and promotion, and :meth:`_apply` (right after
        its WAL append) all land here.  A record at or below
        ``batches_applied`` is a no-op (``None``); a gap raises.
        """
        if epoch <= self.batches_applied:
            return None
        if epoch != self.batches_applied + 1:
            raise ValueError(
                f"WAL does not continue from batch epoch "
                f"{self.batches_applied}: expected epoch "
                f"{self.batches_applied + 1}, found {epoch}"
            )
        # The repair traces into this service's context.  Handed over here,
        # the one point every apply, restore, replica and promotion passes,
        # whichever path installed the corrector.
        self.detector._corrector.obs = self.obs
        report = self.detector.update(batch)
        self.batches_applied = epoch
        self.edits_applied += batch.size
        self.batches_since_extract += 1
        return report

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("service not started; call start() first")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, op: str, u: int, v: int) -> Optional[UpdateReport]:
        """Offer one edit ('+' insert / '-' delete); flush if a window fills.

        Returns the flush's :class:`UpdateReport` when this edit completed
        a window, else ``None`` (the edit is pending, coalesced, or
        cancelled).
        """
        self._require_started()
        self.queue.offer(op, u, v)
        if self.queue.ready:
            return self.flush()
        return None

    def submit_insert(self, u: int, v: int) -> Optional[UpdateReport]:
        return self.submit("+", u, v)

    def submit_delete(self, u: int, v: int) -> Optional[UpdateReport]:
        return self.submit("-", u, v)

    def flush(self) -> Optional[UpdateReport]:
        """Drain the queue and apply the net batch now (empty → no-op)."""
        self._require_started()
        return self._apply(self.queue.drain())

    def apply(self, batch: EditBatch) -> Optional[UpdateReport]:
        """Apply a pre-built batch directly (bulk ingest path).

        Pending queued edits are flushed first so the edit order stays the
        arrival order.
        """
        self._require_started()
        if self.queue.pending:
            self.flush()
        return self._apply(batch)

    def _apply(self, batch: EditBatch) -> Optional[UpdateReport]:
        if not batch:
            return None
        obs = self.obs
        if obs is not None:
            apply_start = time_ns()
        # Validate before logging: the WAL must only ever contain batches
        # that are guaranteed to apply (write-ahead implies replay-ahead).
        self.detector.validate_batch(batch)
        epoch = self.batches_applied + 1
        if self.store is not None:
            self.store.append_wal(epoch, batch)
        report = self._replay(epoch, batch)
        if (
            self.store is not None
            and self.config.checkpoint_every
            and epoch % self.config.checkpoint_every == 0
        ):
            self.checkpoint()
        if obs is not None:
            # The span covers WAL append + repair + any checkpoint; the
            # gauges publish the ingest plane's live operating point.
            obs.trace.record(
                "service.apply", apply_start, plane="service", superstep=epoch
            )
            obs.metrics.counter("service.batches_applied").inc()
            obs.metrics.counter("service.edits_applied").inc(batch.size)
            obs.metrics.gauge("service.queue_depth").set(self.queue.pending)
            obs.metrics.gauge("service.coalesce_ratio").set(
                self.queue.coalesce_ratio
            )
        return report

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Write a checkpoint of the current state (and rotate the WAL)."""
        self._require_started()
        if self.store is None:
            raise RuntimeError("no checkpoint directory configured")
        state = self.detector.array_state
        if state is None:
            # Reference backend: checkpoints are array-native regardless.
            state = ArrayLabelState.from_label_state(self.detector.label_state)
        self.store.write_checkpoint(
            state,
            self.detector.edge_array(),
            seed=self.config.seed,
            batch_epoch=self.batches_applied,
            edits_applied=self.edits_applied,
        )

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    def refresh(self) -> Optional[TransitionReport]:
        """Re-extract now and rebuild the index (the on-demand path).

        Traced, the ``service.extract`` span holds the extraction
        (``core.postprocess.extract_communities``, split into its stages
        when it is not cached) and the index update
        (``service.index.update``, split into the stable-id match and the
        map build).
        """
        self._require_started()
        obs = self.obs
        if obs is not None:
            extract_start = time_ns()
            obs.metrics.histogram("service.staleness_at_extract").observe(
                self.batches_since_extract
            )
        cover = self.detector.communities()
        if obs is not None:
            index_start = time_ns()
            obs.trace.record(
                "core.postprocess.extract_communities", extract_start,
                plane="core", end_ns=index_start,
            )
        report = self.index.update(cover)
        self.extractions += 1
        self.batches_since_extract = 0
        if obs is not None:
            end = time_ns()
            obs.trace.record(
                "service.index.update", index_start, plane="service", end_ns=end
            )
            obs.trace.record(
                "service.extract", extract_start, plane="service", end_ns=end
            )
        return report

    def _export_index(self) -> Tuple[Dict[str, object], int]:
        """The published index and the batch epoch it was extracted at."""
        return (
            self.index.export_state(),
            self.batches_applied - self.batches_since_extract,
        )

    def _install_index(self, exported: Tuple[Dict[str, object], int]) -> None:
        """Publish another service's :meth:`_export_index` as this one's,
        so later extractions continue its stable-id trajectory."""
        state, extracted_at = exported
        self.index.install_state(state)
        self.batches_since_extract = self.batches_applied - extracted_at

    def _maybe_refresh(self) -> None:
        if self.index.generation == 0:
            self.refresh()  # never extracted (defensive; start() extracts)
        elif (
            self.batches_since_extract
            and self.batches_since_extract >= self.config.staleness_batches
        ):
            # Graceful degradation: a failed lazy re-extraction (e.g. the
            # fit engine is mid-recovery) keeps serving the last published
            # index instead of failing the query — staleness over outage.
            # Explicit refresh() calls still raise; only the lazy path
            # degrades.
            try:
                self.refresh()
            except Exception:
                self.refresh_failures += 1
                self.stale_serves += 1
                logger.warning(
                    "lazy re-extraction failed; serving the index from "
                    "generation %d (%d batch(es) stale)",
                    self.index.generation,
                    self.batches_since_extract,
                    exc_info=True,
                )

    def _count_query(self) -> None:
        self.queries_served += 1
        obs = self.obs
        if obs is not None:
            obs.metrics.counter("service.queries").inc()
            # Staleness as the query actually experienced it: batches
            # applied since the index generation it was answered from.
            obs.metrics.histogram("service.staleness_at_serve").observe(
                self.batches_since_extract
            )

    def communities_of(self, vertex: int) -> Tuple[int, ...]:
        """Stable ids of the communities containing ``vertex``."""
        self._require_started()
        self._maybe_refresh()
        self._count_query()
        return self.index.communities_of(vertex)

    def members(self, cid: int) -> FrozenSet[int]:
        """Members of the community with stable id ``cid``."""
        self._require_started()
        self._maybe_refresh()
        self._count_query()
        return self.index.members(cid)

    def overlap(self, u: int, v: int) -> Tuple[int, ...]:
        """Stable ids of communities containing both ``u`` and ``v``."""
        self._require_started()
        self._maybe_refresh()
        self._count_query()
        return self.index.overlap(u, v)

    def cover(self) -> Cover:
        """The indexed cover (refreshing it first if stale)."""
        self._require_started()
        self._maybe_refresh()
        return self.index.cover

    def stats(self) -> Dict[str, object]:
        """A JSON-serialisable operational snapshot."""
        caps = self.detector.graph_caps()
        payload: Dict[str, object] = {
            "started": self._started,
            "vertices": caps.num_vertices,
            "edges": caps.num_edges,
            "pending_edits": self.queue.pending,
            "batches_applied": self.batches_applied,
            "edits_applied": self.edits_applied,
            "batches_since_extract": self.batches_since_extract,
            "staleness_batches": self.config.staleness_batches,
            "extractions": self.extractions,
            "queries_served": self.queries_served,
            "num_communities": len(self.index) if self.index.generation else None,
            "index_generation": self.index.generation,
            "queue_cancelled_pairs": self.queue.cancelled_pairs,
            "queue_duplicates": self.queue.duplicates,
            "stale_serves": self.stale_serves,
            "refresh_failures": self.refresh_failures,
        }
        if self.store is not None:
            payload["checkpoints"] = len(self.store.checkpoint_epochs())
            payload["latest_checkpoint_epoch"] = self.store.latest_epoch()
            payload["wal_records"] = self.store.wal_records()
            payload["checkpoint_fallbacks"] = self.checkpoint_fallbacks
            payload["wal_discarded_records"] = self.wal_discarded_records
        recovery = getattr(
            getattr(self.detector, "comm_stats", None), "recovery", None
        )
        if recovery is not None:
            # The supervised multiprocess engine ran the fit: surface its
            # fault-tolerance counters alongside the service's own.
            payload["recovery"] = recovery.as_dict()
        if self.obs is not None:
            payload["metrics"] = self.obs.metrics.snapshot()
        return payload

    def trace_result(self):
        """The recorded :class:`~repro.obs.TraceResult` for a traced
        service (``execution.trace=True``), else ``None``.

        Covers everything the service did so far — the fit's engine spans
        (merged in :meth:`start`), every applied batch, every extraction —
        plus the live metrics registry; callable repeatedly as the
        service keeps running.
        """
        if self.obs is None:
            return None
        return self.obs.result({"batches_applied": self.batches_applied})

    def close(self) -> None:
        """Release file handles (the WAL appender); the state stays usable."""
        if self.store is not None:
            self.store.close()

    def __repr__(self) -> str:
        status = (
            f"batches={self.batches_applied}, pending={self.queue.pending}"
            if self._started
            else "unstarted"
        )
        return f"CommunityService(seed={self.config.seed}, {status})"
