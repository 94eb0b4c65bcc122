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

The service degrades gracefully rather than failing hard: a lazy
re-extraction that raises keeps serving the last published index (the
queries stay answerable, counted as ``stale_serves``), ingest bursts
surface :class:`~repro.service.ingest.BackpressureError` with a
``retry_after`` hint (and :meth:`submit` takes a bounded-wait
``timeout=``), and when the detector ran on the supervised multiprocess
engine its :class:`~repro.distributed.metrics.RecoveryStats` counters
appear under ``stats()["recovery"]``.

The facade works unchanged over every engine the detector offers: local
reference, the vectorised array substrate, or a :meth:`start`
``num_workers > 0`` distributed BSP fit — all bit-identical per seed, so
the durability contract holds across them too, for any vertex ids the
detector takes (all but −1): checkpoints carry the ids, so a service
keeps checkpointing whatever ids its batches create.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from time import time_ns
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.api.config import (
    DEFAULT_ITERATIONS,
    AlgoConfig,
    ExecutionConfig,
    ServicePlanConfig,
)
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

__all__ = ["CommunityService", "ServiceConfig", "ServicePlanConfig"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything tunable about a service instance, flat in one place.

    This is the keyword-friendly (legacy) form of
    :class:`repro.api.config.ServicePlanConfig`; the two convert 1:1
    (:meth:`as_plan_config` / :func:`_flatten_plan_config`) and the
    service takes either.

    ``staleness_batches`` is K in the lazy re-extraction policy: a query
    finding K or more batches applied since the last extraction triggers
    one (0 = always fresh).  ``checkpoint_every`` = 0 disables automatic
    checkpoints (explicit :meth:`CommunityService.checkpoint` still works);
    it only matters when a checkpoint directory is configured.  With
    ``strict_edits`` off, flushed edits that are no-ops against the live
    graph (inserting a present edge, deleting an absent one) are dropped
    instead of raising.
    """

    seed: int = 0
    iterations: int = DEFAULT_ITERATIONS
    backend: str = "auto"
    tau_step: float = 0.001
    batch_size: int = 256
    max_pending: Optional[int] = None
    staleness_batches: int = 4
    match_threshold: float = 0.3
    drift_tolerance: float = 0.1
    checkpoint_every: int = 1
    keep_checkpoints: int = 2
    strict_edits: bool = True

    def as_plan_config(
        self, execution: Optional[ExecutionConfig] = None
    ) -> ServicePlanConfig:
        """The structured config-layer form of this flat config.

        An ``execution`` config supplies the distributed axes; its backend
        is overridden by this config's ``backend`` field (the same
        precedence the service applies to keyword overrides).
        """
        if execution is None:
            execution = ExecutionConfig(backend=self.backend)
        elif execution.backend != self.backend:
            execution = replace(execution, backend=self.backend)
        return ServicePlanConfig(
            algo=AlgoConfig(
                seed=self.seed, iterations=self.iterations, tau_step=self.tau_step
            ),
            execution=execution,
            batch_size=self.batch_size,
            max_pending=self.max_pending,
            staleness_batches=self.staleness_batches,
            match_threshold=self.match_threshold,
            drift_tolerance=self.drift_tolerance,
            checkpoint_every=self.checkpoint_every,
            keep_checkpoints=self.keep_checkpoints,
            strict_edits=self.strict_edits,
        )


def _flatten_plan_config(plan_cfg: ServicePlanConfig) -> ServiceConfig:
    """The flat legacy view of a :class:`ServicePlanConfig` (1:1 fields)."""
    return ServiceConfig(
        seed=plan_cfg.algo.seed,
        iterations=plan_cfg.algo.iterations,
        backend=plan_cfg.execution.backend,
        tau_step=plan_cfg.algo.tau_step,
        batch_size=plan_cfg.batch_size,
        max_pending=plan_cfg.max_pending,
        staleness_batches=plan_cfg.staleness_batches,
        match_threshold=plan_cfg.match_threshold,
        drift_tolerance=plan_cfg.drift_tolerance,
        checkpoint_every=plan_cfg.checkpoint_every,
        keep_checkpoints=plan_cfg.keep_checkpoints,
        strict_edits=plan_cfg.strict_edits,
    )


def _normalise_config(
    config: Optional[Union[ServiceConfig, ServicePlanConfig]], overrides
) -> Tuple[ServiceConfig, ExecutionConfig]:
    """Accept either config form (+ keyword overrides on the flat fields)."""
    if isinstance(config, ServicePlanConfig):
        execution = config.execution
        cfg = _flatten_plan_config(config)
    else:
        cfg = config if config is not None else ServiceConfig()
        execution = None
    if overrides:
        cfg = replace(cfg, **overrides)
    if execution is None:
        execution = ExecutionConfig(backend=cfg.backend)
    elif execution.backend != cfg.backend:  # a backend= override wins
        execution = replace(execution, backend=cfg.backend)
    return cfg, execution


def _service_obs(execution: ExecutionConfig):
    """A fresh observability context when ``execution.trace`` asks for one.

    The service plane records ``service.*`` spans (apply, extract) and
    metrics (queue depth, coalescing ratio, staleness at serve time, WAL
    fsync latency) into the same context the engines use, so one exported
    trace covers ingest, repair, and query; ``None`` (tracing off) keeps
    every service path free of :mod:`repro.obs` calls.
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
        config: Optional[Union[ServiceConfig, ServicePlanConfig]] = None,
        checkpoint_dir: Optional[str] = None,
        **overrides,
    ):
        cfg, execution = _normalise_config(config, overrides)
        self.config = cfg
        self.execution = execution
        self.detector = RSLPADetector(
            graph,
            algo=AlgoConfig(
                seed=cfg.seed, iterations=cfg.iterations, tau_step=cfg.tau_step
            ),
            execution=execution,
        )
        self.queue = EditQueue(
            batch_size=cfg.batch_size, max_pending=cfg.max_pending
        )
        self.index = MembershipIndex(
            match_threshold=cfg.match_threshold,
            drift_tolerance=cfg.drift_tolerance,
        )
        self.store = (
            CheckpointStore(checkpoint_dir, keep=cfg.keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        self.obs = _service_obs(execution)
        if self.store is not None:
            self.store.obs = self.obs
        self._started = False
        self.checkpoint_fallbacks = 0
        self.batches_applied = 0
        self.edits_applied = 0
        self.batches_since_extract = 0
        self.extractions = 0
        self.queries_served = 0
        self.wal_discarded_records = 0
        self.stale_serves = 0
        self.refresh_failures = 0
        self.last_report: Optional[UpdateReport] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The live graph (the detector's private copy; read-only)."""
        return self.detector.graph

    def plan(self) -> RunPlan:
        """The detector's resolved execution plan for the live graph."""
        return self.detector.plan()

    def start(self, num_workers: Optional[int] = None) -> "CommunityService":
        """Fit the detector (locally, or on ``num_workers`` BSP workers),
        build the first extraction, and write the baseline checkpoint.

        Defaults come from the service's :class:`ExecutionConfig` — a
        :class:`ServicePlanConfig` with ``execution.num_workers > 0``
        makes ``start()`` a distributed fit without further keywords.
        """
        if self._started:
            raise RuntimeError("service already started")
        if num_workers is None:
            num_workers = self.execution.num_workers
        if num_workers:
            self.detector.fit_distributed(num_workers=num_workers)
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
        config: Optional[Union[ServiceConfig, ServicePlanConfig]] = None,
        **overrides,
    ) -> "CommunityService":
        """Restore a service from its checkpoint directory.

        Loads the latest checkpoint, replays the WAL tail through
        ``detector.update``, and re-extracts — the result is bit-identical
        (label matrices and cover) to the state the crashed service held
        after its last durably-applied batch.  The seed is taken from the
        checkpoint; other config (backend, staleness, batching) may differ
        from the original run without affecting the recovered state.

        A torn WAL tail (the crash interrupted an append) is discarded —
        by write-ahead ordering those records were never applied — but the
        loss is logged and surfaced as ``wal_discarded_records`` in
        :meth:`stats`.

        A corrupt checkpoint *file* (torn copy, disk fault) raises
        :class:`~repro.service.durability.CorruptCheckpointError` — but
        only after falling back through every older retained checkpoint:
        the WAL keeps each retained checkpoint's full tail, so recovering
        from an older epoch replays to the exact same state.  The number
        of files skipped that way is surfaced as ``checkpoint_fallbacks``
        in :meth:`stats`.
        """
        cfg, execution = _normalise_config(config, overrides)
        store = CheckpointStore(checkpoint_dir, keep=cfg.keep_checkpoints)
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
        cfg = replace(cfg, seed=ckpt.seed, iterations=ckpt.iterations)
        service = cls.__new__(cls)
        service.config = cfg
        service.execution = execution
        service.detector = RSLPADetector.from_state(
            ckpt.graph,
            ckpt.state,
            ckpt.seed,
            backend=cfg.backend,
            tau_step=cfg.tau_step,
            batch_epoch=ckpt.batch_epoch,
        )
        service.queue = EditQueue(
            batch_size=cfg.batch_size, max_pending=cfg.max_pending
        )
        service.index = MembershipIndex(
            match_threshold=cfg.match_threshold,
            drift_tolerance=cfg.drift_tolerance,
        )
        service.store = store
        service.obs = _service_obs(execution)
        store.obs = service.obs
        service._started = True
        service.batches_applied = ckpt.batch_epoch
        service.edits_applied = ckpt.edits_applied
        service.batches_since_extract = 0
        service.extractions = 0
        service.queries_served = 0
        service.checkpoint_fallbacks = len(corrupt)
        service.stale_serves = 0
        service.refresh_failures = 0
        service.last_report = None
        for epoch, batch in store.read_wal(after_epoch=ckpt.batch_epoch):
            if epoch != service.batches_applied + 1:
                raise ValueError(
                    f"WAL does not continue from checkpoint: expected epoch "
                    f"{service.batches_applied + 1}, found {epoch}"
                )
            service.last_report = service.detector.update(batch)
            service.batches_applied = epoch
            service.edits_applied += batch.size
        service.wal_discarded_records = store.last_discarded_records
        if service.wal_discarded_records:
            logger.warning(
                "recovery discarded %d torn WAL record(s); by write-ahead "
                "ordering they were never applied, so the recovered state "
                "is still exact as of batch epoch %d",
                service.wal_discarded_records,
                service.batches_applied,
            )
        service.refresh()
        return service

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("service not started; call start() first")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(
        self, op: str, u: int, v: int, timeout: Optional[float] = None
    ) -> Optional[UpdateReport]:
        """Offer one edit ('+' insert / '-' delete); flush if a window fills.

        Returns the flush's :class:`UpdateReport` when this edit completed
        a window, else ``None`` (the edit is pending, coalesced, or
        cancelled).  A full queue raises
        :class:`~repro.service.ingest.BackpressureError` carrying a
        ``retry_after`` back-off hint; ``timeout=`` bounds a wait for
        capacity first.
        """
        self._require_started()
        self.queue.offer(op, u, v, timeout=timeout)
        if self.queue.ready:
            return self.flush()
        return None

    def submit_insert(
        self, u: int, v: int, timeout: Optional[float] = None
    ) -> Optional[UpdateReport]:
        return self.submit("+", u, v, timeout=timeout)

    def submit_delete(
        self, u: int, v: int, timeout: Optional[float] = None
    ) -> Optional[UpdateReport]:
        return self.submit("-", u, v, timeout=timeout)

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
        if not self.config.strict_edits:
            graph = self.detector.graph
            batch = EditBatch(
                insertions=frozenset(
                    e for e in batch.insertions if not graph.has_edge(*e)
                ),
                deletions=frozenset(
                    e for e in batch.deletions if graph.has_edge(*e)
                ),
            )
            if not batch:
                return None
        obs = self.obs
        if obs is not None:
            apply_start = time_ns()
        # Validate before logging: the WAL must only ever contain batches
        # that are guaranteed to apply (write-ahead implies replay-ahead).
        batch.validate_against(self.detector.graph)
        epoch = self.batches_applied + 1
        if self.store is not None:
            self.store.append_wal(epoch, batch)
        report = self.detector.update(batch)
        self.batches_applied = epoch
        self.edits_applied += batch.size
        self.batches_since_extract += 1
        self.last_report = report
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
            self.detector.graph,
            seed=self.config.seed,
            batch_epoch=self.batches_applied,
            edits_applied=self.edits_applied,
        )

    # ------------------------------------------------------------------
    # Query plane
    # ------------------------------------------------------------------
    def refresh(self) -> Optional[TransitionReport]:
        """Re-extract now and rebuild the index (the on-demand path)."""
        self._require_started()
        obs = self.obs
        if obs is not None:
            extract_start = time_ns()
            obs.metrics.histogram("service.staleness_at_extract").observe(
                self.batches_since_extract
            )
        report = self.index.update(self.detector.communities())
        self.extractions += 1
        self.batches_since_extract = 0
        if obs is not None:
            obs.trace.record("service.extract", extract_start, plane="service")
        return report

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
        graph = self.detector.graph
        payload: Dict[str, object] = {
            "started": self._started,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
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
            "queue_backpressure_hits": self.queue.backpressure_hits,
            "queue_retry_after": self.queue.retry_after,
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
