"""The per-layer table: which library calls are timed, and how each
per-layer metric is read from the spans and the program's own counters.

Layers are named after the modules.  The shims wrap public functions and
methods where the library looks them up at call time (a name imported
into another module is wrapped in the importing module), so no file under
``src/`` changes.  ``api`` is a thin front door, timed only inside its
callers.  Worker and service child processes run their own copies of the
shims, whose spans never reach this process: the distributed engine's
split comes from its own ``ExecutionConfig(trace=True)`` phase totals, and
a replicated service is timed at the supervisor.
"""

from __future__ import annotations

import os
from statistics import median
from typing import Dict

import repro.core.detector as detector_module
import repro.core.postprocess as postprocess_module
import repro.core.tracking as tracking_module
import repro.distributed as distributed_package
import repro.distributed.cluster as cluster_module
import repro.service.index as index_module
from repro.core.fast import FastPropagator
from repro.core.incremental_fast import FastCorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.graph.csr import CSRGraph
from repro.service import (
    CheckpointStore,
    CommunityService,
    EditQueue,
    MembershipIndex,
    ReplicatedClient,
    ServiceSupervisor,
)
from repro.service.durability import encode_wal_record


def _note_extraction(tracer, args, kwargs, result) -> None:
    tracer.notes["extract"].append(
        (tracer.region, len(result.weights), len(result.entropy_curve),
         len(result.cover), result.num_attached_vertices)
    )


def _note_matching(tracer, args, kwargs, result) -> None:
    tracer.notes["match"].append((tracer.region, args[0], args[2]))


def _note_wal(tracer, args, kwargs, result) -> None:
    tracer.notes["wal"].append((tracer.region, args[1], args[2]))


def _note_checkpoint(tracer, args, kwargs, result) -> None:
    tracer.notes["checkpoint"].append((tracer.region, os.path.getsize(result)))


SHIMS = (
    (CSRGraph, "from_graph", "graph.csr.from_graph", None),
    (FastPropagator, "propagate", "core.fast.propagate", None),
    (ArrayLabelState, "sequences_dict", "core.labels_array.sequences_dict", None),
    (ArrayLabelState, "from_label_state", "core.labels_array.from_label_state", None),
    (FastCorrectionPropagator, "apply_batch", "core.incremental_fast.apply_batch", None),
    (detector_module, "extract_communities", "core.postprocess.extract_communities",
     _note_extraction),
    (postprocess_module, "edge_weights", "core.postprocess.edge_weights", None),
    (postprocess_module, "weak_threshold", "core.postprocess.weak_threshold", None),
    (postprocess_module, "sweep_tau1", "core.postprocess.sweep_tau1", None),
    (index_module, "assign_stable_ids", "core.tracking.assign_stable_ids",
     _note_matching),
    (tracking_module, "match_covers", "core.tracking.match_covers", None),
    (MembershipIndex, "update", "service.index.update", None),
    (MembershipIndex, "communities_of", "service.index.communities_of", None),
    (EditQueue, "offer", "service.ingest.offer", None),
    (EditQueue, "drain", "service.ingest.drain", None),
    (CheckpointStore, "append_wal", "service.durability.append_wal", _note_wal),
    (CheckpointStore, "write_checkpoint", "service.durability.write_checkpoint",
     _note_checkpoint),
    (CommunityService, "start", "service.facade.start", None),
    (CommunityService, "refresh", "service.facade.refresh", None),
    (CommunityService, "apply", "service.facade.apply", None),
    (CommunityService, "submit", "service.facade.submit", None),
    (CommunityService, "communities_of", "service.facade.communities_of", None),
    (ServiceSupervisor, "start", "service.replication.start", None),
    (ServiceSupervisor, "apply", "service.replication.apply", None),
    (ReplicatedClient, "communities_of", "service.replication.read", None),
    (distributed_package, "run_distributed_rslpa",
     "distributed.cluster.run_distributed_rslpa", None),
    (cluster_module, "build_csr_shards", "distributed.worker.build_csr_shards", None),
    (MultiprocessBSPEngine, "__init__", "distributed.multiprocess.spawn", None),
    (MultiprocessBSPEngine, "run", "distributed.multiprocess.run", None),
    (MultiprocessBSPEngine, "collect", "distributed.multiprocess.collect", None),
    (MultiprocessBSPEngine, "shutdown", "distributed.multiprocess.shutdown", None),
)


def install(tracer) -> None:
    for owner, attr, name, hook in SHIMS:
        tracer.shim(owner, attr, name, hook)


def _overlapping_pairs(old, new) -> int:
    """Ordered (old, new) community pairs sharing a vertex, both directions."""
    owners: Dict[int, list] = {}
    for j, community in enumerate(new):
        for v in community:
            owners.setdefault(v, []).append(j)
    pairs = 0
    for community in old:
        partners = set()
        for v in community:
            partners.update(owners.get(v, ()))
        pairs += len(partners)
    return 2 * pairs


def per_layer_metrics(tracer, outcome) -> Dict[str, float]:
    """Every per-layer metric for one traced pass.

    Times are medians per call (self time where the name says so), counts
    are totals over the timed region.  A layer the workload never calls
    reads 0.
    """
    t = tracer
    timed = "timed"
    counts = outcome.counts
    metrics: Dict[str, float] = {
        "graph.csr.from_graph_s": t.median_duration("graph.csr.from_graph"),
        "core.fast.propagate_s": t.median_duration("core.fast.propagate"),
        "service.facade.start_s": t.median_duration("service.facade.start"),
        "service.facade.refresh_s": t.median_duration("service.facade.refresh", timed),
        "core.postprocess.extract_communities_s":
            t.median_duration("core.postprocess.extract_communities", timed),
        "core.postprocess.edge_weights_s":
            t.median_duration("core.postprocess.edge_weights", timed),
        "core.postprocess.weak_threshold_s":
            t.median_duration("core.postprocess.weak_threshold", timed),
        "core.postprocess.sweep_tau1_s":
            t.median_duration("core.postprocess.sweep_tau1", timed),
        "core.postprocess.strong_attach_s":
            t.median_self("core.postprocess.extract_communities", timed),
        "core.labels_array.sequences_dict_ms":
            1e3 * t.median_duration("core.labels_array.sequences_dict", timed),
        "service.index.update_ms": 1e3 * t.median_duration("service.index.update", timed),
        "service.index.rebuild_ms": 1e3 * t.median_self("service.index.update", timed),
        "core.tracking.assign_stable_ids_s":
            t.median_duration("core.tracking.assign_stable_ids", timed),
        "core.incremental_fast.apply_batch_ms":
            1e3 * t.median_duration("core.incremental_fast.apply_batch", timed),
        "service.ingest.offer_us": 1e6 * t.median_duration("service.ingest.offer", timed),
        "service.ingest.drain_ms": 1e3 * t.median_duration("service.ingest.drain", timed),
        "service.durability.append_wal_ms":
            1e3 * t.median_duration("service.durability.append_wal", timed),
        "service.durability.write_checkpoint_ms":
            1e3 * t.median_duration("service.durability.write_checkpoint", timed),
        "service.index.communities_of_us":
            1e6 * t.median_duration("service.index.communities_of", timed),
        "service.replication.apply_ms":
            1e3 * t.median_duration("service.replication.apply", timed),
        "service.replication.read_us":
            1e6 * t.median_duration("service.replication.read", timed),
        "distributed.worker.build_csr_shards_s":
            t.median_duration("distributed.worker.build_csr_shards", timed),
        "distributed.labels.from_label_state_s":
            t.median_duration("core.labels_array.from_label_state", timed),
        "distributed.unattributed_s":
            t.median_self("distributed.cluster.run_distributed_rslpa", timed),
    }

    extractions = [note for note in t.notes["extract"] if note[0] == timed]
    for i, key in enumerate(("edges", "tau1_grid_points", "communities",
                             "attached_vertices"), start=1):
        metrics[f"core.postprocess.{key}"] = sum(note[i] for note in extractions)

    matchings = [note for note in t.notes["match"] if note[0] == timed]
    candidates = sum(2 * len(old) * len(new) for _r, old, new in matchings)
    overlapping = sum(_overlapping_pairs(old, new) for _r, old, new in matchings)
    metrics["core.tracking.candidate_pairs"] = candidates
    metrics["core.tracking.overlapping_pairs"] = overlapping
    metrics["core.tracking.useful_pair_ratio"] = (
        overlapping / candidates if candidates else 0.0
    )

    for key in ("repicked", "keep_lotteries", "lottery_switches",
                "cascade_corrections", "value_changes", "touched_count",
                "value_change_ratio"):
        metrics[f"core.incremental_fast.{key}"] = counts.get(key, 0)
    for key in ("coalesce_ratio", "cancelled_pairs", "duplicates"):
        metrics[f"service.ingest.{key}"] = counts.get(key, 0)
    metrics["service.durability.wal_bytes"] = sum(
        len(encode_wal_record(epoch, batch).encode())
        for region, epoch, batch in t.notes["wal"] if region == timed
    )
    metrics["service.durability.checkpoint_bytes"] = sum(
        size for region, size in t.notes["checkpoint"] if region == timed
    )
    for key in ("stale_serves", "reroutes", "primary_fallbacks"):
        metrics[f"service.replication.{key}"] = counts.get(key, 0)
    failover = outcome.extra.get("failover", {})
    metrics["service.replication.replayed_records"] = failover.get("replayed_records", 0)
    metrics["service.replication.failover_ms"] = failover.get("failover_ms", 0.0)

    phases = outcome.extra.get("engine_phases", [])
    for phase in ("compute", "route", "pack", "transport_send", "barrier_wait"):
        values = [totals.get(f"engine.{phase}", 0.0) for totals in phases]
        metrics[f"distributed.engine.{phase}_s"] = median(values) if values else 0.0
    for key in ("supersteps", "messages", "remote_messages", "bytes", "remote_bytes"):
        metrics[f"distributed.{key}"] = counts.get(key, 0)
    return metrics
