"""Distributed substrate: the columnar BSP engine, vertex programs, comm accounting.

One substrate runs every distributed program — Algorithm 1, the SLPA
baseline, Algorithm 2 (Correction Propagation) and Hash-to-Min connected
components:

**Shards** — :class:`CSRShard` (:func:`build_csr_shards`): local
``indptr``/``indices`` arrays (read-only, so programs cannot corrupt the
shared adjacency) sliced straight out of an immutable
:class:`~repro.graph.CSRGraph` snapshot by
:func:`repro.graph.partition.slice_csr`, or built from a mutable
:class:`~repro.graph.Graph` with any vertex ids.  Ids are never
relabelled: every random draw is a slot hash keyed by the vertex id.

**Message plane** — :class:`ArrayBSPEngine` accumulates sends as typed
struct-of-arrays int64 columns (:mod:`repro.distributed.message_array`),
routes a whole superstep with one vectorised ``owner_array`` gather +
lexsort barrier, and delivers per-kind column inboxes to
:class:`~repro.distributed.engine_array.ArrayWorkerProgram` subclasses
(:mod:`repro.distributed.programs_array`,
:mod:`repro.distributed.programs`, :mod:`repro.distributed.components`).

**Data transport** (``transport=`` on the multiprocess backend and
:class:`~repro.api.config.ExecutionConfig`) — how superstep payloads move
between the driver and real OS worker processes; in-process engines pass
references and have no transport axis:

====================  ==================================================
transport             payload path
====================  ==================================================
``pipe`` (reference)  pickled over the control pipes
``shm`` (zero-copy)   packed int64 columns written in place into
                      double-buffered ``multiprocessing.shared_memory``
                      rings; the pipes carry only ``(segment, layout)``
                      index headers and the reader maps read-only views
``tcp`` (two hosts)   the same framed columns over localhost sockets
                      (length-prefixed layout + ``sendall``/``recv_into``
                      raw bytes)
====================  ==================================================

Every transport is bit-identical — same results, same per-superstep
:class:`CommStats` counters — because all programs derive their
randomness from the same counter-based slot hashes over the same
ascending neighbour sequences, and routing/accounting always run on the
driver before any transport touches the columns; ``transport="auto"``
resolves to shared memory for every multiprocess run.

Axis negotiation lives in one place: the cluster wrappers accept an
:class:`~repro.api.config.ExecutionConfig` (``config=``; the per-axis
keywords are shims onto it), every ``auto`` resolves through
:func:`repro.api.plan.resolve_plan`, and named partitioners/transports
are looked up in :mod:`repro.api.registry` —
``ExecutionConfig(multiprocess=True)`` routes the propagation wrappers
through the multiprocess engine with identical results and stats.  A
worker process that dies mid-run raises :class:`WorkerCrashedError`
naming the dead worker instead of hanging the driver.

**Fault tolerance** (``fault_tolerance=True`` on
:class:`MultiprocessBSPEngine` or :class:`~repro.api.config.
ExecutionConfig`) upgrades that crash detection to supervised recovery:
the driver checkpoints a consistent cut (CRC-validated program snapshots
plus materialised outboxes) every ``checkpoint_interval`` supersteps,
respawns dead workers, restores the cut on every worker, and replays —
covers and per-superstep :class:`CommStats` stay bit-identical to a
failure-free run because all randomness is counter-keyed inside the
snapshot.  :class:`RecoveryStats` counts the cost; failures are scripted
deterministically with a :class:`FaultPlan`
(:mod:`repro.distributed.faults`) for testing.
"""

from repro.distributed.cluster import (
    run_distributed_postprocess,
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.distributed.components import (
    HashToMinProgram,
    distributed_connected_components,
)
from repro.distributed.engine_array import ArrayBSPEngine, ArrayWorkerProgram
from repro.distributed.message_array import (
    SCHEMAS,
    ArrayInbox,
    ArrayMessageContext,
    MessageSchema,
    register_schema,
    route_columns,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.metrics import CommStats, RecoveryStats, SuperstepStats
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.transport import (
    PipeTransport,
    SharedMemoryTransport,
    SocketTransport,
    Transport,
    WorkerCrashedError,
)
from repro.distributed.programs import CorrectionPropagationProgram
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
    shard_local_csr,
)
from repro.distributed.worker import CSRShard, build_csr_shards

__all__ = [
    "ArrayBSPEngine",
    "ArrayMessageContext",
    "ArrayInbox",
    "ArrayWorkerProgram",
    "CSRShard",
    "build_csr_shards",
    "shard_local_csr",
    "MessageSchema",
    "SCHEMAS",
    "register_schema",
    "route_columns",
    "CommStats",
    "SuperstepStats",
    "RecoveryStats",
    "FaultPlan",
    "CorrectionPropagationProgram",
    "FastRSLPAPropagationProgram",
    "FastSLPAPropagationProgram",
    "HashToMinProgram",
    "distributed_connected_components",
    "MultiprocessBSPEngine",
    "Transport",
    "PipeTransport",
    "SharedMemoryTransport",
    "SocketTransport",
    "WorkerCrashedError",
    "run_distributed_rslpa",
    "run_distributed_slpa",
    "run_distributed_update",
    "run_distributed_postprocess",
]
