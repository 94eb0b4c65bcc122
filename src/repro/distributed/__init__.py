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
routes a whole superstep with one vectorised ``owner_array`` gather and
one packed-key sort per kind, and delivers per-kind column inboxes to
:class:`~repro.distributed.engine_array.ArrayWorkerProgram` subclasses
(:mod:`repro.distributed.programs_array`,
:mod:`repro.distributed.programs`, :mod:`repro.distributed.components`).

**Results** — each program's ``collect()`` returns named columns over
its shard's ``local_ids`` (arrays the caller owns, on either engine and
every transport), and :func:`gather_columns` scatters them into
C-ordered ascending-id arrays, whichever engine ran the programs.

**Processes** — :class:`MultiprocessBSPEngine` runs the same programs on
real OS processes, over one wire per worker that carries command verbs
and column payloads alike.  Its transport (pickles on a ``pipe``,
zero-copy ``shm`` rings that carry the collect replies too, or ``tcp``
sockets with out-of-band column bytes;
:mod:`repro.distributed.transport`) never changes a result or a
per-superstep :class:`CommStats` counter: routing and accounting run on
the driver before any wire touches the columns.  A worker that dies
raises :class:`WorkerCrashedError` (a
:class:`~repro.runtime.ChildCrashedError`), and ``fault_tolerance=True``
turns that into checkpoint/respawn/replay recovery with bit-identical
results (:class:`RecoveryStats` counts the cost; :class:`FaultPlan`
scripts failures for testing).

Axis negotiation lives in one place: the cluster wrappers accept an
:class:`~repro.api.config.ExecutionConfig` (``config=``; the per-axis
keywords are shims onto it), every ``auto`` resolves through
:func:`repro.api.plan.resolve_plan` (``transport="auto"`` is ``shm``),
and named partitioners/transports are looked up in
:mod:`repro.api.registry`; ``ExecutionConfig(multiprocess=True)`` runs
every wrapper, Correction Propagation included, on processes.
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
from repro.distributed.engine_array import (
    ArrayBSPEngine,
    ArrayWorkerProgram,
    gather_columns,
)
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
from repro.distributed.transport import SharedMemoryTransport, WorkerCrashedError
from repro.distributed.programs import CorrectionPropagationProgram
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.worker import CSRShard, build_csr_shards

__all__ = [
    "ArrayBSPEngine",
    "ArrayMessageContext",
    "ArrayInbox",
    "ArrayWorkerProgram",
    "gather_columns",
    "CSRShard",
    "build_csr_shards",
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
    "SharedMemoryTransport",
    "WorkerCrashedError",
    "run_distributed_rslpa",
    "run_distributed_slpa",
    "run_distributed_update",
    "run_distributed_postprocess",
]
