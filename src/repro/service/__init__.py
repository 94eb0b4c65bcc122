"""Service layer: the detector wrapped for long-lived serving.

The paper's operating mode (Section V-B3) is a state that absorbs edit
batches continuously and extracts communities on demand — an online
service, not a batch job.  This package is that service, organised as
**three planes around one fitted detector** (the three-plane architecture,
sibling to the two-representation story in ``graph/`` and the two-plane
story in ``distributed/``):

* **Ingest plane** (``repro.service.ingest``) — :class:`EditQueue`
  coalesces a stream of single edge edits into net
  :class:`~repro.graph.edits.EditBatch` windows (opposite edits cancel,
  duplicates absorb), each window paid for once by Correction
  Propagation via ``detector.update``.  Ingest is synchronous: the edit
  that fills a window applies it before its ``submit`` returns.
* **Query plane** (``repro.service.index``) — :class:`MembershipIndex`
  inverts the latest extraction, which arrives as CSR arrays, into a
  ``vertex -> stable community ids`` map, with identity carried across
  extractions by :func:`repro.core.tracking.assign_stable_ids` (a join
  over the two covers' membership columns).  Queries are dictionary
  lookups against this cached extraction; a max-staleness policy
  (re-extract lazily after K batches, or on demand) keeps query latency
  decoupled from ingest volume.  A replica installs its primary's index
  from the exported arrays.
* **Durability plane** (``repro.service.durability``) —
  :class:`CheckpointStore` persists array-native npz checkpoints of the
  label state plus a CRC-tagged write-ahead log of applied batches;
  because every random draw is keyed, checkpoint + WAL replay restores a
  **bit-identical** state after a crash, on any backend.

:class:`CommunityService` (``repro.service.facade``) wires the planes
together and is the one class most deployments need::

    from repro.service import CommunityService

    service = CommunityService(graph, seed=7, batch_size=64,
                               checkpoint_dir="state/").start()
    service.submit_insert(17, 23)          # queued; flushes per window
    service.communities_of(17)             # stable ids, served from cache
    # after a crash:
    service = CommunityService.recover("state/")

One :class:`ServicePlanConfig` configures it (``service.config``):
passed as ``config=``, with the keywords applied through
:meth:`ServicePlanConfig.with_overrides`.

A fourth plane, **replication** (``repro.service.replication``), runs the
service as a supervised topology — one primary process plus N read
replicas fed by shipped WAL records — so queries keep being answered
through primary crashes (the freshest replica is promoted and replays
its tail, bit-identically).  The supervisor talks to its children over
a :mod:`repro.runtime` wire (the same pipe/tcp wires the BSP engine
uses); a dead child raises :class:`ChildCrashedError`, which the
supervisor absorbs by respawning a replica or failing over the
primary.  It takes the same config, replication fields included::

    from repro.service import ServiceSupervisor

    sup = ServiceSupervisor(graph, "state/", replicas=2, seed=7).start()
    client = sup.client()
    sup.submit_insert(17, 23)
    client.communities_of(17)   # served by a replica; primary fallback
    result = sup.finish()       # stats()["failovers"] et al.
"""

from repro.service.durability import (
    Checkpoint,
    CheckpointStore,
    CorruptCheckpointError,
)
from repro.service.facade import CommunityService, ServicePlanConfig
from repro.service.index import MembershipIndex
from repro.service.ingest import DELETE, INSERT, EditQueue
from repro.service.replication import (
    ChildCrashedError,
    FailoverExhaustedError,
    ReplicatedClient,
    ReplicaLapsedError,
    ServiceSupervisor,
)

__all__ = [
    "CommunityService",
    "ServicePlanConfig",
    "EditQueue",
    "INSERT",
    "DELETE",
    "MembershipIndex",
    "Checkpoint",
    "CheckpointStore",
    "CorruptCheckpointError",
    "ServiceSupervisor",
    "ReplicatedClient",
    "ChildCrashedError",
    "FailoverExhaustedError",
    "ReplicaLapsedError",
]
