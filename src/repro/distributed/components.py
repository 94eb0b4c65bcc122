"""Distributed connected components in logarithmic rounds (hash-to-min).

The rSLPA post-processing finds communities as connected components of the
τ1-filtered weight graph; the paper cites Chitnis et al. (ICDE 2013,
ref. [18]) for an ``O(log d)``-round MapReduce algorithm.  This module
implements the **Hash-to-Min** scheme from that line of work on the BSP
engine:

* every vertex ``v`` keeps a cluster set ``C_v``, initially ``{v} ∪ N(v)``;
* each round, ``v`` sends ``C_v`` to ``m = min(C_v)`` and ``{m}`` to every
  other member of ``C_v``; clusters are replaced by the union of received
  sets.  A set travels as fixed-width ``set`` rows, one per member;
* at convergence ``min(C_v)`` is the component representative for every
  ``v`` (and the representative's cluster holds its whole component).

Vertices only re-send when their cluster changed (delta sending), so the
engine's message-quiescence rule doubles as convergence detection.

The distributed post-processing runs it on the τ1-filtered graph, whose
edges are those of weight >= τ1 (Section V-B2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.distributed.engine_array import (
    ArrayBSPEngine,
    ArrayWorkerProgram,
    gather_columns,
)
from repro.distributed.message_array import ArrayInbox, ArrayMessageContext
from repro.distributed.metrics import CommStats
from repro.distributed.worker import CSRShard, build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.partition import HashPartitioner, Partitioner

__all__ = ["HashToMinProgram", "distributed_connected_components"]


class HashToMinProgram(ArrayWorkerProgram):
    """Hash-to-Min connected components over one worker shard."""

    def __init__(self, shard: CSRShard):
        super().__init__(shard)
        self.clusters: Dict[int, Set[int]] = {
            v: {v, *shard.neighbors(v).tolist()} for v in shard.vertices
        }
        self._dirty: Set[int] = {v for v in shard.vertices if shard.degree(v) > 0}

    def _emit(self, ctx: ArrayMessageContext) -> None:
        dst: List[int] = []
        members: List[int] = []
        for v in sorted(self._dirty):
            cluster = self.clusters[v]
            m = min(cluster)
            others = [u for u in cluster if u != m]
            dst += [m] * len(cluster)
            members += cluster
            dst += others
            members += [m] * len(others)
        self._dirty.clear()
        if dst:
            ctx.send_columns(
                "set", np.array(dst, dtype=np.int64), np.array(members, dtype=np.int64)
            )

    def on_start(self, ctx: ArrayMessageContext) -> None:
        self._emit(ctx)

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        received: Dict[int, Set[int]] = {}
        columns = inbox.columns("set")
        if columns is not None:
            for dst, member in zip(*(col.tolist() for col in columns)):
                received.setdefault(dst, set()).add(member)
        for v, incoming in received.items():
            if not incoming <= self.clusters[v]:
                # Monotone variant: clusters only grow, so delta-sending
                # quiesces and min() improves until it is the component min.
                self.clusters[v] |= incoming
                self._dirty.add(v)
        self._emit(ctx)

    def collect(self) -> Dict[str, np.ndarray]:
        """The ``rep`` column: ``min(C_v)`` per local vertex."""
        rep = [min(self.clusters[v]) for v in self.shard.local_ids.tolist()]
        return {"rep": np.array(rep, dtype=np.int64)}


def distributed_connected_components(
    graph: Graph,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
) -> Tuple[List[Set[int]], CommStats]:
    """Components of the graph, plus comm stats.

    Returns components sorted by (size desc, min vertex) — including
    singletons, so callers can apply the paper's ">= 2 vertices" rule.
    ``partitioner`` is a ready :class:`Partitioner`, a name registered in
    :data:`repro.api.registry.PARTITIONERS` (``"hash"``, ``"range"``, or
    a plugin — resolved against this graph's capabilities, the same
    resolution :func:`~repro.api.plan.resolve_plan` applies), or ``None``
    for the default hash partitioner.
    """
    if isinstance(partitioner, str):
        from repro.api.plan import GraphCaps
        from repro.api.registry import PARTITIONERS

        part = PARTITIONERS.resolve(partitioner)(
            num_workers, GraphCaps.of(graph)
        )
    else:
        part = partitioner or HashPartitioner(num_workers)
    shards = build_csr_shards(graph, part)
    engine = ArrayBSPEngine(shards, part)
    programs = engine.run([HashToMinProgram(shard) for shard in shards])
    ids, columns = gather_columns(shards, [p.collect() for p in programs])
    groups: Dict[int, Set[int]] = {}
    for v, rep in zip(ids.tolist(), columns["rep"].tolist()):
        groups.setdefault(rep, set()).add(v)
    components = sorted(groups.values(), key=lambda c: (-len(c), min(c)))
    return components, engine.stats
