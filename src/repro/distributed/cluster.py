"""High-level distributed runs: one-call wrappers over the BSP engines.

These functions mirror the sequential APIs but execute on the simulated
cluster, returning both the result and the :class:`CommStats` needed by the
communication-cost experiments:

* :func:`run_distributed_rslpa` — Algorithm 1, 2 supersteps/iteration,
  ``O(|V|)`` messages per iteration;
* :func:`run_distributed_slpa` — the baseline, 1 superstep/iteration,
  ``O(|E|)`` messages per iteration;
* :func:`run_distributed_update` — Algorithm 2 over workers, ``O(η)``
  messages total;
* :func:`run_distributed_postprocess` — weights + τ2 locally per worker,
  τ1 sweep on the driver, communities via distributed hash-to-min CC.

Every run shards the graph with :func:`build_csr_shards` (any vertex ids
but −1, which label state reserves as ``NO_SOURCE``).  The per-call
keywords (``num_workers`` / ``partitioner``) are shims that build an
:class:`~repro.api.config.ExecutionConfig` (``config=`` supplies one
directly and takes precedence), every ``auto`` is negotiated by
:func:`repro.api.plan.resolve_plan`, and named partitioners come from
:mod:`repro.api.registry`.  One result path serves every wrapper: the
plan runs the programs on the in-process
:class:`~repro.distributed.engine_array.ArrayBSPEngine` or, with
``config.multiprocess``, on real OS processes (any ``config.transport``,
optionally ``config.fault_tolerance``), and
:func:`~repro.distributed.engine_array.gather_columns` scatters their
``collect()`` columns into the ascending-id arrays each wrapper
assembles its result from, bit-identically on either engine.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from time import time_ns
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.config import ExecutionConfig
from repro.api.plan import GraphCaps, RunPlan, resolve_plan
from repro.core.communities import Cover
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import attach_weak, edge_weights, sweep_tau1, weak_threshold
from repro.core.randomness import NO_SOURCE, check_vertex_ids
from repro.distributed.components import distributed_connected_components
from repro.distributed.engine_array import ArrayBSPEngine, gather_columns
from repro.distributed.metrics import CommStats
from repro.distributed.programs import (
    CorrectionPropagationProgram,
    correction_slices,
)
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.worker import build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edits import EditBatch, apply_batch
from repro.graph.partition import Partitioner

__all__ = [
    "run_distributed_rslpa",
    "run_distributed_slpa",
    "run_distributed_update",
    "run_distributed_postprocess",
]


def _execution_config(
    config: Optional[ExecutionConfig],
    num_workers: int,
    partitioner: Optional[Union[str, Partitioner]],
) -> ExecutionConfig:
    """The keyword shim: kwargs become a config unless one was passed.

    A passed config takes precedence over the per-axis keywords; these
    wrappers are always distributed, so a config that left ``num_workers``
    at its local default of 0 inherits the wrapper's worker count.
    """
    if config is not None:
        if config.num_workers == 0:
            config = replace(config, num_workers=num_workers)
        return config
    return ExecutionConfig(num_workers=num_workers, partitioner=partitioner)


def _obs_for(plan: RunPlan):
    """A fresh observability context when the plan traces, else ``None``."""
    if not plan.trace:
        return None
    from repro.obs import Obs

    return Obs()


def _run(plan: RunPlan, shards, part, factory, assemble):
    """The one result path of every wrapper: run ``factory(shard)`` on each
    shard on the plan's engine, scatter the programs' ``collect()`` columns
    with :func:`gather_columns`, and return ``(assemble(ids, columns),
    stats)`` (the gather and ``assemble`` are one ``cluster.gather`` span).
    """
    if plan.multiprocess:
        from repro.distributed.multiprocess import MultiprocessBSPEngine

        # resolve_plan made both knobs concrete for fault-tolerant plans.
        fault_kwargs = dict(
            fault_tolerance=True,
            checkpoint_interval=plan.checkpoint_interval,
            max_restarts=plan.max_restarts,
        ) if plan.fault_tolerance else {}
        with MultiprocessBSPEngine(
            shards, part, factory, transport=plan.transport or "pipe",
            obs=_obs_for(plan), **fault_kwargs,
        ) as engine:
            engine.run()
            collected = engine.collect()
    else:
        engine = ArrayBSPEngine(shards, part)
        # The engine records through ``engine.obs``; the same context on
        # ``engine.stats.obs`` is how result objects surface the trace.
        engine.obs = engine.stats.obs = _obs_for(plan)
        if engine.obs is not None:
            engine.obs.meta.setdefault("mode", "in-process")
            engine.obs.meta.setdefault("num_workers", plan.num_workers)
        programs = engine.run([factory(shard) for shard in shards])
        collected = [program.collect() for program in programs]
    obs = engine.stats.obs
    if obs is not None:
        gather_start = time_ns()
    result = assemble(*gather_columns(shards, collected))
    if obs is not None:
        obs.trace.record("cluster.gather", gather_start)
    return result, engine.stats


def run_distributed_rslpa(
    graph: Union[Graph, CSRGraph],
    seed: int = 0,
    iterations: int = 200,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[ArrayLabelState, CommStats]:
    """Algorithm 1 on the simulated cluster; returns (state, comm stats).

    The returned :class:`~repro.core.labels_array.ArrayLabelState` carries
    the full provenance (its reverse records are built by the first repair
    that needs them) and is bit-identical to a
    sequential :class:`ReferencePropagator` run, for a :class:`Graph` with
    any vertex ids or a :class:`CSRGraph`, in-process or on real OS
    processes (``config.multiprocess``); ``.to_label_state()`` gives the
    dict form.  All ``auto`` negotiation happens in
    :func:`repro.api.plan.resolve_plan`; ``config=`` supplies the
    :class:`~repro.api.config.ExecutionConfig` directly and overrides the
    per-axis keywords.
    """
    if isinstance(graph, Graph):
        check_vertex_ids(graph, "graph")
    cfg = _execution_config(config, num_workers, partitioner)
    plan = resolve_plan(GraphCaps.of(graph), cfg)
    part = plan.build_partitioner()

    def assemble(ids, columns):
        return ArrayLabelState.from_matrices(
            columns["labels"], columns["srcs"], columns["poss"], ids=ids
        )

    return _run(
        plan,
        build_csr_shards(graph, part),
        part,
        partial(FastRSLPAPropagationProgram, seed=seed, iterations=iterations),
        assemble,
    )


def run_distributed_slpa(
    graph: Union[Graph, CSRGraph],
    seed: int = 0,
    iterations: int = 100,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Dict[int, List[int]], CommStats]:
    """The SLPA baseline on the simulated cluster; returns (memories, stats)."""
    cfg = _execution_config(config, num_workers, partitioner)
    plan = resolve_plan(GraphCaps.of(graph), cfg)
    part = plan.build_partitioner()

    def assemble(ids, columns):
        return dict(zip(ids.tolist(), columns["memory"].T.tolist()))

    return _run(
        plan,
        build_csr_shards(graph, part),
        part,
        partial(FastSLPAPropagationProgram, seed=seed, iterations=iterations),
        assemble,
    )


def run_distributed_update(
    graph: Graph,
    state: ArrayLabelState,
    batch: EditBatch,
    seed: int = 0,
    batch_epoch: int = 1,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Graph, ArrayLabelState, CommStats]:
    """Algorithm 2 on the cluster; returns (graph, state, comm stats).

    Takes the *pre-batch* graph and its
    :class:`~repro.core.labels_array.ArrayLabelState`.  Each worker repairs
    its shard's slice of the state
    (:func:`~repro.distributed.programs.correction_slices`), in process
    or on real OS processes (``config.multiprocess``, any transport, with
    or without ``fault_tolerance``).  Only after the run succeeds are the
    batch applied to ``graph`` and the repaired slots written back into
    ``state`` (both mutated in place and returned), so a failed run leaves
    the caller's graph and state as they were.  ``batch_epoch`` must count
    batches the same way the sequential corrector does for the randomness
    to line up.
    """
    cfg = _execution_config(config, num_workers, partitioner)
    batch.validate_against(graph)
    touched = batch.touched_vertices()
    check_vertex_ids(touched, "edit batch")
    # Resolved before anything mutates, on the post-batch vertex count
    # (range partitioners size their blocks by it).
    post_vertices = len(set(graph.vertices()) | touched)
    plan = resolve_plan(GraphCaps(post_vertices, graph.num_edges), cfg)
    part = plan.build_partitioner()
    shards = build_csr_shards(apply_batch(graph.copy(), batch), part)
    new_ids = sorted(v for v in touched if not state.has_vertex(v))

    def write_back(ids, columns):
        apply_batch(graph, batch)
        if state.needs_compaction():
            state.compact()
        state.add_vertices(new_ids)
        cols = state.columns(ids)
        # Every repick bumps its slot's epoch, so the epochs name exactly
        # the slots whose record moved: detach the old, register the new.
        ts, at = np.nonzero(columns["epochs"] != state.epochs[:, cols])
        vs = cols[at]
        state.detach_slots(vs, ts)
        src = columns["srcs"][ts, at]
        pos = columns["poss"][ts, at]
        has = src != NO_SOURCE
        src[has] = state.columns(src[has])
        state.srcs[ts, vs] = src
        state.poss[ts, vs] = pos
        state.epochs[ts, vs] = columns["epochs"][ts, at]
        state.register_slots(src[has], pos[has], vs[has], ts[has])
        state.labels[:, cols] = columns["labels"]

    factory = partial(
        CorrectionPropagationProgram,
        slices=correction_slices(state, shards, new_ids),
        seed=seed,
        iterations=state.num_iterations,
        batch_epoch=batch_epoch,
        added=batch.added_neighbors(),
        removed=batch.removed_neighbors(),
    )
    _, stats = _run(plan, shards, part, factory, write_back)
    return graph, state, stats


def run_distributed_postprocess(
    graph: Graph,
    state: ArrayLabelState,
    num_workers: int = 4,
    step: float = 0.001,
) -> Tuple[Cover, CommStats]:
    """Section III-B extraction with the CC stage on the cluster.

    Takes the :class:`~repro.core.labels_array.ArrayLabelState`
    :func:`run_distributed_rslpa` returns.  Edge weights, τ2 and the τ1
    sweep are the sequential stages of :mod:`repro.core.postprocess`
    (cheap one-round aggregations); the connected-components stage — the
    round-dominant part the paper discusses — runs distributed on the
    τ1-filtered graph, and its stats are returned.
    """
    edges = edge_weights(graph, state)
    tau2 = weak_threshold(edges)
    tau1, _entropy, _curve = sweep_tau1(edges, tau2, step=step)
    strong_edges = edges.edges[edges.weights >= tau1 - 1e-12]
    filtered = Graph.from_edges(strong_edges.tolist(), vertices=edges.ids.tolist())
    components, stats = distributed_connected_components(
        filtered, num_workers=num_workers
    )
    community = np.full(edges.num_vertices, -1, dtype=np.int64)
    strong = [c for c in components if len(c) >= 2]
    for cid, members in enumerate(strong):
        community[np.searchsorted(edges.ids, list(members))] = cid
    cover, _attached = attach_weak(edges, community, tau2)
    return cover, stats
