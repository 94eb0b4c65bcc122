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
but −1, which label state reserves as ``NO_SOURCE``) and exchanges
columnar messages on
:class:`~repro.distributed.engine_array.ArrayBSPEngine`.  Execution
selection is centralised: the per-call keywords (``num_workers`` /
``partitioner``) are shims that build an
:class:`~repro.api.config.ExecutionConfig` (pass ``config=`` to supply one
directly — it takes precedence), every ``auto`` is negotiated by
:func:`repro.api.plan.resolve_plan`, and named partitioners come from
:mod:`repro.api.registry`, so plugged-in partitioners resolve exactly like
the built-ins.  ``config.multiprocess=True`` runs the propagation wrappers
on real OS processes
(:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine`) with
bit-identical results and stats; ``config.transport`` picks the data
plane those processes exchange supersteps over (``auto`` resolves to the
zero-copy shared-memory rings).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.config import ExecutionConfig
from repro.api.plan import GraphCaps, RunPlan, resolve_plan
from repro.core.communities import Cover
from repro.core.labels import LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import attach_weak, edge_weights, sweep_tau1, weak_threshold
from repro.core.randomness import NO_SOURCE, check_vertex_ids
from repro.distributed.components import distributed_connected_components
from repro.distributed.engine_array import ArrayBSPEngine
from repro.distributed.metrics import CommStats
from repro.distributed.programs import CorrectionPropagationProgram
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


def _attach_obs(bsp, plan: RunPlan) -> None:
    """Wire tracing onto an in-process engine when the plan asks for it.

    The engine records its spans through ``bsp.obs``; parking the same
    context on ``bsp.stats.obs`` is what lets the result objects (and the
    service) surface the trace without any signature changes.  The
    multiprocess engine takes ``obs=`` at construction instead.
    """
    obs = _obs_for(plan)
    if obs is None:
        return
    obs.meta.setdefault("mode", "in-process")
    obs.meta.setdefault("num_workers", plan.num_workers)
    bsp.obs = obs
    bsp.stats.obs = obs


def _merge_collected_rslpa_state(collected: Dict[int, tuple], iterations: int) -> LabelState:
    """Fully-recorded :class:`LabelState` from per-vertex collect() tuples
    (the ``(labels, srcs, poss)`` lists multiprocess workers ship back)."""
    state = LabelState()
    for v, (labels, srcs, poss) in collected.items():
        state.labels[v] = list(labels)
        state.srcs[v] = list(srcs)
        state.poss[v] = list(poss)
        state.epochs[v] = [0] * len(labels)
        state.receivers[v] = {}
    for v, (labels, srcs, poss) in collected.items():
        for t in range(1, len(labels)):
            src = srcs[t]
            if src != NO_SOURCE:
                state.receivers[src].setdefault(poss[t], set()).add((v, t))
    state.set_num_iterations(iterations)
    return state


def _assemble_array_rslpa_state(programs, iterations: int) -> ArrayLabelState:
    """:class:`ArrayLabelState` straight from array-program matrices.

    The array plane's native export: per-worker ``(T+1, n_local)`` matrices
    scatter into global matrices with columns in ascending vertex-id order
    (so ids ``0..n-1`` give the identity layout), and the reverse records
    come from the state's vectorised ``reindex`` — no per-vertex Python at
    all.
    """
    programs = [program for program in programs if program.n_local]
    ids = np.sort(np.concatenate([p.local_ids for p in programs])) if programs else None
    shape = (iterations + 1, 0 if ids is None else len(ids))
    labels = np.empty(shape, dtype=np.int64)
    srcs = np.empty(shape, dtype=np.int64)
    poss = np.empty(shape, dtype=np.int64)
    for program in programs:
        cols = np.searchsorted(ids, program.local_ids)
        labels[:, cols] = program.labels
        srcs[:, cols] = program.srcs
        poss[:, cols] = program.poss
    return ArrayLabelState.from_matrices(labels, srcs, poss, ids=ids)


def _run_multiprocess(plan: RunPlan, shards, part, program_cls, seed, iterations):
    """Run a propagation program on real OS processes; returns (collected, stats)."""
    from repro.distributed.multiprocess import MultiprocessBSPEngine

    factory = partial(program_cls, seed=seed, iterations=iterations)
    fault_kwargs = {}
    if plan.fault_tolerance:
        # resolve_plan already made both knobs concrete for fault-tolerant
        # plans; the engine defaults only back-stop direct construction.
        fault_kwargs = dict(
            fault_tolerance=True,
            checkpoint_interval=plan.checkpoint_interval,
            max_restarts=plan.max_restarts,
        )
    with MultiprocessBSPEngine(
        shards,
        part,
        factory,
        transport=plan.transport or "pipe",
        obs=_obs_for(plan),
        **fault_kwargs,
    ) as engine:
        engine.run()
        results = engine.collect()
    collected: Dict[int, tuple] = {}
    for worker_result in results:
        collected.update(worker_result)
    return collected, engine.stats


def run_distributed_rslpa(
    graph: Union[Graph, CSRGraph],
    seed: int = 0,
    iterations: int = 200,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[ArrayLabelState, CommStats]:
    """Algorithm 1 on the simulated cluster; returns (state, comm stats).

    The returned :class:`~repro.core.labels_array.ArrayLabelState` is fully
    recorded (provenance + reverse records) and bit-identical to a
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
    shards = build_csr_shards(graph, part)

    if plan.multiprocess:
        collected, stats = _run_multiprocess(
            plan, shards, part, FastRSLPAPropagationProgram, seed, iterations
        )
        state = _merge_collected_rslpa_state(collected, iterations)
        return ArrayLabelState.from_label_state(state), stats

    bsp = ArrayBSPEngine(shards, part)
    _attach_obs(bsp, plan)
    programs = [
        FastRSLPAPropagationProgram(shard, seed=seed, iterations=iterations)
        for shard in shards
    ]
    bsp.run(programs)
    return _assemble_array_rslpa_state(programs, iterations), bsp.stats


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
    shards = build_csr_shards(graph, part)
    if plan.multiprocess:
        return _run_multiprocess(
            plan, shards, part, FastSLPAPropagationProgram, seed, iterations
        )
    bsp = ArrayBSPEngine(shards, part)
    _attach_obs(bsp, plan)
    programs = [
        FastSLPAPropagationProgram(shard, seed=seed, iterations=iterations)
        for shard in shards
    ]
    bsp.run(programs)
    memories: Dict[int, List[int]] = {}
    for program in programs:
        memories.update(program.collect())
    return memories, bsp.stats


def run_distributed_update(
    graph: Graph,
    state: LabelState,
    batch: EditBatch,
    seed: int = 0,
    batch_epoch: int = 1,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Graph, LabelState, CommStats]:
    """Algorithm 2 on the simulated cluster.

    Takes the *pre-batch* graph and label state; returns the updated graph,
    the repaired state (same object, mutated), and communication stats.
    ``batch_epoch`` must count batches the same way the sequential
    :class:`CorrectionPropagator` does for the randomness to line up.
    """
    cfg = _execution_config(config, num_workers, partitioner)
    if cfg.multiprocess:
        raise ValueError(
            "run_distributed_update repairs the caller's state in place; "
            "multiprocess workers cannot share it (use the in-process engine)"
        )
    batch.validate_against(graph)
    check_vertex_ids(batch.touched_vertices(), "edit batch")
    # Resolved before anything mutates, on the post-batch vertex count
    # (range partitioners size their blocks by it).
    post_vertices = len(set(graph.vertices()) | batch.touched_vertices())
    plan = resolve_plan(GraphCaps(post_vertices, graph.num_edges), cfg)
    new_graph = apply_batch(graph, batch)
    added = batch.added_neighbors()
    removed = batch.removed_neighbors()
    for v in set(added) | set(removed):
        if not state.has_vertex(v):
            state.init_vertex(v)
            for _ in range(state.num_iterations):
                state.labels[v].append(v)
                state.srcs[v].append(NO_SOURCE)
                state.poss[v].append(NO_SOURCE)
                state.epochs[v].append(0)

    part = plan.build_partitioner()
    shards = build_csr_shards(new_graph, part)
    programs = []
    for shard in shards:
        local = shard.vertices
        programs.append(
            CorrectionPropagationProgram(
                shard,
                seed=seed,
                iterations=state.num_iterations,
                labels={v: state.labels[v] for v in local},
                srcs={v: state.srcs[v] for v in local},
                poss={v: state.poss[v] for v in local},
                epochs={v: state.epochs[v] for v in local},
                receivers={v: state.receivers[v] for v in local},
                added={v: s for v, s in added.items() if v in local},
                removed={v: s for v, s in removed.items() if v in local},
                batch_epoch=batch_epoch,
            )
        )
    bsp = ArrayBSPEngine(shards, part)
    _attach_obs(bsp, plan)
    bsp.run(programs)
    # Worker slices alias the state's own lists/dicts, so the state is
    # already repaired in place; nothing to merge back.
    return new_graph, state, bsp.stats


def run_distributed_postprocess(
    graph: Graph,
    state: ArrayLabelState,
    num_workers: int = 4,
    step: float = 0.001,
) -> Tuple[Cover, CommStats]:
    """Section III-B extraction with the CC stage on the cluster.

    Takes the :class:`~repro.core.labels_array.ArrayLabelState`
    :func:`run_distributed_rslpa` returns.  Edge weights and τ2 are cheap
    one-round aggregations (computed directly here); the
    connected-components stage — the round-dominant part the paper
    discusses — runs distributed, and its stats are returned.
    """
    weights = edge_weights(graph, state.sequences_dict())
    tau2 = weak_threshold(graph, weights)
    tau1, _entropy, _curve = sweep_tau1(graph, weights, tau2, step=step)
    components, stats = distributed_connected_components(
        graph, num_workers=num_workers, weights=weights, tau=tau1
    )
    strong = [c for c in components if len(c) >= 2]
    communities, _attached = attach_weak(graph, weights, strong, tau2)
    return Cover(communities), stats
