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

Execution selection is centralised: the per-call keywords
(``num_workers`` / ``engine`` / ``shard_backend`` / ``state_format`` /
``partitioner``) are shims that build an
:class:`~repro.api.config.ExecutionConfig` (pass ``config=`` to supply one
directly — it takes precedence), and every ``auto`` is negotiated by
:func:`repro.api.plan.resolve_plan`.  Engines, worker programs, and named
partitioners come from :mod:`repro.api.registry`, so plugged-in components
resolve exactly like the built-ins.  ``config.multiprocess=True`` runs the
propagation wrappers on real OS processes
(:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine`) with
bit-identical results and stats; ``config.transport`` picks the data
plane those processes exchange supersteps over (``auto`` resolves to the
zero-copy shared-memory rings whenever the array plane runs
multiprocess).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.config import ExecutionConfig
from repro.api.plan import GraphCaps, RunPlan, resolve_plan
from repro.api.registry import ENGINES, PROGRAMS
from repro.core.communities import Cover
from repro.core.labels import NO_SOURCE, LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import attach_weak, edge_weights, sweep_tau1, weak_threshold
from repro.distributed.components import distributed_connected_components
from repro.distributed.engine_array import TupleProgramAdapter
from repro.distributed.metrics import CommStats
from repro.distributed.worker import build_csr_shards, build_shards
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
    shard_backend: str,
    engine: str,
    state_format: str = "auto",
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
    return ExecutionConfig(
        num_workers=num_workers,
        partitioner=partitioner,
        shard_backend=shard_backend,
        engine=engine,
        state_format=state_format,
    )


def _build_shards_for(plan: RunPlan, graph, part: Partitioner):
    """Build worker shards on the plan's (already negotiated) backend."""
    if plan.shard_backend == "csr":
        return build_csr_shards(graph, part)
    return build_shards(graph, part)


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
    obs.meta.setdefault("engine", plan.engine)
    obs.meta.setdefault("num_workers", plan.num_workers)
    bsp.obs = obs
    bsp.stats.obs = obs


def _merge_collected_rslpa_state(collected: Dict[int, tuple], iterations: int) -> LabelState:
    """Fully-recorded :class:`LabelState` from per-vertex collect() tuples.

    This is the plane-agnostic merge: tuple programs, array programs, and
    multiprocess workers all export the same per-vertex
    ``(labels, srcs, poss)`` format.
    """
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


def _merge_array_rslpa_state(programs, iterations: int) -> LabelState:
    """Fully-recorded :class:`LabelState` from array-program matrices.

    Produces exactly what :func:`_merge_collected_rslpa_state` builds from
    per-vertex lists, but from the ``(T+1, n_local)`` matrices: sequence
    dicts come from one ``tolist`` per matrix, and the reverse records from
    one ``nonzero`` + ``lexsort`` group-split over all recorded slots
    instead of a per-slot Python loop.
    """
    state = LabelState()
    ids_parts, srcs_parts, poss_parts = [], [], []
    for program in programs:
        if program.n_local == 0:
            continue
        ids_parts.append(program.local_ids)
        srcs_parts.append(program.srcs)
        poss_parts.append(program.poss)
        vids = program.local_ids.tolist()
        state.labels.update(zip(vids, program.labels.T.tolist()))
        state.srcs.update(zip(vids, program.srcs.T.tolist()))
        state.poss.update(zip(vids, program.poss.T.tolist()))
        state.epochs.update((v, [0] * (iterations + 1)) for v in vids)
        state.receivers.update((v, {}) for v in vids)
    if ids_parts:
        ids = np.concatenate(ids_parts)
        srcs_m = np.concatenate(srcs_parts, axis=1)[1:, :]
        poss_m = np.concatenate(poss_parts, axis=1)[1:, :]
        t_idx, v_idx = np.nonzero(srcs_m != NO_SOURCE)
        if len(t_idx):
            src = srcs_m[t_idx, v_idx]
            pos = poss_m[t_idx, v_idx]
            order = np.lexsort((t_idx, v_idx, pos, src))
            src_s, pos_s = src[order], pos[order]
            new_group = np.empty(len(order), dtype=bool)
            new_group[0] = True
            new_group[1:] = (src_s[1:] != src_s[:-1]) | (pos_s[1:] != pos_s[:-1])
            starts = np.flatnonzero(new_group).tolist()
            starts.append(len(order))
            src_l, pos_l = src_s.tolist(), pos_s.tolist()
            pairs = list(
                zip(ids[v_idx[order]].tolist(), (t_idx[order] + 1).tolist())
            )
            for a, b in zip(starts, starts[1:]):
                state.receivers[src_l[a]][pos_l[a]] = set(pairs[a:b])
    state.set_num_iterations(iterations)
    return state


def _assemble_array_rslpa_state(programs, iterations: int) -> ArrayLabelState:
    """:class:`ArrayLabelState` straight from array-program matrices.

    The array plane's native export: per-worker ``(T+1, n_local)`` matrices
    scatter into global matrices by vertex id and the reverse records come
    from the state's vectorised ``reindex`` — no per-vertex Python at all.
    Requires contiguous vertex ids ``0..n-1`` (the array-state contract).
    """
    n = sum(program.n_local for program in programs)
    parts = [program.local_ids for program in programs if program.n_local]
    ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if n and (int(ids.min()) < 0 or int(ids.max()) + 1 != n):
        raise ValueError(
            "state_format='array' requires contiguous vertex ids 0..n-1; "
            "use state_format='dict' or repro.graph.relabel_to_integers"
        )
    shape = (iterations + 1, n)
    labels = np.empty(shape, dtype=np.int64)
    srcs = np.empty(shape, dtype=np.int64)
    poss = np.empty(shape, dtype=np.int64)
    for program in programs:
        if program.n_local == 0:
            continue
        labels[:, program.local_ids] = program.labels
        srcs[:, program.local_ids] = program.srcs
        poss[:, program.local_ids] = program.poss
    return ArrayLabelState.from_matrices(labels, srcs, poss)


def _run_multiprocess(plan: RunPlan, shards, part, program_cls, seed, iterations):
    """Run a propagation program on real OS processes; returns (collected, stats)."""
    from repro.distributed.multiprocess import MultiprocessBSPEngine

    factory = partial(program_cls, seed=seed, iterations=iterations)
    plane = "array" if plan.engine == "array" else "tuple"
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
        plane=plane,
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
    graph: Graph,
    seed: int = 0,
    iterations: int = 200,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    shard_backend: str = "dict",
    engine: str = "auto",
    state_format: str = "dict",
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Union[LabelState, ArrayLabelState], CommStats]:
    """Algorithm 1 on the simulated cluster; returns (state, comm stats).

    The returned state is fully recorded (provenance + reverse records) and
    bit-identical to a sequential :class:`ReferencePropagator` run —
    on either shard backend (``graph`` may also be a :class:`CSRGraph`),
    on either message plane (``engine="reference"`` routes Python
    tuples, ``"array"`` routes struct-of-arrays columns; ``"auto"`` takes
    the array plane on CSR shards), in-process or on real OS processes
    (``config.multiprocess``).  ``state_format="array"`` returns an
    :class:`~repro.core.labels_array.ArrayLabelState` (contiguous ids
    required) — the array engine's native export, assembled without any
    per-vertex Python, and what the fast incremental lifecycle consumes.
    All ``auto`` negotiation happens in
    :func:`repro.api.plan.resolve_plan`; ``config=`` supplies the
    :class:`~repro.api.config.ExecutionConfig` directly and overrides the
    per-axis keywords.
    """
    cfg = _execution_config(
        config, num_workers, partitioner, shard_backend, engine, state_format
    )
    plan = resolve_plan(GraphCaps.of(graph), cfg)
    part = plan.build_partitioner()
    shards = _build_shards_for(plan, graph, part)
    program_cls = PROGRAMS.resolve(f"rslpa/{plan.engine}")

    if plan.multiprocess:
        collected, stats = _run_multiprocess(
            plan, shards, part, program_cls, seed, iterations
        )
        state = _merge_collected_rslpa_state(collected, iterations)
        if plan.state_format == "array":
            return ArrayLabelState.from_label_state(state), stats
        return state, stats

    bsp = ENGINES.resolve(plan.engine)(shards, part)
    _attach_obs(bsp, plan)
    programs = [
        program_cls(shard, seed=seed, iterations=iterations) for shard in shards
    ]
    bsp.run(programs)
    if plan.engine == "array":
        if plan.state_format == "array":
            return _assemble_array_rslpa_state(programs, iterations), bsp.stats
        return _merge_array_rslpa_state(programs, iterations), bsp.stats

    collected: Dict[int, tuple] = {}
    for program in programs:
        collected.update(program.collect())
    state = _merge_collected_rslpa_state(collected, iterations)
    if plan.state_format == "array":
        return ArrayLabelState.from_label_state(state), bsp.stats
    return state, bsp.stats


def run_distributed_slpa(
    graph: Graph,
    seed: int = 0,
    iterations: int = 100,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    shard_backend: str = "dict",
    engine: str = "auto",
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Dict[int, List[int]], CommStats]:
    """The SLPA baseline on the simulated cluster; returns (memories, stats)."""
    cfg = _execution_config(config, num_workers, partitioner, shard_backend, engine)
    plan = resolve_plan(GraphCaps.of(graph), cfg)
    part = plan.build_partitioner()
    shards = _build_shards_for(plan, graph, part)
    program_cls = PROGRAMS.resolve(f"slpa/{plan.engine}")
    if plan.multiprocess:
        memories, stats = _run_multiprocess(
            plan, shards, part, program_cls, seed, iterations
        )
        return memories, stats
    bsp = ENGINES.resolve(plan.engine)(shards, part)
    _attach_obs(bsp, plan)
    programs = [
        program_cls(shard, seed=seed, iterations=iterations) for shard in shards
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
    shard_backend: str = "dict",
    engine: str = "auto",
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Graph, LabelState, CommStats]:
    """Algorithm 2 on the simulated cluster.

    Takes the *pre-batch* graph and label state; returns the updated graph,
    the repaired state (same object, mutated), and communication stats.
    ``batch_epoch`` must count batches the same way the sequential
    :class:`CorrectionPropagator` does for the randomness to line up.
    ``shard_backend="csr"`` requires the post-batch graph to keep
    contiguous ids ``0..n-1`` (the plan is resolved against the
    *post-batch* capabilities, and fails before mutating anything).
    ``engine="array"`` runs the correction program through the columnar
    message plane (same repairs, same stats).
    """
    cfg = _execution_config(config, num_workers, partitioner, shard_backend, engine)
    if cfg.multiprocess:
        raise ValueError(
            "run_distributed_update repairs the caller's state in place; "
            "multiprocess workers cannot share it (use the in-process engine)"
        )
    batch.validate_against(graph)
    # Resolve against the POST-batch graph: apply_batch edits the caller's
    # graph (and the loop below pads the caller's state) in place, so a
    # plan the batch would invalidate must fail before mutating anything.
    post_ids = set(graph.vertices()) | set(batch.touched_vertices())
    post_contiguous = not post_ids or (
        min(post_ids) >= 0 and max(post_ids) + 1 == len(post_ids)
    )
    caps = GraphCaps(
        num_vertices=len(post_ids),
        num_edges=graph.num_edges,
        contiguous_ids=post_contiguous,
        is_csr=isinstance(graph, CSRGraph),
    )
    plan = resolve_plan(caps, cfg)
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
    shards = _build_shards_for(plan, new_graph, part)
    program_cls = PROGRAMS.resolve("correction/reference")
    programs = []
    for shard in shards:
        local = shard.vertices
        programs.append(
            program_cls(
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
    bsp = ENGINES.resolve(plan.engine)(shards, part)
    _attach_obs(bsp, plan)
    if plan.engine == "array":
        # The correction program stays tuple-level (its cascade is sparse,
        # O(eta) messages); the adapter runs it unmodified on the columnar
        # plane, exercising the vectorised barrier end to end.
        bsp.run([TupleProgramAdapter(program) for program in programs])
    else:
        bsp.run(programs)
    # Worker slices alias the state's own lists/dicts, so the state is
    # already repaired in place; nothing to merge back.
    return new_graph, state, bsp.stats


def run_distributed_postprocess(
    graph: Graph,
    state: LabelState,
    num_workers: int = 4,
    step: float = 0.001,
) -> Tuple[Cover, CommStats]:
    """Section III-B extraction with the CC stage on the cluster.

    Edge weights and τ2 are cheap one-round aggregations (computed directly
    here); the connected-components stage — the round-dominant part the
    paper discusses — runs distributed, and its stats are returned.
    """
    weights = edge_weights(graph, state.labels)
    tau2 = weak_threshold(graph, weights)
    tau1, _entropy, _curve = sweep_tau1(graph, weights, tau2, step=step)
    components, stats = distributed_connected_components(
        graph, num_workers=num_workers, weights=weights, tau=tau1
    )
    strong = [c for c in components if len(c) >= 2]
    communities, _attached = attach_weak(graph, weights, strong, tau2)
    return Cover(communities), stats
