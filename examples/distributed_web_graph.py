#!/usr/bin/env python3
"""Community detection on a simulated cluster, web-graph workload.

The paper's deployment: rSLPA on Spark over a 7-node cluster, processing a
web crawl.  This example reproduces that pipeline on the BSP cluster
simulator:

1. generate the synthetic web-graph substitute (heavy-tailed degrees,
   symmetrised, deduplicated — the paper's preprocessing);
2. run the distributed rSLPA fetch protocol over 7 simulated workers and
   compare its communication volume with the SLPA push protocol;
3. run the distributed incremental update for an edit batch;
4. extract communities with the distributed post-processing
   (hash-to-min connected components).

Run:  python examples/distributed_web_graph.py
"""

import time

from repro import (
    ArrayLabelState,
    ExecutionConfig,
    WebGraphParams,
    generate_webgraph,
    plan_for,
)
from repro.distributed import (
    run_distributed_postprocess,
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.workloads.dynamic import random_edit_batch

NUM_WORKERS = 7      # the paper's cluster size
N = 2_000            # scaled-down crawl
RSLPA_T = 60
SLPA_T = 30


def main() -> None:
    print(f"generating web-graph substitute (n={N})...")
    crawl = generate_webgraph(WebGraphParams(n=N, avg_out_degree=8), seed=1)
    graph = crawl.graph
    print(
        f"  |V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"max degree={graph.max_degree()} "
        f"(directed edges before normalisation: {crawl.num_directed_edges})"
    )

    print(f"\n[1] distributed rSLPA, {NUM_WORKERS} workers, T={RSLPA_T}")
    # One declarative config; every "auto" is negotiated against the graph
    # and the resolved plan explains each choice before anything runs.
    config = ExecutionConfig(num_workers=NUM_WORKERS)
    print(plan_for(graph, config).explain())
    t0 = time.perf_counter()
    state, rslpa_stats = run_distributed_rslpa(
        graph, seed=5, iterations=RSLPA_T, config=config
    )
    print(f"  {rslpa_stats.summary()}  ({time.perf_counter() - t0:.1f}s)")
    print(
        f"  per iteration: {rslpa_stats.total_messages // RSLPA_T} messages "
        f"(= 2|V| fetch protocol)"
    )

    print(f"\n[2] distributed SLPA for comparison, T={SLPA_T}")
    _, slpa_stats = run_distributed_slpa(
        graph, seed=5, iterations=SLPA_T, num_workers=NUM_WORKERS
    )
    slpa_per_iter = slpa_stats.total_messages // SLPA_T
    rslpa_per_iter = rslpa_stats.total_messages // RSLPA_T
    print(
        f"  per iteration: {slpa_per_iter} messages (= 2|E| push protocol) — "
        f"{slpa_per_iter / rslpa_per_iter:.1f}x the rSLPA volume"
    )

    print("\n[3] incremental update: batch of 50 edits (half insert/half delete)")
    batch = random_edit_batch(graph, 50, seed=2)
    t0 = time.perf_counter()
    # Algorithm 2 on workers repairs the dict form of the fitted state.
    graph, repaired, update_stats = run_distributed_update(
        graph, state.to_label_state(), batch, seed=5, batch_epoch=1,
        num_workers=NUM_WORKERS,
    )
    print(f"  {update_stats.summary()}  ({time.perf_counter() - t0:.1f}s)")
    print(
        f"  vs full re-propagation: ~{rslpa_stats.total_messages} messages — "
        f"{rslpa_stats.total_messages / max(update_stats.total_messages, 1):.0f}x more"
    )

    print("\n[4] distributed post-processing (hash-to-min components)")
    t0 = time.perf_counter()
    cover, cc_stats = run_distributed_postprocess(
        graph,
        ArrayLabelState.from_label_state(repaired),
        num_workers=NUM_WORKERS,
        step=0.01,
    )
    print(f"  CC stage: {cc_stats.summary()}  ({time.perf_counter() - t0:.1f}s)")
    sizes = cover.sizes()
    print(
        f"  {len(cover)} communities; sizes: min={min(sizes) if sizes else 0}, "
        f"median={sorted(sizes)[len(sizes) // 2] if sizes else 0}, "
        f"max={max(sizes) if sizes else 0}; "
        f"{len(cover.overlapping_vertices())} overlapping vertices"
    )


if __name__ == "__main__":
    main()
