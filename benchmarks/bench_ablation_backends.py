"""Ablation: execution backends — reference vs vectorised vs distributed.

The counter-based randomness makes every backend produce bit-identical
label states for one seed; this harness verifies the equality on a shared
instance and reports the relative throughput of each backend (the vectorised
engine is what makes paper-scale Figure 7 sweeps feasible in Python).
"""

import time

from benchmarks.bench_common import banner, print_table, scaled
from repro.core.fast import FastPropagator
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import run_distributed_rslpa
from repro.graph.generators import erdos_renyi

N = scaled(600, 2000, 10_000)
ITERATIONS = scaled(40, 60, 100)


def test_backend_equality_and_throughput(benchmark, report):
    graph = erdos_renyi(N, 10 / (N - 1), seed=4)

    timings = {}

    def run_all():
        t0 = time.perf_counter()
        ref = ReferencePropagator(graph.copy(), seed=9)
        ref.propagate(ITERATIONS)
        timings["reference"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        fast = FastPropagator(graph.copy(), seed=9)
        fast.propagate(ITERATIONS)
        timings["vectorised"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        dist_state, _stats = run_distributed_rslpa(
            graph.copy(), seed=9, iterations=ITERATIONS, num_workers=4
        )
        timings["distributed (4 workers, simulated)"] = time.perf_counter() - t0
        return ref, fast, dist_state

    ref, fast, dist_state = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Bit-equality across all three backends.
    for v in range(N):
        assert fast.labels[:, v].tolist() == ref.state.labels[v]
    assert dist_state.sequences_dict() == ref.state.labels

    report(
        banner(
            "Ablation: backend equivalence and throughput",
            "(design property; enables honest cross-backend benchmarks)",
            "identical label states; vectorised fastest; simulated cluster pays "
            "message-routing overhead",
        )
    )
    picks = N * ITERATIONS
    rows = [
        (name, round(seconds, 3), round(picks / seconds / 1e3, 1))
        for name, seconds in timings.items()
    ]
    print_table(report, ["backend", "seconds", "picks/ms"], rows)
    assert timings["vectorised"] < timings["reference"]
