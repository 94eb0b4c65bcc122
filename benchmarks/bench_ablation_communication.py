"""Ablation: per-iteration communication — rSLPA O(|V|) vs SLPA O(|E|) —
plus the engine sweep: the columnar message plane with wall-clock.

Section III-A: replacing the full received multiset with a single fetched
label cuts the labels moved per iteration from one per directed edge to one
(request + reply) per vertex.  We measure actual message counts on the BSP
engine across graph densities, and the O(η) cost of Correction Propagation.

The ``engine sweep`` harness runs rSLPA and SLPA on the columnar plane
over LFR instances, asserts each run bit-identical to the sequential
reference, and records messages, bytes and wall-clock per superstep in
``BENCH_distributed.json`` — so the comm-volume figures come with
timings.

The ``transport sweep`` harness measures the multiprocess data plane:
workers × ``transport={pipe,shm,tcp}``.  An SLPA pass on LFR asserts
bit-identical memories, covers and per-superstep CommStats across every
transport, and a payload-heavy ballast relay (wide bench-only schema,
near-zero compute) isolates the data-plane cost that whole-algorithm
runs hide behind shared compute — the zero-copy shm plane must beat the
pickled pipe plane by the scale's floor at the widest worker count.

Run:  PYTHONPATH=src:. python -m pytest benchmarks/bench_ablation_communication.py -q
The ``-k smoke`` selection runs a scaled-down, time-bounded sweep (CI).
"""

import gc
import json
import time
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

from benchmarks.bench_common import (
    SCALE,
    banner,
    environment,
    print_table,
    scaled,
)
from repro.api.config import ExecutionConfig
from repro.baselines.slpa_fast import FastSLPA
from repro.core.fast import FastPropagator
from repro.distributed.cluster import (
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.distributed.engine_array import (
    ArrayBSPEngine,
    ArrayWorkerProgram,
    gather_columns,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.message_array import register_schema
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import FastSLPAPropagationProgram
from repro.distributed.worker import CSRShard, build_csr_shards
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.partition import ContiguousPartitioner
from repro.workloads.dynamic import random_edit_batch
from repro.workloads.lfr import LFRParams, generate_lfr

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"


def _merge_record(section: str, payload: dict) -> None:
    """Write one top-level section of ``BENCH_distributed.json`` in place,
    preserving whatever the other sweeps recorded; every section carries
    the host it was measured on (``bench_common.environment()``)."""
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict) or "results" in data:
        # pre-merge layout: a single flat engine-sweep payload
        data = {"engine_sweep": data} if isinstance(data, dict) else {}
    data[section] = dict(payload, environment=environment())
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")

N = scaled(300, 1000, 4000)
ITERATIONS = 10
DEGREES = [4, 8, 16, 32]

# Engine-sweep dimensions (tentpole PR 3): LFR sizes per scale.
LFR_SIZES = scaled([300, 1500], [1000, 4000], [5000, 20000])
SWEEP_ITERATIONS = scaled(20, 30, 40)
SWEEP_WORKERS = 4


def test_message_volume_by_density(benchmark, report):
    rows = []

    def run():
        for k in DEGREES:
            graph = erdos_renyi(N, k / (N - 1), seed=k)
            _, rslpa_stats = run_distributed_rslpa(
                graph.copy(), seed=1, iterations=ITERATIONS, num_workers=4
            )
            _, slpa_stats = run_distributed_slpa(
                graph.copy(), seed=1, iterations=ITERATIONS, num_workers=4
            )
            rows.append(
                (
                    k,
                    graph.num_edges,
                    rslpa_stats.total_messages // ITERATIONS,
                    slpa_stats.total_messages // ITERATIONS,
                    round(
                        slpa_stats.total_messages / max(rslpa_stats.total_messages, 1),
                        2,
                    ),
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        banner(
            "Communication: labels per iteration, rSLPA fetch vs SLPA push",
            "rSLPA O(|V|) per iteration; SLPA O(|E|) per iteration",
            "SLPA volume grows with density; rSLPA stays flat at 2|V|",
        )
    )
    report(f"graph: |V|={N}, workers=4, iterations={ITERATIONS}")
    print_table(
        report,
        ["avg degree", "|E|", "rSLPA msgs/iter", "SLPA msgs/iter", "SLPA/rSLPA"],
        rows,
    )

    # rSLPA volume is density-independent; SLPA volume grows.
    rslpa_per_iter = [row[2] for row in rows]
    slpa_per_iter = [row[3] for row in rows]
    assert max(rslpa_per_iter) <= 2 * N
    assert slpa_per_iter[-1] > slpa_per_iter[0] * 4
    assert rows[-1][4] > rows[0][4]


def _sweep_lfr(n: int) -> "Graph":
    return generate_lfr(
        LFRParams(
            n=n, avg_degree=12, max_degree=30, mu=0.1,
            overlap_fraction=0.1, overlap_membership=2,
        ),
        seed=n,
    ).graph


def _engine_sweep(sizes, iterations, workers=SWEEP_WORKERS):
    """Time rSLPA and SLPA on the columnar plane over LFR sizes.

    Each run goes end to end through the cluster wrapper (rSLPA with its
    native ``ArrayLabelState`` export), is asserted bit-identical to the
    sequential engine, and is recorded with per-superstep message/byte/time
    averages.
    """
    rows = []
    for n in sizes:
        graph = _sweep_lfr(n)
        for algo, runner in (
            ("rslpa", run_distributed_rslpa),
            ("slpa", run_distributed_slpa),
        ):
            t0 = time.perf_counter()
            result, stats = runner(
                graph.copy(), seed=1, iterations=iterations, num_workers=workers
            )
            wall_s = time.perf_counter() - t0
            # Equality oracle: the sequential engine, bit for bit.
            if algo == "rslpa":
                local = FastPropagator(graph, seed=1)
                local.propagate(iterations)
                assert np.array_equal(result.labels, local.labels), (n, algo)
            else:
                local = FastSLPA(graph, seed=1, iterations=iterations)
                local.propagate()
                assert result == local.memories_as_dict(), (n, algo)
            rows.append(
                {
                    "n": n,
                    "num_edges": graph.num_edges,
                    "algo": algo,
                    "iterations": iterations,
                    "workers": workers,
                    "wall_s": wall_s,
                    # benchmark-record field names come straight off the
                    # stats object
                    **stats.as_dict(),
                    "wall_per_superstep_s": wall_s / stats.supersteps,
                    "messages_per_superstep": (
                        stats.total_messages / stats.supersteps
                    ),
                }
            )
    return rows


def _report_engine_sweep(report, title, rows, iterations):
    report(
        banner(
            title,
            "Section V-B2: per-round message exchange on the BSP cluster",
            "rSLPA moves 2|V| messages per iteration, SLPA 2|E|",
        )
    )
    report(f"LFR sweep, workers={SWEEP_WORKERS}, T={iterations}")
    print_table(
        report,
        ["n", "algo", "wall (s)", "msgs", "MB", "steps", "ms/step"],
        [
            (
                row["n"], row["algo"],
                round(row["wall_s"], 4), row["messages"],
                round(row["bytes"] / 1e6, 2), row["supersteps"],
                round(row["wall_per_superstep_s"] * 1e3, 3),
            )
            for row in rows
        ],
    )


def test_engine_sweep_records_timings(benchmark, report):
    results = {}

    def run():
        results["rows"] = _engine_sweep(LFR_SIZES, SWEEP_ITERATIONS)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = results["rows"]
    _report_engine_sweep(
        report,
        "Engine sweep: columnar message plane (rSLPA and SLPA)",
        rows,
        SWEEP_ITERATIONS,
    )
    payload = {
        "benchmark": "distributed_engine_sweep",
        "scale": SCALE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "sweep": {
            "sizes": LFR_SIZES,
            "iterations": SWEEP_ITERATIONS,
            "workers": SWEEP_WORKERS,
        },
        "results": rows,
    }
    _merge_record("engine_sweep", payload)
    report(f"results recorded in {RESULT_PATH}")


def test_engine_sweep_smoke(benchmark, report):
    """Scaled-down sweep for CI (`-k smoke`): both algorithms with the
    bit-identity assertions, no timing regression gate."""
    results = {}

    def run():
        results["rows"] = _engine_sweep([250], 10)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    _report_engine_sweep(
        report,
        "Engine sweep smoke: columnar plane on a small LFR",
        results["rows"],
        10,
    )
    assert len(results["rows"]) == 2  # rSLPA and SLPA


# ----------------------------------------------------------------------
# Fit vs local: the BSP plane's cost over the local core (ROADMAP item 4)
# ----------------------------------------------------------------------
#: perfbench dist_fit's graph shape and fit at every scale: the three
#: numbers ROADMAP item 4 tracks are measured on it.
FIT_LFR_N = 20_000
FIT_ITERATIONS = 30
FIT_WORKERS = 2
FIT_RUNS = 7


def _fit_vs_local(graph, iterations, runs):
    """Wall-clock samples of the local ``FastPropagator`` fit (with its
    export), the in-process 2-shard fit and the 2-worker shm fit, each
    asserted bit-identical to the local fit.  One untimed warm-up round,
    then ``runs`` rounds that rotate which fit goes first."""
    csr = CSRGraph.from_graph(graph)
    configs = {
        "in_process": ExecutionConfig(num_workers=FIT_WORKERS),
        "multiprocess_shm": ExecutionConfig(
            num_workers=FIT_WORKERS, multiprocess=True, transport="shm"
        ),
    }

    def local():
        propagator = FastPropagator(csr, seed=1)
        propagator.propagate(iterations)
        return propagator.to_array_state()

    def distributed(config):
        return run_distributed_rslpa(
            csr, seed=1, iterations=iterations, config=config
        )[0]

    fits = {"local": local}
    fits.update(
        (name, partial(distributed, config)) for name, config in configs.items()
    )
    expected = local()
    samples = {name: [] for name in fits}
    names = list(fits)
    for round_ in range(runs + 1):
        for name in names[round_ % 3:] + names[: round_ % 3]:
            t0 = time.perf_counter()
            state = fits[name]()
            wall_s = time.perf_counter() - t0
            for matrix in ("labels", "srcs", "poss"):
                assert np.array_equal(
                    getattr(state, matrix), getattr(expected, matrix)
                ), (name, matrix)
            if round_:  # round 0 is the warm-up
                samples[name].append(wall_s)
    return samples


def test_fit_vs_local_records(benchmark, report):
    """ROADMAP item 4's three numbers, recorded into
    ``BENCH_distributed.json`` (section ``fit_vs_local``)."""
    graph = _sweep_lfr(FIT_LFR_N)
    results = {}

    def run():
        results["samples"] = _fit_vs_local(graph, FIT_ITERATIONS, FIT_RUNS)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    samples = results["samples"]
    medians = {name: float(np.median(s)) for name, s in samples.items()}
    report(
        banner(
            "Fit vs local: the BSP plane against the local core",
            "Section V-B2: the same Algorithm 1 fit on the BSP cluster",
            "bit-identical fits; the distributed ones cost a small multiple",
        )
    )
    report(
        f"LFR |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"T={FIT_ITERATIONS}, {FIT_WORKERS} workers, median of {FIT_RUNS}"
    )
    print_table(
        report,
        ["fit", "median (s)", "x local"],
        [
            (name, round(median, 4), round(median / medians["local"], 2))
            for name, median in medians.items()
        ],
    )
    _merge_record(
        "fit_vs_local",
        {
            "benchmark": "distributed_fit_vs_local",
            "scale": SCALE,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "graph": {
                "n": graph.num_vertices,
                "num_edges": graph.num_edges,
                "family": "lfr",
                "seed": FIT_LFR_N,
            },
            "iterations": FIT_ITERATIONS,
            "workers": FIT_WORKERS,
            "runs": FIT_RUNS,
            "median_s": {name: round(m, 4) for name, m in medians.items()},
            "x_local": {
                name: round(m / medians["local"], 2)
                for name, m in medians.items()
            },
            "samples_s": {
                name: [round(t, 4) for t in s] for name, s in samples.items()
            },
        },
    )
    report(f"results recorded in {RESULT_PATH}")


# ----------------------------------------------------------------------
# Transport sweep: the multiprocess data plane (PR 6 tentpole)
# ----------------------------------------------------------------------
TRANSPORTS = ("pipe", "shm", "tcp")
TRANSPORT_WORKERS = [2, 4, 8]
TRANSPORT_LFR_N = scaled(2_000, 20_000, 100_000)
TRANSPORT_SLPA_ITERATIONS = scaled(10, 6, 4)
TRANSPORT_TAU = 0.3

# The ballast relay: each worker re-emits this many pre-built rows of the
# wide schema every superstep.  Compute is near zero, so wall-clock is the
# data plane plus the (transport-independent) routing barrier.
BALLAST_ROWS = scaled(30_000, 100_000, 250_000)
BALLAST_SUPERSTEPS = scaled(4, 6, 8)
BALLAST_REPS = scaled(2, 2, 3)
# Floor for min(pipe)/min(shm) at the widest worker count.  Fixed
# per-superstep costs (verbs, acks, spawn-warm caches) compress the ratio
# at small payloads; at paper scale the data plane dominates.
SHM_SPEEDUP_FLOOR = scaled(1.2, 1.5, 2.0)

# Bench-only wide schema: 7 payload fields + dst = 64 bytes per row on the
# wire.  Registered at import time so forked workers inherit it.
BALLAST_KIND = "blst"
BALLAST_FIELDS = ("a", "b", "c", "d", "e", "f", "g")
register_schema(BALLAST_KIND, BALLAST_FIELDS)


class BallastRelayProgram(ArrayWorkerProgram):
    """Re-emits a fixed wide column batch every superstep.

    Destinations are sorted and span the whole id space, and every field
    is zero, so the shared ``route_columns`` packs only owner and ``dst``
    into its sort key and its one sort stays cheap relative to the bytes
    each transport must move.
    """

    def __init__(self, shard, rows, supersteps, num_vertices):
        super().__init__(shard)
        self.rows = rows
        self.supersteps = supersteps
        self.num_vertices = num_vertices
        self._dst = None
        self._cols = None

    def _payload(self):
        if self._dst is None:  # built once, in the worker process
            self._dst = np.linspace(
                0, self.num_vertices - 1, self.rows, dtype=np.int64
            )
            self._cols = tuple(
                np.zeros(self.rows, dtype=np.int64) for _ in BALLAST_FIELDS
            )
        return self._dst, self._cols

    def on_start(self, ctx):
        dst, cols = self._payload()
        ctx.send_columns(BALLAST_KIND, dst, *cols)

    def on_superstep(self, ctx, superstep, inbox):
        if superstep >= self.supersteps:
            return
        dst, cols = self._payload()
        ctx.send_columns(BALLAST_KIND, dst, *cols)


def _ballast_shards(workers: int, n: int):
    """Adjacency-free shards: the relay never reads neighbours, and empty
    shards keep engine spawn (which is untimed) from pickling the graph."""
    empty = np.empty(0, dtype=np.int64)
    return [
        CSRShard(w, empty, np.zeros(1, dtype=np.int64), empty)
        for w in range(workers)
    ]


def _time_ballast(workers: int, n: int, transport: str, reps: int):
    """Steady-state data-plane timing: one engine, an untimed warm-up run
    (faults in ring segments / kernel buffers), then ``reps`` timed runs.
    ``run()`` is re-entrant — a fresh ``start`` verb replays the relay on
    the same live workers, so segment setup never pollutes the numbers."""
    part = ContiguousPartitioner(workers, n)
    factory = partial(
        BallastRelayProgram,
        rows=BALLAST_ROWS,
        supersteps=BALLAST_SUPERSTEPS,
        num_vertices=n,
    )
    engine = MultiprocessBSPEngine(
        _ballast_shards(workers, n), part, factory,
        transport=transport,
    )
    try:
        engine.run()  # warm-up, untimed
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            engine.run()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        engine.shutdown()


def _cover(memories, tau=TRANSPORT_TAU):
    """SLPA frequency-threshold extraction (communities as frozensets)."""
    holders = {}
    for v, memory in memories.items():
        length = len(memory)
        for label, count in Counter(memory).items():
            if count / length >= tau:
                holders.setdefault(label, set()).add(v)
    return {frozenset(c) for c in holders.values() if len(c) >= 2}


def _memories(shards, results):
    """Gathered SLPA memory columns as ``vertex -> memory list``."""
    ids, columns = gather_columns(shards, results)
    return dict(zip(ids.tolist(), columns["memory"].T.tolist()))


def _slpa_reference(graph, part, iterations):
    shards = build_csr_shards(graph, part)
    engine = ArrayBSPEngine(shards, part)
    programs = engine.run(
        [FastSLPAPropagationProgram(s, seed=7, iterations=iterations)
         for s in shards]
    )
    memories = _memories(shards, [program.collect() for program in programs])
    return memories, engine.stats.per_superstep


def _slpa_transport_run(graph, part, transport, iterations):
    shards = build_csr_shards(graph, part)
    factory = partial(FastSLPAPropagationProgram, seed=7, iterations=iterations)
    with MultiprocessBSPEngine(
        shards, part, factory, transport=transport
    ) as engine:
        t0 = time.perf_counter()
        stats = engine.run()
        wall_s = time.perf_counter() - t0
        memories = _memories(shards, engine.collect())
    return memories, stats.per_superstep, wall_s


def _transport_sweep(graph, workers_list, iterations, reps):
    """Per worker count: SLPA bit-identity across transports, then the
    ballast relay timing.  Returns (slpa_rows, ballast_rows)."""
    n = graph.num_vertices
    slpa_rows, ballast_rows = [], []
    for workers in workers_list:
        part = ContiguousPartitioner(workers, n)
        ref_memories, ref_steps = _slpa_reference(graph, part, iterations)
        ref_cover = _cover(ref_memories)
        assert ref_cover, "SLPA produced no communities; sweep is vacuous"
        for transport in TRANSPORTS:
            memories, steps, wall_s = _slpa_transport_run(
                graph, part, transport, iterations
            )
            assert memories == ref_memories, (workers, transport)
            assert _cover(memories) == ref_cover, (workers, transport)
            assert steps == ref_steps, (workers, transport)
            slpa_rows.append(
                {
                    "workers": workers,
                    "transport": transport,
                    "wall_s": wall_s,
                    "identical_to_in_process": True,
                }
            )
            # The SLPA pass leaves a large driver heap (graph, shards,
            # memories) that forked ballast workers would inherit as
            # copy-on-write pressure; drop it before timing.
            del memories, steps
            gc.collect()
            times = _time_ballast(workers, n, transport, reps)
            payload_mb = (
                workers * BALLAST_ROWS * (len(BALLAST_FIELDS) + 1) * 8 / 1e6
            )
            ballast_rows.append(
                {
                    "workers": workers,
                    "transport": transport,
                    "wall_s": [round(t, 4) for t in times],
                    "best_s": round(min(times), 4),
                    "payload_mb_per_superstep": round(payload_mb, 2),
                    "mb_per_s": round(
                        payload_mb * BALLAST_SUPERSTEPS / min(times), 1
                    ),
                }
            )
    return slpa_rows, ballast_rows


def _ballast_best(rows, workers, transport):
    for row in rows:
        if row["workers"] == workers and row["transport"] == transport:
            return row["best_s"]
    raise KeyError((workers, transport))


def _report_transport_sweep(report, title, graph, slpa_rows, ballast_rows,
                            iterations):
    report(
        banner(
            title,
            "zero-copy shm rings vs pickled pipes vs framed localhost TCP",
            "identical covers and CommStats; shm moves bytes the fastest",
        )
    )
    report(
        f"LFR |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"SLPA T={iterations}, ballast {BALLAST_ROWS} rows/worker x "
        f"{BALLAST_SUPERSTEPS} supersteps"
    )
    print_table(
        report,
        ["workers", "transport", "SLPA wall (s)", "ballast best (s)",
         "payload MB/step", "MB/s"],
        [
            (
                b["workers"], b["transport"],
                round(s["wall_s"], 3), b["best_s"],
                b["payload_mb_per_superstep"], b["mb_per_s"],
            )
            for s, b in zip(slpa_rows, ballast_rows)
        ],
    )


def test_transport_sweep_records_timings(benchmark, report):
    graph = _sweep_lfr(TRANSPORT_LFR_N)
    results = {}

    def run():
        results["rows"] = _transport_sweep(
            graph, TRANSPORT_WORKERS, TRANSPORT_SLPA_ITERATIONS, BALLAST_REPS
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    slpa_rows, ballast_rows = results["rows"]
    _report_transport_sweep(
        report,
        "Transport sweep: multiprocess data plane (pipe vs shm vs tcp)",
        graph, slpa_rows, ballast_rows, TRANSPORT_SLPA_ITERATIONS,
    )

    widest = max(TRANSPORT_WORKERS)
    shm_speedup = _ballast_best(ballast_rows, widest, "pipe") / _ballast_best(
        ballast_rows, widest, "shm"
    )
    tcp_speedup = _ballast_best(ballast_rows, widest, "pipe") / _ballast_best(
        ballast_rows, widest, "tcp"
    )
    report(
        f"data-plane speedup over pipe at {widest} workers: "
        f"shm {shm_speedup:.1f}x, tcp {tcp_speedup:.1f}x"
    )
    _merge_record(
        "transport_sweep",
        {
            "benchmark": "distributed_transport_sweep",
            "scale": SCALE,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "graph": {
                "n": graph.num_vertices,
                "num_edges": graph.num_edges,
                "family": "lfr",
            },
            "workers": TRANSPORT_WORKERS,
            "transports": list(TRANSPORTS),
            "slpa": {
                "iterations": TRANSPORT_SLPA_ITERATIONS,
                "tau": TRANSPORT_TAU,
                "results": slpa_rows,
            },
            "ballast": {
                "rows_per_worker": BALLAST_ROWS,
                "supersteps": BALLAST_SUPERSTEPS,
                "fields": len(BALLAST_FIELDS),
                "reps": BALLAST_REPS,
                "results": ballast_rows,
            },
            "speedups": {
                "shm_over_pipe_at_widest": round(shm_speedup, 2),
                "tcp_over_pipe_at_widest": round(tcp_speedup, 2),
            },
        },
    )
    report(f"results recorded in {RESULT_PATH}")

    # The tentpole's acceptance gate: zero-copy pays off where the data
    # plane dominates.
    assert shm_speedup >= SHM_SPEEDUP_FLOOR, (
        f"shm only {shm_speedup:.2f}x over pipe at {widest} workers "
        f"(floor {SHM_SPEEDUP_FLOOR} at scale={SCALE})"
    )


def test_transport_sweep_smoke(benchmark, report):
    """Scaled-down transport matrix for CI (`-k "smoke and transport"`):
    SLPA bit-identity across pipe/shm/tcp at 2 workers, tiny ballast,
    no timing gate, no JSON write."""
    graph = _sweep_lfr(250)
    results = {}

    def run():
        n = graph.num_vertices
        part = ContiguousPartitioner(2, n)
        ref_memories, ref_steps = _slpa_reference(graph, part, 8)
        rows = []
        for transport in TRANSPORTS:
            memories, steps, wall_s = _slpa_transport_run(
                graph, part, transport, 8
            )
            assert memories == ref_memories, transport
            assert _cover(memories) == _cover(ref_memories), transport
            assert steps == ref_steps, transport
            rows.append((transport, round(wall_s, 3)))
        results["rows"] = rows
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        banner(
            "Transport smoke: pipe vs shm vs tcp, bit-identical SLPA",
            "every transport reproduces the in-process run exactly",
            "covers and per-superstep CommStats match across the matrix",
        )
    )
    print_table(report, ["transport", "SLPA wall (s)"], results["rows"])
    assert len(results["rows"]) == len(TRANSPORTS)


def test_correction_volume_scales_with_eta(benchmark, report):
    graph = erdos_renyi(N, 8 / (N - 1), seed=3)

    rows = []

    def run():
        for batch_size in scaled([4, 16, 64], [10, 100, 1000], [100, 1000]):
            g = graph.copy()
            propagator = FastPropagator(g, seed=5)
            propagator.propagate(20)
            batch = random_edit_batch(g, batch_size, seed=batch_size)
            _, _, stats = run_distributed_update(
                g, propagator.to_array_state(), batch, seed=5, batch_epoch=1,
                num_workers=4,
            )
            rows.append((batch_size, stats.total_messages, stats.supersteps))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        banner(
            "Communication: Correction Propagation message volume is O(eta)",
            "only vertices near changed edges communicate",
            "messages grow with batch size, far below a full re-run",
        )
    )
    full_run_messages = 2 * N * 20
    print_table(report, ["batch", "messages", "supersteps"], rows)
    report(f"(full re-propagation would move ~{full_run_messages} messages)")
    assert rows[0][1] < full_run_messages


# ----------------------------------------------------------------------
# Fault tolerance: checkpoint overhead + kill/recovery matrix (PR 7)
# ----------------------------------------------------------------------
FAULT_LFR_N = scaled(400, 2_000, 10_000)
FAULT_ITERATIONS = scaled(6, 8, 10)
FAULT_WORKERS = 4
FAULT_INTERVALS = [1, 2, 4, 8]
FAULT_REPS = scaled(2, 3, 3)


def _fault_slpa_run(graph, part, transport, iterations, *, fault_tolerance,
                    checkpoint_interval=4, fault_plan=None):
    """One supervised SLPA fit: (memories, steps, wall_s, recovery)."""
    shards = build_csr_shards(graph, part)
    factory = partial(
        FastSLPAPropagationProgram, seed=7, iterations=iterations
    )
    with MultiprocessBSPEngine(
        shards, part, factory, transport=transport,
        fault_tolerance=fault_tolerance,
        checkpoint_interval=checkpoint_interval,
        max_restarts=part.num_partitions * (iterations + 1),
        fault_plan=fault_plan,
    ) as engine:
        t0 = time.perf_counter()
        stats = engine.run()
        wall_s = time.perf_counter() - t0
        memories = _memories(shards, engine.collect())
    return memories, stats.per_superstep, wall_s, engine.recovery


def _checkpoint_overhead_sweep(graph, part, iterations, reps,
                               transport="shm"):
    """Failure-free wall-clock per checkpoint_interval vs supervision off.

    The paper-facing question for the fault-tolerance knob: what does a
    consistent cut every K barriers cost when nothing ever fails?  One
    untimed warm-up fit runs first, and each rep then runs every interval
    once, so the supervision-off baseline does not absorb the first fit's
    costs and every interval sees the host in the same phases.
    """
    intervals = [None] + FAULT_INTERVALS
    _fault_slpa_run(graph, part, transport, iterations,
                    fault_tolerance=False, checkpoint_interval=4)
    times = {interval: [] for interval in intervals}
    cuts = {}
    for _ in range(reps):
        for interval in intervals:
            _, _, wall_s, recovery = _fault_slpa_run(
                graph, part, transport, iterations,
                fault_tolerance=interval is not None,
                checkpoint_interval=interval or 4,
            )
            times[interval].append(wall_s)
            cuts[interval] = recovery.checkpoints_taken
    rows = [
        {
            "checkpoint_interval": interval,  # None = supervision off
            "wall_s": [round(t, 4) for t in times[interval]],
            "best_s": round(min(times[interval]), 4),
            "checkpoints_taken": cuts[interval],
        }
        for interval in intervals
    ]
    baseline = rows[0]["best_s"]
    for row in rows:
        row["overhead_pct"] = round(100.0 * (row["best_s"] / baseline - 1), 1)
    return rows


def _kill_matrix(graph, iterations, workers):
    """SIGKILL every (worker, superstep) pair on every transport.

    The acceptance gate of the fault-tolerance tentpole: each killed fit
    must complete with covers AND per-superstep CommStats bit-identical
    to the failure-free run.  Returns per-transport summary rows.
    """
    n = graph.num_vertices
    part = ContiguousPartitioner(workers, n)
    ref_memories, ref_steps = _slpa_reference(graph, part, iterations)
    ref_cover = _cover(ref_memories)
    rows = []
    for transport in TRANSPORTS:
        kills = replayed = 0
        t0 = time.perf_counter()
        for worker in range(workers):
            for superstep in range(iterations + 1):
                memories, steps, _, recovery = _fault_slpa_run(
                    graph, part, transport, iterations,
                    fault_tolerance=True, checkpoint_interval=2,
                    fault_plan=FaultPlan(kill=(worker, superstep)),
                )
                assert memories == ref_memories, (transport, worker, superstep)
                assert _cover(memories) == ref_cover, (
                    transport, worker, superstep,
                )
                assert steps == ref_steps, (transport, worker, superstep)
                assert recovery.recoveries == 1, (transport, worker, superstep)
                kills += 1
                replayed += recovery.supersteps_replayed
        rows.append(
            {
                "transport": transport,
                "kill_sites": kills,
                "all_bit_identical": True,
                "supersteps_replayed_total": replayed,
                "wall_s": round(time.perf_counter() - t0, 2),
            }
        )
    return rows


def test_fault_tolerance_records_overhead(benchmark, report):
    graph = _sweep_lfr(FAULT_LFR_N)
    part = ContiguousPartitioner(FAULT_WORKERS, graph.num_vertices)
    results = {}

    def run():
        results["overhead"] = _checkpoint_overhead_sweep(
            graph, part, FAULT_ITERATIONS, FAULT_REPS
        )
        results["kill_matrix"] = _kill_matrix(
            graph, FAULT_ITERATIONS, FAULT_WORKERS
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    overhead, kill_rows = results["overhead"], results["kill_matrix"]
    report(
        banner(
            "Fault tolerance: checkpoint overhead + kill/recovery matrix",
            "consistent cuts every K barriers; SIGKILL at every site",
            "replay is bit-identical; overhead shrinks as K grows",
        )
    )
    report(
        f"LFR |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"workers={FAULT_WORKERS}, SLPA T={FAULT_ITERATIONS}, shm transport"
    )
    print_table(
        report,
        ["checkpoint_interval", "best (s)", "cuts", "overhead %"],
        [
            (
                "off" if row["checkpoint_interval"] is None
                else row["checkpoint_interval"],
                row["best_s"], row["checkpoints_taken"], row["overhead_pct"],
            )
            for row in overhead
        ],
    )
    print_table(
        report,
        ["transport", "kill sites", "bit-identical", "replayed steps",
         "wall (s)"],
        [
            (
                row["transport"], row["kill_sites"],
                row["all_bit_identical"],
                row["supersteps_replayed_total"], row["wall_s"],
            )
            for row in kill_rows
        ],
    )
    _merge_record(
        "fault_tolerance",
        {
            "benchmark": "distributed_fault_tolerance",
            "scale": SCALE,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "graph": {
                "n": graph.num_vertices,
                "num_edges": graph.num_edges,
                "family": "lfr",
            },
            "workers": FAULT_WORKERS,
            "iterations": FAULT_ITERATIONS,
            "checkpoint_overhead": {
                "transport": "shm",
                "reps": FAULT_REPS,
                "intervals": FAULT_INTERVALS,
                "results": overhead,
            },
            "kill_matrix": {
                "transports": list(TRANSPORTS),
                "checkpoint_interval": 2,
                "results": kill_rows,
            },
        },
    )
    report(f"results recorded in {RESULT_PATH}")

    # Acceptance: every kill site on every transport recovered exactly.
    assert all(row["all_bit_identical"] for row in kill_rows)
    assert all(
        row["kill_sites"] == FAULT_WORKERS * (FAULT_ITERATIONS + 1)
        for row in kill_rows
    )


# ----------------------------------------------------------------------
# Observability: phase-timing breakdown + tracing overhead (PR 9)
# ----------------------------------------------------------------------
OBS_LFR_N = scaled(400, 2_000, 10_000)
OBS_ITERATIONS = scaled(6, 8, 10)
OBS_WORKERS = [2, 4]
#: Tracing must cost < 5% wall-clock on the multiprocess plane
#: (against the identical untraced run; DESIGN.md budget).
OBS_OVERHEAD_BUDGET_PCT = 5.0
#: The overhead gate's fit (~55 ms on a 2-vCPU Xeon), and how many
#: rounds of fresh engines times how many interleaved untraced/traced
#: pairs per round it times: 8 x 15, because at 4 x 15 two back-to-back
#: readings differed by about the whole 5% budget.
OBS_GATE_N = 2_000
OBS_GATE_WORKERS = 2
OBS_GATE_ITERATIONS = 10
OBS_GATE_ROUNDS = 8
OBS_GATE_PAIRS = 15


def _obs_slpa_engine(graph, part, iterations, transport, trace):
    """A reusable (re-entrant) supervised SLPA engine, traced or not."""
    obs = None
    if trace:
        from repro.obs import Obs

        obs = Obs()
    shards = build_csr_shards(graph, part)
    factory = partial(
        FastSLPAPropagationProgram, seed=7, iterations=iterations
    )
    return MultiprocessBSPEngine(
        shards, part, factory, transport=transport, obs=obs
    ), obs


def _paired_median_walls(graph, part, iterations, rounds, pairs,
                         transport="shm"):
    """Median wall-clock of untraced and traced engines, interleaved.

    Each round starts a fresh untraced and a fresh traced engine (which
    starts first alternates) and runs them back to back ``pairs`` times,
    alternating which goes first.  Drift in the host's speed, and the
    lasting speed difference two identical engines can show, then land
    on both sides alike.  Returns the ``(untraced, traced)`` medians over
    every timed run.
    """
    walls = {False: [], True: []}
    for round_ in range(rounds):
        engines = {}
        try:
            for trace in (False, True) if round_ % 2 == 0 else (True, False):
                engines[trace], _obs = _obs_slpa_engine(
                    graph, part, iterations, transport, trace
                )
                engines[trace].run()  # warm-up, untimed
            for pair in range(pairs):
                traced_first = (pair + round_) % 2 == 1
                for trace in (traced_first, not traced_first):
                    t0 = time.perf_counter()
                    engines[trace].run()
                    walls[trace].append(time.perf_counter() - t0)
        finally:
            for engine in engines.values():
                engine.shutdown()
    return float(np.median(walls[False])), float(np.median(walls[True]))


def _tracing_overhead(graph):
    """The one tracing-overhead measurement, shared by the CI gate and
    the ``observability`` record: the gate's multiprocess SLPA fit
    (``OBS_GATE_WORKERS`` workers, ``OBS_GATE_ITERATIONS`` supersteps)
    on ``graph``, timed as paired medians (:func:`_paired_median_walls`).
    """
    part = ContiguousPartitioner(OBS_GATE_WORKERS, graph.num_vertices)
    plain, traced = _paired_median_walls(
        graph, part, OBS_GATE_ITERATIONS, OBS_GATE_ROUNDS, OBS_GATE_PAIRS
    )
    return {
        "workers": OBS_GATE_WORKERS,
        "graph": {"n": graph.num_vertices, "num_edges": graph.num_edges},
        "iterations": OBS_GATE_ITERATIONS,
        "clock": "time.perf_counter (wall)",
        "rounds": OBS_GATE_ROUNDS,
        "pairs": OBS_GATE_PAIRS,
        "untraced_median_s": plain,
        "traced_median_s": traced,
        "overhead_pct": 100.0 * (traced / plain - 1),
    }


def _phase_breakdown(graph, workers, iterations, transport="shm"):
    """One traced run's per-phase and per-worker second totals, and how
    much the workers computed at once (:meth:`TraceResult.compute_overlap`)."""
    part = ContiguousPartitioner(workers, graph.num_vertices)
    engine, obs = _obs_slpa_engine(graph, part, iterations, transport, True)
    try:
        t0 = time.perf_counter()
        engine.run()
        wall_s = time.perf_counter() - t0
        engine.collect()
    finally:
        engine.shutdown()
    result = obs.result()
    busy = {}
    for span in result.spans:
        busy[span.worker] = busy.get(span.worker, 0.0) + span.dur_ns / 1e9
    return {
        "workers": workers,
        "wall_s": round(wall_s, 4),
        "spans": len(result.spans),
        "compute_overlap": round(result.compute_overlap(), 4),
        "phase_seconds": {
            name: round(total, 6)
            for name, total in result.phase_totals().items()
        },
        "busy_seconds_per_timeline": {
            str(w): round(s, 6) for w, s in sorted(busy.items())
        },
    }


def test_observability_phase_breakdown_records(benchmark, report):
    """Phase-timing breakdown per worker count + tracing overhead,
    recorded into ``BENCH_distributed.json`` (section ``observability``).

    The overhead row is the smoke gate's measurement
    (:func:`_tracing_overhead`), on the gate's graph."""
    graph = _sweep_lfr(OBS_LFR_N)
    results = {}

    def run():
        results["rows"] = [
            _phase_breakdown(graph, workers, OBS_ITERATIONS)
            for workers in OBS_WORKERS
        ]
        results["overhead"] = {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in _tracing_overhead(_sweep_lfr(OBS_GATE_N)).items()
        }
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows, overhead = results["rows"], results["overhead"]
    report(
        banner(
            "Observability: superstep phase breakdown + tracing overhead",
            "where each worker's superstep actually goes (spans, merged)",
            "barrier/transport/compute split per worker count; <5% overhead",
        )
    )
    report(
        f"LFR |V|={graph.num_vertices} |E|={graph.num_edges}, "
        f"SLPA T={OBS_ITERATIONS}, shm transport"
    )
    phases = sorted({p for row in rows for p in row["phase_seconds"]})
    print_table(
        report,
        ["workers", "wall (s)", "spans", "overlap"]
        + [p.split(".")[-1] for p in phases],
        [
            tuple(
                [row["workers"], row["wall_s"], row["spans"],
                 row["compute_overlap"]]
                + [round(row["phase_seconds"].get(p, 0.0), 4) for p in phases]
            )
            for row in rows
        ],
    )
    report(
        f"tracing overhead at {overhead['workers']} workers, "
        f"|V|={overhead['graph']['n']}, T={overhead['iterations']}: "
        f"{overhead['overhead_pct']}% "
        f"({overhead['untraced_median_s']}s -> {overhead['traced_median_s']}s, "
        f"medians of {OBS_GATE_ROUNDS} x {OBS_GATE_PAIRS} interleaved pairs)"
    )
    _merge_record(
        "observability",
        {
            "benchmark": "distributed_observability",
            "scale": SCALE,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "graph": {
                "n": graph.num_vertices,
                "num_edges": graph.num_edges,
                "family": "lfr",
            },
            "iterations": OBS_ITERATIONS,
            "transport": "shm",
            "phase_breakdown": rows,
            "overhead": overhead,
        },
    )
    report(f"results recorded in {RESULT_PATH}")

    for row in rows:
        assert {
            "engine.compute", "engine.pack", "engine.transport_send",
            "engine.barrier_wait", "engine.route",
        } <= set(row["phase_seconds"]), row["workers"]


def test_observability_overhead_smoke(benchmark, report):
    """Tracing-overhead gate for CI (`-k "smoke"`): a traced multiprocess
    SLPA fit must stay within the 5% wall-clock budget of the identical
    untraced run, and record every superstep phase.

    Fresh engine pairs run interleaved, and the gate compares each
    side's median over ``OBS_GATE_ROUNDS`` x ``OBS_GATE_PAIRS`` pairs, so
    a slow stretch of the host, a one-off stall or one engine that
    happens to run faster cannot land on one side only.
    """
    graph = _sweep_lfr(OBS_GATE_N)
    results = {}

    def run():
        results["overhead"] = _tracing_overhead(graph)
        results["breakdown"] = _phase_breakdown(
            graph, OBS_GATE_WORKERS, OBS_GATE_ITERATIONS
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = results["overhead"]
    plain, traced = overhead["untraced_median_s"], overhead["traced_median_s"]
    overhead_pct = overhead["overhead_pct"]
    report(
        banner(
            "Observability smoke: tracing overhead within budget",
            "span recording is two gated statements per phase",
            f"overhead {overhead_pct:.1f}% (budget "
            f"{OBS_OVERHEAD_BUDGET_PCT}%)",
        )
    )
    breakdown = results["breakdown"]
    print_table(
        report,
        ["phase", "total (s)"],
        sorted(breakdown["phase_seconds"].items()),
    )
    report(
        f"untraced median {plain:.4f}s, traced median {traced:.4f}s "
        f"({OBS_GATE_ROUNDS} x {OBS_GATE_PAIRS} interleaved pairs)"
    )
    assert {
        "engine.compute", "engine.pack", "engine.transport_send",
        "engine.barrier_wait", "engine.route",
    } <= set(breakdown["phase_seconds"])
    assert overhead_pct < OBS_OVERHEAD_BUDGET_PCT, (
        f"tracing cost {overhead_pct:.1f}% wall-clock "
        f"(budget {OBS_OVERHEAD_BUDGET_PCT}%)"
    )


def test_fault_recovery_smoke(benchmark, report):
    """Scaled-down recovery matrix for CI (`-k "fault and smoke"`): one
    mid-run SIGKILL per transport at 2 workers, bit-identity asserted,
    no timing gate, no JSON write."""
    graph = _sweep_lfr(250)
    part = ContiguousPartitioner(2, graph.num_vertices)
    ref_memories, ref_steps = _slpa_reference(graph, part, 6)
    results = {}

    def run():
        rows = []
        for transport in TRANSPORTS:
            memories, steps, wall_s, recovery = _fault_slpa_run(
                graph, part, transport, 6,
                fault_tolerance=True, checkpoint_interval=2,
                fault_plan=FaultPlan(kill=(1, 3)),
            )
            assert memories == ref_memories, transport
            assert steps == ref_steps, transport
            assert recovery.recoveries == 1, transport
            rows.append((transport, round(wall_s, 3),
                         recovery.supersteps_replayed))
        results["rows"] = rows
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        banner(
            "Fault recovery smoke: SIGKILL mid-fit on every transport",
            "checkpoint/replay restores a consistent cut and respawns",
            "covers and per-superstep CommStats identical to failure-free",
        )
    )
    print_table(
        report, ["transport", "wall (s)", "replayed steps"], results["rows"]
    )
    assert len(results["rows"]) == len(TRANSPORTS)
