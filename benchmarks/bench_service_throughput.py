"""Service layer — ingest throughput and query latency decoupling.

The paper's operating mode (Section V-B3) separates absorbing changes from
computing communities.  The service layer turns that into an architectural
guarantee: queries are dictionary lookups against the cached
``MembershipIndex`` extraction, so their latency must be *flat* while the
ingest batch size sweeps 10 → 10k, and ingest throughput must *grow* with
the batch size (Correction Propagation's sublinear η amortises).  A second
sweep varies the staleness bound K to show the query-side cost of
freshness, and the ingest sweep is repeated with the write-ahead log
enabled to price durability.

A third sweep prices the replication plane: a supervised primary plus N
replicas ingests a stream while a scripted fault kills the primary
mid-run.  The sweep reports failover latency (the wall time of the batch
that absorbed the promotion, against the median batch) and query
availability (client queries answered throughout — stale serves and
re-routes counted, errors fatal).

The ingest rows leave checkpoints off, so a ``checkpoint`` section prices
them on their own: the wall time of ``CommunityService.checkpoint()``
(label matrices, edge column, npz write and fsync, pruning, WAL rotation),
of ``CheckpointStore.load_checkpoint()`` and of the restore that builds a
detector from the loaded state and edge column
(``RSLPADetector.from_state``), each as a median with every rep kept, and
the checkpoint's size.

Records ``BENCH_service.json``.

Run:  PYTHONPATH=src:. python -m pytest benchmarks/bench_service_throughput.py -q
The ``-k smoke`` selection runs a scaled-down, time-bounded sweep (CI).
"""

import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks.bench_common import SCALE, banner, print_table, scaled
from repro.api.config import AlgoConfig, ServicePlanConfig
from repro.core.detector import RSLPADetector
from repro.distributed.faults import FaultPlan
from repro.service import CommunityService, ServiceSupervisor
from repro.workloads.dynamic import EditStream
from repro.workloads.webgraph import WebGraphParams, generate_webgraph

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

ITERATIONS = scaled(30, 60, 100)
# The acceptance sweep: ingest batch size 10 -> 10k at every scale.
BATCH_SIZES = scaled(
    [10, 100, 1000, 10_000],
    [10, 100, 1000, 10_000],
    [10, 100, 1000, 10_000, 100_000],
)
EDITS_TOTAL = scaled(6_000, 30_000, 200_000)
NUM_QUERIES = scaled(3_000, 10_000, 30_000)
STALENESS_SWEEP = scaled([1, 4, 16], [1, 4, 16], [1, 4, 16, 64])
# Replication sweep: replica counts per transport, on a bounded graph —
# every extra replica is a full child process holding its own detector.
REPLICA_SWEEP = scaled([1, 2], [1, 2, 3], [1, 2, 3, 4])
REPLICATION_GRAPH_N = scaled(1_200, 2_500, 5_000)
REPLICATION_BATCHES = scaled(10, 14, 20)
# Checkpoint section: timed checkpoint + load pairs, each after two batches.
CHECKPOINT_REPS = scaled(7, 7, 9)
CHECKPOINT_BATCH = scaled(1000, 1000, 10_000)


def _build_service(graph, batch_size, staleness, checkpoint_dir=None):
    return CommunityService(
        graph,
        seed=3,
        iterations=ITERATIONS,
        backend="fast",
        batch_size=batch_size,
        staleness_batches=staleness,
        checkpoint_every=0,  # WAL-only durability: price the log, not npz writes
        checkpoint_dir=checkpoint_dir,
    ).start()


def _ingest(service, graph, batch_size, edits_total):
    """Apply ``edits_total`` edits in ``batch_size`` windows; return seconds."""
    num_batches = max(1, edits_total // batch_size)
    stream = EditStream(graph, batch_size=batch_size, seed=17)
    batches = stream.take(num_batches)
    t0 = time.perf_counter()
    for batch in batches:
        service.apply(batch)
    return time.perf_counter() - t0, num_batches * batch_size


def _measure_queries(service, num_queries):
    """Mean query latency (µs) against the cached index, post-refresh.

    The queries stride through the vertices, so up to ``n`` of them each
    read a vertex for the first time since the refresh, and the index
    builds and memoises that vertex's tuple then.
    """
    service.refresh()
    n = service.graph.num_vertices
    vertices = [(v * 9973) % n for v in range(num_queries)]
    t0 = time.perf_counter()
    for v in vertices:
        service.communities_of(v)
    elapsed = time.perf_counter() - t0
    return elapsed / num_queries * 1e6


def _ingest_sweep(graph, batch_sizes, edits_total, num_queries):
    rows = []
    for batch_size in batch_sizes:
        service = _build_service(graph, batch_size, staleness=10**9)
        ingest_s, edits = _ingest(service, graph, batch_size, edits_total)

        with tempfile.TemporaryDirectory() as wal_dir:
            durable = _build_service(
                graph, batch_size, staleness=10**9, checkpoint_dir=wal_dir
            )
            durable_s, _ = _ingest(durable, graph, batch_size, edits_total)
            durable.close()

        query_us = _measure_queries(service, num_queries)
        rows.append(
            {
                "batch_size": batch_size,
                "edits": edits,
                "ingest_s": ingest_s,
                "ingest_eps": edits / ingest_s if ingest_s else float("inf"),
                "durable_ingest_s": durable_s,
                "durable_ingest_eps": edits / durable_s if durable_s else float("inf"),
                "query_mean_us": query_us,
            }
        )
    return rows


def _checkpoint_section(graph, reps, batch_size):
    """Median checkpoint write and load times, and the checkpoint's bytes.

    Two batches go into the WAL before every timed checkpoint, so each one
    publishes a new epoch, prunes the oldest file and rotates a real log.
    Every load must return the service's label matrices bit for bit, and
    every restore the service's cover.
    """
    write_s, load_s, restore_s = [], [], []
    with tempfile.TemporaryDirectory() as state_dir:
        service = _build_service(
            graph, batch_size, staleness=10**9, checkpoint_dir=state_dir
        )
        try:
            stream = EditStream(graph, batch_size=batch_size, seed=41)
            batches = stream.take(2 * reps)
            for rep in range(reps):
                for batch in batches[2 * rep:2 * rep + 2]:
                    service.apply(batch)
                t0 = time.perf_counter()
                service.checkpoint()
                write_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                ckpt = service.store.load_checkpoint()
                load_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                restored = RSLPADetector.from_state(
                    ckpt.edges, ckpt.state, ckpt.seed, batch_epoch=ckpt.batch_epoch
                )
                restore_s.append(time.perf_counter() - t0)
                assert restored.communities() == service.detector.communities()
                state = service.detector.array_state
                assert ckpt.batch_epoch == service.batches_applied
                assert all(
                    np.array_equal(getattr(ckpt.state, name), getattr(state, name))
                    for name in ("labels", "srcs", "poss", "epochs", "alive", "ids")
                )
            latest = sorted(Path(state_dir).glob("checkpoint-*.npz"))[-1]
            size = latest.stat().st_size
        finally:
            service.close()
    return {
        "reps": reps,
        "batch_size": batch_size,
        "write_ms": statistics.median(write_s) * 1e3,
        "load_ms": statistics.median(load_s) * 1e3,
        "restore_ms": statistics.median(restore_s) * 1e3,
        "write_ms_reps": [round(t * 1e3, 2) for t in write_s],
        "load_ms_reps": [round(t * 1e3, 2) for t in load_s],
        "restore_ms_reps": [round(t * 1e3, 2) for t in restore_s],
        "bytes": size,
    }


def _report_checkpoint(report, row):
    report("")
    print_table(
        report,
        ["checkpoint reps", "write (ms, median)", "load (ms, median)",
         "restore (ms, median)", "bytes"],
        [(row["reps"], round(row["write_ms"], 1), round(row["load_ms"], 1),
          round(row["restore_ms"], 1), row["bytes"])],
    )


def _staleness_sweep(graph, staleness_values, num_batches=20, queries_per_batch=50):
    """Interleaved ingest/query under different staleness bounds K."""
    rows = []
    for staleness in staleness_values:
        service = _build_service(graph, batch_size=100, staleness=staleness)
        stream = EditStream(graph, batch_size=100, seed=29)
        batches = stream.take(num_batches)
        extractions_before = service.extractions
        n = service.graph.num_vertices
        t0 = time.perf_counter()
        for batch in batches:
            service.apply(batch)
            for q in range(queries_per_batch):
                service.communities_of((q * 7919) % n)
        elapsed = time.perf_counter() - t0
        queries = num_batches * queries_per_batch
        rows.append(
            {
                "staleness_batches": staleness,
                "batches": num_batches,
                "queries": queries,
                "extractions": service.extractions - extractions_before,
                "amortised_query_us": elapsed / queries * 1e6,
            }
        )
    return rows


def _replication_sweep(graph, replica_counts, transports=("pipe",),
                       num_batches=12, batch_size=100,
                       queries_per_batch=20, kill=True):
    """Failover latency and query availability under a mid-stream kill.

    Each cell runs a supervised primary + N replicas over the same edit
    stream; with ``kill`` a scripted fault SIGKILLs the primary at the
    middle WAL sequence ("applied" phase, so the promotion also replays
    one record).  The batch that absorbs the failover is timed against
    the median batch; the client keeps querying throughout — a query
    *error* (as opposed to a counted stale serve or re-route) fails the
    benchmark on the spot.
    """
    rows = []
    kill_seq = max(1, num_batches // 2)
    for transport in transports:
        for replicas in replica_counts:
            config = ServicePlanConfig(
                algo=AlgoConfig(seed=3, iterations=ITERATIONS),
                batch_size=batch_size,
                staleness_batches=4,
                checkpoint_every=4,
                replicas=replicas,
                service_transport=transport,
            )
            fault = (
                FaultPlan(kill_primary=(kill_seq, "applied"))
                if kill else None
            )
            stream = EditStream(graph, batch_size=batch_size, seed=17)
            batches = stream.take(num_batches)
            n = graph.num_vertices
            with tempfile.TemporaryDirectory() as state_dir:
                sup = ServiceSupervisor(
                    graph, state_dir, config, fault_plan=fault
                ).start()
                try:
                    client = sup.client()
                    batch_times = []
                    for batch in batches:
                        t0 = time.perf_counter()
                        sup.apply(batch)
                        batch_times.append(time.perf_counter() - t0)
                        for q in range(queries_per_batch):
                            client.communities_of((q * 7919) % n)
                    stats = sup.stats()
                finally:
                    sup.shutdown()
            median_ms = statistics.median(batch_times) * 1e3
            failover_ms = (
                batch_times[kill_seq - 1] * 1e3 if kill else None
            )
            rows.append(
                {
                    "transport": transport,
                    "replicas": replicas,
                    "batches": num_batches,
                    "killed_at_seq": kill_seq if kill else None,
                    "failovers": stats["failovers"],
                    "replayed_records": stats["replayed_records"],
                    "median_batch_ms": median_ms,
                    "failover_batch_ms": failover_ms,
                    "queries": client.queries_served,
                    "stale_serves": client.stale_serves,
                    "reroutes": client.reroutes,
                    "primary_fallbacks": client.primary_fallbacks,
                }
            )
    return rows


def _report_replication(report, rows):
    report("")
    print_table(
        report,
        [
            "wire",
            "replicas",
            "failovers",
            "median batch (ms)",
            "failover batch (ms)",
            "queries",
            "stale",
            "reroutes",
        ],
        [
            (
                row["transport"],
                row["replicas"],
                row["failovers"],
                round(row["median_batch_ms"], 1),
                round(row["failover_batch_ms"], 1)
                if row["failover_batch_ms"] is not None else "-",
                row["queries"],
                row["stale_serves"],
                row["reroutes"],
            )
            for row in rows
        ],
    )


def _report_sweeps(report, title, graph, ingest_rows, staleness_rows):
    report(
        banner(
            title,
            "Section V-B3 operating mode: update continuously, extract on demand",
            "query latency flat across batch sizes; ingest eps grows with batching",
        )
    )
    report(
        f"substitute graph: |V|={graph.num_vertices}, "
        f"|E|={graph.num_edges}, T={ITERATIONS}, backend=fast"
    )
    print_table(
        report,
        [
            "batch size",
            "edits",
            "ingest (s)",
            "edits/s",
            "+WAL edits/s",
            "query mean (us)",
        ],
        [
            (
                row["batch_size"],
                row["edits"],
                round(row["ingest_s"], 3),
                round(row["ingest_eps"]),
                round(row["durable_ingest_eps"]),
                round(row["query_mean_us"], 2),
            )
            for row in ingest_rows
        ],
    )
    report("")
    print_table(
        report,
        ["staleness K", "batches", "queries", "extractions", "amortised query (us)"],
        [
            (
                row["staleness_batches"],
                row["batches"],
                row["queries"],
                row["extractions"],
                round(row["amortised_query_us"], 1),
            )
            for row in staleness_rows
        ],
    )


def test_service_throughput(benchmark, report, webgraph):
    graph = webgraph.graph
    results = {}

    replication_graph = generate_webgraph(
        WebGraphParams(n=REPLICATION_GRAPH_N, avg_out_degree=8.0), seed=7
    ).graph

    def run_sweeps():
        results["ingest"] = _ingest_sweep(
            graph, BATCH_SIZES, EDITS_TOTAL, NUM_QUERIES
        )
        results["staleness"] = _staleness_sweep(graph, STALENESS_SWEEP)
        results["checkpoint"] = _checkpoint_section(
            graph, CHECKPOINT_REPS, CHECKPOINT_BATCH
        )
        results["replication"] = _replication_sweep(
            replication_graph, REPLICA_SWEEP,
            transports=("pipe", "tcp"),
            num_batches=REPLICATION_BATCHES,
        )
        return results

    benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    ingest_rows, staleness_rows = results["ingest"], results["staleness"]

    _report_sweeps(
        report,
        "Service layer: ingest throughput vs query latency",
        graph,
        ingest_rows,
        staleness_rows,
    )
    _report_checkpoint(report, results["checkpoint"])
    report(
        f"replication graph: |V|={replication_graph.num_vertices}, "
        f"|E|={replication_graph.num_edges}; primary killed mid-stream"
    )
    _report_replication(report, results["replication"])

    payload = {
        "benchmark": "service_throughput",
        "scale": SCALE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "graph": {
            "kind": "webgraph_eu2015tpd_substitute",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "iterations": ITERATIONS,
        },
        "config": {
            "edits_total": EDITS_TOTAL,
            "num_queries": NUM_QUERIES,
            "backend": "fast",
        },
        "results": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    report(f"results recorded in {RESULT_PATH}")

    # Shape assertions — the decoupling contract.
    latencies = [row["query_mean_us"] for row in ingest_rows]
    assert max(latencies) <= 5 * min(latencies), (
        f"query latency not flat across ingest batch sizes: {latencies}"
    )
    # Batching amortises the per-batch overhead: the biggest window must
    # out-ingest the smallest by a clear margin.
    assert ingest_rows[-1]["ingest_eps"] > 2 * ingest_rows[0]["ingest_eps"], (
        "ingest throughput did not grow with batch size"
    )
    # Laxer staleness must not extract more often than stricter staleness.
    extractions = [row["extractions"] for row in staleness_rows]
    assert all(a >= b for a, b in zip(extractions, extractions[1:])), (
        f"extraction counts not monotone in K: {extractions}"
    )
    # Replication availability contract: the kill fired, exactly one
    # failover happened, and every client query was answered.
    for row in results["replication"]:
        assert row["failovers"] == 1, row
        assert row["queries"] == row["batches"] * 20, row


def test_service_smoke(benchmark, report):
    """Scaled-down sweep for CI (`pytest benchmarks -k smoke`): exercises the
    full ingest/query/staleness paths plus WAL-priced ingest and the
    checkpoint section in seconds, without the timing-based shape gates."""
    graph = generate_webgraph(
        WebGraphParams(n=1500, avg_out_degree=8.0), seed=7
    ).graph
    results = {}

    def run_sweeps():
        results["ingest"] = _ingest_sweep(
            graph, [10, 100], edits_total=400, num_queries=500
        )
        results["staleness"] = _staleness_sweep(
            graph, [1, 4], num_batches=6, queries_per_batch=10
        )
        results["checkpoint"] = _checkpoint_section(graph, reps=3, batch_size=100)
        results["replication"] = _replication_sweep(
            graph, [2], num_batches=6, batch_size=50, queries_per_batch=5
        )
        return results

    benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    _report_sweeps(
        report,
        "Service layer smoke: ingest/query sweeps on a small webgraph",
        graph,
        results["ingest"],
        results["staleness"],
    )
    _report_checkpoint(report, results["checkpoint"])
    _report_replication(report, results["replication"])
    assert len(results["ingest"]) == 2
    assert results["checkpoint"]["bytes"] > 0
    assert all(row["extractions"] >= 1 for row in results["staleness"])
    assert results["replication"][0]["failovers"] == 1
    assert results["replication"][0]["queries"] == 6 * 5


if __name__ == "__main__":  # pragma: no cover - ad-hoc run without pytest
    instance = generate_webgraph(WebGraphParams(n=8000, avg_out_degree=10.0), seed=7)

    class _Bench:
        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            fn()

    class _Webgraph:
        graph = instance.graph

    test_service_throughput(_Bench(), print, _Webgraph())
