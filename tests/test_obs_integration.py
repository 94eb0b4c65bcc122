"""Integration tests for the observability plane across engines + service.

The acceptance bar: a fault-injected multiprocess run (one SIGKILL,
fault_tolerance on) exports a valid Chrome trace covering every
superstep phase plus checkpoint/restore/respawn, attributed per worker
— and tracing never perturbs results (covers and per-superstep
CommStats bit-identical with it on or off).

Tests named ``*smoke*`` are the CI subset (``-k "obs and smoke"``).
"""

import json
from functools import partial

import pytest

from repro.api import AlgoConfig, ExecutionConfig
from repro.api.run import run_distributed
from repro.distributed.faults import FaultPlan
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import FastSLPAPropagationProgram
from repro.distributed.worker import build_csr_shards
from repro.graph.generators import ring_of_cliques
from repro.graph.partition import HashPartitioner
from repro.obs import DRIVER, validate_chrome_trace

SEED, ITERATIONS = 11, 6

#: Every per-superstep engine phase the multiprocess plane must attribute.
SUPERSTEP_PHASES = {
    "engine.compute",
    "engine.pack",
    "engine.transport_send",
    "engine.barrier_wait",
    "engine.route",
}


def _step_tuples(stats):
    return [
        (s.superstep, s.messages, s.remote_messages, s.bytes, s.remote_bytes)
        for s in stats.per_superstep
    ]


def _sequences(state):
    """Canonical ``vertex -> label sequence`` view of either state kind."""
    if hasattr(state, "sequences_dict"):
        return {v: tuple(seq) for v, seq in state.sequences_dict().items()}
    return {v: tuple(state.sequence(v)) for v in state.vertices()}


def _multiprocess_run(traced, fault_plan=None):
    """One supervised multiprocess run; returns (memories, stats)."""
    graph = ring_of_cliques(3, 5)
    part = HashPartitioner(2)
    shards = build_csr_shards(graph, part)
    factory = partial(
        FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
    )
    obs = None
    if traced:
        from repro.obs import Obs

        obs = Obs()
    with MultiprocessBSPEngine(
        shards,
        part,
        factory,
        transport="shm",
        fault_tolerance=True,
        checkpoint_interval=2,
        max_restarts=3,
        fault_plan=fault_plan,
        obs=obs,
    ) as engine:
        stats = engine.run()
        memories = {}
        for result in engine.collect():
            memories.update(result)
    return memories, stats


class TestMultiprocessTracing:
    def test_fault_injected_trace_covers_every_phase_smoke(self):
        """The acceptance test: SIGKILL mid-run, full phase coverage."""
        memories, stats = _multiprocess_run(
            traced=True, fault_plan=FaultPlan(kill=(1, 3))
        )
        assert stats.recovery.recoveries == 1
        assert stats.obs is not None
        result = stats.obs.result()

        names = {span.name for span in result.spans}
        assert SUPERSTEP_PHASES <= names, f"missing: {SUPERSTEP_PHASES - names}"
        # The fault-tolerance phases fired too: the run checkpointed,
        # detected the kill, restored the cut, and respawned worker 1.
        assert {"engine.checkpoint", "engine.restore",
                "engine.respawn"} <= names

        # Per-worker attribution: driver timeline + both worker timelines.
        assert result.workers() == [DRIVER, 0, 1]
        compute_workers = {
            s.worker for s in result.spans if s.name == "engine.compute"
        }
        assert compute_workers == {0, 1}
        respawned = [s for s in result.spans if s.name == "engine.respawn"]
        assert [s.worker for s in respawned] == [1]

        # Transport metrics rode along on the merged registry.
        snap = result.metrics
        assert snap["histograms"]["transport.shm.inbox_bytes"]["count"] > 0
        assert snap["histograms"]["transport.shm.outbox_bytes"]["count"] > 0

        # The export is a valid Chrome trace even after JSON encoding.
        payload = json.loads(json.dumps(result.to_chrome_trace()))
        validate_chrome_trace(payload)
        thread_rows = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert thread_rows == {"driver", "worker-0", "worker-1"}

        # And tracing never perturbed the run: memories + per-superstep
        # stats bit-identical to the same faulty run without tracing.
        ref_memories, ref_stats = _multiprocess_run(
            traced=False, fault_plan=FaultPlan(kill=(1, 3))
        )
        assert ref_stats.obs is None
        assert set(memories) == set(ref_memories)
        for key in ref_memories:
            eq = memories[key] == ref_memories[key]
            assert eq.all() if hasattr(eq, "all") else eq
        assert _step_tuples(stats) == _step_tuples(ref_stats)

    def test_failure_free_trace_has_no_recovery_spans(self):
        _memories, stats = _multiprocess_run(traced=True)
        names = {span.name for span in stats.obs.result().spans}
        assert SUPERSTEP_PHASES <= names
        assert "engine.checkpoint" in names  # checkpoint_interval=2 fired
        assert "engine.restore" not in names
        assert "engine.respawn" not in names


class TestInProcessTracing:
    @pytest.mark.parametrize("engine", ["array"])
    def test_trace_on_off_bit_identical_smoke(self, engine):
        graph = ring_of_cliques(4, 5)
        algo = AlgoConfig(seed=SEED, iterations=ITERATIONS)

        def _run(trace):
            return run_distributed(
                graph, algo,
                ExecutionConfig(num_workers=3, engine=engine, trace=trace),
            )

        traced, plain = _run(True), _run(False)
        assert plain.trace is None and plain.comm_stats.obs is None
        result = traced.trace
        assert result is not None
        names = {span.name for span in result.spans}
        assert {"engine.compute", "engine.route"} <= names
        assert set(result.workers()) >= {DRIVER, 0, 1, 2}
        assert "plan" in result.meta and "timings" in result.meta

        assert _sequences(traced.state) == _sequences(plain.state)
        assert _step_tuples(traced.comm_stats) == _step_tuples(plain.comm_stats)

        # The in-process engines mirrored communication into the registry.
        counters = result.metrics["counters"]
        assert counters["engine.messages"] == traced.comm_stats.total_messages
        assert counters["engine.bytes"] == traced.comm_stats.total_bytes
        assert "# TYPE repro_engine_messages counter" in result.to_prometheus()


class TestServiceTracing:
    def _drive(self, trace, tmp_path, tag):
        from repro.api.config import ServicePlanConfig
        from repro.service import CommunityService

        service = CommunityService(
            ring_of_cliques(4, 5),
            config=ServicePlanConfig(
                algo=AlgoConfig(seed=SEED, iterations=ITERATIONS),
                execution=ExecutionConfig(trace=trace),
                batch_size=2,
                staleness_batches=2,
            ),
            checkpoint_dir=str(tmp_path / tag),
        )
        service.start()
        # The duplicate (0, 7) rides in the same window as the original,
        # so it coalesces in the queue instead of reaching the detector.
        for u, v in ((0, 7), (0, 7), (1, 9), (3, 12), (5, 16), (2, 14)):
            service.submit_insert(u, v)
        service.flush()
        service.refresh()
        service.communities_of(0)
        cover = sorted(tuple(sorted(c)) for c in service.cover())
        stats = service.stats()
        trace_result = service.trace_result()
        service.close()
        return cover, stats, trace_result

    def test_service_spans_metrics_and_bit_identity_smoke(self, tmp_path):
        cover, stats, result = self._drive(True, tmp_path, "on")
        assert result is not None
        names = {span.name for span in result.spans}
        assert {"service.apply", "service.extract"} <= names

        metrics = stats["metrics"]
        counters = metrics["counters"]
        assert counters["service.batches_applied"] == stats["batches_applied"]
        assert counters["service.edits_applied"] == stats["edits_applied"]
        assert counters["service.queries"] == 1
        assert metrics["histograms"]["service.staleness_at_serve"]["count"] == 1
        # Durability instrumentation: every applied batch fsyncs the WAL.
        assert (
            metrics["histograms"]["service.wal_fsync_seconds"]["count"]
            >= stats["batches_applied"]
        )
        # The duplicate (0, 7) offer coalesced; the gauge exposes the ratio.
        assert metrics["gauges"]["service.coalesce_ratio"] == pytest.approx(
            1 / 6
        )
        validate_chrome_trace(result.to_chrome_trace())

        plain_cover, plain_stats, plain_result = self._drive(
            False, tmp_path, "off"
        )
        assert plain_result is None and "metrics" not in plain_stats
        assert plain_cover == cover


class TestReplicationTracing:
    def test_failover_run_records_commit_ship_failover(self, tmp_path):
        from repro.api.config import ServicePlanConfig
        from repro.service.replication import ServiceSupervisor

        def _run(trace, tag, fault_plan=None):
            config = ServicePlanConfig(
                algo=AlgoConfig(seed=SEED, iterations=ITERATIONS),
                execution=ExecutionConfig(trace=trace),
                batch_size=2,
                replicas=1,
                staleness_batches=2,
            )
            supervisor = ServiceSupervisor(
                ring_of_cliques(4, 5), str(tmp_path / tag), config,
                fault_plan=fault_plan,
            )
            supervisor.start()
            for u, v in ((0, 7), (1, 9), (3, 12), (5, 16)):
                supervisor.submit_insert(u, v)
            result = supervisor.finish()
            return result, supervisor.trace_result()

        run, trace = _run(True, "on", FaultPlan(kill_primary=(2, "recv")))
        assert run.stats["failovers"] == 1
        names = {span.name for span in trace.spans}
        assert {"service.commit", "service.wal_ship",
                "service.failover"} <= names
        counters = run.stats["supervisor_metrics"]["counters"]
        assert counters["service.failovers"] == 1
        assert counters["service.records_committed"] == 2
        validate_chrome_trace(trace.to_chrome_trace())

        plain, plain_trace = _run(
            False, "off", FaultPlan(kill_primary=(2, "recv"))
        )
        assert plain_trace is None
        assert "supervisor_metrics" not in plain.stats
        assert sorted(map(sorted, plain.cover)) == sorted(map(sorted, run.cover))


class TestCliTraceRoundTrip:
    def test_cli_trace_export_round_trip_smoke(self, tmp_path, capsys):
        """detect --trace-out, then `repro trace --chrome` — schema-valid."""
        from repro.cli import main
        from repro.graph.io import write_edge_list

        write_edge_list(ring_of_cliques(4, 5), str(tmp_path / "graph.txt"))
        trace_path = str(tmp_path / "run.trace.json")
        prom_path = str(tmp_path / "run.prom")
        chrome_path = str(tmp_path / "run.chrome.json")
        code = main(
            [
                "detect", str(tmp_path / "graph.txt"),
                "--seed", str(SEED), "-T", str(ITERATIONS),
                "--distributed", "2",
                "--trace-out", trace_path, "--metrics", prom_path,
            ]
        )
        assert code == 0
        code = main(
            ["trace", trace_path, "--chrome", chrome_path,
             "--prometheus", str(tmp_path / "run2.prom")]
        )
        assert code == 0
        with open(chrome_path, "r", encoding="utf-8") as handle:
            validate_chrome_trace(json.load(handle))
        with open(prom_path, "r", encoding="utf-8") as handle:
            assert "# TYPE repro_" in handle.read()
        # The summary view of a saved trace mentions the engine phases.
        code = main(["trace", trace_path])
        assert code == 0
        assert "engine.compute" in capsys.readouterr().out
