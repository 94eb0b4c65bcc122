"""Integration tests for the observability plane across engines + service.

The acceptance bar: a fault-injected multiprocess run (one SIGKILL,
fault_tolerance on) exports a valid Chrome trace covering every
superstep phase plus checkpoint/restore/respawn, attributed per worker
— and tracing never perturbs results (covers and per-superstep
CommStats bit-identical with it on or off).

Tests named ``*smoke*`` are the CI subset (``-k "obs and smoke"``).
"""

import json
import os
from functools import partial

import pytest

from repro.api import AlgoConfig, ExecutionConfig
from repro.api.run import run_distributed
from repro.distributed.engine_array import gather_columns
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
        ids, columns = gather_columns(shards, engine.collect())
    return dict(zip(ids.tolist(), columns["memory"].T.tolist())), stats


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
        assert snap["counters"]["transport.shm.segment_grows"] > 0
        # The replayed superstep was routed, and counted, twice.
        assert snap["counters"]["engine.messages"] > stats.total_messages

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

    def test_traced_multiprocess_fit_attributes_result_assembly(self):
        """A traced multiprocess run_distributed_rslpa records the driver's
        gather of the workers' columns as one ``cluster.gather`` span."""
        from repro.distributed.cluster import run_distributed_rslpa

        traced, stats = run_distributed_rslpa(
            ring_of_cliques(3, 5), seed=SEED, iterations=ITERATIONS,
            config=ExecutionConfig(num_workers=2, multiprocess=True, trace=True),
        )
        totals = stats.obs.result().phase_totals()
        assert SUPERSTEP_PHASES <= set(totals)
        assert "cluster.gather" in totals
        meta = stats.obs.result().meta
        assert meta["num_workers"] == 2
        assert meta["cpus"] == len(os.sched_getaffinity(0))
        gathers = [s for s in stats.obs.result().spans if s.name == "cluster.gather"]
        assert [s.worker for s in gathers] == [DRIVER]
        # The multiprocess engine mirrors communication into the registry
        # as the in-process one does.
        counters = stats.obs.result().metrics["counters"]
        assert counters["engine.messages"] == stats.total_messages
        assert counters["engine.remote_messages"] == stats.total_remote_messages
        assert counters["engine.bytes"] == stats.total_bytes
        assert counters["engine.remote_bytes"] == stats.total_remote_bytes
        assert "# TYPE repro_engine_messages counter" in (
            stats.obs.result().to_prometheus()
        )
        plain, _ = run_distributed_rslpa(
            ring_of_cliques(3, 5), seed=SEED, iterations=ITERATIONS,
            config=ExecutionConfig(num_workers=2, multiprocess=True),
        )
        assert (traced.labels == plain.labels).all()

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
        assert "cluster.gather" in result.phase_totals()  # result assembly
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
        assert {"service.apply", "service.extract", "service.checkpoint"} <= names

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
        # One timed checkpoint per batch (checkpoint_every=1) plus start()'s
        # baseline, each a span and a histogram sample.
        checkpoints = 1 + stats["batches_applied"]
        assert (
            metrics["histograms"]["service.checkpoint_write_seconds"]["count"]
            == checkpoints
        )
        assert [s.name for s in result.spans].count("service.checkpoint") == checkpoints
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

    def test_checkpoint_phases_nest_inside_service_checkpoint_smoke(
        self, tmp_path
    ):
        """A traced checkpoint splits into its write (narrowing, members,
        fsync) and its WAL rotation (scan, rewrite, directory fsync): one
        of each inside every ``service.checkpoint``, in that order, and
        together no longer than it."""
        _cover, stats, result = self._drive(True, tmp_path, "on")
        spans = result.spans
        checkpoints = [s for s in spans if s.name == "service.checkpoint"]
        assert len(checkpoints) == 1 + stats["batches_applied"]
        phases = ("service.checkpoint.write", "service.checkpoint.rotate")
        for phase in phases:
            assert [s.name for s in spans].count(phase) == len(checkpoints)
        for outer in checkpoints:
            write, rotate = (
                [s for s in spans if s.name == phase
                 and outer.ts_ns <= s.ts_ns
                 and s.ts_ns + s.dur_ns <= outer.ts_ns + outer.dur_ns]
                for phase in phases
            )
            assert len(write) == len(rotate) == 1
            write, rotate = write[0], rotate[0]
            assert write.superstep == rotate.superstep == outer.superstep
            assert write.ts_ns + write.dur_ns <= rotate.ts_ns
            assert write.dur_ns + rotate.dur_ns <= outer.dur_ns

    def test_repair_phases_inside_service_apply_smoke(self, tmp_path):
        """A traced service's repair records its four phases, once per
        batch and inside that batch's ``service.apply`` span, and the
        first repair records the record build."""
        from repro.api.config import ServicePlanConfig
        from repro.service import CommunityService

        service = CommunityService(
            ring_of_cliques(4, 5),
            config=ServicePlanConfig(
                algo=AlgoConfig(seed=SEED, iterations=ITERATIONS),
                execution=ExecutionConfig(trace=True),
                batch_size=2,
            ),
        ).start()
        for u, v in ((0, 7), (1, 9), (3, 12), (5, 16)):
            service.submit_insert(u, v)
        spans = service.trace_result().spans
        service.close()
        applies = [s for s in spans if s.name == "service.apply"]
        assert len(applies) == 2
        phases = ("classify", "detach", "drain", "register")
        for phase in phases:
            inner = [s for s in spans if s.name == f"core.incremental_fast.{phase}"]
            assert len(inner) == len(applies), phase
            for span, outer in zip(inner, applies):
                assert outer.ts_ns <= span.ts_ns
                assert span.ts_ns + span.dur_ns <= outer.ts_ns + outer.dur_ns
        builds = [s for s in spans if s.name == "core.labels_array.build_records"]
        assert len(builds) == 1
        assert applies[0].ts_ns <= builds[0].ts_ns < applies[1].ts_ns

    def test_refresh_phases_nest_inside_service_extract_smoke(self, tmp_path):
        """A traced refresh explains itself: inside each ``service.extract``
        sit the extraction and the index update, the update split into the
        stable-id match and the map build; their self times fit inside the
        refresh, and the trace survives a save/load round trip.  An
        extraction that runs (not the detector's cached result) splits
        into its stages in order, the forest inside the τ1 sweep, and
        counts its edges and the edges it counted afresh."""
        from repro.api.config import ServicePlanConfig
        from repro.obs import TraceResult
        from repro.service import CommunityService

        service = CommunityService(
            ring_of_cliques(4, 5),
            config=ServicePlanConfig(
                algo=AlgoConfig(seed=SEED, iterations=ITERATIONS),
                execution=ExecutionConfig(trace=True),
                batch_size=2,
                staleness_batches=1,
            ),
        ).start()
        for u, v in ((0, 7), (1, 9), (3, 12), (5, 16)):
            service.submit_insert(u, v)
        service.communities_of(0)  # K=1: a lazy refresh
        service.refresh()
        path = tmp_path / "refresh.trace.json"
        service.trace_result().save(str(path))
        extractions = service.extractions
        service.close()
        loaded = TraceResult.load(str(path))
        validate_chrome_trace(loaded.to_chrome_trace())

        def inside(outer, name):
            found = [
                s for s in loaded.spans
                if s.name == name and outer.ts_ns <= s.ts_ns
                and s.ts_ns + s.dur_ns <= outer.ts_ns + outer.dur_ns
            ]
            assert len(found) == 1, name
            return found[0]

        def end(span):
            return span.ts_ns + span.dur_ns

        stages = (
            "core.postprocess.edge_weights",
            "core.postprocess.sweep_tau1",
            "core.postprocess.strong_attach",
        )
        extracts = [s for s in loaded.spans if s.name == "service.extract"]
        assert len(extracts) == extractions == 3
        ran = 0
        for extract in extracts:
            cover = inside(extract, "core.postprocess.extract_communities")
            update = inside(extract, "service.index.update")
            match = inside(update, "core.tracking.match")
            build = inside(update, "service.index.build")
            assert cover.ts_ns + cover.dur_ns <= update.ts_ns
            assert match.ts_ns + match.dur_ns <= build.ts_ns
            update_self = update.dur_ns - match.dur_ns - build.dur_ns
            assert update_self >= 0
            selves = cover.dur_ns + update_self + match.dur_ns + build.dur_ns
            assert selves <= extract.dur_ns
            if any(s.name in stages and cover.ts_ns <= s.ts_ns and end(s) <= end(cover)
                   for s in loaded.spans):
                weights, sweep, attach = (inside(cover, name) for name in stages)
                forest = inside(sweep, "core.postprocess.forest")
                assert end(weights) <= sweep.ts_ns <= forest.ts_ns
                assert end(forest) <= end(sweep) <= attach.ts_ns
                ran += 1
        # start() and the lazy refresh extract; the explicit refresh after
        # it, with no batch in between, reuses the detector's result.
        assert ran == 2
        counters = loaded.metrics["counters"]
        edges = counters["core.postprocess.edges"]
        assert 0 < counters["core.postprocess.recounted_edges"] <= edges


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
