"""Unit tests for the observability plane (:mod:`repro.obs`).

Covers the metrics registry (counter/gauge/histogram semantics, the
fixed log-scale buckets, snapshot/merge, Prometheus exposition), the
span recorder and :class:`TraceResult` exports (summary table, Chrome
trace, JSON persistence round trip), and the zero-overhead contract:
with tracing off, *nothing* constructs or calls into ``repro.obs`` —
enforced here with a booby-trapped module stub.

Tests named ``*smoke*`` are the CI subset (``-k "obs and smoke"``).
"""

import json
import sys
import types

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    DRIVER,
    MetricsRegistry,
    Obs,
    Span,
    TraceRecorder,
    TraceResult,
    validate_chrome_trace,
)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_semantics_smoke(self):
        reg = MetricsRegistry()
        reg.counter("engine.bytes").inc(10)
        reg.counter("engine.bytes").inc(5)
        reg.gauge("service.queue_depth").set(3)
        reg.gauge("service.queue_depth").set(7)
        reg.histogram("service.fsync_seconds").observe(0.001)
        reg.histogram("service.fsync_seconds").observe(0.004)
        snap = reg.snapshot()
        assert snap["counters"]["engine.bytes"] == 15
        assert snap["gauges"]["service.queue_depth"] == 7
        hist = snap["histograms"]["service.fsync_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.005)
        assert hist["min"] == 0.001 and hist["max"] == 0.004

    def test_histogram_buckets_share_the_fixed_ruler(self):
        # Values spanning sub-ms timings to GB byte counts all land in a
        # bucket; the final slot catches overflow past 2^30.
        from repro.obs.metrics import Histogram

        hist = Histogram("h")
        for value in (1e-7, 0.002, 1.0, 4096, 2.0 ** 29, 2.0 ** 40):
            hist.observe(value)
        assert sum(hist.buckets) == 6
        assert hist.buckets[-1] == 1  # only the 2^40 observation overflows
        assert len(hist.buckets) == len(BUCKET_BOUNDS) + 1

    def test_merge_adds_counters_and_buckets_last_writes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        a.histogram("h").observe(0.5)
        b.histogram("h").observe(8.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7
        assert snap["gauges"]["g"] == 2.0
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["min"] == 0.5 and hist["max"] == 8.0
        assert sum(hist["buckets"].values()) == 2

    def test_merge_accepts_json_round_tripped_bucket_keys(self):
        # Off the control pipe bucket keys are ints; after TraceResult
        # JSON persistence they come back as strings.  Both must fold.
        a = MetricsRegistry()
        a.histogram("h").observe(1.5)
        snapshot = json.loads(json.dumps(a.snapshot()))
        b = MetricsRegistry()
        b.merge(snapshot)
        assert b.histogram("h").count == 1
        assert sum(b.histogram("h").buckets) == 1

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("transport.shm.segment_grows").inc(4)
        reg.gauge("service.coalesce_ratio").set(0.25)
        reg.histogram("service.fsync_seconds").observe(0.002)
        text = reg.to_prometheus()
        assert "# TYPE repro_transport_shm_segment_grows counter" in text
        assert "repro_transport_shm_segment_grows 4" in text
        assert "repro_service_coalesce_ratio 0.25" in text
        assert 'repro_service_fsync_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_service_fsync_seconds_count 1" in text


# ----------------------------------------------------------------------
# Trace recorder + TraceResult
# ----------------------------------------------------------------------
def _make_obs():
    """An Obs holding two engine spans and one metric, for export tests."""
    obs = Obs()
    obs.meta["mode"] = "unit-test"
    obs.trace.record(
        "engine.compute", 1_000, plane="array", worker=0, superstep=2,
        end_ns=4_000,
    )
    obs.trace.record(
        "engine.barrier_wait", 4_000, plane="array", worker=DRIVER,
        superstep=2, end_ns=5_000,
    )
    obs.metrics.counter("transport.shm.segment_grows").inc()
    return obs


def _compute_trace(mode, *workers):
    """A trace of ``engine.compute`` spans: each worker's ``(start, end)``
    pairs, one per superstep."""
    spans = tuple(
        Span("engine.compute", "array", wid, step, start, end - start)
        for wid, intervals in enumerate(workers)
        for step, (start, end) in enumerate(intervals)
    )
    return TraceResult(spans=spans, meta={"mode": mode})


class TestTraceRecorder:
    def test_record_take_merge_round_trip_smoke(self):
        rec = TraceRecorder()
        rec.record("engine.pack", 10, plane="t", worker=1, superstep=0,
                   end_ns=25)
        shipped = rec.take()  # wire form: plain tuples, buffer drained
        assert len(rec) == 0 and shipped == [("engine.pack", "t", 1, 0, 10, 15)]
        driver = TraceRecorder()
        driver.merge(shipped)
        (span,) = driver.snapshot()
        assert isinstance(span, Span)
        assert span.name == "engine.pack" and span.dur_ns == 15
        assert span.phase == "pack"

    def test_bounded_ring_drops_oldest(self):
        rec = TraceRecorder(capacity=4)
        for step in range(10):
            rec.record("s", step, superstep=step, end_ns=step + 1)
        assert len(rec) == 4 and rec.dropped == 6
        assert [s.superstep for s in rec.snapshot()] == [6, 7, 8, 9]


class TestTraceResult:
    def test_summary_and_phase_totals_smoke(self):
        result = _make_obs().result()
        totals = result.phase_totals()
        assert totals["engine.compute"] == pytest.approx(3e-6)
        assert list(totals) == ["engine.compute", "engine.barrier_wait"]
        assert result.workers() == [DRIVER, 0]
        table = result.summary()
        assert "engine.compute" in table and "2 spans" in table

    def test_compute_overlap_full_and_disjoint(self):
        full = _compute_trace(
            "multiprocess", [(0, 100), (200, 260)], [(0, 100), (200, 260)]
        )
        assert full.compute_overlap() == 1.0
        assert "worker compute overlap 100.0%" in full.summary()
        disjoint = _compute_trace(
            "multiprocess", [(0, 100), (300, 400)], [(100, 250), (150, 300)]
        )
        assert disjoint.compute_overlap() == 0.0
        assert "worker compute overlap 0.0%" in disjoint.summary()

    def test_compute_overlap_over_the_shortest_worker(self):
        # Superstep 0: 50 of the shorter 80 together; superstep 1: the
        # 40-long span lies inside the 100-long one.  (50 + 40) / (80 + 40)
        partly = _compute_trace(
            "multiprocess", [(0, 80), (0, 100)], [(30, 130), (30, 70)]
        )
        assert partly.compute_overlap() == pytest.approx(90 / 120)
        # A replayed superstep 0 counts its last run only: 30 of 60.
        replayed = TraceResult(
            spans=partly.spans + (
                Span("engine.compute", "array", 0, 0, 500, 60),
                Span("engine.compute", "array", 1, 0, 530, 60),
            ),
            meta={"mode": "multiprocess"},
        )
        assert replayed.compute_overlap() == pytest.approx((30 + 40) / (60 + 40))

    @pytest.mark.parametrize(
        "trace",
        [
            _compute_trace("multiprocess", [(0, 100), (200, 300)]),
            _compute_trace("in-process", [(0, 100)], [(0, 100)]),
        ],
        ids=["one-worker", "in-process"],
    )
    def test_compute_overlap_needs_concurrent_workers(self, trace):
        assert trace.compute_overlap() is None
        assert "overlap" not in trace.summary()

    def test_chrome_trace_export_validates_smoke(self):
        result = _make_obs().result()
        payload = result.to_chrome_trace()
        validate_chrome_trace(payload)
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"engine.compute", "engine.barrier_wait"} <= names
        # Timeline metadata: a named thread row per worker (driver first).
        threads = [e for e in payload["traceEvents"] if e["ph"] == "M"
                   and e["name"] == "thread_name"]
        assert {t["args"]["name"] for t in threads} == {"driver", "worker-0"}
        # And the whole object survives JSON encoding (what --chrome writes).
        validate_chrome_trace(json.loads(json.dumps(payload)))

    def test_save_load_round_trip_smoke(self, tmp_path):
        result = _make_obs().result({"command": "unit"})
        path = str(tmp_path / "run.trace.json")
        result.save(path)
        loaded = TraceResult.load(path)
        assert loaded.spans == result.spans
        assert loaded.meta["mode"] == "unit-test"
        assert loaded.meta["command"] == "unit"
        assert loaded.to_prometheus() == result.to_prometheus()
        validate_chrome_trace(loaded.to_chrome_trace())

    def test_load_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version 1"):
            TraceResult.load(str(path))

    def test_validate_chrome_trace_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError, match="field 'ph'"):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError, match="missing 'dur'"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0}
                ]}
            )
        with pytest.raises(ValueError, match="negative"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 0, "tid": 0,
                     "ts": 1.0, "dur": -2.0}
                ]}
            )


# ----------------------------------------------------------------------
# The zero-overhead contract (satellite: disabled-path stub test)
# ----------------------------------------------------------------------
class TestDisabledPathZeroOverhead:
    def test_untraced_run_never_calls_into_obs_smoke(self, monkeypatch):
        """With trace off, no engine/service path touches repro.obs.

        The module is swapped for a booby trap: any call to any of its
        entry points records itself and fails the test.  Attribute
        *access* alone is allowed (a gated ``from repro.obs import Obs``
        would already be a contract violation and trips the trap the
        moment the import body runs — the stub has no real classes).

        This is the dynamic half of the contract; the static half is
        lint rule RPL002 (``repro lint``), which rejects unguarded
        module-level ``repro.obs`` imports before they ever run.
        """
        calls = []

        def _trap(name):
            def raiser(*args, **kwargs):
                calls.append(name)
                raise AssertionError(
                    f"repro.obs.{name} called on the disabled path"
                )
            return raiser

        stub = types.ModuleType("repro.obs")
        for name in (
            "Obs", "MetricsRegistry", "TraceRecorder", "TraceResult",
            "Span", "validate_chrome_trace",
        ):
            setattr(stub, name, _trap(name))
        for key in ("repro.obs", "repro.obs.metrics", "repro.obs.trace"):
            monkeypatch.setitem(sys.modules, key, stub)

        from repro.api import AlgoConfig, ExecutionConfig
        from repro.api.run import detect, run_distributed
        from repro.graph.generators import ring_of_cliques

        graph = ring_of_cliques(3, 5)
        algo = AlgoConfig(seed=3, iterations=8)
        local = detect(graph, algo, ExecutionConfig())
        dist = run_distributed(graph, algo, ExecutionConfig(num_workers=2))
        assert dist.comm_stats.obs is None
        assert local.trace is None and dist.trace is None

        from repro.service import CommunityService

        service = CommunityService(graph, seed=3, iterations=8, batch_size=2)
        service.start()
        service.submit_insert(0, 7)
        service.submit_insert(1, 9)
        service.flush()
        service.refresh()
        service.communities_of(0)
        assert service.obs is None
        assert service.trace_result() is None
        assert "metrics" not in service.stats()
        service.close()

        assert calls == []


# ----------------------------------------------------------------------
# Satellite: stats objects as benchmark-record dicts
# ----------------------------------------------------------------------
class TestStatsAsDict:
    def test_superstep_stats_as_dict(self):
        from repro.distributed.metrics import SuperstepStats

        stats = SuperstepStats(
            superstep=3, messages=10, remote_messages=4, bytes=100,
            remote_bytes=40,
        )
        assert stats.as_dict() == {
            "superstep": 3, "messages": 10, "remote_messages": 4,
            "bytes": 100, "remote_bytes": 40,
        }

    def test_comm_stats_as_dict_splats_into_records_smoke(self):
        from repro.distributed.metrics import (
            CommStats, RecoveryStats, SuperstepStats,
        )

        stats = CommStats(recovery=RecoveryStats(checkpoints_taken=2))
        stats.record(SuperstepStats(0, messages=5, bytes=50))
        stats.record(SuperstepStats(1, messages=7, remote_messages=2,
                                    bytes=70, remote_bytes=20))
        record = {"workers": 2, **stats.as_dict()}
        assert record["supersteps"] == 2
        assert record["messages"] == 12 and record["remote_messages"] == 2
        assert record["bytes"] == 120 and record["remote_bytes"] == 20
        assert record["recovery"]["checkpoints_taken"] == 2
        assert "per_superstep" not in record
        full = stats.as_dict(per_superstep=True)
        assert [s["superstep"] for s in full["per_superstep"]] == [0, 1]
        json.dumps(full)  # benchmark records must be JSON-serialisable
