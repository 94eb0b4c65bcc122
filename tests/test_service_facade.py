"""Tests for the CommunityService facade: lifecycle, ingest, staleness."""

import numpy as np
import pytest

from repro.api.config import AlgoConfig, ExecutionConfig
from repro.core.detector import RSLPADetector
from repro.core.labels_array import ArrayLabelState
from repro.graph.edits import EditBatch
from repro.service import CommunityService, ServicePlanConfig
from repro.workloads.dynamic import EditStream

ITERATIONS = 40


def make_service(graph, **overrides):
    overrides.setdefault("seed", 3)
    overrides.setdefault("iterations", ITERATIONS)
    overrides.setdefault("batch_size", 4)
    return CommunityService(graph, **overrides)


def state_matrices(detector) -> ArrayLabelState:
    state = detector.array_state
    if state is None:
        state = ArrayLabelState.from_label_state(detector.label_state)
    return state


class TestLifecycle:
    def test_start_fits_and_extracts(self, cliques_ring):
        service = make_service(cliques_ring).start()
        assert service.stats()["num_communities"] == 5
        assert service.extractions == 1

    def test_queries_before_start_rejected(self, cliques_ring):
        service = make_service(cliques_ring)
        with pytest.raises(RuntimeError, match="not started"):
            service.communities_of(0)
        with pytest.raises(RuntimeError, match="not started"):
            service.submit_insert(0, 10)

    def test_double_start_rejected(self, cliques_ring):
        service = make_service(cliques_ring).start()
        with pytest.raises(RuntimeError, match="already started"):
            service.start()

    def test_caller_graph_not_mutated(self, cliques_ring):
        edges_before = set(cliques_ring.edges())
        service = make_service(cliques_ring, batch_size=1).start()
        service.submit_insert(0, 10)
        assert set(cliques_ring.edges()) == edges_before

    def test_distributed_start_matches_local(self, cliques_ring):
        local = make_service(cliques_ring).start()
        dist = make_service(
            cliques_ring, execution=ExecutionConfig(num_workers=3)
        ).start()
        assert dist.detector.comm_stats is not None
        assert local.cover() == dist.cover()
        assert np.array_equal(
            state_matrices(local.detector).labels,
            state_matrices(dist.detector).labels,
        )

    def test_start_takes_no_argument(self, cliques_ring):
        """Where the fit runs is said once, by ``config.execution``."""
        service = make_service(cliques_ring)
        with pytest.raises(TypeError):
            service.start(num_workers=3)
        service.start()
        assert service.detector.comm_stats is None  # a local fit
        assert service.extractions == 1

    def test_config_object_and_overrides_compose(self, cliques_ring):
        config = ServicePlanConfig(
            algo=AlgoConfig(seed=3, iterations=ITERATIONS), batch_size=9
        )
        service = CommunityService(
            cliques_ring, config, staleness_batches=1, backend="reference"
        )
        assert service.config.batch_size == 9
        assert service.config.staleness_batches == 1
        assert service.config.algo == AlgoConfig(seed=3, iterations=ITERATIONS)
        assert service.config.execution == ExecutionConfig(backend="reference")
        assert service.detector.algo == service.config.algo
        assert service.detector.execution == service.config.execution

    def test_perfbench_keywords_read_back(self, cliques_ring):
        service = CommunityService(
            cliques_ring, seed=3, iterations=ITERATIONS, backend="fast",
            staleness_batches=1,
        )
        config = service.config
        assert isinstance(config, ServicePlanConfig)
        assert (config.seed, config.iterations, config.backend) == (
            3, ITERATIONS, "fast",
        )
        assert config.tau_step == 0.001
        assert config.match_threshold == 0.3
        assert config.drift_tolerance == 0.1
        assert config.staleness_batches == 1

    @pytest.mark.parametrize(
        "keyword, value",
        [("replicas", 2), ("heartbeat_interval", 0.5), ("max_failovers", 1),
         ("service_transport", "tcp")],
    )
    def test_replication_keywords_rejected(
        self, cliques_ring, tmp_path, keyword, value
    ):
        with pytest.raises(TypeError, match=keyword):
            CommunityService(cliques_ring, **{keyword: value})
        with pytest.raises(TypeError, match=keyword):
            CommunityService.recover(str(tmp_path), **{keyword: value})


class TestIngest:
    def test_submit_flushes_full_windows(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=2).start()
        assert service.submit_insert(0, 10) is None
        report = service.submit_insert(1, 11)
        assert report is not None
        assert report.batch_size == 2
        assert service.batches_applied == 1
        assert service.graph.has_edge(0, 10)

    def test_cancelling_edits_never_reach_detector(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=4).start()
        service.submit_insert(0, 10)
        service.submit_delete(0, 10)
        assert service.flush() is None
        assert service.batches_applied == 0

    def test_flush_on_demand(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=100).start()
        service.submit_insert(0, 10)
        report = service.flush()
        assert report is not None and report.batch_size == 1

    def test_apply_direct_batch(self, cliques_ring):
        service = make_service(cliques_ring).start()
        report = service.apply(EditBatch.build(insertions=[(0, 10)]))
        assert report.num_inserted == 1
        assert service.edits_applied == 1

    def test_apply_flushes_pending_first(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=100).start()
        service.submit_insert(0, 10)
        service.apply(EditBatch.build(deletions=[(0, 10)]))
        assert service.batches_applied == 2
        assert not service.graph.has_edge(0, 10)

    def test_strict_edits_propagate_validation_error(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=1).start()
        with pytest.raises(ValueError, match="already present"):
            service.submit_insert(0, 1)  # clique edge already exists

    def test_queue_never_holds_a_full_window(self, cliques_ring):
        """The submit that fills a window applies it before returning."""
        service = make_service(cliques_ring, batch_size=3).start()
        reports = []
        for v in range(10, 17):
            reports.append(service.submit_insert(0, v))
            assert service.queue.pending < 3
        assert [r is not None for r in reports] == [
            False, False, True, False, False, True, False,
        ]
        assert service.batches_applied == 2
        assert service.stats()["pending_edits"] == 1

    @pytest.mark.parametrize(
        "batch, error",
        [
            (EditBatch.build(insertions=[(0, 1)]), "already present"),
            (EditBatch.build(deletions=[(0, 10)]), "not present"),
        ],
        ids=["present-insertion", "absent-deletion"],
    )
    def test_invalid_window_never_reaches_the_wal(
        self, cliques_ring, tmp_path, batch, error
    ):
        """Every window is validated before its WAL append, so a no-op
        edit is refused whole and leaves no record to replay."""
        service = make_service(
            cliques_ring, checkpoint_dir=str(tmp_path), checkpoint_every=0
        ).start()
        service.apply(EditBatch.build(insertions=[(0, 12)]))
        with pytest.raises(ValueError, match=error):
            service.apply(batch)
        assert service.batches_applied == 1
        assert service.store.wal_records() == 1
        recovered = CommunityService.recover(str(tmp_path))
        assert recovered.batches_applied == 1
        assert recovered.cover() == service.cover()
        service.close()
        recovered.close()

    def test_ingest_equivalent_to_plain_detector(self, cliques_ring):
        """Feeding whole stream batches through the service == detector.update."""
        service = make_service(cliques_ring, batch_size=4).start()
        detector = RSLPADetector(
            cliques_ring, seed=3, iterations=ITERATIONS
        ).fit()
        stream = EditStream(cliques_ring, batch_size=4, seed=11)
        for batch in stream.take(5):
            service.apply(batch)
            detector.update(batch)
        assert np.array_equal(
            state_matrices(service.detector).labels,
            state_matrices(detector).labels,
        )
        assert service.cover() == detector.communities()


class TestStalenessPolicy:
    def test_queries_do_not_extract_until_k_batches(self, cliques_ring):
        service = make_service(
            cliques_ring, batch_size=1, staleness_batches=3
        ).start()
        service.submit_insert(0, 10)
        service.submit_insert(0, 11)
        for _ in range(5):
            service.communities_of(0)
        assert service.extractions == 1  # still the start() extraction
        service.submit_insert(0, 12)     # third batch reaches K
        service.communities_of(0)
        assert service.extractions == 2
        service.communities_of(0)        # fresh again: no further extraction
        assert service.extractions == 2

    def test_staleness_zero_means_always_fresh(self, cliques_ring):
        service = make_service(
            cliques_ring, batch_size=1, staleness_batches=0
        ).start()
        service.submit_insert(0, 10)
        service.communities_of(0)
        assert service.extractions == 2
        service.communities_of(0)  # nothing new applied: stays cached
        assert service.extractions == 2

    def test_refresh_on_demand(self, cliques_ring):
        service = make_service(
            cliques_ring, batch_size=1, staleness_batches=100
        ).start()
        service.submit_insert(0, 10)
        service.refresh()
        assert service.extractions == 2
        assert service.batches_since_extract == 0

    def test_stable_ids_survive_refreshes(self, cliques_ring):
        service = make_service(
            cliques_ring, batch_size=1, staleness_batches=1
        ).start()
        before = service.communities_of(0)
        service.submit_insert(0, 10)   # one batch: next query re-extracts
        after = service.communities_of(0)
        assert before == after

    def test_members_and_overlap_queries(self, cliques_ring):
        service = make_service(cliques_ring).start()
        cids = service.communities_of(0)
        assert len(cids) >= 1
        members = service.members(cids[0])
        assert 0 in members
        assert service.overlap(0, 1) == cids
        assert service.queries_served == 3


class TestStats:
    def test_stats_shape(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=2).start()
        service.submit_insert(0, 10)
        stats = service.stats()
        assert stats["started"] is True
        assert stats["pending_edits"] == 1
        assert stats["batches_applied"] == 0
        assert stats["num_communities"] == 5
        assert "checkpoints" not in stats  # no durability configured

    def test_stats_json_serialisable(self, cliques_ring):
        import json

        service = make_service(cliques_ring).start()
        json.dumps(service.stats())


class TestDegradation:
    """Graceful degradation: stale serving, bounded ingest waits."""

    def break_extraction(self, service, monkeypatch):
        def boom():
            raise RuntimeError("fit engine mid-recovery")

        monkeypatch.setattr(service.detector, "communities", boom)

    def test_lazy_refresh_failure_serves_stale_index(
        self, cliques_ring, monkeypatch, caplog
    ):
        service = make_service(
            cliques_ring, batch_size=1, staleness_batches=1
        ).start()
        fresh = service.communities_of(0)
        service.submit_insert(0, 10)  # one batch: next query wants a refresh
        self.break_extraction(service, monkeypatch)
        with caplog.at_level("WARNING", logger="repro.service.facade"):
            stale = service.communities_of(0)
        assert stale == fresh  # last published index still answers
        assert service.stale_serves == 1
        assert service.refresh_failures == 1
        assert any(
            "lazy re-extraction failed" in record.message
            for record in caplog.records
        )
        stats = service.stats()
        assert stats["stale_serves"] == 1
        assert stats["refresh_failures"] == 1

    def test_explicit_refresh_still_raises(self, cliques_ring, monkeypatch):
        service = make_service(cliques_ring).start()
        self.break_extraction(service, monkeypatch)
        with pytest.raises(RuntimeError, match="mid-recovery"):
            service.refresh()

    def test_recovered_extraction_resumes_freshness(
        self, cliques_ring, monkeypatch
    ):
        service = make_service(
            cliques_ring, batch_size=1, staleness_batches=1
        ).start()
        service.submit_insert(0, 10)
        self.break_extraction(service, monkeypatch)
        service.communities_of(0)            # degraded serve
        monkeypatch.undo()                   # the engine "recovers"
        service.communities_of(0)
        assert service.stale_serves == 1     # no further degradation
        assert service.batches_since_extract == 0

    def test_stats_report_coalescing(self, cliques_ring):
        service = make_service(cliques_ring, batch_size=4).start()
        service.submit_insert(0, 10)
        service.submit_insert(10, 0)    # duplicate
        service.submit_insert(0, 11)
        service.submit_delete(0, 11)    # cancels the pending insert
        stats = service.stats()
        assert (stats["queue_duplicates"], stats["queue_cancelled_pairs"],
                stats["pending_edits"]) == (1, 1, 1)
        assert not any("backpressure" in k or "retry" in k for k in stats)

    @pytest.mark.parametrize(
        "method, args",
        [("submit", ("+", 0, 10)), ("submit_insert", (0, 10)),
         ("submit_delete", (0, 1))],
    )
    def test_submit_takes_no_timeout(self, cliques_ring, method, args):
        """Ingest never waits: a submit applies or queues, then returns."""
        service = make_service(cliques_ring, batch_size=1).start()
        with pytest.raises(TypeError):
            getattr(service, method)(*args, timeout=0.05)
        assert service.queue.pending == 0
        assert getattr(service, method)(*args) is not None
        assert service.batches_applied == 1

    def test_stats_have_no_recovery_section_in_process(self, cliques_ring):
        service = make_service(cliques_ring).start()
        assert "recovery" not in service.stats()


class TestArrayGraphHotPaths:
    """Once started, the service keeps its live graph as the repair's array
    adjacency: no ingest, refresh, checkpoint, stats call or recovery
    snapshots a Graph or builds one."""

    @pytest.mark.parametrize("layout", ["contiguous", "sparse"])
    def test_stream_never_builds_a_graph(
        self, cliques_ring, layout, tmp_path, monkeypatch
    ):
        from repro.graph.adjacency import Graph
        from repro.graph.csr import CSRGraph

        vid = (lambda v: v) if layout == "contiguous" else (lambda v: 3 * v - 41)
        graph = Graph.from_edges(
            ((vid(u), vid(v)) for u, v in cliques_ring.edges()),
            vertices=map(vid, cliques_ring.vertices()),
        )
        batches = EditStream(graph, batch_size=6, seed=5).take(12)
        # Births above the largest id; on sparse ids also a negative id
        # below every other and a gap id below the largest.
        births = [(30, 2), (31, 9)] if layout == "contiguous" else [
            (-77, vid(2)), (vid(5) + 1, vid(9))
        ]
        births = EditBatch.build(insertions=births)
        batches[3] = batches[3].merged_with(births)
        service = make_service(
            graph, staleness_batches=1, checkpoint_every=4,
            checkpoint_dir=str(tmp_path / "main"),
        ).start()

        def refuse(*args, **kwargs):
            raise AssertionError("a service path built or snapshotted a Graph")

        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(refuse))
        monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
        for i, batch in enumerate(batches):
            service.apply(batch)
            service.communities_of(vid(i))
            service.stats()
            service.plan()
        assert service.extractions == 13 and service.refresh_failures == 0
        assert service.store.checkpoint_epochs() == [8, 12]
        recovered = CommunityService.recover(str(tmp_path / "main"))
        assert recovered.batches_applied == 12
        assert recovered.index.cover.communities == service.index.cover.communities
        monkeypatch.undo()
        for name in ("labels", "srcs", "poss", "epochs", "alive", "ids"):
            assert np.array_equal(
                getattr(recovered.detector.array_state, name),
                getattr(service.detector.array_state, name),
            ), name
        assert recovered.graph == service.graph
        reference = make_service(graph, backend="reference").start()
        for batch in batches:
            reference.apply(batch)
        assert service.graph == reference.graph
        assert reference.cover().communities == service.index.cover.communities

    def test_strict_apply_validates_the_batch_once(self, cliques_ring, monkeypatch):
        """The service validates a batch before its WAL append; the repair
        reuses that check instead of searching the adjacency again, and
        an invalid batch still fails before anything is logged."""
        from repro.graph.csr import EdgeKeys

        service = make_service(cliques_ring).start()
        calls = []
        contains = EdgeKeys.contains

        def counted(self, pairs):
            calls.append(len(pairs))
            return contains(self, pairs)

        monkeypatch.setattr(EdgeKeys, "contains", counted)
        service.apply(EditBatch.build(insertions=[(0, 12)], deletions=[(0, 1)]))
        assert calls == [1, 1]  # the insertions, then the deletions
        assert service.graph.has_edge(0, 12) and not service.graph.has_edge(0, 1)
        with pytest.raises(ValueError, match="already present"):
            service.apply(EditBatch.build(insertions=[(0, 12)]))
        assert service.batches_applied == 1
