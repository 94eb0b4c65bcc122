"""Tests for the high-level RSLPADetector API."""

import pytest

from repro.core.detector import RSLPADetector, detect_communities
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.workloads.dynamic import random_edit_batch


class TestLifecycle:
    def test_unfitted_raises(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=0, iterations=10)
        with pytest.raises(RuntimeError, match="not fitted"):
            detector.communities()
        with pytest.raises(RuntimeError):
            detector.update(EditBatch.empty())

    def test_fit_returns_self(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=0, iterations=10)
        assert detector.fit() is detector
        assert detector.is_fitted

    def test_owns_private_graph_copy(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=0, iterations=10).fit()
        detector.update(EditBatch.build(deletions=[(0, 1)]))
        assert cliques_ring.has_edge(0, 1)  # caller graph untouched
        assert not detector.graph.has_edge(0, 1)

    def test_invalid_engine_rejected(self, cliques_ring):
        # engine= is not a detector parameter, and everything after
        # iterations is keyword-only, so a positional value cannot land
        # on tau_step either.
        with pytest.raises(TypeError, match="engine"):
            RSLPADetector(cliques_ring, engine="spark")
        with pytest.raises(TypeError, match="positional"):
            RSLPADetector(cliques_ring, 3, 25, "fast")

    def test_invalid_backend_rejected(self, cliques_ring):
        with pytest.raises(ValueError, match="backend"):
            RSLPADetector(cliques_ring, backend="spark")

    def test_fast_backend_handles_arbitrary_ids(self):
        g = Graph.from_edges([(10, 20), (20, 30), (10, 30), (-4, 10)])
        fast = RSLPADetector(g, backend="fast", iterations=20).fit()
        ref = RSLPADetector(g, backend="reference", iterations=20).fit()
        assert fast.array_state is not None
        assert fast.label_state.labels == ref.label_state.labels
        assert fast.label_state.srcs == ref.label_state.srcs
        assert fast.label_state.receivers == ref.label_state.receivers

    def test_reference_backend_handles_arbitrary_ids(self):
        g = Graph.from_edges([(10, 20), (20, 30), (10, 30)])
        detector = RSLPADetector(g, backend="reference", iterations=20).fit()
        assert detector.label_state.num_iterations == 20


#: The graph from the sentinel bug report: vertex -1 in a triangle.
SENTINEL_EDGES = [(-1, 0), (0, 1), (1, -1), (1, 2), (2, 3), (3, 1)]


@pytest.mark.parametrize(
    "path",
    ["fit-fast", "fit-reference", "update-fast", "update-reference", "distributed"],
)
def test_vertex_id_minus_one_is_refused(path):
    """Label state stores NO_SOURCE (-1) for a slot without a source, so
    vertex -1 is refused with a ValueError before anything mutates."""
    from repro.distributed import run_distributed_rslpa

    if path == "distributed":
        with pytest.raises(ValueError, match="NO_SOURCE"):
            run_distributed_rslpa(
                Graph.from_edges(SENTINEL_EDGES), seed=1, iterations=20,
                num_workers=2,
            )
        return
    kind, backend = path.split("-")
    if kind == "fit":
        detector = RSLPADetector(
            Graph.from_edges(SENTINEL_EDGES), seed=1, iterations=20,
            backend=backend,
        )
        with pytest.raises(ValueError, match="NO_SOURCE"):
            detector.fit()
        assert not detector.is_fitted
        return
    detector = RSLPADetector(
        Graph.from_edges(e for e in SENTINEL_EDGES if -1 not in e),
        seed=1,
        iterations=20,
        backend=backend,
    ).fit()
    graph_before = detector.graph.copy()
    labels_before = detector.label_state.labels
    with pytest.raises(ValueError, match="NO_SOURCE"):
        detector.update(EditBatch.build(insertions=[(-1, 0), (0, 2)]))
    assert detector.graph == graph_before
    assert detector.label_state.labels == labels_before
    detector.label_state.validate(detector.graph)


class TestEngineEquivalence:
    def test_fast_and_reference_agree(self, cliques_ring):
        fast = RSLPADetector(
            cliques_ring, seed=3, iterations=25, backend="fast"
        ).fit()
        ref = RSLPADetector(
            cliques_ring, seed=3, iterations=25, backend="reference"
        ).fit()
        assert fast.label_state.labels == ref.label_state.labels
        assert fast.communities() == ref.communities()

    def test_auto_picks_fast_for_contiguous(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=3, iterations=25).fit()
        explicit = RSLPADetector(
            cliques_ring, seed=3, iterations=25, backend="fast"
        ).fit()
        assert detector.label_state.labels == explicit.label_state.labels


class TestDetection:
    def test_clique_ring_communities(self, cliques_ring):
        cover = detect_communities(cliques_ring, seed=1, iterations=60, tau_step=0.005)
        found = sorted(sorted(c) for c in cover)
        assert found == [sorted(range(c * 6, (c + 1) * 6)) for c in range(5)]

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_empty_graph_gives_empty_cover(self, backend):
        """No vertices, from the start or after removing every one: the
        extraction returns an empty cover, as for a graph without edges."""
        assert len(detect_communities(Graph(), iterations=5, backend=backend)) == 0
        detector = RSLPADetector(
            ring_of_cliques(3, 4), seed=1, iterations=10, backend=backend
        ).fit()
        for v in list(detector.graph.vertices()):
            detector.remove_vertex(v)
        result = detector.postprocess()
        assert len(detector.communities()) == 0
        assert (result.tau1, result.tau2, result.entropy) == (0.0, 0.0, 0.0)
        assert result.entropy_curve == []

    def test_postprocess_cached_until_update(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=1, iterations=30).fit()
        first = detector.postprocess()
        assert detector.postprocess() is first
        detector.update(EditBatch.build(deletions=[(0, 1)]))
        assert detector.postprocess() is not first


class TestDynamicMaintenance:
    def test_update_keeps_state_valid(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=2, iterations=30).fit()
        for step in range(4):
            batch = random_edit_batch(detector.graph, 6, seed=step)
            report = detector.update(batch)
            assert report.batch_size == 6
            detector.label_state.validate(detector.graph)

    def test_update_many(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=2, iterations=20).fit()
        batches = [
            EditBatch.build(deletions=[(0, 1)]),
            EditBatch.build(insertions=[(0, 1)]),
        ]
        reports = detector.update_many(batches)
        assert len(reports) == 2

    def test_remove_vertex_through_detector(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, seed=2, iterations=20).fit()
        detector.remove_vertex(0)
        assert not detector.graph.has_vertex(0)
        detector.label_state.validate(detector.graph)

    def test_communities_track_structure_change(self):
        """Merging two cliques by adding many cross edges merges communities."""
        g = ring_of_cliques(3, 5)
        detector = RSLPADetector(g, seed=4, iterations=80, tau_step=0.005).fit()
        assert len(detector.communities()) == 3
        cross = [
            (u, v)
            for u in range(5)
            for v in range(5, 10)
            if not detector.graph.has_edge(u, v)
        ]
        detector.update(EditBatch.build(insertions=cross))
        cover = detector.communities()
        merged = [c for c in cover if len(c) >= 10]
        assert merged, f"expected a merged community, got sizes {cover.sizes()}"


class TestValidation:
    def test_rejects_bad_iterations(self, cliques_ring):
        with pytest.raises(ValueError):
            RSLPADetector(cliques_ring, iterations=0)

    def test_rejects_bad_seed_type(self, cliques_ring):
        with pytest.raises(TypeError):
            RSLPADetector(cliques_ring, seed="x")

    def test_rejects_bad_batch_type(self, cliques_ring):
        detector = RSLPADetector(cliques_ring, iterations=10).fit()
        with pytest.raises(TypeError):
            detector.update("not a batch")


class TestFromState:
    """Restart path: adopting a saved state continues the lifecycle exactly."""

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_continuation_is_bit_identical(self, cliques_ring, backend):
        original = RSLPADetector(
            cliques_ring, seed=4, iterations=40, backend=backend
        ).fit()
        first = random_edit_batch(original.graph, 6, seed=1)
        original.update(first)

        import io

        from repro.core.serialize import load_state, save_state

        # Deep-copy through the npz round trip so the two detectors diverge
        # only if the adopted lifecycle diverges.
        buffer = io.BytesIO()
        save_state(
            original.array_state
            if backend == "fast"
            else original._corrector.state,
            buffer,
        )
        buffer.seek(0)
        adopted = RSLPADetector.from_state(
            original.graph.copy(),
            load_state(buffer),
            seed=4,
            backend=backend,
            batch_epoch=1,
        )
        second = random_edit_batch(original.graph, 6, seed=2)
        report_a = original.update(second)
        report_b = adopted.update(second)
        assert report_a.touched_labels == report_b.touched_labels
        assert original.communities() == adopted.communities()

    def test_from_state_converts_across_representations(self, cliques_ring):

        fitted = RSLPADetector(
            cliques_ring, seed=4, iterations=30, backend="fast"
        ).fit()
        array_snapshot = fitted.array_state
        adopted = RSLPADetector.from_state(
            cliques_ring, array_snapshot.to_label_state(), seed=4, backend="fast"
        )
        assert adopted.iterations == 30
        assert adopted.communities() == fitted.communities()

    def test_from_state_restores_iterations(self, propagated, cliques_ring):
        from repro.core.incremental import CorrectionPropagator

        detector = RSLPADetector.from_state(
            cliques_ring, propagated.state, seed=11, backend="reference"
        )
        assert detector.is_fitted
        assert detector.iterations == 40
        assert isinstance(detector._corrector, CorrectionPropagator)
