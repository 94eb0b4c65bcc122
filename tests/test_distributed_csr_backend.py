"""CSR worker shards: every graph input, in process and on real processes.

The acceptance oracle for the one shard layout: BSP runs over
:class:`CSRShard` arrays built from a dict-of-sets :class:`Graph` (with
any vertex ids) or from a :class:`CSRGraph` snapshot must be
bit-identical to each other and to the sequential engines, on the
in-process engine and on the true multiprocess backend.
"""

from functools import partial

import pytest

from repro.api import ExecutionConfig, plan_for
from repro.baselines.slpa import SLPA
from repro.core.incremental import CorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import extract_communities
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    run_distributed_postprocess,
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.distributed.engine_array import gather_columns
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.worker import CSRShard, build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner
from repro.workloads.dynamic import random_edit_batch


def sparse_ids(graph, scale=3, offset=7):
    """``graph`` with every id ``v`` mapped to ``scale * v + offset``
    (pick an offset that keeps -1, the NO_SOURCE sentinel, out)."""
    return Graph.from_edges(
        [(scale * u + offset, scale * v + offset) for u, v in graph.edges()],
        vertices=[scale * v + offset for v in graph.vertices()],
    )


class TestShardParity:
    def test_csr_shards_expose_same_neighbour_sequences(self, small_lfr):
        graph = small_lfr.graph
        shards = build_csr_shards(graph, HashPartitioner(4))
        assert sorted(v for s in shards for v in s.vertices) == sorted(
            graph.vertices()
        )
        for shard in shards:
            assert isinstance(shard, CSRShard)
            assert shard.local_edges() == sum(
                graph.degree(v) for v in shard.vertices
            )
            for v in shard.vertices:
                assert shard.neighbors(v).tolist() == sorted(graph.neighbors_view(v))
                assert shard.degree(v) == graph.degree(v)

    def test_csr_shards_accept_prebuilt_snapshot(self, cliques_ring):
        part = ContiguousPartitioner(3, cliques_ring.num_vertices)
        from_graph = build_csr_shards(cliques_ring, part)
        from_snapshot = build_csr_shards(CSRGraph.from_graph(cliques_ring), part)
        for a, b in zip(from_graph, from_snapshot):
            assert a.vertices == b.vertices
            assert a.indices.tolist() == b.indices.tolist()


class TestInProcessEquality:
    """In-process BSP: Graph and CSRGraph inputs agree on an LFR workload."""

    def test_rslpa_identical_on_lfr(self, small_lfr):
        graph = small_lfr.graph
        dict_state, dict_stats = run_distributed_rslpa(
            graph.copy(), seed=7, iterations=20, num_workers=4
        )
        csr_state, csr_stats = run_distributed_rslpa(
            CSRGraph.from_graph(graph), seed=7, iterations=20, num_workers=4
        )
        dict_state = dict_state.to_label_state()
        csr_state = csr_state.to_label_state()
        assert csr_state.labels == dict_state.labels
        assert csr_state.srcs == dict_state.srcs
        assert csr_state.poss == dict_state.poss
        assert csr_state.receivers == dict_state.receivers
        assert csr_stats.total_messages == dict_stats.total_messages

    def test_rslpa_csr_matches_sequential_reference(self, small_lfr):
        graph = small_lfr.graph
        state, _ = run_distributed_rslpa(
            CSRGraph.from_graph(graph), seed=7, iterations=20, num_workers=4
        )
        ref = ReferencePropagator(graph.copy(), seed=7)
        ref.propagate(20)
        assert state.sequences_dict() == ref.state.labels

    def test_slpa_identical_on_lfr(self, small_lfr):
        graph = small_lfr.graph
        dict_mem, _ = run_distributed_slpa(
            graph.copy(), seed=11, iterations=12, num_workers=4
        )
        csr_mem, _ = run_distributed_slpa(
            CSRGraph.from_graph(graph), seed=11, iterations=12, num_workers=4
        )
        assert csr_mem == dict_mem

    def test_results_are_plain_python_ints(self, small_lfr):
        """CSR arrays must not leak numpy scalars into collected state."""
        state, _ = run_distributed_rslpa(
            small_lfr.graph.copy(), seed=7, iterations=5, num_workers=3
        )
        assert all(type(v) is int for v in state.vertices())
        state = state.to_label_state()
        sample = next(iter(state.labels))
        assert all(type(x) is int for x in state.labels[sample])
        assert all(type(x) is int for x in state.srcs[sample])

    def test_invalid_backend_rejected(self, cliques_ring):
        with pytest.raises(ValueError, match="shard_backend"):
            run_distributed_rslpa(
                cliques_ring, config=ExecutionConfig(shard_backend="arrow")
            )

    def test_invalid_backend_rejected_on_csr_input(self, cliques_ring):
        with pytest.raises(ValueError, match="shard_backend"):
            run_distributed_rslpa(
                CSRGraph.from_graph(cliques_ring),
                config=ExecutionConfig(shard_backend="arrow"),
            )


class TestNonContiguousIds:
    """Graphs with gaps in their ids run on CSR shards that keep those ids."""

    @pytest.fixture
    def graph(self, sparse_random):
        return sparse_ids(sparse_random, offset=-32)  # negatives and gaps

    def test_shards_keep_global_ids(self, graph):
        shards = build_csr_shards(graph, HashPartitioner(3))
        assert sorted(v for s in shards for v in s.local_ids.tolist()) == sorted(
            graph.vertices()
        )
        for shard in shards:
            for v in shard.vertices:
                assert shard.neighbors(v).tolist() == sorted(graph.neighbors_view(v))

    def test_rslpa_matches_sequential_reference(self, graph):
        state, _ = run_distributed_rslpa(
            graph.copy(), seed=5, iterations=15, num_workers=3
        )
        ref = ReferencePropagator(graph.copy(), seed=5)
        ref.propagate(15)
        state.validate(graph)
        state = state.to_label_state()
        assert state.labels == ref.state.labels
        assert state.srcs == ref.state.srcs
        assert state.poss == ref.state.poss
        assert state.receivers == ref.state.receivers

    def test_slpa_matches_sequential(self, graph):
        memories, _ = run_distributed_slpa(
            graph.copy(), seed=5, iterations=12, num_workers=3
        )
        ref = SLPA(graph.copy(), seed=5, iterations=12)
        ref.propagate()
        assert memories == ref.memories

    def test_update_matches_sequential_corrector(self, graph):
        seq_prop = ReferencePropagator(graph.copy(), seed=4)
        seq_prop.propagate(15)
        corrector = CorrectionPropagator(seq_prop)
        dist_graph = graph.copy()
        dist_prop = ReferencePropagator(dist_graph, seed=4)
        dist_prop.propagate(15)
        state = ArrayLabelState.from_label_state(dist_prop.state)
        for epoch in range(1, 4):
            batch = random_edit_batch(seq_prop.graph, 6, seed=epoch)
            corrector.apply_batch(batch)
            dist_graph, state, _ = run_distributed_update(
                dist_graph, state, batch, seed=4, batch_epoch=epoch,
                num_workers=3,
            )
            exported = state.to_label_state()
            assert exported.labels == corrector.state.labels, epoch
            assert exported.epochs == corrector.state.epochs
        state.validate(dist_graph)

    def test_postprocess_matches_sequential_extraction(self):
        graph = sparse_ids(ring_of_cliques(4, 6))
        state, _ = run_distributed_rslpa(
            graph.copy(), seed=11, iterations=60, num_workers=3
        )
        cover, _ = run_distributed_postprocess(
            graph, state, num_workers=3, step=0.005
        )
        ref = ReferencePropagator(graph.copy(), seed=11)
        ref.propagate(60)
        assert cover == extract_communities(graph, ref.state.labels, step=0.005).cover

    def test_multiprocess_auto_transport_is_shm_and_bit_identical(self, graph):
        config = ExecutionConfig(num_workers=2, multiprocess=True)
        assert plan_for(graph, config).transport == "shm"
        in_process, stats_i = run_distributed_rslpa(
            graph.copy(), seed=2, iterations=10, num_workers=2
        )
        multiproc, stats_m = run_distributed_rslpa(
            graph.copy(), seed=2, iterations=10, config=config
        )
        assert multiproc.ids.tolist() == in_process.ids.tolist()
        for name in ("labels", "srcs", "poss", "epochs"):
            assert (getattr(multiproc, name) == getattr(in_process, name)).all()
        multiproc.validate(graph)
        ref = ReferencePropagator(graph.copy(), seed=2)
        ref.propagate(10)
        assert multiproc.to_label_state().receivers == ref.state.receivers
        assert stats_m.per_superstep == stats_i.per_superstep


class TestUpdateAtomicity:
    """A rejected update must leave the caller's graph/state untouched."""

    def test_sentinel_batch_fails_before_mutation(self):
        from repro.graph.edits import EditBatch

        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        state, _ = run_distributed_rslpa(graph.copy(), seed=1, iterations=6)
        batch = EditBatch.build(insertions=[(0, 100), (-1, 2)])
        edges_before = set(graph.edges())
        vertices_before = sorted(graph.vertices())
        with pytest.raises(ValueError, match="NO_SOURCE"):
            run_distributed_update(
                graph, state, batch, seed=1,
                config=ExecutionConfig(num_workers=4, backend="fast"),
            )
        assert set(graph.edges()) == edges_before
        assert sorted(graph.vertices()) == vertices_before
        assert not state.has_vertex(100)


class TestMultiprocessEquality:
    """The true-parallelism backend agrees across graph inputs."""

    def _run(self, shards, part, factory):
        with MultiprocessBSPEngine(shards, part, factory) as engine:
            engine.run()
            ids, columns = gather_columns(shards, engine.collect())
        return ids.tolist(), {k: col.tolist() for k, col in columns.items()}

    def test_rslpa_multiprocess_dict_vs_csr(self):
        graph = ring_of_cliques(4, 5)
        part = HashPartitioner(3)
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=12)
        dict_merged = self._run(build_csr_shards(graph, part), part, factory)
        csr_merged = self._run(
            build_csr_shards(CSRGraph.from_graph(graph), part), part, factory
        )
        assert csr_merged == dict_merged

    def test_slpa_multiprocess_dict_vs_csr(self):
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(3)
        factory = partial(FastSLPAPropagationProgram, seed=2, iterations=10)
        dict_merged = self._run(build_csr_shards(graph, part), part, factory)
        csr_merged = self._run(
            build_csr_shards(CSRGraph.from_graph(graph), part), part, factory
        )
        assert csr_merged == dict_merged
