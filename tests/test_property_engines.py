"""Property tests: engine equivalence over hypothesis-generated graphs.

The fixed-fixture tests cover known structures; these drive random graph
shapes (including disconnected pieces, isolated vertices, stars, near-empty
and near-complete graphs) through every pair of engines that must agree
bit-for-bit:

* rSLPA: reference vs vectorised vs distributed, and the columnar message
  plane vs the tuple-plane oracle;
* SLPA: reference vs vectorised vs distributed;
* connected components: hash-to-min vs BFS.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.tuple_plane import RSLPAPropagationProgram, run_programs
from repro.baselines.slpa import SLPA
from repro.baselines.slpa_fast import FastSLPA
from repro.core.fast import FastPropagator
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    _merge_collected_rslpa_state,
    run_distributed_rslpa,
    run_distributed_slpa,
)
from repro.distributed.components import distributed_connected_components
from repro.distributed.worker import build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.partition import HashPartitioner

MAX_N = 12


@st.composite
def contiguous_graphs(draw):
    """A graph over vertices 0..n-1 (fast engines need contiguous ids)."""
    n = draw(st.integers(2, MAX_N))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * 3,
        )
    )
    return Graph.from_edges(edges, vertices=range(n))


common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRSLPAEngines:
    @common_settings
    @given(contiguous_graphs(), st.integers(0, 5), st.integers(1, 15))
    def test_fast_equals_reference(self, graph, seed, iterations):
        ref = ReferencePropagator(graph.copy(), seed=seed)
        ref.propagate(iterations)
        fast = FastPropagator(graph.copy(), seed=seed)
        fast.propagate(iterations)
        for v in range(graph.num_vertices):
            assert fast.labels[:, v].tolist() == ref.state.labels[v]
            assert fast.srcs[:, v].tolist() == ref.state.srcs[v]

    @common_settings
    @given(contiguous_graphs(), st.integers(0, 3), st.integers(1, 4))
    def test_distributed_equals_reference(self, graph, seed, workers):
        ref = ReferencePropagator(graph.copy(), seed=seed)
        ref.propagate(8)
        state, _ = run_distributed_rslpa(
            graph.copy(), seed=seed, iterations=8, num_workers=workers
        )
        state = state.to_label_state()
        assert state.labels == ref.state.labels
        assert state.receivers == ref.state.receivers

    @common_settings
    @given(contiguous_graphs(), st.integers(0, 5))
    def test_exported_state_is_always_valid(self, graph, seed):
        fast = FastPropagator(graph, seed=seed)
        fast.propagate(10)
        fast.to_label_state().validate(graph)

    @common_settings
    @given(contiguous_graphs(), st.integers(0, 3), st.integers(1, 4))
    def test_array_engine_equals_reference_engine(self, graph, seed, workers):
        """Columnar message plane == tuple plane, results and accounting."""
        part = HashPartitioner(workers)
        collected, ref_stats = run_programs(
            RSLPAPropagationProgram, build_csr_shards(graph, part), part,
            seed=seed, iterations=8,
        )
        ref_state = _merge_collected_rslpa_state(collected, 8)
        arr_state, arr_stats = run_distributed_rslpa(
            graph.copy(), seed=seed, iterations=8, num_workers=workers,
        )
        arr_state = arr_state.to_label_state()
        assert arr_state.labels == ref_state.labels
        assert arr_state.srcs == ref_state.srcs
        assert arr_state.receivers == ref_state.receivers
        assert arr_stats.messages_per_superstep() == (
            ref_stats.messages_per_superstep()
        )
        assert arr_stats.total_bytes == ref_stats.total_bytes
        assert arr_stats.total_remote_messages == ref_stats.total_remote_messages


class TestSLPAEngines:
    @common_settings
    @given(contiguous_graphs(), st.integers(0, 5), st.integers(1, 12))
    def test_fast_equals_reference(self, graph, seed, iterations):
        ref = SLPA(graph, seed=seed, iterations=iterations)
        ref.propagate()
        fast = FastSLPA(graph, seed=seed, iterations=iterations)
        fast.propagate()
        assert fast.memories_as_dict() == ref.memories

    @common_settings
    @given(contiguous_graphs(), st.integers(0, 3), st.integers(1, 3))
    def test_distributed_array_equals_sequential(self, graph, seed, workers):
        ref = SLPA(graph.copy(), seed=seed, iterations=8)
        ref.propagate()
        memories, _ = run_distributed_slpa(
            graph.copy(), seed=seed, iterations=8, num_workers=workers,
        )
        assert memories == ref.memories

    @common_settings
    @given(contiguous_graphs(), st.integers(0, 3))
    def test_extractions_agree(self, graph, seed):
        ref = SLPA(graph, seed=seed, iterations=10)
        ref.propagate()
        fast = FastSLPA(graph, seed=seed, iterations=10)
        fast.propagate()
        for tau in (0.1, 0.3, 0.6):
            assert fast.extract(tau) == ref.extract(tau)


class TestComponents:
    @common_settings
    @given(contiguous_graphs(), st.integers(1, 4))
    def test_hash_to_min_equals_bfs(self, graph, workers):
        found, _ = distributed_connected_components(graph, num_workers=workers)
        expected = sorted(sorted(c) for c in graph.connected_components())
        assert sorted(sorted(c) for c in found) == expected
