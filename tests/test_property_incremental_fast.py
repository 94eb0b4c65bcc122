"""Property tests: reference vs vectorised corrector under arbitrary edits.

Two drivers push the same edit streams through
:class:`CorrectionPropagator` and :class:`FastCorrectionPropagator` from
the same seed, on two id layouts — dense ``0..n-1``, and sparse
(negative ids other than -1, gaps, births below the current maximum,
delete-then-reinsert):

* a deterministic 30+-batch torture stream mixing random edits, vertex
  births, isolation events and (sparse) vertex removals;
* Hypothesis-generated batch plans, like ``test_property_incremental.py``
  but asserting cross-engine equality and the full ``validate()``
  invariant set after every batch.

After every batch both engines must agree on labels, srcs, poss, epochs,
reverse records, reports (``touched_slots`` included) and covers.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fast import FastPropagator
from repro.core.incremental import CorrectionPropagator
from repro.core.incremental_fast import FastCorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import extract_communities
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.workloads.dynamic import random_edit_batch

N = 14
ITERATIONS = 12

#: Vertex id of dense vertex ``v`` per layout (sparse never hits -1).
LAYOUTS = {"dense": lambda v: v, "sparse": lambda v: 5 * v - 37}


def fresh_pair(edges, seed, n=N, iterations=ITERATIONS, layout="dense"):
    vid = LAYOUTS[layout]
    g_ref = Graph.from_edges(
        ((vid(u), vid(v)) for u, v in edges), vertices=map(vid, range(n))
    )
    g_fast = g_ref.copy()
    ref = ReferencePropagator(g_ref, seed=seed)
    ref.propagate(iterations)
    fast_base = ReferencePropagator(g_fast, seed=seed)
    fast_base.propagate(iterations)
    reference = CorrectionPropagator(ref)
    fast = FastCorrectionPropagator(
        g_fast, ArrayLabelState.from_label_state(fast_base.state), seed
    )
    static = FastPropagator(g_fast, seed=seed)
    static.propagate(iterations)
    exported = static.to_array_state()
    for name in ("labels", "srcs", "poss", "epochs", "ids"):
        assert np.array_equal(getattr(exported, name), getattr(fast.state, name))
    return reference, fast


def assert_engines_agree(reference, fast):
    back = fast.state.to_label_state()
    state = reference.state
    assert back.labels == state.labels
    assert back.srcs == state.srcs
    assert back.poss == state.poss
    assert back.epochs == state.epochs
    assert back.receivers == state.receivers
    assert reference.graph == fast.graph
    fast.state.validate(fast.graph)
    if reference.graph.num_vertices:
        assert (
            extract_communities(fast.graph, fast.state.sequences_dict()).cover
            == extract_communities(reference.graph, state.labels).cover
        )


class TestThirtyBatchTortureStream:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_long_mixed_stream_stays_bit_identical(self, layout, seed):
        """30+ batches: random edits, vertex births, isolations, rebirths;
        on sparse ids also removals, and births at any free id."""
        rng = random.Random(seed)
        start = [(u, v) for u in range(N) for v in range(u + 1, N) if rng.random() < 0.3]
        reference, fast = fresh_pair(start, seed, layout=layout)
        graph = reference.graph
        next_vertex = N
        applied = 0
        while applied < 32:
            kind = rng.randrange(4 if layout == "dense" else 5)
            if kind == 0 and graph.num_edges > 4:
                batch = random_edit_batch(graph, rng.randrange(1, 7), seed=applied)
            elif kind == 1:
                # Vertex birth: attach a brand-new id to 1-3 existing vertices.
                if layout == "dense":
                    new = next_vertex
                    next_vertex += 1
                else:  # any free id: gaps, negatives, below the maximum
                    new = rng.choice(
                        [v for v in range(-60, 120) if v != -1 and v not in graph]
                    )
                anchors = rng.sample(sorted(graph.vertices()), rng.randrange(1, 4))
                batch = EditBatch.build(insertions=[(new, a) for a in anchors])
            elif kind == 2:
                # Isolation: delete every incident edge of one vertex.
                candidates = [v for v in graph.vertices() if graph.degree(v) > 0]
                if not candidates:
                    continue
                victim = rng.choice(candidates)
                batch = EditBatch.build(
                    deletions=[(victim, u) for u in graph.neighbors_view(victim)]
                )
            elif kind == 4:
                # Vertex removal; a later birth may reinsert the id.
                if graph.num_vertices <= 4:
                    continue
                victim = rng.choice(sorted(graph.vertices()))
                assert reference.remove_vertex(victim) == fast.remove_vertex(victim)
                assert_engines_agree(reference, fast)
                applied += 1
                continue
            else:
                # Random insertions among existing ids.
                pool = sorted(graph.vertices())
                raw = {
                    tuple(sorted(rng.sample(pool, 2))) for _ in range(rng.randrange(1, 5))
                }
                ins = [e for e in raw if not graph.has_edge(*e)]
                if not ins:
                    continue
                batch = EditBatch.build(insertions=ins)
            if not batch:
                continue
            r_ref = reference.apply_batch(batch)
            r_fast = fast.apply_batch(batch)
            assert r_ref == r_fast  # every counter and the touched slots
            assert_engines_agree(reference, fast)
            applied += 1
        assert applied >= 30


edge_strategy = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
    lambda e: e[0] < e[1]
)
edges_strategy = st.sets(edge_strategy, min_size=5, max_size=30)


@st.composite
def batch_plans(draw):
    initial = draw(edges_strategy)
    steps = draw(
        st.lists(
            st.tuples(
                st.sets(edge_strategy, max_size=5),
                st.sets(edge_strategy, max_size=5),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return initial, steps


def realise_batch(graph, inserts, deletes):
    ins = {e for e in inserts if not graph.has_edge(*e)}
    dels = {e for e in deletes if graph.has_edge(*e) and e not in ins}
    return EditBatch(insertions=frozenset(ins), deletions=frozenset(dels))


class TestHypothesisStreams:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batch_plans(), st.integers(0, 3))
    def test_engines_agree_after_every_batch(self, plan, seed):
        initial, steps = plan
        for layout, vid in sorted(LAYOUTS.items()):
            reference, fast = fresh_pair(initial, seed, layout=layout)
            for inserts, deletes in steps:
                batch = realise_batch(
                    reference.graph,
                    {(vid(u), vid(v)) for u, v in inserts},
                    {(vid(u), vid(v)) for u, v in deletes},
                )
                if not batch:
                    continue
                assert reference.apply_batch(batch) == fast.apply_batch(batch)
                assert_engines_agree(reference, fast)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(edges_strategy, st.integers(0, 3))
    def test_batch_then_inverse_agree(self, initial, seed):
        reference, fast = fresh_pair(initial, seed)
        snapshot = reference.graph.copy()
        batch = random_edit_batch(reference.graph, min(6, reference.graph.num_edges), seed=seed)
        reference.apply_batch(batch)
        fast.apply_batch(batch)
        assert_engines_agree(reference, fast)
        reference.apply_batch(batch.inverse())
        fast.apply_batch(batch.inverse())
        assert_engines_agree(reference, fast)
        assert reference.graph == snapshot
        fast.state.validate(fast.graph)
