"""The packed-key barrier against the retired lexsort barrier.

:func:`repro.distributed.message_array.route_columns` sorts each kind once
on one packed ``uint64`` key; :mod:`oracles.barrier` keeps the
``np.lexsort`` barrier it replaced.  Random outboxes over test schemas of
1-7 fields — values with −1 (``NO_SOURCE``), columns spanning the whole
int64 range, duplicate rows, empty senders and kinds — on hash and
contiguous partitioners of 1-5 partitions must give identical inbox
columns (values, order, int64 dtype) and equal
:class:`~repro.distributed.metrics.SuperstepStats`, on the packed path and
on the lexsort fallback (widths summing past 64 bits) alike.  The pins at
the bottom name which path an rSLPA fit takes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.barrier import route_columns as lexsort_route_columns
from repro.core.fast import FastPropagator
from repro.distributed.cluster import run_distributed_rslpa
from repro.distributed.message_array import register_schema, route_columns
from repro.graph.adjacency import Graph
from repro.graph.generators import ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner

#: Destinations stay in ``0..NUM_VERTICES-1`` so the contiguous
#: partitioner owns every one of them.
NUM_VERTICES = 40

#: One bench-only kind per width, 1-7 payload fields.
KINDS = [
    register_schema(f"barrier{w}", tuple(f"f{i}" for i in range(w))).kind
    for w in range(1, 8)
]

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: Field values: small ranges (the packed path), −1 and ids, and the
#: whole int64 range (the fallback, once two such columns meet).
VALUES = {
    "small": st.integers(-1, 6),
    "ids": st.sampled_from([-1, 0, 3, 2**31, 2**40 + 5]),
    "full": st.one_of(
        st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
        st.integers(INT64_MIN, INT64_MAX),
    ),
}


@st.composite
def outboxes(draw):
    """``(outboxes, partitioner, num_partitions)`` for one superstep."""
    num_partitions = draw(st.integers(1, 5))
    if draw(st.booleans()):
        partitioner = HashPartitioner(num_partitions, salt=draw(st.integers(0, 3)))
    else:
        partitioner = ContiguousPartitioner(num_partitions, NUM_VERTICES)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3,
                          unique=True))
    styles = {
        kind: [draw(st.sampled_from(sorted(VALUES)))
               for _ in range(int(kind[len("barrier"):]))]
        for kind in kinds
    }
    boxes = {}
    for sender in range(num_partitions):
        outbox = {}
        for kind in draw(st.lists(st.sampled_from(kinds), unique=True)):
            rows = draw(st.lists(
                st.tuples(st.integers(0, NUM_VERTICES - 1),
                          *(VALUES[style] for style in styles[kind])),
                max_size=12,
            ))
            # Duplicate rows: repeat a prefix of the drawn ones.
            rows += rows[: draw(st.integers(0, len(rows)))]
            columns = np.array(rows, dtype=np.int64).reshape(
                len(rows), len(styles[kind]) + 1
            ).T
            outbox[kind] = tuple(np.ascontiguousarray(col) for col in columns)
        boxes[sender] = outbox  # may be empty, or hold empty kinds
    return boxes, partitioner, num_partitions


def assert_same_barrier(outboxes_, partitioner, num_partitions, superstep=3):
    expected, expected_stats = lexsort_route_columns(
        outboxes_, partitioner, num_partitions, superstep
    )
    inboxes, stats = route_columns(
        outboxes_, partitioner, num_partitions, superstep
    )
    assert stats == expected_stats
    assert inboxes.keys() == expected.keys()
    for p, inbox in expected.items():
        assert inboxes[p].keys() == inbox.keys(), p
        for kind, columns in inbox.items():
            got = inboxes[p][kind]
            assert len(got) == len(columns)
            for column, want in zip(got, columns):
                assert column.dtype == np.int64
                np.testing.assert_array_equal(column, want)


class LexsortSpy:
    """Counts ``np.lexsort`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = np.lexsort

        def spy(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)


class TestAgainstLexsortOracle:
    @given(case=outboxes())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_outboxes_match_oracle(self, case):
        assert_same_barrier(*case)

    def _full_range_outboxes(self):
        part = HashPartitioner(3)
        dst = np.array([5, 1, 5, 1, 9, 5], dtype=np.int64)
        wide = np.array(
            [INT64_MAX, INT64_MIN, -1, INT64_MIN, 0, INT64_MAX], dtype=np.int64
        )
        small = np.array([2, 2, -1, 2, 0, 2], dtype=np.int64)
        return {0: {"barrier2": (dst, wide, small)},
                1: {"barrier2": (dst[::-1].copy(), wide[::-1].copy(), small)},
                2: {}}, part, 3

    def test_widths_past_64_bits_take_lexsort(self, monkeypatch):
        outboxes_, part, num_partitions = self._full_range_outboxes()
        spy = LexsortSpy(monkeypatch)
        route_columns(outboxes_, part, num_partitions, 1)
        assert spy.calls == 1
        monkeypatch.undo()
        assert_same_barrier(outboxes_, part, num_partitions)

    def test_widths_within_64_bits_skip_lexsort(self, monkeypatch):
        dst = np.arange(30, dtype=np.int64)[::-1].copy()
        outboxes_ = {
            0: {"barrier3": (dst, dst % 4 - 1, dst * 2**20, np.full(30, -1))},
            1: {"barrier1": (dst, dst % 2)},
        }
        part = ContiguousPartitioner(2, NUM_VERTICES)
        spy = LexsortSpy(monkeypatch)
        route_columns(outboxes_, part, 2, 1)
        assert spy.calls == 0
        monkeypatch.undo()
        assert_same_barrier(outboxes_, part, 2)


class TestFitPaths:
    """Which barrier path a real fit takes, and that both keep bits."""

    def test_dense_id_fit_never_reaches_lexsort(self, monkeypatch):
        spy = LexsortSpy(monkeypatch)
        run_distributed_rslpa(ring_of_cliques(4, 5), seed=3, iterations=8,
                              num_workers=2)
        assert spy.calls == 0

    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_ids_spanning_2_pow_40_take_lexsort_and_keep_bits(
        self, monkeypatch, partitioner
    ):
        # Every other vertex moves up by 2**40, so each id column spans
        # 41 bits and two of them overflow one 64-bit key.
        def wide(v):
            return v + (v % 2) * 2**40

        dense = ring_of_cliques(4, 5)
        graph = Graph.from_edges(
            [(wide(u), wide(v)) for u, v in dense.edges()],
            vertices=[wide(v) for v in dense.vertices()],
        )
        local = FastPropagator(graph, seed=3)
        local.propagate(8)
        expected = local.to_array_state()
        spy = LexsortSpy(monkeypatch)
        state, _stats = run_distributed_rslpa(
            graph, seed=3, iterations=8, num_workers=2, partitioner=partitioner
        )
        assert spy.calls > 0
        for name in ("ids", "labels", "srcs", "poss", "epochs", "alive"):
            np.testing.assert_array_equal(
                getattr(state, name), getattr(expected, name), err_msg=name
            )
