"""The columnar message plane against the tuple-plane oracle.

The acceptance oracle for the one distributed substrate: for every
program (rSLPA, SLPA, correction), both input representations (a
dict-of-sets :class:`Graph` and a :class:`CSRGraph` snapshot), both
partitioner families and several seeds, the :class:`ArrayBSPEngine` run
must reproduce the tuple engine of :mod:`oracles.tuple_plane` exactly —
same collected results, same per-superstep :class:`CommStats` counters —
in process and on real worker processes.
"""

from functools import partial

import numpy as np
import pytest

from oracles.tuple_plane import (
    BSPEngine,
    RSLPAPropagationProgram,
    SLPAPropagationProgram,
    run_programs,
    run_update,
)
from repro.api.config import ExecutionConfig
from repro.baselines.slpa import SLPA
from repro.core.incremental import CorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    _merge_collected_rslpa_state,
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.distributed.engine_array import ArrayBSPEngine
from repro.distributed.message_array import (
    SCHEMAS,
    ArrayInbox,
    ArrayMessageContext,
    register_schema,
)
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
    shard_local_csr,
)
from repro.distributed.worker import build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner
from repro.workloads.dynamic import random_edit_batch

#: Wire size in bytes of one message of each built-in kind: an 8-byte
#: address, the kind tag, and 8 bytes per payload field.
WIRE_BYTES = {
    "req": 35, "lab": 43, "spk": 27, "unreg": 37,
    "fetch": 37, "fval": 52, "corr": 52, "set": 19,
}


def assert_stats_equal(a, b):
    """Per-superstep CommStats equality, counter for counter."""
    assert a.supersteps == b.supersteps
    for step_a, step_b in zip(a.per_superstep, b.per_superstep):
        assert step_a.superstep == step_b.superstep
        assert step_a.messages == step_b.messages
        assert step_a.remote_messages == step_b.remote_messages
        assert step_a.bytes == step_b.bytes
        assert step_a.remote_bytes == step_b.remote_bytes


def partitioners(graph):
    return [
        HashPartitioner(3),
        HashPartitioner(4, salt=9),
        ContiguousPartitioner(3, max(graph.vertices()) + 1),
    ]


def relabelled(graph, scale=3, offset=7):
    """``graph`` with every id ``v`` mapped to ``scale * v + offset``."""
    return Graph.from_edges(
        [(scale * u + offset, scale * v + offset) for u, v in graph.edges()],
        vertices=[scale * v + offset for v in graph.vertices()],
    )


def as_input(graph, representation):
    """``(graph, run input)``: a dict-of-sets ``Graph``, its ``CSRGraph``
    snapshot, or a ``Graph`` with non-contiguous ids."""
    if representation == "sparse":
        graph = relabelled(graph)
    if representation == "csr":
        return graph, CSRGraph.from_graph(graph)
    return graph, graph.copy()


class TestSchemas:
    def test_schema_bytes_match_tuple_plane(self):
        """Each kind's schema size is its literal tuple-plane wire size."""
        assert {kind: SCHEMAS[kind].message_bytes for kind in WIRE_BYTES} == (
            WIRE_BYTES
        )

    def test_reregister_identical_is_ok(self):
        register_schema("req", ("pos", "requester", "t"))

    def test_reregister_conflicting_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_schema("req", ("other",))

    def test_unknown_kind_rejected(self):
        ctx = ArrayMessageContext()
        with pytest.raises(KeyError, match="unknown message kind"):
            ctx.send(0, ("nonexistent-kind", 1))

    def test_column_width_mismatch_rejected(self):
        ctx = ArrayMessageContext()
        with pytest.raises(ValueError, match="payload columns"):
            ctx.send_columns("spk", np.array([1]), np.array([2]))

    def test_column_length_mismatch_rejected(self):
        ctx = ArrayMessageContext()
        with pytest.raises(ValueError, match="length mismatch"):
            ctx.send_columns(
                "spk", np.array([1, 2]), np.array([3, 4]), np.array([5])
            )


class TestContextAndInbox:
    def test_scalar_and_column_sends_merge(self):
        ctx = ArrayMessageContext()
        ctx.send(4, ("spk", 7, 1))
        ctx.send_columns(
            "spk", np.array([1, 2]), np.array([8, 9]), np.array([1, 1])
        )
        assert ctx.total_messages == 3
        outbox = ctx.finalize()
        assert outbox["spk"][0].tolist() == [4, 1, 2]

    def test_buffer_growth_preserves_rows(self):
        ctx = ArrayMessageContext()
        for i in range(100):  # force several capacity doublings
            ctx.send(i, ("spk", i * 2, 1))
        (dst, label, t) = ctx.finalize()["spk"]
        assert dst.tolist() == list(range(100))
        assert label.tolist() == [i * 2 for i in range(100)]
        assert t.tolist() == [1] * 100

    def test_empty_inbox(self):
        inbox = ArrayInbox()
        assert not inbox
        assert inbox.total_messages == 0
        assert inbox.columns("spk") is None


class TestShardLocalCSR:
    def test_dict_and_csr_shards_agree(self, small_lfr):
        """CSR shards hold exactly the sorted adjacency lists of the graph."""
        graph = small_lfr.graph
        for shard in build_csr_shards(graph, HashPartitioner(4)):
            ids, indptr, indices = shard_local_csr(shard)
            assert ids.tolist() == sorted(shard.vertices)
            for r, v in enumerate(ids.tolist()):
                row = indices[indptr[r] : indptr[r + 1]].tolist()
                assert row == sorted(graph.neighbors_view(v))

    def test_csr_shard_arrays_are_read_only(self, cliques_ring):
        """Programs cannot silently corrupt the shared shard adjacency."""
        shard = build_csr_shards(cliques_ring, HashPartitioner(2))[0]
        view = shard.neighbors(next(iter(shard.vertices)))
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 99
        with pytest.raises(ValueError):
            shard.indices[0] = 99
        with pytest.raises(ValueError):
            shard.indptr[0] = 99
        with pytest.raises(ValueError):
            shard.local_ids[0] = 99

    def test_csr_shard_does_not_freeze_caller_arrays(self):
        """The shard freezes its own views, not the constructor arguments."""
        from repro.distributed.worker import CSRShard

        ids = np.array([0, 1], dtype=np.int64)
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        shard = CSRShard(0, ids, indptr, indices)
        ids[0] = 5  # caller's buffer stays writeable...
        indices[0] = 7
        assert not shard.local_ids.flags.writeable  # ...the shard's view not


class TestRSLPAEquality:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("representation", ["dict", "csr", "sparse"])
    def test_engine_equality_all_partitioners(self, seed, representation):
        # erdos_renyi includes isolated vertices
        graph, run_input = as_input(erdos_renyi(60, 0.08, seed=11), representation)
        for part in partitioners(graph):
            collected, ref_stats = run_programs(
                RSLPAPropagationProgram, build_csr_shards(graph, part), part,
                seed=seed, iterations=12,
            )
            ref_state = _merge_collected_rslpa_state(collected, 12)
            arr_state, arr_stats = run_distributed_rslpa(
                run_input, seed=seed, iterations=12,
                partitioner=part, num_workers=part.num_partitions,
            )
            arr_state.validate(graph)
            arr_state = arr_state.to_label_state()
            assert arr_state.labels == ref_state.labels
            assert arr_state.srcs == ref_state.srcs
            assert arr_state.poss == ref_state.poss
            assert arr_state.epochs == ref_state.epochs
            assert arr_state.receivers == ref_state.receivers
            assert_stats_equal(arr_stats, ref_stats)

    def test_program_collect_identical(self, small_lfr):
        """Program-level oracle: same shard, both planes, same collect()."""
        graph = small_lfr.graph
        part = HashPartitioner(3)
        shards = build_csr_shards(graph, part)
        ref_programs = [
            RSLPAPropagationProgram(s, seed=5, iterations=10) for s in shards
        ]
        BSPEngine(shards, part).run(ref_programs)
        arr_programs = [
            FastRSLPAPropagationProgram(s, seed=5, iterations=10)
            for s in shards
        ]
        ArrayBSPEngine(shards, part).run(arr_programs)
        for ref_p, arr_p in zip(ref_programs, arr_programs):
            ref_collected = {
                v: (list(l), list(s), list(p))
                for v, (l, s, p) in ref_p.collect().items()
            }
            assert arr_p.collect() == ref_collected

    def test_auto_prefers_array_on_csr_shards(self, cliques_ring):
        """The accepted spellings all resolve to the one substrate."""
        runs = [
            run_distributed_rslpa(
                cliques_ring.copy(), seed=3, iterations=8,
                config=ExecutionConfig(
                    num_workers=4, engine=engine, shard_backend=shards,
                    state_format=state_format,
                ),
            )
            for engine in ("auto", "array")
            for shards in ("auto", "csr")
            for state_format in ("auto", "array")
        ]
        for state, stats in runs[1:]:
            assert np.array_equal(state.labels, runs[0][0].labels)
            assert_stats_equal(stats, runs[0][1])

    def test_array_state_format(self, cliques_ring):
        """state_format='array' returns the ArrayLabelState export."""
        ref = ReferencePropagator(cliques_ring.copy(), seed=7)
        ref.propagate(15)
        astate, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=7, iterations=15,
            config=ExecutionConfig(state_format="array"),
        )
        assert isinstance(astate, ArrayLabelState)
        exported = astate.to_label_state()
        assert exported.labels == ref.state.labels
        assert exported.receivers == ref.state.receivers

    def test_invalid_engine_rejected(self, cliques_ring):
        with pytest.raises(ValueError, match="engine"):
            run_distributed_rslpa(
                cliques_ring, config=ExecutionConfig(engine="spark")
            )

    def test_out_of_range_owner_fails_loudly(self, cliques_ring):
        """A buggy partitioner cannot silently drop routed messages."""
        from repro.distributed.message_array import route_columns

        class OffByOne(HashPartitioner):
            def owner_array(self, vertices):
                return super().owner_array(vertices) + self.num_partitions

        part = OffByOne(2)
        outbox = {0: {"spk": (np.array([1]), np.array([5]), np.array([1]))}}
        with pytest.raises(ValueError, match="outside"):
            route_columns(outbox, part, 2, superstep=1)

    def test_unowned_destination_fails_loudly(self, cliques_ring):
        """A partitioner/shard mismatch raises instead of mis-scattering."""
        part = HashPartitioner(2)
        shards = build_csr_shards(cliques_ring, part)
        program = FastRSLPAPropagationProgram(shards[0], seed=1, iterations=4)
        foreign = next(v for v in cliques_ring.vertices()
                       if v not in shards[0].vertices)
        with pytest.raises(KeyError, match="not owned"):
            program._rows_of(np.array([foreign], dtype=np.int64))

    def test_non_partition_worker_ids_rejected(self, cliques_ring):
        """Misnumbered shards fail loudly instead of dropping messages."""
        from repro.distributed.worker import CSRShard

        part = HashPartitioner(2)
        shards = build_csr_shards(cliques_ring, part)
        renumbered = [
            CSRShard(s.worker_id + 5, s.local_ids, s.indptr, s.indices)
            for s in shards
        ]
        with pytest.raises(ValueError, match="partition"):
            ArrayBSPEngine(renumbered, part)
        with pytest.raises(ValueError, match="partition"):
            MultiprocessBSPEngine(
                renumbered, part,
                partial(FastRSLPAPropagationProgram, seed=1, iterations=2),
            )

    def test_invalid_state_format_rejected(self, cliques_ring):
        for spelling in ("parquet", "dict"):
            with pytest.raises(ValueError, match="state_format"):
                run_distributed_rslpa(
                    cliques_ring, config=ExecutionConfig(state_format=spelling)
                )


class TestSLPAEquality:
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("representation", ["dict", "csr", "sparse"])
    def test_engine_equality_all_partitioners(self, seed, representation):
        graph, run_input = as_input(erdos_renyi(50, 0.1, seed=2), representation)
        for part in partitioners(graph):
            ref_mem, ref_stats = run_programs(
                SLPAPropagationProgram, build_csr_shards(graph, part), part,
                seed=seed, iterations=10,
            )
            arr_mem, arr_stats = run_distributed_slpa(
                run_input, seed=seed, iterations=10,
                partitioner=part, num_workers=part.num_partitions,
            )
            assert arr_mem == ref_mem
            assert_stats_equal(arr_stats, ref_stats)

    def test_matches_sequential_slpa(self, small_lfr):
        graph = small_lfr.graph
        seq = SLPA(graph.copy(), seed=6, iterations=12)
        seq.propagate()
        mem, _ = run_distributed_slpa(
            graph.copy(), seed=6, iterations=12, num_workers=4
        )
        assert mem == seq.memories


def assert_batches_match(graph, part, seed, batch_size, epochs, iterations=15):
    """Run ``epochs`` random batches through the sequential corrector, the
    columnar program and the tuple-inbox oracle; all three must agree."""

    def fresh():
        g = graph.copy()
        prop = ReferencePropagator(g, seed=seed)
        prop.propagate(iterations)
        return g, prop

    seq_graph, seq_prop = fresh()
    corrector = CorrectionPropagator(seq_prop)
    ref_graph, ref_prop = fresh()
    arr_graph, arr_prop = fresh()
    ref_state, arr_state = ref_prop.state, arr_prop.state
    for epoch in range(1, epochs + 1):
        batch = random_edit_batch(seq_graph, batch_size, seed=100 * seed + epoch)
        corrector.apply_batch(batch)
        ref_graph, ref_state, ref_stats = run_update(
            ref_graph, ref_state, batch, seed, epoch, part
        )
        arr_graph, arr_state, arr_stats = run_distributed_update(
            arr_graph, arr_state, batch, seed=seed, batch_epoch=epoch,
            num_workers=part.num_partitions, partitioner=part,
        )
        assert arr_state.labels == corrector.state.labels, epoch
        assert ref_state.labels == corrector.state.labels, epoch
        assert arr_state.epochs == corrector.state.epochs
        assert arr_state.receivers == ref_state.receivers
        assert_stats_equal(arr_stats, ref_stats)


class TestCorrectionEquality:
    @pytest.mark.parametrize("ids", ["dense", "sparse"])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_matches_tuple_oracle(self, ids, partitioner):
        """Same repairs as the sequential corrector, same per-superstep
        stats as the tuple-inbox oracle, batch after batch."""
        graph = erdos_renyi(60, 0.06, seed=17)
        if ids == "sparse":
            graph = relabelled(graph)
        if partitioner == "hash":
            part = HashPartitioner(3)
        else:
            part = ContiguousPartitioner(3, max(graph.vertices()) + 1)
        assert_batches_match(graph, part, seed=3, batch_size=6, epochs=4)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_unreg_before_value_updates(self, workers):
        """Dense graph, large batches: a source receives the unreg of a
        stale record in the superstep its value changes.  Detaching first
        keeps the stale record from drawing a correction message, as in
        the tuple plane's unreg-first dispatch."""
        graph = erdos_renyi(40, 0.15, seed=0)
        assert_batches_match(
            graph, HashPartitioner(workers), seed=0, batch_size=12, epochs=4,
            iterations=12,
        )


class TestMultiprocessArrayPlane:
    """Array plane over real processes against the in-process tuple oracle
    (small worker counts for CI)."""

    def _run(self, shards, part, factory):
        with MultiprocessBSPEngine(shards, part, factory) as eng:
            stats = eng.run()
            results = eng.collect()
        merged = {}
        for result in results:
            merged.update(result)
        return merged, stats

    def test_rslpa_array_plane_matches_tuple_plane(self):
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(2)
        shards = build_csr_shards(graph, part)
        tuple_merged, tuple_stats = run_programs(
            RSLPAPropagationProgram, shards, part, seed=5, iterations=10
        )
        array_merged, array_stats = self._run(
            shards, part,
            partial(FastRSLPAPropagationProgram, seed=5, iterations=10),
        )
        assert array_merged == tuple_merged
        assert_stats_equal(array_stats, tuple_stats)

    def test_slpa_array_plane_matches_tuple_plane(self):
        graph = ring_of_cliques(3, 4)
        part = HashPartitioner(2)
        shards = build_csr_shards(graph, part)
        tuple_merged, tuple_stats = run_programs(
            SLPAPropagationProgram, shards, part, seed=2, iterations=8
        )
        array_merged, array_stats = self._run(
            shards, part,
            partial(FastSLPAPropagationProgram, seed=2, iterations=8),
        )
        assert array_merged == tuple_merged
        assert_stats_equal(array_stats, tuple_stats)

    def test_invalid_plane_rejected(self):
        """The engine has one message plane and no ``plane=`` argument."""
        graph = ring_of_cliques(2, 4)
        part = HashPartitioner(2)
        for plane in ("quantum", "tuple", "array"):
            with pytest.raises(TypeError, match="plane"):
                MultiprocessBSPEngine(
                    build_csr_shards(graph, part), part,
                    partial(FastRSLPAPropagationProgram, seed=1, iterations=2),
                    plane=plane,
                )


class TestDetectorDistributedFit:
    def test_fit_distributed_matches_fit(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        local = RSLPADetector(cliques_ring, seed=9, iterations=40).fit()
        assert local.comm_stats is None
        dist = RSLPADetector(cliques_ring, seed=9, iterations=40)
        dist.fit_distributed(num_workers=3)
        assert dist.comm_stats is not None
        assert dist.comm_stats.total_messages > 0
        assert dist.label_state.labels == local.label_state.labels
        assert dist.communities() == local.communities()
        dist.fit()  # a local re-fit clears the distributed counters
        assert dist.comm_stats is None

    def test_fit_distributed_reference_backend(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        local = RSLPADetector(
            cliques_ring, seed=9, iterations=30, backend="reference"
        ).fit()
        dist = RSLPADetector(
            cliques_ring, seed=9, iterations=30, backend="reference"
        )
        dist.fit_distributed(num_workers=2)
        assert dist.label_state.labels == local.label_state.labels

    def test_update_after_fit_distributed(self, cliques_ring):
        """The incremental lifecycle continues off a distributed fit."""
        from repro.core.detector import RSLPADetector

        batch = random_edit_batch(cliques_ring, 4, seed=1)
        local = RSLPADetector(cliques_ring, seed=2, iterations=25).fit()
        local.update(batch)
        dist = RSLPADetector(cliques_ring, seed=2, iterations=25)
        dist.fit_distributed(num_workers=3)
        dist.update(batch)
        assert dist.label_state.labels == local.label_state.labels
