"""Tests for the multiprocess BSP backend (true parallelism).

The transport matrix at the bottom is the load-bearing contract of the
zero-copy data plane: every (transport × partitioner) cell must produce
bit-identical covers and per-superstep CommStats to the in-process tuple
oracle, and a worker that dies mid-run must raise WorkerCrashedError
instead of hanging the driver.
"""

import gc
import os
import pickle
import signal
from collections import Counter
from functools import partial

import numpy as np
import pytest

from oracles.tuple_plane import SLPAPropagationProgram, run_programs, run_update
from repro.api.config import ExecutionConfig
from repro.baselines.slpa import SLPA
from repro.core.fast import FastPropagator
from repro.core.incremental_fast import FastCorrectionPropagator
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import run_distributed_update
from repro.distributed.engine_array import ArrayBSPEngine, gather_columns
from repro.distributed.faults import FaultPlan
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.transport import (
    WorkerCrashedError,
    _SegmentCache,
    _SegmentRing,
)
from repro.distributed.worker import build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner
from repro.runtime import PipeWire
from repro.workloads.dynamic import random_edit_batch


def _per_vertex(shards, results, name):
    """The gathered ``name`` columns as ``vertex -> list`` (the sequential
    engines' dict form)."""
    ids, columns = gather_columns(shards, results)
    return dict(zip(ids.tolist(), columns[name].T.tolist()))


@pytest.fixture
def small_setup():
    graph = ring_of_cliques(3, 5)
    part = HashPartitioner(3)
    return graph, part, build_csr_shards(graph, part)


class TestMultiprocessRSLPA:
    def test_matches_sequential(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=15)
        with MultiprocessBSPEngine(shards, part, factory) as engine:
            engine.run()
            results = engine.collect()
        ref = ReferencePropagator(graph.copy(), seed=5)
        ref.propagate(15)
        assert _per_vertex(shards, results, "labels") == ref.state.labels

    def test_stats_match_in_process_engine(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=10)
        with MultiprocessBSPEngine(shards, part, factory) as engine:
            stats = engine.run()
        assert stats.total_messages == 2 * graph.num_vertices * 10


class TestMultiprocessSLPA:
    def test_matches_sequential(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastSLPAPropagationProgram, seed=2, iterations=12)
        with MultiprocessBSPEngine(shards, part, factory) as engine:
            engine.run()
            results = engine.collect()
        ref = SLPA(graph.copy(), seed=2, iterations=12)
        ref.propagate()
        assert _per_vertex(shards, results, "memory") == ref.memories


class TestLifecycle:
    def test_shutdown_idempotent(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=1, iterations=3)
        engine = MultiprocessBSPEngine(shards, part, factory)
        engine.run()
        engine.shutdown()
        engine.shutdown()  # second call is a no-op

    def test_run_after_shutdown_rejected(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=1, iterations=3)
        engine = MultiprocessBSPEngine(shards, part, factory)
        engine.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            engine.run()

    def test_mismatched_partitioner_rejected(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=1, iterations=3)
        with pytest.raises(ValueError):
            MultiprocessBSPEngine(shards, HashPartitioner(5), factory)


# ----------------------------------------------------------------------
# Transport matrix: transport × partitioner, all bit-identical
# ----------------------------------------------------------------------
SEED, ITERATIONS, TAU = 11, 10, 0.3

#: Every transport of the multiprocess engine (ids name the columnar plane
#: each one carries).
TRANSPORTS = ["pipe", "shm", "tcp"]


def _partitioner(name, graph, workers):
    if name == "hash":
        return HashPartitioner(workers)
    return ContiguousPartitioner(workers, graph.num_vertices)


def _cover_from_memories(memories, tau=TAU):
    """SLPA frequency-threshold extraction (communities as frozensets)."""
    holders = {}
    for v, memory in memories.items():
        length = len(memory)
        for label, count in Counter(memory).items():
            if count / length >= tau:
                holders.setdefault(label, set()).add(v)
    return {frozenset(c) for c in holders.values() if len(c) >= 2}


def _shm_segments():
    # Dynamic half of the resource-discipline contract; the static half
    # is lint rule RPL003, which rejects SharedMemory/socket creations
    # in transport.py that cannot reach a close() on every path.
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-tmpfs platform: skip the leak check
        return set()


def _reference_run(graph, part):
    """In-process tuple-oracle ground truth: (memories, superstep stats)."""
    memories, stats = run_programs(
        SLPAPropagationProgram, build_csr_shards(graph, part), part,
        seed=SEED, iterations=ITERATIONS,
    )
    return memories, stats.per_superstep


class TestTransportMatrix:
    @pytest.mark.parametrize(
        "transport", TRANSPORTS, ids=[f"array-{t}" for t in TRANSPORTS]
    )
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_bit_identical_cover_and_stats(self, transport, partitioner):
        graph = ring_of_cliques(4, 6)
        part = _partitioner(partitioner, graph, 3)
        ref_memories, ref_steps = _reference_run(graph, part)

        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
        )
        before = _shm_segments()
        shards = build_csr_shards(graph, part)
        with MultiprocessBSPEngine(
            shards, part, factory, transport=transport
        ) as engine:
            stats = engine.run()
            results = engine.collect()
        memories = _per_vertex(shards, results, "memory")

        assert memories == ref_memories
        assert _cover_from_memories(memories) == _cover_from_memories(ref_memories)
        assert stats.per_superstep == ref_steps
        assert _shm_segments() <= before  # no leaked shared-memory segments

    def test_unknown_transport_rejected(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastSLPAPropagationProgram, seed=1, iterations=3)
        with pytest.raises(KeyError, match="bogus"):
            MultiprocessBSPEngine(shards, part, factory, transport="bogus")


class TestTransportSmoke:
    def test_tcp_two_process_smoke(self):
        """Two workers exchanging supersteps over localhost sockets only."""
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(2)
        ref_memories, ref_steps = _reference_run(graph, part)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
        )
        shards = build_csr_shards(graph, part)
        with MultiprocessBSPEngine(
            shards, part, factory, transport="tcp"
        ) as engine:
            stats = engine.run()
            results = engine.collect()
        memories = _per_vertex(shards, results, "memory")
        assert memories == ref_memories
        assert stats.per_superstep == ref_steps

    def test_shm_smoke(self):
        """Single-cell shm sanity run (fast enough for the CI smoke step)."""
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(2)
        ref_memories, _ = _reference_run(graph, part)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
        )
        before = _shm_segments()
        shards = build_csr_shards(graph, part)
        with MultiprocessBSPEngine(
            shards, part, factory, transport="shm"
        ) as engine:
            engine.run()
            results = engine.collect()
        memories = _per_vertex(shards, results, "memory")
        assert memories == ref_memories
        assert _shm_segments() <= before


class TestWorkerCrash:
    @pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
    def test_worker_kill_raises_not_hangs(self, transport):
        graph = ring_of_cliques(4, 6)
        part = HashPartitioner(3)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=500
        )
        before = _shm_segments()
        shards = build_csr_shards(graph, part)
        engine = MultiprocessBSPEngine(
            shards, part, factory, transport=transport
        )
        try:
            os.kill(engine._wire._processes[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashedError) as excinfo:
                engine.run()
            assert excinfo.value.worker_id == 1
            assert "worker 1" in str(excinfo.value)
        finally:
            engine.shutdown()
            engine.shutdown()  # idempotent after a crash
        assert _shm_segments() <= before  # crash leaked no segments

    def test_context_manager_exit_after_crash(self):
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(2)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=500
        )
        before = _shm_segments()
        shards = build_csr_shards(graph, part)
        with pytest.raises(WorkerCrashedError):
            with MultiprocessBSPEngine(
                shards, part, factory, transport="shm"
            ) as engine:
                os.kill(engine._wire._processes[0].pid, signal.SIGKILL)
                engine.run()
        assert _shm_segments() <= before


class HalvedLabelsProgram(FastRSLPAPropagationProgram):
    """Collects float results, which the shm ring does not carry."""

    def collect(self):
        return {"halved": self.labels / 2.0}


class TestCollectThroughRing:
    """``collect()`` results: through the shm ring as a header, and owned
    by the caller on every transport."""

    @staticmethod
    def _in_process(shards, part, factory):
        engine = ArrayBSPEngine(shards, part)
        programs = engine.run([factory(shard) for shard in shards])
        return gather_columns(shards, [p.collect() for p in programs])

    def test_shm_collect_reply_crosses_the_pipe_as_a_header(
        self, monkeypatch, small_setup
    ):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=6)
        raw = []
        real_recv = PipeWire.recv

        def spy(self, cid, timeout=None):
            message = real_recv(self, cid, timeout)
            raw.append(message)
            return message

        with MultiprocessBSPEngine(
            shards, part, factory, transport="shm"
        ) as engine:
            engine.run()
            monkeypatch.setattr(PipeWire, "recv", spy)
            results = engine.collect()
        assert len(raw) == len(shards)
        for message, shard in zip(raw, shards):
            segment, layout = message
            assert segment.startswith("psm_")
            assert layout == tuple(
                (name, (7, len(shard.local_ids)))
                for name in ("labels", "poss", "srcs")
            )
            assert len(pickle.dumps(message)) < 512
        ids, columns = gather_columns(shards, results)
        want_ids, want = self._in_process(shards, part, factory)
        np.testing.assert_array_equal(ids, want_ids)
        for name, column in want.items():
            np.testing.assert_array_equal(columns[name], column)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_results_stay_valid_after_shutdown(self, transport, small_setup):
        graph, part, shards = small_setup
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=6)
        before = _shm_segments()
        with MultiprocessBSPEngine(
            shards, part, factory, transport=transport
        ) as engine:
            engine.run()
            results = engine.collect()
        gc.collect()
        assert _shm_segments() <= before
        ids, columns = gather_columns(shards, results)
        want_ids, want = self._in_process(shards, part, factory)
        np.testing.assert_array_equal(ids, want_ids)
        for name, column in want.items():
            np.testing.assert_array_equal(columns[name], column)
        for result in results:
            for array in result.values():
                array += 1  # the caller's own, writable arrays

    def test_non_int64_results_cross_pickled(self, small_setup):
        graph, part, shards = small_setup
        factory = partial(HalvedLabelsProgram, seed=5, iterations=6)
        with MultiprocessBSPEngine(
            shards, part, factory, transport="shm"
        ) as engine:
            engine.run()
            results = engine.collect()
        _, columns = gather_columns(shards, results)
        _, want = self._in_process(shards, part, factory)
        assert columns["halved"].dtype == np.float64
        np.testing.assert_array_equal(columns["halved"], want["halved"])


class TestSegmentCacheBound:
    """A reader keeps only the writer's live ring slots mapped."""

    def test_cache_holds_only_live_slots_while_slots_grow(self):
        ring, cache = _SegmentRing(min_bytes=64), _SegmentCache()
        before = _shm_segments()
        try:
            # 8 rows fill a 64-byte slot; 32 and then 128 rows grow each
            # of the two slots twice, and the writer unlinks the old ones.
            for rows in (8, 8, 32, 32, 128, 128, 8, 8):
                column = np.arange(rows, dtype=np.int64)
                blocks = cache.unpack(ring.pack({"k": column}))
                np.testing.assert_array_equal(blocks["k"], column)
                del blocks  # consumed within its superstep
                live = {slot.name for slot in ring._slots if slot is not None}
                assert len(cache._segments) <= 2
                assert set(cache._segments) <= live
            assert ring.grows == 6
        finally:
            cache.close()
            ring.close()
        assert _shm_segments() <= before


class AffinityProgram(FastRSLPAPropagationProgram):
    """Also collects the CPUs its worker process may run on."""

    def collect(self):
        cpus = np.array(sorted(os.sched_getaffinity(0)), dtype=np.int64)
        return dict(super().collect(), cpus=cpus)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control"
)
class TestWorkerPinning:
    """Worker ``w`` pins itself to ``cpus[w % len(cpus)]`` of the sorted
    affinity set it inherited, when that set holds two or more CPUs.
    Each worker reports its set through ``collect()``, so the answer
    crosses the real wire."""

    FACTORY = partial(AffinityProgram, seed=5, iterations=8)

    @staticmethod
    def _two_workers():
        part = HashPartitioner(2)
        return part, build_csr_shards(ring_of_cliques(4, 5), part)

    @staticmethod
    def _allowed_cpus():
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("needs two allowed CPUs")
        return cpus

    def _fit(self, part, shards, **engine_kwargs):
        """Each worker's CPU set, the gathered columns and the recovery."""
        with MultiprocessBSPEngine(
            shards, part, self.FACTORY, **engine_kwargs
        ) as engine:
            engine.run()
            results = engine.collect()
        cpus = [set(result.pop("cpus").tolist()) for result in results]
        return cpus, gather_columns(shards, results), engine.recovery

    def _assert_matches_in_process(self, part, shards, gathered):
        programs = ArrayBSPEngine(shards, part).run(
            [self.FACTORY(shard) for shard in shards]
        )
        results = [program.collect() for program in programs]
        for result in results:
            del result["cpus"]
        want_ids, want = gather_columns(shards, results)
        ids, columns = gathered
        np.testing.assert_array_equal(ids, want_ids)
        assert columns.keys() == want.keys()
        for name, column in want.items():
            np.testing.assert_array_equal(columns[name], column)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_each_worker_pins_to_its_own_cpu(self, transport):
        cpus = self._allowed_cpus()
        part, shards = self._two_workers()
        pinned, gathered, _ = self._fit(part, shards, transport=transport)
        assert pinned == [{cpus[wid % len(cpus)]} for wid in range(2)]
        self._assert_matches_in_process(part, shards, gathered)

    def test_one_allowed_cpu_keeps_the_workers_on_it(self):
        part, shards = self._two_workers()
        saved = os.sched_getaffinity(0)
        only = min(saved)
        os.sched_setaffinity(0, {only})
        try:
            pinned, gathered, _ = self._fit(part, shards, transport="shm")
        finally:
            os.sched_setaffinity(0, saved)
        assert pinned == [{only}, {only}]
        self._assert_matches_in_process(part, shards, gathered)

    def test_respawned_worker_pins_to_the_same_cpu(self):
        cpus = self._allowed_cpus()
        part, shards = self._two_workers()
        pinned, gathered, recovery = self._fit(
            part, shards, transport="shm", fault_tolerance=True,
            checkpoint_interval=2, fault_plan=FaultPlan(kill=(1, 3)),
        )
        assert recovery.workers_respawned == 1
        assert pinned == [{cpus[wid % len(cpus)]} for wid in range(2)]
        # The in-process fit is the fault-free result.
        self._assert_matches_in_process(part, shards, gathered)


# ----------------------------------------------------------------------
# Correction Propagation on real processes: transport × partitioner × ids
# ----------------------------------------------------------------------
STATE_FIELDS = ("ids", "alive", "labels", "srcs", "poss", "epochs")


def _correction_graph(ids):
    """A sparse random graph; ``sparse`` maps ``v`` to ``5v - 23``, so the
    ids have gaps and run negative without ever hitting -1."""
    graph = erdos_renyi(50, 0.08, seed=17)
    if ids == "dense":
        return graph
    return Graph.from_edges(
        [(5 * u - 23, 5 * v - 23) for u, v in graph.edges()],
        vertices=[5 * v - 23 for v in graph.vertices()],
    )


class TestCorrectionTransportMatrix:
    """``run_distributed_update`` with ``multiprocess=True`` equals the
    local array corrector after every batch, and its per-superstep
    CommStats equal the in-process run's and the tuple oracle's."""

    @pytest.mark.parametrize("ids", ["dense", "sparse"])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_matches_local_corrector(self, transport, partitioner, ids):
        graph = _correction_graph(ids)
        if partitioner == "hash":
            part = HashPartitioner(3)
        else:
            part = ContiguousPartitioner(3, max(graph.vertices()) + 1)
        fits = []
        for _ in range(3):
            g = graph.copy()
            fit = FastPropagator(g, seed=3)
            fit.propagate(12)
            fits.append((g, fit))
        local = FastCorrectionPropagator.from_fast_propagator(fits[0][1])
        mp_graph, mp_state = fits[1][0], fits[1][1].to_array_state()
        in_graph, in_state = fits[2][0], fits[2][1].to_array_state()
        oracle_graph = graph.copy()
        oracle_state = fits[2][1].to_label_state()
        for epoch in range(1, 5):
            # Vertex 500 (2477 sparse) is new in batch 2: a column is born.
            batch = random_edit_batch(local.graph, 6, seed=epoch)
            if epoch == 2:
                new = 500 if ids == "dense" else 5 * 500 - 23
                batch = EditBatch.build(
                    insertions=set(batch.insertions)
                    | {(new, min(graph.vertices()))},
                    deletions=batch.deletions,
                )
            local.apply_batch(batch)
            config = ExecutionConfig(num_workers=3, partitioner=part)
            mp_graph, mp_state, mp_stats = run_distributed_update(
                mp_graph, mp_state, batch, seed=3, batch_epoch=epoch,
                config=ExecutionConfig(
                    num_workers=3, partitioner=part, multiprocess=True,
                    transport=transport,
                ),
            )
            in_graph, in_state, in_stats = run_distributed_update(
                in_graph, in_state, batch, seed=3, batch_epoch=epoch,
                config=config,
            )
            oracle_graph, oracle_state, oracle_stats = run_update(
                oracle_graph, oracle_state, batch, 3, epoch, part
            )
            for name in STATE_FIELDS:
                assert np.array_equal(
                    getattr(mp_state, name), getattr(local.state, name)
                ), (name, epoch)
            assert (
                mp_state.to_label_state().receivers
                == local.state.to_label_state().receivers
            )
            assert mp_state.to_label_state().labels == oracle_state.labels
            mp_state.validate(mp_graph)
            assert mp_stats.per_superstep == in_stats.per_superstep
            assert mp_stats.per_superstep == oracle_stats.per_superstep
