"""Tests for the multiprocess BSP backend (true parallelism).

The transport matrix at the bottom is the load-bearing contract of the
zero-copy data plane: every (transport × partitioner) cell must produce
bit-identical covers and per-superstep CommStats to the in-process tuple
oracle, and a worker that dies mid-run must raise WorkerCrashedError
instead of hanging the driver.
"""

import os
import signal
from collections import Counter
from functools import partial

import pytest

from oracles.tuple_plane import SLPAPropagationProgram, run_programs
from repro.baselines.slpa import SLPA
from repro.core.rslpa import ReferencePropagator
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.transport import WorkerCrashedError
from repro.distributed.worker import build_csr_shards
from repro.graph.generators import ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner


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
        merged = {}
        for result in results:
            merged.update(result)
        ref = ReferencePropagator(graph.copy(), seed=5)
        ref.propagate(15)
        assert {v: lab for v, (lab, _s, _p) in merged.items()} == ref.state.labels

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
        merged = {}
        for result in results:
            merged.update(result)
        ref = SLPA(graph.copy(), seed=2, iterations=12)
        ref.propagate()
        assert merged == ref.memories


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
        memories = {}
        for result in results:
            memories.update(result)

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
        memories = {}
        for result in results:
            memories.update(result)
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
        memories = {}
        for result in results:
            memories.update(result)
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
            os.kill(engine._processes[1].pid, signal.SIGKILL)
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
                os.kill(engine._processes[0].pid, signal.SIGKILL)
                engine.run()
        assert _shm_segments() <= before
