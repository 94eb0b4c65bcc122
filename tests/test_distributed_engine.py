"""Tests for the BSP engine, shards, messages and comm accounting."""

import pytest

from oracles.tuple_plane import message_size_bytes, payload_size_bytes
from repro.distributed.engine_array import ArrayBSPEngine, ArrayWorkerProgram
from repro.distributed.message_array import register_schema
from repro.distributed.metrics import CommStats, SuperstepStats
from repro.distributed.worker import build_csr_shards
from repro.graph.partition import ContiguousPartitioner, HashPartitioner

register_schema("ping", ("src",))
register_schema("go", ())


class EchoOnce(ArrayWorkerProgram):
    """Each vertex sends one message to (v+1) mod n, then stops."""

    def __init__(self, shard, n):
        super().__init__(shard)
        self.n = n
        self.received = []

    def on_start(self, ctx):
        for v in sorted(self.shard.vertices):
            ctx.send((v + 1) % self.n, ("ping", v))

    def on_superstep(self, ctx, superstep, inbox):
        columns = inbox.columns("ping")
        if columns is not None:
            self.received.extend(zip(*(col.tolist() for col in columns)))

    def collect(self):
        return {"received": self.received}


class ChattyProgram(ArrayWorkerProgram):
    """Keeps sending for a fixed number of rounds (tests superstep cap)."""

    def on_start(self, ctx):
        ctx.send(min(self.shard.vertices, default=0), ("go",))

    def on_superstep(self, ctx, superstep, inbox):
        for dst in inbox.columns("go")[0].tolist():
            ctx.send(dst, ("go",))


class TestShards:
    def test_every_vertex_owned_once(self, cliques_ring):
        part = HashPartitioner(4)
        shards = build_csr_shards(cliques_ring, part)
        owned = [v for shard in shards for v in shard.vertices]
        assert sorted(owned) == sorted(cliques_ring.vertices())

    def test_adjacency_is_sorted(self, cliques_ring):
        shards = build_csr_shards(cliques_ring, HashPartitioner(3))
        for shard in shards:
            for v in shard.vertices:
                assert shard.neighbors(v).tolist() == sorted(
                    cliques_ring.neighbors_view(v)
                )

    def test_contiguous_partitioner_locality(self, cliques_ring):
        """Contiguous blocks keep most clique edges worker-local."""
        part = ContiguousPartitioner(5, num_vertices=30)
        shards = build_csr_shards(cliques_ring, part)
        # Each shard is exactly one 6-clique.
        for shard in shards:
            assert shard.num_vertices == 6


class TestEngine:
    def test_messages_delivered_to_owners(self, cliques_ring):
        part = HashPartitioner(3)
        shards = build_csr_shards(cliques_ring, part)
        engine = ArrayBSPEngine(shards, part)
        programs = [EchoOnce(s, n=30) for s in shards]
        engine.run(programs)
        for program in programs:
            for dst, src in program.received:
                assert part.owner(dst) == program.shard.worker_id
                assert dst == (src + 1) % 30

    def test_total_message_count(self, cliques_ring):
        part = HashPartitioner(3)
        shards = build_csr_shards(cliques_ring, part)
        engine = ArrayBSPEngine(shards, part)
        engine.run([EchoOnce(s, n=30) for s in shards])
        assert engine.stats.total_messages == 30
        assert engine.stats.supersteps == 1

    def test_remote_vs_local_accounting(self, cliques_ring):
        part = ContiguousPartitioner(5, num_vertices=30)
        shards = build_csr_shards(cliques_ring, part)
        engine = ArrayBSPEngine(shards, part)
        engine.run([EchoOnce(s, n=30) for s in shards])
        stats = engine.stats
        # (v+1) mod 30 stays in the same block except at block boundaries.
        assert stats.total_remote_messages == 5
        assert stats.total_messages == 30

    def test_superstep_cap(self, cliques_ring):
        part = HashPartitioner(2)
        shards = build_csr_shards(cliques_ring, part)
        engine = ArrayBSPEngine(shards, part)
        with pytest.raises(RuntimeError, match="quiesce"):
            engine.run([ChattyProgram(s) for s in shards], max_supersteps=10)

    def test_shard_program_count_mismatch(self, cliques_ring):
        part = HashPartitioner(2)
        shards = build_csr_shards(cliques_ring, part)
        engine = ArrayBSPEngine(shards, part)
        with pytest.raises(ValueError):
            engine.run([EchoOnce(shards[0], n=30)])

    def test_partitioner_shard_mismatch(self, cliques_ring):
        shards = build_csr_shards(cliques_ring, HashPartitioner(2))
        with pytest.raises(ValueError):
            ArrayBSPEngine(shards, HashPartitioner(3))


class TestMessageSizes:
    """The tuple-plane oracle's size model the schema sizes must match."""

    def test_int_payload(self):
        assert payload_size_bytes((1, 2, 3)) == 24

    def test_string_payload(self):
        assert payload_size_bytes(("req", 5)) == 3 + 8

    def test_nested_payload(self):
        assert payload_size_bytes(((1, 2), 3)) == 24

    def test_message_adds_address(self):
        assert message_size_bytes((7, (1,))) == 16


class TestCommStats:
    def test_aggregation(self):
        stats = CommStats()
        stats.record(SuperstepStats(superstep=1, messages=10, remote_messages=4,
                                    bytes=100, remote_bytes=40))
        stats.record(SuperstepStats(superstep=2, messages=5, remote_messages=1,
                                    bytes=50, remote_bytes=10))
        assert stats.total_messages == 15
        assert stats.total_remote_messages == 5
        assert stats.total_bytes == 150
        assert stats.messages_per_superstep() == [10, 5]
        assert "2 supersteps" in stats.summary()

    def test_local_messages(self):
        s = SuperstepStats(superstep=1, messages=10, remote_messages=4)
        assert s.local_messages == 6
