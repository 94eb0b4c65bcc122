"""Shared fixtures for the test suite."""

from __future__ import annotations

import io
import random
import re
import struct
import zipfile

import pytest

from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.workloads.lfr import LFRParams, generate_lfr


@pytest.fixture
def triangle() -> Graph:
    """The smallest interesting graph: a 3-cycle."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_cliques_bridge() -> Graph:
    """Two 4-cliques joined by one bridge edge — canonical 2-community graph."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    edges.append((0, 4))
    return Graph.from_edges(edges)


@pytest.fixture
def cliques_ring() -> Graph:
    """Five 6-cliques in a ring (30 vertices, clear communities)."""
    return ring_of_cliques(5, 6)


@pytest.fixture
def sparse_random() -> Graph:
    """A 60-vertex sparse random graph (may contain isolated vertices)."""
    return erdos_renyi(60, 0.06, seed=17)


@pytest.fixture
def propagated(cliques_ring):
    """A reference propagator run for 40 iterations on the clique ring."""
    propagator = ReferencePropagator(cliques_ring, seed=11)
    propagator.propagate(40)
    return propagator


@pytest.fixture(scope="session")
def small_lfr():
    """A session-cached small LFR instance with overlap (n=250)."""
    return generate_lfr(
        LFRParams(n=250, avg_degree=10, max_degree=24, mu=0.1,
                  overlap_fraction=0.1, overlap_membership=2),
        seed=5,
    )


def _member_start(archive_bytes, name):
    """Offset of member ``name``'s data in a zip archive's bytes."""
    with zipfile.ZipFile(io.BytesIO(archive_bytes)) as archive:
        info = archive.getinfo(name)
    # Local header: 30 fixed bytes, then the name and extra field.
    name_len, extra_len = struct.unpack_from("<HH", archive_bytes, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


def _corrupt_checkpoint(store, epoch, damage="truncate"):
    """Damage one checkpoint file so it can no longer load its state.

    ``truncate`` tears the copy in half.  ``flip`` flips a seeded byte
    of the label matrix's member, whose bytes are stored as they are, so
    its CRC-32 covers every one of them.  ``short_header`` halves the
    width (the column count) in the ``srcs`` member's npy header, so it
    asks for half the member's bytes whatever the column's dtype, leaving
    the CRC stale: a reader that stops where the header says need not
    reach the CRC check, so only one that reads each member to its end
    (``read_npz``) is sure to.
    """
    path = store._checkpoint_path(epoch)
    payload = bytearray(path.read_bytes())
    if damage == "truncate":
        del payload[len(payload) // 2:]
    elif damage == "short_header":
        start, _size = _member_start(bytes(payload), "srcs.npy")
        # The npy header: magic, version, length, then the dict up to "\n".
        assert payload[start:start + 6] == b"\x93NUMPY"
        end = payload.index(b"\n", start + 10)
        shape = re.compile(rb"'shape': \(\d+, (\d+)\)").search(payload, start, end)
        assert shape is not None, "the rewritten header must be srcs's own"
        width = shape.group(1)
        payload[shape.start(1):shape.end(1)] = (
            str(int(width) // 2).encode().ljust(len(width))
        )
    else:
        start, size = _member_start(bytes(payload), "labels.npy")
        rng = random.Random(epoch)
        payload[start + rng.randrange(size)] ^= rng.randrange(1, 256)
    path.write_bytes(bytes(payload))


@pytest.fixture
def corrupt_checkpoint():
    """``corrupt_checkpoint(store, epoch, damage)``: damage one checkpoint
    file of a :class:`~repro.service.durability.CheckpointStore` (the
    durability and replication fallback tests share it)."""
    return _corrupt_checkpoint
