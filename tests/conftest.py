"""Shared fixtures for the test suite."""

from __future__ import annotations

import io
import random
import struct
import zipfile

import numpy as np
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


def _corrupt_checkpoint(store, epoch, damage="truncate"):
    """Damage one checkpoint file so it can no longer load its state.

    ``truncate`` tears the copy in half.  ``flip`` flips a seeded byte
    inside the label matrix's deflate stream, short of its last byte
    (whose padding bits may be unused).  ``short_header`` rewrites the
    file with stored members and makes the ``srcs`` npy header ask for
    int32, half the member's bytes, leaving the CRC stale: a reader
    that stops where the header says never reaches the CRC check.
    """
    path = store._checkpoint_path(epoch)
    payload = bytearray(path.read_bytes())
    if damage == "truncate":
        del payload[len(payload) // 2:]
    elif damage == "short_header":
        with np.load(path) as arrays:
            stored = io.BytesIO()
            np.savez(stored, **{k: arrays[k] for k in arrays.files})
        payload = bytearray(stored.getvalue())
        at = payload.index(b"'descr': '<i8'", payload.index(b"srcs.npy"))
        payload[at + len(b"'descr': '<i")] = ord("4")
    else:
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("labels.npy")
        # Local header: 30 fixed bytes, then the name and extra field.
        name_len, extra_len = struct.unpack_from("<HH", payload, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        rng = random.Random(epoch)
        payload[start + rng.randrange(info.compress_size - 1)] ^= rng.randrange(1, 256)
    path.write_bytes(bytes(payload))


@pytest.fixture
def corrupt_checkpoint():
    """``corrupt_checkpoint(store, epoch, damage)``: damage one checkpoint
    file of a :class:`~repro.service.durability.CheckpointStore` (the
    durability and replication fallback tests share it)."""
    return _corrupt_checkpoint
