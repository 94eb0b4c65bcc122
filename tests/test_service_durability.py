"""Tests for checkpoint/WAL durability and crash recovery.

The contract under test is the paper's operating mode made restartable:
kill the service after an arbitrary batch, ``recover()`` from the latest
checkpoint plus the WAL tail, and the state must be slot-for-slot
identical to the run that was never interrupted — per-seed label matrices
and extracted cover alike, on both backends.
"""

import io
import json
import os
import random
import shutil
import tempfile
import threading
import zipfile
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import RSLPADetector
from repro.core.labels_array import ArrayLabelState
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.service import CommunityService
from repro.core.serialize import state_to_arrays, write_npz
from repro.service.durability import (
    CheckpointStore,
    CorruptCheckpointError,
    _wal_epoch,
    encode_wal_record,
    parse_wal_line,
)
from repro.workloads.dynamic import EditStream

ITERATIONS = 30


def matrices(detector) -> ArrayLabelState:
    state = detector.array_state
    if state is None:
        state = ArrayLabelState.from_label_state(detector.label_state)
    return state


STATE_ARRAYS = ("labels", "srcs", "poss", "epochs", "alive", "ids")


def assert_states_identical(da, db):
    sa, sb = matrices(da), matrices(db)
    for name in STATE_ARRAYS:
        assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


#: Graph layouts a checkpoint must round-trip: contiguous ids, sparse and
#: negative ids with isolated vertices, and no vertices at all.
GRAPH_LAYOUTS = {
    "contiguous": lambda: ring_of_cliques(5, 6),
    "sparse_negative_isolated": lambda: Graph.from_edges(
        [(-7, 3), (3, 100), (-7, 100), (100, 250), (250, 9), (9, -2)],
        vertices=[-7, -3, -2, 3, 9, 42, 100, 250],
    ),
    "empty": Graph,
}

#: The dtype a version-3 checkpoint stores each layout's edge column at:
#: the narrowest signed one that holds its ids (int8 when there are none).
NARROW_EDGES = {
    "contiguous": np.int8,
    "sparse_negative_isolated": np.int16,
    "empty": np.int8,
}


class TestCheckpointStore:
    def fitted_state(self, graph, seed=5):
        detector = RSLPADetector(
            graph, seed=seed, iterations=ITERATIONS, backend="fast"
        ).fit()
        return detector.array_state, detector.edge_array()

    @pytest.mark.parametrize("layout", sorted(GRAPH_LAYOUTS))
    def test_checkpoint_roundtrip(self, layout, tmp_path):
        graph = GRAPH_LAYOUTS[layout]()
        state, edges = self.fitted_state(graph)
        store = CheckpointStore(tmp_path)
        path = store.write_checkpoint(state, edges, seed=5, batch_epoch=0,
                                      edits_applied=11)
        # The edge column must be the ascending (u, v) list the checkpoint
        # format has always stored, narrowed on disk, and a load hands it
        # back as int64.
        with np.load(path) as arrays:
            edges = arrays["edges"]
        expected = np.array(sorted(graph.edges()), dtype=np.int64).reshape(-1, 2)
        assert edges.dtype == NARROW_EDGES[layout]
        assert np.array_equal(edges, expected)
        ckpt = store.load_checkpoint()
        assert (ckpt.seed, ckpt.batch_epoch, ckpt.edits_applied) == (5, 0, 11)
        assert ckpt.edges.dtype == np.int64
        assert np.array_equal(ckpt.edges, expected)
        for name in STATE_ARRAYS:
            assert np.array_equal(getattr(ckpt.state, name), getattr(state, name))
        restored = RSLPADetector.from_state(ckpt.edges, ckpt.state, ckpt.seed)
        assert restored.graph == graph

    @pytest.mark.parametrize("layout,narrow", [
        # ids 0..29: every column fits int8 (srcs and poss hold -1).
        ("contiguous", dict(labels=np.int8, srcs=np.int8, poss=np.int8,
                            epochs=np.int8, ids=np.int8, edges=np.int8)),
        # ids -7..250: the id-valued columns need int16, srcs are columns.
        ("sparse_negative_isolated", dict(labels=np.int16, srcs=np.int8,
                                          poss=np.int8, epochs=np.int8,
                                          ids=np.int16, edges=np.int16)),
        ("empty", dict(labels=np.int8, srcs=np.int8, poss=np.int8,
                       epochs=np.int8, ids=np.int8, edges=np.int8)),
        # ids from 2**20 and from 2**40: int32 and int64.
        ("ids_from_2**20", dict(labels=np.int32, srcs=np.int8, poss=np.int8,
                                epochs=np.int8, ids=np.int32, edges=np.int32)),
        ("ids_from_2**40", dict(labels=np.int64, srcs=np.int8, poss=np.int8,
                                epochs=np.int8, ids=np.int64, edges=np.int64)),
    ])
    def test_version_3_layout(self, layout, narrow, tmp_path):
        """Version 3 stores every member as it is and each int column at
        the narrowest signed dtype holding its min and max; a load hands
        every column back as int64, equal to what was written."""
        if layout.startswith("ids_from_"):
            offset = 2 ** int(layout.rsplit("**", 1)[1])
            graph = Graph.from_edges(
                (u + offset, v + offset) for u, v in ring_of_cliques(3, 4).edges()
            )
        else:
            graph = GRAPH_LAYOUTS[layout]()
        state, edges = self.fitted_state(graph)
        columns = {name: getattr(state, name) for name in narrow if name != "edges"}
        columns["edges"] = edges
        store = CheckpointStore(tmp_path)
        path = store.write_checkpoint(state, edges, seed=5, batch_epoch=0)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as arrays:
            assert int(arrays["ckpt_version"]) == 3
            for name, column in columns.items():
                assert arrays[name].dtype == narrow[name], name
                assert np.array_equal(arrays[name], column), name
        ckpt = store.load_checkpoint()
        loaded = {name: getattr(ckpt.state, name) for name in narrow if name != "edges"}
        loaded["edges"] = ckpt.edges
        for name, column in loaded.items():
            assert column.dtype == np.int64, name
            assert np.array_equal(column, columns[name]), name

    def test_version_2_checkpoint_loads_bit_identically(self, tmp_path):
        """A version-2 file as the previous writer made it (deflated int64
        columns) loads to the same arrays, dtypes included, as the
        version-3 file of the same state."""
        graph = GRAPH_LAYOUTS["sparse_negative_isolated"]()
        state, edges = self.fitted_state(graph)
        store = CheckpointStore(tmp_path)
        arrays = state_to_arrays(state)
        arrays.update(
            ckpt_format=np.array("repro.service_checkpoint"),
            ckpt_version=np.array(2, dtype=np.int64),
            edges=edges,
            seed=np.array(5, dtype=np.int64),
            batch_epoch=np.array(3, dtype=np.int64),
            edits_applied=np.array(7, dtype=np.int64),
        )
        version_2 = store._checkpoint_path(3)
        with open(version_2, "wb") as handle:
            write_npz(handle, arrays)
        with zipfile.ZipFile(version_2) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        with np.load(version_2) as written:
            assert {written[k].dtype for k in ("labels", "srcs", "edges")} == {
                np.dtype(np.int64)
            }
        store.write_checkpoint(state, edges, seed=5, batch_epoch=4, edits_applied=7)
        old, new = store.load_checkpoint(3), store.load_checkpoint(4)
        assert (old.seed, old.batch_epoch, old.edits_applied) == (5, 3, 7)
        for name in STATE_ARRAYS:
            for ckpt in (old, new):
                column = getattr(ckpt.state, name)
                assert column.dtype == getattr(state, name).dtype, name
                assert np.array_equal(column, getattr(state, name)), name
        for ckpt in (old, new):
            assert ckpt.edges.dtype == np.int64
            assert np.array_equal(ckpt.edges, edges)
        assert RSLPADetector.from_state(old.edges, old.state, 5).graph == graph

    def test_checkpoint_syncs_the_store_directory(self, tmp_path, monkeypatch):
        """The WAL rotation publishes the new log by rename, which is
        durable only once the directory is synced: a checkpoint must fsync
        the store directory before the next append can land."""
        state, edges = self.fitted_state(ring_of_cliques(3, 4))
        store = CheckpointStore(tmp_path)
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            meta = os.fstat(fd)
            synced.append((meta.st_dev, meta.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        store.write_checkpoint(state, edges, seed=5, batch_epoch=0)
        meta = os.stat(tmp_path)
        assert (meta.st_dev, meta.st_ino) in synced

    @pytest.mark.parametrize("layout", ["contiguous", "sparse_negative_isolated"])
    def test_roundtrip_after_births_and_a_rebirth(self, layout, tmp_path):
        """Checkpoints of a stream that removes a vertex, gives birth at a
        negative id below every other and at an id below the largest, then
        re-inserts the removed id: each edge column is the reference
        graph's ascending edge list, and the restore rebuilds that graph
        and its cover."""
        graph = GRAPH_LAYOUTS[layout]()
        fast, ref = (
            RSLPADetector(graph, seed=5, iterations=ITERATIONS, backend=backend).fit()
            for backend in ("fast", "reference")
        )
        vertices = sorted(graph.vertices())
        victim, low = vertices[2], vertices[0] - 7
        gap = vertices[-1] - 1 if layout == "contiguous" else 200
        steps = [
            None,  # remove the victim
            EditBatch.build(insertions=[(low, vertices[1]), (low, vertices[3])]),
            EditBatch.build(insertions=[(gap, low), (gap, vertices[-1])])
            if layout != "contiguous" else EditBatch.build(insertions=[(low, gap)]),
            EditBatch.build(insertions=[(victim, low), (victim, vertices[4])]),
        ]
        store = CheckpointStore(tmp_path)
        for epoch, batch in enumerate(steps, start=1):
            if batch is None:
                assert fast.remove_vertex(victim) == ref.remove_vertex(victim)
            else:
                assert fast.update(batch) == ref.update(batch)
            store.write_checkpoint(
                fast.array_state, fast.edge_array(), seed=5, batch_epoch=epoch
            )
            ckpt = store.load_checkpoint()
            expected = [list(e) for e in sorted(ref.graph.edges())]
            assert ckpt.edges.tolist() == expected
            assert fast.graph == ref.graph
            restored = RSLPADetector.from_state(
                ckpt.edges, ckpt.state, ckpt.seed, batch_epoch=epoch
            )
            assert restored.graph == ref.graph
            assert restored.edge_array().tolist() == expected
            assert_states_identical(restored, fast)
            assert restored.label_state.labels == ref.label_state.labels
            assert restored.communities() == ref.communities()
        assert not (np.diff(fast.array_state.ids) > 0).all()

    @pytest.mark.parametrize("version", [1, 2])
    def test_numpy_written_state_and_checkpoint_load(self, cliques_ring,
                                                     tmp_path, version):
        """Files numpy's own writer made (every file written before the
        level-1 writer) load bit for bit; version 1 files, from before the
        id column, load as ids 0..n-1."""
        from repro.core.serialize import load_state, state_to_arrays

        state, edges = self.fitted_state(cliques_ring)
        arrays = state_to_arrays(state)
        if version == 1:
            del arrays["ids"]
            arrays["version"] = np.array(1, dtype=np.int64)
        np.savez_compressed(tmp_path / "state.npz", **arrays)
        loaded = load_state(str(tmp_path / "state.npz"))
        for name in STATE_ARRAYS:
            assert np.array_equal(getattr(loaded, name), getattr(state, name))
        assert loaded.ids.tolist() == list(range(30))
        assert loaded.to_label_state().receivers == state.to_label_state().receivers
        store = CheckpointStore(tmp_path)
        path = store.write_checkpoint(state, edges, seed=5, batch_epoch=4)
        with np.load(path) as written:
            payload = {k: written[k] for k in written.files}
        # Those files were version 1 or 2, with int64 columns.
        for name in ("labels", "srcs", "poss", "epochs", "ids", "edges"):
            payload[name] = payload[name].astype(np.int64)
        payload["ckpt_version"] = np.array(version, dtype=np.int64)
        if version == 1:
            del payload["ids"]
            payload.update(version=arrays["version"])
        np.savez_compressed(path, **payload)
        ckpt = store.load_checkpoint()
        assert ckpt.batch_epoch == 4
        assert ckpt.edges.tolist() == [list(e) for e in sorted(cliques_ring.edges())]
        for name in STATE_ARRAYS:
            assert np.array_equal(getattr(ckpt.state, name), getattr(state, name))
        ckpt.state.validate(cliques_ring)

    def test_checkpoint_removes_orphaned_temp_files(self, cliques_ring, tmp_path):
        # A crash between open(tmp) and os.replace leaves the temp file;
        # the next checkpoint must delete it with the pruned checkpoints.
        state, edges = self.fitted_state(cliques_ring)
        store = CheckpointStore(tmp_path, keep=2)
        orphan = tmp_path / "checkpoint-0000000004.npz.tmp"
        orphan.write_bytes(b"PK torn")
        store.write_checkpoint(state, edges, seed=5, batch_epoch=6)
        assert not orphan.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-0000000006.npz", "wal.log",
        ]

    def test_latest_checkpoint_wins_and_old_pruned(self, cliques_ring, tmp_path):
        state, edges = self.fitted_state(cliques_ring)
        store = CheckpointStore(tmp_path, keep=2)
        for epoch in (0, 3, 7):
            store.write_checkpoint(state, edges, seed=5, batch_epoch=epoch)
        assert store.checkpoint_epochs() == [3, 7]
        assert store.load_checkpoint().batch_epoch == 7

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no checkpoints"):
            CheckpointStore(tmp_path).load_checkpoint()

    def test_wal_roundtrip_in_order(self, tmp_path):
        store = CheckpointStore(tmp_path)
        batches = [
            EditBatch.build(insertions=[(0, 1)]),
            EditBatch.build(deletions=[(0, 1)], insertions=[(2, 3)]),
        ]
        for epoch, batch in enumerate(batches, start=1):
            store.append_wal(epoch, batch)
        records = store.read_wal()
        store.close()
        assert [e for e, _ in records] == [1, 2]
        assert [b for _, b in records] == batches

    def test_wal_filter_by_epoch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (1, 2, 3):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch)]))
        store.close()
        assert [e for e, _ in store.read_wal(after_epoch=2)] == [3]

    def test_torn_tail_is_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append_wal(1, EditBatch.build(insertions=[(0, 1)]))
        store.append_wal(2, EditBatch.build(insertions=[(0, 2)]))
        store.close()
        with open(store.wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 3, "ins": [[0')  # crash mid-write
        assert [e for e, _ in store.read_wal()] == [1, 2]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append_wal(1, EditBatch.build(insertions=[(0, 1)]))
        store.append_wal(2, EditBatch.build(insertions=[(0, 2)]))
        store.close()
        lines = store.wal_path.read_text().splitlines()
        lines[0] = lines[0].replace('"epoch":1', '"epoch":9')
        store.wal_path.write_text("\n".join(lines) + "\n")
        # First record fails its CRC: nothing after it may replay either.
        assert store.read_wal() == []

    @pytest.mark.parametrize("damage", [None, "crc_failed", "cut_newline"])
    def test_checkpoint_rotates_wal(self, cliques_ring, tmp_path, damage):
        state, edges = self.fitted_state(cliques_ring)
        store = CheckpointStore(tmp_path, keep=1)
        for epoch in range(1, 6):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch + 30)]))
        store.close()
        lines = store.wal_path.read_text().splitlines(keepends=True)
        survivors, kept = lines[1:], [2, 3, 4, 5]
        if damage == "crc_failed":
            # A record in the middle fails its CRC: it and everything
            # after it were never applied, so the copy ends there.
            torn = lines[2].replace('"epoch":3', '"epoch":9')
            store.wal_path.write_text("".join(lines[:2] + [torn] + lines[3:]))
            survivors, kept = lines[1:2], [2]
        elif damage == "cut_newline":
            # The last append stopped just short of its newline.
            store.wal_path.write_text("".join(lines)[:-1])
        store.write_checkpoint(state, edges, seed=5, batch_epoch=1)
        # The survivors are the original lines, byte for byte.
        assert store.wal_path.read_bytes() == "".join(survivors).encode()
        assert store.last_discarded_records == (3 if damage == "crc_failed" else 0)
        store.append_wal(9, EditBatch.build(insertions=[(0, 39)]))
        store.close()
        assert [e for e, _ in store.read_wal()] == kept + [9]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)


class TestServiceRecovery:
    def run_service(self, tmp_path, backend, num_batches, checkpoint_every=2):
        graph = ring_of_cliques(5, 6)
        service = CommunityService(
            graph,
            seed=7,
            iterations=ITERATIONS,
            backend=backend,
            batch_size=4,
            staleness_batches=0,  # covers compare below: keep them fresh
            checkpoint_every=checkpoint_every,
            checkpoint_dir=str(tmp_path),
        ).start()
        stream = EditStream(graph, batch_size=4, seed=13)
        for batch in stream.take(num_batches):
            service.apply(batch)
        return service

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_recover_replays_wal_tail(self, tmp_path, backend):
        # checkpoint_every=2 and 5 batches: checkpoint at 4, WAL tail = [5].
        service = self.run_service(tmp_path, backend, num_batches=5)
        service.close()
        recovered = CommunityService.recover(
            str(tmp_path), backend=backend, staleness_batches=0
        )
        assert recovered.batches_applied == 5
        assert recovered.edits_applied == service.edits_applied
        assert_states_identical(service.detector, recovered.detector)
        assert recovered.cover() == service.cover()

    def test_recovered_service_continues_identically(self, tmp_path):
        service = self.run_service(tmp_path, "fast", num_batches=3)
        service.close()
        recovered = CommunityService.recover(str(tmp_path), staleness_batches=0)
        stream = EditStream(service.graph, batch_size=4, seed=99)
        for batch in stream.take(3):
            # The dead service continues detector-only (its durability files
            # now belong to the recovered instance); the recovered service
            # keeps the full ingest + durability path.
            service.detector.update(batch)
            recovered.apply(batch)
        assert_states_identical(service.detector, recovered.detector)
        assert recovered.cover() == service.detector.communities()

    def test_recover_across_backends(self, tmp_path):
        """A fast-backend run recovers bit-identically on the reference
        backend (checkpoints are backend-neutral)."""
        service = self.run_service(tmp_path, "fast", num_batches=3)
        service.close()
        recovered = CommunityService.recover(
            str(tmp_path), backend="reference", staleness_batches=0
        )
        assert_states_identical(service.detector, recovered.detector)

    def test_recover_requires_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CommunityService.recover(str(tmp_path))

    def test_gap_in_wal_rejected(self, tmp_path):
        service = self.run_service(tmp_path, "fast", num_batches=2,
                                   checkpoint_every=0)
        # WAL holds epochs 1..2 after the epoch-0 checkpoint; drop record 1.
        service.close()
        store = service.store
        lines = store.wal_path.read_text().splitlines()
        store.wal_path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="does not continue"):
            CommunityService.recover(str(tmp_path))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=4),
    backend=st.sampled_from(["fast", "reference"]),
    kill_after=st.integers(min_value=0, max_value=5),
    more=st.integers(min_value=1, max_value=3),
    checkpoint_every=st.integers(min_value=0, max_value=3),
)
def test_crash_recovery_is_bit_identical(
    seed, backend, kill_after, more, checkpoint_every
):
    """Crash, recover, apply, tear, recover, apply, recover: each recovery
    equals the uninterrupted run at the epoch it lands on.

    The first crash comes after an arbitrary batch.  The second tears the
    last logged record, so that recovery lands one batch back (or on a
    checkpoint written at that batch); the rest of the stream then
    applies, and the last recovery must hold all of it.  The property
    quantifies over seeds, backends, crash points and checkpoint cadences
    (0: only the baseline), so the replayed WAL tail length varies from
    zero to everything-since-start.
    """
    total_batches = 6
    tear_at = min(total_batches, kill_after + more)
    graph = ring_of_cliques(4, 5)
    batches = EditStream(graph, batch_size=3, seed=seed + 100).take(total_batches)

    def truth(epoch):
        """The uninterrupted run after ``epoch`` batches."""
        detector = RSLPADetector(
            graph, seed=seed, iterations=ITERATIONS, backend=backend
        ).fit()
        for batch in batches[:epoch]:
            detector.update(batch)
        return detector

    def recover(tmp_dir, epoch):
        recovered = CommunityService.recover(
            tmp_dir, backend=backend, staleness_batches=0,
            checkpoint_every=checkpoint_every,
        )
        assert recovered.batches_applied == epoch
        reference = truth(epoch)
        assert_states_identical(reference, recovered.detector)
        assert recovered.cover() == reference.communities()
        return recovered

    with tempfile.TemporaryDirectory() as tmp_dir:
        service = CommunityService(
            graph,
            seed=seed,
            iterations=ITERATIONS,
            backend=backend,
            batch_size=3,
            staleness_batches=0,  # covers compare below: keep them fresh
            checkpoint_every=checkpoint_every,
            checkpoint_dir=tmp_dir,
        ).start()
        for batch in batches[:kill_after]:
            service.apply(batch)
        service.close()  # the process dies here; only the files survive

        recovered = recover(tmp_dir, kill_after)
        for batch in batches[kill_after:tear_at]:
            recovered.apply(batch)
        recovered.close()
        # The crash cut the last append short: its record is torn.
        wal = recovered.store.wal_path
        wal.write_bytes(wal.read_bytes()[:-10])
        checkpoints = recovered.store.checkpoint_epochs()
        landed = tear_at if tear_at in checkpoints else tear_at - 1

        recovered = recover(tmp_dir, landed)
        assert recovered.wal_discarded_records == 1
        for batch in batches[landed:]:
            recovered.apply(batch)
        recovered.close()

        recover(tmp_dir, total_batches).close()


class TestDurabilityIdContract:
    def test_non_contiguous_graph_starts_durable(self, tmp_path):
        """A service with a checkpoint dir starts on a graph whose ids are
        not 0..n-1, writes its baseline checkpoint, and recovers from it."""
        from repro.graph.adjacency import Graph

        graph = Graph.from_edges([(10, 20), (20, 30), (10, 30), (30, -4)])
        service = CommunityService(
            graph,
            seed=1,
            iterations=10,
            staleness_batches=0,
            checkpoint_dir=str(tmp_path),
        ).start()
        assert service.store.latest_epoch() == 0
        service.close()
        recovered = CommunityService.recover(str(tmp_path), staleness_batches=0)
        assert recovered.graph == graph
        assert_states_identical(service.detector, recovered.detector)
        assert recovered.cover() == service.cover()

    def test_sparse_ids_checkpoint_and_recover(self, tmp_path):
        """Any vertex ids checkpoint: a service on gappy ids whose batches
        add gap, negative and below-the-maximum ids checkpoints every batch,
        and recover() is bit-identical to it and to the reference engine."""
        from repro.graph.adjacency import Graph

        base = ring_of_cliques(4, 5)
        graph = Graph.from_edges((3 * u + 7, 3 * v + 7) for u, v in base.edges())
        batches = [
            EditBatch.build(insertions=[(7, 500)]),  # gap id above the max
            EditBatch.build(insertions=[(-5, 10), (-5, 500)]),  # negative id
            EditBatch.build(insertions=[(8, 13)], deletions=[(7, 10)]),  # 8 < max
            EditBatch.build(deletions=[(7, 500), (-5, 500)]),  # isolates 500
        ]
        service = CommunityService(
            graph,
            seed=7,
            iterations=ITERATIONS,
            batch_size=4,
            staleness_batches=0,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
        ).start()
        reference = RSLPADetector(
            graph, seed=7, iterations=ITERATIONS, backend="reference"
        ).fit()
        for epoch, batch in enumerate(batches, start=1):
            service.apply(batch)
            reference.update(batch)
            assert service.store.latest_epoch() == epoch
        service.close()

        recovered = CommunityService.recover(str(tmp_path), staleness_batches=0)
        assert recovered.batches_applied == len(batches)
        assert_states_identical(service.detector, recovered.detector)
        assert recovered.detector.label_state.receivers == (
            reference.label_state.receivers
        )
        assert recovered.cover() == reference.communities()
        # One epoch back: the retained older checkpoint plus the WAL tail
        # replays to the same state.
        service.store._checkpoint_path(len(batches)).unlink()
        replayed = CommunityService.recover(str(tmp_path), staleness_batches=0)
        assert_states_identical(service.detector, replayed.detector)


class TestTornWALTail:
    """A torn WAL tail is counted, warned about, and cleanly discarded."""

    def run_service(self, tmp_path, num_batches, checkpoint_every=2):
        graph = ring_of_cliques(5, 6)
        service = CommunityService(
            graph,
            seed=7,
            iterations=ITERATIONS,
            batch_size=4,
            staleness_batches=0,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=str(tmp_path),
        ).start()
        stream = EditStream(graph, batch_size=4, seed=13)
        for batch in stream.take(num_batches):
            service.apply(batch)
        return service

    def tear_last_wal_record(self, store):
        lines = store.wal_path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # torn mid-write
        store.wal_path.write_text("\n".join(lines) + "\n")

    def test_recover_counts_discarded_tail(self, tmp_path, caplog):
        # Checkpoint at 4, WAL tail [5]; tearing epoch 5 loses one batch.
        service = self.run_service(tmp_path, num_batches=5)
        service.close()
        self.tear_last_wal_record(service.store)
        with caplog.at_level("WARNING", logger="repro.service.facade"):
            recovered = CommunityService.recover(
                str(tmp_path), staleness_batches=0
            )
        assert recovered.batches_applied == 4
        assert recovered.wal_discarded_records == 1
        assert recovered.stats()["wal_discarded_records"] == 1
        assert any(
            "torn WAL" in record.message for record in caplog.records
        )

    def test_recovered_state_is_exact_at_surviving_epoch(self, tmp_path):
        # The torn-tail recovery equals a run that only ever saw 4 batches.
        service = self.run_service(tmp_path, num_batches=5)
        service.close()
        self.tear_last_wal_record(service.store)
        recovered = CommunityService.recover(str(tmp_path), staleness_batches=0)
        with tempfile.TemporaryDirectory() as other:
            truth = self.run_service(other, num_batches=4)
            assert_states_identical(truth.detector, recovered.detector)
            assert recovered.cover() == truth.cover()
            truth.close()

    def test_batch_applied_after_torn_tail_survives_recovery(self, tmp_path):
        """Recover past a torn record 3, apply one batch (acknowledged as
        epoch 3), recover again: the acknowledged batch must still be
        there, because the first append cut the torn line away."""
        service = self.run_service(tmp_path, num_batches=3, checkpoint_every=0)
        service.close()
        wal = service.store.wal_path
        wal.write_bytes(wal.read_bytes()[:-10])  # record 3 loses 10 bytes
        recovered = CommunityService.recover(
            str(tmp_path), staleness_batches=0, checkpoint_every=0
        )
        assert recovered.batches_applied == 2
        assert recovered.wal_discarded_records == 1
        third = EditStream(ring_of_cliques(5, 6), batch_size=4, seed=13).take(3)[2]
        recovered.apply(third)
        assert recovered.batches_applied == 3
        recovered.close()
        again = CommunityService.recover(
            str(tmp_path), staleness_batches=0, checkpoint_every=0
        )
        assert again.batches_applied == 3
        assert again.wal_discarded_records == 0
        assert_states_identical(recovered.detector, again.detector)
        assert_states_identical(service.detector, again.detector)
        again.close()

    def test_first_append_ends_an_unended_record(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (1, 2):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch + 30)]))
        store.close()
        store.wal_path.write_bytes(store.wal_path.read_bytes()[:-1])
        writer = CheckpointStore(tmp_path)
        assert [e for e, _ in writer.read_wal()] == [1, 2]
        writer.append_wal(3, EditBatch.build(insertions=[(0, 33)]))
        assert [e for e, _ in writer.read_wal()] == [1, 2, 3]
        assert writer.last_discarded_records == 0
        writer.close()

    def test_undecodable_line_is_discarded_like_a_torn_one(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (1, 2):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch + 30)]))
        store.close()
        first, second = store.wal_path.read_bytes().splitlines(keepends=True)
        store.wal_path.write_bytes(first + b"\xff" + second[1:])
        assert [e for e, _ in store.read_wal()] == [1]
        assert store.last_discarded_records == 1

    def test_reads_never_cut(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append_wal(1, EditBatch.build(insertions=[(0, 31)]))
        store.close()
        torn = store.wal_path.read_bytes() + b'{"epoch":2,"ins"'
        store.wal_path.write_bytes(torn)
        reader = CheckpointStore(tmp_path)
        assert [e for e, _ in reader.read_wal()] == [1]
        assert reader.last_discarded_records == 1
        assert store.wal_path.read_bytes() == torn

    def test_intact_wal_discards_nothing(self, tmp_path):
        service = self.run_service(tmp_path, num_batches=5)
        service.close()
        recovered = CommunityService.recover(str(tmp_path), staleness_batches=0)
        assert recovered.wal_discarded_records == 0
        assert recovered.stats()["wal_discarded_records"] == 0


class TestWalRecordCodec:
    """encode_wal_record / parse_wal_line: the one codec every copy of a
    record passes through — on disk, in rotation, and on the replication
    wire."""

    def test_round_trip(self):
        batch = EditBatch.build(insertions=[(0, 5), (2, 3)],
                                deletions=[(1, 4)])
        line = encode_wal_record(7, batch)
        assert line.endswith("\n")
        parsed = parse_wal_line(line)
        assert parsed == (7, batch)

    def test_encoding_is_canonical(self):
        # Same batch, differently-ordered inputs: byte-identical lines.
        # Replication depends on this — the supervisor's encoded record
        # must match the line the primary logged, byte for byte.
        a = EditBatch.build(insertions=[(0, 5), (2, 3)])
        b = EditBatch.build(insertions=[(2, 3), (0, 5)])
        assert encode_wal_record(3, a) == encode_wal_record(3, b)

    def test_line_layout_and_crc_body(self):
        """The line is the record's fields in order, and the CRC covers the
        sorted-keys dump of epoch, insertions and deletions."""
        batch = EditBatch.build(insertions=[(2, 3), (0, 5)], deletions=[(1, 4)])
        body = '{"del":[[1,4]],"epoch":7,"ins":[[0,5],[2,3]]}'
        crc = zlib.crc32(body.encode("utf-8"))
        assert encode_wal_record(7, batch) == (
            f'{{"epoch":7,"ins":[[0,5],[2,3]],"del":[[1,4]],"crc":{crc}}}\n'
        )
        empty = encode_wal_record(0, EditBatch.build())
        crc = zlib.crc32(b'{"del":[],"epoch":0,"ins":[]}')
        assert empty == f'{{"epoch":0,"ins":[],"del":[],"crc":{crc}}}\n'
        assert parse_wal_line(empty) == (0, EditBatch.build())

    def test_flipped_payload_fails_crc(self):
        line = encode_wal_record(7, EditBatch.build(insertions=[(0, 5)]))
        assert parse_wal_line(line.replace('"epoch":7', '"epoch":8')) is None

    def test_torn_line_is_rejected(self):
        line = encode_wal_record(7, EditBatch.build(insertions=[(0, 5)]))
        assert parse_wal_line(line[: len(line) // 2]) is None
        assert parse_wal_line("") is None
        assert parse_wal_line("not json at all\n") is None


def _parsed_epoch(line: bytes):
    """What a full decode says of one WAL line: its epoch, or ``None``."""
    try:
        record = parse_wal_line(line.decode("utf-8"))
    except UnicodeDecodeError:
        return None
    return None if record is None else record[0]


_edges = st.lists(
    st.tuples(st.integers(-50, 10**6), st.integers(-50, 10**6)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=6,
)


@st.composite
def wal_lines(draw):
    """An encoder line, then one of: as written, a single flipped byte, a
    torn prefix, or the same record re-spaced (valid JSON, not the
    encoder's layout)."""
    insertions = EditBatch.build(insertions=draw(_edges)).insertions
    deletions = EditBatch.build(insertions=draw(_edges)).insertions - insertions
    batch = EditBatch(insertions=insertions, deletions=deletions)
    line = encode_wal_record(draw(st.integers(-3, 10**9)), batch).encode()
    variant = draw(st.sampled_from(["intact", "flip", "torn", "respaced"]))
    if variant == "flip":
        flipped = bytearray(line)
        flipped[draw(st.integers(0, len(line) - 1))] ^= draw(st.integers(1, 255))
        return bytes(flipped)
    if variant == "torn":
        return line[: draw(st.integers(0, len(line)))]
    if variant == "respaced":
        payload = json.loads(line)
        return (json.dumps(payload, separators=(", ", ": "),
                           sort_keys=draw(st.booleans())) + "\n").encode()
    return line


class TestWalScan:
    """Every scan checks each line's CRC from its bytes, and decodes only
    the records its caller keeps: a rotation, the cut and a record count
    decode none, and ``read_wal`` only the records it returns."""

    @settings(max_examples=300, deadline=None)
    @given(line=wal_lines())
    def test_crc_check_agrees_with_the_codec(self, line):
        assert _wal_epoch(line) == _parsed_epoch(line)

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(wal_lines(), min_size=1, max_size=4))
    def test_scan_agrees_with_a_full_decode(self, lines):
        """Over a whole log, the scan keeps the same intact prefix, counts
        the same discarded lines and returns the same records a line by
        line decode does."""
        blob = b"".join(line if line.endswith(b"\n") else line + b"\n"
                        for line in lines[:-1]) + lines[-1]
        expected, discarded = [], 0
        split = io.BytesIO(blob).readlines()  # lines end at b"\n" only
        for position, line in enumerate(split):
            if _parsed_epoch(line) is None:
                discarded = len(split) - position
                break
            expected.append(parse_wal_line(line.decode("utf-8")))
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            store.wal_path.write_bytes(blob)
            # Below every drawn epoch: the read returns all it kept.
            assert store.read_wal(after_epoch=-4) == expected
            assert store.last_discarded_records == discarded
            assert store.wal_records() == len(expected)

    def test_rotation_cut_and_count_decode_no_record(self, cliques_ring,
                                                     tmp_path, monkeypatch):
        detector = RSLPADetector(
            cliques_ring, seed=5, iterations=ITERATIONS, backend="fast"
        ).fit()
        store = CheckpointStore(tmp_path, keep=1)
        for epoch in range(1, 6):
            store.append_wal(
                epoch, EditBatch.build(insertions=[(0, epoch + 30), (1, epoch + 40)])
            )
        store.close()
        with open(store.wal_path, "ab") as wal:
            wal.write(b'{"epoch":6,"ins":[[0')  # a torn tail for the cut
        decoded = []
        real_loads = json.loads

        def spy(text, *args, **kwargs):
            payload = real_loads(text, *args, **kwargs)
            decoded.append(payload)  # a torn line raises before this
            return payload

        monkeypatch.setattr(json, "loads", spy)
        writer = CheckpointStore(tmp_path, keep=1)
        writer.append_wal(6, EditBatch.build(insertions=[(0, 36)]))  # cuts first
        assert writer.wal_records() == 6
        writer.write_checkpoint(detector.array_state, detector.edge_array(),
                                seed=5, batch_epoch=2)
        assert writer.wal_records() == 4
        assert decoded == []
        # A read decodes the records it returns, and only those.
        assert [e for e, _ in writer.read_wal(after_epoch=4)] == [5, 6]
        assert len(decoded) == 2
        writer.close()


class TestCorruptCheckpointFallback:
    """A corrupt checkpoint *file* falls back to an older retained one.

    Rotation keeps the full WAL tail of the *oldest retained* checkpoint,
    so recovering from an older epoch replays forward to the exact same
    state — the fallback costs replay time, never exactness.
    """

    def run_service(self, tmp_path, num_batches):
        graph = ring_of_cliques(5, 6)
        service = CommunityService(
            graph,
            seed=7,
            iterations=ITERATIONS,
            batch_size=4,
            staleness_batches=0,
            checkpoint_every=2,
            keep_checkpoints=3,
            checkpoint_dir=str(tmp_path),
        ).start()
        stream = EditStream(graph, batch_size=4, seed=13)
        for batch in stream.take(num_batches):
            service.apply(batch)
        return service

    @pytest.mark.parametrize("damage", ["truncate", "flip", "short_header"])
    def test_fallback_recovers_bit_identically(self, tmp_path, damage,
                                               corrupt_checkpoint):
        # Checkpoints at 2, 4, 6; corrupt the latest so recovery falls
        # back to epoch 4 and replays 5..6 from the retained WAL tail.
        service = self.run_service(tmp_path, num_batches=6)
        service.close()
        corrupt_checkpoint(service.store, 6, damage)
        recovered = CommunityService.recover(str(tmp_path),
                                             staleness_batches=0)
        assert recovered.batches_applied == 6
        assert recovered.checkpoint_fallbacks == 1
        assert recovered.stats()["checkpoint_fallbacks"] == 1
        assert_states_identical(service.detector, recovered.detector)
        assert recovered.cover() == service.cover()

    @pytest.mark.parametrize("damage", ["truncate", "flip", "short_header"])
    def test_fallback_two_epochs_deep(self, tmp_path, damage,
                                      corrupt_checkpoint):
        service = self.run_service(tmp_path, num_batches=6)
        service.close()
        corrupt_checkpoint(service.store, 6, damage)
        corrupt_checkpoint(service.store, 4, damage)
        recovered = CommunityService.recover(str(tmp_path),
                                             staleness_batches=0)
        assert recovered.batches_applied == 6
        assert recovered.checkpoint_fallbacks == 2
        assert_states_identical(service.detector, recovered.detector)

    @pytest.mark.parametrize("damage", ["truncate", "flip", "short_header"])
    def test_every_checkpoint_corrupt_raises(self, tmp_path, damage,
                                             corrupt_checkpoint):
        service = self.run_service(tmp_path, num_batches=6)
        service.close()
        for epoch in service.store.checkpoint_epochs():
            corrupt_checkpoint(service.store, epoch, damage)
        with pytest.raises(CorruptCheckpointError):
            CommunityService.recover(str(tmp_path))

    def test_seeded_byte_flips_recover_bit_identically(self, tmp_path):
        """Flip any one byte of the latest checkpoint: recovery either
        never notices (the byte does not matter) or falls back one epoch,
        and lands on the uninterrupted run's exact state either way."""
        service = self.run_service(tmp_path / "run", num_batches=6)
        service.close()
        truth = service.cover()
        original = service.store._checkpoint_path(6).read_bytes()
        rng = random.Random(19)
        fallbacks = Counter()
        for trial in range(40):
            position = rng.randrange(len(original))
            flipped = bytearray(original)
            flipped[position] ^= rng.randrange(1, 256)
            copy = tmp_path / f"flip-{trial}"
            shutil.copytree(tmp_path / "run", copy)
            (copy / "checkpoint-0000000006.npz").write_bytes(bytes(flipped))
            recovered = CommunityService.recover(str(copy), staleness_batches=0)
            assert recovered.checkpoint_fallbacks in (0, 1), position
            assert recovered.batches_applied == 6, position
            assert_states_identical(service.detector, recovered.detector)
            assert recovered.cover() == truth, position
            recovered.close()
            fallbacks[recovered.checkpoint_fallbacks] += 1
        # The seeded flips exercised both outcomes.
        assert fallbacks[0] and fallbacks[1], fallbacks


class TestRotationRace:
    """WAL rotation racing concurrent appends loses no committed record.

    ``append_wal`` and ``write_checkpoint`` (which rewrites the log down
    to the oldest retained checkpoint) serialise on the store's lock; a
    rotation sliding under an appender must neither tear a record nor
    drop one newer than the rotation point.
    """

    def test_concurrent_appends_survive_rotation(self, cliques_ring,
                                                 tmp_path):
        detector = RSLPADetector(
            cliques_ring, seed=5, iterations=ITERATIONS, backend="fast"
        ).fit()
        store = CheckpointStore(tmp_path, keep=2)
        total = 200
        errors = []

        def appender():
            try:
                for epoch in range(1, total + 1):
                    store.append_wal(
                        epoch, EditBatch.build(insertions=[(0, epoch + 30)])
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=appender)
        thread.start()
        # Rotate twice mid-stream — each only once the appender is
        # demonstrably past the rotation point, so the rewrite slides
        # under live appends.  keep=2 retains both checkpoints, so the
        # final log must hold everything after the *older* point (50).
        for rotation_epoch, reached in ((50, 60), (100, 120)):
            while thread.is_alive() and store.wal_records() < reached:
                pass  # busy-poll; contends the store lock on purpose
            store.write_checkpoint(
                detector.array_state, detector.edge_array(), seed=5,
                batch_epoch=rotation_epoch,
            )
        thread.join()
        assert not errors
        store.close()
        assert store.checkpoint_epochs() == [50, 100]
        records = store.read_wal()
        # Every surviving line re-passed its CRC and none after the
        # oldest retained checkpoint went missing or out of order.
        assert store.last_discarded_records == 0
        assert [e for e, _ in records] == list(range(51, total + 1))

    def test_append_reopens_after_rotation(self, cliques_ring, tmp_path):
        # Rotation swaps the log file out from under the open handle; a
        # subsequent append must land in the *new* file, not the unlinked
        # one.
        detector = RSLPADetector(
            cliques_ring, seed=5, iterations=ITERATIONS, backend="fast"
        ).fit()
        store = CheckpointStore(tmp_path, keep=1)
        for epoch in (1, 2):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch + 30)]))
        store.write_checkpoint(detector.array_state, detector.edge_array(), seed=5,
                               batch_epoch=2)
        store.append_wal(3, EditBatch.build(insertions=[(0, 33)]))
        store.close()
        assert [e for e, _ in store.read_wal()] == [3]
