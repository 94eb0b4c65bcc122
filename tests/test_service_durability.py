"""Tests for checkpoint/WAL durability and crash recovery.

The contract under test is the paper's operating mode made restartable:
kill the service after an arbitrary batch, ``recover()`` from the latest
checkpoint plus the WAL tail, and the state must be slot-for-slot
identical to the run that was never interrupted — per-seed label matrices
and extracted cover alike, on both backends.
"""

import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import RSLPADetector
from repro.core.labels_array import ArrayLabelState
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.service import CommunityService
from repro.service.durability import (
    CheckpointStore,
    CorruptCheckpointError,
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


def assert_states_identical(da, db):
    sa, sb = matrices(da), matrices(db)
    for name in ("labels", "srcs", "poss", "epochs", "alive", "ids"):
        assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


class TestCheckpointStore:
    def fitted_state(self, graph, seed=5):
        detector = RSLPADetector(
            graph, seed=seed, iterations=ITERATIONS, backend="fast"
        ).fit()
        return detector.array_state, detector.graph

    def test_checkpoint_roundtrip(self, cliques_ring, tmp_path):
        state, graph = self.fitted_state(cliques_ring)
        store = CheckpointStore(tmp_path)
        store.write_checkpoint(state, graph, seed=5, batch_epoch=0)
        ckpt = store.load_checkpoint()
        assert ckpt.seed == 5
        assert ckpt.batch_epoch == 0
        assert ckpt.graph == graph
        for name in ("labels", "srcs", "poss", "epochs"):
            assert np.array_equal(getattr(ckpt.state, name), getattr(state, name))

    def test_version_1_state_and_checkpoint_load(self, cliques_ring, tmp_path):
        """Files written before the id column load as ids 0..n-1."""
        from repro.core.serialize import load_state, state_to_arrays

        state, graph = self.fitted_state(cliques_ring)
        v1 = {k: v for k, v in state_to_arrays(state).items() if k != "ids"}
        v1["version"] = np.array(1, dtype=np.int64)
        np.savez_compressed(tmp_path / "state-v1.npz", **v1)
        loaded = load_state(str(tmp_path / "state-v1.npz"))
        assert loaded.ids.tolist() == list(range(30))
        assert loaded.to_label_state().receivers == state.to_label_state().receivers
        store = CheckpointStore(tmp_path)
        path = store.write_checkpoint(state, graph, seed=5, batch_epoch=4)
        with np.load(path) as arrays:
            payload = {k: arrays[k] for k in arrays.files if k != "ids"}
        payload.update(version=v1["version"], ckpt_version=v1["version"])
        np.savez_compressed(path, **payload)
        ckpt = store.load_checkpoint()
        assert ckpt.batch_epoch == 4 and ckpt.graph == graph
        for name in ("labels", "srcs", "poss", "epochs", "ids"):
            assert np.array_equal(getattr(ckpt.state, name), getattr(state, name))
        ckpt.state.validate(ckpt.graph)

    def test_latest_checkpoint_wins_and_old_pruned(self, cliques_ring, tmp_path):
        state, graph = self.fitted_state(cliques_ring)
        store = CheckpointStore(tmp_path, keep=2)
        for epoch in (0, 3, 7):
            store.write_checkpoint(state, graph, seed=5, batch_epoch=epoch)
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
        assert [e for e, _ in records] == [1, 2]
        assert [b for _, b in records] == batches

    def test_wal_filter_by_epoch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for epoch in (1, 2, 3):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch)]))
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

    def test_checkpoint_rotates_wal(self, cliques_ring, tmp_path):
        state, graph = self.fitted_state(cliques_ring)
        store = CheckpointStore(tmp_path)
        for epoch in (1, 2, 3):
            store.append_wal(epoch, EditBatch.build(insertions=[(0, epoch + 30)]))
        store.write_checkpoint(state, graph, seed=5, batch_epoch=2)
        assert [e for e, _ in store.read_wal()] == [3]

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
    kill_after=st.integers(min_value=0, max_value=6),
    checkpoint_every=st.integers(min_value=1, max_value=3),
)
def test_crash_recovery_is_bit_identical(seed, backend, kill_after, checkpoint_every):
    """Kill after an arbitrary batch: recover() == the uninterrupted run.

    The property quantifies over seeds, backends, kill points, and
    checkpoint cadences (so the replayed WAL tail length varies from zero
    to everything-since-start).
    """
    total_batches = 6
    graph = ring_of_cliques(4, 5)

    # The uninterrupted run, stopped at the kill point for comparison.
    reference = RSLPADetector(
        graph, seed=seed, iterations=ITERATIONS, backend=backend
    ).fit()
    batches = EditStream(graph, batch_size=3, seed=seed + 100).take(total_batches)
    for batch in batches[:kill_after]:
        reference.update(batch)

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

        recovered = CommunityService.recover(
            tmp_dir, backend=backend, staleness_batches=0
        )
        assert recovered.batches_applied == kill_after
        assert_states_identical(reference, recovered.detector)
        assert recovered.cover() == reference.communities()

        # And the recovered service keeps absorbing the rest of the stream
        # exactly as the uninterrupted run would.
        for batch in batches[kill_after:]:
            reference.update(batch)
            recovered.apply(batch)
        assert_states_identical(reference, recovered.detector)
        assert recovered.cover() == reference.communities()
        recovered.close()


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

    def test_flipped_payload_fails_crc(self):
        line = encode_wal_record(7, EditBatch.build(insertions=[(0, 5)]))
        assert parse_wal_line(line.replace('"epoch":7', '"epoch":8')) is None

    def test_torn_line_is_rejected(self):
        line = encode_wal_record(7, EditBatch.build(insertions=[(0, 5)]))
        assert parse_wal_line(line[: len(line) // 2]) is None
        assert parse_wal_line("") is None
        assert parse_wal_line("not json at all\n") is None


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

    def corrupt_checkpoint(self, store, epoch):
        path = store._checkpoint_path(epoch)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])  # torn copy

    def test_fallback_recovers_bit_identically(self, tmp_path):
        # Checkpoints at 2, 4, 6; corrupt the latest so recovery falls
        # back to epoch 4 and replays 5..6 from the retained WAL tail.
        service = self.run_service(tmp_path, num_batches=6)
        service.close()
        self.corrupt_checkpoint(service.store, 6)
        recovered = CommunityService.recover(str(tmp_path),
                                             staleness_batches=0)
        assert recovered.batches_applied == 6
        assert recovered.checkpoint_fallbacks == 1
        assert recovered.stats()["checkpoint_fallbacks"] == 1
        assert_states_identical(service.detector, recovered.detector)
        assert recovered.cover() == service.cover()

    def test_fallback_two_epochs_deep(self, tmp_path):
        service = self.run_service(tmp_path, num_batches=6)
        service.close()
        self.corrupt_checkpoint(service.store, 6)
        self.corrupt_checkpoint(service.store, 4)
        recovered = CommunityService.recover(str(tmp_path),
                                             staleness_batches=0)
        assert recovered.batches_applied == 6
        assert recovered.checkpoint_fallbacks == 2
        assert_states_identical(service.detector, recovered.detector)

    def test_every_checkpoint_corrupt_raises(self, tmp_path):
        service = self.run_service(tmp_path, num_batches=6)
        service.close()
        for epoch in service.store.checkpoint_epochs():
            self.corrupt_checkpoint(service.store, epoch)
        with pytest.raises(CorruptCheckpointError):
            CommunityService.recover(str(tmp_path))


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
                detector.array_state, cliques_ring, seed=5,
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
        store.write_checkpoint(detector.array_state, cliques_ring, seed=5,
                               batch_epoch=2)
        store.append_wal(3, EditBatch.build(insertions=[(0, 33)]))
        assert [e for e, _ in store.read_wal()] == [3]
