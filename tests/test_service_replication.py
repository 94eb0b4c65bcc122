"""Tests for the replication plane: WAL shipping, failover, availability.

The contract under test is the module's headline claim: a supervised
primary + replicas topology subjected to scripted service-plane faults
(primary kills at every WAL sequence point, replica kills, dropped
records, heartbeat stalls) converges to the *bit identical* cover and
stable-id assignment of a failure-free run, while client queries keep
being answered (stale serves allowed and counted, errors not).
"""

import os
import signal
import time

import pytest

from repro.api.config import AlgoConfig, ExecutionConfig, ServicePlanConfig
from repro.api.plan import GraphCaps, resolve_service_plan
from repro.distributed.faults import PRIMARY, Event, FaultPlan
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.runtime import PipeWire, TcpWire
from repro.service import CheckpointStore, CommunityService
from repro.service.durability import encode_wal_record
from repro.service.replication import FailoverExhaustedError, ServiceSupervisor

ITERATIONS = 30

#: Edit script against ring_of_cliques(3, 4): every edit valid when applied,
#: windowed into 4 batches of 2 by batch_size=2.
EDITS = [
    ("+", 0, 4), ("+", 0, 6), ("-", 0, 1), ("+", 0, 7),
    ("+", 0, 8), ("-", 4, 5), ("+", 0, 9), ("+", 0, 10),
]
TOTAL_SEQS = 4  # len(EDITS) / batch_size

#: The batches the supervisor windows EDITS into, by WAL seq.
WINDOWS = [
    EditBatch.build(
        insertions=[(u, v) for op, u, v in EDITS[i:i + 2] if op == "+"],
        deletions=[(u, v) for op, u, v in EDITS[i:i + 2] if op == "-"],
    )
    for i in range(0, len(EDITS), 2)
]


def make_config(**overrides) -> ServicePlanConfig:
    base = dict(
        algo=AlgoConfig(seed=3, iterations=ITERATIONS),
        batch_size=2,
        staleness_batches=2,
        checkpoint_every=2,
        keep_checkpoints=2,
        replicas=2,
    )
    base.update(overrides)
    return ServicePlanConfig(**base)


def run_supervised(tmp_path, fault_plan=None, query_each_step=True,
                   **config_overrides):
    """One full supervised session over EDITS; returns (snapshot, stats,
    client) after a clean shutdown."""
    config = make_config(**config_overrides)
    sup = ServiceSupervisor(
        ring_of_cliques(3, 4), str(tmp_path), config, fault_plan=fault_plan
    ).start()
    try:
        client = sup.client()
        for op, u, v in EDITS:
            sup.submit(op, u, v)
            if query_each_step:
                # The availability claim: no query errors while faults fire.
                client.communities_of(0)
                client.overlap(0, 1)
        snapshot = sup.snapshot()
        stats = sup.stats()
    finally:
        sup.shutdown()
    return snapshot, stats, client


@pytest.fixture(scope="module")
def baseline_snapshot(tmp_path_factory):
    """The failure-free supervised run every faulted run must match."""
    snapshot, stats, _client = run_supervised(
        tmp_path_factory.mktemp("baseline"), fault_plan=None
    )
    assert stats["failovers"] == 0
    return snapshot


# ----------------------------------------------------------------------
# Plan resolution
# ----------------------------------------------------------------------
class TestServicePlanResolution:
    CAPS = GraphCaps(num_vertices=12, num_edges=21)

    def test_defaults_resolved_with_provenance(self):
        plan = resolve_service_plan(self.CAPS, make_config())
        assert plan.replicated
        assert plan.replicas == 2
        assert plan.service_transport == "pipe"
        assert plan.heartbeat_interval == 0.5
        assert plan.max_failovers == 2  # one promotion per replica
        fields = {d.field for d in plan.decisions}
        assert {"replicas", "service_transport", "heartbeat_interval",
                "max_failovers"} <= fields
        assert "replicated service" in plan.explain()

    def test_explicit_transport_respected(self):
        plan = resolve_service_plan(
            self.CAPS, make_config(service_transport="tcp")
        )
        assert plan.service_transport == "tcp"

    def test_unreplicated_plan_has_no_topology(self):
        plan = resolve_service_plan(self.CAPS, make_config(replicas=0))
        assert not plan.replicated
        assert plan.service_transport is None
        assert plan.heartbeat_interval is None

    @pytest.mark.parametrize(
        "knob", [{"heartbeat_interval": 0.1}, {"max_failovers": 1},
                 {"service_transport": "tcp"}]
    )
    def test_replication_knobs_without_replicas_rejected(self, knob):
        with pytest.raises(ValueError, match="replicas > 0"):
            resolve_service_plan(self.CAPS, make_config(replicas=0, **knob))

    def test_transports_registered(self):
        from repro.api.registry import SERVICE_TRANSPORTS

        assert SERVICE_TRANSPORTS.resolve("pipe") is PipeWire
        assert SERVICE_TRANSPORTS.resolve("tcp") is TcpWire


# ----------------------------------------------------------------------
# FaultPlan service-plane faults
# ----------------------------------------------------------------------
class TestServiceFaults:
    def test_kill_primary_phases_are_primary_events(self):
        plan = FaultPlan(kill_primary=[(2, "recv"), (3, "applied")])
        assert plan.at(PRIMARY, 2, "recv") == (Event("kill", PRIMARY, 2, "recv"),)
        assert plan.at(PRIMARY, 3, "reply") == (
            Event("kill", PRIMARY, 3, "reply"),
        )
        assert plan.at(PRIMARY, 2, "reply") == ()
        assert plan.at(0, 2, "recv") == ()  # the role, not replica 0
        # "applied" is the reply seam: the same event drop_send scripts.
        assert FaultPlan(kill_primary=(3, "applied")) == FaultPlan(
            drop_send=(PRIMARY, 3)
        )

    def test_strip_one_fired_primary_kill_keeps_its_other_phase(self):
        plan = FaultPlan(kill_primary=[(2, "recv"), (2, "applied")])
        (fired,) = plan.at(PRIMARY, 2, "recv")
        stripped = plan.without(event=fired)
        assert stripped.at(PRIMARY, 2, "recv") == ()
        assert stripped.at(PRIMARY, 2, "reply")
        assert plan.at(PRIMARY, 2, "recv")  # the original is untouched

    def test_replica_keywords_are_the_worker_events(self):
        # One spelling for both planes: replica 1 at WAL seq 2.
        plan = FaultPlan(
            kill=(1, 2), drop_send=(1, 3), stall=(1, 4, 0.5), delay=(1, 5, 0.5),
            drop_wal_record=(1, 6),
        )
        assert [e.phase for e in plan.events] == [
            "ship", "recv", "reply", "recv", "reply",
        ]
        stripped = plan.without(child=1)
        assert not stripped
        assert plan.at(1, 6, "ship")  # the original is untouched

    def test_torn_wal_is_a_primary_tear_at_its_append(self):
        plan = FaultPlan(torn_wal=[(3,), (5,)])
        assert plan.at(PRIMARY, 3, "wal") == (Event("tear", PRIMARY, 3, "wal"),)
        assert plan.at(PRIMARY, 3, "recv") == ()
        assert plan.at(0, 3, "wal") == ()  # the role, not replica 0
        assert plan.without(event=plan.events[0]).events == (
            Event("tear", PRIMARY, 5, "wal"),
        )
        with pytest.raises(ValueError, match=r"torn_wal fault must be a \(seq,\) tuple"):
            FaultPlan(torn_wal=3)

    def test_invalid_primary_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            FaultPlan(kill_primary=(2, "sideways"))

    def test_service_faults_count_toward_truthiness(self):
        assert FaultPlan(kill_primary=(2, "applied"))
        assert FaultPlan(drop_wal_record=(0, 1))
        assert not FaultPlan()


# ----------------------------------------------------------------------
# Supervisor validation
# ----------------------------------------------------------------------
class TestSupervisorValidation:
    def test_requires_replicas(self, tmp_path):
        with pytest.raises(ValueError, match="replicas >= 1"):
            ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path), make_config(replicas=0)
            )

    def test_requires_checkpoint_every(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path),
                make_config(checkpoint_every=0),
            )

    def test_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ServiceSupervisor(ring_of_cliques(3, 4), None, make_config())

    def test_accepts_config_and_overrides(self, tmp_path):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            make_config(replicas=0, batch_size=4),
            replicas=1, seed=9, batch_size=2, backend="reference",
        )
        assert sup.plan.replicas == 1
        requested = sup.plan.requested
        assert (requested.seed, requested.iterations) == (9, ITERATIONS)
        assert (requested.batch_size, requested.backend) == (2, "reference")
        # The repro.service docstring example's form: keywords alone.
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), replicas=2, seed=7
        )
        assert (sup.plan.replicas, sup.plan.requested.seed) == (2, 7)
        with pytest.raises(TypeError, match="replica_count"):
            ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path), replica_count=2
            )

    def test_children_run_local_and_untraced(self, tmp_path):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            make_config(execution=ExecutionConfig(
                backend="reference", trace=True,
            )),
        )
        assert sup.obs is not None  # trace=True traces the supervisor
        config = sup._child_args("primary", -1)[3]
        assert config.execution == ExecutionConfig(backend="reference")
        assert config.algo == sup.plan.requested.algo
        assert config.replicas == 2

    @pytest.mark.parametrize(
        "execution",
        [
            ExecutionConfig(num_workers=2),
            ExecutionConfig(num_workers=2, multiprocess=True),
            ExecutionConfig(multiprocess=True),
        ],
        ids=["simulated", "multiprocess", "multiprocess-flag"],
    )
    def test_refuses_a_fit_its_children_never_run(self, tmp_path, execution):
        with pytest.raises(ValueError, match="daemon processes"):
            ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path),
                make_config(execution=execution),
            )

    @pytest.mark.parametrize(
        "method, args",
        [("submit", ("+", 0, 4)), ("submit_insert", (0, 4)),
         ("submit_delete", (0, 1))],
    )
    def test_submit_takes_no_timeout(self, tmp_path, method, args):
        sup = ServiceSupervisor(ring_of_cliques(3, 4), str(tmp_path),
                                make_config())
        with pytest.raises(TypeError):
            getattr(sup, method)(*args, timeout=0.05)

    def test_invalid_batch_refused_before_commit(self, tmp_path):
        """The primary validates a batch before its WAL append: a refused
        batch consumes no sequence number and reaches no replica, and the
        session then goes on as if it had never been submitted."""
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), make_config(replicas=1)
        ).start()
        try:
            with pytest.raises(ValueError, match="already present"):
                sup.apply(EditBatch.build(insertions=[(0, 1)]))
            with pytest.raises(ValueError, match="not present"):
                sup.apply(EditBatch.build(deletions=[(0, 4)]))
            assert sup.stats()["committed_seq"] == 0
            assert sup.apply(WINDOWS[0]) == 1
            stats = sup.stats()
            assert stats["committed_seq"] == 1
            assert [r["acked"] for r in stats["replicas"].values()] == [1]
            assert stats["failovers"] == 0
        finally:
            sup.shutdown()

    def test_queries_require_start(self, tmp_path):
        sup = ServiceSupervisor(ring_of_cliques(3, 4), str(tmp_path),
                                make_config())
        with pytest.raises(RuntimeError, match="not started"):
            sup.stats()


# ----------------------------------------------------------------------
# Replication happy path (CI smoke subset lives here)
# ----------------------------------------------------------------------
class TestReplicationSmoke:
    def test_failure_free_smoke(self, tmp_path, baseline_snapshot):
        snapshot, stats, client = run_supervised(tmp_path, fault_plan=None)
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 0
        assert stats["promoted_replica"] is None
        assert stats["committed_seq"] == TOTAL_SEQS
        # Every replica fully caught up by shutdown.
        for replica in stats["replicas"].values():
            assert replica["acked"] == TOTAL_SEQS
            assert not replica["stalled"]
        # Queries were served by replicas, none errored.
        assert client.queries_served == 2 * len(EDITS)
        assert client.primary_fallbacks == 0

    def test_replica_bootstrapped_from_array_export_serves_primary_snapshot_smoke(
        self, tmp_path
    ):
        """A replica bootstrapped from the primary's exported index (the
        cover ships as arrays) serves the primary's snapshot, from the
        bootstrap on and after each committed batch."""
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), make_config(replicas=1)
        ).start()
        try:
            for step, (op, u, v) in enumerate(EDITS):
                if step % 2 == 0:  # before each batch, then after the last
                    self._assert_replica_matches(sup)
                sup.submit(op, u, v)
            self._assert_replica_matches(sup)
        finally:
            sup.shutdown()

    @staticmethod
    def _assert_replica_matches(sup):
        deadline = time.monotonic() + 30.0
        while True:
            snapshot, applied = sup.query_replica(0, "snapshot", (), timeout=5.0)
            if applied >= sup.committed_seq or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert applied == sup.committed_seq
        assert snapshot == sup.snapshot()

    def test_kill_primary_failover_smoke(self, tmp_path, baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(kill_primary=(2, "applied"))
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 1
        assert stats["promoted_replica"] == 0  # freshest; ties break low
        assert stats["replayed_records"] == 1  # the applied-but-unacked batch
        assert client.queries_served == 2 * len(EDITS)

    def test_finish_returns_replicated_result(self, tmp_path):
        config = make_config()
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), config,
            fault_plan=FaultPlan(kill_primary=(1, "applied")),
        ).start()
        sup.submit_insert(0, 4)
        sup.submit_insert(0, 6)
        result = sup.finish()
        assert result.failovers == 1
        assert result.promoted_replica == 0
        assert result.replayed_records == 1
        assert len(result.cover) > 0
        assert result.plan.replicated


# ----------------------------------------------------------------------
# The kill-the-primary matrix: every seq point, both phases, both wires
# ----------------------------------------------------------------------
class TestKillPrimaryMatrix:
    @pytest.mark.parametrize("seq", range(1, TOTAL_SEQS + 1))
    @pytest.mark.parametrize("phase", ["recv", "applied"])
    def test_pipe_kill_bit_identical(self, tmp_path, baseline_snapshot,
                                     seq, phase):
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(kill_primary=(seq, phase))
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 1
        assert stats["promoted_replica"] is not None
        # A recv-phase kill loses the record in flight (nothing durable,
        # nothing to replay); an applied-phase kill leaves it in the WAL
        # for the promotion to replay.
        assert stats["replayed_records"] == (1 if phase == "applied" else 0)
        assert client.queries_served == 2 * len(EDITS)

    @pytest.mark.parametrize("phase", ["recv", "applied"])
    def test_tcp_kill_bit_identical(self, tmp_path, baseline_snapshot, phase):
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(kill_primary=(2, phase)),
            service_transport="tcp",
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 1
        assert client.queries_served == 2 * len(EDITS)

    def test_tcp_failure_free_matches_pipe(self, tmp_path, baseline_snapshot):
        snapshot, stats, _client = run_supervised(
            tmp_path, fault_plan=None, service_transport="tcp"
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 0

    def test_chained_failovers_bit_identical(self, tmp_path,
                                             baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path,
            FaultPlan(kill_primary=[(2, "applied"), (3, "recv")]),
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 2
        assert stats["promoted_replica"] == 1  # the one replica left
        assert client.queries_served == 2 * len(EDITS)

    def test_failover_budget_exhausted(self, tmp_path):
        with pytest.raises(FailoverExhaustedError, match="max_failovers"):
            run_supervised(
                tmp_path,
                FaultPlan(kill_primary=[(1, "applied"), (2, "applied")]),
                max_failovers=1,
            )


# ----------------------------------------------------------------------
# Replica-side faults: respawn, re-ship, re-route
# ----------------------------------------------------------------------
class TestReplicaFaults:
    def test_kill_replica_respawns_bit_identical(self, tmp_path,
                                                 baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(drop_send=(1, 2))
        )
        assert snapshot == baseline_snapshot
        assert stats["replica_respawns"] == 1
        assert stats["replicas"][1]["respawns"] == 1
        # The respawned replica caught back up.
        acked = [r["acked"] for r in stats["replicas"].values()]
        assert acked == [TOTAL_SEQS, TOTAL_SEQS]
        assert client.queries_served == 2 * len(EDITS)

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_replica_killed_while_idle_is_respawned(self, tmp_path,
                                                    transport):
        # The replica dies between batches, so the next pump finds it dead
        # while draining late acks, before any record ships.
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            make_config(replicas=1, service_transport=transport),
        ).start()
        try:
            sup.apply(EditBatch.build(insertions=[(0, 4), (0, 6)]))
            victim = sup._wire._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            sup.apply(EditBatch.build(insertions=[(0, 7)], deletions=[(0, 1)]))
            sup.client().communities_of(0)
            assert sup.stats()["replica_respawns"] == 1
            replica, _applied = sup.query_replica(
                0, "snapshot", (), timeout=None
            )
            assert replica == sup.snapshot()
        finally:
            sup.shutdown()

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_primary_found_dead_while_a_replica_respawns(self, tmp_path,
                                                         transport):
        # Replica 0 and the primary die while idle.  Reading replica 0
        # respawns it, and the respawn's index export finds the primary
        # dead: the failover must neither query nor elect replica 0.
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            make_config(service_transport=transport),
        ).start()
        try:
            sup.apply(EditBatch.build(insertions=[(0, 4), (0, 6)]))
            for cid in (0, -1):
                victim = sup._wire._processes[cid]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                assert not victim.is_alive()
            replica, _applied = sup.query_replica(
                0, "snapshot", (), timeout=None
            )
            assert replica == sup.snapshot()
            stats = sup.stats()
            assert (stats["failovers"], stats["promoted_replica"]) == (1, 1)
            assert stats["replica_respawns"] == 1
            assert sorted(stats["replicas"]) == [0]
        finally:
            sup.shutdown()

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_respawn_past_corrupt_checkpoint_smoke(
        self, tmp_path, baseline_snapshot, corrupt_checkpoint, damage
    ):
        # Two batches leave checkpoints 0 and 2.  With 2 damaged, the
        # respawned replica must fall back to checkpoint 0 and replay the
        # retained WAL tail, as recover() does.
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), make_config()
        ).start()
        try:
            half = len(EDITS) // 2
            for op, u, v in EDITS[:half]:
                sup.submit(op, u, v)
            store = CheckpointStore(tmp_path)
            assert store.checkpoint_epochs() == [0, 2]
            corrupt_checkpoint(store, 2, damage)
            victim = sup._wire._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # A fresh client reads replica 0 first, which finds it dead.
            client = sup.client()
            client.communities_of(0)
            for op, u, v in EDITS[half:]:
                sup.submit(op, u, v)
                client.communities_of(0)
                client.overlap(0, 1)
            assert sup.stats()["replica_respawns"] >= 1
            replica, _applied = sup.query_replica(
                0, "snapshot", (), timeout=None
            )
            assert replica == sup.snapshot() == baseline_snapshot
            stats, _applied = sup.query_replica(0, "stats", (), timeout=None)
            assert stats["role"] == "replica"
            assert stats["checkpoint_fallbacks"] == 1
        finally:
            sup.shutdown()

    def test_promoted_replica_cuts_torn_wal_tail_smoke(
        self, tmp_path, baseline_snapshot
    ):
        # The primary dies while appending record 3: part of the record is
        # on disk.  The promoted replica appends record 3 again; unless its
        # first append cuts the torn line away, the record lands behind it
        # and a recovery from disk stops at epoch 2.
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            make_config(checkpoint_every=TOTAL_SEQS + 1),
            fault_plan=FaultPlan(kill_primary=(3, "recv")),
        ).start()
        try:
            half = len(EDITS) // 2
            for op, u, v in EDITS[:half]:
                sup.submit(op, u, v)
            with open(CheckpointStore(tmp_path).wal_path, "ab") as wal:
                wal.write(b'{"epoch":3,"ins":[[0,8]')
            for op, u, v in EDITS[half:]:
                sup.submit(op, u, v)
            snapshot = sup.snapshot()
            stats = sup.stats()
        finally:
            sup.shutdown()
        assert stats["failovers"] == 1
        assert stats["committed_seq"] == TOTAL_SEQS
        assert snapshot == baseline_snapshot
        recovered = CommunityService.recover(str(tmp_path))
        assert recovered.batches_applied == TOTAL_SEQS
        assert recovered.wal_discarded_records == 0
        assert set(recovered.cover()) == set(snapshot.values())
        recovered.close()

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_scripted_torn_wal_append_is_cut_by_promoted_primary_smoke(
        self, tmp_path, baseline_snapshot, transport
    ):
        """``torn_wal=(3,)``: the primary appends half of record 3's line,
        fsyncs and dies.  The promoted replica reads the half line as a
        torn tail, its first append cuts it away, and the run ends on the
        unfaulted run's cover and stable ids, with every read answered and
        the log holding exactly the encoder's lines."""
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(torn_wal=(3,)),
            checkpoint_every=TOTAL_SEQS + 1, service_transport=transport,
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 1
        assert stats["promoted_replica"] is not None
        assert stats["committed_seq"] == TOTAL_SEQS
        # The promotion found the half line and had nothing to replay.
        assert stats["wal_discarded_records"] == 1
        assert stats["replayed_records"] == 0
        assert client.queries_served == 2 * len(EDITS)
        wal = CheckpointStore(tmp_path).wal_path
        assert wal.read_text() == "".join(
            encode_wal_record(seq, batch) for seq, batch in enumerate(WINDOWS, 1)
        )
        recovered = CommunityService.recover(str(tmp_path))
        assert recovered.batches_applied == TOTAL_SEQS
        assert recovered.wal_discarded_records == 0
        assert set(recovered.cover()) == set(snapshot.values())
        recovered.close()

    def test_dropped_wal_record_is_reshipped(self, tmp_path,
                                             baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(drop_wal_record=(0, 2))
        )
        assert snapshot == baseline_snapshot
        assert stats["wal_reships"] >= 1
        acked = [r["acked"] for r in stats["replicas"].values()]
        assert acked == [TOTAL_SEQS, TOTAL_SEQS]
        assert client.queries_served == 2 * len(EDITS)

    def test_heartbeat_stall_reroutes_not_errors(self, tmp_path,
                                                 baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path,
            FaultPlan(delay=(0, 2, 0.6)),
            heartbeat_interval=0.15,
        )
        assert snapshot == baseline_snapshot
        # Queries kept being answered throughout the stall window.
        assert client.queries_served == 2 * len(EDITS)
        # The healthy replica stayed caught up; the stalled one is either
        # marked lapsed or has recovered by shutdown (the 0.6s stall can
        # outlast this short run, so both outcomes are legal).
        assert stats["replicas"][1]["acked"] == TOTAL_SEQS
        lagging = stats["replicas"][0]
        assert lagging["stalled"] or lagging["acked"] == TOTAL_SEQS

    def test_combined_faults_bit_identical(self, tmp_path,
                                           baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path,
            FaultPlan(
                kill_primary=(3, "applied"),
                drop_send=(1, 1),
                drop_wal_record=(0, 2),
            ),
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 1
        assert client.queries_served == 2 * len(EDITS)


# ----------------------------------------------------------------------
# Cross-plane injection: the BSP worker keywords strike replicas too
# ----------------------------------------------------------------------
class TestCrossPlaneFaults:
    """``kill``, ``drop_send`` and ``stall`` script a worker's superstep
    in the BSP engine and, with the same site, a replica's WAL seq here."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(kill=(0, 2)),  # on receiving record 2
        FaultPlan(drop_send=(0, 2)),  # after applying it, before the ack
    ], ids=["kill", "drop_send"])
    def test_replica_kill_respawns_bit_identical(self, tmp_path,
                                                 baseline_snapshot, plan):
        snapshot, stats, client = run_supervised(tmp_path, plan)
        assert snapshot == baseline_snapshot
        assert stats["replica_respawns"] == 1
        assert stats["replicas"][0]["respawns"] == 1
        acked = [r["acked"] for r in stats["replicas"].values()]
        assert acked == [TOTAL_SEQS, TOTAL_SEQS]
        assert client.queries_served == 2 * len(EDITS)

    def test_replica_stall_lapses_and_reroutes(self, tmp_path,
                                               baseline_snapshot):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            make_config(heartbeat_interval=0.15),
            fault_plan=FaultPlan(stall=(0, 2, 0.6)),
        ).start()
        try:
            client = sup.client()
            for op, u, v in EDITS:
                committed = sup.submit(op, u, v)
                if committed == 2:
                    # Replica 0 sleeps on receiving record 2: it missed
                    # the heartbeat and queries go to replica 1 meanwhile.
                    assert sup.live_replicas() == [1]
                client.communities_of(0)
                client.overlap(0, 1)
            snapshot = sup.snapshot()
        finally:
            sup.shutdown()
        assert snapshot == baseline_snapshot
        assert client.queries_served == 2 * len(EDITS)


# ----------------------------------------------------------------------
# Client semantics
# ----------------------------------------------------------------------
class TestReplicatedClient:
    def test_semantic_errors_propagate(self, tmp_path):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), make_config()
        ).start()
        try:
            client = sup.client()
            with pytest.raises(KeyError, match="no live community"):
                client.members(999)
        finally:
            sup.shutdown()

    def test_client_attempts_validated(self, tmp_path):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), make_config()
        )
        with pytest.raises(ValueError, match="attempts"):
            sup.client(attempts=0)

    def test_round_robin_spreads_over_replicas(self, tmp_path):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path), make_config()
        ).start()
        try:
            client = sup.client()
            for _ in range(6):
                client.communities_of(0)
            assert client.queries_served == 6
            assert client.primary_fallbacks == 0
        finally:
            sup.shutdown()


# ----------------------------------------------------------------------
# CLI exposure
# ----------------------------------------------------------------------
class TestServeReplicatedCLI:
    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_serve_with_replicas(self, tmp_path):
        import json

        from repro.graph.io import write_edge_list

        graph_file = str(tmp_path / "graph.txt")
        write_edge_list(ring_of_cliques(3, 4), graph_file)
        edits_file = tmp_path / "edits.txt"
        edits_file.write_text(
            "".join(f"{op} {u} {v}\n" for op, u, v in EDITS[:4])
        )
        code, output = self.run_cli(
            "serve", graph_file,
            "--edits", str(edits_file),
            "--checkpoint-dir", str(tmp_path / "state"),
            "--replicas", "2", "--batch-size", "2", "--staleness", "2",
            "-T", str(ITERATIONS), "--seed", "3",
            "--query", "0",
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["stats"]["failovers"] == 0
        assert payload["stats"]["committed_seq"] == 2
        assert "replicated service" in payload["plan"]
        assert payload["client"]["queries_served"] >= 1

    def test_replication_knobs_require_replicas(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        graph_file = str(tmp_path / "graph.txt")
        write_edge_list(ring_of_cliques(3, 4), graph_file)
        code, _output = self.run_cli(
            "serve", graph_file, "--max-failovers", "3"
        )
        assert code == 2  # clean CLI error, not a traceback
        assert "requires --replicas" in capsys.readouterr().err

    def test_recover_with_replicas_rejected(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        graph_file = str(tmp_path / "graph.txt")
        write_edge_list(ring_of_cliques(3, 4), graph_file)
        code, _output = self.run_cli(
            "serve", graph_file, "--recover", "--replicas", "2",
            "--checkpoint-dir", str(tmp_path / "state"),
        )
        assert code == 2
        assert "--recover" in capsys.readouterr().err

    def test_distributed_fit_with_replicas_rejected(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        graph_file = str(tmp_path / "graph.txt")
        write_edge_list(ring_of_cliques(3, 4), graph_file)
        code, output = self.run_cli(
            "serve", graph_file, "--replicas", "1", "--distributed", "2",
            "--checkpoint-dir", str(tmp_path / "state"),
        )
        assert code == 2
        assert output == ""  # no plan printed for a fit that never runs
        assert "daemon processes" in capsys.readouterr().err
        assert not (tmp_path / "state").exists()
