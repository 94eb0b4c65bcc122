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

import pytest

from repro.api.config import AlgoConfig, ServicePlanConfig
from repro.api.plan import GraphCaps, resolve_service_plan
from repro.distributed.faults import FaultPlan
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.runtime import PipeWire, TcpWire
from repro.service import ServiceConfig
from repro.service.replication import FailoverExhaustedError, ServiceSupervisor

ITERATIONS = 30

#: Edit script against ring_of_cliques(3, 4): all valid under strict_edits,
#: windowed into 4 batches of 2 by batch_size=2.
EDITS = [
    ("+", 0, 4), ("+", 0, 6), ("-", 0, 1), ("+", 0, 7),
    ("+", 0, 8), ("-", 4, 5), ("+", 0, 9), ("+", 0, 10),
]
TOTAL_SEQS = 4  # len(EDITS) / batch_size


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
    def test_bare_int_kill_primary_means_applied_phase(self):
        plan = FaultPlan(kill_primary=3)
        assert plan.should_kill_primary(3, "applied")
        assert not plan.should_kill_primary(3, "recv")

    def test_kill_primary_phases_are_distinct_sites(self):
        plan = FaultPlan(kill_primaries=[(2, "recv"), (2, "applied")])
        stripped = plan.without_kill_primary(2, "recv")
        assert not stripped.should_kill_primary(2, "recv")
        assert stripped.should_kill_primary(2, "applied")

    def test_without_replica_strips_all_fault_kinds(self):
        plan = FaultPlan(
            kill_replica=(1, 2),
            drop_wal_record=(1, 3),
            stall_heartbeat=(1, 4, 0.5),
        )
        stripped = plan.without_replica(1)
        assert not stripped
        assert plan.should_kill_replica(1, 2)  # original untouched

    def test_invalid_primary_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            FaultPlan(kill_primary=(2, "sideways"))

    def test_primary_seq_must_be_positive(self):
        with pytest.raises(ValueError, match="seq >= 1"):
            FaultPlan(kill_primary=(0, "recv"))

    def test_service_faults_count_toward_truthiness(self):
        assert FaultPlan(kill_primary=2)
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

    def test_requires_strict_edits(self, tmp_path):
        with pytest.raises(ValueError, match="strict_edits"):
            ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path),
                make_config(strict_edits=False),
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

    def test_accepts_flat_config_and_overrides(self, tmp_path):
        sup = ServiceSupervisor(
            ring_of_cliques(3, 4), str(tmp_path),
            ServiceConfig(seed=3, iterations=ITERATIONS, batch_size=2),
            replicas=1, seed=9,
        )
        assert sup.plan.replicas == 1
        assert sup.plan.requested.algo.seed == 9

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
            FaultPlan(kill_primaries=[(2, "applied"), (3, "recv")]),
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 2
        assert stats["promoted_replica"] == 1  # the one replica left
        assert client.queries_served == 2 * len(EDITS)

    def test_failover_budget_exhausted(self, tmp_path):
        with pytest.raises(FailoverExhaustedError, match="max_failovers"):
            run_supervised(
                tmp_path,
                FaultPlan(kill_primaries=[(1, "applied"), (2, "applied")]),
                max_failovers=1,
            )


# ----------------------------------------------------------------------
# Replica-side faults: respawn, re-ship, re-route
# ----------------------------------------------------------------------
class TestReplicaFaults:
    def test_kill_replica_respawns_bit_identical(self, tmp_path,
                                                 baseline_snapshot):
        snapshot, stats, client = run_supervised(
            tmp_path, FaultPlan(kill_replica=(1, 2))
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
            victim = sup._processes[0]
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
            FaultPlan(stall_heartbeat=(0, 2, 0.6)),
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
                kill_replica=(1, 1),
                drop_wal_record=(0, 2),
            ),
        )
        assert snapshot == baseline_snapshot
        assert stats["failovers"] == 1
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
