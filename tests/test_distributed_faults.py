"""Fault-tolerance tests: FaultPlan scripting, checkpoint/replay, respawn.

The load-bearing contract: a ``fault_tolerance=True`` multiprocess run
that loses workers mid-flight must *complete* and produce covers AND
per-superstep CommStats bit-identical to a failure-free run, on every
transport.  Quick per-transport kill tests carry ``smoke`` in their name
so CI can select them with ``-k "fault and smoke"``.
"""

import os
import pickle
import signal
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.config import AlgoConfig, ExecutionConfig, ServicePlanConfig
from repro.core.fast import FastPropagator
from repro.distributed import multiprocess
from repro.distributed.cluster import run_distributed_update
from repro.distributed.engine_array import (
    ArrayBSPEngine,
    ArrayWorkerProgram,
    gather_columns,
)
from repro.distributed.faults import PRIMARY, Event, FaultPlan
from repro.distributed.message_array import register_schema
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import FastSLPAPropagationProgram
from repro.distributed.transport import WorkerCrashedError
from repro.distributed.worker import build_csr_shards
from repro.graph.edits import EditBatch
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.partition import HashPartitioner
from repro.service import ServiceSupervisor
from repro.workloads.dynamic import random_edit_batch
from test_service_replication import EDITS, TOTAL_SEQS, run_supervised

SEED, ITERATIONS = 11, 6
TRANSPORTS = ["pipe", "shm", "tcp"]


# ----------------------------------------------------------------------
# FaultPlan unit tests (no processes involved)
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_one_site_and_a_list_of_sites(self):
        one = FaultPlan(kill=(1, 3))
        assert one.events == (Event("kill", 1, 3, "recv"),)
        many = FaultPlan(kill=[(0, 2), (1, 3), (1, 3)])
        assert many.at(1, 3, "recv") == one.events
        assert many.at(0, 2, "recv") == (Event("kill", 0, 2, "recv"),)
        assert many.at(1, 2, "recv") == ()
        assert len(many.events) == 2  # a repeated site is one event

    def test_each_keyword_is_one_action_at_one_phase(self):
        plan = FaultPlan(
            kill=(0, 1), drop_send=(0, 2), stall=(1, 1, 0.25),
            delay=(1, 2, 0.5), torn_snapshot=(0, 3), drop_wal_record=(1, 4),
            kill_primary=[(5, "recv"), (6, "applied")], torn_wal=(7,),
        )
        assert set(plan.events) == {
            Event("kill", 0, 1, "recv"),
            Event("kill", 0, 2, "reply"),
            Event("stall", 1, 1, "recv", 0.25),
            Event("stall", 1, 2, "reply", 0.5),
            Event("tear", 0, 3, "snapshot"),
            Event("drop", 1, 4, "ship"),
            Event("kill", PRIMARY, 5, "recv"),
            Event("kill", PRIMARY, 6, "reply"),
            Event("tear", PRIMARY, 7, "wal"),
        }
        assert plan.at(1, 1, "reply") == ()  # a site is (child, step, phase)

    def test_events_at_one_site_fire_kill_first(self):
        plan = FaultPlan(stall=(0, 2, 0.1), kill=(0, 2))
        assert [e.action for e in plan.at(0, 2, "recv")] == ["kill", "stall"]

    @pytest.mark.parametrize("kwargs,message", [
        ({"kill": 3}, r"kill fault must be a \(child, step\) tuple, got 3"),
        ({"kill": [1, 3]}, r"kill fault must be a \(child, step\) tuple, got 1"),
        ({"torn_snapshot": (0, 1, 2)}, "torn_snapshot fault must be a"),
        ({"stall": (0, 2)},
         r"stall fault must be a \(child, step, seconds\) tuple"),
        ({"kill_primary": 2},
         r"kill_primary fault must be a \(seq, phase\) tuple, got 2"),
        ({"drop_send": (-2, 2)},
         r"drop_send fault needs child >= 0 \(or PRIMARY\) and step >= 0, "
         r"got \(-2, 2\)"),
        ({"drop_wal_record": (0, -1)}, "drop_wal_record fault needs"),
        ({"delay": (0, 2, -0.1)}, "delay seconds must be >= 0, got -0.1"),
        ({"kill_primary": (2, "sideways")},
         r"kill_primary phase must be one of \('recv', 'applied'\), "
         "got 'sideways'"),
    ])
    def test_validation_messages(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan(**kwargs)

    def test_without_child_strips_only_that_child(self):
        plan = FaultPlan(
            kill=[(0, 1), (1, 2)],
            drop_send=(1, 4),
            stall=(1, 3, 0.2),
            torn_snapshot=(0, 2),
            kill_primary=(2, "recv"),
        )
        stripped = plan.without(child=1)
        assert {e.child for e in stripped.events} == {0, PRIMARY}
        assert stripped.at(0, 1, "recv") and stripped.at(0, 2, "snapshot")
        assert stripped.at(PRIMARY, 2, "recv")
        assert plan.at(1, 2, "recv")  # the original is untouched
        assert not FaultPlan(kill=(1, 2)).without(child=1)

    def test_pickle_roundtrip_and_value_equality(self):
        plan = FaultPlan(kill=(1, 3), stall=(0, 2, 0.1), torn_snapshot=(0, 4))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert hash(clone) == hash(plan)
        assert clone != FaultPlan(kill=(1, 3))
        # Equal by value however the sites were spelled or ordered.
        assert FaultPlan(kill=[(1, 3), (0, 2)]) == FaultPlan(kill=[(0, 2), (1, 3)])
        assert FaultPlan(kill=(1, 3)) == FaultPlan(kill=[(1, 3)])
        assert FaultPlan(kill=[(1, 3), (0, 2)]).without(child=0) == FaultPlan(
            kill=(1, 3)
        )

    def test_truthiness(self):
        assert not FaultPlan()
        assert not FaultPlan(kill=[])
        assert FaultPlan(kill=(1, 0))
        assert FaultPlan(drop_wal_record=(0, 1))


# ----------------------------------------------------------------------
# Shared harness: small graph, array plane, in-process reference
# ----------------------------------------------------------------------
def _setup(workers=2):
    graph = ring_of_cliques(3, 5)
    part = HashPartitioner(workers)
    return graph, part


def _step_tuples(stats):
    return [
        (s.superstep, s.messages, s.remote_messages, s.bytes, s.remote_bytes)
        for s in stats.per_superstep
    ]


def _memories(shards, results):
    """Gathered SLPA memory columns as ``vertex -> memory list``."""
    ids, columns = gather_columns(shards, results)
    return dict(zip(ids.tolist(), columns["memory"].T.tolist()))


def _same(a, b):
    eq = a == b
    return eq.all() if hasattr(eq, "all") else bool(eq)


def _assert_identical(got, ref):
    assert set(got) == set(ref)
    for key in ref:
        assert _same(got[key], ref[key]), f"collect mismatch at {key!r}"


def _reference(graph, part):
    """Failure-free in-process ground truth: (memories, superstep stats)."""
    shards = build_csr_shards(graph, part)
    engine = ArrayBSPEngine(shards, part)
    programs = engine.run(
        [
            FastSLPAPropagationProgram(s, seed=SEED, iterations=ITERATIONS)
            for s in shards
        ]
    )
    return (
        _memories(shards, [program.collect() for program in programs]),
        _step_tuples(engine.stats),
    )


@pytest.fixture(scope="module")
def reference():
    graph, part = _setup()
    return _reference(graph, part)


def _faulty_run(transport, fault_plan, checkpoint_interval=2, max_restarts=3):
    """One fault-tolerant multiprocess run: (memories, steps, recovery)."""
    graph, part = _setup()
    shards = build_csr_shards(graph, part)
    factory = partial(FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS)
    with MultiprocessBSPEngine(
        shards,
        part,
        factory,
        transport=transport,
        fault_tolerance=True,
        checkpoint_interval=checkpoint_interval,
        max_restarts=max_restarts,
        fault_plan=fault_plan,
    ) as engine:
        stats = engine.run()
        memories = _memories(shards, engine.collect())
    return memories, _step_tuples(stats), engine.recovery


def _shm_segments():
    # Dynamic half of the resource-discipline contract; the static half
    # is lint rule RPL003, which rejects SharedMemory/socket creations
    # in transport.py that cannot reach a close() on every path.
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-tmpfs platform: skip the leak check
        return set()


# ----------------------------------------------------------------------
# Per-transport kill/recovery smokes (CI selects these: -k "fault and smoke")
# ----------------------------------------------------------------------
class TestKillRecovery:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_recovery_bit_identical_smoke(self, transport, reference):
        ref_memories, ref_steps = reference
        before = _shm_segments()
        memories, steps, recovery = _faulty_run(
            transport, FaultPlan(kill=(1, 3))
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.recoveries == 1
        assert recovery.workers_respawned == 1
        assert recovery.checkpoints_taken >= 1
        assert recovery.supersteps_replayed >= 1
        assert _shm_segments() <= before  # recovery leaks no shm segments

    def test_kill_at_start_barrier_smoke(self, reference):
        # Superstep 0 dies before any cut exists: full reset + re-start.
        ref_memories, ref_steps = reference
        memories, steps, recovery = _faulty_run("pipe", FaultPlan(kill=(0, 0)))
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.recoveries == 1

    def test_second_death_during_recovery(self, reference):
        # Worker 0 dies at once; worker 1 stalls, then dies in the same
        # superstep while the driver is rewinding for worker 0.  That
        # second death must start another recovery round, not escape.
        ref_memories, ref_steps = reference
        plan = FaultPlan(kill=(0, 1), drop_send=(1, 1), stall=(1, 1, 1.0))
        memories, steps, recovery = _faulty_run(
            "pipe", plan, checkpoint_interval=1
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.recoveries == 2
        assert recovery.workers_respawned == 2


# ----------------------------------------------------------------------
# Recovery while a payload larger than the kernel buffers is in flight
# ----------------------------------------------------------------------
#: Test-only wide schema: 7 fields + dst = 64 bytes a row, so each
#: worker's outbox is 8 MiB a superstep — larger than a pipe's buffer and
#: than Linux's default maximum socket send buffer (``tcp_wmem``, 4 MiB).
BIG_KIND = "fbig"
BIG_FIELDS = ("a", "b", "c", "d", "e", "f", "g")
register_schema(BIG_KIND, BIG_FIELDS)
BIG_ROWS = (8 << 20) // (8 * (len(BIG_FIELDS) + 1))
BIG_SUPERSTEPS = 3


class BigRelayProgram(ArrayWorkerProgram):
    """Re-emits 8 MiB of columns every superstep, addressed across every
    vertex, and folds each inbox into a per-vertex checksum."""

    def __init__(self, shard, num_vertices):
        super().__init__(shard)
        self.num_vertices = num_vertices
        self.checksum = np.zeros(len(shard.local_ids), dtype=np.int64)

    def _send(self, ctx, superstep):
        dst = np.arange(BIG_ROWS, dtype=np.int64) % self.num_vertices
        salt = 1000 * superstep + self.shard.worker_id
        ctx.send_columns(
            BIG_KIND, dst,
            *(dst * (k + 2) + salt for k in range(len(BIG_FIELDS))),
        )

    def on_start(self, ctx):
        self._send(ctx, 0)

    def on_superstep(self, ctx, superstep, inbox):
        dst, *fields = inbox.columns(BIG_KIND)
        np.add.at(
            self.checksum,
            np.searchsorted(self.shard.local_ids, dst),
            sum(fields),
        )
        if superstep < BIG_SUPERSTEPS:
            self._send(ctx, superstep)

    def collect(self):
        return {"checksum": self.checksum}


def _big_relay_run(transport=None, fault_plan=None):
    """(gathered checksums, superstep stats, recovery) of a 2-worker relay;
    ``transport=None`` runs it on the in-process engine."""
    graph, part = _setup()
    shards = build_csr_shards(graph, part)
    factory = partial(BigRelayProgram, num_vertices=graph.num_vertices)
    if transport is None:
        engine = ArrayBSPEngine(shards, part)
        programs = engine.run([factory(shard) for shard in shards])
        results = [program.collect() for program in programs]
        return gather_columns(shards, results), _step_tuples(engine.stats), None
    with MultiprocessBSPEngine(
        shards, part, factory, transport=transport, fault_tolerance=True,
        checkpoint_interval=2, fault_plan=fault_plan,
    ) as engine:
        stats = engine.run()
        results = engine.collect()
    return gather_columns(shards, results), _step_tuples(stats), engine.recovery


class TestLargePayloadRecovery:
    @pytest.mark.parametrize("fault", ["kill", "drop_send"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_with_payload_beyond_kernel_buffers_smoke(
        self, transport, fault
    ):
        # Worker 0 dies at superstep 2, at recv (``kill``) or at reply
        # (``drop_send``), while worker 1 pushes its 8 MiB outbox: that
        # message is still in flight when recovery drains worker 1.
        (ref_ids, ref_columns), ref_steps, _ = _big_relay_run()
        assert ref_steps[0][3] >= 2 * (8 << 20)  # bytes routed a superstep
        before = _shm_segments()
        (ids, columns), steps, recovery = _big_relay_run(
            transport, FaultPlan(**{fault: (0, 2)})
        )
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(columns["checksum"], ref_columns["checksum"])
        assert steps == ref_steps
        assert recovery.recoveries == 1
        assert recovery.workers_respawned == 1
        assert _shm_segments() <= before


# Crash at every superstep on the reference transport; the cheaper spot
# checks keep the slower transports honest without tripling the wall time
# (the every-(worker, superstep) × transport sweep lives in the benchmark).
KILL_MATRIX = [("pipe", w, s) for w in (0, 1) for s in range(ITERATIONS + 1)] + [
    (transport, 1, s)
    for transport in ("shm", "tcp")
    for s in (0, ITERATIONS // 2, ITERATIONS)
]


class TestCrashMatrix:
    @pytest.mark.parametrize("transport,worker,superstep", KILL_MATRIX)
    def test_kill_everywhere_bit_identical(
        self, transport, worker, superstep, reference
    ):
        ref_memories, ref_steps = reference
        memories, steps, recovery = _faulty_run(
            transport, FaultPlan(kill=(worker, superstep))
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.recoveries == 1
        assert recovery.workers_respawned == 1


# ----------------------------------------------------------------------
# Correction Propagation under worker kills
# ----------------------------------------------------------------------
#: Supersteps of the failure-free 2-worker repair below (asserted by the
#: reference fixture, so a change to the batch cannot silently shrink
#: the sweep).
CORRECTION_SUPERSTEPS = 6
CORRECTION_ITERATIONS = 10
CORRECTION_FIELDS = ("ids", "alive", "labels", "srcs", "poss", "epochs")


def _correction_inputs():
    """A fresh fitted (graph, state) and a batch whose cascade crosses
    workers for several supersteps and creates vertex 90."""
    graph = erdos_renyi(40, 0.1, seed=1)
    fit = FastPropagator(graph, seed=SEED)
    fit.propagate(CORRECTION_ITERATIONS)
    edits = random_edit_batch(graph, 6, seed=2)
    batch = EditBatch.build(
        insertions=set(edits.insertions) | {(0, 90)}, deletions=edits.deletions
    )
    return graph, fit.to_array_state(), batch


def _inject(monkeypatch, fault_plan):
    """Script ``fault_plan`` into every engine the cluster wrappers build
    (``run_distributed_update`` has no fault-injection knob)."""
    monkeypatch.setattr(
        multiprocess,
        "MultiprocessBSPEngine",
        partial(multiprocess.MultiprocessBSPEngine, fault_plan=fault_plan),
    )


def _correction_run(transport):
    """One fault-tolerant 2-worker multiprocess repair; returns (state,
    steps, recovery)."""
    graph, state, batch = _correction_inputs()
    config = ExecutionConfig(
        num_workers=2, multiprocess=True, transport=transport,
        fault_tolerance=True, checkpoint_interval=2,
    )
    _, state, stats = run_distributed_update(
        graph, state, batch, seed=SEED, config=config
    )
    return state, _step_tuples(stats), stats.recovery


@pytest.fixture(scope="module")
def correction_reference():
    """Failure-free run on the in-process engine: (state, steps)."""
    graph, state, batch = _correction_inputs()
    _, state, stats = run_distributed_update(
        graph, state, batch, seed=SEED, config=ExecutionConfig(num_workers=2)
    )
    assert stats.supersteps == CORRECTION_SUPERSTEPS
    return state, _step_tuples(stats)


def _assert_same_state(got, ref):
    for name in CORRECTION_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.to_label_state().receivers == ref.to_label_state().receivers


CORRECTION_KILLS = [
    ("pipe", w, s) for w in (0, 1) for s in range(CORRECTION_SUPERSTEPS + 1)
] + [
    (transport, 1, s)
    for transport in ("shm", "tcp")
    for s in (0, CORRECTION_SUPERSTEPS // 2, CORRECTION_SUPERSTEPS)
]


class TestCorrectionCrashMatrix:
    """A fault-tolerant repair replays every kill bit-identically."""

    @pytest.mark.parametrize("transport,worker,superstep", CORRECTION_KILLS)
    def test_kill_everywhere_bit_identical(
        self, transport, worker, superstep, correction_reference, monkeypatch
    ):
        ref_state, ref_steps = correction_reference
        _inject(monkeypatch, FaultPlan(kill=(worker, superstep)))
        state, steps, recovery = _correction_run(transport)
        _assert_same_state(state, ref_state)
        assert steps == ref_steps
        assert recovery.recoveries == 1
        assert recovery.workers_respawned == 1

    def test_correction_kill_recovery_smoke(self, correction_reference, monkeypatch):
        ref_state, ref_steps = correction_reference
        _inject(monkeypatch, FaultPlan(kill=(1, 3)))
        state, steps, recovery = _correction_run("pipe")
        _assert_same_state(state, ref_state)
        assert steps == ref_steps
        assert recovery.recoveries == 1

    @pytest.mark.parametrize("new_vertex", [False, True])
    def test_failed_repair_leaves_state_alone(self, new_vertex, monkeypatch):
        """Without fault tolerance a killed worker fails the repair, and
        the caller's graph and state are exactly as they were."""
        graph, state, batch = _correction_inputs()
        if not new_vertex:
            batch = EditBatch.build(
                insertions=[e for e in batch.insertions if 90 not in e],
                deletions=batch.deletions,
            )
        before = {name: getattr(state, name).copy() for name in CORRECTION_FIELDS}
        receivers = state.to_label_state().receivers
        edges, vertices = set(graph.edges()), set(graph.vertices())
        _inject(monkeypatch, FaultPlan(kill=(1, 2)))
        with pytest.raises(WorkerCrashedError):
            run_distributed_update(
                graph, state, batch, seed=SEED,
                config=ExecutionConfig(num_workers=2, multiprocess=True),
            )
        for name, array in before.items():
            assert np.array_equal(getattr(state, name), array), name
        assert state.to_label_state().receivers == receivers
        assert set(graph.edges()) == edges and set(graph.vertices()) == vertices


# ----------------------------------------------------------------------
# The other fault kinds
# ----------------------------------------------------------------------
class TestFaultKinds:
    def test_drop_send_recovers_bit_identical(self, reference):
        ref_memories, ref_steps = reference
        memories, steps, recovery = _faulty_run(
            "pipe", FaultPlan(drop_send=(0, 2))
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.recoveries == 1

    def test_torn_snapshot_falls_back_to_older_cut(self, reference):
        # The cut at superstep 2 is torn, so the kill at 3 must replay
        # from the superstep-0 cut — more replay, same bits.
        ref_memories, ref_steps = reference
        memories, steps, recovery = _faulty_run(
            "pipe", FaultPlan(torn_snapshot=(0, 2), kill=(1, 3))
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.checkpoints_torn >= 1
        assert recovery.recoveries == 1
        assert recovery.supersteps_replayed >= 3

    def test_stall_and_delay_are_not_crashes(self, reference):
        ref_memories, ref_steps = reference
        memories, steps, recovery = _faulty_run(
            "pipe", FaultPlan(stall=(1, 2, 0.2), delay=(0, 3, 0.1))
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        assert recovery.recoveries == 0
        assert recovery.workers_respawned == 0

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_collect_crash_recovers(self, reference, transport):
        # A worker lost between run() and collect() forces a replay from
        # the final (quiescence) cut; collect must still return full bits.
        ref_memories, _ = reference
        graph, part = _setup()
        shards = build_csr_shards(graph, part)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
        )
        with MultiprocessBSPEngine(
            shards,
            part,
            factory,
            transport=transport,
            fault_tolerance=True,
            checkpoint_interval=2,
        ) as engine:
            engine.run()
            os.kill(engine._wire._processes[0].pid, signal.SIGKILL)
            memories = _memories(shards, engine.collect())
            assert engine.recovery.recoveries == 1
        _assert_identical(memories, ref_memories)


# ----------------------------------------------------------------------
# Policy knobs, back-compat, shutdown accounting
# ----------------------------------------------------------------------
class TestPolicy:
    def test_constructor_validation(self):
        graph, part = _setup()
        shards = build_csr_shards(graph, part)
        factory = partial(FastSLPAPropagationProgram, seed=SEED, iterations=2)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            MultiprocessBSPEngine(shards, part, factory, checkpoint_interval=0)
        with pytest.raises(ValueError, match="max_restarts"):
            MultiprocessBSPEngine(shards, part, factory, max_restarts=-1)
        with pytest.raises(TypeError, match="fault_plan"):
            MultiprocessBSPEngine(shards, part, factory, fault_plan=[(1, 0)])

    def test_without_fault_tolerance_crash_still_raises_smoke(self):
        # Back-compat: the scripted kill surfaces as WorkerCrashedError.
        graph, part = _setup()
        shards = build_csr_shards(graph, part)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
        )
        with MultiprocessBSPEngine(
            shards,
            part,
            factory,
            fault_plan=FaultPlan(kill=(1, 2)),
        ) as engine:
            with pytest.raises(WorkerCrashedError) as excinfo:
                engine.run()
            assert excinfo.value.worker_id == 1

    def test_respawn_budget_exhausted_raises(self):
        # Two scripted kills on different workers against max_restarts=1:
        # the second crash exceeds the budget and must surface.
        graph, part = _setup()
        shards = build_csr_shards(graph, part)
        factory = partial(
            FastSLPAPropagationProgram, seed=SEED, iterations=ITERATIONS
        )
        with MultiprocessBSPEngine(
            shards,
            part,
            factory,
            fault_tolerance=True,
            checkpoint_interval=2,
            max_restarts=1,
            fault_plan=FaultPlan(kill=[(0, 1), (1, 4)]),
        ) as engine:
            with pytest.raises(WorkerCrashedError, match="budget"):
                engine.run()

    @pytest.mark.parametrize("supervisor", ["engine", "service"])
    def test_shutdown_reports_leaked_pids(self, caplog, tmp_path, supervisor):
        # Both supervisors share one stop -> SIGTERM -> SIGKILL escalation.
        if supervisor == "engine":
            graph, part = _setup()
            shards = build_csr_shards(graph, part)
            factory = partial(
                FastSLPAPropagationProgram, seed=SEED, iterations=2
            )
            owner = MultiprocessBSPEngine(shards, part, factory)
            owner.run()
        else:
            owner = ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path),
                ServicePlanConfig(
                    algo=AlgoConfig(seed=SEED, iterations=ITERATIONS),
                    replicas=1,
                ),
            ).start()

        class Unkillable:
            """A process handle SIGKILL never fells (uninterruptible sleep)."""

            pid = 424242

            def is_alive(self):
                return True

            def join(self, timeout=None):
                pass

            def terminate(self):
                pass

            def kill(self):
                pass

        real = owner._wire._processes[0]
        owner._wire._processes[0] = Unkillable()
        try:
            with caplog.at_level("ERROR", logger="repro.runtime"):
                owner.shutdown()
        finally:
            real.join(timeout=10)  # reap the real child ourselves
        assert not real.is_alive()
        assert owner.leaked_pids == [424242]
        assert any("424242" in record.message for record in caplog.records)


# ----------------------------------------------------------------------
# Chaos: one fault plan over both planes must never break bit-identity
# ----------------------------------------------------------------------
# A site (child, step) strikes worker ``child`` at superstep ``step`` of
# the fit and replica ``child`` at WAL seq ``step`` of the service (seqs
# run 1..TOTAL_SEQS there; the other steps fire in the fit only).
sites = st.tuples(st.integers(0, 1), st.integers(0, ITERATIONS))
# Stalls stay far below the service's 0.5 s heartbeat, so none lapses.
timed_sites = st.tuples(
    st.integers(0, 1), st.integers(0, ITERATIONS), st.floats(0.0, 0.05)
)
fault_plans = st.builds(
    FaultPlan,
    kill=st.lists(sites, max_size=2, unique=True),
    drop_send=st.lists(sites, max_size=1),
    stall=st.lists(timed_sites, max_size=1),
    delay=st.lists(timed_sites, max_size=1),
    torn_snapshot=st.lists(sites, max_size=1),
    drop_wal_record=st.lists(sites, max_size=1),
    # At most max_failovers (= replicas = 2) primary kills.  Replica kills
    # respawn at once, so no election finds every replica dead.
    kill_primary=st.lists(
        st.tuples(
            st.integers(1, TOTAL_SEQS), st.sampled_from(["recv", "applied"])
        ),
        max_size=2,
        unique=True,
    ),
)

#: One plan with every keyword, survivable on both planes.
BOTH_PLANES = FaultPlan(
    kill=(1, 3),
    drop_send=(0, 2),
    stall=(0, 1, 0.05),
    delay=(1, 4, 0.05),
    torn_snapshot=(0, 4),
    drop_wal_record=(1, 2),
    kill_primary=(3, "applied"),
    torn_wal=(4,),
)


@pytest.fixture(scope="module")
def service_reference(tmp_path_factory):
    """The failure-free 2-replica supervised run's snapshot."""
    snapshot, stats, _client = run_supervised(
        tmp_path_factory.mktemp("service-reference")
    )
    assert stats["failovers"] == 0
    return snapshot


class TestChaos:
    @staticmethod
    def _check_both_planes(plan, interval, reference, service_reference,
                           state_dir):
        ref_memories, ref_steps = reference
        memories, steps, recovery = _faulty_run(
            "pipe", plan, checkpoint_interval=interval, max_restarts=16
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        crashes = sum(
            event.action == "kill" and event.child != PRIMARY
            for event in plan.events
        )
        assert recovery.recoveries <= crashes
        assert recovery.workers_respawned <= crashes
        snapshot, _stats, client = run_supervised(state_dir, plan)
        assert snapshot == service_reference
        assert client.queries_served == 2 * len(EDITS)

    def test_one_plan_over_both_planes_smoke(
        self, reference, service_reference, tmp_path
    ):
        self._check_both_planes(
            BOTH_PLANES, 2, reference, service_reference, tmp_path
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_plans, interval=st.integers(1, 3))
    def test_random_plans_over_both_planes(
        self, plan, interval, reference, service_reference, tmp_path_factory
    ):
        self._check_both_planes(
            plan, interval, reference, service_reference,
            tmp_path_factory.mktemp("chaos"),
        )
