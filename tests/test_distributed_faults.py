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

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.engine_array import ArrayBSPEngine
from repro.distributed.faults import FaultPlan
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import FastSLPAPropagationProgram
from repro.distributed.transport import WorkerCrashedError
from repro.distributed.worker import build_csr_shards
from repro.graph.generators import ring_of_cliques
from repro.graph.partition import HashPartitioner

SEED, ITERATIONS = 11, 6
TRANSPORTS = ["pipe", "shm", "tcp"]


# ----------------------------------------------------------------------
# FaultPlan unit tests (no processes involved)
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_singular_and_plural_specs_merge(self):
        plan = FaultPlan(kill=(1, 3), kills=[(0, 2), (1, 3)])
        assert plan.kills == frozenset({(0, 2), (1, 3)})
        assert plan.should_kill(1, 3) and plan.should_kill(0, 2)
        assert not plan.should_kill(1, 2)

    def test_timed_faults_default_to_zero(self):
        plan = FaultPlan(stall=(0, 2, 0.25), delays=[(1, 3, 0.5)])
        assert plan.stall_seconds(0, 2) == 0.25
        assert plan.stall_seconds(0, 3) == 0.0
        assert plan.delay_seconds(1, 3) == 0.5
        assert plan.delay_seconds(0, 0) == 0.0

    def test_invalid_site_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            FaultPlan(kill=3)
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan(drop_send=(-1, 2))
        with pytest.raises(ValueError, match="triple"):
            FaultPlan(stall=(0, 2))
        with pytest.raises(ValueError, match="seconds"):
            FaultPlan(delay=(0, 2, -0.1))

    def test_without_worker_strips_only_that_worker(self):
        plan = FaultPlan(
            kills=[(0, 1), (1, 2)],
            drop_send=(1, 4),
            stall=(1, 3, 0.2),
            torn_snapshot=(0, 2),
        )
        stripped = plan.without_worker(1)
        assert stripped.should_kill(0, 1)
        assert not stripped.should_kill(1, 2)
        assert not stripped.should_drop_send(1, 4)
        assert stripped.stall_seconds(1, 3) == 0.0
        assert stripped.should_tear_snapshot(0, 2)

    def test_pickle_roundtrip_and_value_equality(self):
        plan = FaultPlan(kill=(1, 3), stall=(0, 2, 0.1), torn_snapshot=(0, 4))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert hash(clone) == hash(plan)
        assert clone != FaultPlan(kill=(1, 3))

    def test_bool_and_repr(self):
        assert not FaultPlan()
        plan = FaultPlan(kill=(1, 0))
        assert plan
        assert "kills=[(1, 0)]" in repr(plan)


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
    memories = {}
    for program in programs:
        memories.update(program.collect())
    return memories, _step_tuples(engine.stats)


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
        memories = {}
        for result in engine.collect():
            memories.update(result)
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

    def test_collect_crash_recovers(self, reference):
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
            transport="tcp",
            fault_tolerance=True,
            checkpoint_interval=2,
        ) as engine:
            engine.run()
            os.kill(engine._processes[0].pid, signal.SIGKILL)
            memories = {}
            for result in engine.collect():
                memories.update(result)
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
            fault_plan=FaultPlan(kills=[(0, 1), (1, 4)]),
        ) as engine:
            with pytest.raises(WorkerCrashedError, match="budget"):
                engine.run()

    def test_shutdown_reports_leaked_pids(self, caplog):
        graph, part = _setup()
        shards = build_csr_shards(graph, part)
        factory = partial(FastSLPAPropagationProgram, seed=SEED, iterations=2)
        engine = MultiprocessBSPEngine(shards, part, factory)
        engine.run()

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

        real = engine._processes[0]
        engine._processes[0] = Unkillable()
        try:
            with caplog.at_level("ERROR", logger="repro.distributed.multiprocess"):
                engine.shutdown()
        finally:
            real.join(timeout=10)  # reap the real worker ourselves
        assert engine.leaked_pids == [424242]
        assert any("424242" in record.message for record in caplog.records)


# ----------------------------------------------------------------------
# Chaos: random fault plans must never break bit-identity
# ----------------------------------------------------------------------
sites = st.tuples(st.integers(0, 1), st.integers(0, ITERATIONS))
fault_plans = st.builds(
    FaultPlan,
    kills=st.lists(sites, max_size=2, unique=True),
    drop_sends=st.lists(sites, max_size=1, unique=True),
    stalls=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, ITERATIONS),
            st.floats(0.0, 0.05),
        ),
        max_size=1,
    ),
    torn_snapshots=st.lists(sites, max_size=1, unique=True),
)


class TestChaos:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_plans, interval=st.integers(1, 3))
    def test_random_fault_plans_stay_bit_identical(self, plan, interval):
        graph, part = _setup()
        ref_memories, ref_steps = _reference(graph, part)
        memories, steps, recovery = _faulty_run(
            "pipe", plan, checkpoint_interval=interval, max_restarts=16
        )
        _assert_identical(memories, ref_memories)
        assert steps == ref_steps
        crashes = len(plan.kills) + len(plan.drop_sends)
        assert recovery.recoveries <= crashes
        assert recovery.workers_respawned <= crashes
