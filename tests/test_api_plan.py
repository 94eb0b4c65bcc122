"""The unified execution-plan API: resolution matrix, shims, registry.

Three contracts are pinned here:

1. **Matrix equivalence** — ``resolve_plan`` makes exactly the backend
   choice the oracle below makes (``fast`` unless ``reference`` is asked
   for, whatever the vertex ids), for every (backend × engine ×
   shard_backend × id layout × multiprocess) cell; the spellings of the
   removed tuple plane and dict shards fail at config time, and no cell
   records an ``engine``, ``shard_backend`` or ``state_format`` decision.
2. **Shim round-trips** — every public keyword still works, maps onto the
   same ``RunPlan``, and produces bit-identical covers per seed.
3. **Registry** — components resolve by name, plugins register uniformly,
   collisions and unknown names fail loudly.
"""

import itertools

import pytest

from repro.api import (
    AlgoConfig,
    ExecutionConfig,
    GraphCaps,
    PARTITIONERS,
    Registry,
    ServicePlanConfig,
    detect,
    plan_for,
    resolve_plan,
    run_distributed,
    update,
)
from repro.core.detector import RSLPADetector
from repro.distributed.worker import CSRShard, build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edits import EditBatch
from repro.graph.partition import ContiguousPartitioner, HashPartitioner

ITERATIONS = 25


def oracle(backend):
    """Whether the local lifecycle runs on the array substrate: it runs
    any vertex ids, so only an explicit ``reference`` avoids it."""
    return backend != "reference"


def layout_graph(contiguous):
    """A 10-vertex ring on ids ``0..9``, or on the gappy ids ``3v + 7``."""
    ids = list(range(10)) if contiguous else [3 * v + 7 for v in range(10)]
    return Graph.from_edges(zip(ids, ids[1:] + ids[:1]))


def substrate_decisions(plan):
    """Plan decisions about the message plane, shard layout or export."""
    return {d.field for d in plan.decisions} & {
        "engine",
        "shard_backend",
        "state_format",
    }


class TestResolutionMatrix:
    @pytest.mark.parametrize(
        "backend,engine,shard_backend,contiguous,multiprocess",
        list(
            itertools.product(
                ("auto", "fast", "reference"),
                ("auto", "reference", "array"),
                ("auto", "dict", "csr"),
                (True, False),
                (True, False),
            )
        ),
    )
    def test_matches_old_resolvers(
        self, backend, engine, shard_backend, contiguous, multiprocess
    ):
        kwargs = dict(
            backend=backend,
            num_workers=3,
            engine=engine,
            shard_backend=shard_backend,
            multiprocess=multiprocess,
        )
        if engine == "reference" or shard_backend == "dict":
            with pytest.raises(ValueError, match="was removed"):
                ExecutionConfig(**kwargs)
            return
        config = ExecutionConfig(**kwargs)
        use_fast = oracle(backend)
        plan = plan_for(layout_graph(contiguous), config)
        assert plan.use_fast == use_fast
        assert plan.backend == ("fast" if use_fast else "reference")
        assert plan.multiprocess == multiprocess
        assert plan.transport == ("shm" if multiprocess else None)
        assert plan.mode == "distributed"
        assert not substrate_decisions(plan)

    def test_local_plan_has_no_distributed_axes(self):
        caps = GraphCaps(num_vertices=4, num_edges=3)
        plan = resolve_plan(caps, ExecutionConfig())
        assert plan.mode == "local"
        assert plan.partitioner is None
        assert plan.transport is None

    def test_csr_input_always_takes_csr_slicer(self, cliques_ring):
        csr = CSRGraph.from_graph(cliques_ring)
        plan = plan_for(csr, ExecutionConfig(num_workers=2, shard_backend="csr"))
        assert plan.mode == "distributed"
        assert not substrate_decisions(plan)
        shards = build_csr_shards(csr, plan.build_partitioner())
        assert all(isinstance(shard, CSRShard) for shard in shards)

    def test_explicit_array_state_format_resolves_on_any_ids(self):
        for contiguous in (True, False):
            plan = plan_for(
                layout_graph(contiguous),
                ExecutionConfig(
                    backend="reference",
                    num_workers=2,
                    state_format="array",
                ),
            )
            assert plan.backend == "reference"
            assert not substrate_decisions(plan)

    def test_invalid_choices_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionConfig(backend="spark")
        with pytest.raises(ValueError, match="engine"):
            ExecutionConfig(engine="spark")
        with pytest.raises(ValueError, match="shard_backend"):
            ExecutionConfig(shard_backend="arrow")
        with pytest.raises(ValueError, match="state_format"):
            ExecutionConfig(state_format="parquet")
        with pytest.raises(ValueError, match="num_workers"):
            ExecutionConfig(num_workers=-1)

    def test_explain_records_requested_and_reason(self):
        plan = plan_for(layout_graph(False), ExecutionConfig(num_workers=2))
        text = plan.explain()
        assert "auto -> fast" in text
        assert "any vertex ids" in text
        assert "state_format" not in text
        assert "(default) -> hash" in text

    def test_graph_caps_probe(self):
        assert GraphCaps.of(Graph.from_edges([(0, 1), (1, 2)])) == GraphCaps(3, 2)
        assert GraphCaps.of(Graph.from_edges([(10, 20)])) == GraphCaps(2, 1)
        assert GraphCaps.of(Graph()) == GraphCaps(0, 0)
        csr = CSRGraph.from_graph(Graph.from_edges([(0, 1)]))
        assert GraphCaps.of(csr) == GraphCaps(2, 1)


class TestDeprecationShims:
    def test_detector_kwargs_and_configs_resolve_same_plan(self, cliques_ring):
        by_kwargs = RSLPADetector(
            cliques_ring, seed=3, iterations=ITERATIONS, backend="reference"
        )
        by_configs = RSLPADetector(
            cliques_ring,
            algo=AlgoConfig(seed=3, iterations=ITERATIONS),
            execution=ExecutionConfig(backend="reference"),
        )
        assert by_kwargs.plan() == by_configs.plan()
        assert by_kwargs.fit().communities() == by_configs.fit().communities()

    def test_detector_rejects_mixed_config_and_kwargs(self, cliques_ring):
        with pytest.raises(ValueError, match="not both"):
            RSLPADetector(
                cliques_ring, backend="fast", execution=ExecutionConfig()
            )
        with pytest.raises(ValueError, match="not both"):
            RSLPADetector(cliques_ring, seed=3, algo=AlgoConfig(seed=3))

    def test_cluster_kwargs_and_config_bit_identical(self, cliques_ring):
        from repro.distributed.cluster import run_distributed_rslpa

        by_kwargs, stats_k = run_distributed_rslpa(
            cliques_ring,
            seed=5,
            iterations=ITERATIONS,
            num_workers=3,
        )
        by_config, stats_c = run_distributed_rslpa(
            cliques_ring,
            seed=5,
            iterations=ITERATIONS,
            config=ExecutionConfig(
                num_workers=3,
                shard_backend="csr",
                engine="array",
                state_format="array",
            ),
        )
        kwargs_state = by_kwargs.to_label_state()
        config_state = by_config.to_label_state()
        assert kwargs_state.labels == config_state.labels
        assert kwargs_state.receivers == config_state.receivers
        assert stats_k.total_messages == stats_c.total_messages
        assert stats_k.total_bytes == stats_c.total_bytes

    def test_cluster_config_without_workers_inherits_wrapper_default(
        self, cliques_ring
    ):
        from repro.distributed.cluster import run_distributed_rslpa

        # The README's own example: a config that only picks the axes must
        # not resolve a local (0-worker) plan inside a distributed wrapper.
        state, stats = run_distributed_rslpa(
            cliques_ring,
            seed=5,
            iterations=ITERATIONS,
            config=ExecutionConfig(shard_backend="csr", engine="array"),
        )
        assert state.num_iterations == ITERATIONS
        assert stats.total_messages > 0

    def test_service_config_forms_bit_identical(self, cliques_ring):
        from repro.service import CommunityService, ServiceConfig

        flat = CommunityService(
            cliques_ring.copy(),
            config=ServiceConfig(seed=3, iterations=ITERATIONS, batch_size=4),
        ).start()
        structured = CommunityService(
            cliques_ring.copy(),
            config=ServicePlanConfig(
                algo=AlgoConfig(seed=3, iterations=ITERATIONS),
                batch_size=4,
            ),
        ).start()
        assert flat.config == structured.config
        assert flat.cover() == structured.cover()
        for service in (flat, structured):
            service.submit_insert(0, 12)
            service.submit_insert(3, 18)
        assert flat.cover() == structured.cover()

    def test_service_plan_config_drives_distributed_start(self, cliques_ring):
        from repro.service import CommunityService

        local = CommunityService(
            cliques_ring.copy(),
            config=ServicePlanConfig(
                algo=AlgoConfig(seed=3, iterations=ITERATIONS)
            ),
        ).start()
        distributed = CommunityService(
            cliques_ring.copy(),
            config=ServicePlanConfig(
                algo=AlgoConfig(seed=3, iterations=ITERATIONS),
                execution=ExecutionConfig(num_workers=2),
            ),
        ).start()  # no start() keywords: workers come from the config
        assert distributed.detector.comm_stats is not None
        assert local.cover() == distributed.cover()


class TestResultObjects:
    def test_detect_result_matches_detector_path(self, cliques_ring):
        result = detect(
            cliques_ring,
            AlgoConfig(seed=1, iterations=ITERATIONS, tau_step=0.005),
        )
        manual = RSLPADetector(
            cliques_ring, seed=1, iterations=ITERATIONS, tau_step=0.005
        ).fit()
        assert result.cover == manual.communities()
        assert result.num_communities == len(manual.communities())
        assert result.plan.mode == "local"
        assert result.comm_stats is None
        assert result.timings["fit_seconds"] >= 0
        assert result.state is result.detector.state

    def test_detect_result_distributed(self, cliques_ring):
        result = detect(
            cliques_ring,
            AlgoConfig(seed=1, iterations=ITERATIONS),
            ExecutionConfig(num_workers=3),
        )
        assert result.plan.mode == "distributed"
        assert result.comm_stats is not None
        local = detect(cliques_ring, AlgoConfig(seed=1, iterations=ITERATIONS))
        assert result.cover == local.cover

    def test_update_result_continues_lifecycle(self, cliques_ring):
        from repro.graph.edits import EditBatch

        result = detect(cliques_ring, AlgoConfig(seed=2, iterations=ITERATIONS))
        batch = EditBatch.build(deletions=[(0, 1)])
        upd = update(result.detector, batch, extract=True)
        assert upd.report.batch_size == 1
        assert upd.cover is not None
        assert upd.plan is result.detector.last_plan

    def test_last_plan_reports_what_actually_ran(self, cliques_ring):
        # A local fit() under a distributed config must record a local plan…
        detector = RSLPADetector(
            cliques_ring,
            algo=AlgoConfig(seed=1, iterations=ITERATIONS),
            execution=ExecutionConfig(num_workers=4),
        ).fit()
        assert detector.last_plan.mode == "local"
        assert detector.comm_stats is None
        # …and fit_distributed(num_workers=0) still runs (and records) a
        # distributed fit instead of letting the plan and the run disagree.
        detector2 = RSLPADetector(
            cliques_ring, seed=1, iterations=ITERATIONS
        ).fit_distributed(num_workers=0)
        assert detector2.last_plan.mode == "distributed"
        assert detector2.last_plan.num_workers == 4
        assert detector2.comm_stats is not None
        assert detector.communities() == detector2.communities()

    def test_empty_graph_fit_records_fast_plan(self):
        detector = RSLPADetector(Graph(), iterations=5).fit()
        assert detector.last_plan.backend == "fast"
        assert detector.array_state.num_vertices == 0
        # The empty state grows like any other: new ids append columns.
        reference = RSLPADetector(Graph(), iterations=5, backend="reference").fit()
        batch = EditBatch.build(insertions=[(4, 9)])
        detector.update(batch)
        reference.update(batch)
        assert sorted(detector.array_state.vertices()) == [4, 9]
        assert detector.label_state.labels == reference.label_state.labels
        detector.array_state.validate(detector.graph)

    def test_service_config_round_trips_through_plan_config(self):
        from repro.service import ServiceConfig
        from repro.service.facade import _flatten_plan_config

        flat = ServiceConfig(seed=9, iterations=50, backend="reference",
                             batch_size=7)
        assert _flatten_plan_config(flat.as_plan_config()) == flat
        # the flat backend wins over a conflicting execution config, the
        # same precedence the service applies to keyword overrides
        structured = flat.as_plan_config(ExecutionConfig(backend="fast",
                                                         num_workers=3))
        assert structured.execution.backend == "reference"
        assert structured.execution.num_workers == 3

    def test_run_distributed_result(self, cliques_ring):
        result = run_distributed(
            cliques_ring, AlgoConfig(seed=2, iterations=ITERATIONS)
        )
        assert result.plan.mode == "distributed"
        assert result.comm_stats.total_messages > 0


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("x", object())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", object())
        registry.register("x", "replacement", overwrite=True)
        assert registry.resolve("x") == "replacement"

    def test_unknown_name_lists_registered(self):
        registry = Registry("thing")
        registry.register("known", 1)
        with pytest.raises(KeyError, match="unknown thing 'missing'"):
            registry.resolve("missing")

    def test_lazy_loader_resolves_once(self):
        registry = Registry("thing")
        calls = []
        registry.register_lazy("lazy", lambda: calls.append(1) or "built")
        assert registry.resolve("lazy") == "built"
        assert registry.resolve("lazy") == "built"
        assert calls == [1]

    def test_failing_lazy_loader_stays_registered(self):
        registry = Registry("thing")
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ImportError("transient")
            return "recovered"

        registry.register_lazy("flaky", flaky)
        with pytest.raises(ImportError):
            registry.resolve("flaky")
        assert "flaky" in registry  # not silently dropped
        assert registry.resolve("flaky") == "recovered"

    def test_builtin_partitioners_resolve(self):
        caps = GraphCaps(num_vertices=8, num_edges=10)
        assert isinstance(
            PARTITIONERS.resolve("hash")(2, caps), HashPartitioner
        )
        ranged = PARTITIONERS.resolve("range")(2, caps)
        assert isinstance(ranged, ContiguousPartitioner)
        assert ranged.num_vertices == 8

    def test_named_partitioner_through_config(self, cliques_ring):
        from repro.distributed.cluster import run_distributed_rslpa

        by_name, _ = run_distributed_rslpa(
            cliques_ring,
            seed=5,
            iterations=ITERATIONS,
            config=ExecutionConfig(num_workers=3, partitioner="range"),
        )
        by_instance, _ = run_distributed_rslpa(
            cliques_ring,
            seed=5,
            iterations=ITERATIONS,
            num_workers=3,
            partitioner=ContiguousPartitioner(3, cliques_ring.num_vertices),
        )
        assert (by_name.labels == by_instance.labels).all()

    def test_plugin_partitioner_round_trip(self, cliques_ring):
        from repro.distributed.cluster import run_distributed_rslpa

        name = "salted-test-partitioner"
        PARTITIONERS.register(
            name, lambda workers, caps: HashPartitioner(workers, salt=7)
        )
        try:
            plan = plan_for(
                cliques_ring,
                ExecutionConfig(num_workers=2, partitioner=name),
            )
            assert plan.partitioner == name
            state, _ = run_distributed_rslpa(
                cliques_ring,
                seed=5,
                iterations=ITERATIONS,
                config=ExecutionConfig(num_workers=2, partitioner=name),
            )
            assert state.num_iterations == ITERATIONS
        finally:
            PARTITIONERS._entries.pop(name, None)

    def test_unknown_partitioner_rejected_at_plan_time(self, cliques_ring):
        with pytest.raises(ValueError, match="unknown partitioner"):
            plan_for(
                cliques_ring,
                ExecutionConfig(num_workers=2, partitioner="nonexistent"),
            )


class TestMultiprocessPlan:
    def test_multiprocess_matches_in_process(self, cliques_ring):
        from repro.distributed.cluster import run_distributed_rslpa

        in_process, stats_i = run_distributed_rslpa(
            cliques_ring, seed=4, iterations=15, num_workers=2
        )
        multiproc, stats_m = run_distributed_rslpa(
            cliques_ring,
            seed=4,
            iterations=15,
            config=ExecutionConfig(num_workers=2, multiprocess=True),
        )
        in_state, mp_state = in_process.to_label_state(), multiproc.to_label_state()
        assert in_state.labels == mp_state.labels
        assert in_state.receivers == mp_state.receivers
        assert stats_i.total_messages == stats_m.total_messages

    def test_multiprocess_update_rejected(self, cliques_ring):
        from repro.distributed.cluster import (
            run_distributed_rslpa,
            run_distributed_update,
        )
        from repro.graph.edits import EditBatch

        state, _ = run_distributed_rslpa(
            cliques_ring, seed=4, iterations=10, num_workers=2
        )
        with pytest.raises(ValueError, match="in place"):
            run_distributed_update(
                cliques_ring,
                state,
                EditBatch.build(deletions=[(0, 1)]),
                seed=4,
                config=ExecutionConfig(num_workers=2, multiprocess=True),
            )


class TestPlanCLI:
    def test_plan_subcommand_prints_provenance(self, tmp_path, cliques_ring):
        import io

        from repro.cli import main
        from repro.graph.io import write_edge_list

        path = str(tmp_path / "graph.txt")
        write_edge_list(cliques_ring, path)
        out = io.StringIO()
        code = main(
            ["plan", path, "--distributed", "4", "--partitioner", "range"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "execution plan:" in text
        assert "partitioner" in text and "partitioner registry" in text
        assert "engine" not in text and "shard_backend" not in text

    def test_plan_subcommand_local(self, tmp_path, cliques_ring):
        import io

        from repro.cli import main
        from repro.graph.io import write_edge_list

        path = str(tmp_path / "graph.txt")
        write_edge_list(cliques_ring, path)
        out = io.StringIO()
        assert main(["plan", path], out=out) == 0
        assert "local fit" in out.getvalue()


class TestTransportResolution:
    """The transport axis: auto rules, plane gating, provenance."""

    CAPS = GraphCaps(num_vertices=60, num_edges=200)

    def test_auto_prefers_shm_on_multiprocess_array(self):
        plan = resolve_plan(
            self.CAPS, ExecutionConfig(num_workers=4, multiprocess=True)
        )
        assert plan.transport == "shm"
        assert any(
            d.field == "transport" and d.value == "shm" for d in plan.decisions
        )

    def test_no_transport_without_multiprocess(self):
        assert resolve_plan(
            self.CAPS, ExecutionConfig(num_workers=4)
        ).transport is None
        assert resolve_plan(self.CAPS, ExecutionConfig()).transport is None

    def test_explicit_transport_recorded_in_summary(self):
        plan = resolve_plan(
            self.CAPS,
            ExecutionConfig(num_workers=4, multiprocess=True, transport="tcp"),
        )
        assert plan.transport == "tcp"
        assert "transport=tcp" in plan.summary()

    def test_column_transport_requires_array_plane(self):
        """shm/tcp carry message columns; only the columnar plane exists."""
        with pytest.raises(ValueError, match="tuple message plane"):
            ExecutionConfig(
                num_workers=4, multiprocess=True, engine="reference",
                transport="shm",
            )
        plan = resolve_plan(
            self.CAPS,
            ExecutionConfig(
                num_workers=4, multiprocess=True, engine="array",
                transport="tcp",
            ),
        )
        assert plan.transport == "tcp"

    def test_explicit_transport_requires_multiprocess(self):
        with pytest.raises(ValueError, match="multiprocess=True"):
            resolve_plan(
                self.CAPS, ExecutionConfig(num_workers=4, transport="shm")
            )

    def test_unknown_transport_rejected_by_config(self):
        with pytest.raises(ValueError, match="transport"):
            ExecutionConfig(transport="carrier-pigeon")

    def test_multiprocess_run_routes_through_resolved_transport(self, cliques_ring):
        from repro.distributed.cluster import run_distributed_slpa

        memories_shm, stats_shm = run_distributed_slpa(
            cliques_ring,
            seed=3,
            iterations=8,
            config=ExecutionConfig(
                num_workers=2, multiprocess=True, transport="shm"
            ),
        )
        memories_ref, stats_ref = run_distributed_slpa(
            cliques_ring, seed=3, iterations=8, num_workers=2
        )
        assert memories_shm == memories_ref
        assert stats_shm.per_superstep == stats_ref.per_superstep


class TestRemovedSubstrateAxes:
    """One message plane and one shard layout: nothing left to choose."""

    CAPS = GraphCaps(num_vertices=60, num_edges=200)

    def test_removed_spellings_raise_naming_what_was_removed(self):
        with pytest.raises(ValueError, match="tuple message plane.*removed"):
            ExecutionConfig(engine="reference")
        with pytest.raises(ValueError, match="dict worker shards.*removed"):
            ExecutionConfig(shard_backend="dict")
        with pytest.raises(ValueError, match="dict LabelState export.*removed"):
            ExecutionConfig(state_format="dict")

    def test_dist_fit_spelling_still_resolves(self):
        config = ExecutionConfig(
            num_workers=2, multiprocess=True, transport="shm", engine="array",
            shard_backend="csr", state_format="array",
        )
        plan = resolve_plan(self.CAPS, config)
        assert plan.transport == "shm"
        assert not substrate_decisions(plan)
        assert "engine" not in plan.explain()
        assert "shard_backend" not in plan.explain()
        assert "state_format" not in plan.explain()

    @pytest.mark.parametrize("backend", ["auto", "reference"])
    def test_auto_transport_is_shm_for_every_multiprocess_run(self, backend):
        for contiguous in (True, False):
            plan = plan_for(
                layout_graph(contiguous),
                ExecutionConfig(
                    backend=backend, num_workers=3, multiprocess=True
                ),
            )
            assert plan.transport == "shm"


class TestFaultToleranceResolution:
    """The fault-tolerance knobs: defaults, provenance, gating."""

    CAPS = GraphCaps(num_vertices=60, num_edges=200)

    def test_off_by_default(self):
        plan = resolve_plan(
            self.CAPS, ExecutionConfig(num_workers=4, multiprocess=True)
        )
        assert plan.fault_tolerance is False
        assert plan.checkpoint_interval is None
        assert plan.max_restarts is None
        assert "fault_tolerance" not in plan.summary()

    def test_defaults_resolved_with_provenance(self):
        plan = resolve_plan(
            self.CAPS,
            ExecutionConfig(
                num_workers=4, multiprocess=True, fault_tolerance=True
            ),
        )
        assert plan.fault_tolerance is True
        assert plan.checkpoint_interval == 4
        assert plan.max_restarts == 3
        assert (
            "fault_tolerance=on (checkpoint_interval=4, max_restarts=3)"
            in plan.summary()
        )
        fields = {d.field: d for d in plan.decisions}
        assert fields["fault_tolerance"].value is True
        assert fields["checkpoint_interval"].value == 4
        assert fields["checkpoint_interval"].requested is None
        assert fields["max_restarts"].value == 3

    def test_explicit_knobs_recorded(self):
        plan = resolve_plan(
            self.CAPS,
            ExecutionConfig(
                num_workers=4,
                multiprocess=True,
                fault_tolerance=True,
                checkpoint_interval=2,
                max_restarts=7,
            ),
        )
        assert plan.checkpoint_interval == 2
        assert plan.max_restarts == 7
        fields = {d.field: d for d in plan.decisions}
        assert fields["checkpoint_interval"].reason == "explicitly requested"
        assert fields["max_restarts"].reason == "explicitly requested"

    def test_requires_multiprocess(self):
        with pytest.raises(ValueError, match="multiprocess=True"):
            resolve_plan(
                self.CAPS,
                ExecutionConfig(num_workers=4, fault_tolerance=True),
            )
        with pytest.raises(ValueError, match="multiprocess=True"):
            resolve_plan(self.CAPS, ExecutionConfig(fault_tolerance=True))

    def test_knobs_require_fault_tolerance(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            resolve_plan(
                self.CAPS,
                ExecutionConfig(
                    num_workers=4, multiprocess=True, checkpoint_interval=2
                ),
            )
        with pytest.raises(ValueError, match="max_restarts"):
            resolve_plan(
                self.CAPS,
                ExecutionConfig(
                    num_workers=4, multiprocess=True, max_restarts=1
                ),
            )

    def test_config_validates_knobs(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ExecutionConfig(checkpoint_interval=0)
        with pytest.raises(ValueError, match="max_restarts"):
            ExecutionConfig(max_restarts=-1)
        with pytest.raises(TypeError):
            ExecutionConfig(fault_tolerance="yes")

    def test_fault_tolerant_run_matches_plain(self, cliques_ring):
        from repro.distributed.cluster import run_distributed_slpa

        memories_ft, stats_ft = run_distributed_slpa(
            cliques_ring,
            seed=3,
            iterations=8,
            config=ExecutionConfig(
                num_workers=2,
                multiprocess=True,
                fault_tolerance=True,
                checkpoint_interval=2,
            ),
        )
        memories_ref, stats_ref = run_distributed_slpa(
            cliques_ring,
            seed=3,
            iterations=8,
            config=ExecutionConfig(num_workers=2, multiprocess=True),
        )
        assert memories_ft == memories_ref
        assert stats_ft.per_superstep == stats_ref.per_superstep
        assert stats_ft.recovery is not None
        assert stats_ft.recovery.checkpoints_taken >= 1
        assert stats_ft.recovery.recoveries == 0
