"""Command-line interface: detect, update, serve, plan, lint, and inspect.

Seven subcommands mirroring the library lifecycle::

    python -m repro.cli detect graph.txt --seed 7 -T 200 \
        --state state.json --cover cover.json
    python -m repro.cli update state.json graph.txt edits.txt \
        --seed 7 --cover cover.json
    python -m repro.cli serve graph.txt --edits edits.txt \
        --checkpoint-dir state/ --query 17 --query 23
    python -m repro.cli plan graph.txt --distributed 4
    python -m repro.cli stats graph.txt
    python -m repro.cli trace run.trace.json --chrome run.chrome.json
    python -m repro.cli lint src/repro --format github --stats

``graph.txt`` is a whitespace edge list (directions/duplicates/self-loops
normalised away, as in the paper's preprocessing); ``edits.txt`` uses the
same format prefixed with ``+``/``-`` per line::

    + 17 23
    - 4 9

All subcommands share one flag vocabulary (:func:`add_algo_args` /
:func:`add_execution_args`) that maps 1:1 onto the config layer
(:class:`~repro.api.config.AlgoConfig`,
:class:`~repro.api.config.ExecutionConfig`); the ``plan`` subcommand
prints :meth:`RunPlan.explain() <repro.api.plan.RunPlan.explain>` — which
backend, state format and transport the flags would resolve to, and why —
without running anything.

The ``update`` subcommand loads a saved label state, applies the batch with
Correction Propagation, saves the state back, and (optionally) re-extracts
the communities — the paper's continuous-monitoring loop as a shell command.

The ``serve`` subcommand runs one session of the
:class:`~repro.service.CommunityService`: fit (or ``--recover`` from a
checkpoint directory), stream the edit file through the coalescing ingest
queue, answer ``--query`` membership lookups from the stable-id index, and
leave a checkpoint + WAL behind for the next session.

Observability rides along on every running subcommand: ``--trace`` records
phase spans and metrics (:mod:`repro.obs`) and prints the phase-timing
summary, ``--trace-out PATH`` saves the full trace as JSON, and
``--metrics PATH`` writes the Prometheus text exposition.  A saved trace is
inspected or converted offline with the ``trace`` subcommand (summary by
default, ``--chrome`` for a chrome://tracing / Perfetto timeline,
``--prometheus`` for the exposition).  Tracing never changes results — runs
are bit-identical with it on or off.

The ``lint`` subcommand runs the static invariant checker
(:mod:`repro.analysis`, rules RPL001–RPL005 plus the RPL000 framework
diagnostics) over source trees: exit 0 clean, 1 on gating findings, 2 on
usage errors — CI-ready.  ``--format github`` emits workflow commands
that annotate the diff; ``--baseline`` grandfathers a committed debt
file; ``--stats`` prints per-rule finding counts and file totals.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.api.config import AlgoConfig, ExecutionConfig, ServicePlanConfig
from repro.api.plan import plan_for
from repro.core.detector import RSLPADetector
from repro.core.serialize import save_cover, save_state
from repro.graph.edits import EditBatch
from repro.graph.io import read_edge_list

__all__ = [
    "main",
    "build_parser",
    "parse_edit_file",
    "iter_edit_file",
    "add_algo_args",
    "add_execution_args",
    "algo_config_from_args",
    "execution_config_from_args",
]


def iter_edit_file(path: str) -> List[Tuple[str, int, int]]:
    """Read a ``+/- u v`` edit file as an ordered list of single edits."""
    edits: List[Tuple[str, int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("+", "-"):
                raise ValueError(
                    f"{path}:{lineno}: expected '+ u v' or '- u v', got {line!r}"
                )
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer vertex id") from exc
            edits.append((parts[0], u, v))
    return edits


def parse_edit_file(path: str) -> EditBatch:
    """Read a ``+/- u v`` edit file into a batch."""
    edits = iter_edit_file(path)
    return EditBatch.build(
        insertions=[(u, v) for op, u, v in edits if op == "+"],
        deletions=[(u, v) for op, u, v in edits if op == "-"],
    )


# ----------------------------------------------------------------------
# Shared flag vocabulary (one declaration per flag, used by every
# subcommand; mapped 1:1 onto the config layer).
# ----------------------------------------------------------------------
def add_algo_args(parser: argparse.ArgumentParser, with_iterations: bool = True) -> None:
    """The :class:`AlgoConfig` flags: --seed, -T/--iterations, --tau-step."""
    parser.add_argument("--seed", type=int, default=0,
                        help="randomness seed (identical results per seed)")
    if with_iterations:
        parser.add_argument("-T", "--iterations", type=int, default=200,
                            help="propagation horizon T (paper default 200)")
    parser.add_argument("--tau-step", type=float, default=0.001,
                        help="grid step of the tau1 entropy sweep")


def add_execution_args(
    parser: argparse.ArgumentParser, with_distributed: bool = True
) -> None:
    """The :class:`ExecutionConfig` flags shared by detect/update/serve/plan."""
    parser.add_argument(
        "--backend",
        choices=("auto", "reference", "fast"),
        default="auto",
        help="lifecycle backend: 'fast' is the vectorised CSR/array "
        "substrate for any vertex ids, 'reference' the pure-Python "
        "engines (bit-identical per seed); 'auto' picks fast",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record phase spans + metrics (repro.obs) and print the "
        "phase-timing summary; results are bit-identical with tracing "
        "on or off, and the instrumentation is a no-op when off",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="save the full trace (spans + metrics + meta) as JSON; "
        "implies --trace; inspect or convert it with `repro trace`",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_out",
        metavar="PATH",
        help="write the run's Prometheus text exposition here; "
        "implies --trace",
    )
    if not with_distributed:
        return
    parser.add_argument(
        "--distributed",
        type=int,
        default=0,
        metavar="N",
        help="run on the simulated BSP cluster with N workers "
        "(0 = local); results are bit-identical either way",
    )
    parser.add_argument(
        "--partitioner",
        default=None,
        metavar="NAME",
        help="registered partitioner name ('hash', 'range', or a plugin "
        "from repro.api.registry.PARTITIONERS); default 'hash'",
    )
    parser.add_argument(
        "--multiprocess",
        action="store_true",
        help="run distributed workers as real OS processes instead of "
        "the in-process simulator (propagation programs only)",
    )
    parser.add_argument(
        "--transport",
        default="auto",
        metavar="NAME",
        help="the multiprocess workers' wire: 'pipe' (pickles over a "
        "pipe), 'shm' (a pipe whose columns travel through zero-copy "
        "shared-memory rings), 'tcp' (pickles over localhost sockets, "
        "column bytes out of band), a plugin from "
        "repro.api.registry.TRANSPORTS, or 'auto' (shm); requires "
        "--multiprocess",
    )
    parser.add_argument(
        "--fault-tolerance",
        action="store_true",
        help="supervise the multiprocess engine: checkpoint a consistent "
        "cut every K supersteps and transparently respawn/replay on "
        "worker death (bit-identical results); requires --multiprocess",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="K",
        help="supersteps between consistent cuts (default: plan-resolved); "
        "requires --fault-tolerance",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        metavar="N",
        help="worker respawns allowed before a crash is surfaced "
        "(default: plan-resolved); requires --fault-tolerance",
    )


def algo_config_from_args(args) -> AlgoConfig:
    return AlgoConfig(
        seed=args.seed,
        iterations=getattr(args, "iterations", AlgoConfig.iterations),
        tau_step=args.tau_step,
    )


def execution_config_from_args(args) -> ExecutionConfig:
    return ExecutionConfig(
        backend=args.backend,
        num_workers=getattr(args, "distributed", 0),
        partitioner=getattr(args, "partitioner", None),
        multiprocess=getattr(args, "multiprocess", False),
        transport=getattr(args, "transport", "auto"),
        fault_tolerance=getattr(args, "fault_tolerance", False),
        checkpoint_interval=getattr(args, "checkpoint_interval", None),
        max_restarts=getattr(args, "max_restarts", None),
        trace=bool(
            getattr(args, "trace", False)
            or getattr(args, "trace_out", None)
            or getattr(args, "metrics_out", None)
        ),
    )


def _write_trace_artifacts(trace_result, args, out) -> None:
    """Emit whatever observability artifacts the flags asked for.

    ``trace_result`` is a :class:`repro.obs.TraceResult` (or ``None`` when
    the executed path records no spans — e.g. a purely local fit).
    """
    wants = (
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
    )
    if not wants:
        return
    if trace_result is None:
        out.write(
            "trace: no spans recorded (tracing covers the distributed "
            "engines and the service plane)\n"
        )
        return
    if args.trace_out:
        trace_result.save(args.trace_out)
        out.write(
            f"trace saved to {args.trace_out} (inspect with `repro trace`)\n"
        )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(trace_result.to_prometheus())
        out.write(f"metrics exposition saved to {args.metrics_out}\n")
    if args.trace:
        out.write(trace_result.summary() + "\n")


def _print_cover(cover, out) -> None:
    payload = {
        "num_communities": len(cover),
        "sizes": cover.sizes(),
        "overlapping_vertices": sorted(cover.overlapping_vertices()),
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def _cmd_detect(args, out) -> int:
    graph = read_edge_list(args.graph)
    # Both backends export a fully-recorded state (so later `update` runs
    # work either way) and are bit-identical per seed; the plan layer
    # negotiates every 'auto' against the graph.
    detector = RSLPADetector(
        graph,
        algo=algo_config_from_args(args),
        execution=execution_config_from_args(args),
    )
    trace_result = None
    if args.distributed:
        # Same fitted state as a local fit (all engines are bit-identical
        # per seed), plus the run's communication accounting.
        detector.fit_distributed()
        out.write(f"distributed fit: {detector.comm_stats.summary()}\n")
        obs = getattr(detector.comm_stats, "obs", None)
        if obs is not None:
            trace_result = obs.result({"command": "detect"})
    else:
        detector.fit()
    cover = detector.communities()
    _write_trace_artifacts(trace_result, args, out)
    if args.state:
        save_state(detector.label_state, args.state)
        out.write(f"label state saved to {args.state}\n")
    if args.cover:
        save_cover(cover, args.cover)
        out.write(f"cover saved to {args.cover}\n")
    _print_cover(cover, out)
    return 0


def _cmd_update(args, out) -> int:
    from repro.core.serialize import load_state

    graph = read_edge_list(args.graph)
    # Either representation may come back (JSON -> LabelState, npz ->
    # ArrayLabelState); the resolved plan decides what it runs on and
    # from_state converts as needed.  Validate first so a corrupt or
    # mismatched file is an input error on every backend.
    state = load_state(args.state)
    batch = parse_edit_file(args.edits)
    state.validate(graph)
    detector = RSLPADetector.from_state(
        graph,
        state,
        seed=args.seed,
        backend=args.backend,
        tau_step=args.tau_step,
        batch_epoch=args.batch_epoch - 1,
    )
    report = detector.update(batch)
    # save_state converts as needed; the target's format follows its suffix.
    save_state(detector.state, args.state)
    out.write(
        f"applied {batch.size} edits: {report.repicked} repicked, "
        f"{report.touched_labels} labels touched; "
        f"state saved to {args.state}\n"
    )
    # Correction Propagation runs in-process with no span sites; honour
    # the trace flags with the notice instead of silently dropping them.
    _write_trace_artifacts(None, args, out)
    if args.cover:
        cover = detector.communities()
        save_cover(cover, args.cover)
        out.write(f"cover saved to {args.cover}\n")
        _print_cover(cover, out)
    return 0


def _service_config_from_args(args) -> ServicePlanConfig:
    """The one :class:`ServicePlanConfig` every ``serve`` path runs."""
    return ServicePlanConfig(
        algo=algo_config_from_args(args),
        execution=execution_config_from_args(args),
        batch_size=args.batch_size,
        staleness_batches=args.staleness,
        checkpoint_every=args.checkpoint_every,
        replicas=args.replicas,
        heartbeat_interval=args.heartbeat_interval,
        max_failovers=args.max_failovers,
        service_transport=args.service_transport,
    )


def _cmd_serve_replicated(args, config: ServicePlanConfig, out) -> int:
    from repro.service import ServiceSupervisor

    if args.recover:
        raise ValueError(
            "--recover is not supported with --replicas: the supervisor's "
            "primary fits fresh and replicas bootstrap from its live state"
        )
    if not args.checkpoint_dir:
        raise ValueError(
            "--replicas requires --checkpoint-dir (replicas bootstrap from "
            "the shared checkpoint + WAL)"
        )
    if not args.graph:
        raise ValueError("a graph file is required with --replicas")
    graph = read_edge_list(args.graph)
    supervisor = ServiceSupervisor(graph, args.checkpoint_dir, config)
    supervisor.start()
    trace_result = None
    try:
        client = supervisor.client()
        if args.edits:
            for op, u, v in iter_edit_file(args.edits):
                supervisor.submit(op, u, v)
            supervisor.flush()
        payload = {
            "stats": supervisor.stats(),
            "plan": supervisor.plan.summary(),
        }
        if args.query:
            memberships = {}
            for v in args.query:
                cids = client.communities_of(v)
                memberships[str(v)] = {
                    "communities": list(cids),
                    "sizes": [len(client.members(c)) for c in cids],
                }
            payload["memberships"] = memberships
            payload["client"] = {
                "queries_served": client.queries_served,
                "stale_serves": client.stale_serves,
                "reroutes": client.reroutes,
            }
        trace_result = supervisor.trace_result()
    finally:
        supervisor.shutdown()
    _write_trace_artifacts(trace_result, args, out)
    json.dump(payload, out, indent=2)
    out.write("\n")
    return 0


def _cmd_serve(args, out) -> int:
    from repro.service import CommunityService

    config = _service_config_from_args(args)
    if args.replicas:
        return _cmd_serve_replicated(args, config, out)
    for knob, value, unset in (
        ("--max-failovers", args.max_failovers, None),
        ("--heartbeat-interval", args.heartbeat_interval, None),
        ("--service-transport", args.service_transport, "auto"),
    ):
        if value != unset:
            raise ValueError(f"{knob} tunes replication and requires --replicas")
    if args.recover:
        if not args.checkpoint_dir:
            raise ValueError("--recover requires --checkpoint-dir")
        service = CommunityService.recover(args.checkpoint_dir, config)
        out.write(
            f"recovered from {args.checkpoint_dir}: "
            f"{service.batches_applied} batches durable\n"
        )
    else:
        if not args.graph:
            raise ValueError("a graph file is required unless --recover is given")
        graph = read_edge_list(args.graph)
        service = CommunityService(
            graph, config=config, checkpoint_dir=args.checkpoint_dir
        )
        service.start()
    if args.edits:
        # The service ingest path proper: single edits in file order through
        # the coalescing queue, windows flushed as they fill.  Unlike
        # `update`, opposite edits of one edge cancel instead of conflicting.
        for op, u, v in iter_edit_file(args.edits):
            service.submit(op, u, v)
        service.flush()
    payload = {"stats": service.stats()}
    if args.query:
        memberships = {}
        for v in args.query:
            cids = service.communities_of(v)
            memberships[str(v)] = {
                "communities": list(cids),
                "sizes": [len(service.members(c)) for c in cids],
            }
        payload["memberships"] = memberships
    trace_result = service.trace_result()
    service.close()
    _write_trace_artifacts(trace_result, args, out)
    json.dump(payload, out, indent=2)
    out.write("\n")
    return 0


def _cmd_plan(args, out) -> int:
    graph = read_edge_list(args.graph)
    plan = plan_for(graph, execution_config_from_args(args))
    out.write(plan.explain() + "\n")
    return 0


def _cmd_trace(args, out) -> int:
    from repro.obs import TraceResult, validate_chrome_trace

    result = TraceResult.load(args.trace_file)
    converted = False
    if args.chrome:
        payload = result.to_chrome_trace()
        validate_chrome_trace(payload)
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        out.write(
            f"chrome trace saved to {args.chrome} "
            "(open in chrome://tracing or ui.perfetto.dev)\n"
        )
        converted = True
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(result.to_prometheus())
        out.write(f"metrics exposition saved to {args.prometheus}\n")
        converted = True
    if not converted:
        out.write(result.summary() + "\n")
    return 0


def _cmd_lint(args, out) -> int:
    from repro.analysis import Baseline, FORMATTERS, lint_paths

    baseline = None
    if args.baseline and not args.write_baseline:
        baseline = Baseline.load(args.baseline)
    report = lint_paths(args.paths, baseline=baseline)
    if args.write_baseline:
        if not args.baseline:
            raise ValueError("--write-baseline requires --baseline PATH")
        # Grandfather the current findings: the rule gates new code at
        # once while the recorded debt is burned down entry by entry.
        Baseline.from_findings(
            report.findings,
            justification="grandfathered when the rule landed; fix and "
            "remove (see DESIGN.md 'Static invariants')",
        ).save(args.baseline)
        out.write(
            f"baseline written to {args.baseline}: "
            f"{len(report.findings)} finding(s) grandfathered\n"
        )
        return 0
    out.write(FORMATTERS[args.format](report, stats=args.stats))
    return report.exit_code(strict=args.strict)


def _cmd_stats(args, out) -> int:
    graph = read_edge_list(args.graph)
    components = graph.connected_components()
    payload = {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "average_degree": round(graph.average_degree(), 3),
        "max_degree": graph.max_degree(),
        "isolated_vertices": len(graph.isolated_vertices()),
        "connected_components": len(components),
        "largest_component": max((len(c) for c in components), default=0),
    }
    json.dump(payload, out, indent=2)
    out.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="rSLPA overlapping community detection (ICDE 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run rSLPA on a static edge list")
    detect.add_argument("graph", help="edge-list file")
    add_algo_args(detect)
    add_execution_args(detect)
    detect.add_argument("--state", help="save the label state here (JSON/npz)")
    detect.add_argument("--cover", help="save the cover here (JSON)")
    detect.set_defaults(func=_cmd_detect)

    update = sub.add_parser(
        "update", help="apply an edit batch to a saved state (Algorithm 2)"
    )
    update.add_argument("state", help="label-state file (updated in place)")
    update.add_argument("graph", help="edge list of the PRE-batch graph")
    update.add_argument("edits", help="edit file: '+ u v' / '- u v' lines")
    add_algo_args(update, with_iterations=False)
    add_execution_args(update, with_distributed=False)
    update.add_argument("--batch-epoch", type=int, default=1,
                        help="1 for the first update after detect, then 2, ...")
    update.add_argument("--cover", help="re-extract and save the cover here")
    update.set_defaults(func=_cmd_update)

    serve = sub.add_parser(
        "serve",
        help="run one community-service session (ingest + query + durability)",
    )
    serve.add_argument(
        "graph",
        nargs="?",
        help="edge-list file (omit with --recover; the checkpoint has the graph)",
    )
    add_algo_args(serve)
    add_execution_args(serve)
    serve.add_argument("--edits", help="edit file streamed through the ingest queue")
    serve.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="ingest micro-batch window (edits per flush)",
    )
    serve.add_argument(
        "--staleness",
        type=int,
        default=4,
        metavar="K",
        help="re-extract lazily once K batches landed since the last extraction",
    )
    serve.add_argument(
        "--checkpoint-dir",
        help="enable durability: npz checkpoints + write-ahead log here",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N applied batches (0 = only at start)",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="restore from --checkpoint-dir (latest checkpoint + WAL replay) "
        "instead of fitting",
    )
    serve.add_argument(
        "--query",
        type=int,
        action="append",
        default=[],
        metavar="V",
        help="report stable community ids of vertex V (repeatable)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help="run under the replication supervisor with N read replicas "
        "(requires --checkpoint-dir; queries survive primary crashes)",
    )
    serve.add_argument(
        "--max-failovers",
        type=int,
        default=None,
        metavar="N",
        help="primary promotions allowed before the supervisor gives up "
        "(default: one per replica; needs --replicas)",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="S",
        help="replica lapse-detection window in seconds "
        "(default 0.5; needs --replicas)",
    )
    serve.add_argument(
        "--service-transport",
        choices=("auto", "pipe", "tcp"),
        default="auto",
        help="supervisor-to-child control wire: 'pipe' (local default) or "
        "'tcp' (localhost sockets; needs --replicas)",
    )
    serve.set_defaults(func=_cmd_serve)

    plan = sub.add_parser(
        "plan",
        help="print the resolved execution plan (and why) without running",
    )
    plan.add_argument("graph", help="edge-list file")
    add_execution_args(plan)
    plan.set_defaults(func=_cmd_plan)

    stats = sub.add_parser("stats", help="print normalised graph statistics")
    stats.add_argument("graph", help="edge-list file")
    stats.set_defaults(func=_cmd_stats)

    lint = sub.add_parser(
        "lint",
        help="statically check the repo's invariants "
        "(determinism, obs-overhead, resource discipline, API hygiene, "
        "concurrency; see repro.analysis)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format; 'github' emits ::error workflow commands "
        "that annotate the offending lines in a PR diff",
    )
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed JSON baseline of grandfathered findings; matched "
        "findings are counted but do not gate (every entry must carry "
        "a justification string)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather the current findings into --baseline PATH "
        "instead of reporting them, then exit 0",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts and analyzed-file totals",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="warning-severity findings also gate (exit 1)",
    )
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace",
        help="inspect or convert a saved trace (--trace-out file): "
        "phase summary, Chrome timeline JSON, Prometheus exposition",
    )
    trace.add_argument(
        "trace_file", help="TraceResult JSON saved by --trace-out"
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        help="export a Chrome trace-event JSON timeline "
        "(chrome://tracing / ui.perfetto.dev)",
    )
    trace.add_argument(
        "--prometheus",
        metavar="PATH",
        help="export the Prometheus text exposition of the run's metrics",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (ValueError, OSError, AssertionError) as exc:
        # AssertionError: a loaded label state failed its invariant checks
        # (corrupt or mismatched file) — an input error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
