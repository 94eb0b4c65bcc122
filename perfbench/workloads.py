"""The four benchmark workloads over the rSLPA service loop.

Each workload builds its inputs from the seed alone (:meth:`make_inputs`),
then :meth:`execute` sets the program up ``setups`` times, drives it from
one client in a closed loop (every call waits for its reply), and checks
its outputs against an oracle the repository trusts.  The graphs are fixed
datasets and the services run one fixed deployment (the seeds are
constants below); the seed picks the edit stream, the offer order and the
query vertices, and the rSLPA seed of the distributed fit.

The amount of work is a fixed function of ``--seconds`` (a nominal rate
per workload), so one seed and one run length always give the same inputs
and the same counts, and a run measures about ``--seconds`` on a 2-vCPU
x86 machine.

Checks run after the timed region with every timing shim removed; a
failed check fails the run.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import random
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.distributed as distributed
import repro.workloads.lfr as lfr_module
from repro import RSLPADetector
from repro.api.config import AlgoConfig, ExecutionConfig, ServicePlanConfig
from repro.core.communities import Cover
from repro.core.fast import FastPropagator
from repro.core.postprocess import extract_communities
from repro.core.tracking import assign_stable_ids
from repro.distributed.faults import FaultPlan
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edits import EditBatch
from repro.service import CommunityService, ReplicaLapsedError, ServiceSupervisor
from repro.workloads.dynamic import EditStream
from repro.workloads.lfr import LFRParams
from repro.workloads.webgraph import WebGraphParams, generate_webgraph

clock = time.perf_counter

#: Generator seed of every fixed dataset (the webgraph substitute and LFR).
DATASET_SEED = 7
#: rSLPA seed of every service deployment.
SERVICE_SEED = 3

#: The speed probe's time at the reference speed: its median, in seconds,
#: on a 2-vCPU Xeon VM in an uncontended period.
REFERENCE_PROBE_S = 0.050
#: Passes per probe; the probe's time is their median, since one pass is
#: short enough that a single preemption moves it by half.
PROBE_PASSES = 3
_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 100_000)


def speed_probe() -> float:
    """Time one fixed pass of dict-heavy interpreter work and numpy sorting.

    No library code runs in it, so its time tracks the host's speed alone.
    On a shared VM that speed drifts by up to 2x over seconds to minutes,
    and the drift moves whole runs and whole sets of runs.  Timed before
    and after each set-up and unit of work, outside the timed region, the
    probe lets every workload report its times at the reference speed.
    Between units the program's own processes are idle or finishing, so
    the probe times the host, not a queue behind the program.
    """
    t0 = clock()
    counts: Dict[int, int] = {}
    for i in range(100_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    np.unique(_PROBE_KEYS)
    np.argsort(_PROBE_KEYS, kind="stable")
    return clock() - t0


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: Latency of the workload's unit of work, in ms.
    op_ms: List[float] = field(default_factory=list)
    #: Latency of the reads issued between units of work, in µs.
    read_us: List[float] = field(default_factory=list)
    #: Wall time of the timed region (the sum of its segments).
    wall_s: float = 0.0
    #: Edits applied (label slots computed, for a fit) in the timed region.
    work: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    peak_rss_self_mb: float = 0.0
    peak_rss_child_mb: float = 0.0
    #: ``(name, passed, detail)`` per output check.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Counts the program reported (repeat exactly per seed).
    counts: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Work done by each unit (edits applied, label slots computed).
    op_work: List[int] = field(default_factory=list)
    #: :func:`speed_probe` times: one before the first set-up, then one
    #: after each set-up and after each unit of work, so every set-up and
    #: unit sits between two probes.
    probes: List[float] = field(default_factory=list)
    #: The passes behind each probe, kept in the run record.
    probe_passes: List[List[float]] = field(default_factory=list)

    def probe(self) -> None:
        passes = [speed_probe() for _ in range(PROBE_PASSES)]
        self.probe_passes.append(passes)
        self.probes.append(median(passes))

    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran, over the
        whole run."""
        return median(self.probes) / REFERENCE_PROBE_S

    def at_reference(self, samples: List[float], first: int) -> List[float]:
        """``samples`` (times) scaled to the reference speed, each by the
        mean of the probes just before and just after it; ``probes[first]``
        is the one before ``samples[0]``.  The host's speed moves within
        seconds, so a probe next to each sample tracks it better than one
        factor for the whole run."""
        p = self.probes
        return [s * 2.0 * REFERENCE_PROBE_S / (p[first + i] + p[first + i + 1])
                for i, s in enumerate(samples)]

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception(exc)).strip())

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def reset_peak_rss() -> None:
    """Start this process's peak-RSS count afresh (Linux ``clear_refs``).

    Called after the inputs are made, so the peak covers the program's
    set-up and timed region, not dataset generation.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:  # not Linux, or not allowed: the peak counts from start
        pass


def _peak_rss_self_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise OSError("no VmHWM in /proc/self/status")


def _peak_rss_children_mb() -> float:
    """The largest waited-for child; each workload runs in its own process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB


def _set_region(tracer, region: Optional[str]) -> None:
    if tracer is not None:
        tracer.region = region


def _stop_tracing(tracer) -> None:
    if tracer is not None:
        tracer.region = None
        tracer.uninstall()


def _digest(*matrices: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for matrix in matrices:
        h.update(np.ascontiguousarray(matrix, dtype=np.int64).tobytes())
    return h.hexdigest()


def array_state_digest(state) -> str:
    """Digest of an :class:`ArrayLabelState`'s four ``(T+1, n)`` matrices."""
    return _digest(state.labels, state.srcs, state.poss, state.epochs)


def label_state_digest(state, n: int) -> str:
    """The same digest of a dict-backed :class:`LabelState` (ids ``0..n-1``)."""
    return _digest(
        *(
            np.array([getattr(state, key)[v] for v in range(n)], dtype=np.int64).T
            for key in ("labels", "srcs", "poss", "epochs")
        )
    )


def batch_digest(batches) -> str:
    h = hashlib.blake2b(digest_size=16)
    for batch in batches:
        h.update(repr((sorted(batch.insertions), sorted(batch.deletions))).encode())
    return h.hexdigest()


def _report_totals(reports) -> Dict[str, float]:
    keys = ("repicked", "keep_lotteries", "lottery_switches",
            "cascade_corrections", "value_changes")
    totals: Dict[str, float] = {
        key: sum(getattr(r, key) for r in reports) for key in keys
    }
    totals["touched_count"] = sum(r.touched_labels for r in reports)
    totals["value_change_ratio"] = (
        totals["value_changes"] / totals["touched_count"]
        if totals["touched_count"] else 0.0
    )
    return totals


def _replay_reference(graph, seed: int, iterations: int, batches, n: int,
                      every_batch: bool = True):
    """The reference-backend detector after ``batches``, plus the state
    digest after every batch (or after the last one only)."""
    ref = RSLPADetector(graph, seed=seed, iterations=iterations, backend="reference")
    ref.fit()
    digests = []
    for i, batch in enumerate(batches, start=1):
        ref.update(batch)
        if every_batch or i == len(batches):
            digests.append(label_state_digest(ref.label_state, n))
    return ref, digests


def _check_cover_and_ids(out: Outcome, service, ref, before: Dict[str, Any]) -> None:
    """The service's cover and stable ids against the reference state's.

    ``before`` is the index state exported before the service's last
    refresh; carrying it to the reference cover with the same matcher must
    give the ids the service published.
    """
    cfg = service.config
    ref_cover = extract_communities(
        ref.graph, ref.label_state.labels, step=cfg.tau_step
    ).cover
    out.check(
        "cover_matches_reference",
        ref_cover.communities == service.index.cover.communities,
        f"{len(ref_cover)} communities",
    )
    ids, _next_id, _report = assign_stable_ids(
        Cover(before["cover"]),
        before["ids"],
        ref_cover,
        before["next_id"],
        match_threshold=cfg.match_threshold,
        drift_tolerance=cfg.drift_tolerance,
    )
    out.check(
        "stable_ids_match_reference",
        dict(zip(ids, ref_cover)) == service.index.snapshot(),
    )


class Workload:
    name = ""
    #: Nominal batches (rounds, fits) per second of ``--seconds``.
    rate = 1.0
    minimum = 1
    #: The unit of work spans this many batches; counts round up to it.
    cycle = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, tiny: bool = False, workdir: Optional[Path] = None,
                 datasets: Optional[Path] = None):
        self.tiny = tiny
        self.workdir = workdir
        self.datasets = datasets

    def count(self, seconds: float) -> int:
        wanted = self.minimum
        if not self.tiny:
            wanted = max(wanted, round(seconds * self.rate))
        return -(-wanted // self.cycle) * self.cycle

    def make_inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        raise NotImplementedError

    def execute(self, inputs, setups: int, tracer=None, check: bool = True) -> Outcome:
        raise NotImplementedError

    def scratch(self, label: str) -> Path:
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# ----------------------------------------------------------------------
# serve_fresh
# ----------------------------------------------------------------------
class ServeFresh(Workload):
    """Edit batch, then the query that must reflect it (staleness K=1)."""

    name = "serve_fresh"
    rate = 1.0  # rounds per second
    minimum = 2

    def make_inputs(self, seed, seconds):
        n, out_degree, iterations = (300, 6.0, 10) if self.tiny else (4000, 10.0, 30)
        graph = generate_webgraph(
            WebGraphParams(n=n, avg_out_degree=out_degree), seed=DATASET_SEED
        ).graph
        rounds = self.count(seconds)
        batches = EditStream(graph, batch_size=20 if self.tiny else 100,
                             seed=seed).take(rounds)
        rng = random.Random(f"serve_fresh:queries:{seed}")
        queries = [rng.randrange(n) for _ in range(rounds)]
        return dict(graph=graph, n=n, seed=SERVICE_SEED, iterations=iterations,
                    batches=batches, queries=queries)

    def execute(self, inputs, setups, tracer=None, check=True):
        out = Outcome()
        out.probe()
        graph, seed, iterations = inputs["graph"], inputs["seed"], inputs["iterations"]
        service = None
        for _ in range(setups):
            candidate = CommunityService(
                graph, seed=seed, iterations=iterations, backend="fast",
                staleness_batches=1,
            )
            _set_region(tracer, "setup")
            t0 = clock()
            candidate.start()
            out.setup_s.append(clock() - t0)
            _set_region(tracer, None)
            service = candidate
            out.probe()
        digests, reports, before = [], [], None
        batches = inputs["batches"]
        for i, (batch, vertex) in enumerate(zip(batches, inputs["queries"])):
            if i == len(batches) - 1:
                before = service.index.export_state()
            out.attempted += 1
            _set_region(tracer, "timed")
            t0 = clock()
            try:
                reports.append(service.apply(batch))
                service.communities_of(vertex)
            except Exception as exc:  # counted, and the checks then fail
                t1 = clock()
                out.fail(exc)
            else:
                t1 = clock()
                out.work += batch.size
            _set_region(tracer, None)
            out.op_ms.append((t1 - t0) * 1e3)
            out.op_work.append(out.work - sum(out.op_work))
            out.wall_s += t1 - t0
            if check:
                digests.append(array_state_digest(service.detector.array_state))
            out.probe()
        out.peak_rss_self_mb = _peak_rss_self_mb()
        _stop_tracing(tracer)
        out.counts.update(_report_totals([r for r in reports if r is not None]))
        if check:
            state = service.detector.array_state
            try:
                state.validate(service.graph)
                out.check("state_validates", True)
            except AssertionError as exc:
                out.check("state_validates", False, str(exc))
            ref, ref_digests = _replay_reference(
                graph, seed, iterations, batches, inputs["n"]
            )
            out.check(
                "state_matches_reference_every_round",
                ref_digests == digests,
                f"{len(digests)} rounds",
            )
            _check_cover_and_ids(out, service, ref, before)
        return out


# ----------------------------------------------------------------------
# ingest_bulk
# ----------------------------------------------------------------------
class IngestBulk(Workload):
    """Single-edit ingest through ``submit()`` into a durable service.

    The offers are the library's own single-edit feed,
    :meth:`EditStream.timed_edits` (each stream batch in a seeded shuffle),
    fed as they come; their arrival times are ignored, since the loop is
    closed.  A window of ``batch_size`` offers is exactly one stream batch.

    The unit of work is one checkpoint cycle: ``checkpoint_every`` windows
    with their offers and reads, the last of which writes a checkpoint.
    Window latency mixes plain windows, windows that collect garbage and
    checkpoint windows, so its high percentiles jump between those modes;
    the cycle's median is steady.
    """

    name = "ingest_bulk"
    rate = 6.0  # 1000-edit windows per second
    minimum = 8
    cycle = 8  # checkpoint_every
    setups = 3  # each writes a baseline checkpoint; the run's checks are long

    def make_inputs(self, seed, seconds):
        n, out_degree, iterations = (400, 6.0, 10) if self.tiny else (8000, 10.0, 30)
        window = 50 if self.tiny else 1000
        reads = 5 if self.tiny else 50
        graph = generate_webgraph(
            WebGraphParams(n=n, avg_out_degree=out_degree), seed=DATASET_SEED
        ).graph
        windows = self.count(seconds)
        feed = [(op, u, v) for _t, op, u, v in EditStream(
            graph, batch_size=window, seed=seed, rate=1.0
        ).timed_edits(windows * window)]
        offers = [feed[i:i + window] for i in range(0, len(feed), window)]
        batches = [
            EditBatch.build(insertions=[(u, v) for op, u, v in edits if op == "+"],
                            deletions=[(u, v) for op, u, v in edits if op == "-"])
            for edits in offers
        ]
        rng = random.Random(f"ingest_bulk:queries:{seed}")
        queries = [[rng.randrange(n) for _ in range(reads)] for _ in batches]
        return dict(graph=graph, n=n, seed=SERVICE_SEED, iterations=iterations,
                    window=window, batches=batches, offers=offers, queries=queries)

    def execute(self, inputs, setups, tracer=None, check=True):
        out = Outcome()
        out.probe()
        graph, seed, iterations = inputs["graph"], inputs["seed"], inputs["iterations"]
        services = []
        try:
            for i in range(setups):
                candidate = CommunityService(
                    graph, seed=seed, iterations=iterations, backend="fast",
                    batch_size=inputs["window"], staleness_batches=10**9,
                    checkpoint_every=self.cycle,
                    checkpoint_dir=str(self.scratch(f"ingest-{i}")),
                )
                _set_region(tracer, "setup")
                t0 = clock()
                candidate.start()
                out.setup_s.append(clock() - t0)
                _set_region(tracer, None)
                services.append(candidate)
                out.probe()
            service = services[-1]
            before = service.index.export_state()
            reports = []
            batch_ms = out.extra["batch_ms"] = []
            cycle = 0.0
            for offers, queries in zip(inputs["offers"], inputs["queries"]):
                _set_region(tracer, "timed")
                segment = clock()
                for op, u, v in offers[:-1]:
                    out.attempted += 1
                    try:
                        service.submit(op, u, v)
                    except Exception as exc:
                        out.fail(exc)
                op, u, v = offers[-1]
                out.attempted += 1
                t0 = clock()
                try:
                    reports.append(service.submit(op, u, v))
                except Exception as exc:
                    t1 = clock()
                    out.fail(exc)
                else:
                    t1 = clock()
                batch_ms.append((t1 - t0) * 1e3)
                for vertex in queries:
                    out.attempted += 1
                    t0 = clock()
                    try:
                        service.communities_of(vertex)
                    except Exception as exc:
                        t1 = clock()
                        out.fail(exc)
                    else:
                        t1 = clock()
                    out.read_us.append((t1 - t0) * 1e6)
                segment = clock() - segment
                _set_region(tracer, None)
                out.wall_s += segment
                cycle += segment
                if len(batch_ms) % self.cycle == 0:
                    out.op_ms.append(cycle * 1e3)
                    out.op_work.append(service.edits_applied - sum(out.op_work))
                    cycle = 0.0
                    out.probe()
            out.work = service.edits_applied
            out.peak_rss_self_mb = _peak_rss_self_mb()
            _stop_tracing(tracer)
            out.counts.update(_report_totals([r for r in reports if r is not None]))
            queue = service.queue.stats()
            for key in ("coalesce_ratio", "cancelled_pairs", "duplicates"):
                out.counts[key] = queue[key]
            out.counts["checkpoints"] = len(service.store.checkpoint_epochs())
            if check:
                self._check(out, service, inputs, reports, before)
        finally:
            for service in services:
                service.close()
        return out

    @staticmethod
    def _check(out, service, inputs, reports, before):
        batches = inputs["batches"]
        out.check(
            "every_window_flushed_its_batch",
            len(reports) == len(batches) and all(r is not None for r in reports)
            and service.batches_applied == len(batches),
            f"{service.batches_applied} of {len(batches)} batches",
        )
        state = service.detector.array_state
        try:
            state.validate(service.graph)
            out.check("state_validates", True)
        except AssertionError as exc:
            out.check("state_validates", False, str(exc))
        ref, ref_digests = _replay_reference(
            inputs["graph"], inputs["seed"], inputs["iterations"], batches, inputs["n"],
            every_batch=False,
        )
        out.check(
            "state_matches_reference",
            ref_digests[-1] == array_state_digest(state),
            f"after {len(batches)} batches",
        )
        service.refresh()
        _check_cover_and_ids(out, service, ref, before)


# ----------------------------------------------------------------------
# dist_fit
# ----------------------------------------------------------------------
class DistFit(Workload):
    """``run_distributed_rslpa`` on 2 real worker processes over shm."""

    name = "dist_fit"
    rate = 0.4  # fits per second
    minimum = 1
    setups = 10  # a CSR build takes tens of milliseconds

    def make_inputs(self, seed, seconds):
        if self.tiny:
            params = LFRParams(n=300, avg_degree=8.0, max_degree=16, mu=0.1,
                               overlap_fraction=0.1, overlap_membership=2)
            iterations = 10
        else:
            params = LFRParams(n=20_000, avg_degree=12.0, max_degree=30, mu=0.1,
                               overlap_fraction=0.1, overlap_membership=2)
            iterations = 30
        graph = self.lfr_dataset(params)
        return dict(graph=graph, n=params.n, seed=seed, iterations=iterations,
                    fits=self.count(seconds))

    def lfr_dataset(self, params: LFRParams) -> Graph:
        """The fixed LFR graph, generated once per checkout and then loaded.

        Generating n=20000 takes longer than the rest of a run's set-up, and
        the graph is a fixed dataset; the cache key covers the parameters
        and the generator's source.
        """
        key = hashlib.blake2b(
            repr((params, DATASET_SEED)).encode() + inspect.getsource(lfr_module).encode(),
            digest_size=8,
        ).hexdigest()
        path = self.datasets / f"lfr-{key}.npy"
        if not path.exists():
            graph = lfr_module.generate_lfr(params, seed=DATASET_SEED).graph
            self.datasets.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            with open(tmp, "wb") as handle:
                np.save(handle, np.array(sorted(graph.edges()), dtype=np.int64))
            os.replace(tmp, path)
        edges = np.load(path)
        return Graph.from_edges(map(tuple, edges.tolist()), vertices=range(params.n))

    def execute(self, inputs, setups, tracer=None, check=True):
        out = Outcome()
        out.probe()
        seed, iterations = inputs["seed"], inputs["iterations"]
        csr = None
        for _ in range(setups):
            _set_region(tracer, "setup")
            t0 = clock()
            csr = CSRGraph.from_graph(inputs["graph"])
            out.setup_s.append(clock() - t0)
            _set_region(tracer, None)
            out.probe()
        config = ExecutionConfig(
            num_workers=2, multiprocess=True, transport="shm", engine="array",
            shard_backend="csr", state_format="array", trace=tracer is not None,
        )
        digests, comm, phases = [], [], []
        for _ in range(inputs["fits"]):
            out.attempted += 1
            _set_region(tracer, "timed")
            t0 = clock()
            try:
                state, stats = distributed.run_distributed_rslpa(
                    csr, seed=seed, iterations=iterations, config=config
                )
            except Exception as exc:
                t1 = clock()
                out.fail(exc)
                state = stats = None
            else:
                t1 = clock()
            _set_region(tracer, None)
            out.op_ms.append((t1 - t0) * 1e3)
            out.wall_s += t1 - t0
            out.probe()
            out.op_work.append(0 if state is None else inputs["n"] * iterations)
            out.work += out.op_work[-1]
            if state is None:
                continue
            comm.append(stats.as_dict())
            if stats.obs is not None:
                phases.append(stats.obs.result().phase_totals())
            if check:
                digests.append(array_state_digest(state))
        out.peak_rss_self_mb = _peak_rss_self_mb()
        out.peak_rss_child_mb = _peak_rss_children_mb()
        _stop_tracing(tracer)
        if comm:
            for key in ("supersteps", "messages", "remote_messages", "bytes",
                        "remote_bytes"):
                out.counts[key] = comm[0][key]
        out.extra["engine_phases"] = phases
        if check:
            local = FastPropagator(csr, seed=seed)
            local.propagate(iterations)
            expected = array_state_digest(local.to_array_state())
            out.check(
                "state_matches_local_fast_fit",
                len(digests) == inputs["fits"] and all(d == expected for d in digests),
                f"{len(digests)} fits",
            )
            out.check(
                "comm_stats_repeat",
                len(comm) == inputs["fits"] and all(c == comm[0] for c in comm),
            )
        return out


# ----------------------------------------------------------------------
# replicated
# ----------------------------------------------------------------------
class Replicated(Workload):
    """A supervised primary plus one replica over the pipe wire.

    The unit of work is one staleness window: K batches with their reads,
    the last of which re-extracts on the primary and on the replica.  Batch latency is
    bimodal (one extracting batch in K), so its median sits on the edge
    between the modes; the window's is steady.
    """

    name = "replicated"
    rate = 2.7  # 100-edit batches per second
    minimum = 4
    cycle = 4  # staleness_batches K

    def make_inputs(self, seed, seconds):
        n, out_degree, iterations = (200, 6.0, 10) if self.tiny else (2500, 8.0, 30)
        graph = generate_webgraph(
            WebGraphParams(n=n, avg_out_degree=out_degree), seed=DATASET_SEED
        ).graph
        batch_size = 20 if self.tiny else 100
        batches = EditStream(graph, batch_size=batch_size,
                             seed=seed).take(self.count(seconds))
        reads = 5 if self.tiny else 20
        rng = random.Random(f"replicated:queries:{seed}")
        queries = [[rng.randrange(n) for _ in range(reads)] for _ in batches]
        return dict(graph=graph, n=n, seed=SERVICE_SEED, iterations=iterations,
                    batch_size=batch_size, batches=batches, queries=queries)

    def config(self, inputs) -> ServicePlanConfig:
        return ServicePlanConfig(
            algo=AlgoConfig(seed=inputs["seed"], iterations=inputs["iterations"]),
            batch_size=inputs["batch_size"],
            staleness_batches=self.cycle,
            checkpoint_every=4,
            replicas=1,
            service_transport="pipe",
        )

    def execute(self, inputs, setups, tracer=None, check=True):
        out = Outcome()
        out.probe()
        config = self.config(inputs)
        supervisor = None
        try:
            for i in range(setups):
                candidate = ServiceSupervisor(
                    inputs["graph"], str(self.scratch(f"replicated-{i}")), config
                )
                _set_region(tracer, "setup")
                t0 = clock()
                try:
                    candidate.start()
                finally:
                    out.setup_s.append(clock() - t0)
                    _set_region(tracer, None)
                if supervisor is not None:
                    supervisor.shutdown()
                supervisor = candidate
                out.probe()
            client = supervisor.client()
            read_errors = 0
            batch_ms = out.extra["batch_ms"] = []
            window = 0.0
            for batch, queries in zip(inputs["batches"], inputs["queries"]):
                out.attempted += 1
                _set_region(tracer, "timed")
                segment = t0 = clock()
                try:
                    supervisor.apply(batch)
                except Exception as exc:
                    t1 = clock()
                    out.fail(exc)
                else:
                    t1 = clock()
                    out.work += batch.size
                batch_ms.append((t1 - t0) * 1e3)
                for vertex in queries:
                    out.attempted += 1
                    t0 = clock()
                    try:
                        client.communities_of(vertex)
                    except Exception as exc:
                        t1 = clock()
                        read_errors += 1
                        out.fail(exc)
                    else:
                        t1 = clock()
                    out.read_us.append((t1 - t0) * 1e6)
                segment = clock() - segment
                _set_region(tracer, None)
                out.wall_s += segment
                window += segment
                if len(batch_ms) % self.cycle == 0:
                    out.op_ms.append(window * 1e3)
                    out.op_work.append(out.work - sum(out.op_work))
                    window = 0.0
                    out.probe()
            out.peak_rss_self_mb = _peak_rss_self_mb()
            _stop_tracing(tracer)
            for key in ("stale_serves", "reroutes", "primary_fallbacks"):
                out.counts[key] = getattr(client, key)
            if check:
                self._check(out, supervisor, read_errors)
        finally:
            if supervisor is not None:
                supervisor.shutdown()
        out.peak_rss_child_mb = _peak_rss_children_mb()
        return out

    @staticmethod
    def _replica_snapshot(supervisor, deadline_s: float = 60.0):
        """The replica's index once it has applied every committed record.

        Past the deadline this returns the last snapshot it got (or None),
        so a replica that never catches up fails the check.
        """
        deadline = clock() + deadline_s
        snapshot = None
        while clock() <= deadline:
            try:
                snapshot, applied = supervisor.query_replica(
                    0, "snapshot", (), timeout=5.0
                )
                if applied >= supervisor.committed_seq:
                    return snapshot
            except ReplicaLapsedError:
                pass
            time.sleep(0.05)
        return snapshot

    def _check(self, out, supervisor, read_errors):
        replica = self._replica_snapshot(supervisor)
        primary = supervisor.snapshot()
        out.check(
            "replica_cover_matches_primary",
            replica == primary,
            f"{len(primary)} communities at seq {supervisor.committed_seq}",
        )
        out.check("zero_read_errors", read_errors == 0, f"{read_errors} errors")

    def failover_probe(self, inputs) -> Dict[str, float]:
        """Time the batch that absorbs one scripted primary kill."""
        kill_seq = 2
        supervisor = ServiceSupervisor(
            inputs["graph"], str(self.scratch("replicated-failover")),
            self.config(inputs),
            fault_plan=FaultPlan(kill_primary=(kill_seq, "applied")),
        )
        try:
            supervisor.start()
            times = []
            for batch in inputs["batches"][: kill_seq + 1]:
                t0 = clock()
                supervisor.apply(batch)
                times.append(clock() - t0)
            stats = supervisor.stats()
        finally:
            supervisor.shutdown()
        return {
            "failover_ms": times[kill_seq - 1] * 1e3,
            "failovers": stats["failovers"],
            "replayed_records": stats["replayed_records"],
        }


WORKLOADS = {cls.name: cls for cls in (ServeFresh, IngestBulk, DistFit, Replicated)}


def input_digest(inputs: Dict[str, Any]) -> str:
    """Digest of everything a workload feeds the program."""
    h = hashlib.blake2b(digest_size=16)
    graph = inputs["graph"]
    h.update(repr(sorted(graph.edges())).encode())
    h.update(repr(inputs["seed"]).encode())
    if "batches" in inputs:
        h.update(batch_digest(inputs["batches"]).encode())
    for key in ("offers", "queries", "fits"):
        if key in inputs:
            h.update(repr(inputs[key]).encode())
    return h.hexdigest()
