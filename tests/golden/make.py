"""Digests of the service path's integer outputs over four fixed scenarios.

``tests/test_golden.py`` reruns every scenario and compares each step's
digest with the committed ``digests.json``, so a change that moves any
output of the service path fails there, naming the first step that
differs.  Regenerate the file only when an output changes on purpose (and
say which digests moved, and why):

    PYTHONPATH=src python tests/golden/make.py

To show that a change moved nothing, generate the file with the parent
commit's ``src/`` on ``PYTHONPATH`` and run the test on the change.  The
scenarios call only the public service API (``start()``, ``submit``,
``apply``, ``recover``, the supervisor's ``submit`` / ``snapshot`` /
``stats``) for that reason.

A step hashes integer artefacts only: the query's answer and the cover it
was served from (``indptr``, ``member_ids``), the index's stable ids and
``next_id``, the label matrices, the batch's ``UpdateReport`` counters and
touched slots, a distributed fit's per-superstep ``CommStats``, the
``wal.log`` bytes, and every retained checkpoint's loaded arrays and
metadata.  Floats (τ1, the entropy curve) come from the platform's
``math.log`` and stay with the in-process oracles.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.api.config import AlgoConfig, ExecutionConfig, ServicePlanConfig
from repro.distributed.faults import FaultPlan
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.service import CheckpointStore, CommunityService, ServiceSupervisor

DIGESTS = Path(__file__).with_name("digests.json")

MATRICES = ("labels", "srcs", "poss", "epochs", "ids", "alive")
REPORT_COUNTERS = (
    "batch_size", "num_inserted", "num_deleted", "repicked", "keep_lotteries",
    "lottery_switches", "cascade_corrections", "value_changes",
    "touched_labels",
)

#: One scenario's ``[step name, digest]`` rows, in the order they ran.
Steps = List[List[str]]


def digest(artefacts) -> str:
    """One SHA-256 over ``(name, value)`` pairs in order; a value is bytes
    or anything ``np.asarray`` takes as integers."""
    sha = hashlib.sha256()
    for name, value in artefacts:
        if not isinstance(value, bytes):
            array = np.asarray(value, dtype=np.int64)
            value = repr(array.shape).encode() + array.tobytes()
        sha.update(f"{name}:{len(value)}:".encode() + value)
    return sha.hexdigest()


def _state(state, prefix: str = "") -> list:
    return [(prefix + name, getattr(state, name)) for name in MATRICES]


def _store(directory) -> list:
    """The ``wal.log`` bytes and every retained checkpoint, loaded."""
    store = CheckpointStore(directory)
    try:
        wal = store.wal_path
        out = [("wal", wal.read_bytes() if wal.exists() else b"")]
        for epoch in store.checkpoint_epochs():
            ckpt = store.load_checkpoint(epoch)
            prefix = f"checkpoint{epoch}."
            out.append((prefix + "meta", [
                ckpt.seed, ckpt.batch_epoch, ckpt.edits_applied,
                ckpt.iterations,
            ]))
            out.append((prefix + "edges", ckpt.edges))
            out += _state(ckpt.state, prefix)
    finally:
        store.close()
    return out


def _service(service, probe: int, report=None) -> list:
    """Query ``probe`` (refreshing as the service's K says), then list what
    the service holds and what the batch's repair did."""
    answer = service.communities_of(probe)
    cover = service.index.cover
    exported = service.index.export_state()
    artefacts = [
        ("answer", answer),
        ("indptr", cover.indptr),
        ("member_ids", cover.member_ids),
        ("stable_ids", exported["ids"]),
        ("next_id", [exported["next_id"]]),
    ]
    artefacts += _state(service.detector.array_state)
    if report is not None:
        artefacts.append(
            ("report", [getattr(report, name) for name in REPORT_COUNTERS])
        )
        artefacts.append(("touched", sorted(report.touched_slots)))
    return artefacts


def _snapshot(snapshot: Dict[int, frozenset]) -> list:
    """A supervisor's ``stable id -> members`` map as flat arrays."""
    ids = sorted(snapshot)
    members = [sorted(snapshot[cid]) for cid in ids]
    return [
        ("snapshot.ids", ids),
        ("snapshot.sizes", [len(m) for m in members]),
        ("snapshot.members", [v for m in members for v in m]),
    ]


def _batch(insertions=(), deletions=()) -> EditBatch:
    return EditBatch.build(insertions=insertions, deletions=deletions)


def _config(**fields) -> ServicePlanConfig:
    fields.setdefault("algo", AlgoConfig(seed=3, iterations=30))
    return ServicePlanConfig(**fields)


# ----------------------------------------------------------------------
# The scenarios
# ----------------------------------------------------------------------
#: Scenario (a)'s single edits against ring_of_cliques(5, 5): duplicates
#: and cancelling pairs included, every net window valid when it flushes.
SINGLE_EDITS = [
    ("+", 0, 12), ("+", 0, 12), ("+", 3, 17), ("-", 3, 17), ("-", 0, 1),
    ("+", 7, 22),
    ("-", 0, 12), ("+", 2, 13), ("+", 2, 13), ("-", 5, 11),
    ("+", 9, 19), ("-", 9, 19), ("+", 4, 23), ("-", 2, 3), ("+", 14, 24),
    ("+", 8, 18),
]


def dense_k1(workdir: Path) -> Steps:
    """(a) K=1 on dense ids with checkpoints every 2 batches: single edits
    through ``submit``, one ``apply`` with births that also fuses two
    cliques into one community (two equally close constituents), then
    ``recover()``."""
    directory = workdir / "dense_k1"
    config = _config(
        batch_size=3, staleness_batches=1, checkpoint_every=2,
        keep_checkpoints=2,
    )
    steps: Steps = []
    service = CommunityService(
        ring_of_cliques(5, 5), config, checkpoint_dir=str(directory)
    ).start()
    try:
        steps.append(["start", digest(_service(service, 0) + _store(directory))])
        for i, (op, u, v) in enumerate(SINGLE_EDITS):
            report = service.submit(op, u, v)
            steps.append([f"submit {i} {op}({u},{v})", digest(
                _service(service, u, report) + _store(directory)
            )])
        fuse = [(a, b) for a in range(10, 15) for b in range(15, 20)
                if (a, b) != (10, 16)]
        births = [(25, 0), (25, 2), (26, 25), (27, 8), (27, 26)]
        report = service.apply(_batch(insertions=fuse + births))
        steps.append(["apply births+fuse", digest(
            _service(service, 12, report) + _store(directory)
        )])
    finally:
        service.close()
    recovered = CommunityService.recover(str(directory), config)
    try:
        steps.append(["recover", digest(
            _service(recovered, 12) + _store(directory)
        )])
    finally:
        recovered.close()
    return steps


def sparse_k3(workdir: Path) -> Steps:
    """(b) K=3 on ids ``3v+7``, with births below the largest id (one of
    them negative) and above it."""
    directory = workdir / "sparse_k3"
    base = ring_of_cliques(4, 5)

    def vid(v: int) -> int:
        return 3 * v + 7

    graph = Graph.from_edges(
        ((vid(u), vid(v)) for u, v in base.edges()),
        vertices=map(vid, base.vertices()),
    )
    batches = [
        _batch(insertions=[(vid(0), vid(7)), (vid(1), vid(12))],
               deletions=[(vid(0), vid(1))]),
        _batch(insertions=[(30, vid(3)), (30, vid(4)), (-4, vid(9))]),
        _batch(insertions=[(vid(2), vid(17))], deletions=[(vid(5), vid(6))]),
        _batch(insertions=[(100, 30), (100, vid(19)), (-4, vid(8))],
               deletions=[(vid(1), vid(12))]),
        _batch(deletions=[(30, vid(3)), (vid(2), vid(3))]),
    ]
    config = _config(algo=AlgoConfig(seed=5, iterations=30), batch_size=4,
                     staleness_batches=3)
    steps: Steps = []
    service = CommunityService(graph, config, checkpoint_dir=str(directory))
    try:
        service.start()
        steps.append(["start", digest(
            _service(service, vid(0)) + _store(directory)
        )])
        for i, batch in enumerate(batches):
            report = service.apply(batch)
            steps.append([f"apply {i}", digest(
                _service(service, vid(i), report) + _store(directory)
            )])
    finally:
        service.close()
    return steps


def bsp_fit(workdir: Path) -> Steps:
    """(c) ``execution.num_workers=2``: the in-process BSP fit, then
    repairs."""
    config = _config(
        execution=ExecutionConfig(num_workers=2), staleness_batches=1
    )
    service = CommunityService(ring_of_cliques(4, 5), config).start()
    rows = [
        [s.superstep, s.messages, s.remote_messages, s.bytes, s.remote_bytes]
        for s in service.detector.comm_stats.per_superstep
    ]
    steps: Steps = [
        ["start", digest([("comm_stats", rows)] + _service(service, 0))]
    ]
    batches = [
        _batch(insertions=[(0, 7), (3, 12)], deletions=[(1, 2)]),
        _batch(insertions=[(20, 4), (20, 9)], deletions=[(0, 7)]),
    ]
    for i, batch in enumerate(batches):
        report = service.apply(batch)
        steps.append([f"apply {i}", digest(_service(service, 4 * i, report))])
    return steps


#: Scenario (d)'s edits against ring_of_cliques(3, 4), windowed into four
#: batches of two.
SUPERVISED_EDITS = [
    ("+", 0, 4), ("+", 0, 6), ("-", 0, 1), ("+", 0, 7),
    ("+", 0, 8), ("-", 4, 5), ("+", 0, 9), ("+", 0, 10),
]


def supervised_failover(workdir: Path) -> Steps:
    """(d) A 2-replica supervisor whose primary dies right after applying
    WAL record 2; the promoted replica replays it."""
    directory = workdir / "supervised"
    config = _config(
        batch_size=2, staleness_batches=2, checkpoint_every=2,
        keep_checkpoints=2, replicas=2,
    )
    steps: Steps = []
    sup = ServiceSupervisor(
        ring_of_cliques(3, 4), str(directory), config,
        fault_plan=FaultPlan(kill_primary=(2, "applied")),
    ).start()
    try:
        for op, u, v in SUPERVISED_EDITS:
            seq = sup.submit(op, u, v)
            if seq is not None:
                steps.append([f"commit {seq}", digest(_snapshot(sup.snapshot()))])
        stats = sup.stats()
        final = [("failover", [stats[name] for name in (
            "failovers", "promoted_replica", "replayed_records",
            "committed_seq",
        )])] + _snapshot(sup.snapshot())
    finally:
        sup.shutdown()
    steps.append(["final", digest(final + _store(directory))])
    return steps


SCENARIOS: Dict[str, Callable[[Path], Steps]] = {
    "dense_k1": dense_k1,
    "sparse_k3": sparse_k3,
    "bsp_fit": bsp_fit,
    "supervised_failover": supervised_failover,
}


def run_all() -> Dict[str, Steps]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run(Path(tmp)) for name, run in SCENARIOS.items()}


def main() -> int:
    digests = run_all()
    DIGESTS.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in digests.items()
    ) + "\n}\n")
    steps = sum(len(rows) for rows in digests.values())
    print(f"wrote {steps} step digests over {len(digests)} scenarios to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
