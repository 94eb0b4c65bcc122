"""Figure 9 — incremental updating vs recomputation from scratch,
across edit-batch sizes, for BOTH correction engines.

Paper (batch sizes 100 .. 100,000, half insertions / half deletions):
incremental updating is far cheaper than from-scratch for every batch size,
and its cost grows *sublinearly* in the batch size (overlapping influence
regions), making large batches especially attractive.

This harness sweeps each batch size through the reference (pure-Python,
event-driven) corrector AND the vectorised array corrector: one corrector
per engine and row, each repairing the same ``BATCHES`` consecutive batches
of an edit stream, with the two repairs asserted bit-identical after every
batch.  A row's repair times are the medians over its batches (one ~5 ms
repair is too short for one timing to set a row on a shared host); the
from-scratch baselines stay a single timing.  Every timing is CPU time
(``time.process_time``), so both sides of each asserted ratio read one
clock and other tenants of a shared host do not count.  It records the
reference/fast speedup trajectory in ``BENCH_incremental.json`` (same
shape as ``BENCH_backends.json``, plus the host's ``environment``), along
with the ``to_label_state`` vs ``to_array_state`` export comparison.

Run:  PYTHONPATH=src:. python -m pytest benchmarks/bench_fig9_incremental.py -q
The ``-k smoke`` selection runs a scaled-down, time-bounded sweep (CI).
"""

import json
import time
from pathlib import Path
from statistics import median

import numpy as np

from benchmarks.bench_common import SCALE, banner, environment, print_table, scaled
from repro.core.fast import FastPropagator
from repro.core.incremental import CorrectionPropagator
from repro.core.incremental_fast import FastCorrectionPropagator
from repro.core.rslpa import ReferencePropagator
from repro.graph.csr import CSRGraph
from repro.workloads.dynamic import EditStream
from repro.workloads.webgraph import WebGraphParams, generate_webgraph

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"

ITERATIONS = scaled(60, 100, 200)
BATCH_SIZES = scaled(
    [10, 30, 100, 300, 1000, 3000],
    [100, 300, 1000, 3000, 10_000],
    [100, 500, 1000, 5000, 10_000, 50_000, 100_000],
)
#: Consecutive batches per row; a row's repair times are their medians.
BATCHES = 20
#: The one clock every timing reads: this process's CPU time.
CLOCK = time.process_time


def _assert_repairs_identical(ref_corrector, fast_corrector):
    """Both engines' post-batch states, compared matrix against matrix."""
    state = ref_corrector.state
    astate = fast_corrector.state
    n = astate.num_columns
    for name, matrix in (
        ("labels", astate.labels),
        ("srcs", astate.srcs),
        ("poss", astate.poss),
        ("epochs", astate.epochs),
    ):
        ref_matrix = np.array(
            [getattr(state, name)[v] for v in range(n)], dtype=np.int64
        ).T
        assert np.array_equal(ref_matrix, matrix), f"{name} diverged"


def _sweep(graph, iterations, batch_sizes, seed=3, batches=BATCHES):
    """One full Figure-9 sweep; returns (rows, export timing dict)."""
    rows = []
    export = None
    for batch_size in batch_sizes:
        # Reference side: pure-Python propagate + event-driven corrector.
        ref_graph = graph.copy()
        ref_prop = ReferencePropagator(ref_graph, seed=seed)
        ref_prop.propagate(iterations)
        ref_corrector = CorrectionPropagator(ref_prop)

        # Fast side: CSR propagate + array export + vectorised corrector.
        fast_graph = graph.copy()
        fast_prop = FastPropagator(CSRGraph.from_graph(fast_graph), seed=seed)
        fast_prop.propagate(iterations)
        if export is None:
            t0 = CLOCK()
            fast_prop.to_label_state()
            dict_export_s = CLOCK() - t0
            t0 = CLOCK()
            astate = fast_prop.to_array_state()
            array_export_s = CLOCK() - t0
            export = {
                "to_label_state_s": dict_export_s,
                "to_array_state_s": array_export_s,
                "speedup": dict_export_s / array_export_s
                if array_export_s
                else float("inf"),
            }
        else:
            astate = fast_prop.to_array_state()
        fast_corrector = FastCorrectionPropagator(fast_graph, astate, seed)
        # The state's reverse records are built by its first repair; build
        # them here so the timers below cover the repairs alone.
        astate.reindex()

        stream = EditStream(graph, batch_size, seed=batch_size)
        reference_s, fast_s, etas = [], [], []
        for _ in range(batches):
            batch = stream.next_batch()
            t0 = CLOCK()
            ref_report = ref_corrector.apply_batch(batch)
            reference_s.append(CLOCK() - t0)

            t0 = CLOCK()
            fast_report = fast_corrector.apply_batch(batch)
            fast_s.append(CLOCK() - t0)

            assert ref_report == fast_report
            _assert_repairs_identical(ref_corrector, fast_corrector)
            etas.append(ref_report.touched_labels)

        # From-scratch baselines on the graph after the row's last batch.
        t0 = CLOCK()
        ReferencePropagator(stream.graph.copy(), seed=seed).propagate(iterations)
        scratch_ref_s = CLOCK() - t0
        t0 = CLOCK()
        scratch_fast = FastPropagator(CSRGraph.from_graph(stream.graph), seed=seed)
        scratch_fast.propagate(iterations)
        scratch_fast.to_array_state().reindex()  # fair: scratch must also yield records
        scratch_fast_s = CLOCK() - t0

        reference_med, fast_med = median(reference_s), median(fast_s)
        rows.append(
            {
                "batch_size": batch_size,
                "batches": batches,
                "reference_s": reference_med,
                "fast_s": fast_med,
                "speedup": reference_med / fast_med if fast_med else float("inf"),
                "eta": int(median(etas)),
                "scratch_reference_s": scratch_ref_s,
                "scratch_fast_s": scratch_fast_s,
            }
        )
    return rows, export


def _report_sweep(report, title, graph, iterations, rows, export):
    report(
        banner(
            title,
            "Fig. 9: running time of rSLPA incremental updating vs from scratch",
            "incremental far below scratch; fast corrector well ahead of reference",
        )
    )
    report(
        f"substitute graph: |V|={graph.num_vertices}, "
        f"|E|={graph.num_edges}, T={iterations}"
    )
    report(
        f"state export: to_label_state {export['to_label_state_s']:.3f}s vs "
        f"to_array_state {export['to_array_state_s']:.3f}s "
        f"({export['speedup']:.1f}x)"
    )
    print_table(
        report,
        [
            "batch size",
            "reference (s, median)",
            "fast (s, median)",
            "speedup",
            "eta",
            "scratch ref (s)",
            "scratch fast (s)",
        ],
        [
            (
                row["batch_size"],
                round(row["reference_s"], 4),
                round(row["fast_s"], 4),
                f"{row['speedup']:.1f}x",
                row["eta"],
                round(row["scratch_reference_s"], 3),
                round(row["scratch_fast_s"], 4),
            )
            for row in rows
        ],
    )


def test_fig9_incremental_vs_scratch(benchmark, report, webgraph):
    base_graph = webgraph.graph
    results = {}

    def run_sweep():
        rows, export = _sweep(base_graph, ITERATIONS, BATCH_SIZES)
        results["batches"] = rows
        results["export"] = export
        return results

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows, export = results["batches"], results["export"]

    _report_sweep(
        report,
        "Figure 9: incremental updating, reference vs vectorised corrector",
        base_graph,
        ITERATIONS,
        rows,
        export,
    )

    payload = {
        "benchmark": "fig9_incremental",
        "scale": SCALE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": environment(),
        "clock": f"time.{CLOCK.__name__}",
        "graph": {
            "kind": "webgraph_eu2015tpd_substitute",
            "num_vertices": base_graph.num_vertices,
            "num_edges": base_graph.num_edges,
            "iterations": ITERATIONS,
        },
        "results": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    report(f"results recorded in {RESULT_PATH}")

    # Shape assertions (paper Figure 9 + the array substrate's contract).
    for row in rows:
        assert row["reference_s"] < row["scratch_reference_s"], (
            f"reference incremental slower than scratch at batch {row['batch_size']}"
        )
        if row["batch_size"] >= 1000:
            assert row["speedup"] >= 5.0, (
                f"fast corrector only {row['speedup']:.1f}x at "
                f"batch {row['batch_size']}"
            )
    assert export["speedup"] >= 5.0, (
        f"to_array_state only {export['speedup']:.1f}x over to_label_state"
    )
    # Sublinearity: across a batch-size step, touched labels grow slower
    # than the batch size (overlapping influence regions).
    etas = {row["batch_size"]: row["eta"] for row in rows}
    sizes = sorted(etas)
    for small, large in zip(sizes, sizes[1:]):
        growth = etas[large] / max(etas[small], 1)
        ratio = large / small
        assert growth < ratio * 1.5, (
            f"eta growth {growth:.1f}x vs batch growth {ratio:.1f}x"
        )


def test_fig9_smoke(benchmark, report):
    """Scaled-down sweep for CI (`pytest benchmarks -k smoke`): exercises the
    full reference-vs-fast incremental path on a small webgraph in seconds,
    over a few consecutive batches per row, with the bit-identity
    assertions after each but no timing regression gate."""
    graph = generate_webgraph(
        WebGraphParams(n=2500, avg_out_degree=8.0), seed=7
    ).graph
    results = {}

    def run_sweep():
        rows, export = _sweep(graph, 30, [50, 200], batches=3)
        results["batches"] = rows
        results["export"] = export
        return results

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    _report_sweep(
        report,
        "Figure 9 smoke: incremental engines on a small webgraph",
        graph,
        30,
        results["batches"],
        results["export"],
    )
    # Time-bounded correctness run only — the bit-identity asserts inside
    # _sweep are the gate; timing thresholds stay with the full sweep.
    assert len(results["batches"]) == 2


if __name__ == "__main__":  # pragma: no cover - ad-hoc run without pytest
    params = WebGraphParams(n=8000, avg_out_degree=10.0)
    instance = generate_webgraph(params, seed=7)

    class _Bench:
        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            fn()

    class _Webgraph:
        graph = instance.graph

    test_fig9_incremental_vs_scratch(_Bench(), print, _Webgraph())
