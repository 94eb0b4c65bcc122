"""Figure 9 — incremental updating vs recomputation from scratch,
across edit-batch sizes, for BOTH correction engines.

Paper (batch sizes 100 .. 100,000, half insertions / half deletions):
incremental updating is far cheaper than from-scratch for every batch size,
and its cost grows *sublinearly* in the batch size (overlapping influence
regions), making large batches especially attractive.

This harness sweeps each batch size through the reference (pure-Python,
event-driven) corrector AND the vectorised array corrector, asserts the two
repairs are bit-identical, and records the reference/fast speedup trajectory
in ``BENCH_incremental.json`` (same shape as ``BENCH_backends.json``), along
with the ``to_label_state`` vs ``to_array_state`` export comparison.

Run:  PYTHONPATH=src:. python -m pytest benchmarks/bench_fig9_incremental.py -q
The ``-k smoke`` selection runs a scaled-down, time-bounded sweep (CI).
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.bench_common import SCALE, banner, print_table, scaled
from repro.core.fast import FastPropagator
from repro.core.incremental import CorrectionPropagator
from repro.core.incremental_fast import FastCorrectionPropagator
from repro.core.rslpa import ReferencePropagator
from repro.graph.csr import CSRGraph
from repro.graph.edits import apply_batch
from repro.workloads.dynamic import random_edit_batch
from repro.workloads.webgraph import WebGraphParams, generate_webgraph

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"

ITERATIONS = scaled(60, 100, 200)
BATCH_SIZES = scaled(
    [10, 30, 100, 300, 1000, 3000],
    [100, 300, 1000, 3000, 10_000],
    [100, 500, 1000, 5000, 10_000, 50_000, 100_000],
)


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


def _sweep(graph, iterations, batch_sizes, seed=3):
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
            t0 = time.perf_counter()
            fast_prop.to_label_state()
            dict_export_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            astate = fast_prop.to_array_state()
            array_export_s = time.perf_counter() - t0
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

        batch = random_edit_batch(graph, batch_size, seed=batch_size)
        # The state's reverse records are built by its first repair; build
        # them here so the timer below covers the repair alone.
        astate.reindex()

        t0 = time.perf_counter()
        ref_report = ref_corrector.apply_batch(batch)
        reference_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        fast_report = fast_corrector.apply_batch(batch)
        fast_s = time.perf_counter() - t0

        assert ref_report.touched_labels == fast_report.touched_labels
        assert ref_report.repicked == fast_report.repicked
        _assert_repairs_identical(ref_corrector, fast_corrector)

        # From-scratch baselines on the post-batch graph.
        scratch_graph = graph.copy()
        apply_batch(scratch_graph, batch)
        t0 = time.perf_counter()
        ReferencePropagator(scratch_graph, seed=seed).propagate(iterations)
        scratch_ref_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        scratch_fast = FastPropagator(CSRGraph.from_graph(scratch_graph), seed=seed)
        scratch_fast.propagate(iterations)
        scratch_fast.to_array_state().reindex()  # fair: scratch must also yield records
        scratch_fast_s = time.perf_counter() - t0

        rows.append(
            {
                "batch_size": batch_size,
                "reference_s": reference_s,
                "fast_s": fast_s,
                "speedup": reference_s / fast_s if fast_s else float("inf"),
                "eta": ref_report.touched_labels,
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
            "reference (s)",
            "fast (s)",
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
    with the bit-identity assertions but no timing regression gate."""
    graph = generate_webgraph(
        WebGraphParams(n=2500, avg_out_degree=8.0), seed=7
    ).graph
    results = {}

    def run_sweep():
        rows, export = _sweep(graph, 30, [50, 200])
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
