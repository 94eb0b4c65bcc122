"""Ablation: the entropy-maximising τ1 rule (Eq. 1) vs fixed thresholds.

The paper picks τ1 = argmax of the community-size entropy and
τ2 = min_i max_j w_ij (Eq. 2).  This harness sweeps fixed τ1 values on an
LFR instance and reports where the entropy choice lands relative to the
achievable NMI ceiling — quantifying how much quality the heuristic gives
away (typically little) in exchange for needing no ground truth.

Run:  PYTHONPATH=src:. python -m pytest benchmarks/bench_ablation_tau.py -q
The ``-k smoke`` selection runs the same ablation on a small LFR (CI), so a
change to the stage functions it calls fails there too.
"""

from benchmarks.bench_common import banner, print_table, scaled
from repro.core.fast import FastPropagator
from repro.core.postprocess import (
    edge_weights,
    extract_communities,
    weak_threshold,
)
from repro.metrics.nmi import nmi_overlapping
from repro.workloads.lfr import LFRParams, generate_lfr

RSLPA_T = scaled(150, 200, 200)
FIXED_GRID = 9


def _ablation(lfr, iterations):
    """Entropy-chosen τ1 and ``FIXED_GRID`` fixed τ1 values between τ2 and
    the heaviest edge: (entropy result, its NMI, [(τ1, NMI, #communities)])."""
    graph = lfr.graph
    n = graph.num_vertices
    fast = FastPropagator(graph, seed=2)
    fast.propagate(iterations)
    state = fast.to_array_state()
    weighted = edge_weights(graph, state)
    tau2 = weak_threshold(weighted)
    max_w = float(weighted.weights.max())

    entropy_result = extract_communities(graph, state, step=0.001)
    entropy_nmi = nmi_overlapping(entropy_result.cover.as_sets(), lfr.communities, n)

    fixed_rows = []
    for i in range(1, FIXED_GRID + 1):
        tau1 = tau2 + (max_w - tau2) * i / (FIXED_GRID + 1)
        result = extract_communities(graph, state, tau1=tau1, tau2=tau2)
        fixed_rows.append(
            (
                round(tau1, 4),
                nmi_overlapping(result.cover.as_sets(), lfr.communities, n),
                len(result.cover),
            )
        )
    return entropy_result, entropy_nmi, fixed_rows


def _report(report, title, entropy_result, entropy_nmi, fixed_rows):
    report(
        banner(
            title,
            "the heuristic needs no ground truth yet should track the ceiling",
            "entropy choice within a small margin of the best fixed tau1",
        )
    )
    rows = [("entropy (Eq. 1)", round(entropy_result.tau1, 4), entropy_nmi,
             len(entropy_result.cover))]
    rows += [(f"fixed #{i+1}", tau, nmi, k) for i, (tau, nmi, k) in enumerate(fixed_rows)]
    print_table(report, ["choice", "tau1", "NMI", "#communities"], rows)
    best_fixed = max(nmi for _tau, nmi, _k in fixed_rows)
    report(
        f"entropy NMI {entropy_nmi:.3f} vs best fixed {best_fixed:.3f} "
        f"(gap {best_fixed - entropy_nmi:+.3f})"
    )


def _check(entropy_nmi, fixed_rows):
    # The heuristic must come within a reasonable margin of the ceiling and
    # beat the worst fixed choices decisively.
    best_fixed = max(nmi for _tau, nmi, _k in fixed_rows)
    worst_fixed = min(nmi for _tau, nmi, _k in fixed_rows)
    assert entropy_nmi >= best_fixed - 0.25
    assert entropy_nmi >= worst_fixed


def test_tau1_entropy_vs_fixed(benchmark, report, default_lfr):
    entropy_result, entropy_nmi, fixed_rows = benchmark.pedantic(
        _ablation, args=(default_lfr, RSLPA_T), rounds=1, iterations=1
    )
    _report(report, "Ablation: entropy-chosen tau1 (Eq. 1) vs fixed thresholds",
            entropy_result, entropy_nmi, fixed_rows)
    _check(entropy_nmi, fixed_rows)


def test_tau1_smoke(benchmark, report):
    """The same ablation on a small LFR in seconds (CI): every stage
    function the full run calls, with the same quality assertions."""
    lfr = generate_lfr(
        LFRParams(n=300, avg_degree=12, max_degree=30, mu=0.1,
                  overlap_fraction=0.1, overlap_membership=2),
        seed=42,
    )
    entropy_result, entropy_nmi, fixed_rows = benchmark.pedantic(
        _ablation, args=(lfr, 60), rounds=1, iterations=1
    )
    _report(report, "Ablation smoke: entropy-chosen tau1 on a small LFR",
            entropy_result, entropy_nmi, fixed_rows)
    _check(entropy_nmi, fixed_rows)
