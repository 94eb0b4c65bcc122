"""The benchmark's own tests, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Every workload runs untraced on two seeds and traced on one.  The tests
assert that every end-to-end and per-layer metric of ``BENCHMARK.json``
appears with its unit, that every output check ran and passed, that two
seeds give different inputs but the same metrics, and that a checkout
without the program fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

CHECKS = {
    "serve_fresh": {"state_validates", "state_matches_reference_every_round",
                    "cover_matches_reference", "stable_ids_match_reference"},
    "ingest_bulk": {"every_window_flushed_its_batch", "state_validates",
                    "state_matches_reference", "cover_matches_reference",
                    "stable_ids_match_reference"},
    "dist_fit": {"state_matches_local_fast_fit", "comm_stats_repeat"},
    "replicated": {"replica_cover_matches_primary", "zero_read_errors"},
}
TRACED_CHECKS = {"replicated": {"failover_absorbed"}}

#: The end-to-end metrics each workload prints under its own names.
NAMED = {
    "serve_fresh": ["host_slowdown", "fresh_ms_p50", "fresh_ms_tail", "edits_per_s"],
    "ingest_bulk": ["host_slowdown", "cycle_ms_p50", "batch_ms_p50", "batch_ms_tail",
                    "query_us_p50", "query_us_tail", "ingest_eps"],
    "dist_fit": ["host_slowdown", "fit_s", "fit_ms_tail", "label_slots_per_s"],
    "replicated": ["host_slowdown", "window_ms_p50", "batch_ms_p50", "batch_ms_tail",
                   "query_us_p50", "query_us_tail", "ingest_eps"],
}
COMMON = ["setup_s", "op_fail_ratio", "peak_rss_mb"]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


@pytest.fixture(scope="module")
def runs():
    results = {}
    for workload in WORKLOADS:
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            done = _run(workload, seed, trace)
            assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
            stem = f"{workload}-seed{seed}-trace{trace}-tiny"
            record = json.loads((ROOT / "perfbench" / "out" / f"{stem}.json").read_text())
            results[workload, seed, trace] = (done.stdout, record)
    return results


def _result(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_units(runs, workload):
    for seed in (1, 2):
        stdout, _record = runs[workload, seed, 0]
        result = _result(stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        names = [m["name"] for m in BENCH["end_to_end"]]
        assert list(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert metric["unit"] == UNITS[name]
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_named_metrics_printed_with_units(runs, workload):
    stdout, _record = runs[workload, 1, 0]
    lines = stdout.splitlines()
    for name in NAMED[workload] + COMMON:
        line = next((ln for ln in lines if ln.split()[:1] == [name]), None)
        assert line is not None, name
        assert len(line.split()) >= 3, line  # name, value, unit
        if name.endswith("_tail"):
            assert "(p" in line and "n=" in line, line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_phase_table(runs, workload):
    stdout, record = runs[workload, 1, 1]
    result = _result(stdout)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name]
    table = record["phase_table"]
    self_sum = sum(row["self_s"] for row in table["phases"].values())
    assert self_sum + table["unattributed_s"] == pytest.approx(table["wall_s"])
    assert table["phases"], "the traced run recorded no spans"
    assert set(record["tracing_overhead"]) == {m["name"] for m in BENCH["end_to_end"]}
    spans = json.loads(
        (ROOT / "perfbench" / "out" / f"{workload}-seed1-trace1-tiny.spans.json").read_text()
    )
    assert spans and {"name", "start_ns", "end_ns", "parent", "region"} == set(spans[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_output_check_ran(runs, workload):
    for key, expected in (((workload, 1, 0), CHECKS[workload]),
                          ((workload, 1, 1),
                           CHECKS[workload] | TRACED_CHECKS.get(workload, set()))):
        _stdout, record = runs[key]
        ran = {name: ok for name, ok, _detail in record["checks"]}
        assert set(ran) == expected
        assert all(ran.values()), ran


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_inputs_not_metrics(runs, workload):
    (out1, rec1), (out2, rec2) = runs[workload, 1, 0], runs[workload, 2, 0]
    assert rec1["inputs_digest"] != rec2["inputs_digest"]
    assert set(_result(out1)["metrics"]) == set(_result(out2)["metrics"])
    for key in ("git_sha", "python", "numpy", "cpu_model", "nproc"):
        assert key in rec1["environment"]
    assert rec1["why"] and rec1["seed"] == 1 and rec2["seed"] == 2


def test_counts_repeat_per_seed(runs):
    """Counts from two traced runs of one seed are identical."""
    again = _run("serve_fresh", 1, 1)
    assert again.returncode == 0
    first = _result(runs["serve_fresh", 1, 1][0])["metrics"]
    second = _result(again.stdout)["metrics"]
    for name, metric in first.items():
        if metric["unit"] in ("count", "bytes", "ratio"):
            assert second[name] == metric, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_speed_probes_around_every_setup_and_unit(runs, workload):
    _stdout, record = runs[workload, 1, 0]
    samples = record["samples"]
    assert len(samples["speed_probe_s"]) == 1 + len(samples["setup_s"]) + len(samples["op_ms"])
    assert len(samples["op_work"]) == len(samples["op_ms"])


def test_all_prints_every_workload(runs):
    done = _run("all", 3, 0)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = _result(done.stdout)
    assert result["correct"] is True
    assert list(result["metrics"]) == [
        f"{workload}.{m['name']}" for workload in WORKLOADS for m in BENCH["end_to_end"]
    ]
    for workload in WORKLOADS:
        assert f"== {workload}  seed=3" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _session_of(pid_dir: Path) -> int:
    stat = (pid_dir / "stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[3])


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("workload", ["dist_fit", "replicated"])
def test_no_process_outlives_a_run(workload):
    """Every process a run starts has ended when the run exits, including
    the resource tracker that the shm transport starts and that would
    otherwise outlive its parent.  The run is a session leader, so every
    process it starts carries its session id."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    left = []
    for pid_dir in Path("/proc").iterdir():
        if not pid_dir.name.isdigit():
            continue
        try:
            if _session_of(pid_dir) == proc.pid:
                left.append((pid_dir / "cmdline").read_bytes().replace(b"\0", b" "))
        except (OSError, ValueError, IndexError):  # ended while we looked
            continue
    assert not left


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
