"""The repository benchmark: four workloads over the rSLPA service loop.

Run from the repository root::

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the root names the workloads (and why each was
chosen) and every metric with its unit and better direction; this script
reads it.  Load comes from one client in a closed loop.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` first repeats that untraced pass, then installs the timing
shims of ``perfbench/layers.py`` and runs the workload again: it prints the
phase table of the timed region (self time per span plus the
``unattributed`` residual, which add up to the wall time), the per-layer
metrics, and the tracing overhead (traced minus untraced end-to-end
numbers).

Every run checks the program's outputs; a failed check fails the run
(exit code 1).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (environment, inputs digest, every metric, checks, phase tables) is
written under ``perfbench/out/``, and with ``--trace 1`` the spans too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: How each workload names the generic end-to-end metrics in its report.
#: ``op`` is the workload's unit of work, ``read`` the reads between units.
ALIASES = {
    "serve_fresh": {"op": "fresh_ms", "throughput": "edits_per_s"},
    "ingest_bulk": {"op": "cycle_ms", "batch": "batch_ms", "read": "query_us",
                    "throughput": "ingest_eps"},
    "dist_fit": {"op": "fit_ms", "throughput": "label_slots_per_s"},
    "replicated": {"op": "window_ms", "batch": "batch_ms", "read": "query_us",
                   "throughput": "ingest_eps"},
}


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that has at
    least ten samples beyond it; below 21 samples that is the median."""
    xs = sorted(values)
    n = len(xs)
    i = n - 11
    if i <= (n - 1) // 2:
        return (median(xs) if xs else 0.0), 50.0, n
    return xs[i], 100.0 * (n - 10) / n, n


def end_to_end(outcome) -> Dict[str, float]:
    """The bounded metrics: medians over set-ups and units of work, and the
    median rate of a unit, each set-up and unit first scaled to the
    reference speed (``Outcome.at_reference``)."""
    setups = len(outcome.setup_s)
    op_ms = outcome.at_reference(outcome.op_ms, setups)
    return {
        "setup_s": median(outcome.at_reference(outcome.setup_s, 0)),
        "op_ms_p50": median(op_ms),
        "throughput": median(w / (ms / 1e3) for w, ms in zip(outcome.op_work, op_ms)),
        "peak_rss_mb": max(outcome.peak_rss_self_mb, outcome.peak_rss_child_mb),
    }


def named_view(workload: str, outcome) -> List[Tuple[str, float, str, str]]:
    """The end-to-end metrics under the workload's own names, as measured,
    for the report."""
    alias = ALIASES[workload]
    rows = [("host_slowdown", outcome.slowdown(), "ratio",
             f"median of {len(outcome.probes)} speed probes over the reference")]
    rows.append(("setup_s", median(outcome.setup_s), "s",
                 f"median of {len(outcome.setup_s)} set-ups"))
    for key, samples, unit in (("op", outcome.op_ms, "ms"),
                               ("batch", outcome.extra.get("batch_ms"), "ms"),
                               ("read", outcome.read_us, "us")):
        if key not in alias or not samples:
            continue
        value, pct, n = tail(samples)
        rows.append((f"{alias[key]}_p50", median(samples), unit, f"n={n}"))
        rows.append((f"{alias[key]}_tail", value, unit, f"p{pct:.1f}, n={n}"))
    if workload == "dist_fit":
        rows.append(("fit_s", median(outcome.op_ms) / 1e3, "s", f"n={len(outcome.op_ms)}"))
    rows.append((alias["throughput"], outcome.work / outcome.wall_s, "1/s",
                 f"{outcome.work} over {outcome.wall_s:.3f} s"))
    rows.append(("op_fail_ratio", outcome.failed / max(1, outcome.attempted), "ratio",
                 f"{outcome.failed} of {outcome.attempted}"))
    rows.append(("peak_rss_mb", max(outcome.peak_rss_self_mb, outcome.peak_rss_child_mb),
                 "MB", f"self {outcome.peak_rss_self_mb:.1f}, "
                       f"largest child {outcome.peak_rss_child_mb:.1f}"))
    return rows


def environment() -> Dict[str, Any]:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


def run_workload(name: str, args, spec: Dict[str, Any], workdir: Path) -> Dict[str, Any]:
    """One workload, untraced (``--trace 0``) or untraced then traced."""
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, input_digest, reset_peak_rss

    workload = WORKLOADS[name](tiny=args.tiny, workdir=workdir, datasets=OUT / "datasets")
    inputs = workload.make_inputs(args.seed, args.seconds)
    record: Dict[str, Any] = {
        "workload": name,
        "why": spec["whys"][name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs_digest": input_digest(inputs),
    }
    gc.collect()
    reset_peak_rss()
    if not args.trace:
        outcome = workload.execute(inputs, setups=workload.setups)
        metrics = end_to_end(outcome)
    else:
        untraced = workload.execute(inputs, setups=1, check=False)
        gc.collect()
        tracer = Tracer()
        layers.install(tracer)
        try:
            outcome = workload.execute(inputs, setups=1, tracer=tracer)
        finally:
            tracer.uninstall()
        if name == "replicated":
            failover = workload.failover_probe(inputs)
            outcome.extra["failover"] = failover
            outcome.check("failover_absorbed", failover["failovers"] == 1,
                          f"{failover['failovers']} failovers")
        base, traced = end_to_end(untraced), end_to_end(outcome)
        record["untraced_end_to_end"] = base
        record["traced_end_to_end"] = traced
        record["tracing_overhead"] = {k: traced[k] - base[k] for k in base}
        timed = tracer.phase_table("timed", outcome.wall_s)
        record["phase_table"] = timed
        record["setup_phase_table"] = tracer.phase_table("setup", sum(outcome.setup_s))
        metrics = layers.per_layer_metrics(tracer, outcome)
        metrics["unattributed_s"] = timed["unattributed_s"]
        metrics["trace.overhead_pct"] = (
            100.0 * (traced["op_ms_p50"] - base["op_ms_p50"]) / base["op_ms_p50"]
        )
        record["spans"] = tracer.export()
    units = spec["units"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    record.update(
        metrics={key: {"value": metrics[key], "unit": units[key]} for key in wanted},
        better={key: spec["better"][key] for key in wanted},
        named=named_view(name, outcome),
        samples={"setup_s": outcome.setup_s, "op_ms": outcome.op_ms,
                 "op_work": outcome.op_work,
                 "read_us": outcome.read_us, "speed_probe_s": outcome.probes,
                 "speed_probe_passes_s": outcome.probe_passes},
        checks=outcome.checks,
        errors=outcome.errors,
        counts=outcome.counts,
        attempted=outcome.attempted,
        failed=outcome.failed,
        correct=bool(outcome.checks) and all(ok for _n, ok, _d in outcome.checks)
        and outcome.failed == 0,
    )
    return record


def reap_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The program's worker and replica processes are joined by the program
    itself; any still alive here are terminated.  The shm transport also
    starts multiprocessing's resource-tracker daemon, which is built to
    outlive its parent; it is stopped and waited for here, so nothing of
    the run is left running after it exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()  # no finalizer may restart the tracker after it stops
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def print_record(record: Dict[str, Any]) -> None:
    from perfbench.tracer import format_phase_table

    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}"
          f"  trace={record['trace']}{'  tiny' if record['tiny'] else ''}")
    print(f"   why: {record['why']}")
    if not record["trace"]:
        print("   end-to-end metrics (BENCHMARK.json names), at the reference speed:")
        for key, metric in record["metrics"].items():
            print(f"     {key:28s} {metric['value']:14.4f} {metric['unit']}")
    print("   end-to-end metrics as this workload names them:")
    for key, value, unit, note in record["named"]:
        print(f"     {key:28s} {value:14.4f} {unit:6s} ({note})")
    if record["trace"]:
        print(format_phase_table("   phase table, timed region:", record["phase_table"]))
        print(format_phase_table("   phase table, set-up:", record["setup_phase_table"]))
        print("   tracing overhead (traced minus untraced end-to-end):")
        for key, delta in record["tracing_overhead"].items():
            base = record["untraced_end_to_end"][key]
            share = 100.0 * delta / base if base else 0.0
            print(f"     {key:28s} {delta:+14.4f} ({share:+.1f}%)")
        print("   per-layer metrics:")
        for key, metric in record["metrics"].items():
            print(f"     {key:44s} {metric['value']:16.6f} {metric['unit']}")
    for name, ok, detail in record["checks"]:
        print(f"   check {'PASS' if ok else 'FAIL'}: {name}{f' ({detail})' if detail else ''}")
    for error in record["errors"]:
        print(f"   error: {error}")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    metrics = bench["end_to_end"] + bench["per_layer"]
    return {
        "whys": {w["name"]: w["why"] for w in bench["workloads"]},
        "units": {m["name"]: m["unit"] for m in metrics},
        "better": {m["name"]: m["better"] for m in metrics},
        "end_to_end": [m["name"] for m in bench["end_to_end"]],
        "per_layer": [m["name"] for m in bench["per_layer"]],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # the program under test, from this checkout's src/

        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"repro imported from {repro.__file__}, not src/")
        spec = load_spec()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(spec["whys"]), args)
    if args.workload not in ALIASES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment()
    print(f"environment: {json.dumps(env)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        record = run_workload(args.workload, args, spec, workdir)
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = env
    print_record(record)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(names: List[str], args) -> int:
    """Every workload, each in a process of its own, so that peak memory
    and child processes are those of the workload measured."""
    results = []
    for name in names:
        child_argv = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            child_argv.append("--tiny")
        done = subprocess.run([sys.executable, str(HERE / "run.py"), *child_argv],
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("\n".join(lines))
            print(f"perfbench: workload {name} printed no result "
                  f"(exit {done.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        results.append((name, result))
    combined = {
        "correct": all(r["correct"] for _n, r in results),
        "attempted": sum(r["attempted"] for _n, r in results),
        "failed": sum(r["failed"] for _n, r in results),
        "metrics": {f"{name}.{key}": metric
                    for name, r in results for key, metric in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
