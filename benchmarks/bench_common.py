"""Shared infrastructure for the benchmark harnesses.

Every harness reproduces one table or figure of the paper (see DESIGN.md's
experiment index) and prints the same rows/series the paper reports, next to
the paper's expected shape.  Absolute numbers are not comparable — the paper
ran Scala/Spark on a 7-node cluster; we run pure Python on one machine — but
the *shape* (who wins, by what factor, where crossovers fall) is.

Scaling: set ``REPRO_SCALE=small|medium|paper`` (default ``small``) to pick
input sizes.  ``paper`` uses the paper's parameters where feasible; expect
long runtimes.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

__all__ = ["SCALE", "scaled", "print_table", "print_series", "banner", "environment"]

SCALE = os.environ.get("REPRO_SCALE", "small")
if SCALE not in ("small", "medium", "paper"):
    raise ValueError(f"REPRO_SCALE must be small|medium|paper, got {SCALE!r}")


def scaled(small, medium, paper):
    """Pick a per-scale value."""
    return {"small": small, "medium": medium, "paper": paper}[SCALE]


def banner(title: str, paper_ref: str, expectation: str) -> str:
    """A harness header recording what the paper reports."""
    lines = [
        "=" * 78,
        f"{title}   [scale={SCALE}]",
        f"paper: {paper_ref}",
        f"expected shape: {expectation}",
        "=" * 78,
    ]
    return "\n".join(lines)


def print_table(writer, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Fixed-width table printer (no external deps)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    writer(line)
    writer("  ".join("-" * w for w in widths))
    for row in text_rows:
        writer("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def print_series(writer, name: str, xs: Sequence, ys: Sequence[float]) -> None:
    """One figure series as a row of (x, y) pairs."""
    pairs = "  ".join(f"({x}, {y:.3f})" for x, y in zip(xs, ys))
    writer(f"{name}: {pairs}")


def environment() -> Dict[str, object]:
    """The host a bench record was measured on, for the record itself:
    python, numpy, core count, CPU model and, in a git checkout, the
    commit (suffixed ``-dirty`` when the tree has uncommitted changes)."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:  # not Linux: the platform's own name stays
        pass
    info: Dict[str, object] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
    }
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):  # no git on this host
        return info
    if sha.returncode == 0:
        info["git_sha"] = sha.stdout.strip()
    return info
