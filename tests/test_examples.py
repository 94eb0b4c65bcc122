"""Smoke tests: every example script, and the README's Observability
snippet, must run cleanly end to end."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

SCRIPTS = [
    "quickstart.py",
    "dynamic_social_network.py",
    "parameter_study.py",
    "distributed_web_graph.py",
    "streaming_monitor.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    path = os.path.join(EXAMPLES_DIR, script)
    result = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def _readme_python_block(heading):
    """The first ``python`` code block after ``heading`` in README.md."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split(heading + "\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_observability_snippet_runs(tmp_path, monkeypatch):
    from repro.graph.generators import ring_of_cliques

    monkeypatch.chdir(tmp_path)
    exec(
        _readme_python_block("## Observability"),
        {"graph": ring_of_cliques(4, 5)},
    )
    assert (tmp_path / "run.trace.json").is_file()
