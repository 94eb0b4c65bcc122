"""The service path against its committed digests (``tests/golden/``).

Each scenario reruns and must reproduce ``digests.json`` step by step; a
failure names the first step that differs.  ``tests/golden/make.py`` says
what a step hashes and how to regenerate the file.
"""

import json

import pytest

from golden.make import DIGESTS, SCENARIOS

EXPECTED = json.loads(DIGESTS.read_text())


def test_every_scenario_is_committed():
    assert sorted(EXPECTED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_committed_digests(name, tmp_path):
    steps = SCENARIOS[name](tmp_path)
    for (step, got), (want_step, want) in zip(steps, EXPECTED[name]):
        assert step == want_step, (
            f"{name}: ran step {step!r} where {want_step!r} was committed"
        )
        assert got == want, f"{name}: first difference at step {step!r}"
    assert [row[0] for row in steps] == [row[0] for row in EXPECTED[name]]
