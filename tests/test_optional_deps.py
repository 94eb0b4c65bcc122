"""A clean install imports without its optional dependencies.

``pyproject.toml`` declares only numpy.  networkx serves the interop and
real-world dataset helpers alone, which import it when called, so every
entry point must import with networkx absent.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_entry_points_import_without_networkx():
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now fails\n"
        "import repro, repro.distributed, repro.service, repro.cli\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
