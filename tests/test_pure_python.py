"""The package runs on the standard library alone: no import of
``repro``, and no run, pulls in numpy."""

import os
import subprocess
import sys
from pathlib import Path

import repro

PROGRAM = """
import sys
import repro.api, repro.campaign, repro.server
result = repro.api.Scenario(protocol="D", n=256, t=128, seed=1).run()
assert result.completed, result
assert "numpy" not in sys.modules, sorted(name for name in sys.modules if "numpy" in name)
"""


def test_repro_never_imports_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
