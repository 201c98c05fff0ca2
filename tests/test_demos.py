"""Smoke tests: each demo runs to completion in a fresh interpreter.

`eta_colouring` builds the full 6,144-vertex eta colouring and is the
slowest, at 3-4 s on a shared 2-core host with Python 3.11.7.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    [
        "dmr_chain",
        "eta_colouring",
        "grassmann_reduction",
        "magic_square_pseudotelepathy",
        "pultr_adjunction",
        "transition_matrix",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
