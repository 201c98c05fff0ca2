"""Smoke tests: each fast demo runs to completion in a fresh interpreter.

`eta_colouring` is left out: it runs the full 6,144-vertex eta colouring
and takes about 40 s; acceptance criterion 3 covers the same stage.
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
