"""The benchmark's call tracer (`benchmarks/tracer.py`) rebinds package
functions by name, so a removed or renamed function breaks a traced run.
The first check catches that without running the benchmark; the second
runs one traced and one untraced unit of `magic-square-full`."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", os.path.join(ROOT, "benchmarks", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_name_package_functions_and_cover_the_leaves():
    tracer = _load_tracer()
    listed = set()
    for module_name, names in tracer.LAYERS.items():
        module = importlib.import_module(f"chromagap.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            listed.add(f"{module_name}.{name}")
    assert tracer.LEAVES <= listed, sorted(tracer.LEAVES - listed)


def test_magic_square_workload_matches_its_known_answers_traced_and_untraced():
    """One untraced and one traced unit of the `magic-square-full` workload:
    every known answer holds and the tracer's self-check passes."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "benchmarks", "run.py"),
            *("--workload", "magic-square-full", "--seed", "0", "--seconds", "0", "--trace", "1"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
