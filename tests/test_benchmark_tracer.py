"""The benchmark's call tracer (`benchmarks/tracer.py`) rebinds package
functions by name, so a removed or renamed function breaks a traced run.
These checks catch that here, without running the benchmark."""

import importlib
import importlib.util
import os

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
