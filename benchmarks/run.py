"""Benchmark entry point: one workload, one seed, one fresh interpreter.

    python3 benchmarks/run.py --workload machinery --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the run repeats units of the workload (one pipeline call or one
query batch) until `--seconds` have passed, checks every verdict against its
known answer, and prints the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced units, checks that both give the same output,
and prints the per-layer metrics; the spans go to `.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every verdict matched.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4  # extra fresh processes that only set up, for setup_s


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup(name: str, seed: int):
    """Import chromagap and build the workload: inputs and expected answers."""
    sys.path[:0] = [SRC, HERE]
    import chromagap

    if os.path.dirname(os.path.abspath(chromagap.__file__)) != os.path.join(SRC, "chromagap"):
        raise ImportError(f"chromagap imported from {chromagap.__file__}, not from {SRC}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    return workloads, workloads.WORKLOADS[name](seed)


def probe_setup(name: str, seed: int) -> float:
    """set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_unit(workload):
    """One unit of work: (output or None, seconds, verdicts, failures)."""
    t0 = time.perf_counter()
    try:
        output = workload.run()
    except Exception as exc:  # a unit that raises is a failed verdict
        return None, time.perf_counter() - t0, 1, [f"{workload.name} raised {exc!r}"]
    seconds = time.perf_counter() - t0
    attempted, failures = workload.check(output)
    return output, seconds, attempted, failures


def measure(workload, seconds: float) -> dict:
    """Untraced units until `seconds` have passed."""
    walls, latencies, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        output, wall, n, bad = run_unit(workload)
        walls.append(wall)
        attempted += n
        failures += bad
        if output is not None and hasattr(workload, "latencies"):
            latencies += workload.latencies(output)
        else:
            latencies.append(wall)
        del output
        if time.perf_counter() - start >= seconds:
            break
    return {"walls": walls, "latencies": latencies, "attempted": attempted, "failures": failures, "errors": []}


def measure_traced(workloads, workload, seconds: float, trace_path: str) -> dict:
    """Pairs of one untraced and one traced unit until `seconds` have
    passed; per-layer figures are per unit, averaged over traced units.
    Each pair must give the same output, timings aside."""
    import tracer as tracing

    walls, traced_walls, failures, errors = [], [], [], []
    attempted = 0
    totals: dict = {}
    stage_totals = dict.fromkeys(workloads.STAGES, 0.0)
    start = time.perf_counter()
    while True:
        plain, wall, n, bad = run_unit(workload)
        walls.append(wall)
        attempted += n
        failures += bad
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, wall, n, bad = run_unit(workload)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        attempted += n
        failures += bad
        if plain is None or traced is None or workload.comparable(plain) != workload.comparable(traced):
            errors.append("tracer self-check: traced output differs from untraced output")
        errors += [f"tracer self-check: {v}" for v in tracer.violations[:5]]
        for key, value in tracer.summary().items():
            totals[key] = totals.get(key, 0) + value
        if traced is not None:
            for stage, value in workload.stage_seconds(traced).items():
                stage_totals[stage] += value
        del plain, traced
        if time.perf_counter() - start >= seconds:
            break
    tracer.dump(trace_path)
    units = len(traced_walls)
    metrics = {key: value / units for key, value in totals.items()}
    metrics.update({f"cli.stage.{s}.s": v / units for s, v in stage_totals.items()})
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "errors": errors}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "chromagap", "__init__.py")):
        print(f"error: no chromagap package under {SRC}", file=sys.stderr)
        return 2
    workloads, workload = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        run = measure_traced(workloads, workload, args.seconds, path)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in run["metrics"].items()}
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        run = measure(workload, args.seconds)
        lat_ms = [s * 1000 for s in run["latencies"]]
        metrics = {
            "wall_s": {"value": statistics.median(run["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "query_p50_ms": {"value": percentile(lat_ms, 50), "unit": "ms"},
            "query_p99_ms": {"value": percentile(lat_ms, 99), "unit": "ms"},
        }
        print(
            f"{args.workload} seed {args.seed}: {len(run['walls'])} units, "
            f"{len(lat_ms)} latency samples, {len(setups)} set-ups"
        )

    failed = len(run["failures"])
    for line in (run["failures"] + run["errors"])[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':48s} {failed / run['attempted']:.6g} ({failed}/{run['attempted']})")
    correct = failed == 0 and not run["errors"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
