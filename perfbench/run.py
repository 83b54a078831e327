"""asyncsgd benchmark: host cost per simulated update, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. `--trace 0` measures the end-to-end metrics with tracing
off and takes peak memory from a separate fresh process. `--trace 1`
alternates untraced and traced units and reports the per-layer metrics, the
tracing overhead, and whether tracing changed any output. Without
`--workload`, every workload runs in turn, each in its own process.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 when every output
check passed, 1 when one failed and 2 when the package cannot be imported.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: at OpenBLAS's default thread
# count a single 500x50 lstsq on a 2-core machine takes 0.2 s on some calls
# instead of 1 ms (see README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ASYNC_SGD_SEED", None)   # the CLI would let it override --seed

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True   # leave the checkout as it was

import numpy as np  # noqa: E402  (after the BLAS pin above)
from refclock import RefClock  # noqa: E402  (this directory is sys.path[0])
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_MIN_SAMPLES = 21
SETUP_BLOCK_S = 0.1
MEMORY_PASS_TIMEOUT_S = 150
WORKLOAD_NAMES = ("straggler-long", "seed-sweep", "diagnostics-wide", "check-suite")


def import_package() -> bool:
    """Import asyncsgd from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import asyncsgd
    except ImportError as exc:
        print(f"perfbench: cannot import asyncsgd from {SRC}: {exc}", file=sys.stderr)
        return False
    if SRC not in Path(asyncsgd.__file__).resolve().parents:
        print(f"perfbench: asyncsgd was imported from {asyncsgd.__file__}, not from {SRC}",
              file=sys.stderr)
        return False
    return True


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy < 1.26 prints instead of returning
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS)}


class Tally:
    """Attempted and failed units, and the output fingerprint they must share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run(self, workload, inputs, label: str):
        """Run one unit; return (unit, seconds), or (None, seconds) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            unit = workload.run(inputs)
        except Exception:   # a failed run is counted, and the benchmark goes on
            traceback.print_exc()
            self.failed += 1
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if self.reference is None:
            self.reference = unit.fingerprint
        elif unit.fingerprint != self.reference:
            unit.failures.append(f"{label} outputs differ from the first unit's")
        if unit.failures:
            self.failed += 1
            for failure in unit.failures:
                print(f"check failed: {failure}", file=sys.stderr)
        return unit, elapsed


def setup_block(workload):
    """Set up repeatedly for about SETUP_BLOCK_S; return the last inputs and the times."""
    times = []
    block_end = time.perf_counter() + SETUP_BLOCK_S
    while not times or time.perf_counter() < block_end:
        start = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - start)
    return inputs, times


def memory_pass(name: str, seed: int) -> dict:
    """Peak RSS of one set-up and unit, in a fresh process with no tracing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--memory-pass"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=MEMORY_PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "peak_rss_mb": None}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return {"attempted": 1, "failed": 1, "peak_rss_mb": None}
    return json.loads(lines[-1])


def end_to_end(workload, name: str, seed: int, seconds: float):
    """Untraced units for `seconds`; every time in reference seconds.

    A block of set-ups follows each unit, so set-up is sampled across the
    whole window like the units are, and both share the unit's calibration.
    """
    tally = Tally()
    workload.setup()   # warm-up: numpy's first-call initialisation
    clock = RefClock()
    inputs = workload.setup()
    rates, raw_rates, unit_runs, setups, raw_setups = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        unit, elapsed = tally.run(workload, inputs, "repeated")
        inputs, block = setup_block(workload)
        factor = clock.factor()
        if unit is not None and not unit.failures:
            rates.append(unit.updates / (elapsed * factor))
            raw_rates.append(unit.updates / elapsed)
            unit_runs.append([s * factor for s in unit.run_s])
        raw_setups.extend(block)
        setups.extend(s * factor for s in block)
        if time.perf_counter() >= deadline and len(setups) >= SETUP_MIN_SAMPLES:
            break
    memory = memory_pass(name, seed)
    tally.attempted += memory["attempted"]
    tally.failed += memory["failed"]
    if not rates or memory["peak_rss_mb"] is None:
        return tally, {}, {}
    # each run's latency is its mean over the repeated units (steadier than
    # the median on this kind of host); the percentiles are across the runs
    # of one unit
    run_ms = [1e3 * statistics.fmean(samples) for samples in zip(*unit_runs)]
    metrics = {
        "updates_per_s": (statistics.median(rates), "1/s"),
        "run_ms_p50": (float(np.percentile(run_ms, 50)), "ms"),
        "run_ms_p90": (float(np.percentile(run_ms, 90)), "ms"),
        "peak_rss_mb": (memory["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "updates_per_s": f"n={len(rates)} units, wall-clock {statistics.median(raw_rates):.6g}",
        "run_ms_p50": f"n={len(run_ms)} runs x {len(unit_runs)} units",
        "run_ms_p90": f"n={len(run_ms)} runs x {len(unit_runs)} units",
        "peak_rss_mb": "n=1 fresh process",
        "setup_s": f"n={len(setups)} set-ups, wall-clock {statistics.median(raw_setups):.6g}",
    }
    return tally, metrics, notes


def per_layer(workload, seconds: float):
    """Untraced and traced units in turn for `seconds`; layer metrics of the traced."""
    tally = Tally()
    tracer = Tracer()
    workload.setup()   # warm-up
    clock = RefClock()
    inputs = workload.setup()
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        unit, elapsed = tally.run(workload, inputs, "untraced")
        factor = clock.factor()
        if unit is not None and not unit.failures:
            untraced.append(unit.updates / (elapsed * factor))
        tracer.reset()
        with tracer:
            start = time.perf_counter()
            traced_inputs = workload.setup()
            unit, elapsed = tally.run(workload, traced_inputs, "traced")
            unit_s = time.perf_counter() - start
        factor = clock.factor()
        if unit is not None and not unit.failures:
            traced.append(unit.updates / (elapsed * factor))
            layers.append(layer_metrics(tracer.snapshot(), unit_s, factor))
        if time.perf_counter() >= deadline:
            break
    if not layers or not untraced:
        return tally, {}, {}
    # median_low keeps counts whole when the number of traced units is even
    metrics = {key: (statistics.median_low(sample[key][0] for sample in layers), unit)
               for key, (_, unit) in layers[0].items()}
    plain, with_spans = statistics.median(untraced), statistics.median(traced)
    metrics["tracing.overhead_updates_per_s"] = (with_spans - plain, "1/s")
    metrics["tracing.overhead_pct"] = (100.0 * (plain - with_spans) / plain, "%")
    notes = {key: f"median of n={len(layers)} traced units" for key in metrics}
    notes["tracing.overhead_updates_per_s"] = (
        f"traced {with_spans:.6g} - untraced {plain:.6g}, n={len(traced)}+{len(untraced)}")
    return tally, metrics, notes


def report(tally: Tally, metrics: dict, notes: dict) -> int:
    for key, (value, unit) in metrics.items():
        print(f"{key:<34} {value:>14.6g} {unit:<6} {notes.get(key, '')}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if metrics else max(tally.failed, 1),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report in turn."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        results[name] = json.loads(lines[-1])
    metrics = {f"{name}.{key}": value for name, result in results.items()
               for key, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not import_package():
        return 2
    if args.workload is None:
        return run_all(args)

    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.memory_pass:
            tally = Tally()
            _, _ = tally.run(workload, workload.setup(), "memory pass")
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                              "peak_rss_mb": peak_kib / 1024.0}))
            return 0
        print("environment: " + json.dumps(environment()), flush=True)
        if args.trace:
            tally, metrics, notes = per_layer(workload, args.seconds)
        else:
            tally, metrics, notes = end_to_end(workload, args.workload, args.seed,
                                               args.seconds)
    return report(tally, metrics, notes)


if __name__ == "__main__":
    sys.exit(main())
