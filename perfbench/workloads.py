"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `setup` (timed as
set-up) and runs one unit of simulated work in `run`, which ends with the
output checks. A unit returns the updates it applied, the latency of each
of its runs (a check case, a sweep job, or the whole unit), a fingerprint of
its outputs that must repeat bit for bit, and the checks that failed.

The package is driven only through its public functions: the names exported
by `asyncsgd`, `asyncsgd.cli.main` and `asyncsgd.invariants`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import asyncsgd
import asyncsgd.cli
import asyncsgd.invariants


@dataclass
class Unit:
    updates: int
    run_s: list[float]
    fingerprint: bytes
    failures: list[str] = field(default_factory=list)


def _offset_start(problem, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 11])
    step = rng.standard_normal(problem.dim)
    return problem.xstar + step / np.linalg.norm(step)


@contextlib.contextmanager
def _job_clock(module, name: str):
    """Time each call of module.<name>, one call per run of the workload.

    Yields the list the latencies go into; it stays empty when the package
    has no such function, and the caller then splits the unit evenly.
    """
    durations: list[float] = []
    original = getattr(module, name, None)
    if original is None:
        yield durations
        return

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    setattr(module, name, timed)
    try:
        yield durations
    finally:
        setattr(module, name, original)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = asyncsgd.cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue()


def _even_split(unit_s: float, jobs: int) -> list[float]:
    return [unit_s / jobs] * jobs


class StragglerLong:
    """Criterion-07 shape: d=2, one straggler whose single delay is K."""

    horizon = 2 * 10**5 + 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        problem = asyncsgd.least_squares(dim=2, num_samples=10, sigma=1.0, seed=3,
                                         target_smoothness=0.5)
        x0 = _offset_start(problem, self.seed)
        constants = problem.constants_for(x0, 2, self.horizon)
        schedule = asyncsgd.make_schedule("adaptive-convex", constants)
        # the straggler finishes its first gradient at t = K - 1, together with
        # worker 1's (K-1)-th; ties go to the lower id, so it arrives last, at k = K
        model = asyncsgd.StragglerSpeeds(1.0, 2, float(self.horizon - 1), 2)
        return problem, x0, schedule, model

    def run(self, inputs) -> Unit:
        problem, x0, schedule, model = inputs
        start = time.perf_counter()
        trace = asyncsgd.simulate_trace(model, self.horizon)
        record = asyncsgd.run_async(problem, trace, schedule, x0, seed=self.seed,
                                    metrics=False)
        output = asyncsgd.select_output("weighted", record)
        failures = []
        if int(np.sum(trace.workers == 2)) != 1 or int(trace.workers[-1]) != 2:
            failures.append("straggler did not arrive exactly once, last")
        if int(trace.taus[-1]) != self.horizon:
            failures.append(f"straggler delay {int(trace.taus[-1])} != K={self.horizon}")
        if not (np.all(np.isfinite(record.x_final)) and np.all(np.isfinite(output))):
            failures.append("x_final or the weighted output is not finite")
        unit_s = time.perf_counter() - start
        return Unit(record.horizon, [unit_s],
                    record.x_final.tobytes() + output.tobytes(), failures)


class SeedSweep:
    """`asyncsgd sweep` in-process: 3 horizons x 8 repetitions, metrics on."""

    horizons = (2048, 4096, 8192)
    repetitions = 8
    num_workers = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = {
            "seed": seed,
            "problem": {"kind": "least-squares", "dim": 10, "num_samples": 40,
                        "sigma": 1.0},
            "speed_model": {"kind": "fixed",
                            "seconds": np.linspace(1.0, 2.0, self.num_workers).tolist()},
            "schedule": {"kind": "adaptive-convex"},
            "output_rule": "weighted",
            "horizons": list(self.horizons),
            "repetitions": self.repetitions,
            "metrics": True,
            "parallel": False,
        }
        self.config_path = os.path.join(workdir, "sweep.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)

    def setup(self):
        # what each sweep job builds from the config: the problem, the start
        # point (zeros by default), the constants and the schedule per horizon
        problem = asyncsgd.least_squares(dim=10, num_samples=40, sigma=1.0, seed=self.seed)
        x0 = np.zeros(problem.dim)
        return [asyncsgd.make_schedule(
                    "adaptive-convex", problem.constants_for(x0, self.num_workers, k))
                for k in self.horizons]

    def run(self, inputs) -> Unit:
        jobs = len(self.horizons) * self.repetitions
        start = time.perf_counter()
        with _job_clock(asyncsgd.cli, "_sweep_job") as run_s:
            code, text = _cli(["sweep", "--config", self.config_path])
        failures = []
        if code != 0:
            failures.append(f"sweep exited {code}")
        else:
            runs = json.loads(text)["runs"]
            if len(runs) != jobs:
                failures.append(f"sweep ran {len(runs)} jobs, expected {jobs}")
            if not all(math.isfinite(r["output_fgap"]) for r in runs):
                failures.append("an output_fgap is not finite")
        unit_s = time.perf_counter() - start
        updates = self.repetitions * sum(self.horizons)
        return Unit(updates, run_s or _even_split(unit_s, jobs), text.encode(), failures)


class DiagnosticsWide:
    """d=50 row-sampling least squares, 64 lognormal workers, virtual tracker."""

    horizon = 5000
    num_workers = 64
    identity_tol = 1e-10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        problem = asyncsgd.least_squares(dim=50, num_samples=500, noise="rows",
                                         seed=self.seed)
        x0 = _offset_start(problem, self.seed)
        constants = problem.constants_for(x0, self.num_workers, self.horizon)
        schedule = asyncsgd.make_schedule("adaptive-convex", constants)
        model = asyncsgd.RandomSpeeds(
            "lognormal", tuple(np.linspace(1.0, 2.0, self.num_workers)), sigma=1.0,
            seed=self.seed)
        return problem, x0, schedule, model

    def run(self, inputs) -> Unit:
        problem, x0, schedule, model = inputs
        start = time.perf_counter()
        trace = asyncsgd.simulate_trace(model, self.horizon)
        record = asyncsgd.run_async(problem, trace, schedule, x0, seed=self.seed,
                                    diagnostics=True)
        residual = asyncsgd.track(record).max_rel_residual
        ledger = trace.validate()
        slack = ledger.delay_budget_slack()
        long_ok = ledger.long_delay_count_ok()
        failures = []
        if not residual <= self.identity_tol:
            failures.append(f"identity residual {residual:.3e} > {self.identity_tol:g}")
        if slack < 0:
            failures.append(f"delay budget slack {slack} < 0")
        if not long_ok:
            failures.append("long-delay count cap violated")
        unit_s = time.perf_counter() - start
        return Unit(record.horizon, [unit_s],
                    struct.pack("<d", residual) + record.x_final.tobytes(), failures)


class CheckSuite:
    """`asyncsgd check` in-process on the default 160-case grid."""

    worker_counts = (1, 2, 5, 16)
    horizons = (50, 500)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        tags = asyncsgd.invariants.SCHEDULE_TAGS
        kinds = asyncsgd.invariants.SPEED_KINDS
        # the grid run_suite walks: (tag, M, K) skipping K < 3M for the
        # strongly convex rule and K < M otherwise
        self.grid = [(tag, m, k) for tag in tags for m in self.worker_counts
                     for k in self.horizons
                     if k >= (3 * m if tag == "adaptive-strongly-convex" else m)]
        self.cases = len(self.grid) * len(kinds)
        self.updates = sum(k for _, _, k in self.grid) * len(kinds)

    def setup(self):
        """Build every case's problem, start point, constants and schedule."""
        inv = asyncsgd.invariants
        built = []
        index = 0
        for tag, m_count, horizon in self.grid:
            for kind in inv.SPEED_KINDS:
                seed = self.seed * 1_000_000 + index
                index += 1
                problem, x0 = inv.make_case(tag, m_count, seed)
                model = inv.make_speed_model(kind, m_count, seed)
                schedule = asyncsgd.make_schedule(
                    tag, problem.constants_for(x0, m_count, horizon))
                built.append((problem, x0, model, schedule))
        return built

    def run(self, inputs) -> Unit:
        argv = ["check", "--workers", ",".join(map(str, self.worker_counts)),
                "--horizons", ",".join(map(str, self.horizons)),
                "--base-seed", str(self.seed)]
        start = time.perf_counter()
        with _job_clock(asyncsgd.invariants, "check_case") as run_s:
            code, text = _cli(argv)
        failures = []
        if code != 0:
            failures.append(f"check exited {code}: {text.strip()}")
        elif f"[{self.cases} runs]" not in text:
            failures.append(f"check did not run {self.cases} cases: {text.strip()}")
        unit_s = time.perf_counter() - start
        return Unit(self.updates, run_s or _even_split(unit_s, self.cases),
                    text.encode(), failures)


WORKLOADS = {
    "straggler-long": StragglerLong,
    "seed-sweep": SeedSweep,
    "diagnostics-wide": DiagnosticsWide,
    "check-suite": CheckSuite,
}
