"""Randomized self-check suite.

Replays runs across worker counts, horizons, speed models and adaptive
schedules, then verifies on every trace:

  * the virtual-iterate gap identity, at relative tolerance 1e-10,
  * the per-trace lower bounds on the sum of eventual stepsizes that the
    delay-adaptive rules guarantee by construction.

The delay budget and the cap on delays above 3M are not checked here: a
trace derives its delays from its arrival order, and every order meets both
(see `ArrivalTrace.delay_budget_slack` and `long_delay_count_ok`). A case
whose rule rejects its worker count and horizon is skipped, as the rule
table says.

The same suite backs the command line `check` subcommand and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import problems, scheduler, schedules
from .optimizers import run_async
from .virtual import track

SPEED_KINDS = ("fixed-equal", "fixed-hetero", "exponential", "lognormal", "straggler")
SCHEDULE_TAGS = (
    "adaptive-convex",
    "adaptive-strongly-convex",
    "adaptive-nonconvex",
    "adaptive-heterogeneous",
)
IDENTITY_TOL = 1e-10


def make_speed_model(kind: str, num_workers: int, seed: int) -> scheduler.SpeedModel:
    if kind == "fixed-equal":
        return scheduler.FixedSpeeds((1.0,) * num_workers)
    if kind == "fixed-hetero":
        return scheduler.FixedSpeeds(tuple(np.linspace(1.0, 3.0, num_workers)))
    if kind == "exponential":
        return scheduler.RandomSpeeds(
            "exponential", tuple(np.linspace(1.0, 2.0, num_workers)), seed=seed)
    if kind == "lognormal":
        return scheduler.RandomSpeeds(
            "lognormal", tuple(np.linspace(1.0, 2.0, num_workers)), sigma=1.0, seed=seed)
    if kind == "straggler":
        return scheduler.StragglerSpeeds(
            base=1.0, straggler=num_workers, slowdown=50.0, num_workers=num_workers)
    raise ValueError(f"unknown speed kind {kind!r}")


def make_case(tag: str, num_workers: int, seed: int):
    """The problem and start point of one suite case: heterogeneous
    quadratics for the heterogeneous rule, least squares for the others."""
    if tag == "adaptive-heterogeneous":
        problem = problems.heterogeneous_quadratics(
            dim=4, num_workers=num_workers, zeta=0.5 if num_workers > 1 else 0.0,
            sigma=0.5, seed=seed)
    else:
        problem = problems.least_squares(dim=4, num_samples=24, sigma=1.0, seed=seed)
    x0 = problems.offset_start(problem, 1.0, seed)
    return problem, x0


@dataclass
class CaseResult:
    label: str
    identity_residual: float
    sum_margin: float    # stepsize sum minus its guaranteed bound (log scale
                         # for the strongly convex weighted variant)


@dataclass
class SuiteReport:
    results: list[CaseResult] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def max_identity_residual(self) -> float:
        return max(r.identity_residual for r in self.results)

    @property
    def identity_ok(self) -> bool:
        return self.max_identity_residual <= IDENTITY_TOL

    @property
    def sum_bounds_ok(self) -> bool:
        return all(r.sum_margin >= 0.0 for r in self.results)

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and self.sum_bounds_ok

    def failures(self) -> list[str]:
        out = []
        for r in self.results:
            reasons = []
            if r.identity_residual > IDENTITY_TOL:
                reasons.append(f"identity residual {r.identity_residual:.3e}")
            if r.sum_margin < 0.0:
                reasons.append(f"stepsize sum margin {r.sum_margin:.3e}")
            if reasons:
                out.append(f"{r.label}: " + ", ".join(reasons))
        return out


def check_case(tag: str, num_workers: int, horizon: int, speed_kind: str,
               seed: int, inject: str | None = None) -> CaseResult | None:
    """One suite case, or None if the rule `tag` rejects the case's constants
    (for example a horizon below its worker count)."""
    problem, x0 = make_case(tag, num_workers, seed)
    try:
        schedule = schedules.make_schedule(
            tag, problem.constants_for(x0, num_workers, horizon))
    except schedules.ScheduleError:
        return None
    model = make_speed_model(speed_kind, num_workers, seed)
    trace = scheduler.simulate_trace(model, horizon)
    record = run_async(problem, trace, schedule, x0, seed=seed,
                       diagnostics=True, metrics=False)
    return CaseResult(label=f"{tag} M={num_workers} K={horizon} {speed_kind} seed={seed}",
                      identity_residual=track(record, inject=inject).max_rel_residual,
                      sum_margin=schedule.sum_margin(record.gamma_hats))


def run_suite(worker_counts=(1, 2, 5, 16), horizons=(50, 500),
              base_seed: int = 0, inject: str | None = None) -> SuiteReport:
    report = SuiteReport()
    index = 0
    for tag in SCHEDULE_TAGS:
        for m_count in worker_counts:
            for horizon in horizons:
                for kind in SPEED_KINDS:
                    result = check_case(tag, m_count, horizon, kind,
                                        base_seed * 1_000_000 + index, inject=inject)
                    if result is None:   # the rule rejects (tag, M, K); no seed is used
                        break
                    report.results.append(result)
                    index += 1
    return report
