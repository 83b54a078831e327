"""Randomized self-check suite.

Replays runs across worker counts, horizons, speed models and adaptive
schedules, then verifies on every trace:

  * the virtual-iterate gap identity, at relative tolerance 1e-10,
  * the delay budget (sum of realized delays plus in-flight delays is at
    most K*M on every prefix) and the cap on how many delays exceed 3M,
    both read from the trace's dispatch and delay columns,
  * the per-trace lower bounds on the sum of eventual stepsizes that the
    delay-adaptive rules guarantee by construction.

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
    """Problem, start point and schedule constants for one suite case."""
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
    budget_slack: int
    long_delay_ok: bool
    sum_margin: float    # stepsize sum minus its guaranteed bound (log scale
                         # for the strongly convex weighted variant)


@dataclass
class SuiteReport:
    results: list[CaseResult] = field(default_factory=list)
    identity_tol: float = IDENTITY_TOL

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def max_identity_residual(self) -> float:
        return max(r.identity_residual for r in self.results)

    @property
    def identity_ok(self) -> bool:
        return self.max_identity_residual <= self.identity_tol

    @property
    def budget_ok(self) -> bool:
        return all(r.budget_slack >= 0 for r in self.results)

    @property
    def long_delay_ok(self) -> bool:
        return all(r.long_delay_ok for r in self.results)

    @property
    def sum_bounds_ok(self) -> bool:
        return all(r.sum_margin >= 0.0 for r in self.results)

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and self.budget_ok and self.long_delay_ok and self.sum_bounds_ok

    def failures(self) -> list[str]:
        out = []
        for r in self.results:
            reasons = []
            if r.identity_residual > self.identity_tol:
                reasons.append(f"identity residual {r.identity_residual:.3e}")
            if r.budget_slack < 0:
                reasons.append(f"budget slack {r.budget_slack}")
            if not r.long_delay_ok:
                reasons.append("long-delay count")
            if r.sum_margin < 0.0:
                reasons.append(f"stepsize sum margin {r.sum_margin:.3e}")
            if reasons:
                out.append(f"{r.label}: " + ", ".join(reasons))
        return out


def check_case(tag: str, num_workers: int, horizon: int, speed_kind: str,
               seed: int, inject: str | None = None) -> CaseResult:
    problem, x0 = make_case(tag, num_workers, seed)
    model = make_speed_model(speed_kind, num_workers, seed)
    trace = scheduler.simulate_trace(model, horizon)
    constants = problem.constants_for(x0, num_workers, horizon)
    schedule = schedules.make_schedule(tag, constants)
    record = run_async(problem, trace, schedule, x0, seed=seed,
                       diagnostics=True, metrics=False)

    residual = track(record, inject=inject).max_rel_residual

    if tag == "adaptive-strongly-convex":
        total = schedules.log_weighted_stepsize_sum(
            record.gamma_hats, constants.strong_convexity)
        margin = total - schedule.log_weighted_sum_bound()
    else:
        margin = float(np.sum(record.gamma_hats)) - schedule.stepsize_sum_bound()

    label = f"{tag} M={num_workers} K={horizon} {speed_kind} seed={seed}"
    return CaseResult(
        label=label,
        identity_residual=residual,
        budget_slack=trace.delay_budget_slack(),
        long_delay_ok=trace.long_delay_count_ok(),
        sum_margin=margin,
    )


def run_suite(worker_counts=(1, 2, 5, 16), horizons=(50, 500),
              speed_kinds=SPEED_KINDS, schedule_tags=SCHEDULE_TAGS,
              base_seed: int = 0, inject: str | None = None) -> SuiteReport:
    report = SuiteReport()
    index = 0
    for tag in schedule_tags:
        for m_count in worker_counts:
            for horizon in horizons:
                needed = 3 * m_count if tag == "adaptive-strongly-convex" else m_count
                if horizon < needed:
                    continue
                for kind in speed_kinds:
                    seed = base_seed * 1_000_000 + index
                    index += 1
                    report.results.append(
                        check_case(tag, m_count, horizon, kind, seed, inject=inject))
    return report
