"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured quantity and its
tolerance. Tolerances are frozen from calibration runs; every setup is fully
seeded, so reruns measure identical numbers.
"""

import itertools
import json
import time

import numpy as np
import pytest

from asyncsgd import (
    FixedSpeeds,
    LeastSquares,
    StragglerSpeeds,
    expected_sampled_metric,
    heterogeneous_quadratics,
    least_squares,
    make_schedule,
    run_async,
    run_minibatch,
    select_output,
    simulate_trace,
    trace_from_workers,
)
from asyncsgd.cli import main as cli_main
from asyncsgd.invariants import SCHEDULE_TAGS, SPEED_KINDS, make_speed_model, run_suite
from asyncsgd.problems import point_metrics
from reference import sequential_sgd


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def offset_start(problem, seed):
    rng = np.random.default_rng([seed, 11])
    step = rng.standard_normal(problem.dim)
    return problem.xstar + step / np.linalg.norm(step)


# ---------------------------------------------------------------------------
# criteria 1-3: randomized invariant suite


@pytest.fixture(scope="module")
def suite():
    t0 = time.perf_counter()
    report_obj = run_suite()   # M in {1,2,5,16}, K in {50,500}, 5 speed models,
    elapsed = time.perf_counter() - t0   # all 4 adaptive schedules
    return report_obj, elapsed


def test_criterion_01_gap_identity(suite):
    rep, elapsed = suite
    ok = rep.runs >= 100 and rep.identity_ok and elapsed < 60.0
    report(1, "virtual-gap identity", ok,
           f"max residual {rep.max_identity_residual:.2e} over {rep.runs} runs, "
           f"tol 1e-10, {elapsed:.1f}s")


def test_criterion_02_delay_budget(suite):
    rep, _ = suite
    # the suite's traces, built again: no default-grid case is skipped, so
    # case i of the grid is seeded i
    grid = itertools.product(SCHEDULE_TAGS, (1, 2, 5, 16), (50, 500), SPEED_KINDS)
    traces = [simulate_trace(make_speed_model(kind, m_count, seed), horizon)
              for seed, (_, m_count, horizon, kind) in enumerate(grid)]
    slack = min(t.delay_budget_slack() for t in traces)
    ok = len(traces) == rep.runs and slack >= 0 and all(
        t.long_delay_count_ok() for t in traces)
    report(2, "delay budget", ok,
           f"min prefix slack {slack} >= 0 and long-delay cap on {len(traces)} traces")


def test_criterion_03_stepsize_sum_bounds(suite):
    rep, _ = suite
    margin = min(r.sum_margin for r in rep.results)
    report(3, "stepsize-sum lower bounds", rep.sum_bounds_ok,
           f"min margin {margin:.3e} >= 0 over {rep.runs} traces")


# ---------------------------------------------------------------------------
# criteria 4-5: convergence-rate scaling on a spread-spectrum quadratic

HORIZONS = (512, 1024, 2048, 4096, 8192, 16384)


def spectrum_problem(sigma):
    """Least squares with eigenvalues 0.5 * 0.55^i, i < 10, consistent rhs.

    The eigenvalue spread keeps part of the spectrum on each side of the
    1/(stepsize*K) transition for every horizon tested, so the measured rate
    follows the statistical envelope instead of the fast strongly convex
    decay a single-scale quadratic would show.
    """
    lams = 0.5 * 0.55 ** np.arange(10)
    rng = np.random.default_rng(21)
    n = 40
    u, _ = np.linalg.qr(rng.standard_normal((n, 10)))
    mat = u * np.sqrt(n * lams)
    xsol = rng.standard_normal(10)
    return LeastSquares(mat, mat @ xsol, sigma=sigma)


def weighted_gap_at(problem, horizon, sigma, reps):
    x0 = problem.xstar + np.ones(10) / np.sqrt(10.0)   # distance exactly 1
    trace = simulate_trace(FixedSpeeds(tuple(np.linspace(1.0, 2.0, 8))), horizon)
    constants = problem.constants_for(x0, 8, horizon)
    schedule = make_schedule("adaptive-convex", constants)
    records = run_async(problem, trace, schedule, x0,
                        seeds=[1000 + rep for rep in range(reps)], metrics=False)
    gaps = [problem.value(select_output("weighted", r)) - problem.fstar for r in records]
    return float(np.mean(gaps))


def test_criterion_04_statistical_rate_scaling():
    t0 = time.perf_counter()
    problem = spectrum_problem(sigma=1.0)
    means = [weighted_gap_at(problem, k, 1.0, reps=20) for k in HORIZONS]
    slope = float(np.polyfit(np.log(HORIZONS), np.log(means), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope - (-0.5)) <= 0.15 and elapsed <= 300.0
    report(4, "noise-regime rate", ok,
           f"log-log slope {slope:.3f} vs -0.5 +- 0.15, M=8, 20 seeds, {elapsed:.0f}s")


def test_criterion_05_optimization_term_scaling():
    problem = spectrum_problem(sigma=0.0)
    gaps = [weighted_gap_at(problem, k, 0.0, reps=1) for k in HORIZONS]
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    floor = 1e-13 * gaps[0]
    active = [r for r, g in zip(ratios, gaps[1:]) if g > floor]
    ok = bool(active) and min(active) >= 1.8
    report(5, "noiseless rate", ok,
           f"per-doubling gap reduction {min(active):.2f}x >= 1.8x "
           f"across K={HORIZONS[0]}..{HORIZONS[-1]}")


# ---------------------------------------------------------------------------
# criterion 6: adaptive vs. tuned-constant vs. minibatch at equal wall time


def window_rebound(fgaps, windows=20):
    """Largest factor by which a smoothed loss climbs back above its
    running minimum. Monotone-trend decay (noise wobble at the floor
    included) stays below 2; a run that spikes or diverges does not."""
    chunks = np.array_split(np.asarray(fgaps), windows)
    means = np.array([c.mean() for c in chunks])
    return float(np.max(means[1:] / np.minimum.accumulate(means)[:-1]))


def steps_to(fgaps, level):
    hits = np.nonzero(np.asarray(fgaps) <= level)[0]
    return int(hits[0]) + 1 if len(hits) else None


def test_criterion_06_heterogeneous_speed_stability():
    seconds = tuple(np.exp(np.random.default_rng(77).standard_normal(40)))
    from asyncsgd import steps_in_time
    k_async, k_mini = steps_in_time(seconds, 200.0)
    problem = least_squares(dim=20, num_samples=200, sigma=0.5, seed=13,
                            target_smoothness=1.0)
    x0 = offset_start(problem, 13)
    trace = simulate_trace(FixedSpeeds(seconds), k_async)
    constants = problem.constants_for(x0, 40, k_async)

    adaptive = run_async(problem, trace, make_schedule("adaptive-convex", constants),
                         x0, seed=1, metrics=True)
    grid = [m / 160.0 for m in (0.5, 2.0, 8.0, 32.0)]   # around 1/(4ML) = 1/160
    const_runs = []
    for step in grid:
        rec = run_async(problem, trace, make_schedule("constant", constants, step=step),
                        x0, seed=1, metrics=True, divergence_norm=1e30)
        const_runs.append((step, rec))

    threshold = 2e-3
    adaptive_rebound = window_rebound(adaptive.fgaps)
    adaptive_steps = steps_to(adaptive.fgaps, threshold)
    best_step, best = min(const_runs, key=lambda sr: sr[1].fgaps[-1])
    best_steps = steps_to(best.fgaps, threshold)
    best_rebound = window_rebound(best.fgaps)

    minis = [run_minibatch(problem, 40, k_mini, step, x0, seed=1) for step in grid]
    mini_finals = [point_metrics(problem, x_final)[0] for x_final in minis]

    stable = adaptive_rebound <= 2.0
    const_worse = (best_steps is None or best_steps > adaptive_steps
                   or best_rebound >= 2.0)
    beats_minibatch = adaptive.fgaps[-1] <= min(mini_finals)
    ok = stable and const_worse and beats_minibatch
    report(6, "speed-heterogeneity stability", ok,
           f"adaptive rebound {adaptive_rebound:.2f} <= 2, "
           f"steps-to-{threshold:g}: adaptive {adaptive_steps} vs best-constant "
           f"{best_steps} (grid step {best_step:.4g}), "
           f"final {adaptive.fgaps[-1]:.2e} <= best minibatch {min(mini_finals):.2e}")


# ---------------------------------------------------------------------------
# criterion 7: one extremely stale gradient cannot spoil the run


def test_criterion_07_straggler_robustness():
    problem = least_squares(dim=2, num_samples=10, sigma=1.0, seed=3,
                            target_smoothness=0.5)
    x0 = offset_start(problem, 3)
    horizon = 10 ** 6

    solo_trace = simulate_trace(FixedSpeeds((1.0,)), horizon)
    solo_constants = problem.constants_for(x0, 1, horizon)
    solo = run_async(problem, solo_trace,
                     make_schedule("adaptive-convex", solo_constants), x0,
                     seed=9, metrics=False)

    straggler_trace = simulate_trace(StragglerSpeeds(1.0, 2, 1e6, 2), horizon + 1)
    assert int(np.sum(straggler_trace.workers == 2)) == 1
    assert int(straggler_trace.taus[-1]) == horizon + 1   # one huge delay
    strag_constants = problem.constants_for(x0, 2, horizon + 1)
    strag = run_async(problem, straggler_trace,
                      make_schedule("adaptive-convex", strag_constants), x0,
                      seed=9, metrics=False)

    gap_solo = problem.value(solo.x_final) - problem.fstar
    gap_strag = problem.value(strag.x_final) - problem.fstar
    ratio = gap_strag / gap_solo
    report(7, "straggler robustness", ratio <= 2.0,
           f"final-gap ratio {ratio:.4f} <= 2 with one delay of {horizon + 1}")


# ---------------------------------------------------------------------------
# criterion 8: gradient-dissimilarity plateau


def test_criterion_08_heterogeneity_plateau():
    horizons = (2048, 4096, 8192, 16384)
    levels = {}
    ratios = {}
    for zeta in (0.0, 0.3, 1.0):
        problem = heterogeneous_quadratics(dim=6, num_workers=8, zeta=zeta,
                                           sigma=0.0, seed=5, target_smoothness=1.0)
        x0 = offset_start(problem, 5)
        per_k = []
        for k in horizons:
            trace = simulate_trace(FixedSpeeds(tuple(np.linspace(1.0, 2.0, 8))), k)
            constants = problem.constants_for(x0, 8, k)
            rec = run_async(problem, trace,
                            make_schedule("adaptive-heterogeneous", constants),
                            x0, seed=3, metrics=True)
            per_k.append(expected_sampled_metric(rec, rec.gradnorms2))
        levels[zeta] = per_k[-1]
        ratios[zeta] = per_k[-2] / per_k[-1]   # last doubling

    decaying_at_zero = ratios[0.0] >= 1.8
    plateaued = ratios[0.3] <= 1.5 and ratios[1.0] <= 1.5
    monotone = levels[0.0] < levels[0.3] / 2 and levels[0.3] < levels[1.0] / 2
    ok = decaying_at_zero and plateaued and monotone
    report(8, "heterogeneity plateau", ok,
           f"last-doubling ratios {ratios[0.0]:.2f}/{ratios[0.3]:.2f}/{ratios[1.0]:.2f} "
           f"for zeta=0/0.3/1, levels {levels[0.0]:.2e} < {levels[0.3]:.2e} "
           f"< {levels[1.0]:.2e}")


# ---------------------------------------------------------------------------
# criterion 9: wall-clock step accounting


def test_criterion_09_speedup_accounting(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ASYNC_SGD_SEED", raising=False)
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "problem": {"kind": "least-squares", "dim": 2, "num_samples": 10, "sigma": 0.5},
        "seconds": [1.0, 1.0, 1.0, 10.0],
        "duration": 100.0,
        "schedule": {"kind": "adaptive-convex"},
        "x0": {"kind": "offset"},
    }))
    code = cli_main(["compare", "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    ok = (code == 0 and payload["async_steps"] == 310 and payload["sync_rounds"] == 10
          and payload["ideal_speedup"] == 7.75 and payload["step_speedup"] == 7.75)
    report(9, "speedup accounting", ok,
           f"steps {payload['async_steps']}/{payload['sync_rounds']}, "
           f"speedup {payload['ideal_speedup']} (exact)")


# ---------------------------------------------------------------------------
# criterion 10: single-worker degeneracy


def test_criterion_10_single_worker_degeneracy():
    problem = least_squares(dim=3, num_samples=15, sigma=0.8, seed=6)
    x0 = np.zeros(3)
    horizon = 200
    trace = trace_from_workers([1] * horizon)
    constants = problem.constants_for(x0, 1, horizon)
    schedule = make_schedule("adaptive-convex", constants)
    identical = 0
    for seed in range(10):
        record = run_async(problem, trace, schedule, x0, seed=seed, metrics=False)
        x_ref = sequential_sgd(problem, horizon, lambda k: schedule.gamma(1),
                               x0, seed)
        identical += int(np.array_equal(record.x_final, x_ref))
    report(10, "single-worker degeneracy", identical == 10,
           f"{identical}/10 seeds bitwise identical to the sequential loop")
