import csv
import dataclasses
import threading

import numpy as np
import pytest

from asyncsgd import (
    ConstantStep,
    DivergedError,
    FixedSpeeds,
    LedgerError,
    RandomSpeeds,
    heterogeneous_quadratics,
    least_squares,
    make_schedule,
    run_async,
    run_live,
    run_minibatch,
    simulate_trace,
    trace_from_workers,
    track,
    worker_streams,
)
from reference import eager_async_run, eventual_stepsizes, sequential_sgd


def convex_setup(problem, trace, tag="adaptive-convex"):
    x0 = np.zeros(problem.dim)
    constants = problem.constants_for(x0, trace.num_workers, trace.horizon)
    return make_schedule(tag, constants), x0


@pytest.mark.parametrize("noise,sigma", [("additive", 0.5), ("additive", 0.0), ("rows", 1.0)])
def test_replay_matches_eager_reference(noise, sigma):
    # the library evaluates gradients lazily at arrival; evaluating them
    # eagerly at dispatch from the same substreams must give the identical
    # trajectory, stepsizes and eventual stepsizes, bit for bit
    problem = least_squares(dim=3, num_samples=18, noise=noise, sigma=sigma, seed=10)
    trace = simulate_trace(RandomSpeeds("exponential", (1.0, 1.5, 3.0), seed=2), 60)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=5, keep_iterates=True)

    xs, gammas, _ = eager_async_run(problem, trace.workers, schedule, x0, seed=5)
    np.testing.assert_array_equal(record.iterates, xs)
    np.testing.assert_array_equal(record.x_final, xs[-1])
    np.testing.assert_array_equal(record.gammas, gammas)

    hats, initial = eventual_stepsizes(trace.workers.tolist(), gammas, schedule, 60)
    np.testing.assert_array_equal(record.gamma_hats, hats)
    np.testing.assert_array_equal(record.gamma_hat_initial, initial)


def test_replay_matches_eager_reference_heterogeneous():
    problem = heterogeneous_quadratics(dim=3, num_workers=4, zeta=0.4, sigma=0.3,
                                       seed=1, target_smoothness=1.0)
    trace = simulate_trace(FixedSpeeds((1.0, 1.3, 1.7, 2.9)), 50)
    schedule, x0 = convex_setup(problem, trace, tag="adaptive-heterogeneous")
    record = run_async(problem, trace, schedule, x0, seed=8, keep_iterates=True)
    xs, gammas, _ = eager_async_run(problem, trace.workers, schedule, x0, seed=8)
    np.testing.assert_array_equal(record.iterates, xs)
    np.testing.assert_array_equal(record.gammas, gammas)


def test_single_worker_is_plain_sequential_sgd():
    problem = least_squares(dim=4, num_samples=16, sigma=0.7, seed=3)
    trace = trace_from_workers([1] * 40)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=12)
    x_ref = sequential_sgd(problem, 40, lambda k: schedule.gamma(k, 1), x0, seed=12)
    np.testing.assert_array_equal(record.x_final, x_ref)
    assert record.taus.tolist() == [1] * 40


def test_gradient_evaluation_counts():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=0)
    trace = simulate_trace(FixedSpeeds((1.0, 1.4, 2.2)), 25)
    schedule, x0 = convex_setup(problem, trace)
    plain = run_async(problem, trace, schedule, x0, seed=1)
    assert plain.gradient_evals == 25
    # diagnostics additionally evaluates the still-in-flight gradient of
    # every worker except the one that arrived last
    diag = run_async(problem, trace, schedule, x0, seed=1, diagnostics=True)
    assert diag.gradient_evals == 25 + 3 - 1
    assert diag.iterates is not None and diag.gradients is not None
    # one gradient per evaluated dispatch; the final redispatch at iteration
    # K is never consumed, so it is never evaluated either
    assert len(diag.gradients) == diag.gradient_evals


def test_eventual_stepsizes_fully_assigned():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=0)
    trace = simulate_trace(RandomSpeeds("lognormal", (1.0, 2.0, 4.0, 8.0), seed=9), 30)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=2)
    assert not np.any(np.isnan(record.gamma_hats))
    assert not np.any(np.isnan(record.gamma_hat_initial))
    assert np.all(record.gamma_hats > 0)


def test_terminal_stepsize_for_worker_that_never_arrives():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=0)
    trace = trace_from_workers([1, 1, 1], num_workers=2)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=2)
    # worker 2's initial gradient is still in flight at the end, priced with
    # the terminal delay K - 0 = 3; worker 1's last dispatch gets delay 1
    assert record.gamma_hat_initial[1] == schedule.gamma(3, 3)
    assert record.gamma_hats[2] == schedule.gamma(3, 1)


def test_running_sums_match_iterate_history():
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=6)
    trace = simulate_trace(FixedSpeeds((1.0, 1.9)), 35)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=3, keep_iterates=True)
    np.testing.assert_allclose(record.uniform_sum, record.iterates[1:].sum(axis=0),
                               rtol=1e-12)
    direct = (record.gamma_hats[:, None] * record.iterates[1:]).sum(axis=0)
    np.testing.assert_allclose(record.weighted_sum, direct, rtol=1e-12)


def test_metrics_columns():
    problem = least_squares(dim=3, num_samples=12, sigma=0.0, seed=6)
    trace = simulate_trace(FixedSpeeds((1.0, 1.9)), 20)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=3, keep_iterates=True)
    for i in (0, 7, 19):
        x = record.iterates[i + 1]
        assert record.fgaps[i] == pytest.approx(problem.value(x) - problem.fstar, rel=1e-12)
        g = problem.grad(x)
        assert record.gradnorms2[i] == pytest.approx(float(g @ g), rel=1e-12)
    bare = run_async(problem, trace, schedule, x0, seed=3, metrics=False)
    assert bare.fgaps is None and bare.gradnorms2 is None
    np.testing.assert_array_equal(bare.x_final, record.x_final)


def test_divergence_is_detected():
    problem = least_squares(dim=2, num_samples=10, sigma=0.0, seed=0,
                            target_smoothness=1.0)
    trace = trace_from_workers([1] * 200)
    constants = problem.constants_for(np.ones(2), 1, 200)
    schedule = ConstantStep(constants, 3.0)   # far past 2/L, blows up
    with pytest.raises(DivergedError) as exc:
        run_async(problem, trace, schedule, np.ones(2), seed=0, divergence_norm=1e6)
    assert exc.value.iteration >= 1


def test_input_validation():
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=0)
    trace = trace_from_workers([1, 2, 1])
    schedule, _ = convex_setup(problem, trace)
    with pytest.raises(LedgerError):
        run_async(problem, trace, schedule, np.zeros(3), seed=0)   # wrong shape
    hetero = heterogeneous_quadratics(dim=2, num_workers=3, zeta=0.1, seed=1)
    with pytest.raises(LedgerError):
        run_async(hetero, trace, schedule, np.zeros(2), seed=0)    # 3 objectives, 2 workers


def test_trace_tau_mismatch_caught_on_replay():
    # delays are derived from the order when the trace is built, and the
    # trace is frozen, so they cannot be corrupted before a replay
    problem = least_squares(dim=2, num_samples=10, sigma=0.5, seed=0)
    trace = trace_from_workers([1, 2, 1, 2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.taus = np.array([1, 2, 2, 1])
    schedule, x0 = convex_setup(problem, trace)
    assert run_async(problem, trace, schedule, x0, seed=0).taus.tolist() == [1, 2, 2, 2]


# ---------------------------------------------------------------------------
# minibatch baseline


def test_minibatch_matches_inline_reference():
    problem = least_squares(dim=3, num_samples=12, sigma=0.6, seed=4)
    x0 = np.zeros(3)
    record = run_minibatch(problem, num_workers=4, rounds=30, step=0.05, x0=x0, seed=9)
    rngs = worker_streams(9, 4)
    x = x0.copy()
    for _ in range(30):
        acc = np.zeros(3)
        for m in range(1, 5):
            acc += problem.stoch_grad(x, rngs[m - 1], worker=m)
        x = x - 0.05 * (acc / 4)
    np.testing.assert_array_equal(record.x_final, x)
    assert record.gradient_evals == 120


def test_minibatch_single_worker_equals_async_single_worker():
    problem = least_squares(dim=3, num_samples=12, sigma=0.6, seed=4)
    x0 = np.zeros(3)
    mini = run_minibatch(problem, num_workers=1, rounds=25, step=0.05, x0=x0, seed=7)
    trace = trace_from_workers([1] * 25)
    constants = problem.constants_for(x0, 1, 25)
    record = run_async(problem, trace, ConstantStep(constants, 0.05), x0, seed=7)
    np.testing.assert_array_equal(mini.x_final, record.x_final)


def test_minibatch_sigma_zero_is_gradient_descent():
    problem = least_squares(dim=3, num_samples=12, sigma=0.0, seed=4)
    x0 = np.ones(3)
    record = run_minibatch(problem, num_workers=5, rounds=15, step=0.1, x0=x0, seed=0)
    x = x0.copy()
    for _ in range(15):
        x = x - 0.1 * problem.grad(x)
    np.testing.assert_array_equal(record.x_final, x)


def test_minibatch_record_layout():
    problem = least_squares(dim=2, num_samples=8, sigma=0.3, seed=4)
    record = run_minibatch(problem, num_workers=3, rounds=4, step=0.02,
                           x0=np.zeros(2), seed=1, seconds=[1.0, 2.0, 5.0])
    assert record.workers.tolist() == [0, 0, 0, 0]     # no single arriving worker
    assert record.taus.tolist() == [1, 1, 1, 1]
    assert np.all(record.gammas == 0.02)
    assert np.all(record.gamma_hats == 0.02)
    assert record.times.tolist() == [5.0, 10.0, 15.0, 20.0]   # paced by slowest
    with pytest.raises(LedgerError):
        run_minibatch(problem, num_workers=0, rounds=4, step=0.02, x0=np.zeros(2))
    with pytest.raises(LedgerError):
        run_minibatch(problem, num_workers=2, rounds=0, step=0.02, x0=np.zeros(2))


# ---------------------------------------------------------------------------
# record serialization


def test_record_csv_round_trip(tmp_path):
    problem = least_squares(dim=2, num_samples=8, sigma=0.4, seed=2)
    trace = simulate_trace(FixedSpeeds((1.0, 1.6)), 12)
    schedule, x0 = convex_setup(problem, trace)
    record = run_async(problem, trace, schedule, x0, seed=5, diagnostics=True)
    track(record, attach=True)
    path = tmp_path / "run.csv"
    record.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert set(rows[0]) == {"k", "worker", "tau", "gamma", "gamma_hat", "time",
                            "fgap", "gradnorm2", "vres"}
    # repr serialization round-trips floats exactly
    assert [float(r["gamma_hat"]) for r in rows] == record.gamma_hats.tolist()
    assert [int(r["tau"]) for r in rows] == record.taus.tolist()


# ---------------------------------------------------------------------------
# live executor


def test_live_run_shape_and_consistency():
    problem = least_squares(dim=4, num_samples=24, sigma=0.5, seed=0)
    x0 = problem.xstar + np.ones(4) / 2.0
    constants = problem.constants_for(x0, 4, 250)
    schedule = make_schedule("adaptive-convex", constants)
    record = run_live(problem, schedule, 4, 250, x0, seed=0)
    assert record.horizon == 250
    assert set(np.unique(record.workers)) <= {1, 2, 3, 4}
    trace = trace_from_workers(record.workers.tolist(), num_workers=4)
    assert trace.taus.tolist() == record.taus.tolist()
    assert trace.delay_budget_slack() == 0
    # the replayed metrics are present and the run made progress
    assert record.fgaps[-1] < problem.value(x0) - problem.fstar


def test_live_single_worker_has_unit_delays():
    problem = least_squares(dim=2, num_samples=10, sigma=0.3, seed=1)
    x0 = problem.xstar + np.array([1.0, 0.0])
    constants = problem.constants_for(x0, 1, 40)
    schedule = make_schedule("adaptive-convex", constants)
    record = run_live(problem, schedule, 1, 40, x0, seed=3)
    assert record.taus.tolist() == [1] * 40


def test_live_propagates_divergence():
    problem = least_squares(dim=2, num_samples=10, sigma=0.0, seed=0,
                            target_smoothness=1.0)
    constants = problem.constants_for(np.ones(2), 2, 500)
    schedule = ConstantStep(constants, 3.0)
    with pytest.raises(DivergedError):
        run_live(problem, schedule, 2, 500, np.ones(2), seed=0, divergence_norm=1e6)


def test_live_propagates_worker_failures():
    base = least_squares(dim=2, num_samples=10, sigma=0.3, seed=1)

    class Flaky:
        dim = base.dim
        fstar = base.fstar
        xstar = base.xstar
        value = staticmethod(base.value)
        grad = staticmethod(base.grad)

        def __init__(self):
            self.calls = 0
            self.lock = threading.Lock()

        def stoch_grad(self, x, rng, worker=None):
            with self.lock:
                self.calls += 1
                if self.calls > 10:
                    raise RuntimeError("gradient service went away")
            return base.stoch_grad(x, rng, worker=worker)

    constants = base.constants_for(np.zeros(2), 3, 10_000)
    schedule = make_schedule("adaptive-convex", constants)
    with pytest.raises(RuntimeError, match="gradient service went away"):
        run_live(Flaky(), schedule, 3, 10_000, np.zeros(2), seed=0)
