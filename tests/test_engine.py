"""Property tests of the column-wise replay engine against per-step oracles:
the merged trace against the heap event loop, vectorized delays against
their definition, stepsize columns against per-rule scalar formulas, and
run_async against eager evaluation and the per-step replay, all bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsgd import (
    FixedSpeeds,
    ProblemConstants,
    RandomSpeeds,
    ScheduleError,
    StragglerSpeeds,
    bounded_nonconvex,
    heterogeneous_quadratics,
    least_squares,
    make_schedule,
    run_async,
    simulate_trace,
    trace_from_workers,
)
from asyncsgd.scheduler import dispatch_iterations
from reference import (eager_async_run, heap_trace, naive_delays, prev_arrival,
                       reference_gamma, replay_async, same_bits, store_row)


# ---------------------------------------------------------------------------
# trace and delays


@st.composite
def speed_models(draw):
    m_count = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    kind = draw(st.sampled_from(["equal", "ties", "fixed", "exponential", "lognormal",
                                 "straggler"]))
    if kind == "equal":
        return FixedSpeeds((draw(st.sampled_from([0.1, 1.0, 3.0])),) * m_count)
    if kind == "ties":
        # binary-exact seconds put many arrivals at exactly equal times
        return FixedSpeeds(tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                                               min_size=m_count, max_size=m_count))))
    if kind == "fixed":
        return FixedSpeeds(tuple(draw(st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=m_count, max_size=m_count))))
    if kind == "straggler":
        return StragglerSpeeds(base=1.0, straggler=draw(st.integers(1, m_count)),
                               slowdown=draw(st.floats(min_value=1.0, max_value=500.0)),
                               num_workers=m_count)
    means = tuple(draw(st.lists(st.floats(min_value=0.1, max_value=5.0),
                                min_size=m_count, max_size=m_count)))
    return RandomSpeeds(kind, means, sigma=draw(st.floats(min_value=0.1, max_value=2.0)),
                        seed=seed)


@settings(max_examples=200, deadline=None)
@given(speed_models(), st.integers(min_value=0, max_value=400))
def test_trace_equals_heap_event_loop(model, horizon):
    trace = simulate_trace(model, horizon)
    workers, taus, times = heap_trace(model, horizon)
    assert same_bits(trace.workers, workers)
    assert same_bits(trace.taus, taus)
    assert same_bits(trace.times, times)


def test_trace_equals_heap_event_loop_on_long_skewed_runs():
    # the straggler's events run out of the first block guess only when its
    # single arrival lands near the end; the random workers redraw blocks
    for model, horizon in [
        (StragglerSpeeds(1.0, 2, 4999.0, 2), 5000),
        (RandomSpeeds("lognormal", (1.0, 1.0, 9.0), sigma=2.0, seed=3), 6000),
        (RandomSpeeds("exponential", tuple(np.linspace(1.0, 2.0, 64)), seed=1), 5000),
        # a compute time so small that its reciprocal overflows
        (FixedSpeeds((1e-310, 1.0)), 50),
        (RandomSpeeds("exponential", (1e-310, 1.0), seed=2), 50),
    ]:
        trace = simulate_trace(model, horizon)
        workers, taus, times = heap_trace(model, horizon)
        assert same_bits(trace.workers, workers)
        assert same_bits(trace.taus, taus)
        assert same_bits(trace.times, times)


@settings(max_examples=100, deadline=None)
@given(speed_models(), st.integers(min_value=1, max_value=120))
def test_simulated_delays_match_definition(model, horizon):
    trace = simulate_trace(model, horizon)
    assert trace.taus.tolist() == naive_delays(trace.workers.tolist())


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.lists(st.integers(min_value=1, max_value=m), max_size=80)))
def test_dispatch_iterations_match_definition(workers):
    expected = [prev_arrival(workers, k, workers[k - 1]) for k in range(1, len(workers) + 1)]
    assert dispatch_iterations(np.array(workers, dtype=np.int64)).tolist() == expected


# ---------------------------------------------------------------------------
# stepsize columns


@st.composite
def rules(draw):
    num_workers = draw(st.integers(min_value=1, max_value=16))
    c = ProblemConstants(
        smoothness=draw(st.floats(min_value=1e-3, max_value=1e3)),
        strong_convexity=draw(st.floats(min_value=1e-4, max_value=10.0)),
        lipschitz=draw(st.floats(min_value=1e-2, max_value=1e2)),
        sigma=draw(st.sampled_from([0.0, 0.3, 1.0, 7.5])),
        init_distance=draw(st.floats(min_value=1e-2, max_value=1e2)),
        init_gap=draw(st.floats(min_value=1e-2, max_value=1e2)),
        num_workers=num_workers,
        horizon=draw(st.integers(min_value=3 * num_workers, max_value=10**6)),
    )
    tag = draw(st.sampled_from(["const-lipschitz", "lipschitz-smooth", "adaptive-convex",
                                "adaptive-strongly-convex", "adaptive-nonconvex",
                                "adaptive-heterogeneous", "constant"]))
    if tag == "constant":
        return make_schedule(tag, c, draw(st.floats(min_value=1e-6, max_value=1.0)))
    return make_schedule(tag, c)


@settings(max_examples=300, deadline=None)
@given(rules(), st.lists(st.integers(min_value=1, max_value=10**6), max_size=200))
def test_stepsize_column_equals_per_call_gamma(schedule, taus):
    column = schedule.gammas(np.array(taus, dtype=np.int64))
    oracle = np.array([reference_gamma(schedule, tau) for tau in taus])
    assert same_bits(column, oracle.reshape(column.shape))


def test_strongly_convex_column_on_many_delays():
    # np.exp and math.exp disagree in the last bit on a few percent of
    # inputs; the column must follow math.exp like the scalar formula does
    c = ProblemConstants(smoothness=0.7, strong_convexity=0.05, sigma=1.0,
                         init_distance=1.0, num_workers=3, horizon=20_000)
    schedule = make_schedule("adaptive-strongly-convex", c)
    taus = np.arange(1, 20_001)
    column = schedule.gammas(taus)
    assert same_bits(column, np.array([reference_gamma(schedule, t) for t in taus.tolist()]))


def test_stepsize_column_rejects_zero_delay():
    c = ProblemConstants(smoothness=1.0, num_workers=1, horizon=10)
    for schedule in (make_schedule("adaptive-convex", c), make_schedule("constant", c, 0.1)):
        with pytest.raises(ScheduleError):
            schedule.gammas(np.array([1, 0, 2]))


# ---------------------------------------------------------------------------
# run_async


PROBLEMS = {
    "additive": lambda m: least_squares(dim=3, num_samples=12, sigma=0.6, seed=4),
    "exact": lambda m: least_squares(dim=3, num_samples=12, sigma=0.0, seed=4),
    "rows": lambda m: least_squares(dim=3, num_samples=12, noise="rows", seed=4),
    "heterogeneous": lambda m: heterogeneous_quadratics(
        dim=3, num_workers=m, zeta=0.4 if m > 1 else 0.0, sigma=0.3, seed=1),
    "nonconvex-rows": lambda m: bounded_nonconvex(dim=3, num_samples=12, seed=2),
    "nonconvex-additive": lambda m: bounded_nonconvex(dim=3, num_samples=12,
                                                      noise="additive", sigma=0.5, seed=2),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(PROBLEMS)), st.booleans(),
       st.integers(min_value=1, max_value=5).flatmap(
           lambda m: st.lists(st.integers(min_value=1, max_value=m), min_size=1,
                              max_size=60)),
       st.integers(min_value=0, max_value=2**16))
def test_run_async_equals_eager_and_per_step_replay(kind, diagnostics, workers, seed):
    trace = trace_from_workers(workers)
    problem = PROBLEMS[kind](trace.num_workers)
    x0 = np.full(problem.dim, 0.5)
    tag = {"heterogeneous": "adaptive-heterogeneous", "nonconvex-rows": "adaptive-nonconvex",
           "nonconvex-additive": "adaptive-nonconvex"}.get(kind, "adaptive-convex")
    # the rules need K >= M; a shorter trace still replays with them
    schedule = make_schedule(tag, problem.constants_for(
        x0, trace.num_workers, max(trace.horizon, trace.num_workers)))
    record = run_async(problem, trace, schedule, x0, seed=seed, keep_iterates=True,
                       diagnostics=diagnostics, metrics=True)

    xs, gammas, gradients = eager_async_run(problem, trace.workers, schedule, x0, seed)
    assert same_bits(record.iterates, xs)
    assert same_bits(record.gammas, gammas)

    ref = replay_async(problem, trace, schedule, x0, seed, keep_iterates=True,
                       diagnostics=diagnostics, metrics=True)
    for name in ("x_final", "gamma_hats", "gamma_hat_initial", "uniform_sum",
                 "weighted_sum", "fgaps", "gradnorms2"):
        assert same_bits(getattr(record, name), getattr(ref, name)), name
    assert record.gradient_evals == ref.gradient_evals
    if diagnostics:
        # the per-step replay keeps a dict keyed by (dispatch, worker); every
        # key names one row of the dense store, and every row is named once
        m_count = trace.num_workers
        rows = {key: store_row(m_count, *key) for key in ref.gradients}
        assert sorted(rows.values()) == list(range(len(record.gradients)))
        for key, row in rows.items():
            assert same_bits(record.gradients[row], ref.gradients[key])
            assert same_bits(record.gradients[row], gradients[key])
    else:
        assert record.gradients is None


def test_run_async_equals_per_step_replay_across_chunks():
    # more arrivals than one block of drawn samples, with metrics off
    problem = least_squares(dim=2, num_samples=10, sigma=1.0, seed=3)
    trace = simulate_trace(RandomSpeeds("exponential", (1.0, 2.0, 5.0), seed=4), 9000)
    x0 = np.ones(2)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 3, 9000))
    record = run_async(problem, trace, schedule, x0, seed=6, metrics=False)
    ref = replay_async(problem, trace, schedule, x0, 6, metrics=False)
    for name in ("x_final", "gamma_hats", "gamma_hat_initial", "uniform_sum",
                 "weighted_sum"):
        assert same_bits(getattr(record, name), getattr(ref, name)), name


def test_custom_problem_through_the_split():
    # a user-defined objective only implements value, grad, draw and
    # sample_grad; the engine must agree with eager per-dispatch evaluation
    from asyncsgd.problems import Problem

    class ScaledQuadratic(Problem):
        dim = 2
        smoothness = 2.0

        def value(self, x):
            return float(x @ x)

        def grad(self, x):
            return 2.0 * x

        def draw(self, rng, count):
            return rng.uniform(0.5, 1.5, size=count)

        def sample_grad(self, x, sample, worker=None):
            return sample * self.grad(x)

    problem = ScaledQuadratic()
    trace = simulate_trace(FixedSpeeds((1.0, 1.7, 2.2)), 40)
    x0 = np.array([1.0, -2.0])
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 3, 40))
    record = run_async(problem, trace, schedule, x0, seed=3, keep_iterates=True)
    xs, _, _ = eager_async_run(problem, trace.workers, schedule, x0, 3)
    assert same_bits(record.iterates, xs)
