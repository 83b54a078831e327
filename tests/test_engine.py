"""Property tests of the column-wise replay engine against per-step oracles:
the merged trace against the heap event loop, vectorized delays against
their definition, stepsize columns against per-rule scalar formulas, and
run_async against eager evaluation and the per-step replay, all bit for bit."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsgd import (
    DivergedError,
    FixedSpeeds,
    LeastSquares,
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
from asyncsgd import optimizers
from asyncsgd.optimizers import _ready_blocks
from asyncsgd.problems import Problem
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


# ---------------------------------------------------------------------------
# the ready-block engine


def _block_speeds(m_count, kind, seed):
    if kind == "equal":   # every round of M arrivals is one full block
        return FixedSpeeds((1.0,) * m_count)
    if kind == "fixed":
        return FixedSpeeds(tuple(np.linspace(1.0, 2.0, m_count)))
    if kind == "straggler":   # a straggler of delay ~K among blocks of length 1
        return StragglerSpeeds(1.0, m_count, 40.0, m_count)
    return RandomSpeeds(kind, tuple(np.linspace(1.0, 3.0, m_count)), sigma=1.0, seed=seed)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=16),
       st.sampled_from(["equal", "fixed", "straggler", "exponential", "lognormal"]),
       st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=1, max_value=40))
def test_ready_blocks_are_greedy_runs_of_ready_arrivals(m_count, kind, horizon, seed, start):
    trace = simulate_trace(_block_speeds(m_count, kind, seed), horizon + start)
    prevs = trace.prevs[start:].tolist()
    bounds = _ready_blocks(prevs, start)
    assert bounds[0] == 0 and bounds[-1] == len(prevs)
    for a, b in zip(bounds, bounds[1:]):
        assert b > a
        # ready: every gradient is taken at an iterate that exists at the block's start
        assert all(p <= start + a for p in prevs[a:b])
        # greedy: the next arrival needs an iterate of this block
        assert b == len(prevs) or prevs[b] > start + a
        # so no worker arrives twice in a block
        assert len(set(trace.workers[start + a:start + b].tolist())) == b - a
    if kind == "equal" and start % m_count == 0:
        assert set(np.diff(bounds[1:-1]).tolist()) <= {m_count}


PROBLEM_KINDS = {
    "additive": lambda d, m: least_squares(dim=d, sigma=0.6, seed=4),
    "exact": lambda d, m: least_squares(dim=d, sigma=0.0, seed=4),
    "rows": lambda d, m: least_squares(dim=d, noise="rows", seed=4),
    "heterogeneous": lambda d, m: heterogeneous_quadratics(
        dim=d, num_workers=m, zeta=0.4 if m > 1 and (d > 1 or m % 2 == 0) else 0.0,
        sigma=0.3, seed=1),
    "heterogeneous-exact": lambda d, m: heterogeneous_quadratics(
        dim=d, num_workers=m, zeta=0.4 if m > 1 and (d > 1 or m % 2 == 0) else 0.0, seed=1),
    "nonconvex-rows": lambda d, m: bounded_nonconvex(dim=d, seed=2),
    "nonconvex-additive": lambda d, m: bounded_nonconvex(dim=d, noise="additive", sigma=0.5,
                                                         seed=2),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PROBLEM_KINDS)), st.sampled_from([1, 3, 50]),
       st.integers(min_value=1, max_value=16),
       st.sampled_from(["equal", "fixed", "straggler", "exponential", "lognormal"]),
       st.integers(min_value=1, max_value=120), st.sampled_from([1, 2, 3, 7, 16, 1024]),
       st.booleans(), st.integers(min_value=0, max_value=2**16))
def test_block_engine_equals_per_step_replay(kind, dim, m_count, speeds, horizon, chunk,
                                             diagnostics, seed):
    # small chunks put chunk edges inside blocks and between them
    problem = PROBLEM_KINDS[kind](dim, m_count)
    trace = simulate_trace(_block_speeds(m_count, speeds, seed), horizon)
    x0 = np.full(dim, 0.5)
    tag = ("adaptive-heterogeneous" if kind.startswith("heterogeneous")
           else "adaptive-nonconvex" if kind.startswith("nonconvex") else "adaptive-convex")
    schedule = make_schedule(tag, problem.constants_for(x0, m_count, max(horizon, m_count)))
    with mock.patch.object(optimizers, "_CHUNK", chunk):
        record = run_async(problem, trace, schedule, x0, seed=seed, keep_iterates=True,
                           diagnostics=diagnostics, metrics=True)
    ref = replay_async(problem, trace, schedule, x0, seed, keep_iterates=True,
                       diagnostics=diagnostics, metrics=True)
    for name in ("x_final", "uniform_sum", "weighted_sum", "gamma_hats", "gamma_hat_initial",
                 "iterates", "fgaps", "gradnorms2"):
        assert same_bits(getattr(record, name), getattr(ref, name)), name
    assert record.gradient_evals == ref.gradient_evals
    if diagnostics:
        for key, g in ref.gradients.items():
            assert same_bits(record.gradients[store_row(m_count, *key)], g)


def _diverging_run(step, horizon):
    # with eight equal workers every block holds eight arrivals
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=4)
    trace = simulate_trace(FixedSpeeds((1.0,) * 8), horizon)
    x0 = np.full(3, 0.5)
    schedule = make_schedule("constant", problem.constants_for(x0, 8, horizon), step)
    with np.errstate(all="ignore"):
        xs, _, _ = eager_async_run(problem, trace.workers, schedule, x0, 1)
        norms2 = np.array([x.dot(x) for x in xs[1:]])
    return problem, trace, x0, schedule, norms2


def _first_diverged(norms2, limit):
    k = int(np.flatnonzero(~(norms2 <= limit * limit))[0]) + 1
    norm = math.sqrt(norms2[k - 1]) if math.isfinite(norms2[k - 1]) else math.inf
    return k, norm


@pytest.mark.parametrize("step, limit, horizon", [(2.0, 1e12, 200), (4.0, 1e300, 2000)])
def test_divergence_mid_block_and_mid_chunk(step, limit, horizon):
    problem, trace, x0, schedule, norms2 = _diverging_run(step, horizon)
    k, norm = _first_diverged(norms2, limit)
    assert k % 8 not in (0, 1) and k % 16 not in (0, 1)
    with mock.patch.object(optimizers, "_CHUNK", 16), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seed=1, divergence_norm=limit)
    assert exc.value.iteration == k
    assert exc.value.norm == norm
    assert (norm == math.inf) == (limit == 1e300)
    # under 1e12 nothing overflows. Past about 1.3e154 the squared norm
    # overflows before the limit, so iterates near 1e308 pass the test, and
    # the problem's own overflow at them is reported, not silenced
    sources = {w.filename.rsplit("/", 1)[-1] for w in caught
               if issubclass(w.category, RuntimeWarning)}
    assert ("problems.py" in sources) == (limit == 1e300)


def test_block_check_reports_the_first_row_past_the_limit():
    # rows are iterations k = 5..8. Rows inside the limit pass even when
    # their squares add up past it; a row just past it is reported, and
    # the first bad row wins
    limit = 10.0
    rows = np.zeros((4, 3))
    rows[:2, 1] = 0.9 * limit
    optimizers._check_rows(rows, 5, limit)
    rows[2, 0] = np.nextafter(limit, np.inf)
    with pytest.raises(DivergedError) as exc:
        optimizers._check_rows(rows, 5, limit)
    assert (exc.value.iteration, exc.value.norm) == (7, math.sqrt(rows[2].dot(rows[2])))
    rows[2, 0] = limit
    rows[3] = np.nan
    with pytest.raises(DivergedError) as exc:
        optimizers._check_rows(rows, 5, limit)
    assert (exc.value.iteration, exc.value.norm) == (8, math.inf)


def test_no_gradient_is_taken_at_a_diverged_point():
    # a custom problem that rejects points past the limit: the run must
    # stop at the diverged iterate before any gradient is taken there
    limit = 1e12

    class Guarded(LeastSquares):
        def sample_grad(self, x, sample, worker=None):
            if not x.dot(x) <= limit * limit:
                raise ValueError("gradient asked at a diverged point")
            return super().sample_grad(x, sample, worker)

    base, trace, x0, schedule, norms2 = _diverging_run(2.0, 200)
    problem = Guarded(base.mat, base.rhs, sigma=base.sigma, probe_seed=4)
    k, norm = _first_diverged(norms2, limit)
    assert k % 8 not in (0, 1)   # mid-block, with later blocks in its chunk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seed=1, divergence_norm=limit)
    assert (exc.value.iteration, exc.value.norm) == (k, norm)


def test_subclass_that_overrides_sample_grad_keeps_its_override():
    class Doubled(LeastSquares):
        def sample_grad(self, x, sample, worker=None):
            return 2.0 * super().sample_grad(x, sample, worker)

    base = least_squares(dim=3, num_samples=12, noise="rows", seed=4)
    problem = Doubled(base.mat, base.rhs, noise="rows")
    assert Doubled.sample_grads is Problem.sample_grads
    trace = simulate_trace(FixedSpeeds((1.0,) * 6), 300)
    x0 = np.full(3, 0.5)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 6, 300))
    record = run_async(problem, trace, schedule, x0, seed=2, keep_iterates=True)
    xs, _, _ = eager_async_run(problem, trace.workers, schedule, x0, 2)
    assert same_bits(record.iterates, xs)
    plain = run_async(base, trace, schedule, x0, seed=2)
    assert not same_bits(record.x_final, plain.x_final)
