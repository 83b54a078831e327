"""Property tests of the column-wise replay engine against per-step oracles:
the merged trace against the heap event loop, vectorized delays against
their definition, stepsize columns against per-rule scalar formulas, and
run_async against eager evaluation and the per-step replay, all bit for bit."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncsgd import (
    DivergedError,
    FixedSpeeds,
    LeastSquares,
    LedgerError,
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
from asyncsgd.problems import Problem, offset_start
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


@settings(max_examples=200, deadline=None)
@given(speed_models(), st.integers(min_value=0, max_value=300),
       st.integers(min_value=1, max_value=300))
def test_a_shorter_trace_is_a_prefix_of_a_longer_one(model, horizon, more):
    # a sweep replays its horizons as prefixes of the longest trace
    short, long = simulate_trace(model, horizon), simulate_trace(model, horizon + more)
    assert same_bits(short.workers, long.workers[:horizon])
    assert same_bits(short.times, long.times[:horizon])


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


# an explicit order in which workers 3 and 4 never arrive, so their first
# gradients are priced at delay K and evaluated at the end, and worker 1
# arrives last, at K
NEVER_ARRIVE = (1, 2, 1, 1, 2, 1, 2, 2, 1)


# an explicit order whose ready blocks alternate between batched blocks of
# four arrivals and scalar runs, the last arrival being in one of those
MIXED = (1, 2, 3, 4, 1, 1, 2, 1, 3, 4, 2, 1, 1, 1, 3, 2, 4, 1)


# the scalar loop keeps its iterate as Python floats up to _FLOAT_DIM, and
# as a numpy row past it
EDGE_DIMS = [1, 3, optimizers._FLOAT_DIM, optimizers._FLOAT_DIM + 1, 50]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PROBLEM_KINDS)), st.sampled_from(EDGE_DIMS),
       st.integers(min_value=1, max_value=16),
       st.sampled_from(["equal", "fixed", "straggler", "exponential", "lognormal"]),
       st.integers(min_value=1, max_value=120), st.sampled_from([1, 2, 3, 7, 16, 1024]),
       st.booleans(), st.integers(min_value=0, max_value=2**16))
@example("additive", 3, 1, "equal", 40, 7, True, 5)   # one worker: nothing in flight
@example("additive", 3, 1, "equal", 40, 7, False, 5)
@example("heterogeneous", 3, 4, NEVER_ARRIVE, len(NEVER_ARRIVE), 2, True, 3)
@example("heterogeneous", 3, 4, NEVER_ARRIVE, len(NEVER_ARRIVE), 2, False, 3)
@example("rows", 3, 4, NEVER_ARRIVE, len(NEVER_ARRIVE), 1024, True, 3)
@example("additive", 3, 4, MIXED, len(MIXED), 1024, True, 3)
@example("rows", optimizers._FLOAT_DIM + 1, 4, MIXED, len(MIXED), 1024, True, 3)
@example("heterogeneous", 3, 4, MIXED, len(MIXED), 7, True, 3)
@example("nonconvex-additive", optimizers._FLOAT_DIM + 1, 4, MIXED, len(MIXED), 7, True, 3)
def test_block_engine_equals_per_step_replay(kind, dim, m_count, speeds, horizon, chunk,
                                             diagnostics, seed):
    # small chunks put chunk edges inside blocks and between them; a tuple
    # of speeds is an explicit arrival order
    problem = PROBLEM_KINDS[kind](dim, m_count)
    trace = (trace_from_workers(speeds, m_count) if isinstance(speeds, tuple)
             else simulate_trace(_block_speeds(m_count, speeds, seed), horizon))
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
    xs, _, _ = eager_async_run(problem, trace.workers, schedule, x0, seed)
    assert same_bits(record.iterates, xs)
    if diagnostics:
        # every row of the dense store is one evaluated dispatch
        assert sorted(store_row(m_count, *key) for key in ref.gradients) == \
            list(range(len(record.gradients)))
        for key, g in ref.gradients.items():
            assert same_bits(record.gradients[store_row(m_count, *key)], g)
    else:
        assert record.gradients is None


def _diverging_run(step, horizon, m_count=8):
    # with m_count equal workers every block holds m_count arrivals: eight
    # take the batched path, two the scalar loop of a single run
    problem = least_squares(dim=3, num_samples=12, sigma=0.5, seed=4)
    trace = simulate_trace(FixedSpeeds((1.0,) * m_count), horizon)
    x0 = np.full(3, 0.5)
    schedule = make_schedule("constant", problem.constants_for(x0, m_count, horizon), step)
    with np.errstate(all="ignore"):
        xs, _, _ = eager_async_run(problem, trace.workers, schedule, x0, 1)
        norms2 = np.array([x.dot(x) for x in xs[1:]])
    return problem, trace, x0, schedule, norms2


def _first_diverged(norms2, limit):
    k = int(np.flatnonzero(~(norms2 <= limit * limit))[0]) + 1
    norm = math.sqrt(norms2[k - 1]) if math.isfinite(norms2[k - 1]) else math.inf
    return k, norm


# the largest divergence limit whose square is finite
LARGEST_LIMIT = math.sqrt(sys.float_info.max)


@pytest.mark.parametrize("m_count, step, limit, horizon", [
    (8, 2.0, 1e12, 200), (8, 4.0, 1e300, 2000), (2, 2.0, 1e12, 200), (2, 3.0, 1e300, 4000),
    (8, 4.0, LARGEST_LIMIT, 1000), (2, 2.5, LARGEST_LIMIT, 1000)],
    ids=["2.0-1000000000000.0-200", "4.0-1e+300-2000", "two-workers-1e12", "two-workers-1e300",
         "largest-limit", "two-workers-largest-limit"])
def test_divergence_mid_block_and_mid_chunk(m_count, step, limit, horizon):
    problem, trace, x0, schedule, norms2 = _diverging_run(step, horizon, m_count)
    with mock.patch.object(optimizers, "_CHUNK", 16), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if limit == 1e300:
            # its square overflows, so every iterate short of nan would pass
            # the test: the limit is refused before any work, in silence
            with pytest.raises(LedgerError, match="divergence_norm"):
                run_async(problem, trace, schedule, x0, seed=1, divergence_norm=limit)
            assert not caught
            return
        with pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seed=1, divergence_norm=limit)
    k, norm = _first_diverged(norms2, limit)
    # inside a block, with a later arrival of the block still to come (for
    # two workers, the first of a block of two), and inside a chunk
    assert k % m_count not in ((0, 1) if m_count > 2 else (0,)) and k % 16 not in (0, 1)
    assert exc.value.iteration == k
    assert exc.value.norm == norm
    # past the largest limit the squared norm overflows, so the norm reads inf
    assert (norm == math.inf) == (limit == LARGEST_LIMIT)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=f"^diverged at {k}$"):
        replay_async(problem, trace, schedule, x0, 1, divergence_norm=limit)
    # no gradient is taken at an iterate past the limit, so the problem's
    # own arithmetic never overflows, even at the largest limit
    sources = {w.filename.rsplit("/", 1)[-1] for w in caught
               if issubclass(w.category, RuntimeWarning)}
    assert "problems.py" not in sources


@pytest.mark.parametrize("m_count, dim", [
    *(pytest.param(m, 3, id=str(m)) for m in (1, 2, 8)),
    *(pytest.param(m, optimizers._FLOAT_DIM + 1, id=f"{m}-past-float-dim") for m in (1, 2, 8))])
def test_largest_limit_stops_at_a_finite_or_infinite_iterate_past_it(m_count, dim):
    # step 1 and a constant gradient of -L/2 put x_2 on the largest limit L,
    # where it passes, and x_3 = 1.5 L past it, a finite point whose squared
    # norm overflows; a gradient of -inf makes x_1 itself infinite. One or
    # two workers take the scalar loop, on Python floats at d = 3 and on
    # numpy rows past _FLOAT_DIM, eight the batched path, whose screen fails
    # on the overflowing sum of squares of rows within the limit. No path
    # warns, and the tests run with RuntimeWarnings as errors
    above = math.nextafter(LARGEST_LIMIT, math.inf)
    assert math.isfinite(LARGEST_LIMIT * LARGEST_LIMIT) and above * above == math.inf

    class Constant(LeastSquares):
        def sample_grad(self, x, sample, worker=None):
            g = np.zeros(self.dim)
            g[0] = -self.pull
            return g

    base = least_squares(dim=dim, num_samples=12, sigma=0.5, seed=4)
    problem = Constant(base.mat, base.rhs, sigma=base.sigma, probe_seed=4)
    trace = simulate_trace(FixedSpeeds((1.0,) * m_count), 40)
    x0 = np.zeros(dim)
    schedule = make_schedule("constant", problem.constants_for(x0, m_count, 40), 1.0)
    for pull, expected in ((LARGEST_LIMIT / 2, 3), (math.inf, 1)):
        problem.pull = pull
        with pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seed=1, divergence_norm=LARGEST_LIMIT)
        assert (exc.value.iteration, exc.value.norm) == (expected, math.inf)
    with pytest.raises(LedgerError, match="divergence_norm"):
        run_async(problem, trace, schedule, x0, seed=1, divergence_norm=above)


@pytest.mark.parametrize("dim", [3, optimizers._FLOAT_DIM + 1])
def test_an_overflowing_step_diverges_alike_on_every_path_without_a_warning(dim):
    # a step of 1e160 puts x_1 near 1e160, a finite point whose squared norm
    # overflows, and a step of 1.7e308 puts gamma_1 g_1 itself past the float
    # range (a gradient entry past 1.06 does, as least squares' first one
    # has from two units away and the additive nonconvex one by its noise):
    # one worker replays it on the scalar loop, on Python floats at d = 3
    # and on numpy rows past _FLOAT_DIM, four on the batched path. Least
    # squares has its own step oracle and the nonconvex problem the default.
    # Each raises the same DivergedError, and none warns
    errors = []
    for problem, x0 in ((ls := least_squares(dim=dim, num_samples=10, sigma=1.0, seed=1),
                         offset_start(ls, 2.0)),
                        (bounded_nonconvex(dim=dim, seed=1), np.full(dim, 0.5)),
                        (bounded_nonconvex(dim=dim, noise="additive", sigma=5.0, seed=1),
                         np.full(dim, 0.5))):
        for m_count, step in itertools.product((1, 4), (1e160, 1.7e308)):
            trace = simulate_trace(FixedSpeeds((1.0,) * m_count), 40)
            schedule = make_schedule("constant", problem.constants_for(x0, m_count, 40), step)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergedError) as exc:
                    run_async(problem, trace, schedule, x0, seed=1)
            errors.append((exc.value.iteration, exc.value.norm))
    assert errors == [(1, math.inf)] * 12


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

    for m_count in (8, 2):
        base, trace, x0, schedule, norms2 = _diverging_run(2.0, 200, m_count)
        problem = Guarded(base.mat, base.rhs, sigma=base.sigma, probe_seed=4)
        k, norm = _first_diverged(norms2, limit)
        # mid-block, with later blocks in its chunk
        assert k % m_count not in ((0, 1) if m_count > 2 else (0,))
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
    assert Doubled.step_oracle is Problem.step_oracle
    trace = simulate_trace(FixedSpeeds((1.0,) * 6), 300)
    x0 = np.full(3, 0.5)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 6, 300))
    record = run_async(problem, trace, schedule, x0, seed=2, keep_iterates=True)
    xs, _, _ = eager_async_run(problem, trace.workers, schedule, x0, 2)
    assert same_bits(record.iterates, xs)
    plain = run_async(base, trace, schedule, x0, seed=2)
    assert not same_bits(record.x_final, plain.x_final)


@pytest.mark.parametrize("speeds", [(1.0,), (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (1.0, 1.3, 1.7)])
def test_a_gradient_array_the_problem_keeps_is_never_written(speeds):
    # a problem whose sample_grad returns one array it keeps: the replay
    # must read it, on the scalar loop and the batched path alike, and
    # never scale or subtract in place into it
    class Cached(LeastSquares):
        def sample_grad(self, x, sample, worker=None):
            return self.cached

    base = least_squares(dim=3, num_samples=12, sigma=0.5, seed=4)
    problem = Cached(base.mat, base.rhs, sigma=base.sigma, probe_seed=4)
    problem.cached = np.array([0.5, -1.0, 0.25])
    kept = problem.cached.copy()
    m_count = len(speeds)
    trace = simulate_trace(FixedSpeeds(speeds), 300)
    x0 = np.full(3, 0.5)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, m_count, 300))
    with mock.patch.object(optimizers, "_CHUNK", 16):
        record = run_async(problem, trace, schedule, x0, seed=1, diagnostics=True)
    ref = replay_async(problem, trace, schedule, x0, 1, diagnostics=True)
    for name in ("x_final", "uniform_sum", "weighted_sum", "iterates"):
        assert same_bits(getattr(record, name), getattr(ref, name)), name
    for key, g in ref.gradients.items():
        assert same_bits(record.gradients[store_row(m_count, *key)], g)
    assert same_bits(problem.cached, kept)


@pytest.mark.parametrize("m_count", [1, 2])
def test_scalar_loop_reports_the_first_iterate_past_the_limit(m_count):
    # a constant gradient and step 1 put x_k at (k, 0, 0): an iterate on the
    # limit passes, and one just past it is reported with its own norm
    class Constant(LeastSquares):
        def sample_grad(self, x, sample, worker=None):
            return np.array([-1.0, 0.0, 0.0])

    base = least_squares(dim=3, num_samples=12, sigma=0.5, seed=4)
    problem = Constant(base.mat, base.rhs, sigma=base.sigma, probe_seed=4)
    trace = simulate_trace(FixedSpeeds((1.0,) * m_count), 40)
    x0 = np.zeros(3)
    schedule = make_schedule("constant", problem.constants_for(x0, m_count, 40), 1.0)
    for limit, expected in ((5.0, 6), (np.nextafter(5.0, 0.0), 5)):
        with pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seed=1, divergence_norm=limit)
        assert (exc.value.iteration, exc.value.norm) == (expected, float(expected))


def test_short_blocks_are_grouped_into_scalar_runs():
    # blocks of 1, 2, 3, 1, 1, 4 and 2 arrivals: each maximal run of blocks
    # of at most two is one run, and each longer block a run of its own
    bounds = [0, 1, 3, 6, 7, 8, 12, 14]
    assert optimizers._scalar_runs(bounds, 2) == (
        [0, 3, 6, 8, 12, 14], [True, False, True, False, True])
    assert optimizers._scalar_runs(bounds, 0) == (bounds, [False] * 7)
    assert optimizers._scalar_runs([0, 5], 2) == ([0, 5], [False])


# ---------------------------------------------------------------------------
# the seed axis


def _same_record(batched, alone):
    """Every field of two RunRecords equal, arrays bit for bit."""
    for field in dataclasses.fields(alone):
        a, b = getattr(batched, field.name), getattr(alone, field.name)
        if isinstance(b, np.ndarray):
            assert same_bits(a, b), field.name
        elif field.name == "schedule":
            assert a is b
        else:
            assert a == b, field.name


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(PROBLEM_KINDS)), st.sampled_from([1, 3, 50]),
       st.integers(min_value=1, max_value=16),
       st.sampled_from(["equal", "fixed", "straggler", "exponential", "lognormal"]),
       st.integers(min_value=1, max_value=120), st.sampled_from([1, 2, 3, 7, 16, 1024]),
       st.sampled_from([1, 2, 3, 8]), st.booleans(), st.booleans(), st.booleans(),
       st.integers(min_value=0, max_value=2**16))
# a straggler among two workers: every block has length 1
@example("rows", 3, 2, "straggler", 60, 1024, 3, False, False, False, 7)
# blocks of four equal workers cut by chunks of three
@example("additive", 3, 4, "equal", 40, 3, 2, True, True, True, 5)
# chunks of 2 * 16 // 8 = 4 arrivals, each block of five cut in two
@example("nonconvex-rows", 50, 5, "equal", 50, 16, 8, True, False, False, 1)
@example("heterogeneous", 3, 4, NEVER_ARRIVE, len(NEVER_ARRIVE), 2, 2, True, True, True, 3)
# eight seeds over 30 chunks of 4 arrivals, metrics, history and store all on
@example("nonconvex-rows", 50, 5, "lognormal", 120, 16, 8, True, True, True, 2)
def test_seed_batch_equals_per_seed_runs(kind, dim, m_count, speeds, horizon, chunk,
                                         n_seeds, metrics, keep_iterates, diagnostics,
                                         seed):
    problem = PROBLEM_KINDS[kind](dim, m_count)
    trace = (trace_from_workers(speeds, m_count) if isinstance(speeds, tuple)
             else simulate_trace(_block_speeds(m_count, speeds, seed), horizon))
    x0 = np.full(dim, 0.5)
    tag = ("adaptive-heterogeneous" if kind.startswith("heterogeneous")
           else "adaptive-nonconvex" if kind.startswith("nonconvex") else "adaptive-convex")
    schedule = make_schedule(tag, problem.constants_for(x0, m_count, max(horizon, m_count)))
    seeds = [seed + 3 * r for r in range(n_seeds)]
    options = dict(metrics=metrics, keep_iterates=keep_iterates, diagnostics=diagnostics)
    with mock.patch.object(optimizers, "_CHUNK", chunk):
        records = run_async(problem, trace, schedule, x0, seeds=seeds, **options)
        alone = [run_async(problem, trace, schedule, x0, seed=s, **options) for s in seeds]
    assert len(records) == n_seeds
    for s, record, single in zip(seeds, records, alone):
        _same_record(record, single)
        ref = replay_async(problem, trace, schedule, x0, s)
        assert same_bits(record.x_final, ref.x_final)


@st.composite
def block_orders(draw, m_count=4):
    """An arrival order of m_count workers with ready blocks of 1 to 4
    arrivals, and those lengths. A block's workers are distinct, and each
    block after the first opens with a worker of the block before it, whose
    dispatch is then past the block's start, so the greedy scan ends the
    block before it."""
    lengths = draw(st.lists(st.integers(1, m_count), min_size=1, max_size=40))
    order, previous = [], list(range(1, m_count + 1))
    for length in lengths:
        first = draw(st.sampled_from(previous))
        rest = draw(st.permutations([m for m in range(1, m_count + 1) if m != first]))
        previous = [first, *rest[:length - 1]]
        order += previous
    return tuple(order), lengths


@settings(max_examples=100, deadline=None)
@given(block_orders(), st.sampled_from(sorted(PROBLEM_KINDS)), st.sampled_from([1, 3, 50]),
       st.sampled_from([1, 2, 3, 7, 1024]), st.booleans(),
       st.integers(min_value=0, max_value=2**16))
def test_single_run_equals_its_seed_in_a_batch(order, kind, dim, chunk, metrics, seed):
    # the single run takes the scalar loop on its blocks of one or two
    # arrivals, the batch the batched path on every block
    order, lengths = order
    m_count = 4
    trace = trace_from_workers(order, m_count)
    assert np.diff(_ready_blocks(trace.prevs.tolist(), 0)).tolist() == lengths
    problem = PROBLEM_KINDS[kind](dim, m_count)
    x0 = np.full(dim, 0.5)
    tag = ("adaptive-heterogeneous" if kind.startswith("heterogeneous")
           else "adaptive-nonconvex" if kind.startswith("nonconvex") else "adaptive-convex")
    schedule = make_schedule(tag, problem.constants_for(x0, m_count,
                                                        max(trace.horizon, m_count)))
    options = dict(metrics=metrics, diagnostics=True)
    with mock.patch.object(optimizers, "_CHUNK", chunk):
        alone = run_async(problem, trace, schedule, x0, seed=seed, **options)
        batched = run_async(problem, trace, schedule, x0, seeds=[seed, seed + 1], **options)
    _same_record(batched[0], alone)   # the gradient store included


def test_seed_lists_longer_than_a_batch():
    problem = least_squares(dim=3, num_samples=12, sigma=0.6, seed=4)
    trace = simulate_trace(FixedSpeeds(tuple(np.linspace(1.0, 2.0, 5))), 300)
    x0 = np.full(3, 0.5)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, 5, 300))
    seeds = list(range(7))
    with mock.patch.object(optimizers, "_SEED_BATCH", 3):
        records = run_async(problem, trace, schedule, x0, seeds=seeds, keep_iterates=True)
    for s, record in zip(seeds, records):
        _same_record(record, run_async(problem, trace, schedule, x0, seed=s,
                                       keep_iterates=True))
    assert run_async(problem, trace, schedule, x0, seeds=[]) == []
    with pytest.raises(TypeError):
        run_async(problem, trace, schedule, x0, seed=1, seeds=[1, 2])


def _noisy_divergence():
    # strong noise near the optimum and a limit at the median of the seeds'
    # largest iterate norms: about half of the seeds "diverge", each when its
    # noise first carries the iterate past the limit
    problem = least_squares(dim=3, num_samples=12, sigma=6.0, seed=4)
    trace = simulate_trace(FixedSpeeds((1.0, 1.0, 1.0, 1.3)), 400)
    x0 = problem.xstar.copy()
    schedule = make_schedule("constant", problem.constants_for(x0, 4, 400), 0.3)
    seeds = list(range(16))
    runs = run_async(problem, trace, schedule, x0, seeds=seeds, keep_iterates=True)
    limit = float(np.median([np.linalg.norm(r.iterates, axis=1).max() for r in runs]))
    outcomes = {}
    for s in seeds:
        try:
            run_async(problem, trace, schedule, x0, seed=s, divergence_norm=limit)
            outcomes[s] = None
        except DivergedError as exc:
            outcomes[s] = (exc.iteration, exc.norm)
    return problem, trace, x0, schedule, limit, outcomes


def test_batch_raises_the_error_of_the_first_diverging_seed_in_list_order():
    problem, trace, x0, schedule, limit, outcomes = _noisy_divergence()
    fine = [s for s, out in outcomes.items() if out is None]
    failing = sorted((out[0], s) for s, out in outcomes.items() if out is not None)
    assert len(fine) >= 2 and failing[0][0] < failing[-1][0]
    early, late = failing[0][1], failing[-1][1]
    # the later seed in the list diverges at an earlier iteration
    seeds = [fine[0], late, fine[-1], early]
    for chunk in (16, 1024):
        with mock.patch.object(optimizers, "_CHUNK", chunk), \
                pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seeds=seeds, divergence_norm=limit)
        assert (exc.value.iteration, exc.value.norm) == outcomes[late]
    records = run_async(problem, trace, schedule, x0, seeds=fine, divergence_norm=limit)
    for s, record in zip(fine, records):
        _same_record(record, run_async(problem, trace, schedule, x0, seed=s,
                                       divergence_norm=limit))


def test_no_gradient_is_taken_at_a_diverged_point_of_a_batch():
    limit = 1e12

    class Guarded(LeastSquares):
        def sample_grad(self, x, sample, worker=None):
            if not x.dot(x) <= limit * limit:
                raise ValueError("gradient asked at a diverged point")
            return super().sample_grad(x, sample, worker)

    base, trace, x0, schedule, norms2 = _diverging_run(2.0, 200)
    problem = Guarded(base.mat, base.rhs, sigma=base.sigma, probe_seed=4)
    assert Guarded.sample_grads is Problem.sample_grads   # one sample_grad per row
    k, norm = _first_diverged(norms2, limit)   # seed 1's iteration and norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergedError) as exc:
            run_async(problem, trace, schedule, x0, seeds=[1, 2, 3], divergence_norm=limit)
    assert (exc.value.iteration, exc.value.norm) == (k, norm)


def test_seed_batch_working_memory():
    # a full batch works in about two (M + chunk + 1, R, d) arrays, a chunk
    # being 2 * _CHUNK // R arrivals: the chunk table and the chunk's samples
    # or running-sum rows. A list of two batches needs no more, beyond the
    # first batch's records
    problem = least_squares(dim=50, num_samples=200, sigma=1.0, seed=13)
    m_count, horizon = 8, 5000
    trace = simulate_trace(FixedSpeeds(tuple(np.linspace(1.0, 2.0, m_count))), horizon)
    x0 = np.zeros(50)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, m_count, horizon))
    batch = optimizers._SEED_BATCH
    chunk = 2 * optimizers._CHUNK // batch
    table = (m_count + chunk + 1) * batch * 50 * 8
    peaks = []
    for n_seeds in (batch, 2 * batch):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records = run_async(problem, trace, schedule, x0, seeds=list(range(n_seeds)))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert len(records) == n_seeds
    assert peaks[0] <= 2.5 * table
    assert peaks[1] <= peaks[0] + 256 * 1024


def test_draw_spans_keep_a_bounded_working_memory():
    # after a first span of one chunk, a draw span holds as many arrivals as
    # fit in the bytes of that span as d-float samples: row samples, one
    # integer each, are drawn d times as far ahead and still peak within the
    # same run with additive samples, and past one span neither run's peak
    # grows with K by more than its O(K) columns
    m_count, dim, long = 8, 50, 20000
    short = 2 * optimizers._CHUNK
    x0 = np.zeros(dim)
    peaks = {}
    for noise in ("additive", "rows"):
        problem = least_squares(dim=dim, num_samples=200, noise=noise, sigma=1.0, seed=13)
        for horizon in (short, long):
            trace = simulate_trace(FixedSpeeds(tuple(np.linspace(1.0, 2.0, m_count))), horizon)
            schedule = make_schedule("adaptive-convex",
                                     problem.constants_for(x0, m_count, horizon))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_async(problem, trace, schedule, x0, seed=1)
                peaks[noise, horizon] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
    assert peaks["rows", long] <= peaks["additive", long]
    for noise in ("additive", "rows"):
        assert peaks[noise, long] <= peaks[noise, short] + 32 * (long - short)


class CountedDraws(LeastSquares):
    """Least squares that counts its draw calls; overriding `draw` keeps the
    batched and step forms."""

    calls = 0

    def draw(self, rng, count):
        CountedDraws.calls += 1
        return super().draw(rng, count)


def _distinct(workers, spans) -> int:
    """Draw calls of one run whose samples are drawn in these spans: one
    per worker arriving in a span."""
    return sum(len(np.unique(workers[a:b])) for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("noise", ["rows", "additive"])
def test_draw_calls_per_span(monkeypatch, noise):
    # the diagnostics-wide shape: d = 50, M = 64, K = 5000, lognormal speeds
    m_count, horizon, chunk = 64, 5000, optimizers._CHUNK
    base = least_squares(dim=50, num_samples=500, noise=noise, seed=3)
    problem = CountedDraws(base.mat, base.rhs, noise=noise, sigma=base.sigma, probe_seed=3)
    trace = simulate_trace(RandomSpeeds("lognormal", tuple(np.linspace(1.0, 2.0, m_count)),
                                        sigma=1.0, seed=3), horizon)
    x0 = np.zeros(50)
    schedule = make_schedule("adaptive-convex", problem.constants_for(x0, m_count, horizon))
    monkeypatch.setattr(CountedDraws, "calls", 0)
    record = run_async(problem, trace, schedule, x0, seed=3, diagnostics=True)
    assert same_bits(record.gradients,
                     run_async(base, trace, schedule, x0, seed=3, diagnostics=True).gradients)
    # each worker still in flight at K draws once more, when the run ends
    pending = m_count - 1
    if noise == "rows":
        # a first span of one chunk, then the rest of the run in one
        assert CountedDraws.calls == _distinct(trace.workers, [0, chunk, horizon]) + pending
        assert CountedDraws.calls <= 2 * m_count + m_count - 1
    else:   # d floats a sample: one call per drawing worker per chunk
        spans = list(range(0, horizon, chunk)) + [horizon]
        assert CountedDraws.calls == _distinct(trace.workers, spans) + pending


# ---------------------------------------------------------------------------
# the run axis: several runs over prefixes of one trace


def _schedule_for(kind, problem, x0, m_count, horizon):
    tag = ("adaptive-heterogeneous" if kind.startswith("heterogeneous")
           else "adaptive-nonconvex" if kind.startswith("nonconvex") else "adaptive-convex")
    return make_schedule(tag, problem.constants_for(x0, m_count, max(horizon, m_count)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(PROBLEM_KINDS)), st.sampled_from([1, 3, 50]),
       st.integers(min_value=1, max_value=8),
       st.sampled_from(["equal", "fixed", "straggler", "exponential", "lognormal"]),
       st.lists(st.integers(min_value=1, max_value=150), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, 7, 16, 1024]), st.sampled_from([None, 1, 2, 5]),
       st.booleans(), st.booleans(), st.integers(min_value=0, max_value=2**16))
# three horizons of seed-sweep's shape at a small scale: 24, 16 then 8 rows
@example("additive", 3, 8, "fixed", [32, 64, 128], 16, 8, False, False, 1)
# one seed among a straggler's blocks of length 1: the longest run takes the
# scalar loop once the shorter ones have left
@example("rows", 3, 2, "straggler", [5, 60, 9], 1024, None, True, True, 7)
# equal horizons leave together
@example("nonconvex-rows", 50, 5, "lognormal", [40, 40, 90], 7, 2, True, True, 2)
def test_runs_over_trace_prefixes_equal_their_own_runs(kind, dim, m_count, speeds, horizons,
                                                        chunk, n_seeds, metrics,
                                                        history, seed):
    # every record of every run equals that run's own run_async record, field
    # by field; n_seeds None is the single-seed form
    problem = PROBLEM_KINDS[kind](dim, m_count)
    model = _block_speeds(m_count, speeds, seed)
    traces = [simulate_trace(model, k) for k in horizons]
    x0 = np.full(dim, 0.5)
    schedules = [_schedule_for(kind, problem, x0, m_count, k) for k in horizons]
    options = dict(metrics=metrics, keep_iterates=history)   # an output rule's history
    if n_seeds is None:
        options["seed"] = seed
    else:
        options["seeds"] = [seed + 3 * r for r in range(n_seeds)]
    with mock.patch.object(optimizers, "_CHUNK", chunk):
        runs = run_async(problem, traces, schedules, x0, **options)
        alone = [run_async(problem, t, s, x0, **options) for t, s in zip(traces, schedules)]
    assert len(runs) == len(horizons)
    for run, own in zip(runs, alone):
        if n_seeds is None:
            run, own = [run], [own]
        assert len(run) == len(own)
        for record, single in zip(run, own):
            _same_record(record, single)


def _two_horizons(horizon=60):
    problem = least_squares(dim=3, num_samples=12, sigma=0.6, seed=4)
    model = RandomSpeeds("exponential", (1.0, 1.5, 2.0), seed=5)
    x0 = np.full(3, 0.5)
    runs = [(simulate_trace(model, k), make_schedule("adaptive-convex",
                                                     problem.constants_for(x0, 3, k)))
            for k in (horizon, horizon // 2)]
    return problem, x0, runs


def test_a_run_whose_trace_is_not_a_prefix_is_refused():
    problem, x0, [(long, s_long), (short, s_short)] = _two_horizons()
    workers = short.workers.copy()
    workers[[11, 12]] = workers[[12, 11]]   # rows 12 and 13 swapped
    if workers[11] == workers[12]:
        workers[11] = workers[11] % 3 + 1
    other = trace_from_workers(workers, 3)
    with pytest.raises(LedgerError, match="run 1: trace row 1 differs"):
        run_async(problem, [long, other], [s_long, s_short], x0, seeds=[1, 2])
    # the same order with the longest trace's times differs first at row 12
    swapped = type(short)(workers, long.times[:short.horizon], 3)
    with pytest.raises(LedgerError, match="run 0: trace row 12 differs"):
        run_async(problem, [swapped, long], [s_short, s_long], x0)
    fewer = type(short)(short.workers, short.times, 4)
    with pytest.raises(LedgerError, match="run 1: a trace of 4 workers"):
        run_async(problem, [long, fewer], [s_long, s_short], x0)
    with pytest.raises(TypeError, match="one schedule per trace"):
        run_async(problem, [long, short], [s_long], x0)
    assert run_async(problem, [], [], x0, seeds=[1, 2]) == []


def test_diagnostics_take_one_run_at_a_time():
    problem, x0, runs = _two_horizons()
    traces, schedules = map(list, zip(*runs))
    with pytest.raises(LedgerError, match="diagnostics need one run at a time"):
        run_async(problem, traces, schedules, x0, seeds=[1, 2], diagnostics=True)
    [record] = run_async(problem, traces[:1], schedules[:1], x0, seeds=[1], diagnostics=True)
    _same_record(record[0], run_async(problem, traces[0], schedules[0], x0, seed=1,
                                      diagnostics=True))


def test_several_runs_raise_the_error_of_the_first_diverging_run_in_order():
    # a constant step replays the same iterates at every horizon, so a seed
    # that diverges at k diverges in every run of horizon k or more and in
    # no other
    problem, _, x0, schedule, limit, outcomes = _noisy_divergence()
    failing = sorted((out[0], s) for s, out in outcomes.items() if out is not None)
    (k_early, early), (k_late, late) = failing[0], failing[-1]
    assert k_early < k_late - 1
    model = FixedSpeeds((1.0, 1.0, 1.0, 1.3))
    long = simulate_trace(model, 400)
    for short_horizon, first_long, expected in [
        (k_early - 1, False, late),   # only the long run diverges, late seed first
        (k_late - 1, True, late),     # the long run comes first
        (k_late - 1, False, early),   # the short run comes first; only early diverges in it
    ]:
        short = simulate_trace(model, short_horizon)
        traces = [long, short] if first_long else [short, long]
        for chunk in (16, 1024):
            with mock.patch.object(optimizers, "_CHUNK", chunk), \
                    pytest.raises(DivergedError) as exc:
                run_async(problem, traces, [schedule, schedule], x0, seeds=[late, early],
                          divergence_norm=limit)
            assert (exc.value.iteration, exc.value.norm) == outcomes[expected]
