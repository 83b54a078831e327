import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncsgd import (
    BoundedNonconvex,
    HeterogeneousQuadratics,
    LeastSquares,
    ProblemError,
    bounded_nonconvex,
    heterogeneous_quadratics,
    least_squares,
    least_squares_from_csv,
)
from asyncsgd.problems import (_FLOAT_BLOCK, _FLOAT_DIM, _SCALAR_BLOCK, RHO_CURV_MAX,
                               RHO_GRAD_MAX, Problem, _rho, _rho_prime, _step_form,
                               point_metrics, scalar_step)


# ---------------------------------------------------------------------------
# least squares


def test_scalar_instance_is_half_square():
    p = LeastSquares(np.array([[1.0]]), np.array([0.0]), sigma=0.0)
    assert p.value(np.array([3.0])) == 4.5
    assert p.grad(np.array([3.0])).tolist() == [3.0]
    assert p.smoothness == 1.0
    assert p.strong_convexity == 1.0
    assert p.xstar.tolist() == [0.0]
    assert p.fstar == 0.0


def test_diagonal_instance_constants():
    p = LeastSquares(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 2.0]), sigma=0.0)
    assert p.smoothness == pytest.approx(2.0, rel=1e-14)
    assert p.strong_convexity == pytest.approx(0.5, rel=1e-14)
    np.testing.assert_allclose(p.xstar, [1.0, 1.0], atol=1e-12)
    assert p.fstar == pytest.approx(0.0, abs=1e-24)
    assert p.value(np.zeros(2)) == pytest.approx(1.25, rel=1e-14)


def test_constants_for_bundles_run_shape():
    p = LeastSquares(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 2.0]), sigma=0.3)
    c = p.constants_for(np.zeros(2), num_workers=4, horizon=77)
    assert c.init_distance == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert c.init_gap == pytest.approx(1.25, rel=1e-14)
    assert c.sigma == 0.3
    assert (c.num_workers, c.horizon) == (4, 77)
    at_min = p.constants_for(p.xstar, 1, 1)
    assert at_min.init_gap == 0.0   # clamped, never negative


def test_gradient_matches_central_differences():
    p = least_squares(dim=4, num_samples=20, sigma=0.0, seed=8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    g = p.grad(x)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        num = (p.value(x + e) - p.value(x - e)) / (2 * h)
        assert num == pytest.approx(g[i], rel=1e-6, abs=1e-9)


def test_additive_noise_second_moment():
    # E||g - grad||^2 must equal sigma^2 regardless of dimension
    p = least_squares(dim=5, num_samples=30, sigma=0.7, seed=1)
    rng = np.random.default_rng(11)
    x = np.ones(5)
    g0 = p.grad(x)
    sq = [float(np.sum((p.stoch_grad(x, rng) - g0) ** 2)) for _ in range(200_000)]
    assert np.mean(sq) == pytest.approx(0.49, rel=0.01)


def test_sigma_zero_returns_mean_without_touching_rng():
    p = least_squares(dim=3, num_samples=9, sigma=0.0, seed=2)
    rng = np.random.default_rng(5)
    x = np.ones(3)
    np.testing.assert_array_equal(p.stoch_grad(x, rng), p.grad(x))
    p.stoch_grad(x, rng)
    # the generator state never advanced
    assert rng.standard_normal() == np.random.default_rng(5).standard_normal()


def test_row_sampling_is_unbiased_by_enumeration():
    p = least_squares(dim=3, num_samples=7, noise="rows", seed=4)
    x = np.array([0.3, -1.0, 2.0])
    row_grads = p.mat * (p.mat @ x - p.rhs)[:, None]
    np.testing.assert_allclose(row_grads.mean(axis=0), p.grad(x), rtol=1e-12)


def test_row_noise_power_matches_empirical_second_moment():
    p = least_squares(dim=3, num_samples=7, noise="rows", seed=4)
    x = np.array([0.3, -1.0, 2.0])
    exact = p.row_noise_power(x)
    rng = np.random.default_rng(9)
    g0 = p.grad(x)
    sq = [float(np.sum((p.stoch_grad(x, rng) - g0) ** 2)) for _ in range(100_000)]
    assert np.mean(sq) == pytest.approx(exact, rel=0.03)


def test_row_mode_sigma_covers_noise_at_the_minimizer():
    p = least_squares(dim=3, num_samples=7, noise="rows", seed=4)
    assert p.sigma ** 2 >= p.row_noise_power(p.xstar) - 1e-12


def test_target_smoothness_rescale_is_exact():
    p = least_squares(dim=6, num_samples=30, seed=0, target_smoothness=3.7)
    assert p.smoothness == pytest.approx(3.7, rel=1e-12)


def test_csv_ingestion_matches_direct_construction(tmp_path):
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((8, 3))
    rhs = rng.standard_normal(8)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([mat, rhs]), delimiter=",")
    p = least_squares_from_csv(path, sigma=0.0)
    q = LeastSquares(mat, rhs, sigma=0.0)
    np.testing.assert_allclose(p.xstar, q.xstar, rtol=1e-10)
    assert p.value(np.zeros(3)) == pytest.approx(q.value(np.zeros(3)), rel=1e-10)


def test_least_squares_validation():
    with pytest.raises(ProblemError):
        LeastSquares(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ProblemError):
        LeastSquares(np.ones((3, 2)), np.ones(3), noise="poisson")
    with pytest.raises(ProblemError):
        LeastSquares(np.ones((3, 2)), np.ones(3), sigma=-1.0)
    with pytest.raises(ProblemError):
        least_squares(dim=0)
    with pytest.raises(ProblemError):
        least_squares(dim=2, target_smoothness=0.0)


# ---------------------------------------------------------------------------
# bounded nonconvex


def test_penalty_extrema_match_numeric_maximization():
    t = np.linspace(-12.0, 12.0, 2_000_001)
    slopes = np.abs(_rho_prime(t))
    assert slopes.max() == pytest.approx(RHO_GRAD_MAX, abs=1e-8)
    assert RHO_GRAD_MAX == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, rel=1e-15)
    # curvature via central differences of the slope
    h = t[1] - t[0]
    curv = np.abs(np.diff(_rho_prime(t)) / h)
    assert curv.max() == pytest.approx(RHO_CURV_MAX, abs=1e-6)
    assert np.all(_rho(t) >= 0.0) and np.all(_rho(t) < 1.0)


def test_bounded_nonconvex_constants_from_row_norms():
    mat = np.array([[3.0, 4.0], [0.0, 1.0]])
    p = BoundedNonconvex(mat, np.zeros(2))
    assert p.lipschitz == pytest.approx(5.0 * RHO_GRAD_MAX, rel=1e-15)
    assert p.smoothness == pytest.approx(25.0 * RHO_CURV_MAX, rel=1e-15)
    assert p.sigma == p.lipschitz    # row-sampling noise bound
    assert p.fstar is None and p.xstar is None


def test_bounded_nonconvex_gradient_bound_holds_everywhere():
    p = bounded_nonconvex(dim=3, num_samples=15, seed=7)
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = 5.0 * rng.standard_normal(3)
        assert np.linalg.norm(p.grad(x)) <= p.lipschitz + 1e-12
        g = p.stoch_grad(x, rng)
        assert np.linalg.norm(g) <= p.lipschitz + 1e-12


def test_bounded_nonconvex_smoothness_bound_holds_on_pairs():
    p = bounded_nonconvex(dim=3, num_samples=15, seed=7)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.standard_normal(3)
        y = x + 0.1 * rng.standard_normal(3)
        lhs = np.linalg.norm(p.grad(x) - p.grad(y))
        assert lhs <= p.smoothness * np.linalg.norm(x - y) + 1e-12


def test_bounded_nonconvex_value_and_gradient_agree():
    p = bounded_nonconvex(dim=3, num_samples=15, seed=7)
    x = np.array([0.2, -0.4, 1.0])
    g = p.grad(x)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        num = (p.value(x + e) - p.value(x - e)) / (2 * h)
        assert num == pytest.approx(g[i], rel=1e-5, abs=1e-9)


def test_bounded_nonconvex_init_gap_is_value_itself():
    p = bounded_nonconvex(dim=3, num_samples=15, seed=7)
    x0 = np.ones(3)
    c = p.constants_for(x0, 2, 50)
    assert c.init_gap == pytest.approx(p.value(x0), rel=1e-15)
    assert c.init_distance == 0.0    # no known minimizer


def test_point_metrics_reads_an_unknown_fstar_as_zero():
    x = np.ones(3)
    for p in (bounded_nonconvex(dim=3, num_samples=15, seed=7),    # fstar is None
              least_squares(dim=3, num_samples=15, sigma=0.5, seed=7)):
        g = p.grad(x)
        assert point_metrics(p, x) == (p.value(x) - (p.fstar or 0.0), float(g @ g))


def test_bounded_nonconvex_additive_needs_sigma():
    with pytest.raises(ProblemError):
        BoundedNonconvex(np.ones((4, 2)), np.zeros(4), noise="additive")
    # an explicit sigma is checked as the other problems check it, in both modes
    for noise in ("additive", "rows"):
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ProblemError, match="sigma must be finite"):
                bounded_nonconvex(dim=3, noise=noise, sigma=sigma)


# ---------------------------------------------------------------------------
# heterogeneous quadratics


def test_worker_shifts_have_exact_norm_and_zero_mean():
    for m_count in (2, 3, 8):
        p = heterogeneous_quadratics(dim=4, num_workers=m_count, zeta=0.7, seed=3)
        norms = np.linalg.norm(p.shifts, axis=1)
        np.testing.assert_allclose(norms, 0.7, rtol=1e-12)
        np.testing.assert_allclose(p.shifts.sum(axis=0), np.zeros(4), atol=1e-12)
        assert p.zeta == pytest.approx(0.7, rel=1e-12)


def test_worker_gradients_differ_by_their_shifts():
    p = heterogeneous_quadratics(dim=4, num_workers=5, zeta=0.7, seed=3)
    x = np.array([1.0, -2.0, 0.5, 0.0])
    base = p.grad(x)
    per_worker = np.array([p.sample_grad(x, None, m) for m in range(1, 6)])
    np.testing.assert_array_equal(per_worker, base + p.shifts)
    np.testing.assert_allclose(per_worker.mean(axis=0), base, atol=1e-12)


def test_stoch_grad_routes_through_worker_objectives():
    p = heterogeneous_quadratics(dim=4, num_workers=3, zeta=0.5, sigma=0.0, seed=3)
    x = np.ones(4)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(p.stoch_grad(x, rng, worker=2), p.sample_grad(x, None, 2))
    np.testing.assert_array_equal(p.stoch_grad(x, rng), p.grad(x))
    with pytest.raises(ProblemError):
        p.sample_grad(x, None, 4)


def test_unscaled_quadratic_has_no_sample_averaging():
    mat = np.eye(2)
    p = HeterogeneousQuadratics(mat, np.array([3.0, 4.0]), np.zeros((1, 2)))
    assert p.value(np.zeros(2)) == 12.5
    assert p.smoothness == 1.0
    np.testing.assert_allclose(p.xstar, [3.0, 4.0], atol=1e-12)


def test_dim_one_shift_layouts():
    p = heterogeneous_quadratics(dim=1, num_workers=4, zeta=0.3, seed=0)
    assert sorted(p.shifts.ravel().tolist()) == [-0.3, -0.3, 0.3, 0.3]
    with pytest.raises(ProblemError):
        heterogeneous_quadratics(dim=1, num_workers=3, zeta=0.3, seed=0)


def test_degenerate_heterogeneity():
    p = heterogeneous_quadratics(dim=3, num_workers=4, zeta=0.0, seed=0)
    assert np.all(p.shifts == 0.0)
    assert p.zeta == 0.0
    with pytest.raises(ProblemError):
        heterogeneous_quadratics(dim=3, num_workers=1, zeta=0.5, seed=0)
    with pytest.raises(ProblemError):
        heterogeneous_quadratics(dim=3, num_workers=2, zeta=-1.0, seed=0)


def test_heterogeneous_target_smoothness():
    p = heterogeneous_quadratics(dim=3, num_workers=2, zeta=0.1, seed=5,
                                 target_smoothness=2.0)
    assert p.smoothness == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda: least_squares(dim=3, num_samples=0),
    lambda: bounded_nonconvex(dim=3, num_samples=0),
    lambda: heterogeneous_quadratics(dim=3, num_workers=2, zeta=0.1, num_samples=0),
], ids=["least-squares", "bounded-nonconvex", "heterogeneous-quadratics"])
def test_every_gaussian_problem_needs_a_sample(build):
    # one data builder checks the sample count for all three problems; an
    # empty design used to raise numpy's ValueError or build a zero-row problem
    with pytest.raises(ProblemError, match="num_samples must be >= 1, got 0"):
        build()


# ---------------------------------------------------------------------------
# batched gradients


# every built-in problem kind, each with its own sigma: 0 for the exact ones
KINDS = {
    "additive": lambda d, m, seed: least_squares(dim=d, sigma=0.6, seed=seed),
    "exact": lambda d, m, seed: least_squares(dim=d, sigma=0.0, seed=seed),
    "rows": lambda d, m, seed: least_squares(dim=d, noise="rows", seed=seed),
    "heterogeneous": lambda d, m, seed: heterogeneous_quadratics(d, m, 0.4, sigma=0.3,
                                                                 seed=seed),
    "heterogeneous-exact": lambda d, m, seed: heterogeneous_quadratics(d, m, 0.4, seed=seed),
    "nonconvex-rows": lambda d, m, seed: bounded_nonconvex(dim=d, seed=seed),
    "nonconvex-additive": lambda d, m, seed: bounded_nonconvex(dim=d, noise="additive",
                                                               sigma=0.5, seed=seed),
    "nonconvex-exact": lambda d, m, seed: bounded_nonconvex(dim=d, noise="additive",
                                                            sigma=0.0, seed=seed),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.sampled_from([1, 3, 50]),
       st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**16))
def test_batched_sample_grads_equal_per_row_sample_grad(kind, dim, rows, seed):
    m_count = 4
    problem = KINDS[kind](dim, m_count, seed)
    rng = np.random.default_rng(seed)
    # rows of a larger array, so they start at arbitrary offsets, as in the engine
    xs = (rng.standard_normal((rows + 1, dim)) * 3.0).reshape(-1)[1:1 + rows * dim]
    xs = xs.reshape(rows, dim)
    samples = problem.draw(rng, rows)
    workers = rng.integers(1, m_count + 1, size=rows)
    batched = problem.sample_grads(xs, samples, workers)
    looped = np.array([problem.sample_grad(x, None if samples is None else s, int(m))
                       for x, s, m in zip(xs, [None] * rows if samples is None else samples,
                                          workers)])
    assert batched.dtype == looped.dtype and batched.tobytes() == looped.tobytes()


def test_default_sample_grads_stacks_sample_grad():
    class Scaled(Problem):
        dim = 2
        smoothness = 2.0

        def __init__(self):
            self.seen = []

        def draw(self, rng, count):
            return rng.uniform(0.5, 1.5, size=count)

        def sample_grad(self, x, sample, worker=None):
            self.seen.append((type(sample), worker))
            return sample * worker * x

    problem = Scaled()
    xs = np.arange(6.0).reshape(3, 2)
    samples = np.array([0.5, 1.0, 1.5])
    workers = np.array([2, 1, 3])
    out = problem.sample_grads(xs, samples, workers)
    np.testing.assert_array_equal(out, [[0.0, 1.0], [2.0, 3.0], [18.0, 22.5]])
    # one call per row, with the scalar sample and worker id a row-by-row loop passes
    assert problem.seen == [(float, 2), (float, 1), (float, 3)]


# ---------------------------------------------------------------------------
# the scalar replay's run oracle


# every dimension a run asks a form for, two past them and a wide one: each
# dimension has its own generated code, and past _FLOAT_DIM a run takes the
# numpy form
STEP_DIMS = [*range(1, _FLOAT_DIM + 3), 50]


def _run_samples(samples, listed: bool):
    """A block's samples as the replay hands them to a run: the items of a
    1-D block as ints, and the rows of a 2-D block as tuples to a problem's
    own oracle or as numpy rows to the default and numpy forms."""
    if samples.ndim == 1:
        return samples.tolist()
    return [tuple(row) for row in samples.tolist()] if listed else list(samples)


def _squares(row) -> float:
    """p0 * p0 + p1 * p1 + ... in Python floats, left to right, as the float
    forms screen an iterate: a square past the float range is inf."""
    total = 0.0
    for p in row.tolist():
        total += p * p
    return total


def _replay_run(run, table, m_count, points, samples, workers, gammas, limit, floats):
    """Replay one scalar run into table[m_count:] as the replay does,
    resuming after each iterate that fails the screen; checks that each
    returned k is the first row past the resumed one whose screen fails, and
    returns how many times the run stopped."""
    buf, first, stops = table[m_count:], 0, 0

    def passes(row):
        return (_squares(row) if floats else np.vdot(row, row)) <= 0.5 * limit * limit

    while True:
        rest = slice(first, len(workers))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = run(buf, first, table, points[rest], [None] * (len(workers) - first)
                    if samples is None else samples[rest], workers[rest], gammas[rest], limit)
        done = k or len(workers)
        assert all(passes(buf[i]) for i in range(first + 1, done))
        if not k:
            return stops
        assert first < k <= len(workers) and not passes(buf[k])
        first, stops = k, stops + 1


# the largest divergence limit whose square is finite
LARGEST_LIMIT = math.sqrt(sys.float_info.max)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=1e160), st.integers(min_value=0, max_value=2**16),
       st.sampled_from([1e12, LARGEST_LIMIT]), st.none() | st.floats(min_value=1.0,
                                                                      max_value=1.41))
# ratio r sets the limit to r ||x_1||, which puts x_1's norm between
# limit * sqrt(0.5) and limit: the screen (within limit^2 / 2) fails there,
# a screen within limit^2 would not
@example("additive", 0.0, 0.5, 3, 1e12, 1.2)
@example("exact", 2.0, 0.1, 4, 1e12, 1.4)
@example("rows", -1.0, 0.5, 5, 1e12, 1.2)
@example("heterogeneous", 0.0, 0.5, 6, 1e12, 1.2)
@example("nonconvex-additive", 1.0, 0.5, 7, 1e12, 1.3)
@example("additive", 1.0, 1e152, 8, 1e12, 1.2)   # a limit near 1e153
# at the largest limit, a step of 1e156 squares a coordinate past the float
# range: the float screen reads inf, without a warning, and fails
@example("additive", 0.0, 1e156, 3, LARGEST_LIMIT, None)
@example("heterogeneous-exact", 0.0, 1e156, 4, LARGEST_LIMIT, None)
def test_step_oracle_equals_a_numpy_step(kind, scale, gamma, seed, limit, ratio):
    m_count, arrivals = 4, 12
    for dim in STEP_DIMS:
        problem = KINDS[kind](dim, m_count, seed)
        rng = np.random.default_rng(seed)
        # the table of the replay: M dispatch points and x_first scaled by up
        # to e^5 either way, then the rows the run writes; every gradient is
        # taken at one of the first M + 1 rows, and the last step is at
        # float max, the others at gamma
        start = rng.standard_normal((m_count + 1 + arrivals, dim)) * math.exp(scale)
        points = rng.integers(0, m_count + 1, arrivals).tolist()
        workers = [1 + j % m_count for j in range(arrivals)]
        gammas = [gamma] * (arrivals - 1) + [sys.float_info.max]
        samples = problem.draw(rng, arrivals)
        plain = [None] * arrivals if samples is None else list(
            samples.tolist() if samples.ndim == 1 else samples)
        expected, x = [], start[m_count].copy()
        for point, sample, worker, rate in zip(points, plain, workers, gammas):
            g = problem.sample_grad(start[point], sample, worker)
            with np.errstate(over="ignore", invalid="ignore"):
                x = x - rate * g
            expected.append(x)
        if ratio is not None:
            limit = ratio * math.hypot(*expected[0].tolist())
        expected = np.array(expected).tobytes()
        own = type(problem).step_oracle is not Problem.step_oracle
        assert own == (not kind.startswith("nonconvex"))
        # two problems of one kind and dimension share one compiled form, and
        # past _FLOAT_DIM scalar_step compiles the numpy form once
        _step_form.cache_clear()
        run = problem.step_oracle()
        KINDS[kind](dim, m_count, seed + 1).step_oracle()
        numpy_run, longest, listed = scalar_step(problem)
        scalar_step(problem)
        assert _step_form.cache_info().misses == (2 if dim > _FLOAT_DIM else 1)
        assert listed == (own and dim <= _FLOAT_DIM)
        assert longest == (_FLOAT_BLOCK if listed else _SCALAR_BLOCK)
        # a subclass that overrides sample_grad gets the default form, which
        # calls the subclass's sample_grad once per arrival
        calls = []

        def counted(self, x, sample, worker=None):
            calls.append(worker)
            return type(problem).sample_grad(self, x, sample, worker)

        Counted = type("Counted", (type(problem),), {"sample_grad": counted})
        assert Counted.step_oracle is Problem.step_oracle
        clone = object.__new__(Counted)
        vars(clone).update(vars(problem))
        # every float form at every d (the oracle, own or default), and the
        # numpy form past _FLOAT_DIM
        forms = [(run, own, True), (clone.step_oracle(), False, True)]
        if dim > _FLOAT_DIM:
            forms.append((numpy_run, False, False))
        for form, takes_tuples, floats in forms:
            table = start.copy()
            stops = _replay_run(form, table, m_count, points, None if samples is None else
                                _run_samples(samples, takes_tuples), workers, gammas, limit,
                                floats)
            assert table[m_count + 1:].tobytes() == expected
            # the step at float max leaves the screen, unless its gradient is 0
            assert stops >= (_squares(table[-1]) > limit * limit)
            if kind.startswith("heterogeneous"):
                for worker in (0, m_count + 1):
                    with pytest.raises(ProblemError, match=f"unknown worker id {worker} "):
                        form(table[m_count:], 0, table, [0], [None] if samples is None else
                             _run_samples(samples, takes_tuples)[:1], [worker], [gamma], limit)
        assert calls == workers + ([0, m_count + 1] if kind.startswith("heterogeneous") else [])


@pytest.mark.parametrize("hook", ["sample_grad", "_grad", "_row_grad"])
def test_a_subclass_that_changes_the_gradient_gets_the_default_step_oracle(hook):
    def doubled(self, *args):
        return 2.0 * getattr(LeastSquares, hook)(self, *args)

    Changed = type("Changed", (LeastSquares,), {hook: doubled})
    assert Changed.step_oracle is Problem.step_oracle
    assert Changed.sample_grads is Problem.sample_grads
    base = least_squares(dim=3, noise="rows" if hook == "_row_grad" else "additive", seed=2)
    problem = Changed(base.mat, base.rhs, noise=base.noise, sigma=0.5)
    table = np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -3.0], [0.0, 0.0, 0.0]])
    sample = problem.draw(np.random.default_rng(1), 1)[0]
    assert problem.step_oracle()(table[1:], 0, table, [0], [sample], [1], [0.1], 1e12) == 0
    expected = table[1] - 0.1 * problem.sample_grad(table[0], sample, 1)
    assert table[2].tobytes() == expected.tobytes()
    listed = sample.tolist() if sample.ndim else sample.item()
    base.step_oracle()(table[1:], 0, table, [0], [tuple(listed) if sample.ndim else listed],
                       [1], [0.1], 1e12)
    assert table[2].tobytes() != expected.tobytes()
    # a subclass that brings its own step oracle keeps it
    Kept = type("Kept", (Changed,), {"step_oracle": lambda self: None})
    assert Kept.step_oracle is not Problem.step_oracle
