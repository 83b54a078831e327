import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
from asyncsgd import optimizers
from asyncsgd.problems import (RHO_CURV_MAX, RHO_GRAD_MAX, Problem, _rho, _rho_prime,
                               point_metrics)


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
# the scalar replay's step oracle


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.sampled_from([1, 3, optimizers._FLOAT_DIM]),
       st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.0, max_value=1e160),
       st.integers(min_value=0, max_value=2**16))
def test_step_oracle_equals_a_numpy_step(kind, dim, scale, gamma, seed):
    m_count = 4
    problem = KINDS[kind](dim, m_count, seed)
    rng = np.random.default_rng(seed)
    # a row of a larger array, as the replay passes its table rows, and the
    # previous iterate as a list, both scaled by up to e^5 either way
    point = (rng.standard_normal(dim + 1) * math.exp(scale))[1:]
    prev = (rng.standard_normal(dim) * math.exp(scale)).tolist()
    samples = problem.draw(rng, 3)
    # the replay hands a row index over as an int, and a Gaussian row as a
    # list to an override of the step oracle; the nonconvex problem has none
    own = type(problem).step_oracle is not Problem.step_oracle
    assert own == (not kind.startswith("nonconvex"))
    step = problem.step_oracle()
    for j in range(3):
        sample = None if samples is None else samples[j]
        passed = sample if sample is None or (sample.ndim and not own) else sample.tolist()
        for worker in range(1, m_count + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = step(prev, point, passed, worker, gamma)
            expected = np.array(prev) - gamma * problem.sample_grad(point, sample, worker)
            assert type(values) is list and all(type(v) is float for v in values)
            assert np.array(values).tobytes() == expected.tobytes()


@pytest.mark.parametrize("hook", ["sample_grad", "_grad", "_row_grad"])
def test_a_subclass_that_changes_the_gradient_gets_the_default_step_oracle(hook):
    def doubled(self, *args):
        return 2.0 * getattr(LeastSquares, hook)(self, *args)

    Changed = type("Changed", (LeastSquares,), {hook: doubled})
    assert Changed.step_oracle is Problem.step_oracle
    assert Changed.sample_grads is Problem.sample_grads
    base = least_squares(dim=3, noise="rows" if hook == "_row_grad" else "additive", seed=2)
    problem = Changed(base.mat, base.rhs, noise=base.noise, sigma=0.5)
    x, prev = np.array([0.5, -1.0, 2.0]), [1.0, 0.25, -3.0]
    sample = problem.draw(np.random.default_rng(1), 1)[0]
    values = problem.step_oracle()(prev, x, sample, 1, 0.1)
    expected = np.array(prev) - 0.1 * problem.sample_grad(x, sample, 1)
    assert np.array(values).tobytes() == expected.tobytes()
    assert values != base.step_oracle()(prev, x, sample.tolist(), 1, 0.1)
    # a subclass that brings its own step oracle keeps it
    Kept = type("Kept", (Changed,), {"step_oracle": lambda self: None})
    assert Kept.step_oracle is not Problem.step_oracle
