"""Synthetic objectives with analytically known constants.

Every problem exposes deterministic value/gradient oracles, a stochastic
gradient oracle driven by a caller-supplied generator, and the constants
(smoothness, strong convexity, gradient bound, noise level) that the
stepsize rules consume. Constants are computed from the data, not assumed.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .scheduler import _fits
from .schedules import ProblemConstants


class ProblemError(ValueError):
    """Invalid problem configuration."""


# bounded nonconvex penalty rho(t) = t^2 / (1 + t^2):
#   rho'(t) = 2t / (1+t^2)^2, |rho'| peaks at t = 1/sqrt(3) with value 3*sqrt(3)/8
#   rho''(t) = 2(1 - 3t^2) / (1+t^2)^3, |rho''| peaks at t = 0 with value 2
RHO_GRAD_MAX = 3.0 * math.sqrt(3.0) / 8.0
RHO_CURV_MAX = 2.0


def _rho(t):
    t2 = t * t
    return t2 / (1.0 + t2)


def _rho_prime(t):
    return 2.0 * t / (1.0 + t * t) ** 2


class Problem:
    """Shared oracle interface. Subclasses fill in the constants.

    A stochastic gradient is split in two: `draw` takes the randomness of
    the next gradients from a worker's generator as one block, and
    `sample_grad` evaluates one gradient given its drawn sample. Drawing a
    block equals drawing one sample at a time from the same generator, so a
    trace replay can draw every worker's noise before its loop and still
    match per-step `stoch_grad` calls bit for bit.

    The default split covers the two noise modes used here. With noise
    "rows", a sample is a row index and `_row_grad(i, x)` the gradient of
    that row's loss. With noise "additive", a sample is a Gaussian vector
    with E||sample||^2 = sigma^2 added to the mean gradient `_grad(x, worker)`;
    at sigma == 0 nothing is drawn and the sample is None.
    """

    dim: int
    smoothness: float
    strong_convexity: float = 0.0
    lipschitz: float = 0.0   # 0 means no global gradient-norm bound
    sigma: float = 0.0
    fstar: float | None = None
    xstar: np.ndarray | None = None
    zeta: float = 0.0        # worker-gradient dissimilarity, 0 if homogeneous
    noise: str = "additive"

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._grad(x)

    def _grad(self, x: np.ndarray, worker: int | None = None) -> np.ndarray:
        """Mean gradient of the objective, or of worker's own objective."""
        raise NotImplementedError

    def _row_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray | None:
        """The next `count` gradient samples of a worker's generator, stacked
        along axis 0, or None if gradients are exact."""
        if self.noise == "rows":
            return rng.integers(self.num_samples, size=count)
        if self.sigma == 0.0:
            return None
        # per-coordinate std sigma/sqrt(dim) makes E||noise||^2 = sigma^2 exactly
        return rng.standard_normal((count, self.dim)) * (self.sigma / math.sqrt(self.dim))

    def sample_grad(self, x: np.ndarray, sample, worker: int | None = None) -> np.ndarray:
        """Stochastic gradient at x given one sample from `draw`."""
        if self.noise == "rows":
            return self._row_grad(sample, x)
        mean = self._grad(x, worker)
        return mean if sample is None else mean + sample

    def sample_grads(self, xs: np.ndarray, samples, workers: np.ndarray) -> np.ndarray:
        """Stochastic gradients at the rows of xs, row j given samples[j] (a
        block from `draw`, or None if gradients are exact) and workers[j]:
        `sample_grad` row by row, stacked. The built-in problems override it
        with a batched form equal to this loop bit for bit; a subclass that
        changes how one gradient is evaluated gets this loop back."""
        if samples is None:
            samples = [None] * len(xs)
        elif samples.ndim == 1:
            samples = samples.tolist()
        return np.array([self.sample_grad(x, sample, m)
                         for x, sample, m in zip(xs, samples, workers.tolist())])

    def step_oracle(self):
        """The scalar replay's step: a function step(prev, point, sample,
        worker, gamma) that returns the next iterate [p - g_i * gamma ...] as
        a list of Python floats, prev being the previous iterate as a list and
        g the stochastic gradient `sample_grad(point, sample, worker)`. It
        must equal (prev - gamma * sample_grad(point, sample, worker)).tolist()
        bit for bit. A run asks for it once and calls it once per arrival.

        This default builds on `sample_grad(...).tolist()` and takes the
        sample as `sample_grad` does. An override takes a row of a
        two-dimensional sample block as its `tolist()`, which the replay makes
        once per chunk. Least squares and the heterogeneous quadratics
        override it with a closure that makes the same numpy matrix-vector
        call as `sample_grad`, then forms the gradient and the step in one
        Python float expression per coordinate, in numpy's order, so it never
        warns past that call. A subclass that changes how one gradient is
        evaluated gets this default back."""
        sample_grad = self.sample_grad

        def step(prev, point, sample, worker, gamma):
            g = sample_grad(point, sample, worker).tolist()
            return [p - v * gamma for p, v in zip(prev, g)]
        return step

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the batched and step forms are written for one way of evaluating a
        # gradient: a subclass that changes that way without bringing its own
        # form gets the default, which calls sample_grad, back
        own = vars(cls)
        if {"sample_grad", "_grad", "_row_grad"} & set(own):
            for form in ("sample_grads", "step_oracle"):
                if form not in own:
                    setattr(cls, form, getattr(Problem, form))

    def stoch_grad(self, x: np.ndarray, rng: np.random.Generator,
                   worker: int | None = None) -> np.ndarray:
        block = self.draw(rng, 1)
        return self.sample_grad(x, None if block is None else block[0], worker)

    def constants_for(self, x0: np.ndarray, num_workers: int, horizon: int) -> ProblemConstants:
        """Bundle the problem constants with run shape and x0-dependent terms."""
        x0 = np.asarray(x0, dtype=np.float64)
        # a huge x0 overflows these to inf or nan, which ProblemConstants rejects
        with np.errstate(over="ignore", invalid="ignore"):
            dist = float(np.linalg.norm(x0 - self.xstar)) if self.xstar is not None else 0.0
            gap = max(_gap(self, x0), 0.0)
        return ProblemConstants(
            smoothness=self.smoothness,
            strong_convexity=self.strong_convexity,
            lipschitz=self.lipschitz,
            sigma=self.sigma,
            init_distance=dist,
            init_gap=gap,
            num_workers=num_workers,
            horizon=horizon,
        )


def _gap(problem, x: np.ndarray) -> float:
    """The objective gap F(x) - F*, reading an unknown F* as 0."""
    return problem.value(x) - (problem.fstar if problem.fstar is not None else 0.0)


def point_metrics(problem, x: np.ndarray) -> tuple[float, float]:
    """The objective gap and the squared gradient norm ||grad F(x)||^2 at x:
    the one place either metric is computed."""
    fgap = _gap(problem, x)
    g = problem.grad(x)
    return fgap, float(g.dot(g))


def _data(mat, rhs) -> tuple[np.ndarray, np.ndarray]:
    mat = np.asarray(mat, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if mat.ndim != 2 or rhs.ndim != 1 or mat.shape[0] != rhs.shape[0]:
        raise ProblemError(f"bad data shapes {mat.shape} / {rhs.shape}")
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise ProblemError("data must be finite; found a nan or inf entry")
    return mat, rhs


def _check_sigma(sigma: float) -> float:
    if sigma < 0 or not math.isfinite(sigma):
        raise ProblemError(f"sigma must be finite and >= 0, got {sigma}")
    return float(sigma)


def _gaussian_data(seed: int, num_samples: int, dim: int,
                   target_smoothness: float | None = None, scale: int = 1):
    """default_rng(seed) after drawing from it a standard normal
    (num_samples, dim) design and then a standard normal target. The design
    is rescaled, if `target_smoothness` is given, so that the largest
    eigenvalue of mat.T @ mat / scale lands on it."""
    if dim < 1:
        raise ProblemError(f"dim must be >= 1, got {dim}")
    if num_samples < 1:
        raise ProblemError(f"num_samples must be >= 1, got {num_samples}")
    if not _fits(num_samples * dim):
        raise ProblemError(f"{num_samples} x {dim} data are more than one array can hold")
    rng = np.random.default_rng(seed)
    mat, rhs = rng.standard_normal((num_samples, dim)), rng.standard_normal(num_samples)
    if target_smoothness is not None:
        if target_smoothness <= 0:
            raise ProblemError("target_smoothness must be positive")
        # dividing by a scale of 1 is exact, so the quadratics' mat.T @ mat is unchanged
        current = np.linalg.eigvalsh(mat.T @ mat / scale)[-1]
        mat = mat * math.sqrt(target_smoothness / current)
    return rng, mat, rhs


def offset_start(problem: Problem, distance: float = 1.0, seed: int = 0) -> np.ndarray:
    """The start point x* + distance * u / ||u||, at exactly `distance` from
    the minimizer in the direction of a standard normal u drawn from
    default_rng([seed, 11])."""
    if problem.xstar is None:
        raise ProblemError("an offset start needs a problem with a known minimizer")
    step = np.random.default_rng([seed, 11]).standard_normal(problem.dim)
    return problem.xstar + distance * step / np.linalg.norm(step)


class _Quadratic(Problem):
    """F(x) = ||Ax - b||^2 / (2 scale), with constants read off the data."""

    def _fit(self, mat: np.ndarray, rhs: np.ndarray, scale: float) -> None:
        self.mat = mat
        self.rhs = rhs
        self.scale = scale
        self.num_samples, self.dim = mat.shape
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            self._gram = mat.T @ mat / scale
            self._cross = mat.T @ rhs / scale
        if not (np.isfinite(self._gram).all() and np.isfinite(self._cross).all()):
            raise ProblemError("the data overflows: A^T A or A^T b is not finite")
        eigs = np.linalg.eigvalsh(self._gram)
        self.smoothness = float(eigs[-1])
        self.strong_convexity = float(max(eigs[0], 0.0))  # singular data only zeroes mu
        self.xstar = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        self.fstar = self.value(self.xstar)

    def value(self, x):
        r = self.mat @ x - self.rhs
        return 0.5 * float(r @ r) / self.scale

    def _grad(self, x, worker=None):
        return self._gram.dot(x) - self._cross

    @functools.cached_property
    def _cross_values(self) -> list[float]:
        return self._cross.tolist()

    def _mean_grads(self, xs: np.ndarray) -> np.ndarray:
        """_grad at the rows of xs. A stacked matvec equals gram.dot(x) row
        for row; xs @ gram.T (a matrix product) does not."""
        return np.matmul(self._gram, xs[:, :, None])[:, :, 0] - self._cross


def _row_dots(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """rows[j] @ xs[j] for every j, each equal to the single dot product."""
    return np.matmul(rows[:, None, :], xs[:, :, None])[:, 0, 0]


class LeastSquares(_Quadratic):
    """F(x) = ||Ax - b||^2 / (2n) with additive or row-sampling noise.

    Additive mode returns grad F(x) plus isotropic Gaussian noise with
    E||noise||^2 = sigma^2 exactly. Row-sampling mode returns the gradient
    of one uniformly chosen squared residual; its noise level depends on x,
    so the stored sigma is the exact second moment maximized over a small
    probe grid around the minimizer (an estimate, not a global bound).
    """

    def __init__(self, mat: np.ndarray, rhs: np.ndarray, noise: str = "additive",
                 sigma: float = 1.0, probe_seed: int = 0):
        mat, rhs = _data(mat, rhs)
        if mat.shape[0] < 1:
            raise ProblemError("need at least one sample row")
        if noise not in ("additive", "rows"):
            raise ProblemError(f"unknown noise mode {noise!r}")
        sigma = _check_sigma(sigma)
        self.noise = noise
        self._fit(mat, rhs, mat.shape[0])
        if noise == "additive":
            self.sigma = sigma
        else:
            self.sigma = math.sqrt(self._probe_row_noise(probe_seed))

    def _row_grad(self, i, x):
        row = self.mat[i]
        return row * (float(row @ x) - self.rhs[i])

    def sample_grads(self, xs, samples, workers):
        if self.noise == "rows":
            rows = self.mat[samples]
            return rows * (_row_dots(rows, xs) - self.rhs[samples])[:, None]
        grads = self._mean_grads(xs)
        return grads if samples is None else grads + samples

    def step_oracle(self):
        if self.noise == "rows":
            mat, rhs = self.mat, self.rhs

            def step(prev, point, sample, worker, gamma):
                row = mat[sample]
                # a Python float t, as a numpy scalar could warn
                t = float(row @ point) - rhs.item(sample)
                return [p - (r * t) * gamma for p, r in zip(prev, row.tolist())]
            return step
        # _grad's matvec, then its elementwise rest and the step in Python floats
        matvec, cross = self._gram.dot, self._cross_values

        def step(prev, point, sample, worker, gamma):
            v = matvec(point).tolist()
            if sample is None:
                return [p - (a - c) * gamma for p, a, c in zip(prev, v, cross)]
            return [p - ((a - c) + e) * gamma for p, a, c, e in zip(prev, v, cross, sample)]
        return step

    def row_noise_power(self, x) -> float:
        """Exact E||g - grad F(x)||^2 under row sampling, by summing all rows."""
        r = self.mat @ x - self.rhs
        row_grads = self.mat * r[:, None]
        diffs = row_grads - self.grad(x)
        return float(np.mean(np.sum(diffs * diffs, axis=1)))

    def _probe_row_noise(self, probe_seed: int) -> float:
        rng = np.random.default_rng([probe_seed, 7])
        probes = [self.xstar]
        for _ in range(8):
            step = rng.standard_normal(self.dim)
            probes.append(self.xstar + step / max(np.linalg.norm(step), 1e-12))
        return max(self.row_noise_power(p) for p in probes)


def least_squares(dim: int, num_samples: int | None = None, noise: str = "additive",
                  sigma: float = 1.0, seed: int = 0,
                  target_smoothness: float | None = None) -> LeastSquares:
    """Random Gaussian least-squares instance, optionally rescaled so the
    smoothness constant lands exactly on target_smoothness."""
    if num_samples is None:
        num_samples = 10 * dim
    _, mat, rhs = _gaussian_data(seed, num_samples, dim, target_smoothness, num_samples)
    return LeastSquares(mat, rhs, noise=noise, sigma=sigma, probe_seed=seed)


def least_squares_from_csv(path, noise: str = "additive", sigma: float = 1.0) -> LeastSquares:
    """Dense CSV ingestion: one sample per row, last column is the target."""
    with warnings.catch_warnings():   # an empty file is reported below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")   # BOM or not
    if not len(data):
        raise ProblemError("the data csv has no rows")
    if data.shape[1] < 2:
        raise ProblemError("need at least one feature column plus a target column")
    return LeastSquares(data[:, :-1], data[:, -1], noise=noise, sigma=sigma)


class BoundedNonconvex(Problem):
    """F(x) = mean_i rho(a_i.x - b_i) with rho(t) = t^2/(1+t^2).

    rho has bounded slope and curvature, so the full objective has a global
    gradient-norm bound G <= max_i ||a_i|| * sup|rho'| and smoothness
    L <= max_i ||a_i||^2 * sup|rho''|. Row-sampling noise then satisfies
    E||g - grad F||^2 <= G^2, which is the sigma recorded here.
    """

    def __init__(self, mat: np.ndarray, rhs: np.ndarray, noise: str = "rows",
                 sigma: float | None = None):
        mat, rhs = _data(mat, rhs)
        if noise not in ("additive", "rows"):
            raise ProblemError(f"unknown noise mode {noise!r}")
        self.mat = mat
        self.rhs = rhs
        self.noise = noise
        self.num_samples, self.dim = mat.shape
        row_norms = np.linalg.norm(mat, axis=1)
        self.lipschitz = float(np.max(row_norms)) * RHO_GRAD_MAX
        self.smoothness = float(np.max(row_norms) ** 2) * RHO_CURV_MAX
        if noise == "rows":
            self.sigma = self.lipschitz if sigma is None else _check_sigma(sigma)
        else:
            if sigma is None:
                raise ProblemError("additive mode needs an explicit sigma")
            self.sigma = _check_sigma(sigma)
        self.fstar = None   # infimum unknown; F >= 0 everywhere
        self.xstar = None

    def value(self, x):
        return float(np.mean(_rho(self.mat @ x - self.rhs)))

    def _grad(self, x, worker=None):
        return self.mat.T @ _rho_prime(self.mat @ x - self.rhs) / self.num_samples

    def _row_grad(self, i, x):
        row = self.mat[i]
        return row * _rho_prime(float(row @ x) - self.rhs[i])

    def sample_grads(self, xs, samples, workers):
        if self.noise != "rows":
            return super().sample_grads(xs, samples, workers)
        rows = self.mat[samples]
        t = _row_dots(rows, xs) - self.rhs[samples]
        # _rho_prime with C pow elementwise, as ** is on the scalar t of
        # _row_grad; ** on an array squares, which can differ in the last bit
        return rows * (2.0 * t / np.float_power(1.0 + t * t, 2.0))[:, None]


def bounded_nonconvex(dim: int, num_samples: int | None = None, noise: str = "rows",
                      sigma: float | None = None, seed: int = 0) -> BoundedNonconvex:
    if num_samples is None:
        num_samples = 10 * dim
    _, mat, rhs = _gaussian_data(seed, num_samples, dim)
    return BoundedNonconvex(mat, rhs, noise=noise, sigma=sigma)


class HeterogeneousQuadratics(_Quadratic):
    """Per-worker objectives F_m(x) = 0.5 ||Ax - b||^2 + c_m.x sharing one
    quadratic, with sum_m c_m = 0 so the mean objective is the plain
    quadratic, and ||c_m|| = zeta exactly for every worker.
    """

    def __init__(self, mat: np.ndarray, rhs: np.ndarray, shifts: np.ndarray,
                 sigma: float = 0.0):
        mat, rhs = _data(mat, rhs)
        shifts = np.asarray(shifts, dtype=np.float64)
        if shifts.ndim != 2 or shifts.shape[1] != mat.shape[1]:
            raise ProblemError("worker shifts must be (num_workers, dim)")
        self.sigma = _check_sigma(sigma)
        self.shifts = shifts
        self.num_workers = shifts.shape[0]
        self._fit(mat, rhs, 1.0)
        norms = np.linalg.norm(shifts, axis=1)
        self.zeta = float(norms[0]) if norms.size else 0.0

    def _check_worker(self, worker: int) -> None:
        if not 1 <= worker <= self.num_workers:
            raise ProblemError(f"unknown worker id {worker} (have 1..{self.num_workers})")

    def _grad(self, x, worker=None):
        mean = super()._grad(x)
        if worker is None:
            return mean
        self._check_worker(worker)
        return mean + self.shifts[worker - 1]

    def sample_grads(self, xs, samples, workers):
        grads = self._mean_grads(xs) + self.shifts[workers - 1]
        return grads if samples is None else grads + samples

    def step_oracle(self):
        mean_step = super().step_oracle()
        matvec, cross, shifts = self._gram.dot, self._cross_values, self.shifts.tolist()

        def step(prev, point, sample, worker, gamma):
            if worker is None:   # the mean objective's gradient; no replay asks for it
                return mean_step(prev, point, sample, worker, gamma)
            self._check_worker(worker)
            v, shift = matvec(point).tolist(), shifts[worker - 1]
            if sample is None:
                return [p - ((a - c) + s) * gamma for p, a, c, s in zip(prev, v, cross, shift)]
            return [p - (((a - c) + s) + e) * gamma
                    for p, a, c, s, e in zip(prev, v, cross, shift, sample)]
        return step


def _unit_circle_shifts(dim: int, num_workers: int, zeta: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Mean-zero shift vectors of exact norm zeta: equally spaced directions
    on a circle inside a random 2d subspace."""
    if zeta == 0.0:
        return np.zeros((num_workers, dim))
    if num_workers == 1:
        raise ProblemError("a single worker cannot have nonzero dissimilarity")
    if dim == 1:
        if num_workers % 2:
            raise ProblemError("dim=1 supports nonzero zeta only for even worker counts")
        signs = np.array([1.0 if m % 2 == 0 else -1.0 for m in range(num_workers)])
        return (zeta * signs)[:, None]
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    angles = 2.0 * np.pi * np.arange(num_workers) / num_workers
    return zeta * (np.outer(np.cos(angles), basis[:, 0])
                   + np.outer(np.sin(angles), basis[:, 1]))


def heterogeneous_quadratics(dim: int, num_workers: int, zeta: float,
                             num_samples: int | None = None, sigma: float = 0.0,
                             seed: int = 0,
                             target_smoothness: float | None = None) -> HeterogeneousQuadratics:
    if num_workers < 1:
        raise ProblemError(f"num_workers must be >= 1, got {num_workers}")
    if zeta < 0 or not math.isfinite(zeta):
        raise ProblemError(f"zeta must be finite and >= 0, got {zeta}")
    if not _fits(num_workers * dim):
        raise ProblemError(f"{num_workers} x {dim} worker shifts are more than one array can hold")
    if num_samples is None:
        num_samples = 2 * dim
    rng, mat, rhs = _gaussian_data(seed, num_samples, dim, target_smoothness)
    shifts = _unit_circle_shifts(dim, num_workers, zeta, rng)
    return HeterogeneousQuadratics(mat, rhs, shifts, sigma=sigma)
