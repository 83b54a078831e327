"""Synthetic objectives with analytically known constants.

Every problem exposes deterministic value/gradient oracles, a stochastic
gradient oracle driven by a caller-supplied generator, and the constants
(smoothness, strong convexity, gradient bound, noise level) that the
stepsize rules consume. Constants are computed from the data, not assumed.
"""

from __future__ import annotations

import functools
import math
import sys
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
        normals = rng.standard_normal((count, self.dim))
        return np.multiply(normals, self.sigma / math.sqrt(self.dim), out=normals)

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
        """The scalar replay's run up to _FLOAT_DIM dimensions (see
        `scalar_step`): a function run(buf, first, table, points, samples,
        workers, gammas, limit) that replays a run of arrivals from the
        iterate buf[first]. `table` is the replay's table of dispatch points
        or a list of its rows' views. Arrival j takes the gradient
        `sample_grad(table[points[j]], samples[j], workers[j])` and writes
        x_k = x_{k-1} - gammas[j] * g into buf[k], k = first + 1 + j, equal
        to that numpy expression bit for bit; it keeps the iterate as Python
        floats between arrivals, so nothing it does warns past the gradient.
        Each x_k is screened (its sum of squares in Python floats within
        limit^2 / 2) before the next gradient, and the run returns the first
        k that fails the screen, or 0 once every arrival is done. A run asks
        for it once and calls it once per scalar run.

        This default builds on `sample_grad(...).tolist()` and takes the
        samples as `sample_grad` does. An override takes the rows of a
        two-dimensional sample block as tuples. Least squares and the
        heterogeneous quadratics override it with a form that makes the same
        numpy matrix-vector call as `sample_grad`, then forms the gradient
        and the step in one Python float expression per coordinate, in
        numpy's order. Every built-in form, this default too, is the
        per-arrival loop of one template with the form's body, compiled once
        per dimension (see `_step_form`). A subclass that changes how one
        gradient is evaluated gets this default back."""
        return _step_form("default", self.dim)(self.sample_grad)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the batched and run forms are written for one way of evaluating a
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


# up to this dimension a single run's scalar loop keeps its iterate as Python
# floats, through the problem's step oracle; past it, that O(d) interpreted
# arithmetic costs more than numpy's per-call floor, and the loop takes the
# numpy form (tools/scalar_dim.py times both per d)
_FLOAT_DIM = 6

# up to _FLOAT_DIM, the longest ready block a single run replays on the
# scalar loop through a problem's own step oracle (tools/scalar_dim.py
# --blocks times it against the batched path per block length) ...
_FLOAT_BLOCK = 8

# ... and through the default oracle, and past _FLOAT_DIM (blocks of three
# gain at d = 50 and lose at d = 10)
_SCALAR_BLOCK = 2


def scalar_step(problem):
    """A single run's scalar run and how the replay calls it: the run, the
    longest ready block it replays, and whether it takes the rows of a 2-D
    sample block as tuples. Up to _FLOAT_DIM it is the problem's step
    oracle, which keeps the iterate as Python floats; past it, the numpy
    form: run(...) as in `Problem.step_oracle`, on sample_grad, its iterate
    a row of buf, screened by np.vdot within limit^2 / 2. The numpy form
    never writes into a gradient and forms a step gamma ||g|| past half the
    float range with numpy's overflow warnings off."""
    if problem.dim > _FLOAT_DIM:
        return _step_form("numpy", problem.dim)(problem.sample_grad), _SCALAR_BLOCK, False
    listed = type(problem).step_oracle is not Problem.step_oracle
    return problem.step_oracle(), _FLOAT_BLOCK if listed else _SCALAR_BLOCK, listed


# The scalar run of every form (see Problem.step_oracle): the source of a
# factory make(constants...) that returns run(...). A form fills in the
# factory's arguments and setup, how the run loads x_first, the per-arrival
# body that forms x_k, and the screen of x_k. The loop zips the worker
# column only for a body that reads it.
_RUN = """
def make({args}):
    {setup}

    def run(buf, first, table, points, samples, workers, gammas, limit):
        k = first
        {load}
        for {columns} in zip({lists}):
            k += 1
{body}
            if not {screen}:
                return k
        return 0
    return run
"""

# How a form loads x_first, stores x_k and screens it. The Python float
# forms keep x in p0, p1, ... ({p} stands for the target [p0, p1, ...]),
# store it through a memoryview of buf and screen p0 * p0 + p1 * p1 + ...
# (a square past the float range is inf, silently, and fails); the numpy
# form keeps x as a row of buf. In a float form's body, {pae} stands for
# p0 = p0 - ((a0 - c0) + e0) * gamma; ..., the float operations of the
# numpy expression it equals, in its order.
_FLOAT_PARTS = ('out, square = memoryview(buf).cast("B").cast("d"), 0.5 * limit * limit\n'
                "        {p} = buf[first].tolist()",
                "\n            at = k * {dim}\n            {store}", "{squares} <= square")
_NUMPY_PARTS = ("x, square = buf[first], 0.5 * limit * limit", "", "vdot(x, x) <= square")

# per form: the factory's arguments, its setup, and the body of one arrival
_STEP_FORMS = {
    # any problem: on sample_grad(...).tolist()
    "default": ("sample_grad", "pass", """
            {g} = sample_grad(table[point], sample, worker).tolist()
            {pg}"""),
    # least squares with additive noise or exact gradients: _grad's matvec,
    # read through a memoryview of its output, then its elementwise rest in
    # Python floats
    "additive": ("matvec, cross", "{c} = cross; sv = memoryview(scratch := empty({dim}))", """
            matvec(table[point], scratch)
            {a} = sv
            if sample is None:
                {pa}
            else:
                {e} = sample
                {pae}"""),
    # least squares with row noise: _row_grad with t a Python float, as a
    # numpy scalar could warn
    "rows": ("mat, rhs", "pass", """
            row = mat[sample]
            t = float(row @ table[point]) - rhs.item(sample)
            {r} = row.tolist()
            {pr}"""),
    # the heterogeneous quadratics: _grad with worker m's shift
    "heterogeneous": ("matvec, cross, shifts, check", "count = len(shifts); {c} = cross; "
                      "sv = memoryview(scratch := empty({dim}))", """
            if not 0 < worker <= count:
                check(worker)
            matvec(table[point], scratch)
            {a} = sv
            {s} = shifts[worker - 1]
            if sample is None:
                {pas}
            else:
                {e} = sample
                {pase}"""),
    # past _FLOAT_DIM (see scalar_step): x_k written into buf[k] through
    # numpy; the replay's x_{k-1} is within the divergence limit, far inside
    # the float range, so the difference overflows no more than gamma g did
    "numpy": ("sample_grad", "pass", """
            g = sample_grad(table[point], sample, worker)   # read, never written
            prev, x = x, buf[k]
            if sqrt(vdot(g, g)) * gamma <= SAFE:
                multiply(g, gamma, x)
            else:   # gamma g may pass the float range
                with errstate(over="ignore", invalid="ignore"):
                    multiply(g, gamma, x)
            subtract(prev, x, x)"""),
}

# coordinate i of each float form's gradient, in the order of its numpy form
_STEP_TERMS = dict(pg="g{i}", pa="(a{i} - c{i})", pae="((a{i} - c{i}) + e{i})",
                   pr="(r{i} * t)", pas="((a{i} - c{i}) + s{i})",
                   pase="(((a{i} - c{i}) + s{i}) + e{i})")

# the names the generated source reads besides its arguments
_RUN_GLOBALS = dict(sqrt=math.sqrt, empty=np.empty, vdot=np.vdot,
                    multiply=np.multiply, subtract=np.subtract, errstate=np.errstate,
                    SAFE=0.5 * sys.float_info.max)


@functools.cache
def _step_form(form: str, dim: int):
    """The factory of form's scalar run at dimension dim, compiled once per
    (form, dim) so that building a run compiles nothing. Only the integers
    of range(dim) and fixed strings enter the source."""
    args, setup, body = _STEP_FORMS[form]
    load, store, screen = _NUMPY_PARTS if form == "numpy" else _FLOAT_PARTS
    columns = ["point", "sample"] + (["worker"] if "worker" in body else []) + ["gamma"]
    names = {x: "[" + ", ".join(f"{x}{i}" for i in range(dim)) + "]" for x in "acegprs"}
    names.update({key: "; ".join(f"p{i} = p{i} - {term.format(i=i)} * gamma" for i in range(dim))
                  for key, term in _STEP_TERMS.items()},
                 dim=dim, squares=" + ".join(f"p{i} * p{i}" for i in range(dim)),
                 store="; ".join(f"out[at + {i}] = p{i}" if i else "out[at] = p0"
                                 for i in range(dim)))
    source = _RUN.format(args=args, setup=setup, load=load, body=body.strip("\n") + store,
                         screen=screen, columns=", ".join(columns),
                         lists="s, ".join(columns) + "s").format(**names)
    namespace = dict(_RUN_GLOBALS)
    exec(compile(source, f"<{form} run, d = {dim}>", "exec"), namespace)
    return namespace["make"]


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

    def _mean_grads(self, xs: np.ndarray) -> np.ndarray:
        """_grad at the rows of xs. A stacked matvec equals gram.dot(x) row
        for row; xs @ gram.T (a matrix product) does not."""
        grads = np.matmul(self._gram, xs[:, :, None])[:, :, 0]
        return np.subtract(grads, self._cross, out=grads)


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
        return grads if samples is None else np.add(grads, samples, out=grads)

    def step_oracle(self):
        if self.noise == "rows":
            return _step_form("rows", self.dim)(self.mat, self.rhs)
        return _step_form("additive", self.dim)(self._gram.dot, self._cross.tolist())

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
        grads = self._mean_grads(xs)
        grads += self.shifts[workers - 1]
        return grads if samples is None else np.add(grads, samples, out=grads)

    def step_oracle(self):
        return _step_form("heterogeneous", self.dim)(
            self._gram.dot, self._cross.tolist(), self.shifts.tolist(), self._check_worker)


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
