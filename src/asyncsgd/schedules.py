"""Stepsize rules for delayed-gradient SGD and the matching output selectors.

Each rule is a deterministic function of the iteration index k and the delay
tau of the arriving gradient, parameterized by problem constants. The
delay-adaptive rules shrink the step of very stale gradients like 1/tau while
capping the step of fresh ones, which removes any need to know the maximum
delay in advance.

Convention for degenerate constants: a min-branch whose formula divides by
zero (for example the noise branch when sigma == 0) is treated as absent
rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ScheduleError(ValueError):
    """Invalid schedule constants or stepsize query."""


@dataclass(frozen=True)
class ProblemConstants:
    """Analytic constants a stepsize rule may consume.

    smoothness        L, gradient Lipschitz constant
    strong_convexity  mu (0 for merely convex or nonconvex objectives)
    lipschitz         G, bound on stochastic gradient norms (0 if unbounded)
    sigma             gradient noise level, E||g - grad F||^2 <= sigma^2
    init_distance     B, ||x0 - x*||
    init_gap          Delta, F(x0) - inf F
    num_workers       M
    horizon           K, total number of updates
    """

    smoothness: float = 0.0
    strong_convexity: float = 0.0
    lipschitz: float = 0.0
    sigma: float = 0.0
    init_distance: float = 0.0
    init_gap: float = 0.0
    num_workers: int = 1
    horizon: int = 1

    def __post_init__(self):
        names = [
            "smoothness", "strong_convexity", "lipschitz", "sigma",
            "init_distance", "init_gap",
        ]
        for name in names:
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ScheduleError(f"{name} must be finite and >= 0, got {v}")
        if self.num_workers < 1:
            raise ScheduleError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.horizon < 1:
            raise ScheduleError(f"horizon must be >= 1, got {self.horizon}")


def _check_tau(tau: int) -> None:
    if tau < 1:
        raise ScheduleError(f"delay must be >= 1, got {tau}")


def _check_taus(taus) -> np.ndarray:
    taus = np.asarray(taus, dtype=np.int64)
    if taus.size and taus.min() < 1:
        raise ScheduleError(f"delay must be >= 1, got {taus.min()}")
    return taus


class StepSchedule:
    """Base class: a stepsize as a function of (iteration, delay).

    gamma(k, tau) prices one gradient; gammas(taus) prices a whole delay
    column with the same floating-point operations, so gammas(taus)[i] ==
    gamma(k, taus[i]) bit for bit. No rule depends on k.
    """

    tag = "base"
    adaptive = False

    def __init__(self, constants: ProblemConstants):
        self.constants = constants

    def gamma(self, k: int, tau: int) -> float:
        raise NotImplementedError

    def gammas(self, taus) -> np.ndarray:
        raise NotImplementedError

    def _require(self, **checks):
        for what, ok in checks.items():
            if not ok:
                raise ScheduleError(f"{self.tag}: requires {what}")


class _FixedStep(StepSchedule):
    """A rule whose stepsize `self.step` ignores both k and tau."""

    step: float

    def gamma(self, k: int, tau: int) -> float:
        _check_tau(tau)
        return self.step

    def gammas(self, taus) -> np.ndarray:
        return np.full(len(_check_taus(taus)), self.step)


class ConstantStep(_FixedStep):
    """Externally tuned constant stepsize (grid-search mode)."""

    tag = "constant"

    def __init__(self, constants: ProblemConstants, step: float):
        super().__init__(constants)
        if not math.isfinite(step) or step <= 0:
            raise ScheduleError(f"constant step must be positive, got {step}")
        self.step = float(step)


class ConstLipschitz(_FixedStep):
    """gamma = B / (G sqrt(K M)), for G-Lipschitz convex objectives."""

    tag = "const-lipschitz"

    def __init__(self, constants: ProblemConstants):
        super().__init__(constants)
        c = constants
        self._require(
            positive_init_distance=c.init_distance > 0,
            positive_lipschitz=c.lipschitz > 0,
            horizon_at_least_num_workers=c.horizon >= c.num_workers,
        )
        self.step = c.init_distance / (c.lipschitz * math.sqrt(c.horizon * c.num_workers))


class LipschitzSmooth(_FixedStep):
    """gamma = min{ 1/(2ML), sqrt(Delta/(L sigma^2 K)), (Delta/(L^2 M^2 G^2 K))^(1/3) }."""

    tag = "lipschitz-smooth"

    def __init__(self, constants: ProblemConstants):
        super().__init__(constants)
        c = constants
        self._require(
            positive_smoothness=c.smoothness > 0,
            positive_lipschitz=c.lipschitz > 0,
            positive_init_gap=c.init_gap > 0,
            horizon_at_least_num_workers=c.horizon >= c.num_workers,
        )
        l, m, k = c.smoothness, c.num_workers, c.horizon
        branches = [
            1.0 / (2.0 * m * l),
            (c.init_gap / (l**2 * m**2 * c.lipschitz**2 * k)) ** (1.0 / 3.0),
        ]
        if c.sigma > 0:
            branches.append(math.sqrt(c.init_gap / (l * c.sigma**2 * k)))
        self.step = min(branches)


class _DelayAdaptive(StepSchedule):
    """gamma_k = min{ 1/(c L tau), cap }: stale gradients get steps shrinking
    like 1/tau, fresh ones are capped. Subclasses set c and the cap."""

    adaptive = True
    delay_factor: float
    cap: float

    def gamma(self, k: int, tau: int) -> float:
        _check_tau(tau)
        return min(1.0 / (self.delay_factor * self.constants.smoothness * tau), self.cap)

    def gammas(self, taus) -> np.ndarray:
        taus = _check_taus(taus)
        return np.minimum(1.0 / (self.delay_factor * self.constants.smoothness * taus),
                          self.cap)


class AdaptiveConvex(_DelayAdaptive):
    """gamma_k = min{ 1/(4 L tau), 1/(4ML), B/(sigma sqrt(K)) }."""

    tag = "adaptive-convex"
    delay_factor = 4.0

    def __init__(self, constants: ProblemConstants):
        super().__init__(constants)
        c = constants
        self._require(
            positive_smoothness=c.smoothness > 0,
            horizon_at_least_num_workers=c.horizon >= c.num_workers,
        )
        cap = 1.0 / (4.0 * c.num_workers * c.smoothness)
        if c.sigma > 0:
            self._require(positive_init_distance=c.init_distance > 0)
            cap = min(cap, c.init_distance / (c.sigma * math.sqrt(c.horizon)))
        self.cap = cap

    def stepsize_sum_bound(self) -> float:
        """Per-trace lower bound on the sum of eventual stepsizes:
        min{ K/(36 L M), B sqrt(K)/(3 sigma) }, second branch absent at sigma=0."""
        c = self.constants
        bound = c.horizon / (36.0 * c.smoothness * c.num_workers)
        if c.sigma > 0:
            bound = min(bound, c.init_distance * math.sqrt(c.horizon) / (3.0 * c.sigma))
        return bound


class AdaptiveStronglyConvex(StepSchedule):
    """gamma_k = min{ exp(-mu tau/(4ML)) / (4 L tau), 1/(8ML),
    504 ln(e + mu^2 K^2 B^2 / sigma^2) / (mu K) }."""

    tag = "adaptive-strongly-convex"
    adaptive = True

    def __init__(self, constants: ProblemConstants):
        super().__init__(constants)
        c = constants
        self._require(
            positive_smoothness=c.smoothness > 0,
            positive_strong_convexity=c.strong_convexity > 0,
            horizon_at_least_3x_num_workers=c.horizon >= 3 * c.num_workers,
        )
        cap = 1.0 / (8.0 * c.num_workers * c.smoothness)
        if c.sigma > 0:
            mu, k, b = c.strong_convexity, c.horizon, c.init_distance
            cap = min(cap, 504.0 * math.log(math.e + mu**2 * k**2 * b**2 / c.sigma**2) / (mu * k))
        self.cap = cap

    def _decay(self, tau: int) -> float:
        c = self.constants
        return math.exp(-c.strong_convexity * tau / (4.0 * c.num_workers * c.smoothness))

    def gamma(self, k: int, tau: int) -> float:
        _check_tau(tau)
        return min(self._decay(tau) / (4.0 * self.constants.smoothness * tau), self.cap)

    def gammas(self, taus) -> np.ndarray:
        taus = _check_taus(taus)
        # np.exp and math.exp can differ in the last bit, so the decay goes
        # through math.exp once per distinct delay
        distinct, where = np.unique(taus, return_inverse=True)
        decayed = np.array([self._decay(t) for t in distinct.tolist()])[where]
        return np.minimum(decayed / (4.0 * self.constants.smoothness * taus), self.cap)

    def log_weighted_sum_bound(self) -> float:
        """log of the per-trace lower bound on sum_k gamma_hat_k * W_k where
        W_k = exp(mu * cumulative gamma_hat through k):
        max{ K gmax / 42, (gmax/7) exp(K mu gmax / 504) }."""
        c = self.constants
        gmax = self.cap
        flat = math.log(c.horizon * gmax / 42.0)
        grown = math.log(gmax / 7.0) + c.horizon * c.strong_convexity * gmax / 504.0
        return max(flat, grown)


class AdaptiveNonconvex(_DelayAdaptive):
    """gamma_k = min{ 1/(4 L tau), 1/(2ML), sqrt(Delta/(K L sigma^2)) }."""

    tag = "adaptive-nonconvex"
    delay_factor = 4.0

    def __init__(self, constants: ProblemConstants):
        super().__init__(constants)
        c = constants
        self._require(
            positive_smoothness=c.smoothness > 0,
            horizon_at_least_num_workers=c.horizon >= c.num_workers,
        )
        cap = 1.0 / (2.0 * c.num_workers * c.smoothness)
        if c.sigma > 0:
            self._require(positive_init_gap=c.init_gap > 0)
            cap = min(cap, math.sqrt(c.init_gap / (c.horizon * c.smoothness * c.sigma**2)))
        self.cap = cap

    def stepsize_sum_bound(self) -> float:
        """Per-trace lower bound on the sum of eventual stepsizes: K gmax / 9."""
        return self.constants.horizon * self.cap / 9.0


class AdaptiveHeterogeneous(_DelayAdaptive):
    """gamma_k = min{ 1/(8 L tau), 1/(4ML), sqrt(Delta/(K L sigma^2)) },
    for per-worker objectives whose gradients differ by at most zeta."""

    tag = "adaptive-heterogeneous"
    delay_factor = 8.0

    def __init__(self, constants: ProblemConstants):
        super().__init__(constants)
        c = constants
        self._require(
            positive_smoothness=c.smoothness > 0,
            horizon_at_least_num_workers=c.horizon >= c.num_workers,
        )
        cap = 1.0 / (4.0 * c.num_workers * c.smoothness)
        if c.sigma > 0:
            self._require(positive_init_gap=c.init_gap > 0)
            cap = min(cap, math.sqrt(c.init_gap / (c.horizon * c.smoothness * c.sigma**2)))
        self.cap = cap

    def stepsize_sum_bound(self) -> float:
        """Per-trace lower bound on the sum of eventual stepsizes: K gmax / 18."""
        return self.constants.horizon * self.cap / 18.0


SCHEDULES = {
    cls.tag: cls
    for cls in (
        ConstLipschitz, LipschitzSmooth, AdaptiveConvex,
        AdaptiveStronglyConvex, AdaptiveNonconvex, AdaptiveHeterogeneous,
    )
}


def make_schedule(tag: str, constants: ProblemConstants, step: float | None = None) -> StepSchedule:
    if tag == ConstantStep.tag:
        if step is None:
            raise ScheduleError("constant schedule needs an explicit step")
        return ConstantStep(constants, step)
    if tag not in SCHEDULES:
        known = sorted(SCHEDULES) + [ConstantStep.tag]
        raise ScheduleError(f"unknown schedule {tag!r}; known: {known}")
    if step is not None:
        raise ScheduleError(f"schedule {tag!r} does not take an explicit step")
    return SCHEDULES[tag](constants)


# ---------------------------------------------------------------------------
# output selection


OUTPUT_RULES = ("uniform", "weighted", "exp-weighted", "sampled")

# which averaging rule each schedule's guarantee is stated for
DEFAULT_OUTPUT_RULE = {
    "const-lipschitz": "uniform",
    "lipschitz-smooth": "sampled",
    "adaptive-convex": "weighted",
    "adaptive-strongly-convex": "exp-weighted",
    "adaptive-nonconvex": "sampled",
    "adaptive-heterogeneous": "sampled",
    "constant": "weighted",
}


def log_weighted_stepsize_sum(gamma_hats, mu: float) -> float:
    """log of sum_k gamma_hat_k * exp(mu * cumsum(gamma_hat)_k), overflow safe."""
    gamma_hats = np.asarray(gamma_hats, dtype=np.float64)
    if np.any(gamma_hats <= 0):
        raise ScheduleError("eventual stepsizes must be positive")
    logs = np.log(gamma_hats) + mu * np.cumsum(gamma_hats)
    peak = float(np.max(logs))
    return peak + math.log(float(np.sum(np.exp(logs - peak))))


def output_weights(rule: str, gamma_hats, mu: float = 0.0) -> np.ndarray:
    """Normalized averaging weights over iterations 1..K for an output rule.

    "uniform"       equal weights
    "weighted"      proportional to the eventual stepsizes
    "exp-weighted"  proportional to gamma_hat_k * exp(mu * cumsum(gamma_hat)_k),
                    computed in log space so large exponents cannot overflow
    "sampled"       the sampling distribution, proportional to gamma_hat
    """
    gamma_hats = np.asarray(gamma_hats, dtype=np.float64)
    if gamma_hats.ndim != 1 or len(gamma_hats) == 0:
        raise ScheduleError("need a non-empty vector of eventual stepsizes")
    if rule == "uniform":
        return np.full(len(gamma_hats), 1.0 / len(gamma_hats))
    if rule in ("weighted", "sampled"):
        if np.any(gamma_hats <= 0):
            raise ScheduleError("eventual stepsizes must be positive")
        return gamma_hats / gamma_hats.sum()
    if rule == "exp-weighted":
        if np.any(gamma_hats <= 0):
            raise ScheduleError("eventual stepsizes must be positive")
        logs = np.log(gamma_hats) + mu * np.cumsum(gamma_hats)
        logs -= logs.max()
        w = np.exp(logs)
        return w / w.sum()
    raise ScheduleError(f"unknown output rule {rule!r}; known: {list(OUTPUT_RULES)}")


def select_output(rule: str, record, rng: np.random.Generator | None = None) -> np.ndarray:
    """Produce the run's output point under an averaging/sampling rule.

    "uniform" and "weighted" use the running sums kept by every run, so they
    work without iterate history. "exp-weighted" and "sampled" need the run
    to have been recorded with keep_iterates=True.
    """
    k = record.horizon
    if rule == "uniform":
        return record.uniform_sum / k
    if rule == "weighted":
        return record.weighted_sum / record.gamma_hats.sum()
    if record.iterates is None:
        raise ScheduleError(f"output rule {rule!r} needs a run with keep_iterates=True")
    if rule == "exp-weighted":
        mu = record.schedule.constants.strong_convexity if record.schedule else 0.0
        w = output_weights(rule, record.gamma_hats, mu=mu)
        return w @ record.iterates[1:]
    if rule == "sampled":
        if rng is None:
            raise ScheduleError("sampled output rule needs an rng")
        w = output_weights(rule, record.gamma_hats)
        idx = rng.choice(k, p=w)
        return record.iterates[1 + idx].copy()
    raise ScheduleError(f"unknown output rule {rule!r}; known: {list(OUTPUT_RULES)}")


def expected_sampled_metric(record, values) -> float:
    """Exact expectation of a per-iteration metric under the sampling rule."""
    w = output_weights("sampled", record.gamma_hats)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != w.shape:
        raise ScheduleError("metric vector must have one entry per iteration")
    return float(w @ values)
