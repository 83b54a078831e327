"""Stepsize rules for delayed-gradient SGD and the matching output selectors.

Every rule is one formula in the delay tau of the arriving gradient,

    gamma(tau) = min( exp(-decay * tau / (c M L)) / (c L tau), cap ),

with c the delay factor, M the number of workers and L the smoothness. The
delay-adaptive rules shrink the step of stale gradients like 1/tau while
capping the step of fresh ones, which removes any need to know the maximum
delay in advance; only the strongly convex rule has a decay. The fixed rules
have no delay branch (c = 0) and always return the cap. No rule reads the
iteration index.

`RULES` lists each schedule tag once. Its entry checks the tag's requirements
on the problem constants and returns the cap, delay factor, decay and the
per-trace lower bound on the eventual stepsizes, and names the output rule
the tag's guarantee is stated for.

Convention for degenerate constants: a min-branch whose formula divides by
zero (for example the noise branch when sigma == 0) is treated as absent
rather than an error. A cap that is not positive and finite is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
        for name in ("smoothness", "strong_convexity", "lipschitz", "sigma", "init_distance",
                     "init_gap"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ScheduleError(f"{name} must be finite and >= 0, got {v}")
        if self.num_workers < 1:
            raise ScheduleError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.horizon < 1:
            raise ScheduleError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(eq=False)
class StepSchedule:
    """A stepsize rule: the module's formula with c = delay_factor. sum_bound
    is the per-trace lower bound that `sum_margin` checks (None for the fixed
    rules), output_rule the averaging rule the guarantee is stated for."""

    tag: str
    constants: ProblemConstants
    cap: float
    delay_factor: float = 0.0
    decay: float = 0.0
    sum_bound: float | None = None
    output_rule: str = "weighted"

    def __post_init__(self):
        if not (math.isfinite(self.cap) and self.cap > 0):
            raise ScheduleError(
                f"{self.tag}: the stepsize cap must be positive and finite, got {self.cap}")

    def gammas(self, taus) -> np.ndarray:
        """The stepsizes of a whole delay column."""
        taus = np.asarray(taus, dtype=np.int64)
        if taus.size and taus.min() < 1:
            raise ScheduleError(f"delay must be >= 1, got {taus.min()}")
        if not self.delay_factor:
            return np.full(len(taus), self.cap)
        c = self.constants
        top = 1.0
        if self.decay:
            # np.exp and math.exp can differ in the last bit; the decay goes
            # through math.exp once per distinct delay
            length = self.delay_factor * c.num_workers * c.smoothness
            distinct, where = np.unique(taus, return_inverse=True)
            top = np.array([math.exp(-self.decay * t / length) for t in distinct.tolist()])[where]
        with np.errstate(over="ignore"):   # 1/(c L tau) past 1e308 is inf, and the cap binds
            return np.minimum(top / (self.delay_factor * c.smoothness * taus), self.cap)

    def gamma(self, tau: int) -> float:
        """The stepsize of one gradient of delay tau."""
        return float(self.gammas([tau])[0])

    def sum_margin(self, gamma_hats) -> float:
        """The eventual stepsizes' sum minus `sum_bound`; for a decaying rule the
        log of sum_k gamma_hat_k exp(decay * cumsum(gamma_hat)_k) minus it."""
        if self.decay:
            return log_weighted_stepsize_sum(gamma_hats, self.decay) - self.sum_bound
        return float(np.sum(gamma_hats)) - self.sum_bound


# ---------------------------------------------------------------------------
# the rule table


def _require(**checks):
    for what, ok in checks.items():
        if not ok:
            raise ScheduleError(f"requires {what}")


def _const_lipschitz(c: ProblemConstants) -> dict:
    """gamma = B / (G sqrt(K M)), for G-Lipschitz convex objectives."""
    _require(positive_init_distance=c.init_distance > 0, positive_lipschitz=c.lipschitz > 0,
             horizon_at_least_num_workers=c.horizon >= c.num_workers)
    return {"cap": c.init_distance / (c.lipschitz * math.sqrt(c.horizon * c.num_workers))}


def _lipschitz_smooth(c: ProblemConstants) -> dict:
    """gamma = min{ 1/(2ML), sqrt(Delta/(L sigma^2 K)), (Delta/(L^2 M^2 G^2 K))^(1/3) }."""
    _require(positive_smoothness=c.smoothness > 0, positive_lipschitz=c.lipschitz > 0,
             positive_init_gap=c.init_gap > 0,
             horizon_at_least_num_workers=c.horizon >= c.num_workers)
    l, m, k = c.smoothness, c.num_workers, c.horizon
    branches = [1.0 / (2.0 * m * l),
                (c.init_gap / (l**2 * m**2 * c.lipschitz**2 * k)) ** (1.0 / 3.0)]
    if c.sigma > 0:
        branches.append(math.sqrt(c.init_gap / (l * c.sigma**2 * k)))
    return {"cap": min(branches)}


def _cap(c: ProblemConstants, cap_factor: float, noise_cap) -> float:
    """1/(cap_factor M L), lowered to noise_cap(c) when sigma > 0."""
    _require(positive_smoothness=c.smoothness > 0,
             horizon_at_least_num_workers=c.horizon >= c.num_workers)
    cap = 1.0 / (cap_factor * c.num_workers * c.smoothness)
    return min(cap, noise_cap(c)) if c.sigma > 0 else cap


def _distance_noise_cap(c: ProblemConstants) -> float:
    """B/(sigma sqrt(K))."""
    _require(positive_init_distance=c.init_distance > 0)
    return c.init_distance / (c.sigma * math.sqrt(c.horizon))


def _gap_noise_cap(c: ProblemConstants) -> float:
    """sqrt(Delta/(K L sigma^2))."""
    _require(positive_init_gap=c.init_gap > 0)
    return math.sqrt(c.init_gap / (c.horizon * c.smoothness * c.sigma**2))


def _adaptive_convex(c: ProblemConstants) -> dict:
    """gamma = min{ 1/(4 L tau), 1/(4ML), B/(sigma sqrt(K)) }; eventual stepsizes
    sum to at least min{ K/(36 L M), B sqrt(K)/(3 sigma) }, second branch
    absent at sigma = 0."""
    cap = _cap(c, 4.0, _distance_noise_cap)
    bound = c.horizon / (36.0 * c.smoothness * c.num_workers)
    if c.sigma > 0:
        bound = min(bound, c.init_distance * math.sqrt(c.horizon) / (3.0 * c.sigma))
    return {"cap": cap, "delay_factor": 4.0, "sum_bound": bound}


def _adaptive_strongly_convex(c: ProblemConstants) -> dict:
    """gamma = min{ exp(-mu tau/(4ML)) / (4 L tau), 1/(8ML),
    504 ln(e + mu^2 K^2 B^2 / sigma^2) / (mu K) }. The bound is the log of the
    per-trace lower bound on sum_k gamma_hat_k W_k, W_k = exp(mu * cumulative
    gamma_hat through k): max{ K gmax / 42, (gmax/7) exp(K mu gmax / 504) }."""
    _require(positive_smoothness=c.smoothness > 0,
             positive_strong_convexity=c.strong_convexity > 0,
             horizon_at_least_3x_num_workers=c.horizon >= 3 * c.num_workers)
    mu, k, b = c.strong_convexity, c.horizon, c.init_distance
    gmax = 1.0 / (8.0 * c.num_workers * c.smoothness)
    if c.sigma > 0:
        gmax = min(gmax, 504.0 * math.log(math.e + mu**2 * k**2 * b**2 / c.sigma**2) / (mu * k))
    bound = (max(math.log(k * gmax / 42.0), math.log(gmax / 7.0) + k * mu * gmax / 504.0)
             if gmax > 0 else None)   # gmax <= 0 is rejected by StepSchedule
    return {"cap": gmax, "delay_factor": 4.0, "decay": mu, "sum_bound": bound}


def _adaptive_nonconvex(c: ProblemConstants) -> dict:
    """gamma = min{ 1/(4 L tau), 1/(2ML), sqrt(Delta/(K L sigma^2)) };
    eventual stepsizes sum to at least K gmax / 9."""
    cap = _cap(c, 2.0, _gap_noise_cap)
    return {"cap": cap, "delay_factor": 4.0, "sum_bound": c.horizon * cap / 9.0}


def _adaptive_heterogeneous(c: ProblemConstants) -> dict:
    """gamma = min{ 1/(8 L tau), 1/(4ML), sqrt(Delta/(K L sigma^2)) }, for
    per-worker objectives whose gradients differ by at most zeta; eventual
    stepsizes sum to at least K gmax / 18."""
    cap = _cap(c, 4.0, _gap_noise_cap)
    return {"cap": cap, "delay_factor": 8.0, "sum_bound": c.horizon * cap / 18.0}


class Rule(NamedTuple):
    """One schedule tag: `params(constants)` (plus the step, if `takes_step`)
    checks the tag's requirements and returns StepSchedule's fields."""

    params: Callable[..., dict]
    output_rule: str
    takes_step: bool = False


RULES = {
    "constant": Rule(lambda c, step: {"cap": float(step)}, "weighted", takes_step=True),
    "const-lipschitz": Rule(_const_lipschitz, "uniform"),
    "lipschitz-smooth": Rule(_lipschitz_smooth, "sampled"),
    "adaptive-convex": Rule(_adaptive_convex, "weighted"),
    "adaptive-strongly-convex": Rule(_adaptive_strongly_convex, "exp-weighted"),
    "adaptive-nonconvex": Rule(_adaptive_nonconvex, "sampled"),
    "adaptive-heterogeneous": Rule(_adaptive_heterogeneous, "sampled"),
}


def make_schedule(tag: str, constants: ProblemConstants, step: float | None = None) -> StepSchedule:
    """The schedule of `tag` for `constants`, built from its `RULES` entry;
    `step` is the constant rule's stepsize and taken by no other rule."""
    rule = RULES.get(tag) if isinstance(tag, str) else None
    if rule is None:
        raise ScheduleError(f"unknown schedule {tag!r}; known: {sorted(RULES)}")
    if rule.takes_step and step is None:
        raise ScheduleError(f"{tag} schedule needs an explicit step")
    if step is not None and not rule.takes_step:
        raise ScheduleError(f"schedule {tag!r} does not take an explicit step")
    try:
        params = rule.params(constants, step) if rule.takes_step else rule.params(constants)
    except ScheduleError as exc:
        raise ScheduleError(f"{tag}: {exc}") from None
    except (ArithmeticError, ValueError) as exc:   # e.g. sigma**2 past 1e308
        raise ScheduleError(f"{tag}: constants outside the float range: {exc}") from None
    return StepSchedule(tag, constants, output_rule=rule.output_rule, **params)


# ---------------------------------------------------------------------------
# output selection


# the output rules that read the iterate history, which the others never need
HISTORY_RULES = ("exp-weighted", "sampled")
OUTPUT_RULES = ("uniform", "weighted") + HISTORY_RULES


def _positive(gamma_hats) -> np.ndarray:
    gamma_hats = np.asarray(gamma_hats, dtype=np.float64)
    if np.any(gamma_hats <= 0):
        raise ScheduleError("eventual stepsizes must be positive")
    return gamma_hats


def _log_exp_weights(gamma_hats, mu: float) -> np.ndarray:
    """log(gamma_hat_k) + mu * cumsum(gamma_hat)_k, the unnormalized log
    weights of the exponentially weighted average."""
    gamma_hats = _positive(gamma_hats)
    return np.log(gamma_hats) + mu * np.cumsum(gamma_hats)


def log_weighted_stepsize_sum(gamma_hats, mu: float) -> float:
    """log of sum_k gamma_hat_k * exp(mu * cumsum(gamma_hat)_k), overflow safe."""
    logs = _log_exp_weights(gamma_hats, mu)
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
        gamma_hats = _positive(gamma_hats)
        return gamma_hats / gamma_hats.sum()
    if rule == "exp-weighted":
        logs = _log_exp_weights(gamma_hats, mu)
        logs -= logs.max()
        w = np.exp(logs)
        return w / w.sum()
    raise ScheduleError(f"unknown output rule {rule!r}; known: {list(OUTPUT_RULES)}")


def select_output(rule: str, record, rng: np.random.Generator | None = None) -> np.ndarray:
    """Produce the run's output point under an averaging/sampling rule.

    "uniform" and "weighted" use the running sums kept by every run, so they
    work without iterate history. The HISTORY_RULES, "exp-weighted" and
    "sampled", need the run to have been recorded with keep_iterates=True.
    """
    if rule not in OUTPUT_RULES:
        raise ScheduleError(f"unknown output rule {rule!r}; known: {list(OUTPUT_RULES)}")
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
    if rng is None:
        raise ScheduleError("sampled output rule needs an rng")
    w = output_weights(rule, record.gamma_hats)
    idx = rng.choice(k, p=w)
    return record.iterates[1 + idx].copy()


def expected_sampled_metric(record, values) -> float:
    """Exact expectation of a per-iteration metric under the sampling rule."""
    w = output_weights("sampled", record.gamma_hats)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != w.shape:
        raise ScheduleError("metric vector must have one entry per iteration")
    return float(w @ values)
