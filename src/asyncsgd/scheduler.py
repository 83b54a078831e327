"""Discrete-event simulation of parallel workers with configurable
compute-time models, plus the closed-form step-count model used to compare
asynchronous and synchronous execution for a fixed wall-clock budget.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .ledger import DelayLedger, LedgerError


class SpeedModelError(ValueError):
    """Invalid speed-model configuration."""


def _check_seconds(seconds) -> tuple[float, ...]:
    seconds = tuple(float(s) for s in seconds)
    if not seconds:
        raise SpeedModelError("need at least one worker speed")
    if any(not math.isfinite(s) or s <= 0 for s in seconds):
        raise SpeedModelError(f"compute times must be positive and finite: {seconds}")
    return seconds


@dataclass(frozen=True)
class FixedSpeeds:
    """Worker m takes exactly seconds[m-1] per gradient, every time."""

    seconds: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seconds", _check_seconds(self.seconds))

    @property
    def num_workers(self) -> int:
        return len(self.seconds)

    def block_samplers(self):
        """Per worker, a function of n giving its next n compute times."""
        return [lambda n, s=s: np.full(n, s) for s in self.seconds]


@dataclass(frozen=True)
class RandomSpeeds:
    """Worker m draws an independent compute time for every gradient.

    distribution "exponential": mean means[m-1].
    distribution "lognormal": mean means[m-1], log-space shape sigma.
    Each worker uses its own seed substream so traces are reproducible
    regardless of interleaving.
    """

    distribution: str
    means: tuple[float, ...]
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(s) for s in self.means))
        if self.distribution not in ("exponential", "lognormal"):
            raise SpeedModelError(f"unknown distribution {self.distribution!r}")
        if not self.means:
            raise SpeedModelError("need at least one worker mean")
        if any(not math.isfinite(s) or s <= 0 for s in self.means):
            raise SpeedModelError(f"mean compute times must be positive and finite: {self.means}")
        if self.distribution == "lognormal" and self.sigma <= 0:
            raise SpeedModelError("lognormal shape sigma must be positive")

    @property
    def num_workers(self) -> int:
        return len(self.means)

    def block_samplers(self):
        """Per worker, a function of n giving its next n compute times. A
        block of n draws equals n single draws from the same stream."""
        draws = []
        for m, mean in enumerate(self.means, start=1):
            rng = np.random.default_rng([self.seed, m])
            if self.distribution == "exponential":
                draws.append(lambda n, rng=rng, mean=mean: rng.exponential(mean, n))
            else:
                # shift the log-space location so the distribution mean is `mean`
                mu_log = math.log(mean) - 0.5 * self.sigma**2
                draws.append(
                    lambda n, rng=rng, mu=mu_log, sg=self.sigma: rng.lognormal(mu, sg, n)
                )
        return draws


@dataclass(frozen=True)
class StragglerSpeeds:
    """All workers take `base` seconds except one, slowed by `slowdown`."""

    base: float
    straggler: int
    slowdown: float
    num_workers: int
    seed: int = 0

    def __post_init__(self):
        if self.num_workers < 1:
            raise SpeedModelError("need at least one worker")
        if not 1 <= self.straggler <= self.num_workers:
            raise SpeedModelError(
                f"straggler id {self.straggler} out of range 1..{self.num_workers}"
            )
        if not math.isfinite(self.base) or self.base <= 0:
            raise SpeedModelError("base compute time must be positive and finite")
        if not math.isfinite(self.slowdown) or self.slowdown < 1:
            raise SpeedModelError("slowdown factor must be >= 1")

    @property
    def seconds(self) -> tuple[float, ...]:
        return tuple(
            self.base * self.slowdown if m == self.straggler else self.base
            for m in range(1, self.num_workers + 1)
        )

    def block_samplers(self):
        """Per worker, a function of n giving its next n compute times."""
        return [lambda n, s=s: np.full(n, s) for s in self.seconds]


SpeedModel = FixedSpeeds | RandomSpeeds | StragglerSpeeds


def dispatch_iterations(workers) -> np.ndarray:
    """p_k for every arrival k: the last iteration before k at which the same
    worker arrived (and was re-dispatched), or 0 if it had not arrived yet.

    The delay of arrival k is k - p_k. One stable sort groups each worker's
    arrivals in order, so every row's predecessor is its neighbour there.
    """
    workers = np.asarray(workers)
    order = np.argsort(workers, kind="stable")
    prevs = np.zeros(len(workers), dtype=np.int64)
    same = workers[order[1:]] == workers[order[:-1]]
    prevs[order[1:][same]] = order[:-1][same] + 1
    return prevs


@dataclass
class ArrivalTrace:
    """Arrival order of gradients: one row per update iteration k = 1..K.

    workers[k-1] is the arriving worker id, taus[k-1] its gradient's delay,
    times[k-1] the arrival wall-clock time (non-decreasing).
    """

    workers: np.ndarray
    taus: np.ndarray
    times: np.ndarray
    num_workers: int

    def __post_init__(self):
        self.workers = np.asarray(self.workers, dtype=np.int64)
        self.taus = np.asarray(self.taus, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.dispatches()

    @property
    def horizon(self) -> int:
        return len(self.workers)

    def dispatches(self) -> np.ndarray:
        """Check the columns in one vectorized pass and return p_k, the
        iteration each arriving gradient was dispatched at.

        Raises LedgerError, naming the first bad row, if a worker id is
        outside 1..M, the times decrease, or a recorded delay is not k - p_k.
        """
        horizon = len(self.workers)
        if not (horizon == len(self.taus) == len(self.times)):
            raise LedgerError("trace columns have mismatched lengths")
        if self.num_workers < 1:
            raise LedgerError(f"need at least one worker, got {self.num_workers}")
        bad = np.flatnonzero((self.workers < 1) | (self.workers > self.num_workers))
        if bad.size:
            raise LedgerError(
                f"trace row {bad[0] + 1}: unknown worker id {self.workers[bad[0]]} "
                f"(valid ids are 1..{self.num_workers})")
        bad = np.flatnonzero(np.diff(self.times) < 0)
        if bad.size:
            raise LedgerError(f"trace row {bad[0] + 2}: arrival times must be non-decreasing")
        prevs = dispatch_iterations(self.workers)
        delays = np.arange(1, horizon + 1) - prevs
        bad = np.flatnonzero(delays != self.taus)
        if bad.size:
            i = bad[0]
            raise LedgerError(
                f"trace row {i + 1}: recorded delay {self.taus[i]} "
                f"but the arrival order gives {delays[i]}")
        return prevs

    def validate(self) -> DelayLedger:
        """Check the columns and replay them through a fresh ledger, whose
        delay-budget invariants can then be queried."""
        self.dispatches()
        return DelayLedger.replay(self.workers.tolist(), self.num_workers)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "worker", "tau", "time"])
            for i in range(self.horizon):
                writer.writerow(
                    [i + 1, int(self.workers[i]), int(self.taus[i]),
                     repr(float(self.times[i]))]
                )

    @classmethod
    def read_csv(cls, path, num_workers: int | None = None) -> "ArrivalTrace":
        """Load a trace written by write_csv. Rows must carry k = 1..K in order."""
        workers, taus, times = [], [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"k", "worker", "tau", "time"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise LedgerError(f"trace csv must have columns {sorted(required)}")
            for k, row in enumerate(reader, start=1):
                try:
                    row_k = int(row["k"])
                    workers.append(int(row["worker"]))
                    taus.append(int(row["tau"]))
                    times.append(float(row["time"]))
                except (TypeError, ValueError) as exc:
                    raise LedgerError(f"trace csv row {k}: {exc}") from None
                if row_k != k:
                    raise LedgerError(
                        f"trace csv row {k}: k is {row_k}, expected {k} "
                        "(rows must be k = 1..K in order)")
        if num_workers is None:
            num_workers = max(workers) if workers else 1
        return cls(np.array(workers, dtype=np.int64), np.array(taus, dtype=np.int64),
                   np.array(times, dtype=np.float64), num_workers)


def simulate_trace(model: SpeedModel, horizon: int) -> ArrivalTrace:
    """Arrival order of the first `horizon` gradients under a speed model.

    All workers start computing at t=0. A worker's finish times are the
    running sums of its compute-time draws; the arrival order merges every
    worker's finish times, with ties broken toward the lowest worker index
    (exact binary64 comparison). Deterministic for a given (model, seed,
    horizon).
    """
    if horizon < 0:
        raise LedgerError(f"horizon must be >= 0, got {horizon}")
    m_count = model.num_workers
    samplers = model.block_samplers()
    means = np.asarray(model.means if isinstance(model, RandomSpeeds) else model.seconds)
    share = (1.0 / means) / np.sum(1.0 / means)
    # about the expected number of arrivals per worker, with a margin
    draws = [sampler(math.ceil(1.05 * horizon * w) + 4)
             for sampler, w in zip(samplers, share)]
    while True:
        counts = np.array([len(d) for d in draws])
        times = np.concatenate([np.cumsum(d) for d in draws])
        ids = np.repeat(np.arange(1, m_count + 1), counts)
        # the blocks are concatenated in worker order, so a stable sort by
        # time alone breaks ties toward the lower id, as a (time, id) key does
        first = np.argsort(times, kind="stable")[:horizon]
        taken = np.bincount(ids[first], minlength=m_count + 1)[1:]
        short = np.flatnonzero(taken == counts)
        if not short.size:
            break
        # a worker whose every drawn event arrives may have more events
        # before the K-th arrival: extend its draws from the same stream and
        # sum its finish times again from the first draw
        for m in short:
            draws[m] = np.concatenate([draws[m], samplers[m](len(draws[m]))])
    workers = ids[first]
    taus = np.arange(1, horizon + 1) - dispatch_iterations(workers)
    return ArrivalTrace(workers, taus, times[first], m_count)


def trace_from_workers(worker_ids, num_workers: int | None = None) -> ArrivalTrace:
    """Adversarial trace: an explicit arrival order with synthetic unit times."""
    worker_ids = np.array([int(w) for w in worker_ids], dtype=np.int64)
    if num_workers is None:
        if not len(worker_ids):
            raise LedgerError("cannot infer worker count from an empty sequence")
        num_workers = int(worker_ids.max())
    taus = np.arange(1, len(worker_ids) + 1) - dispatch_iterations(worker_ids)
    times = np.arange(1, len(worker_ids) + 1, dtype=np.float64)
    return ArrivalTrace(worker_ids, taus, times, num_workers)


def steps_in_time(seconds, duration: float) -> tuple[int, int]:
    """Gradient-step counts reachable in `duration` seconds of wall time.

    Returns (async_steps, sync_steps): asynchronously every worker
    contributes floor(S / s_m) updates; lockstep synchronous execution is
    paced by the slowest worker, floor(S / max s_m) rounds.
    """
    seconds = _check_seconds(seconds)
    if duration < 0 or not math.isfinite(duration):
        raise SpeedModelError(f"duration must be finite and >= 0, got {duration}")
    async_steps = sum(int(duration // s) for s in seconds)
    sync_steps = min(int(duration // s) for s in seconds)
    return async_steps, sync_steps


def speedup_factor(seconds) -> float:
    """Ideal async-over-sync throughput ratio: mean of s_max / s_m. Always >= 1."""
    seconds = _check_seconds(seconds)
    s_max = max(seconds)
    return sum(s_max / s for s in seconds) / len(seconds)
