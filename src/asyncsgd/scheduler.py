"""Discrete-event simulation of parallel workers with configurable
compute-time models, plus the closed-form step-count model used to compare
asynchronous and synchronous execution for a fixed wall-clock budget.

`ArrivalTrace` is the one place that defines delays. A trace is built from
the arrival order alone: arrival k's gradient was dispatched at p_k, the
same worker's previous arrival (0 if none), and its delay is tau_k = k - p_k.
Both columns are derived once, when the trace is built, so no delay can
disagree with the order; only a delay column recorded elsewhere (a trace
CSV, a live run) is compared with them.

`_write_csv` is the one CSV writer: it writes the trace CSV and the run CSV
of `RunRecord.write_csv`, whose leading k, worker, tau and time columns make
it a trace CSV too, and `ArrivalTrace.read_csv` reads either back.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class LedgerError(ValueError):
    """Contract violation in delay bookkeeping (bad worker id, bad delay or
    inconsistent trace columns)."""


class SpeedModelError(ValueError):
    """Invalid speed-model configuration."""


def _fits(count: int) -> bool:
    """Whether one numpy array can hold `count` float64 values; past that
    numpy raises ValueError, not MemoryError."""
    return count * 8 <= np.iinfo(np.intp).max


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
        if self.distribution == "lognormal" and not (
                self.sigma > 0 and math.isfinite(self.sigma * self.sigma)):
            raise SpeedModelError(
                f"lognormal shape sigma must be positive with a finite square, got {self.sigma}")

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


def StragglerSpeeds(base: float, straggler: int, slowdown: float,
                    num_workers: int) -> FixedSpeeds:
    """The fixed speeds of `num_workers` workers that all take `base` seconds
    except worker `straggler`, which takes `base * slowdown`."""
    if num_workers < 1:
        raise SpeedModelError("need at least one worker")
    if not 1 <= straggler <= num_workers:
        raise SpeedModelError(f"straggler id {straggler} out of range 1..{num_workers}")
    if not math.isfinite(base) or base <= 0:
        raise SpeedModelError("base compute time must be positive and finite")
    if not math.isfinite(slowdown) or slowdown < 1:
        raise SpeedModelError("slowdown factor must be >= 1")
    if not _fits(num_workers):
        raise SpeedModelError(f"{num_workers} workers are more than one array can hold")
    seconds = np.full(num_workers, base, dtype=np.float64)
    seconds[straggler - 1] = base * slowdown
    return FixedSpeeds(tuple(seconds.tolist()))


SpeedModel = FixedSpeeds | RandomSpeeds


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


@dataclass(frozen=True)
class ArrivalTrace:
    """Arrival order of gradients: one row per update iteration k = 1..K.

    workers[k-1] is the arriving worker id and times[k-1] the arrival
    wall-clock time (non-decreasing). The constructor checks both and
    derives, in one pass, prevs[k-1] = p_k, the iteration the arriving
    gradient was dispatched at, and taus[k-1] = k - p_k, its delay. All four
    columns are read-only views; the caller's arrays are not copied.
    Raises LedgerError, naming the first bad row, if a worker id is outside
    1..M or past the int64 range, a time is not finite or the times decrease.
    """

    workers: np.ndarray
    times: np.ndarray
    num_workers: int
    prevs: np.ndarray = field(init=False)
    taus: np.ndarray = field(init=False)

    def __post_init__(self):
        try:
            workers = np.asarray(self.workers, dtype=np.int64)
        except OverflowError:   # a Python integer past the int64 range
            row = next(k for k, w in enumerate(self.workers, 1) if not -2**63 <= w < 2**63)
            raise LedgerError(f"trace row {row}: worker id {self.workers[row - 1]} is past "
                              "the int64 range") from None
        times = np.asarray(self.times, dtype=np.float64)
        if len(workers) != len(times):
            raise LedgerError("trace columns have mismatched lengths")
        if self.num_workers < 1:
            raise LedgerError(f"need at least one worker, got {self.num_workers}")
        bad = np.flatnonzero((workers < 1) | (workers > self.num_workers))
        if bad.size:
            raise LedgerError(
                f"trace row {bad[0] + 1}: unknown worker id {workers[bad[0]]} "
                f"(valid ids are 1..{self.num_workers})")
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise LedgerError(
                f"trace row {bad[0] + 1}: arrival time {times[bad[0]]} is not finite")
        # compared, not subtracted: the difference of two finite times can overflow
        bad = np.flatnonzero(times[1:] < times[:-1])
        if bad.size:
            raise LedgerError(f"trace row {bad[0] + 2}: arrival times must be non-decreasing")
        prevs = dispatch_iterations(workers)
        columns = {"workers": workers, "times": times, "prevs": prevs,
                   "taus": np.arange(1, len(workers) + 1) - prevs}
        for name, column in columns.items():
            view = column.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def horizon(self) -> int:
        return len(self.workers)

    def check_recorded_taus(self, taus) -> "ArrivalTrace":
        """Return the trace if a delay column recorded outside it (a trace
        CSV, a live run) equals the one its arrival order gives; else raise
        LedgerError naming the first row where they differ."""
        bad = np.flatnonzero(np.asarray(taus) != self.taus)
        if bad.size:
            i = bad[0]
            raise LedgerError(
                f"trace row {i + 1}: recorded delay {taus[i]} "
                f"but the arrival order gives {self.taus[i]}")
        return self

    def validate(self) -> "ArrivalTrace":
        """Return the trace. Its columns were checked and derived when it was
        built and cannot change, so there is nothing left to check."""
        return self

    def delay_budget_slack(self) -> int:
        """Minimum over prefixes K' = 1..K+1 of K'M minus the delays of the
        first K'-1 arrivals and of the M gradients in flight at K'. Arrival k
        moves its worker's dispatch point from p_k to k, so the in-flight
        delays sum to K'M - sum_{k<K'} (k - p_k) and the margin at K' is
        sum_{k<K'} (k - p_k - tau_k): 0 at every prefix, since tau_k is
        derived as k - p_k. Kept as an identity for tests to check."""
        terms = np.arange(1, self.horizon + 1) - self.prevs - self.taus
        return int(np.cumsum(terms).min(initial=0))

    def long_delay_count_ok(self) -> bool:
        """At most min(k/3, max(k - 3M, 0)) of the first k arrivals, for
        every k, may carry a delay larger than 3M. Every arrival order meets
        this: per worker the delays telescope, so the first k sum to at most
        kM and fewer than k/3 of them exceed 3M; and tau_j <= j, so none of
        the first 3M does. Kept as an identity for tests to check."""
        m3 = 3 * self.num_workers
        ks = np.arange(1, len(self.taus) + 1)
        long_counts = np.cumsum(self.taus > m3)
        return bool(np.all(long_counts <= np.minimum(ks / 3, np.maximum(ks - m3, 0))))

    def write_csv(self, path) -> None:
        _write_csv(path, self.horizon, dict(worker=self.workers, tau=self.taus, time=self.times))

    @classmethod
    def read_csv(cls, path, num_workers: int | None = None) -> "ArrivalTrace":
        """Load a trace written by write_csv. Rows must carry k = 1..K in order."""
        workers, taus, times = [], [], []
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            try:
                required = {"k", "worker", "tau", "time"}
                if reader.fieldnames is None or not required <= set(reader.fieldnames):
                    raise LedgerError(f"trace csv must have columns {sorted(required)}")
                if len(set(reader.fieldnames)) != len(reader.fieldnames):
                    raise LedgerError(f"trace csv repeats a column: {reader.fieldnames}")
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
            except csv.Error as exc:   # line_num counts the lines before the bad one
                raise LedgerError(f"trace csv line {reader.line_num + 1}: {exc}") from None
        if num_workers is None:
            num_workers = max(workers) if workers else 1
        trace = cls(workers, np.array(times, dtype=np.float64), num_workers)
        return trace.check_recorded_taus(taus)


_ROWS = 1024   # rows per block: a write holds O(_ROWS) Python objects per column at any K


def _write_csv(path, horizon: int, columns: dict) -> None:
    """Write k = 1..horizon and the columns as CSV, ints by str, floats by exact repr."""
    for name, column in columns.items():
        if len(column) != horizon:
            raise ValueError(f"column {name} has {len(column)} rows; the table has {horizon}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["k", *columns]) + "\n")
        for a in range(0, horizon, _ROWS):
            cells = [map(str if c.dtype.kind in "iu" else repr, c[a:a + _ROWS].tolist())
                     for c in columns.values()]
            fh.writelines(f"{k},{','.join(row)}\n" for k, row in enumerate(zip(*cells), a + 1))


def simulate_trace(model: SpeedModel, horizon: int) -> ArrivalTrace:
    """Arrival order of the first `horizon` gradients under a speed model.

    All workers start computing at t=0. A worker's finish times are the
    running sums of its compute-time draws; the arrival order merges every
    worker's finish times, with ties broken toward the lowest worker index
    (exact binary64 comparison). Deterministic for a given (model, seed,
    horizon). Raises SpeedModelError if one of the first `horizon` finish
    times overflows.
    """
    if horizon < 0:
        raise LedgerError(f"horizon must be >= 0, got {horizon}")
    if not _fits(2 * horizon):   # the first draws take about 1.05 horizon values
        raise LedgerError(f"horizon {horizon} is more than one array can hold")
    m_count = model.num_workers
    samplers = model.block_samplers()
    means = np.asarray(model.means if isinstance(model, RandomSpeeds) else model.seconds)
    # each worker's share of arrivals is proportional to 1/mean; scaling by
    # the smallest mean keeps a tiny mean from overflowing 1/mean
    rates = means.min() / means
    share = rates / rates.sum()
    # about the expected number of arrivals per worker, with a margin
    draws = [sampler(math.ceil(1.05 * horizon * w) + 4)
             for sampler, w in zip(samplers, share)]
    while True:
        counts = np.array([len(d) for d in draws])
        with np.errstate(over="ignore"):   # checked below, on the K arrivals
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
    times = times[first]
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise SpeedModelError(
            f"arrival {bad[0] + 1} finishes past the float range; compute times are too large")
    return ArrivalTrace(ids[first], times, m_count)


def trace_from_workers(workers, num_workers: int | None = None) -> ArrivalTrace:
    """Adversarial trace: an explicit arrival order with synthetic unit times."""
    workers = [int(w) for w in workers]
    if num_workers is None:
        if not workers:
            raise LedgerError("cannot infer worker count from an empty sequence")
        num_workers = max(workers)
    return ArrivalTrace(workers, np.arange(1, len(workers) + 1, dtype=np.float64), num_workers)


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise SpeedModelError(f"{what} passes the float range")
    return value


def steps_in_time(seconds, duration: float) -> tuple[int, int]:
    """Gradient-step counts reachable in `duration` seconds of wall time.

    Returns (async_steps, sync_steps): asynchronously every worker
    contributes floor(S / s_m) updates; lockstep synchronous execution is
    paced by the slowest worker, floor(S / max s_m) rounds. A count past the
    float range is a SpeedModelError.
    """
    seconds = _check_seconds(seconds)
    if duration < 0 or not math.isfinite(duration):
        raise SpeedModelError(f"duration must be finite and >= 0, got {duration}")
    counts = [_finite(duration // s, "duration / compute time") for s in seconds]
    return sum(map(int, counts)), int(min(counts))


def speedup_factor(seconds) -> float:
    """Ideal async-over-sync throughput ratio: mean of s_max / s_m. Always >= 1;
    a ratio past the float range is a SpeedModelError."""
    seconds = _check_seconds(seconds)
    s_max = max(seconds)
    return _finite(sum(s_max / s for s in seconds) / len(seconds), "speedup")
