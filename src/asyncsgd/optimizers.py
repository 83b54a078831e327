"""Optimizer loops: asynchronous trace replay, a synchronous minibatch
baseline, and a thread-backed live executor whose realized arrival order is
replayed through the same engine.

The asynchronous replay is a column engine. The arrival trace is fixed
before a run starts, and with it everything that depends only on the trace:
the dispatch iteration p_k of every arriving gradient and its delay (the
trace's `prevs` and `taus` columns, derived once when the trace was built),
its stepsize gamma_k = gamma(tau_k), every gradient's eventual stepsize (the
stepsize it is consumed with, or the terminal-delay stepsize if it is still
in flight when the run ends), and the gradient noise. The noise comes from
the problem's split oracle: `draw` takes a worker's samples from its own
seed substream as one block, sized from the worker's arrival count, and
`sample_grad` evaluates one gradient given its sample. Block draws equal
one-at-a-time draws, so a gradient evaluated lazily at arrival time against
the iterate stored at dispatch is identical to eager evaluation at dispatch
time, and runs are reproducible regardless of interleaving. The loop then
only applies the updates in order, keeping one dispatch point per worker
(O(M d) memory); weighted averages over iterates are accumulated as running
sums, so no iterate history is needed for them. The per-step metric columns
are filled only on request (`metrics=True`).

The minibatch baseline returns only its final iterate, and the live executor
records only the arrival order, the delays and the arrival times, which its
replay through `run_async` checks and turns into a RunRecord.
"""

from __future__ import annotations

import csv
import math
import threading
import time as _time
from dataclasses import dataclass

import numpy as np

from .problems import point_metrics
from .scheduler import ArrivalTrace, LedgerError
from .schedules import StepSchedule


class DivergedError(RuntimeError):
    """Iterates blew up or went non-finite."""

    def __init__(self, iteration: int, norm: float):
        super().__init__(f"iterates diverged at iteration {iteration} (norm {norm:.3e})")
        self.iteration = iteration
        self.norm = norm


@dataclass
class RunRecord:
    """Everything a run produces, one row per update iteration k = 1..K.

    gamma_hats[k-1] is the eventual stepsize of the gradient dispatched at
    iteration k; gamma_hat_initial[m-1] the same for worker m's dispatch at
    iteration 0. uniform_sum and weighted_sum are running sums of x_k and
    gamma_hat_k * x_k over k = 1..K, enough to form averaged outputs without
    iterate history.

    Under diagnostics, gradients is the dense store of every evaluated
    dispatch, one (M+K-1, d) array: row m-1 holds worker m's dispatch at
    iteration 0 and row M+k-1 the gradient dispatched at iteration k, for
    k = 1..K-1 (the dispatch at K is never evaluated).
    """

    num_workers: int
    workers: np.ndarray
    taus: np.ndarray
    gammas: np.ndarray
    gamma_hats: np.ndarray
    gamma_hat_initial: np.ndarray
    times: np.ndarray
    fgaps: np.ndarray | None        # metric columns, None unless asked for
    gradnorms2: np.ndarray | None
    x0: np.ndarray
    x_final: np.ndarray
    uniform_sum: np.ndarray
    weighted_sum: np.ndarray
    seed: int
    schedule: StepSchedule | None = None
    iterates: np.ndarray | None = None
    gradients: np.ndarray | None = None
    gradient_evals: int = 0

    @property
    def horizon(self) -> int:
        return len(self.workers)

    def write_csv(self, path, vres: np.ndarray | None = None) -> None:
        """One row per iteration, a metric column the run lacks reading nan,
        with a `vres` column of virtual-gap residuals if `vres` is given."""
        cols = ["k", "worker", "tau", "gamma", "gamma_hat", "time", "fgap", "gradnorm2"]
        floats = [self.gammas, self.gamma_hats, self.times, self.fgaps, self.gradnorms2]
        floats = [np.full(self.horizon, np.nan) if c is None else c for c in floats]
        if vres is not None:
            cols.append("vres")
            floats.append(vres)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for k, (m, tau, *values) in enumerate(zip(self.workers, self.taus, *floats), 1):
                writer.writerow([k, int(m), int(tau), *(repr(float(v)) for v in values)])


def _check_divergence(x: np.ndarray, k: int, limit: float = 1e12) -> None:
    norm2 = float(x.dot(x))
    # a single comparison catches overflow, inf and nan alike
    if not norm2 <= limit * limit:
        raise DivergedError(k, math.sqrt(norm2) if math.isfinite(norm2) else math.inf)


def _start(problem, x0, num_workers: int) -> np.ndarray:
    """The start point as a new float array, after checking that the run has
    a worker, that a problem with per-worker objectives has one for each of
    them and that x0 has the problem's dimension."""
    if num_workers < 1:
        raise LedgerError(f"need at least one worker, got {num_workers}")
    pool = getattr(problem, "num_workers", None)
    if pool is not None and pool != num_workers:
        raise LedgerError(
            f"problem defines {pool} worker objectives but the run has {num_workers} workers")
    x = np.array(x0, dtype=np.float64)
    if x.shape != (problem.dim,):
        raise LedgerError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    return x


def worker_streams(seed: int, num_workers: int) -> list[np.random.Generator]:
    """One independent generator per worker, indexed by (seed, worker id)."""
    return [np.random.default_rng([seed, m]) for m in range(1, num_workers + 1)]


# steps whose gradient samples are drawn as one block; bounds the noise
# buffer to _CHUNK x dim values however long the trace is
_CHUNK = 4096


def _draw_chunk(problem, rngs, workers: np.ndarray):
    """The gradient samples consumed by a run of arrivals, one per row.

    Each worker's samples come from its own generator as one block, in its
    arrival order, and are scattered back to the rows it arrives at. Returns
    None if the problem's gradients are exact.
    """
    order = np.argsort(workers, kind="stable")
    counts = np.bincount(workers, minlength=len(rngs) + 1)[1:]
    blocks = [problem.draw(rngs[m], int(c)) for m, c in enumerate(counts) if c]
    if blocks[0] is None:
        return None
    drawn = np.concatenate(blocks)
    samples = np.empty_like(drawn)
    samples[order] = drawn
    return samples.tolist() if samples.ndim == 1 else samples


def run_async(problem, trace: ArrivalTrace, schedule: StepSchedule, x0, seed: int = 0,
              *, keep_iterates: bool = False, diagnostics: bool = False,
              metrics: bool = False, divergence_norm: float = 1e12) -> RunRecord:
    """Replay an arrival trace through the delayed-update loop.

    Everything the trace fixes is computed as a column before the loop: the
    dispatch iteration of every arriving gradient, its stepsize and
    eventual stepsize, and its gradient sample. The loop itself only applies
    the updates in order. The fgaps and gradnorms2 columns are None unless
    metrics=True asks for them, which costs one `point_metrics` call (a
    `value` and a full `grad`) per update. diagnostics=True keeps
    every dispatched gradient in one (M+K-1, d) array: row m-1 for worker m's
    dispatch at iteration 0, row M+k-1 for the dispatch at iteration k < K.
    The rows still in flight at the end are evaluated then, from the same
    substreams. The virtual-iterate checker reads this store; diagnostics
    implies keep_iterates. Raises DivergedError when the iterate norm passes
    divergence_norm or goes non-finite.
    """
    horizon = trace.horizon
    m_count = trace.num_workers
    if horizon < 1:
        raise LedgerError("need a trace with at least one arrival")
    x0 = x = _start(problem, x0, m_count)
    keep_iterates = keep_iterates or diagnostics
    rngs = worker_streams(seed, m_count)

    # columns: dispatch iteration p_k, stepsize gamma_k, and the eventual
    # stepsize of every dispatch, which is the stepsize its gradient is
    # consumed with at the worker's next arrival
    prevs = trace.prevs
    gammas = schedule.gammas(trace.taus)
    consumed = prevs > 0
    gamma_hats = np.full(horizon, np.nan)
    gamma_hats[prevs[consumed] - 1] = gammas[consumed]
    gamma_hat_initial = np.full(m_count, np.nan)
    gamma_hat_initial[trace.workers[~consumed] - 1] = gammas[~consumed]
    # gradients still in flight at the end are priced with the terminal delay
    last = np.zeros(m_count, dtype=np.int64)
    last[trace.workers - 1] = np.arange(1, horizon + 1)
    terminal = schedule.gammas(np.maximum(1, horizon - last))

    fgaps = np.empty(horizon) if metrics else None
    gradnorms2 = np.empty(horizon) if metrics else None
    iterates = np.empty((horizon + 1, problem.dim)) if keep_iterates else None
    if keep_iterates:
        iterates[0] = x
    # dense store of the evaluated dispatches: row m-1 for worker m's
    # dispatch at iteration 0, row M+p-1 for the dispatch at iteration p
    gradients = np.empty((m_count + horizon - 1, problem.dim)) if diagnostics else None
    uniform_sum = np.zeros(problem.dim)
    weighted_sum = np.zeros(problem.dim)
    evals = horizon
    sample_grad = problem.sample_grad
    points = [x] * m_count   # the iterate each worker was last dispatched at

    for start in range(0, horizon, _CHUNK):
        stop = min(start + _CHUNK, horizon)
        workers = trace.workers[start:stop]
        samples = _draw_chunk(problem, rngs, workers)
        if samples is None:
            samples = [None] * (stop - start)
        for k, m, p, gamma, sample in zip(range(start + 1, stop + 1), workers.tolist(),
                                          prevs[start:stop].tolist(),
                                          gammas[start:stop].tolist(), samples):
            xp = points[m - 1]
            g = sample_grad(xp, sample, m)
            x = x - gamma * g
            _check_divergence(x, k, divergence_norm)
            if p:
                weighted_sum += gamma * xp
            uniform_sum += x
            if metrics:
                fgaps[k - 1], gradnorms2[k - 1] = point_metrics(problem, x)
            if keep_iterates:
                iterates[k] = x
            if diagnostics:
                gradients[m_count + p - 1 if p else m - 1] = g
            points[m - 1] = x

    for m in range(1, m_count + 1):
        p = int(last[m - 1])
        gamma = float(terminal[m - 1])
        if p == 0:
            gamma_hat_initial[m - 1] = gamma
        else:
            gamma_hats[p - 1] = gamma
            weighted_sum += gamma * points[m - 1]
        if diagnostics and p < horizon:
            gradients[m_count + p - 1 if p else m - 1] = problem.stoch_grad(
                points[m - 1], rngs[m - 1], worker=m)
            evals += 1

    return RunRecord(
        num_workers=m_count,
        workers=trace.workers,
        taus=trace.taus,
        gammas=gammas,
        gamma_hats=gamma_hats,
        gamma_hat_initial=gamma_hat_initial,
        times=trace.times,
        fgaps=fgaps,
        gradnorms2=gradnorms2,
        x0=x0,
        x_final=x,
        uniform_sum=uniform_sum,
        weighted_sum=weighted_sum,
        seed=seed,
        schedule=schedule,
        iterates=iterates,
        gradients=gradients,
        gradient_evals=evals,
    )


def run_minibatch(problem, num_workers: int, rounds: int, step: float, x0,
                  seed: int = 0) -> np.ndarray:
    """Lockstep baseline: every round averages one gradient from each worker
    and takes one step of size `step`. Returns the final iterate."""
    if rounds < 1:
        raise LedgerError(f"need at least one round, got {rounds}")
    if not math.isfinite(step) or step <= 0:
        raise LedgerError(f"step must be positive and finite, got {step}")
    x = _start(problem, x0, num_workers)
    rngs = worker_streams(seed, num_workers)
    for r in range(1, rounds + 1):
        acc = np.zeros(problem.dim)
        for m, rng in enumerate(rngs, 1):
            acc += problem.stoch_grad(x, rng, worker=m)
        x = x - step * (acc / num_workers)
        _check_divergence(x, r)
    return x


def run_live(problem, schedule: StepSchedule, num_workers: int, horizon: int,
             x0, seed: int = 0, *, divergence_norm: float = 1e12) -> RunRecord:
    """Actually-threaded variant of the asynchronous loop.

    Each thread computes gradients against its own dispatch snapshot and a
    single lock serializes (number the arrival, update, re-dispatch). No
    arrival happens before every worker holds its first gradient, so the
    first threads cannot end the run before the last ones start. The arrival
    order is scheduler-dependent and therefore not reproducible; the
    realized order becomes an ArrivalTrace, whose delays must equal the ones
    recorded under the lock, and its replay through run_async must
    reproduce the live iterate exactly.
    """
    if horizon < 1:
        raise LedgerError(f"need at least one arrival, got {horizon}")
    x0 = _start(problem, x0, num_workers)
    rngs = worker_streams(seed, num_workers)
    dispatched_at = [0] * num_workers   # iteration each worker was last dispatched at
    lock = threading.Lock()
    started = threading.Barrier(num_workers)   # passed once all first gradients exist
    shared = {"x": x0.copy(), "failure": None}
    rows = []          # (worker, tau, arrival time); arrival k is row k
    t0 = _time.perf_counter()

    def work(m: int) -> None:
        point = x0.copy()   # dispatched at iteration 0
        while True:
            try:
                g = problem.stoch_grad(point, rngs[m - 1], worker=m)
            except Exception as exc:   # surface worker failures in the caller
                with lock:
                    shared["failure"] = shared["failure"] or exc
                started.abort()   # and release the workers waiting at the start
                return
            # only this thread writes its entry, so 0 means a first gradient
            if dispatched_at[m - 1] == 0:
                try:
                    started.wait()
                except threading.BrokenBarrierError:
                    return
            with lock:
                if shared["failure"] is not None or len(rows) >= horizon:
                    return
                k = len(rows) + 1
                tau = k - dispatched_at[m - 1]
                dispatched_at[m - 1] = k
                try:
                    shared["x"] = shared["x"] - schedule.gamma(tau) * g
                    _check_divergence(shared["x"], k, divergence_norm)
                except Exception as exc:
                    shared["failure"] = exc
                    return
                rows.append((m, tau, _time.perf_counter() - t0))
                point = shared["x"].copy()   # re-dispatched at iteration k

    threads = [threading.Thread(target=work, args=(m,)) for m in range(1, num_workers + 1)]
    try:
        for t in threads:
            t.start()
    except BaseException:
        started.abort()   # the threads already running must not wait for the rest
        raise
    for t in threads:
        t.join()
    if shared["failure"] is not None:
        raise shared["failure"]

    workers, taus, times = (np.array(column) for column in zip(*rows))
    trace = ArrivalTrace(workers, np.maximum.accumulate(times),
                         num_workers).check_recorded_taus(taus)
    # replay the realized order; this recomputes identical updates and fills
    # in the eventual stepsizes
    record = run_async(problem, trace, schedule, x0, seed, divergence_norm=divergence_norm)
    if not np.allclose(record.x_final, shared["x"], rtol=0, atol=0, equal_nan=True):
        raise LedgerError("live run and its replay disagree")
    return record
