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
sums, so no iterate history is needed for them.
"""

from __future__ import annotations

import csv
import math
import threading
import time as _time
from dataclasses import dataclass, field

import numpy as np

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
    """

    num_workers: int
    workers: np.ndarray
    taus: np.ndarray
    gammas: np.ndarray
    gamma_hats: np.ndarray
    gamma_hat_initial: np.ndarray
    times: np.ndarray
    fgaps: np.ndarray | None
    gradnorms2: np.ndarray | None
    x0: np.ndarray
    x_final: np.ndarray
    uniform_sum: np.ndarray
    weighted_sum: np.ndarray
    seed: int
    schedule: StepSchedule | None = None
    iterates: np.ndarray | None = None
    gradients: dict | None = None
    vres: np.ndarray | None = None
    gradient_evals: int = 0

    @property
    def horizon(self) -> int:
        return len(self.workers)

    def write_csv(self, path) -> None:
        cols = ["k", "worker", "tau", "gamma", "gamma_hat", "time", "fgap", "gradnorm2"]
        if self.vres is not None:
            cols.append("vres")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for i in range(self.horizon):
                row = [
                    i + 1,
                    int(self.workers[i]),
                    int(self.taus[i]),
                    repr(float(self.gammas[i])),
                    repr(float(self.gamma_hats[i])),
                    repr(float(self.times[i])),
                    repr(float(self.fgaps[i])) if self.fgaps is not None else "nan",
                    repr(float(self.gradnorms2[i])) if self.gradnorms2 is not None else "nan",
                ]
                if self.vres is not None:
                    row.append(repr(float(self.vres[i])))
                writer.writerow(row)


def _check_divergence(x: np.ndarray, k: int, limit: float) -> None:
    norm2 = float(x.dot(x))
    # a single comparison catches overflow, inf and nan alike
    if not norm2 <= limit * limit:
        raise DivergedError(k, math.sqrt(norm2) if math.isfinite(norm2) else math.inf)


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
              metrics: bool = True, divergence_norm: float = 1e12) -> RunRecord:
    """Replay an arrival trace through the delayed-update loop.

    Everything the trace fixes is computed as a column before the loop: the
    dispatch iteration of every arriving gradient, its stepsize and
    eventual stepsize, and its gradient sample. The loop itself only applies
    the updates in order. diagnostics=True additionally memoizes every
    dispatched gradient (the never-consumed in-flight ones are evaluated at
    the end from the same substreams), which the virtual-iterate checker
    consumes; it implies keep_iterates. Raises DivergedError when the
    iterate norm passes divergence_norm or goes non-finite.
    """
    horizon = trace.horizon
    m_count = trace.num_workers
    if horizon < 1:
        raise LedgerError("need a trace with at least one arrival")
    pool = getattr(problem, "num_workers", None)
    if pool is not None and pool != m_count:
        raise LedgerError(
            f"problem defines {pool} worker objectives but trace has {m_count} workers"
        )
    if diagnostics:
        keep_iterates = True

    x = np.array(x0, dtype=np.float64).copy()
    if x.shape != (problem.dim,):
        raise LedgerError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    rngs = worker_streams(seed, m_count)
    fstar = problem.fstar if problem.fstar is not None else 0.0

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
    gradients = {} if diagnostics else None
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
                fgaps[k - 1] = problem.value(x) - fstar
                mean_grad = problem.grad(x)
                gradnorms2[k - 1] = float(mean_grad.dot(mean_grad))
            if keep_iterates:
                iterates[k] = x
            if diagnostics:
                gradients[(p, m)] = g
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
            gradients[(p, m)] = problem.stoch_grad(points[m - 1], rngs[m - 1], worker=m)
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
        x0=np.array(x0, dtype=np.float64),
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
                  seed: int = 0, *, seconds=None, keep_iterates: bool = False,
                  metrics: bool = True, divergence_norm: float = 1e12) -> RunRecord:
    """Lockstep baseline: every round averages one gradient from each worker.

    Wall-clock time per round is the slowest worker's compute time (1.0 if no
    speeds are given). The record reuses the asynchronous row layout with
    worker=0 and tau=1 on every round row, and all eventual stepsizes equal
    to the constant step.
    """
    if rounds < 1:
        raise LedgerError(f"need at least one round, got {rounds}")
    if num_workers < 1:
        raise LedgerError(f"need at least one worker, got {num_workers}")
    if not math.isfinite(step) or step <= 0:
        raise LedgerError(f"step must be positive and finite, got {step}")
    round_time = 1.0 if seconds is None else max(float(s) for s in seconds)
    x = np.array(x0, dtype=np.float64).copy()
    if x.shape != (problem.dim,):
        raise LedgerError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    rngs = worker_streams(seed, num_workers)
    fstar = problem.fstar if problem.fstar is not None else 0.0

    fgaps = np.empty(rounds) if metrics else None
    gradnorms2 = np.empty(rounds) if metrics else None
    iterates = np.empty((rounds + 1, problem.dim)) if keep_iterates else None
    if keep_iterates:
        iterates[0] = x
    uniform_sum = np.zeros(problem.dim)
    weighted_sum = np.zeros(problem.dim)
    evals = 0

    for r in range(1, rounds + 1):
        acc = np.zeros(problem.dim)
        for m in range(1, num_workers + 1):
            acc += problem.stoch_grad(x, rngs[m - 1], worker=m)
            evals += 1
        g = acc / num_workers
        x = x - step * g
        _check_divergence(x, r, divergence_norm)
        uniform_sum += x
        weighted_sum += step * x
        if metrics:
            fgaps[r - 1] = problem.value(x) - fstar
            mean_grad = problem.grad(x)
            gradnorms2[r - 1] = float(mean_grad @ mean_grad)
        if keep_iterates:
            iterates[r] = x

    return RunRecord(
        num_workers=num_workers,
        workers=np.zeros(rounds, dtype=np.int64),
        taus=np.ones(rounds, dtype=np.int64),
        gammas=np.full(rounds, step),
        gamma_hats=np.full(rounds, step),
        gamma_hat_initial=np.full(num_workers, step),
        times=round_time * np.arange(1, rounds + 1, dtype=np.float64),
        fgaps=fgaps,
        gradnorms2=gradnorms2,
        x0=np.array(x0, dtype=np.float64),
        x_final=x,
        uniform_sum=uniform_sum,
        weighted_sum=weighted_sum,
        seed=seed,
        schedule=None,
        iterates=iterates,
        gradient_evals=evals,
    )


def run_live(problem, schedule: StepSchedule, num_workers: int, horizon: int,
             x0, seed: int = 0, *, keep_iterates: bool = True,
             divergence_norm: float = 1e12) -> RunRecord:
    """Actually-threaded variant of the asynchronous loop.

    Each thread computes gradients against its own dispatch snapshot and a
    single lock serializes (number the arrival, update, re-dispatch). The
    arrival order is scheduler-dependent and therefore not reproducible; the
    realized order becomes an ArrivalTrace, whose delays must equal the ones
    recorded under the lock, and its replay through run_async must
    reproduce the live iterate exactly.
    """
    if horizon < 1:
        raise LedgerError(f"need at least one arrival, got {horizon}")
    x0 = np.array(x0, dtype=np.float64)
    if x0.shape != (problem.dim,):
        raise LedgerError(f"x0 must have shape ({problem.dim},), got {x0.shape}")
    pool = getattr(problem, "num_workers", None)
    if pool is not None and pool != num_workers:
        raise LedgerError(
            f"problem defines {pool} worker objectives but run asks for {num_workers}"
        )
    rngs = worker_streams(seed, num_workers)
    dispatched_at = [0] * num_workers   # iteration each worker was last dispatched at
    lock = threading.Lock()
    shared = {"x": x0.copy(), "failure": None}
    rows = []          # (worker, tau, gamma, arrival time); arrival k is row k
    t0 = _time.perf_counter()

    def work(m: int) -> None:
        point = x0.copy()   # dispatched at iteration 0
        while True:
            try:
                g = problem.stoch_grad(point, rngs[m - 1], worker=m)
            except Exception as exc:   # surface worker failures in the caller
                with lock:
                    shared["failure"] = shared["failure"] or exc
                return
            with lock:
                if shared["failure"] is not None or len(rows) >= horizon:
                    return
                k = len(rows) + 1
                tau = k - dispatched_at[m - 1]
                dispatched_at[m - 1] = k
                try:
                    gamma = schedule.gamma(k, tau)
                    shared["x"] = shared["x"] - gamma * g
                    _check_divergence(shared["x"], k, divergence_norm)
                except Exception as exc:
                    shared["failure"] = exc
                    return
                rows.append((m, tau, gamma, _time.perf_counter() - t0))
                point = shared["x"].copy()   # re-dispatched at iteration k

    threads = [threading.Thread(target=work, args=(m,)) for m in range(1, num_workers + 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if shared["failure"] is not None:
        raise shared["failure"]

    workers = np.array([r[0] for r in rows], dtype=np.int64)
    taus = np.array([r[1] for r in rows], dtype=np.int64)
    times = np.array([r[3] for r in rows])
    trace = ArrivalTrace(workers, np.maximum.accumulate(times),
                         num_workers).check_recorded_taus(taus)
    # replay the realized order; this recomputes identical updates and fills
    # in metrics, eventual stepsizes and (optionally) iterate history
    record = run_async(problem, trace, schedule, x0, seed,
                       keep_iterates=keep_iterates, divergence_norm=divergence_norm)
    if not np.allclose(record.x_final, shared["x"], rtol=0, atol=0, equal_nan=True):
        raise LedgerError("live run and its replay disagree")
    return record
