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
time, and runs are reproducible regardless of interleaving.

The loop then applies the updates x_k = x_{k-1} - gamma_k g(x_{p_k}) a ready
block at a time. A ready block is a greedy run of arrivals a+1..b whose
dispatch iterations are all at most a, so every gradient in it is taken at
an iterate that exists before the block; a worker arrives at most once in a
block, so it holds at most M arrivals. A block costs one batched
`sample_grads` call at its dispatch points and one `np.subtract.accumulate`
over [x_a; gamma_k g_k], which subtracts in the order of k, so each iterate
equals the per-step one bit for bit; a block of one arrival takes a scalar
path into the same buffer, as the batched path costs several times more per
arrival (every block of a trace with one straggler has length 1). Each
block's iterates pass the divergence test before the next block takes a
gradient, so no gradient is ever taken at a point that failed it. The
iterates of a chunk of _CHUNK arrivals fill one buffer, and a table of
dispatch points holds every worker's point at the chunk's start followed by
that buffer (O((M + _CHUNK) d) memory). Once per chunk, the buffer gives the
running sums for the averaged outputs (added row by row in the order of k,
so no iterate history is needed for them), the per-step metric columns,
filled only on request (`metrics=True`), and the iterate history, kept only
on request.

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


# arrivals replayed as one chunk: their gradient samples are drawn as one
# block, their iterates fill one (_CHUNK + 1, d) buffer, and the running sums
# and the metric columns read that buffer once. Bounds the working memory
# to a few _CHUNK x dim arrays however long the trace is.
_CHUNK = 1024


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
    return samples


def _ready_blocks(prevs: list[int], start: int) -> list[int]:
    """Bounds, relative to `start`, of the ready blocks of the arrivals
    start, start+1, ...: greedy runs of arrivals whose dispatch iterations
    are all at most the run's first index, so that every gradient of a run
    is taken at an iterate that exists before the run starts."""
    bounds, first = [0], start
    for i, p in enumerate(prevs, start):
        if p > first:
            bounds.append(i - start)
            first = i
    bounds.append(len(prevs))
    return bounds


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., added one row at a time in that order."""
    stack = np.concatenate((total[None], rows))
    return np.add.accumulate(stack, axis=0, out=stack)[-1].copy()


def _check_rows(rows: np.ndarray, first_k: int, limit: float) -> None:
    """_check_divergence on each row, row j being iteration first_k + j. One
    sum of squares screens the rows: at most half of limit^2, it bounds every
    row's x.dot(x) by limit^2 whatever the rounding, and nan or inf fail it."""
    flat = rows.ravel()
    if not flat.dot(flat) <= 0.5 * limit * limit:
        for j, row in enumerate(rows):
            _check_divergence(row, first_k + j, limit)


def run_async(problem, trace: ArrivalTrace, schedule: StepSchedule, x0, seed: int = 0,
              *, keep_iterates: bool = False, diagnostics: bool = False,
              metrics: bool = False, divergence_norm: float = 1e12) -> RunRecord:
    """Replay an arrival trace through the delayed-update loop.

    Everything the trace fixes is computed as a column before the loop: the
    dispatch iteration of every arriving gradient, its stepsize and
    eventual stepsize, and its gradient sample. The updates are then applied
    a ready block at a time (see the module docstring). The fgaps and
    gradnorms2 columns are None unless metrics=True asks for them, which
    costs one `point_metrics` call (a `value` and a full `grad`) per update.
    diagnostics=True keeps every dispatched gradient in one (M+K-1, d) array:
    row m-1 for worker m's dispatch at iteration 0, row M+k-1 for the
    dispatch at iteration k < K. The rows still in flight at the end are
    evaluated then, from the same substreams. The virtual-iterate checker
    reads this store; diagnostics implies keep_iterates. Raises
    DivergedError at the first iteration whose iterate norm passes
    divergence_norm or goes non-finite, before any gradient is taken at
    that iterate. A block of several arrivals computes its later rows from
    gradients at earlier points before the test sees a diverged row, and
    only that arithmetic runs with numpy's overflow warnings off; the
    problem's own code runs with the caller's settings.
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
    # rows 0..M-1: every worker's dispatch point when a chunk starts; rows
    # M, M+1, ...: the chunk's iterates x_start, x_start+1, ..., so that the
    # dispatch point of each of the chunk's arrivals is one row of the table
    size = min(_CHUNK, horizon)
    table = np.empty((m_count + size + 1, problem.dim))
    table[:] = x
    points, buf = table[:m_count], table[m_count:]
    dispatched = np.empty((size, problem.dim))   # x_{p_k} of the chunk's arrivals

    for start in range(0, horizon, _CHUNK):
        stop = min(start + _CHUNK, horizon)
        n = stop - start
        workers = trace.workers[start:stop]
        chunk_prevs = prevs[start:stop]
        gamma_rows = gammas[start:stop, None]
        samples = _draw_chunk(problem, rngs, workers)
        sample_list = ([None] * n if samples is None
                       else samples.tolist() if samples.ndim == 1 else samples)
        src = np.where(chunk_prevs >= start, m_count + chunk_prevs - start, workers - 1)
        if diagnostics:
            store = np.where(chunk_prevs > 0, m_count + chunk_prevs - 1, workers - 1)
        src_list, worker_list = src.tolist(), workers.tolist()
        gamma_list = gammas[start:stop].tolist()
        bounds = _ready_blocks(chunk_prevs.tolist(), start)
        # every block is checked before the next one takes gradients, so no
        # gradient is taken at a point that failed the divergence test
        for a, b in zip(bounds, bounds[1:]):
            if b - a == 1:
                xp = dispatched[a] = table[src_list[a]]
                g = sample_grad(xp, sample_list[a], worker_list[a])
                if diagnostics:
                    gradients[store[a]] = g
                np.subtract(buf[a], gamma_list[a] * g, out=buf[a + 1])
                _check_divergence(buf[a + 1], start + a + 1, divergence_norm)
                continue
            # indices are in range; "clip" lets take write straight into out
            xps = table.take(src[a:b], axis=0, out=dispatched[a:b], mode="clip")
            g = problem.sample_grads(xps, None if samples is None else samples[a:b],
                                     workers[a:b])
            if diagnostics:
                gradients[store[a:b]] = g
            # x_k = x_{k-1} - gamma_k g_k, subtracted in the order of k; the
            # rows after a diverged one are computed before the check sees it
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(g, gamma_rows[a:b], out=buf[a + 1:b + 1])
                np.subtract.accumulate(buf[a:b + 1], axis=0, out=buf[a:b + 1])
                _check_rows(buf[a + 1:b + 1], start + a + 1, divergence_norm)

        iters = buf[1:n + 1]
        mask = chunk_prevs > 0
        weighted_sum = _running_sum(weighted_sum, gamma_rows[mask] * dispatched[:n][mask])
        uniform_sum = _running_sum(uniform_sum, iters)
        if metrics:
            for j in range(n):
                fgaps[start + j], gradnorms2[start + j] = point_metrics(problem, iters[j])
        if keep_iterates:
            iterates[start + 1:stop + 1] = iters
        # a worker that arrived in the chunk was re-dispatched at its last arrival
        latest = np.zeros(m_count, dtype=np.int64)
        latest[workers - 1] = np.arange(1, n + 1)
        arrived = latest > 0
        points[arrived] = buf[latest[arrived]]
        buf[0] = buf[n]
    x = buf[0].copy()

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
    first threads cannot end the run before the last ones start. After
    that, each arrival goes to whichever thread wins the lock, so the
    arrival order, and how many arrivals each worker gets, depend on the
    thread scheduler and differ from run to run; with many workers some may
    never arrive at all. That is the nature of a live run. What is
    guaranteed is its replay: the realized order becomes an ArrivalTrace,
    whose delays must equal the ones recorded under the lock, and its replay
    through run_async must reproduce the live iterate exactly.
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
