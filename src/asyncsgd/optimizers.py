"""Optimizer loops: asynchronous trace replay, a synchronous minibatch
baseline, and a thread-backed live executor whose realized arrival order is
replayed through the same engine.

`run_async` replays a fixed arrival trace through the delayed update
x_k = x_{k-1} - gamma(tau_k) g(x_{p_k}): a ready block at a time, on a
batched path or, for a single run's short blocks, in one call of the
compiled scalar run that `problems.scalar_step` gives; a chunk of _CHUNK
arrivals at a time; and over a batch of seeds and of runs over prefixes of
one trace at once.
README's `run_async` paragraphs describe that mechanism. Its contracts:

- Bit identity. Every record equals, bit for bit, the per-step loop that
  evaluates each gradient at its dispatch iterate with samples drawn one at
  a time from the worker's own substream; each seed of a batch and each run
  of a prefix batch equals its own call.
- Divergence. DivergedError is raised at the first iterate whose norm
  passes the limit or is not finite, before any gradient is taken there,
  and the engine's own arithmetic does not warn on the way. A batch that
  fails its screen is replayed run by run and seed by seed, so a diverging
  list raises what its first diverging run and seed raise alone.
- Memory. A run works in O((M + _CHUNK) d) whatever its length, and a batch
  of seeds or runs in about twice that, seed lists going in batches of at
  most _SEED_BATCH.

The minibatch baseline returns only its final iterate, and the live executor
records only the arrival order, the delays and the arrival times, which its
replay through `run_async` checks and turns into a RunRecord.
"""

from __future__ import annotations

import itertools
import math
import threading
import time as _time
from dataclasses import dataclass

import numpy as np

from .problems import point_metrics, scalar_step
from .scheduler import ArrivalTrace, LedgerError, _fits, _write_csv
from .schedules import StepSchedule


class DivergedError(RuntimeError):
    """Iterates blew up or went non-finite."""

    def __init__(self, iteration: int, norm: float):
        super().__init__(f"iterates diverged at iteration {iteration} (norm {norm:.3e})")
        self.iteration = iteration
        self.norm = norm

    def __reduce__(self):   # a sweep's pool sends the error back to the parent
        return type(self), (self.iteration, self.norm)


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
        and a `vres` column if given: one virtual-gap residual per row."""
        nan = np.broadcast_to(np.nan, self.horizon)
        columns = dict(worker=self.workers, tau=self.taus, gamma=self.gammas,
                       gamma_hat=self.gamma_hats, time=self.times,
                       fgap=nan if self.fgaps is None else self.fgaps,
                       gradnorm2=nan if self.gradnorms2 is None else self.gradnorms2)
        if vres is not None:
            columns["vres"] = np.asarray(vres, dtype=np.float64)
        _write_csv(path, self.horizon, columns)


class _Records(list):
    """The RunRecords of run_async(..., seeds=...), one per seed, in order,
    or the results of run_async over several traces, one per run.

    To code that counts what one replay did, by the arrivals in its `workers`
    column and its `gradient_evals`, a batch of R runs of K arrivals reads as
    one run of R*K arrivals: `workers` chains the records' columns (built
    when asked for) and `gradient_evals` adds theirs up, through nested
    lists too.
    """

    @property
    def workers(self) -> np.ndarray:
        return np.concatenate([r.workers for r in self] or [np.empty(0, np.int64)])

    @property
    def gradient_evals(self) -> int:
        return sum(r.gradient_evals for r in self)


def _start(problem, x0, num_workers: int, limit: float) -> np.ndarray:
    """The start point as a new float array, after checking that the run has
    a worker, that a problem with per-worker objectives has one for each of
    them, that x0 has the problem's dimension and that the divergence limit
    is positive with a finite square (past about 1.34e154, every iterate short
    of nan would pass the test)."""
    if not (limit > 0 and math.isfinite(float(limit) * float(limit))):
        raise LedgerError(f"divergence_norm must be positive with a finite square, got {limit}")
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


# arrivals replayed as one chunk: their iterates fill one (_CHUNK + 1, d)
# buffer, and the running sums and the metric columns read that buffer once;
# sample draws span whole chunks. Bounds the working memory to a few
# _CHUNK x dim arrays however long the trace is (a batch of R seeds takes
# 2 * _CHUNK // R arrivals per chunk, and H runs over one trace
# 2 * _CHUNK // (H*R), when that is fewer).
_CHUNK = 1024

# values per row from which a running sum is one np.add.reduce, and a ready
# block's update one np.subtract per row; placed by tools/batch_width.py
_SUM_WIDTH = 8
_UPDATE_WIDTH = 144


def _draw_chunk(problem, streams: dict, seeds: list, workers: np.ndarray):
    """The gradient samples consumed by a run of arrivals, one row per
    arrival and seed, arrival-major: row i*R + r belongs to arrival i of the
    run of seeds[r] (R = len(seeds)).

    Each worker's samples come from its own generator as one block, in its
    arrival order, and are scattered back to the rows it arrives at. Returns
    None if the problem's gradients are exact. streams[m] holds worker m's
    generators, those of worker_streams(seed, M) for each seed; they are made
    when the worker first draws, so idle workers cost nothing.
    """
    order = np.argsort(workers, kind="stable")
    counts = np.bincount(workers)   # as long as the largest id drawing, not M
    ids = np.flatnonzero(counts)
    ids, counts = ids.tolist(), counts[ids].tolist()
    for m in ids:
        if m not in streams:
            streams[m] = [np.random.default_rng([seed, m]) for seed in seeds]
    samples = None
    for r in range(len(seeds)):
        blocks = [problem.draw(streams[m][r], c) for m, c in zip(ids, counts)]
        if blocks[0] is None:
            return None
        drawn = np.concatenate(blocks)
        if samples is None:
            samples = np.empty((len(workers), len(seeds)) + drawn.shape[1:], drawn.dtype)
        samples[order, r] = drawn
    return samples.reshape((-1,) + samples.shape[2:])


def _runs(prevs: np.ndarray, start: int, longest: int) -> tuple[list[int], list[bool]]:
    """The arrivals start, start+1, ... cut into runs: returns their bounds,
    relative to `start`, and a flag per run, True for a scalar run and False
    for a ready block. The ready block that opens at s is the greedy run of
    arrivals whose dispatch iterations are all at most start + s, so that
    every gradient of the block is taken at an iterate that exists before it
    starts; every arrival before s was dispatched earlier than that, so the
    prefix maximum of `prevs` finds its end. Each block longer than
    `longest` is a run of its own, found where the previous run ends, and
    the arrivals between two such blocks are one scalar run: none of them
    opens a block longer than `longest` (if none at all does, that one run
    is returned before any column is listed). With longest = 0 the runs are
    the greedy chain of ready blocks from the first arrival."""
    n = len(prevs)
    ends = np.searchsorted(np.maximum.accumulate(prevs), np.arange(start, start + n),
                           side="right")
    at = np.arange(n)
    # the first arrival at or after each s that opens a block longer than `longest`
    opens = np.minimum.accumulate(np.where(ends - at > longest, at, n)[::-1])[::-1]
    if opens[0] == n:
        return [0, n], [True]
    opens, ends, bounds, scalar = opens.tolist(), ends.tolist(), [0], []
    while (s := bounds[-1]) < n:
        scalar.append(opens[s] > s)
        bounds.append(opens[s] if opens[s] > s else ends[s])
    return bounds, scalar


def _slot(dispatch: np.ndarray, workers: np.ndarray, m_count: int) -> np.ndarray:
    """Slot of each dispatch: m-1 for worker m's at iteration 0, else M+p-1."""
    return np.where(dispatch > 0, m_count + dispatch - 1, workers - 1)


def _running_sum(total: np.ndarray, rows: np.ndarray, scale=None) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., each row times `scale` if given, added
    one row at a time in that order, in `rows`, which it overwrites. From
    _SUM_WIDTH values a row (a row of one it would sum pairwise) that is one
    np.add.reduce, which starts from +0.0 and so turns a first row of -0.0 to
    +0.0: exact as a running sum starts at +0.0, never -0.0, nor is rows[0]."""
    if not len(rows):
        return total
    if scale is not None:
        rows *= scale
    rows[0] += total
    if rows[0].size >= _SUM_WIDTH:
        return np.add.reduce(rows, axis=0)
    return np.add.accumulate(rows, axis=0, out=rows)[-1].copy()


def _update(block: np.ndarray):
    """block[i] = block[i-1] - block[i] for i = 1, 2, ..., in that order."""
    if block.shape[1] < _UPDATE_WIDTH:
        return np.subtract.accumulate(block, axis=0, out=block)
    for prev, row in itertools.pairwise(block):
        np.subtract(prev, row, row)


class _Unscreened(Exception):
    """A block of a batch of several runs or seeds failed the divergence screen."""


def _check_rows(rows: np.ndarray, first_k: int, limit: float, n_points: int = 1) -> None:
    """The divergence test: raise DivergedError at the first row j whose
    x.dot(x) passes limit^2 or is not finite, row j being iteration
    first_k + j of n_points points side by side, one per run and seed. One
    sum of squares screens the rows: at most half of limit^2, it bounds
    every point's x.dot(x) by limit^2 whatever the rounding, and nan or inf
    fail it. A single point that fails the screen tests its rows one at a
    time; a batch of several raises _Unscreened, to be replayed run by run
    and seed by seed."""
    flat = rows.ravel()
    if not flat.dot(flat) <= 0.5 * limit * limit:
        if n_points > 1:
            raise _Unscreened
        for k, x in enumerate(rows, first_k):
            norm2 = float(x.dot(x))
            # a single comparison catches overflow, inf and nan alike
            if not norm2 <= limit * limit:
                raise DivergedError(k, math.sqrt(norm2) if math.isfinite(norm2) else math.inf)


# seeds replayed as one batch: the chunk table, the samples and the iterate
# buffer grow with the batch, and so do the records it holds at once
_SEED_BATCH = 16

# the divergence limit of a runner that is not given one
_DIVERGENCE_NORM = 1e12


def run_async(problem, trace, schedule, x0, seed: int = 0,
              *, seeds=None, keep_iterates: bool = False, diagnostics: bool = False,
              metrics: bool = False, divergence_norm: float = _DIVERGENCE_NORM):
    """Replay an arrival trace through the delayed-update loop (see the
    module docstring for the contracts and README for the mechanism).

    The fgaps and gradnorms2 columns are None unless metrics=True asks for
    them, which costs one `point_metrics` call per update. diagnostics=True
    keeps every dispatched gradient in one (M+K-1, d) array indexed by slot:
    row m-1 for worker m's dispatch at iteration 0, row M+k-1 for the
    dispatch at iteration k < K, the rows still in flight at the end
    evaluated then. The virtual-iterate checker reads this store;
    diagnostics implies keep_iterates. Raises DivergedError at the first
    iteration whose iterate norm passes divergence_norm or goes non-finite,
    and LedgerError before any work if divergence_norm is not positive or
    its square is not finite. The problem's own code runs with the caller's
    numpy warning settings.

    seeds=[s1, s2, ...] replays the trace once for all of them and returns a
    list of RunRecords (see _Records), the one of seed s equal to
    run_async(..., seed=s); `seed` is then left at 0. The records share the
    arrays the trace fixes, and those of one batch its seed-major outputs.

    A list of traces with a list of as many schedules makes several runs
    over prefixes of one trace, run h replaying traces[h] with schedules[h]
    (a sweep's horizons). The result is a list with one entry per run, each
    what the call with that run's trace and schedule alone returns. Raises
    LedgerError if a trace is not a prefix of the longest, naming the first
    row that differs, or if diagnostics are asked of several runs: a run
    that ended would draw its in-flight samples from streams the others
    still read.
    """
    options = dict(keep_iterates=keep_iterates or diagnostics, diagnostics=diagnostics,
                   metrics=metrics, divergence_norm=divergence_norm)
    several = isinstance(trace, (list, tuple))
    if several and (not isinstance(schedule, (list, tuple)) or len(schedule) != len(trace)):
        raise TypeError("pass one schedule per trace")
    runs = list(zip(trace, schedule)) if several else [(trace, schedule)]
    if not runs:
        return _Records()
    if seeds is not None and seed != 0:
        raise TypeError("pass either seed or seeds, not both")
    batch_seeds = [seed] if seeds is None else list(seeds)
    records, i = [_Records() for _ in runs], 0
    while i < len(batch_seeds):
        batch = batch_seeds[i:i + _SEED_BATCH]
        try:
            done = _replay(problem, runs, x0, batch, **options)
        except _Unscreened:
            # from this batch on, each run and each seed on its own, in order,
            # so that the first to diverge raises
            batch = batch_seeds[i:]
            done = [[_replay(problem, [run], x0, [s], **options)[0][0] for s in batch]
                    for run in runs]
        for kept, new in zip(records, done):
            kept += new
        i += len(batch)
    if seeds is None:
        records = [kept[0] for kept in records]
    return _Records(records) if several else records[0]


def _columns(trace: ArrivalTrace, schedule: StepSchedule, m_count: int):
    """A run's columns: its stepsizes gamma_k, each worker's last dispatch,
    the slot of that dispatch, and every dispatch's eventual stepsize by
    slot: the one it is consumed with at the worker's next arrival, or the
    terminal-delay one if it is still in flight when the run ends."""
    horizon = trace.horizon
    gammas = schedule.gammas(trace.taus)
    last = np.zeros(m_count, dtype=np.int64)
    last[trace.workers - 1] = np.arange(1, horizon + 1)
    ends = _slot(last, np.arange(1, m_count + 1), m_count)
    hats = np.full(m_count + horizon, np.nan)
    hats[_slot(trace.prevs, trace.workers, m_count)] = gammas
    hats[ends] = schedule.gammas(np.maximum(1, horizon - last))
    return gammas, last, ends, hats


def _check_prefix(trace: ArrivalTrace, longest: ArrivalTrace, run: int) -> None:
    """Raise LedgerError unless `trace` is the first rows of `longest`, its
    worker count included, naming the first row that differs."""
    if trace.num_workers != longest.num_workers:
        raise LedgerError(f"run {run}: a trace of {trace.num_workers} workers is not a "
                          f"prefix of the longest, of {longest.num_workers}")
    k = trace.horizon
    bad = np.flatnonzero((trace.workers != longest.workers[:k])
                         | (trace.times != longest.times[:k]))
    if bad.size:
        raise LedgerError(f"run {run}: trace row {bad[0] + 1} differs from the longest "
                          "trace, so the trace is not a prefix of it")


def _chunks(horizons: list[int], n_seeds: int):
    """(start, stop, active, chunk) for each chunk of a replay of runs whose
    horizons, longest first, are `horizons`, R = n_seeds seeds each: the
    first `active` runs are in the chunk, which holds at most `chunk`
    arrivals, chunk being _CHUNK or 2 * _CHUNK // (active * R) rows of runs
    and seeds if fewer. A chunk ends at each horizon, where its runs leave."""
    start = 0
    for active in range(len(horizons), 0, -1):
        end = horizons[active - 1]
        chunk = max(1, min(_CHUNK, 2 * _CHUNK // (active * n_seeds)))
        for a in range(start, end, chunk):
            yield a, min(a + chunk, end), active, chunk
        start = max(start, end)


def _replay(problem, runs: list, x0, seeds: list, *, keep_iterates: bool,
            diagnostics: bool, metrics: bool, divergence_norm: float) -> list[list[RunRecord]]:
    """run_async's engine: one replay of H runs over prefixes of one trace
    for R seeds at once, laid out arrival-major (see README);
    runs[h] is (trace, schedule) and the result's [h][r] the record of run h
    and seeds[r]. H = R = 1 is a single run."""
    # longest first: the runs still in the batch are always the first ones
    order = sorted(range(len(runs)), key=lambda h: -runs[h][0].horizon)
    traces = [runs[h][0] for h in order]
    trace, horizon = traces[0], traces[0].horizon
    m_count = trace.num_workers
    if traces[-1].horizon < 1:
        raise LedgerError("need a trace with at least one arrival")
    if diagnostics and len(runs) > 1:
        raise LedgerError("diagnostics need one run at a time: a run that ends would draw "
                          "its in-flight samples from the streams the other runs still read")
    for h, t in zip(order[1:], traces[1:]):
        _check_prefix(t, trace, h)
    x0 = _start(problem, x0, m_count, divergence_norm)
    dim, n_seeds, n_runs = problem.dim, len(seeds), len(runs)
    # no M-sized array (slot columns, chunk table, gradient store) passes (M+K+1) H R d
    if not _fits((int(m_count) + horizon + 1) * n_runs * n_seeds * dim):
        raise LedgerError(f"{m_count} workers are more than one array can hold")
    streams = {}   # worker id: its generators, one per seed (see _draw_chunk)
    prevs = trace.prevs
    columns = [_columns(t, runs[h][1], m_count) for h, t in zip(order, traces)]
    gammas = [c[0] for c in columns]

    # per run, seed-major, seed r's record taking row r: the metric columns,
    # the iterate history and the dense store of the evaluated dispatches
    outputs = [((np.empty((2, n_seeds, t.horizon)) if metrics else None),
                (np.empty((n_seeds, t.horizon + 1, dim)) if keep_iterates else None))
               for t in traces]
    gradients = np.empty((n_seeds, m_count + horizon - 1, dim)) if diagnostics else None
    # a row of the table, the buffer and the running sums holds one point per
    # run and seed, side by side: run h's seed r is point h*R + r, columns
    # (h*R + r)*d..(h*R + r + 1)*d - 1, and run h's R points are `width` wide
    width = n_seeds * dim
    uniform_sum = np.zeros((n_runs, width))
    weighted_sum = np.zeros((n_runs, width))
    # rows 0..M-1 of the table: every worker's dispatch point when a chunk
    # starts; rows M, M+1, ...: the chunk's iterates x_start, x_start+1, ...,
    # so that the dispatch point of each of the chunk's arrivals is one row
    table = views = None
    # samples are drawn a span of whole chunks at a time, for every run at
    # once: the arrivals drawn_from..drawn-1. The first span holds as many
    # arrivals as a chunk of the seeds alone; each later one as many as fit
    # in the bytes the first would take as d-float samples, never fewer, so a
    # sample of one integer per arrival is drawn d times as far ahead
    span = max(1, min(_CHUNK, 2 * _CHUNK // n_seeds))
    drawn = 0
    # a single run's scalar run, the longest block it takes, and whether it
    # takes a 2-D sample block's rows as tuples
    run, short, listed = scalar_step(problem)
    records = [None] * n_runs

    def leave(first: int, stop: int) -> None:
        """Finish runs first..stop-1, which end at this chunk boundary: add
        their in-flight gradients to the weighted sums at their terminal
        stepsizes in worker order and, under diagnostics, evaluate them from
        the same substreams, then build their records."""
        for h in range(first, stop):
            t, (gamma, last, ends, hats), (metric, history) = traces[h], columns[h], outputs[h]
            own = slice(h * width, (h + 1) * width)
            inflight = last > 0
            weighted = _running_sum(weighted_sum[h], points[inflight, own],
                                    hats[ends[inflight], None])
            pending = last < t.horizon   # all but the worker arriving at K
            if diagnostics and pending.any():
                g = problem.sample_grads(points[pending].reshape(-1, dim),
                                         _draw_chunk(problem, streams, seeds, ids[pending]),
                                         np.repeat(ids[pending], n_seeds))
                gradients.swapaxes(0, 1)[ends[pending]] = g.reshape(-1, n_seeds, dim)
            x, uniform, weighted = (v.reshape(n_seeds, dim)   # row r is seed r's
                                    for v in (buf[0, own].copy(), uniform_sum[h], weighted))
            evals = t.horizon + (int(pending.sum()) if diagnostics else 0)
            records[order[h]] = [RunRecord(
                num_workers=m_count,
                workers=t.workers,
                taus=t.taus,
                gammas=gamma,
                gamma_hats=hats[m_count:],
                gamma_hat_initial=hats[:m_count],
                times=t.times,
                fgaps=None if metric is None else metric[0, r],
                gradnorms2=None if metric is None else metric[1, r],
                x0=x0,
                x_final=x[r],
                uniform_sum=uniform[r],
                weighted_sum=weighted[r],
                schedule=runs[order[h]][1],
                iterates=None if history is None else history[r],
                gradients=None if gradients is None else gradients[r],
                gradient_evals=evals,
            ) for r in range(n_seeds)]

    ids = np.arange(1, m_count + 1)
    horizons, active = [t.horizon for t in traces], n_runs
    for start, stop, live, chunk in _chunks(horizons, n_seeds):
        if table is None or live < active:
            # the runs past `live` end here; the table narrows to the others,
            # and a chunk then holds more arrivals
            if live < active:
                leave(live, active)
            rows, active = live * n_seeds, live
            # (the workers' dispatch points and x_start, then the chunk's rows)
            first = np.tile(x0, rows) if table is None else table[:m_count + 1, :rows * dim]
            table = np.empty((m_count + 1 + min(chunk, horizon - start), rows * dim))
            table[:m_count + 1] = first
            first = views = None   # views of the old table would keep it alive
            points, buf = table[:m_count], table[m_count:]
            by_run = buf.reshape(len(buf), live, -1)   # a row's points, run by run
            uniform_sum, weighted_sum = uniform_sum[:live], weighted_sum[:live]
            # each run's stepsizes until the next one leaves, a column per run
            offset = 0 if live == 1 else start
            stepsizes = (gammas[0][:, None] if live == 1 else
                         np.stack([g[start:horizons[live - 1]] for g in gammas[:live]], axis=1))
        n = stop - start
        workers = trace.workers[start:stop]
        chunk_prevs = prevs[start:stop]
        # run h's stepsizes, broadcast over its seeds' columns
        gamma_rows = stepsizes[start - offset:stop - offset, :, None]
        if start == drawn:
            drawn_from, drawn = start, min(start + chunk * max(1, span // chunk),
                                           horizons[active - 1])
            drawn_samples = _draw_chunk(problem, streams, seeds, trace.workers[start:drawn])
            if start == 0 and drawn_samples is not None:   # the sample size is known now
                span = max(span, span * dim * 8 // max(1, drawn_samples[0].nbytes))
        # row i*H*R + h*R + r of the samples and the workers belongs to
        # arrival i of run h and seed r; every run has the same samples
        samples = (None if drawn_samples is None else
                   drawn_samples[(start - drawn_from) * n_seeds:(stop - drawn_from) * n_seeds])
        if samples is not None and active > 1:
            shape = samples.shape[1:]
            samples = np.broadcast_to(samples.reshape((n, 1, n_seeds) + shape),
                                      (n, active, n_seeds) + shape).reshape((-1,) + shape)
        point_workers = workers if rows == 1 else np.repeat(workers, rows)
        src = np.where(chunk_prevs >= start, m_count + chunk_prevs - start, workers - 1)
        store = _slot(chunk_prevs, workers, m_count) if diagnostics else None
        # a single run replays its short blocks in scalar runs
        bounds, scalar = _runs(chunk_prevs, start, short if rows == 1 else 0)
        if any(scalar):
            # a table that outlasts this chunk is read through a list of its
            # row views, made once, which indexes faster per arrival
            if views is None:
                views = list(table) if stop < horizon else table
            # per arrival of the chunk, as Python lists: its dispatch point's
            # table row, its worker and stepsize; and its sample, None, an item
            # of a 1-D block, or a row of a 2-D block, as a numpy row or, to a
            # problem's own oracle, a tuple made as the run takes it from one
            # flat list: never a list per row
            src_list, worker_list = src.tolist(), workers.tolist()
            gamma_list = gammas[0][start:stop].tolist()
            flat = (samples.ravel().tolist()
                    if samples is not None and (listed or samples.ndim == 1) else None)

            def sample_rows(a: int, b: int):
                if flat is None:
                    return itertools.repeat(None) if samples is None else samples[a:b]
                if samples.ndim == 1:
                    return flat[a:b]
                return zip(*[iter(flat[a * dim:b * dim])] * dim)
        # every block is checked before the next one takes gradients, so no
        # gradient is taken at a point that failed the divergence test
        for a, b, alone in zip(bounds, bounds[1:], scalar):
            if alone:
                # x_k = x_{k-1} - gamma_k g_k, each k screened before the
                # next; a point that fails the screen is tested exactly, with
                # numpy's overflow warnings off, and the run resumes after it
                while k := run(buf, a, views, src_list[a:b], sample_rows(a, b),
                               worker_list[a:b], gamma_list[a:b], divergence_norm):
                    with np.errstate(over="ignore", invalid="ignore"):
                        _check_rows(buf[k:k + 1], start + k, divergence_norm)
                    a = k
                continue
            block = slice(a * rows, b * rows)
            g = problem.sample_grads(table.take(src[a:b], axis=0).reshape(-1, dim),
                                     None if samples is None else samples[block],
                                     point_workers[block])
            if diagnostics:
                gradients.swapaxes(0, 1)[store[a:b]] = g.reshape(b - a, n_seeds, dim)
            # x_k = x_{k-1} - gamma_k g_k, subtracted in the order of k; the
            # rows after a diverged one are computed before the check sees it
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(g.reshape(b - a, active, -1), gamma_rows[a:b],
                            out=by_run[a + 1:b + 1])
                _update(buf[a:b + 1])
                _check_rows(buf[a + 1:b + 1], start + a + 1, divergence_norm, rows)

        if diagnostics and any(scalar):
            # the scalar loop's gradients go into the store at once, after
            # every point they were taken at passed the test: one batched
            # call over those arrivals, equal to sample_grad row for row
            alone = np.flatnonzero(np.repeat(scalar, np.diff(bounds)))
            gradients[0][store[alone]] = problem.sample_grads(
                table.take(src[alone], axis=0), None if samples is None else samples[alone],
                workers[alone])
        samples = flat = None
        if stop == drawn:   # freed before the running sums and the next draw
            drawn_samples = None

        # the table still holds every dispatch point of the chunk
        mask = chunk_prevs > 0
        weighted_sum = _running_sum(weighted_sum,
                                    table.take(src[mask], axis=0).reshape(-1, active, width),
                                    gamma_rows[mask])
        uniform_sum = _running_sum(uniform_sum, by_run[1:n + 1].copy())
        if metrics:   # row i*H*R + h*R + r of the iterates is arrival start + i of run h, seed r
            values = np.reshape([point_metrics(problem, x) for x in buf[1:n + 1].reshape(-1, dim)],
                                (n, active, n_seeds, 2))
            for h in range(active):
                outputs[h][0][:, :, start:stop] = values[:, h].T
        if keep_iterates:   # rows start..stop, buf[0] being x_start (x0 in the first chunk)
            history = buf[:n + 1].reshape(n + 1, active, n_seeds, dim)
            for h in range(active):
                outputs[h][1].swapaxes(0, 1)[start:stop + 1] = history[:, h]
        # a worker that arrived in the chunk was re-dispatched at its last arrival
        latest = np.zeros(m_count, dtype=np.int64)
        latest[workers - 1] = np.arange(1, n + 1)
        arrived = latest > 0
        points[arrived] = buf[latest[arrived]]
        buf[0] = buf[n]

    leave(0, active)
    return records


def run_minibatch(problem, num_workers: int, rounds: int, step: float, x0,
                  seed: int = 0) -> np.ndarray:
    """Lockstep baseline: every round averages one gradient from each worker
    and takes one step of size `step`. Returns the final iterate."""
    if rounds < 1:
        raise LedgerError(f"need at least one round, got {rounds}")
    if not math.isfinite(step) or step <= 0:
        raise LedgerError(f"step must be positive and finite, got {step}")
    x = _start(problem, x0, num_workers, _DIVERGENCE_NORM)
    rngs = worker_streams(seed, num_workers)
    for r in range(1, rounds + 1):
        acc = np.zeros(problem.dim)
        for m, rng in enumerate(rngs, 1):
            acc += problem.stoch_grad(x, rng, worker=m)
        with np.errstate(over="ignore", invalid="ignore"):
            x = x - step * (acc / num_workers)
            _check_rows(x[None], r, _DIVERGENCE_NORM)
    return x


def run_live(problem, schedule: StepSchedule, num_workers: int, horizon: int,
             x0, seed: int = 0, *, divergence_norm: float = _DIVERGENCE_NORM) -> RunRecord:
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
    x0 = _start(problem, x0, num_workers, divergence_norm)
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
                    with np.errstate(over="ignore", invalid="ignore"):
                        shared["x"] = shared["x"] - schedule.gamma(tau) * g
                        _check_rows(shared["x"][None], k, divergence_norm)
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
