"""Optimizer loops: asynchronous trace replay, a synchronous minibatch
baseline, and a thread-backed live executor whose realized arrival order is
replayed through the same engine.

The asynchronous replay is a column engine. The arrival trace is fixed
before a run starts, and with it everything that depends only on the trace:
the dispatch iteration p_k of every arriving gradient and its delay (the
trace's `prevs` and `taus` columns, derived once when the trace was built),
its stepsize gamma_k = gamma(tau_k), every gradient's eventual stepsize (the
stepsize it is consumed with, or the terminal-delay stepsize if it is still
in flight when the run ends; one column over the dispatch slots), and the
gradient noise. The noise comes from the problem's split oracle: `draw`
takes a worker's samples from its own seed substream as one block, sized
from the worker's arrival count, and `sample_grad` evaluates one gradient
given its sample. Block draws equal one-at-a-time draws, so a gradient
evaluated lazily at arrival time against the iterate stored at dispatch is
identical to eager evaluation at dispatch time, and runs are reproducible
regardless of interleaving; the gradients still in flight at the end are
evaluated, when asked for, by the same draws and batched calls.

The loop then applies the updates x_k = x_{k-1} - gamma_k g(x_{p_k}) a ready
block at a time. A ready block is a greedy run of arrivals a+1..b whose
dispatch iterations are all at most a, so every gradient in it is taken at
an iterate that exists before the block; a worker arrives at most once in a
block, so it holds at most M arrivals. A block costs one batched
`sample_grads` call at its dispatch points and one `np.subtract.accumulate`
over [x_a; gamma_k g_k], which subtracts in the order of k, so each iterate
equals the per-step one bit for bit. That is about 20 numpy calls per
block, more than a block of two arrivals saves, so a single run replays
its blocks of at most _SCALAR_BLOCK arrivals one arrival at a time
instead, into the same buffer: one scalar loop over each run of
consecutive short blocks (every block of a trace with one straggler has
length 1, and two equal workers make every block two long). Per arrival,
that loop reads the table row of its dispatch point, its worker, stepsize
and sample from lists built once per chunk. Up to _FLOAT_DIM dimensions it
keeps x_{k-1} as Python floats and makes one call per arrival: the step
function the problem's `step_oracle` gave for the run returns x_k =
[p - g_i * gamma_k ...] as a list, in numpy's order (an override of the
oracle gets a sample block's rows as lists, made once per chunk too). The
loop writes x_k into its table row once and screens it with math.hypot.
Past _FLOAT_DIM, where that O(d) interpreted arithmetic costs more than
numpy's per-call floor, it takes g_k from `sample_grad`, forms gamma_k g_k
in one scratch row, so it never writes into the array the problem
returned, and screens x_k with np.vdot, one call whatever d is; a step
gamma_k ||g_k|| past half the float range is formed with numpy's overflow
warnings off. Neither screen warns, and a point that fails one is tested
exactly. Each block's iterates pass the divergence test before the next
block takes a gradient, so no gradient is ever taken at a point that
failed it. The iterates of a chunk of _CHUNK arrivals fill one buffer, and
a table of dispatch points holds every worker's point at the chunk's start
followed by that buffer (O((M + _CHUNK) d) memory). Once per chunk, the
buffer gives the running sums for the averaged outputs (added row by row
in the order of k, so no iterate history is needed for them), the
per-step metric columns, filled only on request (`metrics=True`), and the
iterate history, kept only on request. Under diagnostics the gradients of
the chunk's scalar arrivals enter the store then too, from one
`sample_grads` call at their dispatch points, which the table still holds.
Samples are drawn a span of whole chunks at a time, one `draw` call per
worker arriving in it. The engine learns a problem's sample size only from
a draw, so the first span holds as many arrivals as a chunk, and each later
one as many as fit in the bytes of that first span as d-float samples, never
fewer: d-float samples (additive noise) keep the chunk's span, and one
integer per arrival (a row index) is drawn d times as far ahead within the
same bytes, in fewer calls.

Seeds are a batch axis. The seeds of repetitions that replay one trace
differ only in their gradient noise, so `run_async(..., seeds=[...])`
replays the trace once for all of them, arrival-major: a row of the chunk
table, (M + chunk + 1, R*d) for R seeds, holds one point per seed side by
side, so a block's dispatch points are one `take` reshaped to (L*R, d) rows
for one `sample_grads` call (row-independent stacked matvecs and row dots,
so the same arithmetic as R separate calls), its iterates are one slice
accumulated along the arrival axis, and the running sums are R*d wide. Each
seed's record is bit-identical to its own run; a single run is the R = 1
case of the same loop. A batch's chunk holds at most 2 * _CHUNK rows of
seeds, and long seed lists go in batches of at most _SEED_BATCH seeds, so
the working memory stays within about twice a single run's. Each per-seed
output (metric columns, iterate history, gradient store) is one seed-major
array, filled once per chunk or block, whose row r is seed r's record. One
sum of squares screens a block's rows of every seed for divergence
(`_check_rows` holds the one test); a batch that fails it is replayed seed
by seed, so a diverging seed raises what its own run raises, and still no
gradient is taken at a point that failed the test.

Runs over prefixes of one trace are a second batch axis, beside the seeds.
A sweep replays one speed model at several horizons, and the trace of
horizon K is then the first K arrivals of the longest trace, as a seed's
gradient samples are the first ones of its longer run. So
`run_async(problem, [trace_1, ...], [schedule_1, ...], x0, ...)` replays the
longest trace once for H runs, each with its own schedule and horizon:
run h's seed r is point h*R + r of a table row, the runs' stepsizes are one
column each, broadcast over their seeds, and the runs share every ready
block, sample draw, `sample_grads` call and divergence screen. A run leaves
the batch at a chunk boundary placed at its horizon: its in-flight
gradients are priced at its terminal stepsizes there, its record is built,
and its columns leave the table and the running sums. Runs are kept
longest first, so the runs still in the batch are always the first ones.
A chunk holds at most 2 * _CHUNK // (H*R) arrivals for the H runs still in
it, so a batch's working memory stays about that of a seed batch. The
samples are drawn once for every run, in spans sized as for the seeds
alone, so H runs make the draw calls of one. The engine
checks in O(K) that each trace is a prefix of the longest rather than
assume it, and takes diagnostics of one run only: a run that left would
draw its in-flight samples from streams the others still read.

The minibatch baseline returns only its final iterate, and the live executor
records only the arrival order, the delays and the arrival times, which its
replay through `run_async` checks and turns into a RunRecord.
"""

from __future__ import annotations

import math
import sys
import threading
import time as _time
from dataclasses import dataclass

import numpy as np

from .problems import Problem, point_metrics
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

# a single run replays its ready blocks of at most this many arrivals one
# arrival at a time (blocks of three gain at d = 50 and lose at d = 10)
_SCALAR_BLOCK = 2

# up to this dimension the scalar loop keeps its iterate as Python floats;
# past it, its O(d) interpreted arithmetic costs more than numpy's per-call
# floor (tools/scalar_dim.py times both loops per d)
_FLOAT_DIM = 6


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


def _ready_blocks(prevs: list[int], start: int) -> list[int]:
    """Bounds, relative to `start`, of the ready blocks of the arrivals
    start, start+1, ...: greedy runs of arrivals whose dispatch iterations
    are all at most the run's first index, so that every gradient of a run
    is taken at an iterate that exists before the run starts.

    A block's arrivals were dispatched no later than its start, so the
    prefix maximum of `prevs` before a block starting at s stays below
    start + s, and the next block starts at the first arrival whose prefix
    maximum passes start + s."""
    n = len(prevs)
    ends = np.searchsorted(np.maximum.accumulate(prevs), np.arange(start, start + n),
                           side="right").tolist()
    bounds, s = [0], 0
    while s < n:
        s = ends[s]
        bounds.append(s)
    return bounds


def _scalar_runs(bounds: list[int], longest: int) -> tuple[list[int], list[bool]]:
    """The blocks of `bounds` regrouped as runs: each maximal run of
    consecutive blocks of at most `longest` arrivals is one run, flagged
    True, and each longer block is a run of its own, flagged False. Returns
    the runs' bounds and flags."""
    bounds = np.asarray(bounds)
    short = np.diff(bounds) <= longest
    keep = np.ones(len(bounds), dtype=bool)
    keep[1:-1] = ~(short[:-1] & short[1:])   # a bound between two short blocks goes
    return bounds[keep].tolist(), short[keep[:-1]].tolist()


def _slot(dispatch: np.ndarray, workers: np.ndarray, m_count: int) -> np.ndarray:
    """Slot of each dispatch: m-1 for worker m's at iteration 0, else M+p-1."""
    return np.where(dispatch > 0, m_count + dispatch - 1, workers - 1)


def _running_sum(total: np.ndarray, rows: np.ndarray, scale=None) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., each row times `scale` if given, added
    one row at a time in that order. Works in `rows`, which it overwrites
    (rows[0] + total equals total + rows[0] bit for bit)."""
    if not len(rows):
        return total
    if scale is not None:
        rows *= scale
    rows[0] += total
    return np.add.accumulate(rows, axis=0, out=rows)[-1].copy()


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
    """Replay an arrival trace through the delayed-update loop.

    Everything the trace fixes is computed as a column before the loop: the
    dispatch iteration of every arriving gradient, its stepsize and
    eventual stepsize, and its gradient sample. The updates are then applied
    a ready block at a time (see the module docstring). The fgaps and
    gradnorms2 columns are None unless metrics=True asks for them, which
    costs one `point_metrics` call (a `value` and a full `grad`) per update.
    diagnostics=True keeps every dispatched gradient in one (M+K-1, d) array
    indexed by slot: row m-1 for worker m's dispatch at iteration 0, row M+k-1
    for the dispatch at iteration k < K, the rows still in flight at the end
    evaluated then, by one draw and one batched call. The virtual-iterate
    checker reads this store; diagnostics implies keep_iterates. Raises
    DivergedError at the first iteration whose iterate norm passes
    divergence_norm or goes non-finite, before any gradient is taken at that
    iterate, and LedgerError before any work if divergence_norm is not
    positive or its square is not finite. The engine's own arithmetic does
    not warn on the way to that error. A block on the batched path (a
    batch's, or a single run's block of more than _SCALAR_BLOCK arrivals)
    computes its later rows from gradients at earlier points before the test
    sees a diverged row, with numpy's overflow warnings off. The scalar loop
    screens each iterate with math.hypot or np.vdot, neither of which warns,
    and tests a point that fails the screen with the warnings off. Up to
    _FLOAT_DIM dimensions its updates come from the problem's step oracle,
    whose built-in forms do Python float arithmetic after their numpy
    matrix-vector call and never warn past it; past _FLOAT_DIM it forms a
    step gamma_k g_k that may pass the float range with the warnings off.
    The problem's own code runs with the caller's settings. Under
    diagnostics, the scalar loop's gradients enter the store once per chunk,
    from one `sample_grads` call, after its updates.

    seeds=[s1, s2, ...] replays the trace once for all of them, in batches of
    at most _SEED_BATCH, and returns a list of RunRecords (see _Records), the
    one of seed s equal bit for bit to run_async(..., seed=s); `seed` is then
    left at 0. The records share the arrays the trace fixes, and those of one
    batch share its seed-major outputs row by row. A diverging list raises
    the error its first diverging seed raises on its own.

    A list of traces with a list of as many schedules makes several runs
    over prefixes of one trace, run h replaying traces[h] with schedules[h]
    (a sweep's horizons): they share every ready block, sample draw,
    gradient call and divergence screen up to each one's horizon, and a
    chunk holds at most 2 * _CHUNK // rows arrivals, rows being the runs
    still in the batch times the seeds. The result is a list with one entry
    per run, each what the call with that run's trace and schedule alone
    returns, bit for bit; a diverging list raises what its first diverging
    run raises alone. Raises LedgerError if a trace is not a prefix of the
    longest, naming the first row that differs, or if diagnostics are asked
    of several runs: a run that ended would draw its in-flight samples from
    streams the others still read.
    """
    options = dict(keep_iterates=keep_iterates or diagnostics, diagnostics=diagnostics,
                   metrics=metrics, divergence_norm=divergence_norm)
    several = isinstance(trace, (list, tuple))
    if several and (not isinstance(schedule, (list, tuple)) or len(schedule) != len(trace)):
        raise TypeError("pass one schedule per trace")
    runs = list(zip(trace, schedule)) if several else [(trace, schedule)]
    if not runs:
        return _Records()
    if seeds is None:
        try:
            records = [own[0] for own in _replay(problem, runs, x0, [seed], **options)]
        except _Unscreened:   # several runs: each replayed on its own, in order
            records = [run_async(problem, t, s, x0, seed, **options) for t, s in runs]
        return _Records(records) if several else records[0]
    if seed != 0:
        raise TypeError("pass either seed or seeds, not both")
    seeds = list(seeds)
    records = [_Records() for _ in runs]
    try:
        for i in range(0, len(seeds), _SEED_BATCH):
            batch = seeds[i:i + _SEED_BATCH]
            try:
                done = _replay(problem, runs, x0, batch, **options)
            except _Unscreened:
                if several:
                    raise
                done = [[_replay(problem, runs, x0, [s], **options)[0][0] for s in batch]]
            for kept, new in zip(records, done):
                kept += new
    except _Unscreened:   # several runs: each replayed on its own, in order
        records = [run_async(problem, t, s, x0, seeds=seeds, **options) for t, s in runs]
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


def _table(first: np.ndarray, m_count: int, size: int) -> np.ndarray:
    """A chunk table whose M + 1 first rows are `first` (the workers'
    dispatch points and x_start; or `first` in each, if it is one row),
    followed by `size` rows for a chunk's iterates."""
    table = np.empty((m_count + 1 + size, first.shape[-1]))
    table[:m_count + 1] = first
    return table


def _replay(problem, runs: list, x0, seeds: list, *, keep_iterates: bool,
            diagnostics: bool, metrics: bool, divergence_norm: float) -> list[list[RunRecord]]:
    """run_async's engine: one replay of H runs over prefixes of one trace
    for R seeds at once, laid out arrival-major (see the module docstring);
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
    table = None
    # samples are drawn a span of whole chunks at a time, for every run at
    # once: the arrivals drawn_from..drawn-1. The first span holds as many
    # arrivals as a chunk of the seeds alone; each later one as many as fit
    # in the bytes the first would take as d-float samples, never fewer, so a
    # sample of one integer per arrival is drawn d times as far ahead
    span = max(1, min(_CHUNK, 2 * _CHUNK // n_seeds))
    drawn = 0
    # the scalar loop on Python floats, through the problem's step oracle, or
    # on numpy rows; an override of the step oracle takes a sample block's
    # rows as lists
    floats = dim <= _FLOAT_DIM
    listed = floats and type(problem).step_oracle is not Problem.step_oracle
    step = problem.step_oracle() if floats else None
    sample_grad = problem.sample_grad
    # the numpy loop's scratch row for gamma_k g_k, and the scalar loops'
    # screens: a point whose norm or square sum is within them passes the
    # test (see _check_rows); neither math.hypot nor np.vdot warns. A step
    # gamma_k ||g_k|| within half the float range cannot overflow
    scaled = np.empty(dim)
    screen, hypot = divergence_norm * math.sqrt(0.5), math.hypot
    square, vdot, sqrt = 0.5 * divergence_norm * divergence_norm, np.vdot, math.sqrt
    safe = 0.5 * sys.float_info.max
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
            table = _table(np.tile(x0, rows) if table is None
                           else table[:m_count + 1, :rows * dim],
                           m_count, min(chunk, horizon - start))
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
        # a single run replays its short blocks in runs, one arrival at a time
        bounds, scalar = _scalar_runs(_ready_blocks(chunk_prevs, start),
                                      _SCALAR_BLOCK if rows == 1 else 0)
        if any(scalar):
            # per arrival of lo..hi-1, the span of the scalar runs, as Python
            # lists: its dispatch point's table row, its worker, stepsize and
            # sample (a row of a 2-D block as a list, or as a row view)
            lo = bounds[scalar.index(True)]
            hi = bounds[len(scalar) - scalar[::-1].index(True)]
            src_list, worker_list = src[lo:hi].tolist(), workers[lo:hi].tolist()
            gamma_list = gammas[0][start + lo:start + hi].tolist()
            sample_rows = ([None] * (hi - lo) if samples is None
                           else samples[lo:hi].tolist() if samples.ndim == 1 or listed
                           else samples[lo:hi])
        # every block is checked before the next one takes gradients, so no
        # gradient is taken at a point that failed the divergence test
        for a, b, alone in zip(bounds, bounds[1:], scalar):
            if alone:
                # x_k = x_{k-1} - gamma_k g_k, each k tested before the next,
                # by a screen that never warns; only a point that fails it is
                # tested exactly, with numpy's overflow warnings off
                run = slice(a - lo, b - lo)
                if floats:   # Python float arithmetic never warns
                    x = buf[a].tolist()
                    for k, point, sample, m, gamma in zip(
                            range(a + 1, b + 1), src_list[run], sample_rows[run],
                            worker_list[run], gamma_list[run]):
                        x = step(x, table[point], sample, m, gamma)
                        buf[k] = x
                        if not hypot(*x) <= screen:
                            with np.errstate(over="ignore", invalid="ignore"):
                                _check_rows(buf[k:k + 1], start + k, divergence_norm)
                    continue
                for k, x_prev, x, point, sample, m, gamma in zip(
                        range(a + 1, b + 1), buf[a:b], buf[a + 1:b + 1], src_list[run],
                        sample_rows[run], worker_list[run], gamma_list[run]):
                    g = sample_grad(table[point], sample, m)   # read, never written
                    if sqrt(vdot(g, g)) * gamma <= safe:
                        np.multiply(g, gamma, out=scaled)
                    else:   # gamma_k g_k may pass the float range
                        with np.errstate(over="ignore", invalid="ignore"):
                            np.multiply(g, gamma, out=scaled)
                    # x_{k-1} is within the limit, far inside the float range,
                    # so the difference overflows no more than gamma_k g_k did
                    np.subtract(x_prev, scaled, out=x)
                    if not vdot(x, x) <= square:
                        with np.errstate(over="ignore", invalid="ignore"):
                            _check_rows(x[None], start + k, divergence_norm)
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
                np.subtract.accumulate(buf[a:b + 1], axis=0, out=buf[a:b + 1])
                _check_rows(buf[a + 1:b + 1], start + a + 1, divergence_norm, rows)

        if diagnostics and any(scalar):
            # the scalar loops' gradients go into the store at once, after
            # every point they were taken at passed the test: one batched
            # call over those arrivals, equal to sample_grad row for row
            alone = np.flatnonzero(np.repeat(scalar, np.diff(bounds)))
            gradients[0][store[alone]] = problem.sample_grads(
                table.take(src[alone], axis=0), None if samples is None else samples[alone],
                workers[alone])
        samples = sample_rows = None
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
