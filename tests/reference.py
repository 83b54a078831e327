"""Independent reference implementations used as test oracles.

Everything here recomputes quantities from their definitions (quadratic-time
scans, eager gradient evaluation, explicit history) rather than reusing the
library's incremental bookkeeping, so agreement is meaningful. The heap
event loop and the per-step replay are the straightforward forms of what the
library computes as columns before its update loop.
"""

import heapq
import math

import numpy as np

from asyncsgd import DelayLedger, LedgerError, RandomSpeeds, RunRecord


def prev_arrival(workers, k, m):
    """Largest j < k with workers[j-1] == m, else 0. Definitional scan."""
    for j in range(k - 1, 0, -1):
        if workers[j - 1] == m:
            return j
    return 0


def next_arrival(workers, k, m):
    """Smallest j >= k with workers[j-1] == m, else None."""
    for j in range(k, len(workers) + 1):
        if workers[j - 1] == m:
            return j
    return None


def naive_delays(workers):
    """tau(k) for every arrival, straight from the definition."""
    return [k - prev_arrival(workers, k, workers[k - 1]) for k in range(1, len(workers) + 1)]


def naive_budget_slack(workers, num_workers):
    """Worst-case slack of the delay budget over all prefixes, via
    definitional prev scans: for every horizon K', the delays of arrivals
    strictly before K' plus the in-flight delays of all workers at K' must
    stay within K' * num_workers."""
    total = len(workers)
    slack = None
    for horizon in range(1, total + 2):
        past = sum(k - prev_arrival(workers, k, workers[k - 1])
                   for k in range(1, horizon))
        inflight = sum(horizon - prev_arrival(workers, horizon, m)
                       for m in range(1, num_workers + 1))
        margin = horizon * num_workers - past - inflight
        slack = margin if slack is None else min(slack, margin)
    return slack


def eventual_stepsizes(workers, gammas, schedule, horizon):
    """gamma_hat for dispatches 1..K and for the initial dispatches, from the
    next-arrival definition plus the terminal-delay rule."""
    num_workers = max(workers)
    hats = np.empty(horizon)
    for k in range(1, horizon + 1):
        nxt = next_arrival(workers, k + 1, workers[k - 1])
        hats[k - 1] = gammas[nxt - 1] if nxt is not None else \
            schedule.gamma(horizon, max(1, horizon - k))
    initial = np.empty(num_workers)
    for m in range(1, num_workers + 1):
        nxt = next_arrival(workers, 1, m)
        initial[m - 1] = gammas[nxt - 1] if nxt is not None else \
            schedule.gamma(horizon, max(1, horizon))
    return hats, initial


def eager_async_run(problem, workers, schedule, x0, seed):
    """Algorithm reference: gradients drawn eagerly at dispatch time.

    Returns (iterates x_0..x_K, gammas, gradients keyed by dispatch iter and
    worker). Uses the same per-worker substream layout as the library; draw
    order per worker is its dispatch order either way, so the trajectories
    must agree bitwise with the lazy implementation.
    """
    workers = [int(w) for w in workers]
    num_workers = max(workers)
    rngs = [np.random.default_rng([seed, m]) for m in range(1, num_workers + 1)]
    x = np.array(x0, dtype=np.float64)
    inflight = {}
    gradients = {}
    for m in range(1, num_workers + 1):
        g = problem.stoch_grad(x, rngs[m - 1], worker=m)
        inflight[m] = (0, g)
        gradients[(0, m)] = g
    xs = [x.copy()]
    gammas = []
    for k, m in enumerate(workers, start=1):
        _, g = inflight[m]
        tau = k - prev_arrival(workers, k, m)
        gamma = schedule.gamma(k, tau)
        x = x - gamma * g
        xs.append(x.copy())
        gammas.append(gamma)
        g_new = problem.stoch_grad(x, rngs[m - 1], worker=m)
        inflight[m] = (k, g_new)
        gradients[(k, m)] = g_new
    return np.array(xs), np.array(gammas), gradients


def naive_virtual(x0, workers, gradients, hats, initial, horizon):
    """Virtual sequence straight from its definition."""
    num_workers = max(workers)
    xhat = np.array(x0, dtype=np.float64)
    for m in range(1, num_workers + 1):
        xhat = xhat - initial[m - 1] * gradients[(0, m)]
    out = [xhat.copy()]
    for k in range(1, horizon):
        xhat = xhat - hats[k - 1] * gradients[(k, workers[k - 1])]
        out.append(xhat.copy())
    return np.array(out)


def sequential_sgd(problem, horizon, gamma_fn, x0, seed):
    """Plain single-worker SGD loop, the degenerate baseline."""
    rng = np.random.default_rng([seed, 1])
    x = np.array(x0, dtype=np.float64)
    for k in range(1, horizon + 1):
        g = problem.stoch_grad(x, rng, worker=1)
        x = x - gamma_fn(k) * g
    return x


def scalar_samplers(model):
    """One zero-argument compute-time sampler per worker, drawing one value
    per call from the worker's own (seed, worker id) stream."""
    if not isinstance(model, RandomSpeeds):
        return [lambda s=s: s for s in model.seconds]
    draws = []
    for m, mean in enumerate(model.means, start=1):
        rng = np.random.default_rng([model.seed, m])
        if model.distribution == "exponential":
            draws.append(lambda rng=rng, mean=mean: rng.exponential(mean))
        else:
            mu_log = math.log(mean) - 0.5 * model.sigma**2
            draws.append(lambda rng=rng, mu=mu_log, sg=model.sigma: rng.lognormal(mu, sg))
    return draws


def heap_trace(model, horizon):
    """Event-loop reference for simulate_trace: a heap holds each worker's
    next finish time, popped in (time, worker id) order; a popped worker's
    next finish time is its last one plus one fresh draw. Delays come from a
    ledger replay. Returns (workers, taus, times)."""
    draws = scalar_samplers(model)
    heap = [(draws[m - 1](), m) for m in range(1, len(draws) + 1)]
    heapq.heapify(heap)
    ledger = DelayLedger(len(draws))
    workers, taus, times = [], [], []
    for _ in range(horizon):
        t, m = heapq.heappop(heap)
        workers.append(m)
        taus.append(ledger.record_arrival(m)[1])
        times.append(t)
        heapq.heappush(heap, (t + draws[m - 1](), m))
    return (np.array(workers, dtype=np.int64), np.array(taus, dtype=np.int64),
            np.array(times, dtype=np.float64))


def replay_async(problem, trace, schedule, x0, seed, *, keep_iterates=False,
                 diagnostics=False, metrics=True, divergence_norm=1e12):
    """Per-step reference for run_async: every arrival checks its delay,
    calls stoch_grad at the stored dispatch point and gamma(k, tau), and
    keeps a (dispatch iteration, dispatch point copy) pair per worker."""
    horizon, m_count = trace.horizon, trace.num_workers
    keep_iterates = keep_iterates or diagnostics
    x = np.array(x0, dtype=np.float64).copy()
    rngs = [np.random.default_rng([seed, m]) for m in range(1, m_count + 1)]
    fstar = problem.fstar if problem.fstar is not None else 0.0
    state = [(0, x.copy()) for _ in range(m_count)]
    gammas = np.empty(horizon)
    gamma_hats = np.full(horizon, np.nan)
    gamma_hat_initial = np.full(m_count, np.nan)
    fgaps = np.empty(horizon) if metrics else None
    gradnorms2 = np.empty(horizon) if metrics else None
    iterates = np.empty((horizon + 1, problem.dim)) if keep_iterates else None
    if keep_iterates:
        iterates[0] = x
    gradients = {} if diagnostics else None
    uniform_sum = np.zeros(problem.dim)
    weighted_sum = np.zeros(problem.dim)
    evals = 0
    for i in range(horizon):
        k = i + 1
        m = int(trace.workers[i])
        p, xp = state[m - 1]
        if k - p != trace.taus[i]:
            raise LedgerError(f"trace row {k}: delay {trace.taus[i]} inconsistent with replay")
        g = problem.stoch_grad(xp, rngs[m - 1], worker=m)
        evals += 1
        gamma = schedule.gamma(k, int(trace.taus[i]))
        x = x - gamma * g
        if not float(x @ x) <= divergence_norm**2:
            raise RuntimeError(f"diverged at {k}")
        gammas[i] = gamma
        if p == 0:
            gamma_hat_initial[m - 1] = gamma
        else:
            gamma_hats[p - 1] = gamma
            weighted_sum += gamma * xp
        uniform_sum += x
        if metrics:
            fgaps[i] = problem.value(x) - fstar
            mean_grad = problem.grad(x)
            gradnorms2[i] = float(mean_grad @ mean_grad)
        if keep_iterates:
            iterates[k] = x
        if diagnostics:
            gradients[(p, m)] = g
        state[m - 1] = (k, x.copy())
    for m in range(1, m_count + 1):
        p, xp = state[m - 1]
        gamma = schedule.gamma(horizon, max(1, horizon - p))
        if p == 0:
            gamma_hat_initial[m - 1] = gamma
        else:
            gamma_hats[p - 1] = gamma
            weighted_sum += gamma * xp
        if diagnostics and p < horizon:
            gradients[(p, m)] = problem.stoch_grad(xp, rngs[m - 1], worker=m)
            evals += 1
    return RunRecord(
        num_workers=m_count, workers=trace.workers, taus=trace.taus, gammas=gammas,
        gamma_hats=gamma_hats, gamma_hat_initial=gamma_hat_initial, times=trace.times,
        fgaps=fgaps, gradnorms2=gradnorms2, x0=np.array(x0, dtype=np.float64),
        x_final=x, uniform_sum=uniform_sum, weighted_sum=weighted_sum, seed=seed,
        schedule=schedule, iterates=iterates, gradients=gradients, gradient_evals=evals)
