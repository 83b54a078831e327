"""Virtual-iterate diagnostics for delayed-gradient runs.

The virtual sequence applies every dispatched gradient immediately, priced at
its eventual stepsize, instead of waiting for it to arrive. The gap between
the real iterate and the virtual one is then exactly the eventual-stepsize
weighted sum of the gradients currently in flight, one term per worker other
than the one arriving. Recomputing that sum from the run's bookkeeping and
comparing against the recorded gap catches wrong dispatch pointers, wrong
stepsize assignment and missed in-flight gradients at machine precision.

The tracker reads the run's dense gradient store, one (M+K-1, d) array in
which row m-1 holds worker m's dispatch at iteration 0 and row M+k-1 the
gradient dispatched at iteration k < K. It walks the horizon in blocks of
_BLOCK iterations with no per-step Python work: the virtual iterates are one
np.subtract.accumulate per block, the store row each worker holds is a
forward fill of the block's arrivals, and the in-flight sum is added worker
by worker in id order, which is the order a per-step loop adds in. Its
output therefore equals that loop (`reference_track` in tests/reference.py)
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizers import RunRecord


class DiagnosticsError(ValueError):
    """Run record lacks what the virtual-iterate tracker needs."""


INJECTABLE_BUGS = ("prev-off-by-one",)

# iterations per block of the tracker; bounds its scratch arrays to a few
# (_BLOCK, d) and (_BLOCK, M) arrays however long the run is
_BLOCK = 128


@dataclass
class VirtualTrack:
    """Virtual sequence and identity residuals for iterations 1..K."""

    virtual_iterates: np.ndarray   # (K, d), virtual point at each iteration
    gaps: np.ndarray               # (K, d), real minus virtual
    rel_residuals: np.ndarray      # (K,), ||gap - in-flight sum|| / (1 + ||gap||)

    @property
    def max_rel_residual(self) -> float:
        return float(np.max(self.rel_residuals)) if len(self.rel_residuals) else 0.0


def track(record: RunRecord, inject: str | None = None) -> VirtualTrack:
    """Rebuild the virtual sequence from a diagnostics-mode run record.

    Needs a record produced with diagnostics=True (the dense gradient store
    and iterate history). inject enables a deliberately seeded bookkeeping
    bug, used to demonstrate that the identity check fails loudly: the
    "prev-off-by-one" mode reads each in-flight gradient's eventual stepsize
    from the slot one dispatch later. The residual column is the run CSV's
    `vres` column: pass `rel_residuals` to `RunRecord.write_csv`.
    """
    if record.gradients is None or record.iterates is None:
        raise DiagnosticsError("record was not produced with diagnostics=True")
    if inject is not None and inject not in INJECTABLE_BUGS:
        raise DiagnosticsError(f"unknown injected bug {inject!r}; known: {INJECTABLE_BUGS}")

    horizon = record.horizon
    m_count = record.num_workers
    dim = record.x0.shape[0]
    store = record.gradients
    if store.shape != (m_count + horizon - 1, dim):
        raise DiagnosticsError(
            f"gradient store has shape {store.shape}, expected {(m_count + horizon - 1, dim)}")

    # eventual stepsize of every store row, as the virtual sequence prices it
    # and as the reconstruction reads it
    price = np.concatenate([record.gamma_hat_initial, record.gamma_hats[:horizon - 1]])
    if inject == "prev-off-by-one":
        # dispatch p is priced at slot min(p + 1, K), which is p + 1 for every
        # stored dispatch p < K
        recon_price = np.concatenate([np.full(m_count, record.gamma_hats[0]),
                                      record.gamma_hats[1:]])
    else:
        recon_price = price

    virtual = np.empty((horizon, dim))
    gaps = np.empty((horizon, dim))
    residuals = np.empty(horizon)

    # dispatch 0 happened for every worker; each of those gradients was either
    # consumed during the run or evaluated terminally, so all M rows are set
    head = np.concatenate([record.x0[None], price[:m_count, None] * store[:m_count]])
    virtual[0] = np.subtract.accumulate(head, axis=0)[-1]

    ids = np.arange(1, m_count + 1)
    held = np.arange(m_count)[None]   # store row each worker holds in flight
    for start in range(0, horizon, _BLOCK):
        stop = min(start + _BLOCK, horizon)
        # x_hat_k = x_hat_{k-1} - gamma_hat_{k-1} g_{k-1}, subtracted in sequence
        # from the last virtual point of the previous block
        lo = max(start - 1, 0)
        steps = slice(m_count + lo, m_count + stop - 1)
        np.subtract.accumulate(
            np.concatenate([virtual[lo:lo + 1], price[steps, None] * store[steps]]),
            axis=0, out=virtual[lo:stop])
        arriving = record.workers[start:stop]
        # each arrival k moves its worker's row to M+k-1; carry the rest forward
        moved = np.where(arriving[:, None] == ids,
                         m_count + np.arange(start, stop)[:, None], -1)
        rows = np.maximum.accumulate(np.concatenate([held, moved]), axis=0)
        held = rows[-1:]
        rows = rows[:-1]
        # in-flight sum over the workers other than the arriving one, added in
        # worker id order; a reduce over a gathered (n, M, d) block would add
        # pairwise (numpy does so at d=1) and differ in the last bits
        recon = np.zeros((stop - start, dim))
        for m in range(m_count):
            r = rows[:, m]
            np.add(recon, recon_price[r, None] * store[r], out=recon,
                   where=(arriving != m + 1)[:, None])
        gap = np.subtract(record.iterates[start + 1:stop + 1], virtual[start:stop],
                          out=gaps[start:stop])
        miss = gap - recon
        # the norm of a vector is sqrt(a.dot(a)), as np.linalg.norm takes it
        residuals[start:stop] = [math.sqrt(a.dot(a)) / (1.0 + math.sqrt(b.dot(b)))
                                 for a, b in zip(miss, gap)]

    return VirtualTrack(virtual, gaps, residuals)
