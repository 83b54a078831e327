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
_BLOCK iterations with no per-step Python work. The virtual iterates are one
np.subtract.accumulate per block. Each block prices its rows once, in one
scratch array: the M rows the workers hold at its start, its own dispatches
and a zero row. The row each worker holds at each arrival is a forward fill
of the block's arrivals, with the arriving worker pointed at the zero row,
so the in-flight sum is a plain add of one gathered row per worker, in id
order, which is the order a per-step loop adds in. The fill is one scatter
and one in-place np.maximum.accumulate in an (M, _BLOCK + 1) index buffer
allocated once per call: each block resets its first column to codes above
every index the previous block left there, so no other reset is needed.
_BLOCK = 256 keeps the scratch arrays within a few hundred KiB at M = 64,
d = 50 (tools/track_block.py times the block sizes). The residuals take
every row's squared norm as one stacked row dot, equal to a.dot(a). The
output therefore equals that loop (`reference_track` in tests/reference.py)
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optimizers import RunRecord
from .problems import _row_dots


class DiagnosticsError(ValueError):
    """Run record lacks what the virtual-iterate tracker needs."""


INJECTABLE_BUGS = ("prev-off-by-one",)

# iterations per block of the tracker; bounds its scratch arrays to a few
# (_BLOCK, d), (M, _BLOCK + 1) and (M + _BLOCK + 1, d) arrays however long
# the run is
_BLOCK = 256


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

    held = np.arange(m_count)         # store row each worker holds in flight
    # held rows, then the block's own dispatches, then the zero row, all priced
    priced = np.zeros((m_count + _BLOCK + 1, dim))
    zero = m_count + _BLOCK
    # local[m, i], the row of `priced` worker m+1 holds at arrival i, is a
    # forward fill in one buffer that every block reuses: column 0 codes the
    # held rows, column i+1 arrival i's own dispatch, and one maximum
    # accumulate carries each code forward. Codes are rows plus `zero`, so a
    # block's codes pass every row the previous block left behind
    index = np.zeros((m_count, _BLOCK + 1), dtype=np.intp)
    held_codes = zero + np.arange(m_count)
    own_codes = zero + m_count + np.arange(_BLOCK)
    columns = np.arange(_BLOCK + 1)
    for start in range(0, horizon, _BLOCK):
        stop = min(start + _BLOCK, horizon)
        n = stop - start
        # x_hat_k = x_hat_{k-1} - gamma_hat_{k-1} g_{k-1}, subtracted in sequence
        # from the last virtual point of the previous block
        lo = max(start - 1, 0)
        steps = slice(m_count + lo, m_count + stop - 1)
        np.subtract.accumulate(
            np.concatenate([virtual[lo:lo + 1], price[steps, None] * store[steps]]),
            axis=0, out=virtual[lo:stop])
        # local row m_count + i is the dispatch at arrival i; the dispatch at K
        # is never stored, and never read before the next block
        own = slice(m_count + start, m_count + stop - 1)
        np.multiply(recon_price[held, None], store[held], out=priced[:m_count])
        np.multiply(recon_price[own, None], store[own], out=priced[m_count:m_count + n - 1])
        arriving = record.workers[start:stop] - 1
        local = index[:, :n + 1]
        local[:, 0] = held_codes
        local[arriving, columns[1:n + 1]] = own_codes[:n]
        np.maximum.accumulate(local, axis=1, out=local)
        local -= zero
        held = np.concatenate([held, np.arange(m_count + start, m_count + stop)])[local[:, n]]
        # the worker arriving at i holds nothing in flight there
        local[arriving, columns[:n]] = zero
        # in-flight sum added worker by worker in id order, as the per-step loop
        # adds (a reduce over a gathered (n, M, d) block adds pairwise and differs
        # in the last bits); recon starts at +0.0 and never becomes -0.0, so
        # adding the zero row is the same as skipping the term
        recon = np.zeros((n, dim))
        for rows in local[:, :n]:
            recon += priced.take(rows, axis=0)
        gap = np.subtract(record.iterates[start + 1:stop + 1], virtual[start:stop],
                          out=gaps[start:stop])
        miss = np.subtract(gap, recon, out=recon)
        # the norm of a vector is sqrt(a.dot(a)), as np.linalg.norm takes it; the
        # stacked row dot equals a.dot(a) row by row
        residuals[start:stop] = (np.sqrt(_row_dots(miss, miss))
                                 / (1.0 + np.sqrt(_row_dots(gap, gap))))

    return VirtualTrack(virtual, gaps, residuals)
