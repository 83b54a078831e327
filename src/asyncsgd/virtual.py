"""Virtual-iterate diagnostics for delayed-gradient runs.

The virtual sequence applies every dispatched gradient immediately, priced at
its eventual stepsize, instead of waiting for it to arrive. The gap between
the real iterate and the virtual one is then exactly the eventual-stepsize
weighted sum of the gradients currently in flight, one term per worker other
than the one arriving. Recomputing that sum from the run's bookkeeping and
comparing against the recorded gap catches wrong dispatch pointers, wrong
stepsize assignment and missed in-flight gradients at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optimizers import RunRecord


class DiagnosticsError(ValueError):
    """Run record lacks what the virtual-iterate tracker needs."""


INJECTABLE_BUGS = ("prev-off-by-one",)


@dataclass
class VirtualTrack:
    """Virtual sequence and identity residuals for iterations 1..K."""

    virtual_iterates: np.ndarray   # (K, d), virtual point at each iteration
    gaps: np.ndarray               # (K, d), real minus virtual
    rel_residuals: np.ndarray      # (K,), ||gap - in-flight sum|| / (1 + ||gap||)
    terms_per_iteration: np.ndarray  # (K,), in-flight summands, always M - 1

    @property
    def max_rel_residual(self) -> float:
        return float(np.max(self.rel_residuals)) if len(self.rel_residuals) else 0.0


def track(record: RunRecord, attach: bool = False, inject: str | None = None) -> VirtualTrack:
    """Rebuild the virtual sequence from a diagnostics-mode run record.

    Needs a record produced with diagnostics=True (memoized gradients and
    iterate history). inject enables a deliberately seeded bookkeeping bug,
    used to demonstrate that the identity check fails loudly: the
    "prev-off-by-one" mode reads each in-flight gradient's eventual stepsize
    from the slot one dispatch later. attach=True stores the residual column
    on the record for CSV export.
    """
    if record.gradients is None or record.iterates is None:
        raise DiagnosticsError("record was not produced with diagnostics=True")
    if inject is not None and inject not in INJECTABLE_BUGS:
        raise DiagnosticsError(f"unknown injected bug {inject!r}; known: {INJECTABLE_BUGS}")

    horizon = record.horizon
    m_count = record.num_workers
    dim = record.x0.shape[0]

    def eventual_step(dispatch: int, worker: int) -> float:
        if inject == "prev-off-by-one":
            slot = min(dispatch + 1, horizon)
            return float(record.gamma_hats[slot - 1])
        if dispatch == 0:
            return float(record.gamma_hat_initial[worker - 1])
        return float(record.gamma_hats[dispatch - 1])

    virtual = np.empty((horizon, dim))
    gaps = np.empty((horizon, dim))
    residuals = np.empty(horizon)
    terms = np.empty(horizon, dtype=np.int64)

    # dispatch 0 happened for every worker; each of those gradients was either
    # consumed during the run or evaluated terminally, so all M are memoized
    xhat = record.x0.copy()
    for m in range(1, m_count + 1):
        xhat = xhat - float(record.gamma_hat_initial[m - 1]) * record.gradients[(0, m)]

    dispatched_at = [0] * m_count
    for i in range(horizon):
        k = i + 1
        arriving = int(record.workers[i])
        virtual[i] = xhat
        gap = record.iterates[k] - xhat
        recon = np.zeros(dim)
        count = 0
        for m in range(1, m_count + 1):
            if m == arriving:
                continue
            p = dispatched_at[m - 1]
            recon += eventual_step(p, m) * record.gradients[(p, m)]
            count += 1
        gaps[i] = gap
        terms[i] = count
        residuals[i] = float(np.linalg.norm(gap - recon)) / (1.0 + float(np.linalg.norm(gap)))
        if k < horizon:
            # advance by the gradient dispatched at k, priced at its eventual step
            xhat = xhat - float(record.gamma_hats[k - 1]) * record.gradients[(k, arriving)]
        dispatched_at[arriving - 1] = k

    out = VirtualTrack(virtual, gaps, residuals, terms)
    if attach:
        record.vres = residuals
    return out


def max_identity_residual(record: RunRecord, inject: str | None = None) -> float:
    """Largest relative mismatch between recorded gaps and their in-flight sums."""
    return track(record, inject=inject).max_rel_residual
