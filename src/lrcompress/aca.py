"""Partially-pivoted adaptive cross approximation, and the sweep engine it
shares with the blocked variant.

One residual column/row pair is eliminated per iteration: the row pivot is
the largest remaining entry of the current residual column, the next column
pivot the largest remaining entry of the residual row. ``_Sweep`` holds what
the plain and blocked sweeps have in common (shape checks, the accumulated
factors and their running norm mu, the used-row and used-column masks, the
history and the stopping tests); the two differ only in how they select
pivots and form each update. The running update norm nu and total norm mu
drive the nu < eps * mu stopping test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import full_range
from .linalg import (
    FactorBuffer,
    LowRankFactors,
    argmax_tied_sq,
    lr_norm_update,
    working_dtype,
)
from .seeding import initial_column_block, make_rng

__all__ = [
    "CONVERGED",
    "FULL_RANK",
    "RANK_CAP",
    "EXHAUSTED",
    "DEGENERATE",
    "IterationRecord",
    "PivotBlock",
    "ConvergenceHistory",
    "AcaConfig",
    "aca_compress",
]

CONVERGED = "converged"
FULL_RANK = "full_rank"
RANK_CAP = "rank_cap"
EXHAUSTED = "exhausted"
DEGENERATE = "degenerate"

# Pivot magnitudes at or below this fraction of the largest pivot seen so far
# terminate the sweep instead of dividing by noise.
PIVOT_RTOL = 1e-14


class IterationRecord(NamedTuple):
    k: int
    rank: int
    nu: float
    mu: float


@dataclass(frozen=True)
class PivotBlock:
    """Row/column index sets retained by one iteration; ``added`` is the
    effective rank increase (== len(rows) == len(cols))."""

    rows: tuple
    cols: tuple
    added: int


@dataclass
class ConvergenceHistory:
    """Per-iteration (k, rank, nu, mu) records plus the retained pivot
    blocks and the termination reason."""

    records: list = field(default_factory=list)
    blocks: list = field(default_factory=list)
    termination: str = CONVERGED

    @property
    def degenerate(self):
        return self.termination == DEGENERATE

    @property
    def iterations(self):
        return len(self.records)

    @property
    def row_pivots(self):
        return [i for b in self.blocks for i in b.rows]

    @property
    def col_pivots(self):
        return [j for b in self.blocks for j in b.cols]


def _checked_index(value, name):
    # an int or numpy integer; a float size would round or fail mid-sweep
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_config(config):
    # the tolerance, rank-cap and seed rules both sweep configs share
    if not 0.0 < config.tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {config.tol}")
    if config.max_rank is not None and _checked_index(config.max_rank, "max_rank") < 1:
        raise ValueError("max_rank must be positive when given")
    if _checked_index(config.seed, "seed") < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")


@dataclass(frozen=True)
class AcaConfig:
    """Tolerance, seed for the starting column, optional rank cap and the
    absolute floor added to the relative zero-pivot test."""

    tol: float
    seed: int = 0
    max_rank: int | None = None
    zero_pivot_threshold: float = 0.0

    def __post_init__(self):
        _check_config(self)


def residual_columns(oracle, u, v, cols):
    """Columns ``cols`` of the residual ``A - u v`` in the working dtype,
    (m, len(cols))."""
    c = oracle.block(full_range(oracle.rows), cols)
    return c.astype(working_dtype(oracle.dtype), copy=False) - u @ v[:, cols]


def residual_rows(oracle, u, v, rows):
    """Rows ``rows`` of the residual ``A - u v`` in the working dtype,
    (len(rows), n)."""
    r = oracle.block(rows, full_range(oracle.cols))
    return r.astype(working_dtype(oracle.dtype), copy=False) - u[rows, :] @ v


class _Sweep:
    """State of one cross sweep: the accumulated factors and their norm mu,
    masks of the rows and columns pivoted on so far, the seeded generator
    and the history. The sweep picks its pivots and forms each update;
    ``append`` accepts the update and applies the stopping tests.

    ``config`` is an AcaConfig or a BacaConfig: only ``tol``, ``seed`` and
    ``max_rank`` are read.
    """

    def __init__(self, oracle, config):
        m, n = oracle.rows, oracle.cols
        if m == 0 or n == 0:
            raise ValueError("oracle must be nonempty")
        self.kmax = min(m, n)
        if config.max_rank is not None and config.max_rank > self.kmax:
            raise ValueError("max_rank exceeds min(m, n)")
        self.rank_cap = self.kmax if config.max_rank is None else config.max_rank
        self.tol = config.tol
        self.rng = make_rng(config.seed)
        self.factors = FactorBuffer(m, n, working_dtype(oracle.dtype))
        self.mu = 0.0
        self.used_rows = np.zeros(m, dtype=bool)
        self.used_cols = np.zeros(n, dtype=bool)
        self.history = ConvergenceHistory()

    def append(self, rows, cols, u_k, v_k, nu):
        """Accept the update ``u_k @ v_k`` of norm ``nu``, pivoted on the
        index sequences ``rows`` and ``cols``: update mu, append the
        factors, mark the pivots and record the iteration. Returns True,
        with the termination set, when the sweep stops."""
        factors = self.factors
        self.mu = lr_norm_update(factors.u, factors.v, self.mu, u_k, v_k, nu)
        factors.append(u_k, v_k)
        self.used_rows[rows] = True
        self.used_cols[cols] = True
        history = self.history
        history.blocks.append(PivotBlock(rows=tuple(int(i) for i in rows),
                                         cols=tuple(int(j) for j in cols),
                                         added=len(rows)))
        history.records.append(
            IterationRecord(len(history.records) + 1, factors.rank, nu, self.mu))

        if nu < self.tol * self.mu:
            return self.stop(CONVERGED)
        if factors.rank >= self.rank_cap:
            return self.stop(FULL_RANK if self.rank_cap == self.kmax else RANK_CAP)
        return False

    def stop(self, reason):
        """End the sweep with termination ``reason``; returns True."""
        self.history.termination = reason
        return True


def aca_compress(oracle, config):
    """Compress an entry oracle by plain cross approximation.

    Parameters
    ----------
    oracle : EntryOracle
        Nonempty implicit matrix.
    config : AcaConfig

    Returns
    -------
    (LowRankFactors, ConvergenceHistory)
        Accumulated factors u (m, r), v (r, n) and the iteration history.
        Row pivots are scaled to 1 at the cross, so u holds the scaled
        residual columns and v the raw residual rows.

    Ends CONVERGED, FULL_RANK, RANK_CAP or DEGENERATE, never EXHAUSTED: each
    iteration uses one new row and column while rank < rank_cap <= min(m, n).
    """
    sweep = _Sweep(oracle, config)
    factors = sweep.factors
    max_pivot = 0.0

    j = int(initial_column_block(sweep.rng, oracle.cols, 1)[0])
    while True:
        # residuals kept 2-d so the BLAS calls match the blocked variant
        col = residual_columns(oracle, factors.u, factors.v, np.array([j])).ravel()
        avail_rows = np.flatnonzero(~sweep.used_rows)
        i = int(avail_rows[argmax_tied_sq(np.abs(col[avail_rows]) ** 2)])
        pivot = col[i]
        threshold = max(config.zero_pivot_threshold, PIVOT_RTOL * max_pivot)
        if abs(pivot) <= threshold:
            sweep.stop(DEGENERATE)
            break
        max_pivot = max(max_pivot, abs(pivot))

        u_k = col / pivot
        row = residual_rows(oracle, factors.u, factors.v, np.array([i])).ravel()
        nu = float(np.linalg.norm(u_k) * np.linalg.norm(row))
        if sweep.append([i], [j], u_k[:, None], row[None, :], nu):
            break

        avail_cols = np.flatnonzero(~sweep.used_cols)
        j = int(avail_cols[argmax_tied_sq(np.abs(row[avail_cols]) ** 2)])

    return LowRankFactors(u=factors.u, v=factors.v), sweep.history
