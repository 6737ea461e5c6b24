"""Partially-pivoted adaptive cross approximation.

One residual column/row pair is eliminated per iteration: the row pivot is
the largest remaining entry of the current residual column, the next column
pivot the largest remaining entry of the residual row. The running update
norm nu and total norm mu drive the nu < eps * mu stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


@dataclass(frozen=True)
class AcaConfig:
    """Tolerance, seed for the starting column, optional rank cap and the
    absolute floor added to the relative zero-pivot test."""

    tol: float
    seed: int = 0
    max_rank: int | None = None
    zero_pivot_threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be positive when given")


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
    """
    m, n = oracle.rows, oracle.cols
    if m == 0 or n == 0:
        raise ValueError("oracle must be nonempty")
    if config.max_rank is not None and config.max_rank > min(m, n):
        raise ValueError("max_rank exceeds min(m, n)")

    dtype = working_dtype(oracle.dtype)
    rng = make_rng(config.seed)
    all_rows = np.arange(m)
    all_cols = np.arange(n)

    factors = FactorBuffer(m, n, dtype)
    mu = 0.0
    history = ConvergenceHistory()
    used_row_mask = np.zeros(m, dtype=bool)
    used_col_mask = np.zeros(n, dtype=bool)
    max_pivot = 0.0
    kmax = min(m, n)
    rank_cap = kmax if config.max_rank is None else config.max_rank

    j = int(initial_column_block(rng, n, 1)[0])
    for k in range(1, kmax + 1):
        # residuals kept 2-d so the BLAS calls match the blocked variant
        col = oracle.block(all_rows, [j]).astype(dtype, copy=False)
        if factors.rank:
            col = col - factors.u @ factors.v[:, [j]]
        col = col.ravel()

        avail_rows = np.nonzero(~used_row_mask)[0]
        i = int(avail_rows[argmax_tied_sq(np.abs(col[avail_rows]) ** 2)])
        pivot = col[i]
        threshold = max(config.zero_pivot_threshold, PIVOT_RTOL * max_pivot)
        if abs(pivot) <= threshold:
            history.termination = DEGENERATE
            break
        max_pivot = max(max_pivot, abs(pivot))

        u_k = col / pivot
        row = oracle.block([i], all_cols).astype(dtype, copy=False)
        if factors.rank:
            row = row - factors.u[[i], :] @ factors.v
        row = row.ravel()

        nu = float(np.linalg.norm(u_k) * np.linalg.norm(row))
        mu = lr_norm_update(factors.u, factors.v, mu, u_k[:, None], row[None, :], nu)
        factors.append(u_k[:, None], row[None, :])
        used_row_mask[i] = True
        used_col_mask[j] = True
        history.blocks.append(PivotBlock(rows=(i,), cols=(j,), added=1))
        history.records.append(IterationRecord(k, factors.rank, nu, mu))

        if nu < config.tol * mu:
            history.termination = CONVERGED
            break
        if factors.rank >= rank_cap:
            history.termination = FULL_RANK if rank_cap == kmax else RANK_CAP
            break

        avail_cols = np.nonzero(~used_col_mask)[0]
        if avail_cols.size == 0:
            history.termination = EXHAUSTED
            break
        j = int(avail_cols[argmax_tied_sq(np.abs(row[avail_cols]) ** 2)])

    return LowRankFactors(u=factors.u, v=factors.v), history
