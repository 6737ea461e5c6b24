"""Blocked adaptive cross approximation.

Each iteration selects a block of up to d rows and columns of the residual
with column-pivoted QR, forms a rank-d_k interpolative update C W^+ R through
a rank-revealing factorization of the d x d intersection W, and finishes
with an SVD re-compression of the accumulated factors. The sweep runs on
``aca._Sweep``, as plain cross approximation does: the two differ only in
pivot selection and update. Block size 1 reproduces the plain cross sweep
pivot for pivot; block size min(m, n) reduces to a QRCP-based interpolative
decomposition of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aca import (
    DEGENERATE,
    EXHAUSTED,
    _check_config,
    _Sweep,
    residual_columns,
    residual_rows,
)
from .linalg import lr_norm, lr_recompress, qrcp
from .seeding import initial_column_block

__all__ = ["BacaConfig", "select_pivot_blocks", "lrid", "baca_compress"]


@dataclass(frozen=True)
class BacaConfig:
    """Block size, tolerance, seed, optional rank cap and the number of
    fresh column blocks tried after a zero-rank update before giving up."""

    block_size: int
    tol: float
    seed: int = 0
    max_rank: int | None = None
    max_degenerate_retries: int = 3

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        _check_config(self)
        if self.max_degenerate_retries < 0:
            raise ValueError("max_degenerate_retries must be >= 0")


def select_pivot_blocks(oracle, u, v, col_block, used_rows, used_cols, d):
    """One round of block pivot selection on the residual E = A - u v.

    ``used_rows`` (m,) and ``used_cols`` (n,) are boolean masks of the rows
    and columns already pivoted on; they are read, never written. Runs
    fixed-rank QRCP on the transposed residual columns E(:, J_k) (restricted
    to unused rows) to pick the row block, then on the residual rows
    E(I_k, :) (restricted to columns that are neither used nor in J_k) to
    pick the next column block. Blocks clamp to whatever remains.

    Returns
    -------
    (rows, next_cols, c, r, w)
        Selected row indices, next iteration's column indices, residual
        columns c (m x |J|), residual rows r (|I| x n) and the intersection
        w = c[rows] (|I| x |J|).
    """
    cols = np.asarray(col_block, dtype=np.intp)
    c = residual_columns(oracle, u, v, cols)

    avail_rows = np.flatnonzero(~used_rows)
    steps = min(d, cols.size, avail_rows.size)
    row_fac = qrcp(c[avail_rows, :].T, rank=steps)
    rows = avail_rows[row_fac.pivots[:steps]]

    r = residual_rows(oracle, u, v, rows)

    col_mask = used_cols.copy()
    col_mask[cols] = True
    avail_cols = np.flatnonzero(~col_mask)
    steps_c = min(d, rows.size, avail_cols.size)
    col_fac = qrcp(r[:, avail_cols], rank=steps_c)
    next_cols = avail_cols[col_fac.pivots[:steps_c]]

    w = c[rows, :]
    return rows, next_cols, c, r, w


def lrid(c, w, r, tol):
    """Interpolative update E ~= C W^+ R realized as an explicit product.

    A tolerance QRCP of ``w`` picks ``d_k`` well-conditioned pivot columns;
    the update is ``u_k = c[:, jbar]`` and ``v_k = inv(T) Q^H r`` with T the
    leading triangular block. Returns (u_k, v_k, d_k, jbar) where jbar are
    the retained pivot positions within the column block.
    """
    if w.shape == (1, 1):
        # scalar intersection: the pivoted factorization reduces exactly to
        # u_k = c, v_k = r / w (same floats as the general path)
        pivot = w[0, 0]
        if pivot == 0.0:
            return _empty_update(c, r)
        return c.copy(), r / pivot, 1, np.zeros(1, dtype=np.intp)
    fac = qrcp(w, tol=tol)
    d_k = fac.rank
    if d_k == 0:
        return _empty_update(c, r)
    jbar = fac.pivots[:d_k]
    u_k = c[:, jbar]
    t_square = fac.t[:, :d_k]
    v_k = np.linalg.solve(t_square, fac.q.conj().T @ r)
    return u_k, v_k, d_k, jbar


def _empty_update(c, r):
    m = c.shape[0]
    n = r.shape[1]
    dtype = np.result_type(c, r)
    return (
        np.zeros((m, 0), dtype=dtype),
        np.zeros((0, n), dtype=dtype),
        0,
        np.zeros(0, dtype=np.intp),
    )


def baca_compress(oracle, config):
    """Compress an entry oracle by blocked cross approximation.

    Parameters
    ----------
    oracle : EntryOracle
        Nonempty implicit matrix; the effective block size is
        min(config.block_size, m, n).
    config : BacaConfig

    Returns
    -------
    (TruncatedSVD, ConvergenceHistory)
        The accumulated factors after SVD re-compression at config.tol, and
        the per-iteration history (records, retained pivot blocks,
        termination reason).
    """
    sweep = _Sweep(oracle, config)
    factors = sweep.factors
    d = min(config.block_size, oracle.rows, oracle.cols)
    retries = 0

    cols = initial_column_block(sweep.rng, oracle.cols, d)
    while True:
        if cols.size == 0:
            sweep.stop(EXHAUSTED)
            break
        cols = cols[: min(cols.size, sweep.rank_cap - factors.rank)]
        rows, next_cols, c, r, w = select_pivot_blocks(
            oracle, factors.u, factors.v, cols, sweep.used_rows, sweep.used_cols, d
        )
        if rows.size == 0:
            sweep.stop(EXHAUSTED)
            break

        u_k, v_k, d_k, jbar = lrid(c, w, r, config.tol)
        if d_k == 0:
            if retries >= config.max_degenerate_retries:
                sweep.stop(DEGENERATE)
                break
            retries += 1
            avail = np.flatnonzero(~sweep.used_cols)
            if avail.size == 0:
                sweep.stop(EXHAUSTED)
                break
            cols = np.asarray(sweep.rng.choice(avail, size=min(d, avail.size), replace=False))
            continue
        retries = 0

        if sweep.append(rows[:d_k], cols[jbar], u_k, v_k, lr_norm(u_k, v_k)):
            break
        cols = next_cols

    return lr_recompress(factors.u, factors.v, config.tol), sweep.history
