"""Blocked adaptive cross approximation.

Each iteration selects a block of up to d rows and columns of the residual
with column-pivoted QR, forms a rank-d_k interpolative update C W^+ R through
a rank-revealing factorization of the d x d intersection W, tracks the update
and total norms incrementally, and finishes with an SVD re-compression of the
accumulated factors. Block size 1 reproduces the plain cross sweep pivot for
pivot; block size min(m, n) reduces to a QRCP-based interpolative
decomposition of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aca import (
    CONVERGED,
    DEGENERATE,
    EXHAUSTED,
    FULL_RANK,
    RANK_CAP,
    ConvergenceHistory,
    IterationRecord,
    PivotBlock,
)
from .linalg import (
    FactorBuffer,
    lr_norm,
    lr_norm_update,
    lr_recompress,
    qrcp,
    working_dtype,
)
from .seeding import initial_column_block, make_rng

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
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_degenerate_retries < 0:
            raise ValueError("max_degenerate_retries must be >= 0")


def _residual_columns(oracle, u, v, cols, dtype):
    c = oracle.block(np.arange(oracle.rows), cols).astype(dtype, copy=False)
    if u.shape[1]:
        c = c - u @ v[:, cols]
    return c


def _residual_rows(oracle, u, v, rows, dtype):
    r = oracle.block(rows, np.arange(oracle.cols)).astype(dtype, copy=False)
    if u.shape[1]:
        r = r - u[rows, :] @ v
    return r


def select_pivot_blocks(oracle, u, v, col_block, used_rows, used_cols, d):
    """One round of block pivot selection on the residual E = A - u v.

    Runs fixed-rank QRCP on the transposed residual columns E(:, J_k)
    (restricted to unused rows) to pick the row block, then on the residual
    rows E(I_k, :) (restricted to columns outside used_cols and J_k) to pick
    the next column block. Blocks clamp to whatever remains.

    Returns
    -------
    (rows, next_cols, c, r, w)
        Selected row indices, next iteration's column indices, residual
        columns c (m x |J|), residual rows r (|I| x n) and the intersection
        w = c[rows] (|I| x |J|).
    """
    m, n = oracle.rows, oracle.cols
    dtype = working_dtype(oracle.dtype)
    cols = np.asarray(col_block, dtype=np.intp)
    c = _residual_columns(oracle, u, v, cols, dtype)

    row_mask = np.zeros(m, dtype=bool)
    row_mask[np.asarray(used_rows, dtype=np.intp)] = True
    avail_rows = np.nonzero(~row_mask)[0]
    steps = min(d, cols.size, avail_rows.size)
    row_fac = qrcp(c[avail_rows, :].T, rank=steps, need_q=False)
    rows = avail_rows[row_fac.pivots[:steps]]

    r = _residual_rows(oracle, u, v, rows, dtype)

    col_mask = np.zeros(n, dtype=bool)
    col_mask[np.asarray(used_cols, dtype=np.intp)] = True
    col_mask[cols] = True
    avail_cols = np.nonzero(~col_mask)[0]
    steps_c = min(d, rows.size, avail_cols.size)
    col_fac = qrcp(r[:, avail_cols], rank=steps_c, need_q=False)
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


def _append_and_track(factors, mu, u_k, v_k):
    # update norm nu = ||u_k v_k||_F, then the total norm of the factors
    # with the update appended; returns (nu, mu)
    nu = lr_norm(u_k, v_k)
    mu = lr_norm_update(factors.u, factors.v, mu, u_k, v_k, nu)
    factors.append(u_k, v_k)
    return nu, mu


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
    m, n = oracle.rows, oracle.cols
    if m == 0 or n == 0:
        raise ValueError("oracle must be nonempty")
    if config.max_rank is not None and config.max_rank > min(m, n):
        raise ValueError("max_rank exceeds min(m, n)")

    dtype = working_dtype(oracle.dtype)
    d = min(config.block_size, m, n)
    rng = make_rng(config.seed)
    rank_cap = min(m, n) if config.max_rank is None else config.max_rank

    factors = FactorBuffer(m, n, dtype)
    mu = 0.0
    history = ConvergenceHistory()
    used_rows: list[int] = []
    used_cols: list[int] = []
    retries = 0

    cols = initial_column_block(rng, n, d)
    while True:
        if cols.size == 0:
            history.termination = EXHAUSTED
            break
        cols = cols[: min(cols.size, rank_cap - factors.rank)]
        rows, next_cols, c, r, w = select_pivot_blocks(
            oracle, factors.u, factors.v, cols, used_rows, used_cols, d
        )
        if rows.size == 0:
            history.termination = EXHAUSTED
            break

        u_k, v_k, d_k, jbar = lrid(c, w, r, config.tol)
        if d_k == 0:
            if retries >= config.max_degenerate_retries:
                history.termination = DEGENERATE
                break
            retries += 1
            col_mask = np.zeros(n, dtype=bool)
            col_mask[np.asarray(used_cols, dtype=np.intp)] = True
            avail = np.nonzero(~col_mask)[0]
            if avail.size == 0:
                history.termination = EXHAUSTED
                break
            cols = np.asarray(rng.choice(avail, size=min(d, avail.size), replace=False))
            continue
        retries = 0

        kept_rows = rows[:d_k]
        kept_cols = cols[jbar]
        used_rows.extend(int(i) for i in kept_rows)
        used_cols.extend(int(j) for j in kept_cols)

        nu, mu = _append_and_track(factors, mu, u_k, v_k)
        history.blocks.append(
            PivotBlock(rows=tuple(int(i) for i in kept_rows),
                       cols=tuple(int(j) for j in kept_cols),
                       added=d_k)
        )
        history.records.append(
            IterationRecord(len(history.records) + 1, factors.rank, nu, mu)
        )

        if nu < config.tol * mu:
            history.termination = CONVERGED
            break
        if factors.rank >= rank_cap:
            history.termination = FULL_RANK if rank_cap == min(m, n) else RANK_CAP
            break
        cols = next_cols

    return lr_recompress(factors.u, factors.v, config.tol), history
