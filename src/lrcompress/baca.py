"""Blocked adaptive cross approximation.

Each iteration selects a block of up to d rows and columns of the residual
with column-pivoted QR, forms a rank-d_k interpolative update C W^+ R through
a rank-revealing factorization of the d x d intersection W, and finishes
with an SVD re-compression of the accumulated factors. The sweep runs on
``aca._Sweep``, as plain cross approximation does: the two differ only in
pivot selection and update. Block size 1 reproduces the plain cross sweep
pivot for pivot; block size min(m, n) reduces to a QRCP-based interpolative
decomposition of the whole matrix.

Sweeps run in lockstep (``baca_lockstep``): each keeps its own ``_Sweep``,
but the residual blocks of all running sweeps are zero-padded into stacks,
so that every pivot selection, interpolative update and update norm is one
stacked numpy call for the lot. ``baca_compress`` is the lockstep run of
one sweep, and ``select_pivot_blocks`` and ``lrid`` are the stacked steps
applied to one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aca import (
    DEGENERATE,
    EXHAUSTED,
    _check_config,
    _checked_index,
    _Sweep,
    residual_columns,
    residual_rows,
)
from .linalg import (
    LowRankFactors,
    _lr_norms,
    _qrcp_stack,
    checked_matrix,
    lr_recompress,
    working_dtype,
)

# qrcp stays importable from this module, where perfbench's tracer patches
# it; the sweeps call the stacked kernel
from .linalg import qrcp  # noqa: F401
from .seeding import initial_column_block

__all__ = [
    "BacaConfig",
    "select_pivot_blocks",
    "lrid",
    "baca_compress",
    "baca_lockstep",
    "lockstep_factors",
]


@dataclass(frozen=True)
class BacaConfig:
    """Block size, tolerance, seed and optional rank cap."""

    block_size: int
    tol: float
    seed: int = 0
    max_rank: int | None = None

    def __post_init__(self):
        if _checked_index(self.block_size, "block_size") < 1:
            raise ValueError("block_size must be >= 1")
        _check_config(self)


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

    Notes
    -----
    The sweeps never call this: they run ``_select_stack`` over all their
    sweeps at once. It stays as public API, exported from ``lrcompress``,
    as the one-sweep form of that stacked step that ``tests/test_baca.py``
    drives, and perfbench's tracer patches it by name and would raise
    without it.
    """
    cols = np.asarray(col_block, dtype=np.intp)
    rows, next_cols, ct, r, w, ki, kj = _select_stack(
        [oracle], [u], [v], [cols], [used_rows], [used_cols], np.array([d]))
    i, j = ki[0], kj[0]
    return rows[0], next_cols[0], ct[0, :j].T, r[0, :i], w[0, :i, :j]


def _check_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contain non-finite entries")


def _select_stack(oracles, us, vs, col_blocks, used_rows, used_cols, d):
    """``select_pivot_blocks`` for several sweeps in lockstep: one stacked
    qrcp picks every sweep's row block, one more every next column block.

    Sweep b has oracle, factors ``us[b]``, ``vs[b]``, column block and masks
    as in select_pivot_blocks, and block size ``d[b]``. Stacks are
    zero-padded to the largest sweep; masks keep padding, used and current
    columns from being chosen.

    Returns
    -------
    (rows, next_cols, ct, r, w, ki, kj)
        Lists of the row blocks and next column blocks; stacks of the
        transposed residual columns ct (B, max |J|, max m), the residual
        rows r (B, max |I|, max n) and the intersections w (B, max |I|,
        max |J|), each slice zero past its block sizes ``ki`` = |I| and
        ``kj`` = |J|.
    """
    nb = len(oracles)
    cs = [residual_columns(o, u, v, cols)
          for o, u, v, cols in zip(oracles, us, vs, col_blocks)]
    dtype = np.result_type(*cs)
    kj = np.array([c.shape[1] for c in cs])
    ct = np.zeros((nb, kj.max(), max(o.rows for o in oracles)), dtype=dtype)
    avail = np.zeros(ct.shape[::2], dtype=bool)
    for b, c in enumerate(cs):
        ct[b, : c.shape[1], : c.shape[0]] = c.T
        avail[b, : c.shape[0]] = ~used_rows[b]
    _check_finite(ct, "residual columns")
    ki = np.minimum(np.minimum(d, kj), avail.sum(axis=1))
    piv = _qrcp_stack(ct, ki, eligible=avail, lengths=kj)[3]
    rows = [piv[b, :k] for b, k in enumerate(ki)]

    rs = [residual_rows(o, u, v, i) for o, u, v, i in zip(oracles, us, vs, rows)]
    r = np.zeros((nb, ki.max(), max(o.cols for o in oracles)), dtype=dtype)
    avail = np.zeros(r.shape[::2], dtype=bool)
    w = np.zeros((nb, ki.max(), kj.max()), dtype=dtype)
    for b, rb in enumerate(rs):
        n = rb.shape[1]
        r[b, : ki[b], :n] = rb
        avail[b, :n] = ~used_cols[b]
        avail[b, col_blocks[b]] = False
        w[b, : ki[b], : kj[b]] = ct[b][: kj[b], rows[b]].T
    _check_finite(r, "residual rows")
    steps = np.minimum(np.minimum(d, ki), avail.sum(axis=1))
    piv = _qrcp_stack(r, steps, eligible=avail, lengths=ki)[3]
    next_cols = [piv[b, :k] for b, k in enumerate(steps)]
    return rows, next_cols, ct, r, w, ki, kj


def lrid(c, w, r, tol):
    """Interpolative update E ~= C W^+ R realized as an explicit product.

    A tolerance QRCP of ``w`` picks ``d_k`` well-conditioned pivot columns;
    the update is ``u_k = c[:, jbar]`` and ``v_k = inv(T) Q^H r`` with T the
    leading triangular block. A 1 x 1 intersection gives ``u_k = c`` and
    ``v_k = r / w`` exactly. Returns (u_k, v_k, d_k, jbar) where jbar are
    the retained pivot positions within the column block.

    The sweeps never call this: they run ``_lrid_stack`` over all their
    sweeps at once. It stays as public API, exported from ``lrcompress``,
    as the one-sweep form of that stacked step that ``tests/test_baca.py``
    drives, and perfbench's tracer patches it by name and would raise
    without it.
    """
    w = checked_matrix(w, "w")
    ki, kj = w.shape
    ut, v, d_k, jbar = _lrid_stack(np.asarray(c).T[None], w[None], np.asarray(r)[None],
                                   np.array([ki]), np.array([kj]), tol)
    k = int(d_k[0])
    return ut[0, :k].T, v[0, :k], k, jbar[0, :k]


def _lrid_stack(ct, w, r, ki, kj, tol):
    """``lrid`` for a stack of zero-padded blocks (as ``_select_stack``
    returns them) in lockstep: one stacked tolerance qrcp of the
    intersections, one stacked solve for the small ``inv(T) Q^H`` and one
    stacked product of it with the residual rows, which costs less than
    solving against every residual row.

    Returns ``(ut, v, d_k, jbar)``: slice b's update is ``u_k = ut[b,
    :d_k[b]].T`` and ``v_k = v[b, :d_k[b]]`` on the pivot positions
    ``jbar[b, :d_k[b]]``; rows of ut and v past d_k[b] are zero.
    """
    if w.shape[1:] == (1, 1):
        # scalar intersections: the pivoted factorization reduces exactly
        # to u_k = c, v_k = r / w
        live = w[:, 0, 0] != 0.0
        v = np.divide(r, w, out=np.zeros(r.shape, np.result_type(r, w)),
                      where=live[:, None, None])
        return ct * live[:, None, None], v, live.astype(np.intp), np.zeros((len(w), 1), np.intp)
    qt, _, t, jbar, d_k = _qrcp_stack(w, np.minimum(ki, kj), tol=tol,
                                       eligible=np.arange(w.shape[2]) < kj[:, None], lengths=ki)
    inner = np.arange(jbar.shape[1]) < d_k[:, None]
    # past the rank T is the identity and Q^H zero, so each slice's leading
    # rows of inv(T) Q^H are its own; qrcp may leave those rows of qt
    # unwritten, and garbage there would reach the leading rows as 0 * inf
    t = np.where(inner[:, :, None] & inner[:, None, :], t, np.eye(jbar.shape[1]))
    qt[~inner] = 0.0
    v = np.matmul(np.linalg.solve(t, qt.conj()), r)
    v[~inner] = 0.0
    ut = ct[np.arange(len(ct))[:, None], jbar]
    ut[~inner] = 0.0
    return ut, v, d_k, jbar


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
    return baca_lockstep([oracle], [config])[0]


# fresh column blocks a sweep tries after a zero-rank update before it ends
# degenerate
MAX_DEGENERATE_RETRIES = 3


def baca_lockstep(oracles, configs):
    """Compress several entry oracles by blocked cross approximation in
    lockstep; ``baca_compress`` is the case of one.

    Every oracle runs its own sweep with its own config (seed, tolerance,
    block size, rank cap), factors, masks, history and stopping
    rules. Each iteration selects the pivot blocks of all sweeps still
    running with two stacked qrcps, forms their updates with one stacked
    tolerance qrcp and solve, and takes their norms in one
    stacked call, so that one numpy call serves every sweep. A sweep that
    stops drops out of the stack; after a zero-rank update a sweep tries up
    to ``MAX_DEGENERATE_RETRIES`` fresh column blocks on its own before it
    ends degenerate. It ends exhausted when its next column block is empty;
    an update uses as many new rows and columns as it adds rank, so while
    rank < rank_cap <= min(m, n) selection and retries find unused ones.
    Each result is the one the sweep gives alone, up to rounding in the
    padded stacks. The oracles must be all real or all complex: one stack
    has one dtype, and a real sweep's factors cannot take complex updates.

    Returns
    -------
    list of (TruncatedSVD, ConvergenceHistory), in oracle order: each
    sweep's cross factors after SVD re-compression at its config.tol.
    """
    return [(lr_recompress(f.u, f.v, config.tol), history)
            for (f, history), config in zip(lockstep_factors(oracles, configs), configs)]


def lockstep_factors(oracles, configs):
    """``baca_lockstep`` without the final re-compression: the list of
    (LowRankFactors, ConvergenceHistory) in oracle order, each sweep's
    accumulated cross factors ``u @ v`` as views of its factor buffers,
    for callers that truncate them together with other blocks."""
    if len({working_dtype(o.dtype) for o in oracles}) > 1:
        raise ValueError("a lockstep group must be all real or all complex")
    sweeps = [_Sweep(o, config) for o, config in zip(oracles, configs)]
    d = np.array([min(config.block_size, o.rows, o.cols)
                  for o, config in zip(oracles, configs)])
    tol = np.array([config.tol for config in configs])
    retries = [0] * len(sweeps)
    cols = [initial_column_block(s.rng, o.cols, db) for s, o, db in zip(sweeps, oracles, d)]

    running = list(range(len(sweeps)))
    while running:
        stack = []
        for b in running:
            sweep = sweeps[b]
            if cols[b].size == 0:
                sweep.stop(EXHAUSTED)
                continue
            cols[b] = cols[b][: sweep.rank_cap - sweep.factors.rank]
            stack.append(b)
        if not stack:
            break
        rows, next_cols, ct, r, w, ki, kj = _select_stack(
            [oracles[b] for b in stack],
            [sweeps[b].factors.u for b in stack], [sweeps[b].factors.v for b in stack],
            [cols[b] for b in stack],
            [sweeps[b].used_rows for b in stack], [sweeps[b].used_cols for b in stack],
            d[stack])
        ut, v, d_k, jbar = _lrid_stack(ct, w, r, ki, kj, tol[stack])
        nu = _lr_norms(ut.swapaxes(1, 2), v)

        running = []
        for g, b in enumerate(stack):
            sweep = sweeps[b]
            k = d_k[g]
            if k == 0:
                if retries[b] >= MAX_DEGENERATE_RETRIES:
                    sweep.stop(DEGENERATE)
                    continue
                retries[b] += 1
                avail = np.flatnonzero(~sweep.used_cols)
                cols[b] = np.asarray(sweep.rng.choice(avail, size=min(d[b], avail.size),
                                                      replace=False))
                running.append(b)
                continue
            retries[b] = 0
            m, n = oracles[b].rows, oracles[b].cols
            if sweep.append(rows[g][:k], cols[b][jbar[g, :k]], ut[g, :k, :m].T,
                            v[g, :k, :n], float(nu[g])):
                continue
            cols[b] = next_cols[g]
            running.append(b)

    return [(LowRankFactors(s.factors.u, s.factors.v), s.history) for s in sweeps]
