"""Partially-pivoted adaptive cross approximation, and the sweep engine it
shares with the blocked variant.

One residual column/row pair is eliminated per iteration: the row pivot is
the largest remaining entry of the current residual column, the next column
pivot the largest remaining entry of the residual row. ``_Sweep`` holds what
the plain and blocked sweeps have in common (shape checks, the accumulated
factors and their running norm mu, the used-row and used-column masks, the
history and the stopping tests); the two differ only in how they select
pivots and form each update. Both read the oracle only through
``residual_columns`` and ``residual_rows``, which raise ValueError on a
non-finite entry. The running update norm nu and total norm mu
drive the nu < eps * mu stopping test.

mu is settled lazily. Its cross terms with the accumulated factors cost two
passes over them, yet the stop test can fire only in the last iteration or
two. So between settles the sweep keeps the bound hi = mu + (sum of the
pending nu), which holds by the triangle inequality, and it settles only
when nu < eps * hi, the one case where nu < eps * mu can hold, when it
stops or when mu is read. A settle takes every pending cross term from
Gram products of the pending blocks with the factors (``lr_norm_prefixes``)
and fills in the pending records' mu. mu never feeds the factors, so pivots and factors do not depend on when
it is settled.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import full_range
from .linalg import (
    FactorBuffer,
    LowRankFactors,
    _check_tol,
    argmax_tied_sq,
    lr_norm_prefixes,
    pow2_scale,
    vector_norm,
    working_dtype,
)

# lr_norm_update stays importable from this module, where perfbench's tracer
# patches it; the sweep settles mu through lr_norm_prefixes
from .linalg import lr_norm_update  # noqa: F401
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
    """Row/column index sets retained by one iteration, of equal length:
    the rank the iteration adds."""

    rows: tuple
    cols: tuple


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
    _check_tol(config.tol)
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


def _check_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contain non-finite entries")
    return a


def residual_columns(oracle, u, v, cols):
    """Columns ``cols`` of the residual ``A - u v`` in the working dtype,
    (m, len(cols)); raises ValueError if any entry is not finite."""
    c = oracle.block(full_range(oracle.rows), cols)
    return _check_finite(c.astype(working_dtype(oracle.dtype), copy=False) - u @ v[:, cols],
                         "residual columns")


def residual_rows(oracle, u, v, rows):
    """Rows ``rows`` of the residual ``A - u v`` in the working dtype,
    (len(rows), n); raises ValueError if any entry is not finite."""
    r = oracle.block(rows, full_range(oracle.cols))
    return _check_finite(r.astype(working_dtype(oracle.dtype), copy=False) - u[rows, :] @ v,
                         "residual rows")


class _Sweep:
    """State of one cross sweep: the accumulated factors and their norm mu,
    masks of the rows and columns pivoted on so far, the seeded generator
    and the history. The sweep picks its pivots and forms each update;
    ``append`` accepts the update and applies the stopping tests.

    mu is settled lazily (see the module docstring): records appended
    since the last settle carry mu = nan until the next one, which comes at
    the latest when the sweep stops. Reading ``mu`` settles.

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
        self._mu = 0.0  # norm of the factors through the last settled record
        self._settled = 0  # records whose mu is settled
        self._hi = 0.0  # _mu plus the pending records' nu
        # The settle rounds its dot products of length m and n and its sums
        # of up to kmax terms; this many ulps of hi cover that rounding, so
        # the bound never undercuts the mu a settle computes.
        self._pad = 1.0 + (m + n + self.kmax) * np.finfo(float).eps
        self.used_rows = np.zeros(m, dtype=bool)
        self.used_cols = np.zeros(n, dtype=bool)
        self.history = ConvergenceHistory()

    @property
    def mu(self):
        """Norm of the accumulated factors, settled when read."""
        self._settle()
        return self._mu

    def _settle(self):
        # fill in the pending records' mu from one lr_norm_prefixes call
        records = self.history.records
        pending = records[self._settled :]
        if not pending:
            return
        start = records[self._settled - 1].rank if self._settled else 0
        mus = lr_norm_prefixes(self.factors.u, self.factors.v, self._mu,
                               [start] + [rec.rank for rec in pending[:-1]],
                               [rec.nu for rec in pending])
        records[self._settled :] = [rec._replace(mu=mu) for rec, mu in zip(pending, mus)]
        self._settled = len(records)
        self._mu = self._hi = mus[-1]

    def append(self, rows, cols, u_k, v_k, nu):
        """Accept the update ``u_k @ v_k`` of norm ``nu``, pivoted on the
        index sequences ``rows`` and ``cols``: append the factors, mark the
        pivots and record the iteration. Returns True, with the termination
        set, when the sweep stops."""
        factors = self.factors
        factors.append(u_k, v_k)
        self.used_rows[rows] = True
        self.used_cols[cols] = True
        history = self.history
        history.blocks.append(PivotBlock(rows=tuple(int(i) for i in rows),
                                         cols=tuple(int(j) for j in cols)))
        history.records.append(
            IterationRecord(len(history.records) + 1, factors.rank, nu, math.nan))

        # mu <= hi, so nu < tol * mu needs nu < tol * hi: only then settle
        self._hi += nu
        if nu < self.tol * self._hi * self._pad and nu < self.tol * self.mu:
            return self.stop(CONVERGED)
        if factors.rank >= self.rank_cap:
            return self.stop(FULL_RANK if self.rank_cap == self.kmax else RANK_CAP)
        return False

    def stop(self, reason):
        """End the sweep with termination ``reason``, settling mu; returns
        True."""
        self._settle()
        self.history.termination = reason
        return True


def _argmax_abs(x, avail):
    # the entry of avail where |x| is largest, ties as in argmax_tied_sq;
    # scaled by a power of two so that the squares stay in range
    a = np.abs(x[avail])
    a *= pow2_scale(a.max())
    return int(avail[argmax_tied_sq(np.square(a, out=a))])


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
        i = _argmax_abs(col, np.flatnonzero(~sweep.used_rows))
        pivot = col[i]
        threshold = max(config.zero_pivot_threshold, PIVOT_RTOL * max_pivot)
        if abs(pivot) <= threshold:
            sweep.stop(DEGENERATE)
            break
        max_pivot = max(max_pivot, abs(pivot))

        u_k = col / pivot
        row = residual_rows(oracle, factors.u, factors.v, np.array([i])).ravel()
        # u_k is divided by its largest entry on unused rows, so only the
        # raw residual row needs scaling around its squares
        nu = float(np.linalg.norm(u_k)) * vector_norm(row)
        if sweep.append([i], [j], u_k[:, None], row[None, :], nu):
            break

        j = _argmax_abs(row, np.flatnonzero(~sweep.used_cols))

    return LowRankFactors(u=factors.u, v=factors.v), sweep.history
