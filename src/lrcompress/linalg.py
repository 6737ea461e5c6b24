"""Dense rank-revealing primitives and low-rank factor utilities.

QRCP (greedy column pivoting over left-looking classical Gram-Schmidt with
one reorthogonalization pass, CGS2) is implemented directly so that pivot
tie-breaking, partial-rank early exit and the tolerance stopping rule are
fully under our control; SVD, unpivoted QR and Cholesky defer to LAPACK
through numpy. Unpivoted QR keeps Q as LAPACK's Householder reflectors and
applies it from them (compact WY form) without ever forming it.
Everything is generic over float64 and complex128: "transpose" means
conjugate transpose throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedSVD",
    "QRCPResult",
    "LowRankFactors",
    "qrcp",
    "truncated_svd",
    "epsilon_rank",
    "cholesky_upper",
    "lr_norm",
    "lr_norm_update",
    "lr_recompress",
    "argmax_tied_sq",
    "checked_matrix",
]

# Running column norms within this relative window of the maximum count as
# tied; ties resolve to the lowest index.
TIE_RTOL = 1e-14

# A downdated running norm below this fraction of its reference value has lost
# too much to cancellation and is recomputed from scratch.
DOWNDATE_RTOL = 1e-7


def working_dtype(dtype):
    return np.complex128 if np.dtype(dtype).kind == "c" else np.float64


def checked_matrix(a, name="matrix"):
    """Coerce to a 2-d float64/complex128 array and reject non-finite entries."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {a.shape}")
    a = a.astype(working_dtype(a.dtype), copy=False)
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def argmax_tied_sq(sq):
    """First index attaining the maximum of a nonnegative array.

    ``sq`` holds squared magnitudes; entries whose square roots lie within
    TIE_RTOL (relative) of the maximum are treated as tied and the lowest
    index wins.
    """
    sq = np.asarray(sq)
    mx = sq.max()
    if mx <= 0.0:
        return 0
    return int(np.argmax(sq >= mx * (1.0 - 2.0 * TIE_RTOL)))


@dataclass
class TruncatedSVD:
    """Truncated SVD: ``u`` (m, r) column-orthonormal, ``sigma`` (r,)
    nonincreasing and nonnegative, ``vt`` (r, n) row-orthonormal."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def shape(self):
        return (self.u.shape[0], self.vt.shape[1])

    def matrix(self):
        """Densify ``u @ diag(sigma) @ vt``."""
        return (self.u * self.sigma) @ self.vt


@dataclass
class QRCPResult:
    """Column-pivoted QR: ``a[:, pivots[:rank]] ~= q @ t[:, :rank]``.

    ``q`` is (m, rank) column-orthonormal; ``rows`` (rank, n) holds the
    coefficients ``q^H a`` of the columns of a in their original order
    (entries below the pivots' diagonal are rounding noise); ``pivots`` is
    a full permutation of the columns whose first ``rank`` entries are the
    selected pivots. ``t``, the (rank, n) upper trapezoidal factor in pivot
    order, is gathered from ``rows`` on first access, so callers that need
    only the pivots never pay for it.
    """

    q: np.ndarray
    rows: np.ndarray
    pivots: np.ndarray
    rank: int

    @functools.cached_property
    def t(self):
        t = self.rows[:, self.pivots]
        for i in range(1, self.rank):
            t[i, :i] = 0.0
        return t

    def selected(self):
        return self.pivots[: self.rank]


@dataclass
class LowRankFactors:
    """Low-rank product ``u @ v``; ``sigma`` is set iff the factors are in
    SVD form (u column-orthonormal, v row-orthonormal)."""

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray | None = None

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[1])

    def matrix(self):
        if self.sigma is not None:
            return (self.u * self.sigma) @ self.v
        return self.u @ self.v


class FactorBuffer:
    """Accumulated factors ``u`` (m, r) and ``v`` (r, n) of a cross sweep,
    appended to in place.

    Storage is preallocated with spare capacity that grows by about 1.5x,
    never beyond min(m, n), so appending one update copies only that update
    instead of the whole factor pair. ``u`` is kept column-major and ``v``
    row-major: both views are contiguous, and unused capacity is one
    untouched tail of each buffer.
    """

    def __init__(self, m, n, dtype):
        self.limit = min(m, n)
        self.rank = 0
        self._u = np.empty((m, 0), dtype=dtype, order="F")
        self._v = np.empty((0, n), dtype=dtype)

    @property
    def capacity(self):
        return self._v.shape[0]

    @property
    def u(self):
        return self._u[:, : self.rank]

    @property
    def v(self):
        return self._v[: self.rank]

    def append(self, u_k, v_k):
        """Append the columns of ``u_k`` (m, k) and rows of ``v_k`` (k, n)."""
        k = u_k.shape[1]
        need = self.rank + k
        if need > self.limit:
            raise ValueError(f"rank {need} exceeds min(m, n) = {self.limit}")
        if need > self.capacity:
            cap = min(self.limit, max(need, self.capacity * 3 // 2, 8))
            u = np.empty((self._u.shape[0], cap), dtype=self._u.dtype, order="F")
            v = np.empty((cap, self._v.shape[1]), dtype=self._v.dtype)
            u[:, : self.rank] = self.u
            v[: self.rank] = self.v
            self._u, self._v = u, v
        self._u[:, self.rank : need] = u_k
        self._v[self.rank : need] = v_k
        self.rank = need


def _column_norms_sq(a):
    if a.dtype.kind == "c":
        return np.einsum("ij,ij->j", a.real, a.real) + np.einsum(
            "ij,ij->j", a.imag, a.imag
        )
    return np.einsum("ij,ij->j", a, a)


def _norm(x):
    return float(np.sqrt(np.vdot(x, x).real))


def _unit_outside(qk):
    # Unit vector orthogonal to the columns of qk (fewer than its rows): the
    # coordinate vector with the smallest projection onto their span, that
    # projection removed in two passes.
    i = int(np.argmin(_column_norms_sq(qk.T)))
    x = -(qk @ qk[i].conj())
    x[i] += 1.0
    x -= qk @ (x.conj() @ qk).conj()
    return x / _norm(x)


def qrcp(a, rank=None, tol=None):
    """Column-pivoted QR by left-looking classical Gram-Schmidt with one
    reorthogonalization pass (CGS2) on the unmodified input.

    Exactly one stopping rule must be given: ``rank`` runs exactly that many
    elimination steps; ``tol`` stops at the smallest i with
    ``|t[i,i]| <= tol * |t[0,0]|`` (that step excluded). Each step pivots on
    the largest running residual column norm (lowest index among near-ties),
    orthogonalizes that column against the basis built so far and appends
    the row ``q_i^H a`` to ``rows``, which downdates the running norms. The
    unpivoted tail of ``pivots`` is in ascending order.

    Parameters
    ----------
    a : (m, n) array
    rank : int, optional
        Fixed step count, 0 <= rank <= min(m, n).
    tol : float, optional
        Relative diagonal cutoff.

    Returns
    -------
    QRCPResult
    """
    a = checked_matrix(a, "a")
    if (rank is None) == (tol is None):
        raise ValueError("exactly one of rank= or tol= must be given")
    m, n = a.shape
    if rank is not None and not 0 <= rank <= min(m, n):
        raise ValueError(f"rank must be in [0, {min(m, n)}], got {rank}")

    kmax = min(m, n) if rank is None else rank
    q = np.empty((m, kmax), dtype=a.dtype, order="F")
    # row i is q_i^H a, columns in their original order
    rows = np.zeros((kmax, n), dtype=a.dtype)
    piv = np.empty(kmax, dtype=np.intp)
    free = np.ones(n, dtype=bool)
    norms2 = _column_norms_sq(a)
    floor2 = DOWNDATE_RTOL**2 * norms2

    first_diag = None
    k = 0
    for step in range(kmax):
        j = argmax_tied_sq(norms2)
        if not free[j]:
            # every free norm is zero: the lowest free column
            j = int(np.argmax(free))
        qk = q[:, :step]
        # the first pass reuses the stored coefficients q_i^H a_j
        x = a[:, j] - qk @ rows[:step, j]
        first = _norm(x)
        coef = (x.conj() @ qk).conj()
        x -= qk @ coef
        diag = _norm(x)
        if first_diag is None:
            first_diag = diag
        if tol is not None and diag <= tol * first_diag:
            break

        # A second pass that cancels more than half of the first means the
        # column lies in the span to working precision: x is rounding noise
        # and any unit vector outside the span serves (Parlett's "twice is
        # enough").
        q[:, step] = x / diag if diag > 0.5 * first else _unit_outside(qk)
        row = np.dot(q[:, step].conj(), a, out=rows[step])
        rows[:step, j] += coef
        row[j] = diag
        piv[step] = j
        free[j] = False
        k = step + 1
        if k == kmax:
            break

        norms2 -= (row * row.conj()).real
        # a pivoted column is never selected nor refreshed again
        norms2[j] = floor2[j] = -np.inf
        # negative or cancelled running norms are recomputed
        stale = np.flatnonzero(norms2 < floor2)
        if stale.size:
            fresh = _column_norms_sq(a[:, stale] - q[:, :k] @ rows[:k, stale])
            norms2[stale] = fresh
            floor2[stale] = DOWNDATE_RTOL**2 * fresh

    pivots = np.concatenate([piv[:k], np.flatnonzero(free)])
    return QRCPResult(q=q[:, :k], rows=rows[:k], pivots=pivots, rank=k)


def epsilon_rank(sigma, tol):
    """Smallest k with ``sigma[k] < tol * sigma[0]`` (strict); the full length
    if never triggered; 0 for an empty or zero spectrum."""
    sigma = np.asarray(sigma)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    below = np.nonzero(sigma < tol * sigma[0])[0]
    return int(below[0]) if below.size else int(sigma.size)


def truncated_svd(a, tol):
    """Truncated SVD of a dense matrix at relative tolerance ``tol``."""
    a = checked_matrix(a, "a")
    m, n = a.shape
    if m == 0 or n == 0:
        return _empty_svd(m, n, a.dtype)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = epsilon_rank(s, tol)
    return TruncatedSVD(u=np.ascontiguousarray(u[:, :r]), sigma=s[:r].copy(),
                        vt=np.ascontiguousarray(vt[:r, :]))


def _empty_svd(m, n, dtype):
    return TruncatedSVD(
        u=np.zeros((m, 0), dtype=dtype),
        sigma=np.zeros(0),
        vt=np.zeros((0, n), dtype=dtype),
    )


def cholesky_upper(a):
    """Upper-triangular T with ``T^H T = a`` for Hermitian positive-definite
    ``a``; raises np.linalg.LinAlgError when a nonpositive pivot appears."""
    a = checked_matrix(a, "a")
    m, n = a.shape
    if m != n:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if m == 0:
        return a.copy()
    if m == 1:
        pivot = a[0, 0]
        re, im = pivot.real, pivot.imag
        if abs(im) > 1e-12 * max(abs(pivot), 1e-300):
            raise ValueError("matrix is not Hermitian to 1e-12")
        if re <= 0.0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        out = np.empty((1, 1), dtype=a.dtype)
        out[0, 0] = np.sqrt(re)
        return out
    scale = np.abs(a).max()
    if np.abs(a - a.conj().T).max() > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not Hermitian to 1e-12")
    return np.linalg.cholesky(a).conj().T


def _lr_norm_qr(u, v):
    # Rank-deficient fallback: ||UV||_F via thin QR of U and V^H.
    ru = np.linalg.qr(u, mode="r")
    rv = np.linalg.qr(v.conj().T, mode="r")
    return float(np.linalg.norm(ru @ rv.conj().T))


def lr_norm(u, v):
    """Frobenius norm of ``u @ v`` in O(n r^2) without forming the product.

    Uses Cholesky factors of the two Gram matrices; falls back to thin QR
    when a Gram matrix is numerically rank-deficient.
    """
    u = checked_matrix(u, "u")
    v = checked_matrix(v, "v")
    if u.shape[1] != v.shape[0]:
        raise ValueError(f"inner dimensions disagree: {u.shape} vs {v.shape}")
    if u.shape[1] == 0 or u.shape[0] == 0 or v.shape[1] == 0:
        return 0.0
    try:
        t1 = cholesky_upper(u.conj().T @ u)
        t2 = cholesky_upper(v @ v.conj().T)
    except np.linalg.LinAlgError:
        return _lr_norm_qr(u, v)
    return float(np.linalg.norm(t1 @ t2.conj().T))


def cross_inner(u, v, ubar, vbar):
    """Re <u @ v, ubar @ vbar> in the Frobenius inner product, via the two
    small Grams (v @ vbar^H) and (u^H @ ubar)."""
    if u.shape[1] == 0 or ubar.shape[1] == 0:
        return 0.0
    # conjugate the thin ubar, not a copy of the whole accumulated u
    g1 = (ubar.conj().T @ u).conj().T
    g2 = v @ vbar.conj().T
    return float(np.vdot(g2, g1).real)


def lr_norm_update(u, v, mu, ubar, vbar, nu):
    """Norm of the concatenated product ``[u, ubar] @ [v; vbar]`` given
    ``mu = ||u v||_F`` and ``nu = ||ubar vbar||_F``; O(n r rbar)."""
    s = mu * mu + nu * nu + 2.0 * cross_inner(u, v, ubar, vbar)
    # rounding can drive s slightly negative near convergence
    if s < 0.0:
        s = 0.0
    return float(np.sqrt(s))


def _householder_qr(a):
    """Thin QR ``a = q @ r`` of an (m, k) matrix with q never formed.

    Returns ``(r, q_times)``: r is the (l, k) upper trapezoidal factor of
    ``np.linalg.qr(a)``, l = min(m, k), bit for bit, and ``q_times(x)``
    returns ``q @ x`` for the (m, l) column-orthonormal q and any x with l
    rows. q stays the product of LAPACK's Householder reflectors
    ``H_i = I - tau_i v_i v_i^H`` and is applied in compact WY form,
    ``I - V T V^H`` with ``T^-1 = diag(1 / tau) + striu(V^H V)`` (Joffrain
    et al. 2006), which costs less than forming q explicitly. A reflector
    with tau_i = 0 is the identity (the last one of a square or wide input,
    or one on a zero sub-column): its v_i is zeroed and its diagonal entry
    of T^-1 set to 1, which leaves the product unchanged.
    """
    m, k = a.shape
    l = min(m, k)
    h, tau = np.linalg.qr(a, mode="raw")
    # LAPACK's layout: r on and above the diagonal, each v_i below it;
    # once r is copied out, V is built in place
    f = h.T
    r = np.triu(f[:l])
    v = f[:, :l]
    v[np.triu_indices(l, 1)] = 0.0
    diag = np.arange(l)
    v[diag, diag] = 1.0
    live = tau != 0.0
    v[:, ~live] = 0.0
    tinv = np.triu(v.conj().T @ v, 1)
    inv_tau = np.ones_like(tau)
    np.divide(1.0, tau, out=inv_tau, where=live)
    tinv[diag, diag] = inv_tau
    v_top_h = v[:l].conj().T

    def q_times(x):
        out = v @ np.linalg.solve(tinv, -(v_top_h @ x))
        out[:l] += x
        return out

    return r, q_times


def lr_recompress(u, v, tol):
    """SVD re-compression of a low-rank product ``u @ v`` at tolerance ``tol``.

    Computes thin Householder QRs of u and v^H and a truncated SVD of the
    small core product, then applies the two Q factors to the core's
    singular vectors from their reflectors, never forming them; never
    increases the rank beyond the inner dimension.
    """
    u = checked_matrix(u, "u")
    v = checked_matrix(v, "v")
    if u.shape[1] != v.shape[0]:
        raise ValueError(f"inner dimensions disagree: {u.shape} vs {v.shape}")
    m, r = u.shape
    n = v.shape[1]
    dtype = np.result_type(u.dtype, v.dtype)
    if r == 0 or m == 0 or n == 0:
        return _empty_svd(m, n, dtype)
    tu, qu_times = _householder_qr(u)
    tv, qv_times = _householder_qr(v.conj().T)
    core = truncated_svd(tu @ tv.conj().T, tol)
    return TruncatedSVD(
        u=qu_times(core.u),
        sigma=core.sigma,
        vt=qv_times(core.vt.conj().T).conj().T,
    )
