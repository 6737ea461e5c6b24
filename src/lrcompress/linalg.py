"""Dense rank-revealing primitives and low-rank factor utilities.

QRCP (Householder QR with greedy column pivoting) is implemented directly so
that pivot tie-breaking, partial-rank early exit and the tolerance stopping
rule are fully under our control; SVD, unpivoted QR and Cholesky defer to
LAPACK through numpy. Everything is generic over float64 and complex128:
"transpose" means conjugate transpose throughout.
"""

from __future__ import annotations

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

    ``q`` is (m, rank) column-orthonormal, ``t`` is (rank, n) upper
    trapezoidal in pivot order, ``pivots`` a full permutation of the columns
    whose first ``rank`` entries are the selected pivots.
    """

    q: np.ndarray
    t: np.ndarray
    pivots: np.ndarray
    rank: int

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


def _householder(x):
    # Reflector H = I - tau * outer(v, conj(v)) with v[0] == 1 mapping x to
    # beta * e1; tau == 0 encodes the identity (zero column).
    v = x.copy()
    alpha = x[0]
    norm = np.linalg.norm(x)
    if norm == 0.0:
        v[:] = 0.0
        v[0] = 1.0
        return x.dtype.type(0.0), v, x.dtype.type(0.0)
    phase = alpha / abs(alpha) if alpha != 0.0 else 1.0
    beta = -phase * norm
    v0 = alpha - beta
    v /= v0
    v[0] = 1.0
    tau = (beta - alpha) / beta
    return beta, v, tau


def _accumulate_q(r, taus, m, k):
    # Q = H_0^H H_1^H ... H_{k-1}^H restricted to its first k columns, with
    # reflector vectors stored below the diagonal of r.
    q = np.eye(m, k, dtype=r.dtype)
    for step in range(k - 1, -1, -1):
        tau = np.conj(taus[step])
        if tau == 0.0:
            continue
        v = np.empty(m - step, dtype=r.dtype)
        v[0] = 1.0
        v[1:] = r[step + 1 :, step]
        w = v.conj() @ q[step:, :]
        q[step:, :] -= tau * np.outer(v, w)
    return q


def qrcp(a, rank=None, tol=None, need_q=True):
    """Householder QR with greedy column pivoting.

    Exactly one stopping rule must be given: ``rank`` runs exactly that many
    elimination steps; ``tol`` stops at the smallest i with
    ``|t[i,i]| <= tol * |t[0,0]|`` (that step excluded). Pivots are chosen by
    largest running column norm, lowest index among near-ties.

    Parameters
    ----------
    a : (m, n) array
    rank : int, optional
        Fixed step count, 0 <= rank <= min(m, n).
    tol : float, optional
        Relative diagonal cutoff.
    need_q : bool
        Pass False when only pivots/t are used; q comes back with zero
        columns so the reflector accumulation is skipped.

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
    r = a.copy()
    piv = np.arange(n)
    taus = np.zeros(kmax, dtype=r.dtype)
    norms2 = _column_norms_sq(r)
    ref2 = norms2.copy()

    first_diag = None
    k = 0
    for step in range(kmax):
        j = step + argmax_tied_sq(norms2[step:])
        if j != step:
            r[:, [step, j]] = r[:, [j, step]]
            piv[[step, j]] = piv[[j, step]]
            norms2[[step, j]] = norms2[[j, step]]
            ref2[[step, j]] = ref2[[j, step]]

        beta, v, tau = _householder(r[step:, step].copy())
        diag = abs(beta)
        if first_diag is None:
            first_diag = diag
        if tol is not None and diag <= tol * first_diag:
            break

        if tau != 0.0 and step + 1 < n:
            w = v.conj() @ r[step:, step + 1 :]
            r[step:, step + 1 :] -= tau * np.outer(v, w)
        r[step, step] = beta
        r[step + 1 :, step] = v[1:]
        taus[step] = tau
        k = step + 1

        if step + 1 < n:
            tail = norms2[step + 1 :]
            tail -= np.abs(r[step, step + 1 :]) ** 2
            np.maximum(tail, 0.0, out=tail)
            stale = tail <= DOWNDATE_RTOL**2 * ref2[step + 1 :]
            if stale.any():
                cols = np.nonzero(stale)[0] + step + 1
                fresh = (np.abs(r[step + 1 :, cols]) ** 2).sum(axis=0)
                norms2[cols] = fresh
                ref2[cols] = fresh

    q = _accumulate_q(r, taus, m, k) if need_q else np.zeros((m, 0), dtype=r.dtype)
    t = r[:k, :].copy()
    for i in range(1, k):
        t[i, :i] = 0.0
    return QRCPResult(q=q, t=t, pivots=piv, rank=k)


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


def lr_recompress(u, v, tol):
    """SVD re-compression of a low-rank product ``u @ v`` at tolerance ``tol``.

    Computes thin QRs of u and v^H and a truncated SVD of the small core
    product; never increases the rank beyond the inner dimension.
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
    qu, tu = np.linalg.qr(u)
    qv, tv = np.linalg.qr(v.conj().T)
    core = truncated_svd(tu @ tv.conj().T, tol)
    return TruncatedSVD(
        u=qu @ core.u,
        sigma=core.sigma,
        vt=core.vt @ qv.conj().T,
    )
