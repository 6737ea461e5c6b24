"""Dense rank-revealing primitives and low-rank factor utilities.

QRCP (greedy column pivoting over left-looking classical Gram-Schmidt with
one reorthogonalization pass, CGS2) is implemented directly so that pivot
tie-breaking, partial-rank early exit and the tolerance stopping rule are
fully under our control; SVD defers to LAPACK through numpy. Unpivoted
QR calls LAPACK's blocked compact-WY routines ``?geqrt``/``?gemqrt`` in
the OpenBLAS that numpy bundles, through ctypes, and falls back to
numpy's ``qr`` where numpy carries no such library. Either way Q stays
Householder reflectors and is applied from them without ever being formed.
Everything is generic over float64 and complex128: "transpose" means
conjugate transpose throughout.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedSVD",
    "QRCPResult",
    "LowRankFactors",
    "qrcp",
    "truncated_svd",
    "epsilon_rank",
    "lr_norm",
    "lr_norm_prefixes",
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

# Pending columns whose norm cross terms lr_norm_prefixes takes from one pair
# of products: bounds its copies, and skips most of the products' unused
# triangle.
SETTLE_CHUNK = 32

# Largest squared column norm of a QRCP slice that runs as it is: every
# square down to eps^2 = 2^-104 of it stays normal (above 2^-1022), and
# sums of it stay far below overflow. A slice outside runs on a copy scaled
# by pow2_scale.
SQ_NORM_RANGE = (2.0**-918, 2.0**918)

# Columns per block of the compact-WY Householder QR (?geqrt's NB): each
# block of reflectors shares one triangular T factor, and ?gemqrt applies
# them a block at a time.
QR_BLOCK = 32

# LAPACKE's matrix_layout value for column-major arrays
_COL_MAJOR = 102


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


def _check_tol(tol):
    # the relative tolerance rule of every public entry point and config
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")


def argmax_tied_sq(sq, axis=None):
    """First index attaining the maximum of a nonnegative array: the pivot
    tie rule of ACA and QRCP.

    ``sq`` holds squared magnitudes; entries whose square roots lie within
    TIE_RTOL (relative) of the maximum are treated as tied and the lowest
    index wins. An int index into the flattened array, or with ``axis`` the
    indices along that axis.
    """
    sq = np.asarray(sq)
    tied = sq >= sq.max(axis=axis, keepdims=True) * (1.0 - 2.0 * TIE_RTOL)
    j = np.argmax(tied, axis=axis)
    return int(j) if axis is None else j


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
        return np.triu(self.rows[:, self.pivots])

    def selected(self):
        return self.pivots[: self.rank]


@dataclass
class LowRankFactors:
    """Low-rank product ``u @ v`` of raw factors, with no orthogonality
    assumed; an SVD is a ``TruncatedSVD``. ``sigma`` is always None, and
    any other value raises ValueError: it is kept only for readers that
    test it."""

    u: np.ndarray
    v: np.ndarray
    sigma: None = None

    def __post_init__(self):
        if self.sigma is not None:
            raise ValueError("LowRankFactors takes no sigma: an SVD is a TruncatedSVD")

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[1])

    def matrix(self):
        return self.u @ self.v


class FactorBuffer:
    """Accumulated factors ``u`` (m, r) and ``v`` (r, n) of a cross sweep,
    appended to in place.

    Storage is preallocated with spare capacity that grows by about 1.5x,
    never beyond min(m, n), so appending one update copies only that update
    instead of the whole factor pair. A growth replaces ``u`` and releases
    the old one before it replaces ``v``, so it holds three buffers at once,
    not four. ``u`` is kept column-major and ``v`` row-major: both views are
    contiguous, and unused capacity is one untouched tail of each buffer.
    So ``u`` and ``v.T`` are the column-major arrays that ``?geqrt``
    factors: ``baca_compress`` hands them to the final recompression, which
    factors them in place, and H-BACA's merges pass a read-only view of
    ``v``, which the recompression copies.
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
            # one factor at a time: the old u is freed before the new v exists
            u = np.empty((self._u.shape[0], cap), dtype=self._u.dtype, order="F")
            u[:, : self.rank] = self.u
            self._u = u
            v = np.empty((cap, self._v.shape[1]), dtype=self._v.dtype)
            v[: self.rank] = self.v
            self._v = v
        self._u[:, self.rank : need] = u_k
        self._v[self.rank : need] = v_k
        self.rank = need


def _column_norms_sq(a):
    # squared norms of the columns of a matrix, or of each matrix in a stack
    if a.dtype.kind == "c":
        return np.einsum("...ij,...ij->...j", a.real, a.real) + np.einsum(
            "...ij,...ij->...j", a.imag, a.imag
        )
    return np.einsum("...ij,...ij->...j", a, a)


def _unit_outside(qk):
    # Unit vector orthogonal to the columns of qk (fewer than its rows): the
    # coordinate vector with the smallest projection onto their span, that
    # projection removed in two passes.
    i = int(np.argmin(_column_norms_sq(qk.T)))
    x = -(qk @ qk[i].conj())
    x[i] += 1.0
    x -= qk @ (x.conj() @ qk).conj()
    return x / np.sqrt(np.vdot(x, x).real)


def _qrcp_stack(a, cap, tol=None, eligible=None, lengths=None):
    """Column-pivoted CGS2 QR of every matrix in the (B, m, n) stack ``a``,
    in lockstep: each elimination step makes one numpy call per operation
    for the whole stack, and pivots every slice by ``argmax_tied_sq`` on its
    running norms. ``qrcp`` is the stack of one.

    Slice b runs ``cap[b]`` steps, or with ``tol`` stops earlier by qrcp's
    tolerance rule, pivoting only on the columns where ``eligible[b]`` is
    set (all when None). Its first ``lengths[b]`` rows (all when None) are
    its matrix; rows past them must be zero padding, and a substitute unit
    vector for a column in the span stays inside them. The caller checks
    that ``a`` is finite. A slice whose largest squared column norm lies
    outside SQ_NORM_RANGE is factored scaled by ``pow2_scale`` of its
    largest entry, which moves only exponents, and its rows and t are
    scaled back up to its rank; the other slices' bits do not change.

    Returns ``(qt, rows, t, piv, rank)``. With k = rank[b], slice b's
    factorization is q = ``qt[b, :k].T``, the coefficients ``rows[b, :k]``
    of q^H a as computed row by row (the pivot columns' entries without
    their reorthogonalization), the upper triangular ``t[b, :k, :k]`` in
    pivot order and the pivots ``piv[b, :k]``; entries past k are scratch.
    """
    nb, m, n = a.shape
    kmax = int(cap.max(initial=0))
    qt = np.empty((nb, kmax, m), dtype=a.dtype)  # row i is column i of q
    rows = np.empty((nb, kmax, n), dtype=a.dtype)
    t = np.zeros((nb, kmax, kmax), dtype=a.dtype)
    piv = np.zeros((nb, kmax), dtype=np.intp)
    rank = cap.copy()
    # running squared norms (first plane) and the floors below which they
    # count as cancelled (second); -inf marks a column never to be chosen
    norms = np.empty((2, nb, n))
    with np.errstate(over="ignore"):
        norms[0] = _column_norms_sq(a)
    mx = norms[0].max(axis=1, initial=0.0)
    # zero slices fall outside too, since mx cannot tell them from slices
    # whose squares all underflowed, and take pow2_scale(0) = 1
    scaled = ~((mx >= SQ_NORM_RANGE[0]) & (mx <= SQ_NORM_RANGE[1]))
    if scaled.any():
        scale = np.ones(nb)
        scale[scaled] = pow2_scale(np.abs(a[scaled]).max(axis=(1, 2), initial=0.0))
        a = a * scale[:, None, None]
        norms[0][scaled] = _column_norms_sq(a[scaled])
    if eligible is not None:
        norms[0][~eligible] = -np.inf
    norms[1] = DOWNDATE_RTOL**2 * norms[0]
    slices = np.arange(nb)
    live = np.ones(nb, dtype=bool)
    ends = set(cap.tolist())

    def retire(done):
        # a finished slice's state is scratch from here on: it is never
        # refreshed, and its later steps write only past its rank
        live[done] = False
        norms[:, done] = -np.inf

    for step in range(kmax):
        if step in ends:
            retire(cap == step)
        # free norms are >= 0 (stale ones recomputed), others -inf; all zero -> lowest free column
        j = argmax_tied_sq(norms[0], axis=1)
        x = a[slices, :, j]
        qk = qt[:, :step]
        if step:
            # the first pass reuses the stored coefficients q_i^H a_j
            prev = rows[slices, :step, j]
            x -= np.matmul(prev[:, None, :], qk)[:, 0]
            first = np.sqrt(np.vecdot(x, x).real)
            coef = np.vecdot(qk, x[:, None, :])
            x -= np.matmul(coef[:, None, :], qk)[:, 0]
            t[:, :step, step] = prev + coef
        diag = np.sqrt(np.vecdot(x, x).real)
        if not step:
            first = first_diag = diag
        if tol is not None:
            stop = live & (diag <= tol * first_diag)
            if stop.any():
                rank[stop] = step
                retire(stop)
                if not live.any():
                    break

        # A second pass that cancels more than half of the first means the
        # column lies in the span to working precision: x is rounding noise
        # and any unit vector outside the span serves (Parlett's "twice is
        # enough").
        weak = diag <= 0.5 * first
        for b in np.flatnonzero(weak & live):
            mb = m if lengths is None else lengths[b]
            x[b] = 0.0
            x[b, :mb] = _unit_outside(qk[b, :, :mb].T)
        np.divide(x, np.where(weak, 1.0, diag)[:, None], out=qt[:, step])
        np.matmul(qt[:, step, None].conj(), a, out=rows[:, step, None])
        t[:, step, step] = diag
        piv[:, step] = j
        if step + 1 == kmax:
            break

        row = rows[:, step]
        norms[0] -= (row * row.conj()).real
        # a pivoted column is never selected nor refreshed again
        norms[:, slices, j] = -np.inf
        # negative or cancelled running norms are recomputed
        stale = norms[0] < norms[1]
        if stale.any():
            k = step + 1
            for b in np.flatnonzero(stale.any(axis=1)):
                cols = np.flatnonzero(stale[b])
                fresh = _column_norms_sq(a[b][:, cols] - qt[b, :k].T @ rows[b][:k, cols])
                norms[0, b, cols] = fresh
                norms[1, b, cols] = DOWNDATE_RTOL**2 * fresh
    for b in np.flatnonzero(scaled):
        # only up to the rank: scratch past it may overflow when scaled back
        k = rank[b]
        rows[b, :k] /= scale[b]
        t[b, :k, :k] /= scale[b]
    return qt, rows, t, piv, rank


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
        Relative diagonal cutoff, in (0, 1).

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
    if tol is not None:
        _check_tol(tol)

    cap = np.array([min(m, n) if rank is None else rank])
    # one memory layout, so the bits never depend on the caller's
    qt, rows, t, piv, k = _qrcp_stack(np.ascontiguousarray(a)[None], cap, tol=tol)
    k = int(k[0])
    selected = piv[0, :k]
    rows = rows[0, :k]
    # the pivot columns take their reorthogonalized coefficients
    rows[:, selected] = np.where(np.tri(k, dtype=bool).T, t[0, :k, :k], rows[:, selected])
    free = np.ones(n, dtype=bool)
    free[selected] = False
    pivots = np.concatenate([selected, np.flatnonzero(free)])
    return QRCPResult(q=qt[0, :k].T, rows=rows, pivots=pivots, rank=k)


def epsilon_rank(sigma, tol):
    """Smallest k with ``sigma[k] < tol * sigma[0]`` (strict); the full length
    if never triggered; 0 for an empty or zero spectrum. ``tol`` must lie
    in (0, 1)."""
    _check_tol(tol)
    sigma = np.asarray(sigma)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    below = np.nonzero(sigma < tol * sigma[0])[0]
    return int(below[0]) if below.size else int(sigma.size)


def truncated_svd(a, tol):
    """Truncated SVD of a dense matrix at relative tolerance ``tol`` in
    (0, 1), by ``epsilon_rank``."""
    _check_tol(tol)
    u, s, vt = np.linalg.svd(checked_matrix(a, "a"), full_matrices=False)
    r = epsilon_rank(s, tol)
    return TruncatedSVD(u=np.ascontiguousarray(u[:, :r]), sigma=s[:r].copy(),
                        vt=np.ascontiguousarray(vt[:r, :]))


def pow2_scale(amax):
    """Exact scale 2^-e that brings the maximum magnitude ``amax`` into
    [0.5, 1); 1 for zero. Multiplying by it only moves exponents, so the
    squares of the scaled entries neither under- nor overflow, and every
    rounding in range is the unscaled one, scaled. A float for a scalar,
    elementwise for an array."""
    # a subnormal maximum scales only as far as 2^1022 stays finite
    if np.ndim(amax):
        return np.ldexp(1.0, -np.maximum(np.frexp(amax)[1], -1022))
    return math.ldexp(1.0, -max(math.frexp(amax)[1], -1022))


def vector_norm(x):
    """2-norm of a vector, scaled by ``pow2_scale`` around the squares:
    ``np.linalg.norm(x)`` bit for bit wherever that neither under- nor
    overflows."""
    scale = pow2_scale(np.abs(x).max(initial=0.0))
    return float(np.linalg.norm(x * scale) / scale)


def _lr_norms(u, v):
    """Frobenius norms of the products ``u[b] @ v[b]`` over a stack, each in
    O((m + n) r^2) as ``||R v||_F`` for the thin QR u = Q R, with no Gram
    matrix to square the conditioning when ``u v`` cancels. Zero padding
    past a slice's rank adds nothing. Each slice of R v is scaled by
    ``pow2_scale`` of its largest entry."""
    rv = np.linalg.qr(u, mode="r") @ v
    scale = pow2_scale(np.abs(rv).max(axis=(1, 2), initial=0.0))
    return np.linalg.norm(rv * scale[:, None, None], axis=(1, 2)) / scale


def lr_norm(u, v):
    """Frobenius norm of ``u @ v`` in O((m + n) r^2) without forming the
    product: ``||R v||_F`` for the thin QR u = Q R."""
    u = checked_matrix(u, "u")
    v = checked_matrix(v, "v")
    if u.shape[1] != v.shape[0]:
        raise ValueError(f"inner dimensions disagree: {u.shape} vs {v.shape}")
    return float(_lr_norms(u[None], v[None])[0])


def lr_norm_prefixes(u, v, mu, starts, nu):
    """Norms of ``u @ v`` truncated after each of a run of blocks, the
    incremental norm routine of the cross sweeps.

    The blocks split the columns of u (rows of v) from s = ``starts[0]``
    on: block i runs from ``starts[i]`` to ``starts[i + 1]``, the last to
    the end. ``mu`` is the norm of ``u[:, :s] @ v[:s]`` and ``nu[i]`` that
    of block i's product. Returns the norms mu_i of the products through
    block i, from

        mu_i^2 = mu_{i-1}^2 + nu_i^2 + 2 Re <prefix before block i, block i>

    clamped at zero where rounding drives it negative near convergence.
    Every cross term comes from the products ``ubar^H u`` and ``conj(vbar)
    v^T`` with ubar = u[:, s:] and vbar = v[s:], taken SETTLE_CHUNK pending
    columns at a time against only the columns before them: O((m + n) r
    (r - s)), with copies of one chunk of ubar and vbar, never of the whole
    of u or v. The copies are scaled by ``pow2_scale`` of the largest entry
    of ubar and of vbar, and the cross terms, mu and nu by the product of
    those scales, so that no product or square under- or overflows while
    the largest entries of u and v multiply to within about 2^(+-900).
    """
    s, r = starts[0], u.shape[1]
    chunks = range(s, r, SETTLE_CHUNK)
    su = pow2_scale(max((np.abs(u[:, lo : lo + SETTLE_CHUNK]).max() for lo in chunks), default=0.0))
    sv = pow2_scale(max((np.abs(v[lo : lo + SETTLE_CHUNK]).max() for lo in chunks), default=0.0))
    ends = [*starts[1:], r]
    # column s + b's cross term with the columns before its block, scaled
    # by su sv here and once more below, as mu^2 is
    first = np.repeat(starts, np.subtract(ends, starts))
    cross = np.empty(r - s)
    for lo in chunks:
        hi = min(lo + SETTLE_CHUNK, r)
        terms = np.real((u[:, lo:hi].conj().T * su @ u[:, :hi]) * (v[lo:hi].conj() * sv @ v[:hi].T))
        before = np.arange(hi) < first[lo - s : hi - s, None]
        cross[lo - s : hi - s] = np.where(before, terms, 0.0).sum(axis=1)
    cross *= su
    cross *= sv
    out = []
    mu = mu * su * sv
    for lo, hi, nu_i in zip(starts, ends, nu):
        nu_i = nu_i * su * sv
        sq = mu * mu + nu_i * nu_i + 2.0 * float(cross[lo - s : hi - s].sum())
        mu = math.sqrt(max(sq, 0.0))
        out.append(mu / su / sv)
    return out


def lr_norm_update(u, v, mu, ubar, vbar, nu):
    """Norm of the concatenated product ``[u, ubar] @ [v; vbar]`` given
    ``mu = ||u v||_F`` and ``nu = ||ubar vbar||_F``: ``lr_norm_prefixes``
    with one block, in O((m + n) (r + rbar) rbar)."""
    return lr_norm_prefixes(np.hstack([u, ubar]), np.vstack([v, vbar]), mu, [u.shape[1]], [nu])[0]


@functools.cache
def _bundled_openblas():
    """numpy's bundled OpenBLAS (wheel builds ship it in numpy.libs), or
    None for a numpy linked against some other BLAS; looked up once per
    process."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    libs = sorted(glob.glob(os.path.join(libs_dir, "libscipy_openblas64_*.so*")))
    if not libs:
        return None
    try:
        # already loaded by numpy: this returns a handle to the same copy
        return ctypes.CDLL(libs[0])
    except OSError:
        return None


@functools.cache
def _compact_wy_routines():
    """LAPACKE's ``?geqrt`` and ``?gemqrt`` work routines in numpy's bundled
    OpenBLAS, as ``{dtype: (geqrt, gemqrt)}`` for float64 and complex128;
    None without that library or with any of the four missing. Bound once
    per process; the library is ILP64, so every ``lapack_int`` is 64-bit."""
    lib = _bundled_openblas()
    if lib is None:
        return None
    i64, ptr, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    routines = {}
    for prefix, dtype in (("d", np.float64), ("z", np.complex128)):
        try:
            geqrt = getattr(lib, f"scipy_LAPACKE_{prefix}geqrt_work64_")
            gemqrt = getattr(lib, f"scipy_LAPACKE_{prefix}gemqrt_work64_")
        except AttributeError:
            return None
        # (layout, m, n, nb, a, lda, t, ldt, work)
        geqrt.argtypes = [ctypes.c_int, i64, i64, i64, ptr, i64, ptr, i64, ptr]
        # (layout, side, trans, m, n, k, nb, v, ldv, t, ldt, c, ldc, work)
        gemqrt.argtypes = [ctypes.c_int, char, char, i64, i64, i64, i64,
                           ptr, i64, ptr, i64, ptr, i64, ptr]
        geqrt.restype = gemqrt.restype = i64
        routines[np.dtype(dtype)] = geqrt, gemqrt
    return routines


def _lapack(routine, *args):
    info = routine(_COL_MAJOR, *args)
    if info:
        raise RuntimeError(f"{routine.__name__} returned info = {info}")


def _householder_qr(a):
    """Thin QR ``a = q @ r`` of an (m, k) float64 or complex128 matrix with
    q never formed.

    Returns ``(r, q_times)``: r is the (l, k) upper trapezoidal factor,
    l = min(m, k), and ``q_times(x)`` returns ``q @ x`` for the (m, l)
    column-orthonormal q and any x with l rows. q stays the product of the
    Householder reflectors ``H_i = I - tau_i v_i v_i^H`` and is applied in
    compact WY form, ``I - V T V^H`` (Joffrain et al. 2006), which costs
    less than forming it.

    The caller hands a over: LAPACK's ``?geqrt`` factors a writeable
    column-major (F-contiguous) a in place, so that a holds the reflectors
    from then on, and any other a in a column-major copy. A caller that
    reads a again passes a copy or a read-only view. ``?geqrt`` factors in
    blocks of QR_BLOCK columns, each panel by recursion (Elmroth &
    Gustavson 2000), and keeps one triangular T per block; ``?gemqrt``
    applies the blocks to a zero-padded (m, cols) copy of x in place. Both
    run on numpy's bundled OpenBLAS, under its thread count. r then matches
    ``np.linalg.qr(a)`` to rounding: both use ``?larfg``'s reflectors, with
    the same signs. Where those routines are not available,
    ``_householder_qr_numpy`` runs instead, on a copy of a, and r is
    numpy's bit for bit.
    """
    routines = _compact_wy_routines()
    if routines is None or a.dtype not in routines or not min(a.shape):
        return _householder_qr_numpy(a)
    geqrt, gemqrt = routines[a.dtype]
    m, k = a.shape
    l = min(m, k)
    nb = min(QR_BLOCK, l)
    # reflectors below the diagonal, r on and above it, in a itself when it
    # has ?geqrt's layout: the same input, and so the same bits, as a copy
    h = a if a.flags.f_contiguous and a.flags.writeable else np.array(a, order="F")
    t = np.zeros((nb, l), dtype=h.dtype, order="F")
    # every array LAPACK writes is numpy's, and held for the whole call
    work = np.empty(nb * k, dtype=h.dtype)
    _lapack(geqrt, m, k, nb, h.ctypes.data, m, t.ctypes.data, nb, work.ctypes.data)
    r = np.triu(h[:l])

    def apply(x):
        cols = x.shape[1]
        out = np.zeros((m, cols), dtype=h.dtype, order="F")
        out[:l] = x
        if cols:
            work = np.empty(cols * nb, dtype=h.dtype)
            _lapack(gemqrt, b"L", b"N", m, cols, l, nb, h.ctypes.data, m, t.ctypes.data, nb,
                    out.ctypes.data, m, work.ctypes.data)
        return out

    # q_times never refers to itself: a reference cycle would hold the
    # reflectors until the next garbage collection
    def q_times(x):
        if x.dtype.kind == "c" and h.dtype.kind != "c":
            # a real q applies to the real and imaginary parts apart
            return apply(x.real) + 1j * apply(x.imag)
        return apply(x)

    return r, q_times


def _householder_qr_numpy(a):
    """``_householder_qr`` through ``np.linalg.qr``: r is numpy's R bit for
    bit, and q is applied from LAPACK's reflectors with the compact WY
    factor rebuilt from them, ``T^-1 = diag(1 / tau) + striu(V^H V)``. A
    reflector with tau_i = 0 is the identity (the last one of a square or
    wide input, or one on a zero sub-column): its v_i is zeroed and its
    diagonal entry of T^-1 set to 1, which leaves the product unchanged.
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
    """SVD re-compression of a low-rank product ``u @ v`` at tolerance
    ``tol`` in (0, 1), for checked inputs: the one-block case of
    ``_recompress_side_by_side``, the kernel every H-BACA merge runs too.
    Thin Householder QRs of u and v^T (LAPACK's blocked ``?geqrt`` where
    numpy bundles OpenBLAS), a truncated SVD of the small core product,
    and the two Q factors applied to its singular vectors from their
    reflectors, never formed; never increases the rank beyond the inner
    dimension.

    The caller's u and v are never written. The kernel factors in place
    what it may write, so it gets read-only views of them and factors
    column-major copies, which become its two reflector sets; each is made
    as its QR starts. ``baca_compress`` hands its sweep buffers to the
    kernel instead and copies neither. Working memory is the two copies,
    one the size of each input factor, plus the outputs: v^T is factored as
    it is, and the conjugation that v^H would need falls on the small R
    factor and the core's vectors; u is formed and its reflectors dropped
    before vt is formed, and no full-size output is conjugated.
    """
    _check_tol(tol)
    u = checked_matrix(u, "u")
    v = checked_matrix(v, "v")
    if u.shape[1] != v.shape[0]:
        raise ValueError(f"inner dimensions disagree: {u.shape} vs {v.shape}")
    return _recompress_side_by_side([LowRankFactors(_read_only(u), _read_only(v))], tol)


def _read_only(a):
    """A read-only view of ``a``: handed to the recompression kernel, it is
    copied where it would have been factored in place."""
    view = a.view()
    view.flags.writeable = False
    return view


def _recompress_side_by_side(blocks, tol):
    """Truncated SVD at ``tol`` of blocks side by side over the same rows,
    ``[A_1, A_2, ...]``: the one recompression kernel, of ``lr_recompress``,
    of ``baca_compress`` and of every H-BACA merge.

    A block is raw factors (``LowRankFactors``, A_i = u_i v_i) or an SVD
    (``TruncatedSVD``, A_i = u_i diag(sigma_i) vt_i). One Householder QR
    (``_householder_qr``) factors the stacked ``[u_1, u_2, ...] = Q_u R_u``.
    A raw block's v_i^T gets a QR of its own, v_i^T = Q_i R_i; an SVD
    block's vt_i is already orthonormal and gets none, as if R_i^T were
    diag(sigma_i) and Q_i^T vt_i. Only the small core ``[R_u[:, i] R_i^T]``
    over the blocks i is decomposed and truncated. Q_u is applied to the
    core's left singular vectors from its reflectors, and each block of its
    right singular vectors picks up its Q_i^T, written into one vt. A block
    may hold more rank than it has rows or columns, and together more than
    u has rows; every R then has the smaller side.

    The kernel owns what it is handed, and empties ``blocks``: it factors
    in place (``_householder_qr``) the stack of u it builds, a lone block's
    u and each raw block's v^T, wherever they are writeable and
    column-major, and it drops its last reference to the u reflectors once
    Q_u has been applied, before vt is formed. An SVD block's vt is only
    read. So a caller hands over arrays that nothing reads again and keeps
    no reference of its own, as ``baca_compress`` does with its sweep
    buffers, or passes read-only views, which the kernel copies, as
    ``lr_recompress`` and ``merge_pair_horizontal`` do.
    """
    inner = np.cumsum([0] + [b.rank for b in blocks])
    ends = np.cumsum([0] + [b.shape[1] for b in blocks])
    # ?geqrt works on column-major arrays: stacking the u_i that way makes
    # the stack one, and a lone u is factored as it is handed over
    u = blocks[0].u if len(blocks) == 1 else np.concatenate([b.u.T for b in blocks]).T
    # per block: its sigma and vt, or no sigma and its v^T
    rights = [(b.sigma, b.vt) if isinstance(b, TruncatedSVD) else (None, b.v.T)
              for b in blocks]
    blocks.clear()
    tu, qu_times = _householder_qr(u)
    del u
    # v^T = conj(Q_v) conj(R_v) for the QR v^H = Q_v R_v, so R_v^H = tv.T
    # and vt = core.vt Q_v^H = (conj(Q_v) core.vt^T)^T
    cols = []
    for i, (sigma, right) in enumerate(rights):
        # from here on: the block's vt, or its v^T's Q applier
        if sigma is None:
            tv, rights[i] = _householder_qr(right)
            cols.append(tu[:, inner[i] : inner[i + 1]] @ tv.T)
        else:
            cols.append(tu[:, inner[i] : inner[i + 1]] * sigma)
            rights[i] = right
    # on the np.linalg.qr path the reflectors are a copy: a v^T handed over
    # is freed here, as u was above
    del right
    outer = np.cumsum([0] + [c.shape[1] for c in cols])
    # the pieces go before the SVD: held through it, they raised the peak
    # RSS of the baca-hankel benchmark from 222 to 237 MB (2-vCPU host),
    # though not its traced peak
    core = np.hstack(cols)
    del cols
    core = truncated_svd(core, tol)
    u = qu_times(core.u)
    del qu_times
    if len(rights) == 1:
        # a lone block's piece is the whole vt, kept as it comes
        right = rights[0]
        vt = right(core.vt.T).T if callable(right) else core.vt @ right
        return TruncatedSVD(u=u, sigma=core.sigma, vt=vt)
    # the blocks' pieces go into one vt: an SVD block's straight from its
    # product, a raw block's ?gemqrt piece through a copy. core.vt is
    # complex wherever a raw block's v is.
    vt = np.empty((core.rank, ends[-1]),
                  dtype=np.result_type(core.vt, *(r for r in rights if not callable(r))))
    for right, lo, hi, c0, c1 in zip(rights, outer, outer[1:], ends, ends[1:]):
        if callable(right):
            vt[:, c0:c1] = right(core.vt[:, lo:hi].T).T
        else:
            np.matmul(core.vt[:, lo:hi], right, out=vt[:, c0:c1])
    return TruncatedSVD(u=u, sigma=core.sigma, vt=vt)
