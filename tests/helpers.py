"""Shared test utilities: independent oracles and small matrix builders."""

from decimal import Decimal, getcontext

import numpy as np

from lrcompress.seeding import make_rng

EULER_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
PI = Decimal("3.14159265358979323846264338327950288419716939937511")


def gram_epsilon_rank(a, tol):
    """Brute-force epsilon-rank oracle: singular values from the eigenvalues
    of the Gram matrix A^H A, then the strict truncation rule.

    Squaring limits the resolution to roughly sqrt(machine eps); only use
    with tol >= 1e-6.
    """
    a = np.asarray(a)
    gram = a.conj().T @ a
    eig = np.linalg.eigvalsh(gram)
    sigma = np.sqrt(np.maximum(eig[::-1], 0.0))
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    below = np.nonzero(sigma < tol * sigma[0])[0]
    return int(below[0]) if below.size else int(sigma.size)


def rel_fro(approx, exact):
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(approx - exact) / denom)


def exact_rank_matrix(seed, m, n, rank):
    rng = make_rng(seed)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def random_factors(seed, m, n, rank, complex_=False):
    rng = make_rng(seed)
    if complex_:
        u = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        v = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    else:
        u = rng.standard_normal((m, rank))
        v = rng.standard_normal((rank, n))
    return u, v


def _series_prec(x):
    # The largest series term is ~e^x/(pi*x); keep ~40 digits past it.
    return 60 + int(0.9 * float(x))


def _bessel0_series_decimal(x):
    # J0 power series and the harmonic companion sum of Y0, in decimal
    # arithmetic wide enough to absorb the cancellation.
    prec = _series_prec(x)
    getcontext().prec = prec
    xd = Decimal(repr(float(x)))
    q = (xd / 2) ** 2
    term = Decimal(1)
    harmonic = Decimal(0)
    j0_total = Decimal(1)
    y0_total = Decimal(0)
    cutoff = Decimal(10) ** (-(prec - 5))
    m = 0
    while True:
        m += 1
        harmonic += Decimal(1) / m
        term *= -q / (m * m)
        j0_total += term
        y0_total -= term * harmonic
        if abs(term) < cutoff and m > float(x) / 2 + 8:
            break
    return xd, j0_total, y0_total


def j0_series(x):
    """J0 by its power series (independent of the library's piecewise
    evaluation)."""
    _, j0_total, _ = _bessel0_series_decimal(x)
    return float(j0_total)


def y0_series(x):
    """Y0 via the log-plus-harmonic-series form in decimal arithmetic."""
    xd, j0_total, y0_total = _bessel0_series_decimal(x)
    log_term = (xd / 2).ln() + EULER_GAMMA
    return float((2 / PI) * (log_term * j0_total + y0_total))


def conj_transposed(svd):
    """The TruncatedSVD of A^H from that of A, both factors C-contiguous."""
    from lrcompress.linalg import TruncatedSVD

    return TruncatedSVD(u=np.ascontiguousarray(svd.vt.conj().T), sigma=svd.sigma.copy(),
                        vt=np.ascontiguousarray(svd.u.conj().T))


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
    v /= alpha - beta
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


def householder_qrcp(a, rank=None, tol=None):
    """Reference column-pivoted QR: right-looking Householder elimination
    with column swaps on a working copy, same pivot and stopping rules as
    ``lrcompress.linalg.qrcp`` (largest running norm, near-ties within
    TIE_RTOL to the lowest original column index, stale norms recomputed
    below DOWNDATE_RTOL). Returns a QRCPResult."""
    from lrcompress.linalg import DOWNDATE_RTOL, TIE_RTOL, QRCPResult

    a = np.asarray(a)
    a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64)
    m, n = a.shape
    kmax = min(m, n) if rank is None else rank
    r = a.copy()
    piv = np.arange(n)
    taus = np.zeros(kmax, dtype=r.dtype)
    norms2 = (np.abs(r) ** 2).sum(axis=0)
    ref2 = norms2.copy()

    first_diag = None
    k = 0
    for step in range(kmax):
        tail = norms2[step:]
        tied = np.flatnonzero(tail >= tail.max() * (1.0 - 2.0 * TIE_RTOL))
        j = step + tied[np.argmin(piv[step:][tied])]
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

    q = _accumulate_q(r, taus, m, k)
    # back to the original column order, where QRCPResult keeps q^H a
    rows = np.triu(r[:k, :])[:, np.argsort(piv)]
    return QRCPResult(q=q, rows=rows, pivots=piv, rank=k)
