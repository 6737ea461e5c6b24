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
