"""Bessel functions J0 and Y0 and the Hankel function H0^(2) = J0 - i Y0,
vectorized over float64 arrays.

The domain splits at x = 5: below, rational approximations in x^2 (plus the
logarithmic term for Y0); above, the Hankel asymptotic form with two rational
functions of degree 6/6 and 7/7. Coefficients are the classic Cephes tables
(Stephen L. Moshier, Cephes Math Library Release 2.1, public domain); peak
absolute error is a few 1e-15 on [0, 30]. ``hankel2_0`` is one fused pass
over both: the asymptotic pieces, cosine and sine (or, below x = 5, the J0
values inside Y0's logarithmic term) are evaluated once, and an argument
array on one side of x = 5 is used whole instead of gathered and scattered.
Its values are bitwise those of ``bessel_j0(x) - 1j * bessel_y0(x)``.
"""

import numpy as np

__all__ = ["bessel_j0", "bessel_y0", "hankel2_0"]

PIO4 = 7.85398163397448309616e-1
SQ2OPI = 7.9788456080286535587989e-1
TWOOPI = 6.36619772367581343075535e-1

RP = [
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
]
RQ = [
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
]
DR1 = 5.78318596294678452118e0
DR2 = 3.04712623436620863991e1

PP = [
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
]
PQ = [
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
]
QP = [
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
]
QQ = [
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
]
YP = [
    1.55924367855235737965e4,
    -1.46639295903971606143e7,
    5.43526477051876500413e9,
    -9.82136065717911466409e11,
    8.75906394395366999549e13,
    -3.46628303384729719441e15,
    4.42733268572569800351e16,
    -1.84950800436986690637e16,
]
YQ = [
    1.04128353664259848412e3,
    6.26107330137134956842e5,
    2.68919633393814121987e8,
    8.64002487103935000337e10,
    2.02979612750105546709e13,
    3.17157752842975028269e15,
    2.50596256172653059228e17,
]


def _polevl(x, coef):
    # Horner's rule in place on one fresh array
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    # like _polevl with an implicit leading coefficient of 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _asymptotic(x):
    # modulus/phase pieces shared by J0 and Y0 for x > 5
    w = 5.0 / x
    z = 25.0 / (x * x)
    p = _polevl(z, PP) / _polevl(z, PQ)
    q = _polevl(z, QP) / _p1evl(z, QQ)
    xn = x - PIO4
    factor = SQ2OPI / np.sqrt(x)
    return w, p, q, xn, factor


def _j0_small(x):
    # J0 for |x| <= 5
    z = x**2
    p = (z - DR1) * (z - DR2) * _polevl(z, RP) / _p1evl(z, RQ)
    return np.where(z < 1e-10, 1.0 - z / 4.0, p)


def _j0_y0_small(x):
    # (J0, Y0) for 0 < x <= 5; J0 enters Y0's logarithmic term
    j0 = _j0_small(x)
    z = x**2
    return j0, _polevl(z, YP) / _p1evl(z, YQ) + TWOOPI * np.log(x) * j0


def _j0_y0_large(x):
    # (J0, Y0) for x > 5 from one asymptotic evaluation, cosine and sine
    w, p, q, xn, factor = _asymptotic(x)
    wq = w * q
    c = np.cos(xn)
    s = np.sin(xn)
    return factor * (p * c - wq * s), factor * (p * s + wq * c)


def _split_at_5(x, small_fn, large_fn):
    """``small_fn`` where x <= 5 and ``large_fn`` elsewhere, as one array of
    x's shape (a scalar for a 0-d x). Each function maps an array to an
    array of its shape; when every x lies on one side, it gets x whole,
    without a gather and scatter."""
    x1 = np.atleast_1d(x)
    small = x1 <= 5.0
    if small.all():
        out = small_fn(x1)
    elif not small.any():
        out = large_fn(x1)
    else:
        lo = small_fn(x1[small])
        out = np.empty(x1.shape, dtype=lo.dtype)
        out[small] = lo
        large = ~small
        out[large] = large_fn(x1[large])
    return out[0] if x.ndim == 0 else out


def _positive(x, name):
    x = np.asarray(x, dtype=np.float64)
    if (x <= 0.0).any():
        raise ValueError(f"{name} requires strictly positive arguments")
    return x


def bessel_j0(x):
    """Bessel function of the first kind, order zero."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    return _split_at_5(x, _j0_small, lambda xl: _j0_y0_large(xl)[0])


def bessel_y0(x):
    """Bessel function of the second kind, order zero; requires x > 0."""
    x = _positive(x, "bessel_y0")
    return _split_at_5(x, lambda xs: _j0_y0_small(xs)[1],
                       lambda xl: _j0_y0_large(xl)[1])


def _j0_minus_i_y0(pair):
    j0, y0 = pair
    out = np.empty(j0.shape, dtype=np.complex128)
    out.real = j0
    np.negative(y0, out=out.imag)
    return out


def hankel2_0(x):
    """Hankel function of the second kind, order zero, H0^(2)(x) =
    J0(x) - i Y0(x); requires x > 0.

    One fused evaluation: below x = 5, Y0's logarithmic term reuses the J0
    values; above, J0 and Y0 share one asymptotic evaluation, cosine and
    sine. Bitwise equal to ``bessel_j0(x) - 1j * bessel_y0(x)``.
    """
    x = _positive(x, "hankel2_0")
    return _split_at_5(x, lambda xs: _j0_minus_i_y0(_j0_y0_small(xs)),
                       lambda xl: _j0_minus_i_y0(_j0_y0_large(xl)))
