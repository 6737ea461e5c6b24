import numpy as np
import pytest

from helpers import j0_series, y0_series
from lrcompress.bessel import bessel_j0, bessel_y0, hankel2_0
from lrcompress.kernels import Hankel2DKernel, _pairwise_sq, strip_cloud
from lrcompress.seeding import make_rng

# spans both sides of the domain split at x = 5
SAMPLE_ARGS = [0.1, 0.5, 1.0, 2.0, 4.0, 4.9, 5.1, 7.0, 12.0, 25.0]


def test_j0_against_series_oracle():
    for x in SAMPLE_ARGS:
        assert abs(bessel_j0(x) - j0_series(x)) <= 1e-10


def test_y0_against_series_oracle():
    for x in SAMPLE_ARGS:
        assert abs(bessel_y0(x) - y0_series(x)) <= 1e-10


def test_large_arguments():
    for x in [60.0, 200.0, 400.0]:
        assert abs(bessel_j0(x) - j0_series(x)) <= 1e-10
        assert abs(bessel_y0(x) - y0_series(x)) <= 1e-10


def test_j0_at_zero_and_evenness():
    assert bessel_j0(0.0) == 1.0
    x = np.linspace(0.2, 9.0, 13)
    assert np.array_equal(bessel_j0(-x), bessel_j0(x))


def test_y0_rejects_nonpositive():
    with pytest.raises(ValueError):
        bessel_y0(0.0)
    with pytest.raises(ValueError):
        bessel_y0(np.array([1.0, -2.0]))


def test_vectorized_matches_scalar():
    x = np.array(SAMPLE_ARGS)
    vec = bessel_j0(x)
    for xi, yi in zip(x, vec):
        assert yi == bessel_j0(float(xi))


def test_hankel_second_kind():
    # the kernel at wavenumber 1 and distance 1 is H0^(2)(1) = J0(1) - i Y0(1)
    h = Hankel2DKernel(1.0).block(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))[0, 0]
    assert h.real == pytest.approx(j0_series(1.0), abs=1e-12)
    assert h.imag == pytest.approx(-y0_series(1.0), abs=1e-12)


def _bits(x):
    # the raw bytes, so signed zeros and every last bit count
    return np.atleast_1d(np.asarray(x)).view(np.uint8)


@pytest.mark.parametrize("x", [
    0.3, 5.0, 5.0 + 1e-12, 5.0 - 1e-12, 37.5,
    np.array(5.0),
    np.array([5.0]),
    np.array(SAMPLE_ARGS),
    np.linspace(5.5, 900.0, 41),
    np.linspace(1e-9, 5.0, 41),
    make_rng(71).uniform(1e-6, 12.0, (9, 7)),
    make_rng(72).uniform(6.0, 3e3, (40, 8)),
])
def test_hankel2_0_is_bitwise_j0_minus_i_y0(x):
    got = hankel2_0(x)
    want = bessel_j0(x) - 1j * bessel_y0(x)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.complex128
    assert np.array_equal(_bits(got), _bits(want))


def test_hankel2_0_rejects_nonpositive():
    for x in [0.0, -1.0, np.array([1.0, 0.0]), np.array([[6.0], [-6.0]])]:
        with pytest.raises(ValueError):
            hankel2_0(x)


@pytest.mark.parametrize("wavenumber", [4.0, 400.0])
def test_hankel_kernel_strip_block_bitwise(wavenumber):
    # rows on one strip, an 8-column block on the other: kr crosses x = 5
    # at the small wavenumber and lies far above it at the large one
    pts = strip_cloud(wavenumber, 15).points
    n = pts.shape[0] // 2
    xr, xc = pts[:n], pts[n:][::max(n // 8, 1)][:8]
    kr = wavenumber * np.sqrt(_pairwise_sq(xr, xc))
    want = bessel_j0(kr) - 1j * bessel_y0(kr)
    got = Hankel2DKernel(wavenumber).block(xr, xc)
    assert np.array_equal(_bits(got), _bits(want))
