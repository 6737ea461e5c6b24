import numpy as np
import pytest

from helpers import j0_series, y0_series
from lrcompress.bessel import bessel_j0, bessel_y0
from lrcompress.kernels import Hankel2DKernel

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
