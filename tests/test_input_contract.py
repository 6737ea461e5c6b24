"""The input contract of the compressors: every call returns finite factors
or raises ValueError. A custom oracle that yields NaN or inf on one row or
column gets no factors built from it, whichever sweep reads it."""

import numpy as np
import pytest

from lrcompress.aca import AcaConfig, aca_compress
from lrcompress.baca import BacaConfig, baca_compress
from lrcompress.hmerge import hbaca_compress
from lrcompress.kernels import EntryOracle
from lrcompress.linalg import TruncatedSVD
from lrcompress.seeding import make_rng

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class _PoisonedOracle(EntryOracle):
    """A dense matrix behind a custom oracle, which checks nothing."""

    def __init__(self, a):
        self.a = a
        self.rows, self.cols = a.shape
        self.dtype = a.dtype

    def block(self, row_idx, col_idx):
        return self.a[np.ix_(row_idx, col_idx)]


def _factor_arrays(result):
    if isinstance(result, TruncatedSVD):
        return result.u, result.sigma, result.vt
    return result.u, result.v


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 10),
    n=st.integers(2, 10),
    rank=st.integers(1, 4),
    complex_=st.booleans(),
    on_row=st.booleans(),
    at=st.integers(0, 9),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, "complex"]),
    algorithm=st.sampled_from(["aca", "baca", "hbaca"]),
    n_blocks=st.sampled_from([1, 4]),
    block_size=st.integers(1, 4),
)
@hypothesis.example(seed=0, m=8, n=8, rank=3, complex_=False, on_row=True, at=2, bad=np.nan,
                    algorithm="aca", n_blocks=1, block_size=1)
def test_finite_factors_or_value_error(seed, m, n, rank, complex_, on_row, at, bad,
                                       algorithm, n_blocks, block_size):
    rng = make_rng(seed)
    shape_u, shape_v = (m, rank), (rank, n)
    u, v = rng.standard_normal(shape_u), rng.standard_normal(shape_v)
    if complex_ or bad == "complex":
        u = u + 1j * rng.standard_normal(shape_u)
        v = v + 1j * rng.standard_normal(shape_v)
    a = u @ v
    value = complex(np.nan, np.inf) if bad == "complex" else bad
    if on_row:
        a[at % m, :] = value
    else:
        a[:, at % n] = value
    oracle = _PoisonedOracle(a)
    try:
        if algorithm == "aca":
            result, _ = aca_compress(oracle, AcaConfig(tol=1e-8, seed=seed))
        elif algorithm == "baca":
            result, _ = baca_compress(oracle, BacaConfig(block_size, 1e-8, seed=seed))
        else:
            result, _ = hbaca_compress(oracle, n_blocks, BacaConfig(block_size, 1e-8, seed=seed))
    except ValueError as exc:
        assert "non-finite" in str(exc)
        return
    for f in _factor_arrays(result):
        assert np.isfinite(f).all()
