"""Property: merging two truncated SVDs and densifying gives the same matrix
as densifying both blocks and truncating their concatenation."""

import numpy as np
import pytest

from helpers import conj_transposed
from lrcompress.hmerge import BlockSVD, merge_pair_horizontal, merge_pair_vertical
from lrcompress.linalg import TruncatedSVD, truncated_svd
from lrcompress.seeding import make_rng

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOL = 1e-7


def noisy_block(rng, m, n, rank, complex_):
    """Truncated SVD of an m x n block: ``rank`` singular values in
    [1e-3, 1] plus a few in [1e-14, 1e-12], far below TOL, so that the
    truncation has something to drop."""
    noise = min(m, n) - rank
    total = rank + min(noise, 3)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    u = np.linalg.qr(draw((m, total)))[0]
    v = np.linalg.qr(draw((n, total)))[0]
    big = 10.0 ** rng.uniform(-3.0, 0.0, rank)
    small = 10.0 ** rng.uniform(-14.0, -12.0, total - rank)
    sigma = np.sort(np.concatenate([big, small]))[::-1]
    return TruncatedSVD(u=np.ascontiguousarray(u), sigma=sigma,
                        vt=np.ascontiguousarray(v.conj().T))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**31 - 1),
    shared=st.integers(1, 24),
    n1=st.integers(1, 12),
    n2=st.integers(1, 12),
    r1=st.integers(0, 12),
    r2=st.integers(0, 12),
    complex_=st.booleans(),
    vertical=st.booleans(),
)
def test_merge_then_densify_equals_densify_then_truncate(
    seed, shared, n1, n2, r1, r2, complex_, vertical
):
    r1, r2 = min(r1, shared, n1), min(r2, shared, n2)
    rng = make_rng(seed)
    a = noisy_block(rng, shared, n1, r1, complex_)
    b = noisy_block(rng, shared, n2, r2, complex_)
    if vertical:
        a, b = conj_transposed(a), conj_transposed(b)
        dense = np.vstack([a.matrix(), b.matrix()])
        merged = merge_pair_vertical(
            BlockSVD((0, 0), (0, 0), a), BlockSVD((0, 1), (0, 0), b), TOL
        ).svd
    else:
        dense = np.hstack([a.matrix(), b.matrix()])
        merged = merge_pair_horizontal(
            BlockSVD((0, 0), (0, 0), a), BlockSVD((0, 0), (0, 1), b), TOL
        ).svd

    sigma = np.linalg.svd(dense, compute_uv=False)
    scale = sigma[0] if sigma.size else 0.0
    if scale > 0.0:
        # a singular value near the cutoff could fall on either side of it
        near = (sigma > 1e-3 * TOL * scale) & (sigma < 1e3 * TOL * scale)
        hypothesis.assume(not near.any())
    reference = truncated_svd(dense, TOL)
    assert merged.rank == reference.rank
    assert merged.shape == dense.shape
    if reference.rank:
        assert np.abs(merged.matrix() - reference.matrix()).max() <= 1e-12 * scale
        assert np.abs(merged.sigma - reference.sigma).max() <= 1e-12 * scale
