"""Property: merging two truncated SVDs, or two leaves' raw cross factors,
and densifying gives the same matrix as densifying both blocks and
truncating their concatenation."""

import numpy as np
import pytest

from helpers import conj_transposed
from lrcompress.hmerge import BlockSVD, merge_pair_horizontal, merge_pair_vertical
from lrcompress.linalg import LowRankFactors, TruncatedSVD, truncated_svd
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


def raw_leaf(rng, m, n, k, rank, complex_):
    """Raw cross factors ``u`` (m, k) and ``v`` (k, n) of a ``noisy_block``
    whose singular values past k are dropped, or of zero for rank 0; k may
    exceed m, n or both. The block's SVD, padded to k inner columns by
    random columns of u over zero rows of v, is mixed by a k x k matrix of
    condition at most 4."""
    svd = noisy_block(rng, m, n, rank, complex_)
    t = min(svd.rank, k) if rank else 0

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    u = np.hstack([svd.u[:, :t] * svd.sigma[:t], draw((m, k - t))])
    v = np.vstack([svd.vt[:t], np.zeros((k - t, n))])
    q = np.linalg.qr(draw((k, k)))[0]
    scale = rng.uniform(0.5, 2.0, k)
    return LowRankFactors(u @ (q * scale), (q.conj().T / scale[:, None]) @ v)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 24),
    n1=st.integers(1, 12),
    n2=st.integers(1, 12),
    k1=st.integers(0, 16),
    k2=st.integers(0, 16),
    r1=st.integers(0, 12),
    r2=st.integers(0, 12),
    complex_=st.booleans(),
)
# cross ranks past the leaves' width and, together, past their height
@hypothesis.example(seed=3, rows=10, n1=5, n2=7, k1=8, k2=9, r1=4, r2=5, complex_=False)
@hypothesis.example(seed=4, rows=6, n1=3, n2=12, k1=5, k2=4, r1=3, r2=2, complex_=True)
def test_raw_leaf_pair_merge_equals_truncating_the_dense_pair(
    seed, rows, n1, n2, k1, k2, r1, r2, complex_
):
    r1, r2 = min(r1, k1, rows, n1), min(r2, k2, rows, n2)
    rng = make_rng(seed)
    a = raw_leaf(rng, rows, n1, k1, r1, complex_)
    b = raw_leaf(rng, rows, n2, k2, r2, complex_)
    dense = np.hstack([a.matrix(), b.matrix()])
    merged = merge_pair_horizontal(BlockSVD((0, 0), (0, 0), a), BlockSVD((0, 0), (0, 1), b), TOL).svd

    sigma = np.linalg.svd(dense, compute_uv=False)
    scale = sigma[0] if sigma.size else 0.0
    if scale > 0.0:
        near = (sigma > 1e-3 * TOL * scale) & (sigma < 1e3 * TOL * scale)
        hypothesis.assume(not near.any())
    reference = truncated_svd(dense, TOL)
    assert merged.rank == reference.rank
    assert merged.shape == dense.shape
    assert merged.u.dtype == merged.vt.dtype == dense.dtype
    if reference.rank:
        # rounding is relative to the factors, which outweigh their product
        size = max(scale, *(np.linalg.norm(f.u, 2) * np.linalg.norm(f.v, 2) for f in (a, b) if f.rank))
        assert np.abs(merged.matrix() - reference.matrix()).max() <= 1e-12 * size
        assert np.abs(merged.sigma - reference.sigma).max() <= 1e-12 * size
        eye = np.eye(merged.rank)
        assert np.abs(merged.u.conj().T @ merged.u - eye).max() <= 1e-12
        assert np.abs(merged.vt @ merged.vt.conj().T - eye).max() <= 1e-12
