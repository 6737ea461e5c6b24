"""Properties of small cross sweeps and of the stacked QRCP kernel: on dense
matrices of at most 8 x 8 with zero, duplicated and rank-one columns, every
sweep returns, its rank stays within min(m, n), its row and column pivots
are distinct and number its rank, and plain ACA never runs out of columns.
The sweeps rely on these invariants instead of guarding each case."""

import numpy as np
import pytest

from lrcompress.aca import EXHAUSTED, AcaConfig, aca_compress
from lrcompress.baca import BacaConfig, baca_compress
from lrcompress.kernels import dense_oracle
from lrcompress.linalg import _qrcp_stack
from lrcompress.seeding import make_rng

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COLUMN_KINDS = ["random", "zero", "duplicate", "rank_one"]


def structured(rng, m, n, kinds, complex_, integer):
    """An m x n matrix whose column j is random, zero, a copy of an earlier
    column or a multiple of one shared vector, by ``kinds[j]``; small
    integer entries make exact ties likely."""

    def draw(*shape):
        if integer:
            x = rng.integers(-2, 3, shape).astype(float)
            return x + 1j * rng.integers(-2, 3, shape) if complex_ else x
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    a = np.zeros((m, n), dtype=complex if complex_ else float)
    base = draw(m)
    for j, kind in enumerate(kinds[:n]):
        if kind == "random":
            a[:, j] = draw(m)
        elif kind == "duplicate" and j:
            a[:, j] = a[:, rng.integers(j)]
        elif kind == "rank_one":
            a[:, j] = draw(1)[0] * base
    return a


matrices = st.builds(
    lambda seed, m, n, kinds, complex_, integer: structured(
        make_rng(seed), m, n, kinds, complex_, integer),
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=8, max_size=8),
    complex_=st.booleans(),
    integer=st.booleans(),
)
tols = st.sampled_from([1e-14, 1e-8, 0.5])


def rank_cap(a, cap):
    # None, or the drawn cap clamped into [1, min(m, n)]
    return None if cap is None else min(cap, *a.shape)


def check_pivots(history, rank, a):
    rows, cols = history.row_pivots, history.col_pivots
    last = history.records[-1].rank if history.records else 0
    assert len(set(rows)) == len(rows) == last
    assert len(set(cols)) == len(cols) == last
    assert all(0 <= i < a.shape[0] for i in rows)
    assert all(0 <= j < a.shape[1] for j in cols)
    assert rank <= last <= min(a.shape)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(a=matrices, tol=tols, seed=st.integers(0, 2**16),
                  cap=st.none() | st.integers(1, 8))
def test_aca_sweep_invariants(a, tol, seed, cap):
    factors, history = aca_compress(
        dense_oracle(a), AcaConfig(tol=tol, seed=seed, max_rank=rank_cap(a, cap)))
    check_pivots(history, factors.rank, a)
    assert factors.rank == len(history.row_pivots)
    assert history.termination != EXHAUSTED


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(a=matrices, tol=tols, seed=st.integers(0, 2**16),
                  cap=st.none() | st.integers(1, 8), d=st.integers(1, 9))
def test_baca_sweep_invariants(a, tol, seed, cap, d):
    svd, history = baca_compress(
        dense_oracle(a), BacaConfig(block_size=d, tol=tol, seed=seed,
                                    max_rank=rank_cap(a, cap)))
    check_pivots(history, svd.rank, a)
    assert svd.shape == a.shape


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**31 - 1), nb=st.integers(1, 4),
                  m=st.integers(1, 8), n=st.integers(1, 8),
                  kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=8, max_size=8),
                  complex_=st.booleans(), integer=st.booleans(), with_tol=st.booleans())
def test_qrcp_stack_pivots_are_distinct_and_eligible(
    seed, nb, m, n, kinds, complex_, integer, with_tol
):
    rng = make_rng(seed)
    a = np.stack([structured(rng, m, n, kinds, complex_, integer) for _ in range(nb)])
    lengths = rng.integers(1, m + 1, nb)
    eligible = rng.random((nb, n)) < 0.7
    eligible[np.arange(nb), rng.integers(n, size=nb)] = True
    cap = np.empty(nb, dtype=np.intp)
    for b in range(nb):
        # rows past a slice's length are zero padding
        a[b, lengths[b]:] = 0.0
        cap[b] = rng.integers(0, min(lengths[b], eligible[b].sum()) + 1)
    tol = 1e-8 if with_tol else None
    _, _, _, piv, rank = _qrcp_stack(a, cap, tol=tol, eligible=eligible, lengths=lengths)
    for b in range(nb):
        k = rank[b]
        assert k <= cap[b] and (with_tol or k == cap[b])
        chosen = piv[b, :k]
        assert len(set(chosen.tolist())) == k
        assert eligible[b, chosen].all()
