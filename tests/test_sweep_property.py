"""Properties of small cross sweeps and of the stacked QRCP kernel: on dense
matrices of at most 8 x 8 with zero, duplicated and rank-one columns, every
sweep returns, its rank stays within min(m, n), its row and column pivots
are distinct and number its rank, and plain ACA never runs out of columns.
The sweeps rely on these invariants instead of guarding each case. Settling
the norm mu lazily changes nothing a sweep returns but rounding in mu."""

import math
from unittest import mock

import numpy as np
import pytest

import lrcompress.aca as aca_mod
from lrcompress.aca import CONVERGED, EXHAUSTED, AcaConfig, aca_compress
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


def eager(run):
    """``run()`` as a sweep whose mu is not lazy: after every append, mu is
    settled and the stop test applied. Returns run's result and, per
    append, the sweep's bound on mu just before that settle and mu."""
    append = aca_mod._Sweep.append
    bounds = []

    def settling_append(sweep, rows, cols, u_k, v_k, nu):
        out = append(sweep, rows, cols, u_k, v_k, nu)
        bound = sweep._hi * sweep._pad
        bounds.append((bound, sweep.mu))
        if nu < sweep.tol * sweep.mu:
            return sweep.stop(CONVERGED)
        return out

    with mock.patch.object(aca_mod._Sweep, "append", settling_append):
        return run(), bounds


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 10), n=st.integers(1, 10),
                  k=st.integers(1, 10), decay=st.floats(0.05, 0.95), complex_=st.booleans(),
                  tol=st.sampled_from([1e-10, 1e-6, 1e-3, 1e-1]), d=st.sampled_from([None, 1, 2, 4]))
def test_lazy_norm_cannot_be_seen(seed, m, n, k, decay, complex_, tol, d):
    # singular values decay**i, so that nu / mu passes tol at varied
    # margins; d None is plain ACA, else BACA at block size d
    rng = make_rng(seed)
    x, y = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    if complex_:
        x = x + 1j * rng.standard_normal((m, k))
    oracle = dense_oracle((x * decay ** np.arange(k)) @ y)
    if d is None:
        def run():
            return aca_compress(oracle, AcaConfig(tol=tol, seed=seed))
    else:
        def run():
            return baca_compress(oracle, BacaConfig(block_size=d, tol=tol, seed=seed))
    (got, history), ((want, want_history), bounds) = run(), eager(run)
    assert all(mu <= bound for bound, mu in bounds)
    for name in ("u", "v", "sigma", "vt"):
        if hasattr(want, name):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert history.termination == want_history.termination
    assert history.blocks == want_history.blocks
    assert [(r.k, r.rank, r.nu) for r in history.records] == [
        (r.k, r.rank, r.nu) for r in want_history.records]
    for rec, want_rec in zip(history.records, want_history.records):
        assert math.isclose(rec.mu, want_rec.mu, rel_tol=1e-12, abs_tol=0.0)
