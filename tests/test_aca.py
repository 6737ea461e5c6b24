import warnings

import numpy as np
import pytest

import lrcompress.aca as aca_mod
from helpers import exact_rank_matrix, rel_fro
from lrcompress.aca import CONVERGED, DEGENERATE, RANK_CAP, AcaConfig, aca_compress
from lrcompress.kernels import GaussianKernel, Hankel2DKernel, KernelOracle, dense_oracle, offdiag_oracle, product_of_random_oracle, strip_cloud
from lrcompress.baca import BacaConfig
from lrcompress.hmerge import hbaca_compress
from lrcompress.linalg import lr_norm
from lrcompress.seeding import initial_column_block, make_rng


def seed_starting_at_column(n, column):
    # find a seed whose random starting column is the requested one
    for seed in range(200):
        if int(initial_column_block(make_rng(seed), n, 1)[0]) == column:
            return seed
    raise AssertionError("no seed found")


def separated_cluster_oracle(width=0.5, per_side=50, gap=3.0, seed=42):
    rng = make_rng(seed)
    left = np.sort(rng.random(per_side))[:, None]
    right = np.sort(rng.random(per_side))[:, None] + gap
    return KernelOracle(GaussianKernel(width), left, right)


class TestRankOne:
    def test_two_by_two_cross(self):
        a = np.array([[4.0, 2.0], [2.0, 1.0]])
        seed = seed_starting_at_column(2, 0)
        factors, history = aca_compress(dense_oracle(a), AcaConfig(tol=1e-8, seed=seed))
        assert factors.rank == 1
        assert np.array_equal(factors.u, [[1.0], [0.5]])
        assert np.array_equal(factors.v, [[4.0, 2.0]])
        assert rel_fro(factors.matrix(), a) == 0.0
        # the probe step after exact reproduction hits a zero pivot
        assert history.termination == DEGENERATE
        assert history.iterations == 1

    def test_generic_rank_one_exactness(self):
        for seed in range(50):
            rng = make_rng(700 + seed)
            m = int(rng.integers(2, 40))
            n = int(rng.integers(2, 40))
            a = np.outer(rng.standard_normal(m) + 2.0, rng.standard_normal(n) + 2.0)
            factors, _ = aca_compress(dense_oracle(a), AcaConfig(tol=1e-8, seed=seed))
            assert factors.rank == 1
            assert rel_fro(factors.matrix(), a) <= 1e-12


def test_zero_oracle_degenerates_immediately():
    factors, history = aca_compress(dense_oracle(np.zeros((5, 5))), AcaConfig(tol=1e-8, seed=0))
    assert factors.rank == 0
    assert history.termination == DEGENERATE
    assert history.iterations == 0


def test_gaussian_clusters_regression():
    oracle = separated_cluster_oracle()
    dense = oracle.dense()
    factors, history = aca_compress(oracle, AcaConfig(tol=1e-6, seed=0))
    assert history.termination == CONVERGED
    assert factors.rank == 6  # observed; well below the 50-column limit
    assert rel_fro(factors.matrix(), dense) <= 10 * 1e-6


def test_pivots_distinct():
    for seed in range(5):
        a = make_rng(40 + seed).standard_normal((24, 24))
        _, history = aca_compress(dense_oracle(a), AcaConfig(tol=1e-6, seed=seed))
        rows = history.row_pivots
        cols = history.col_pivots
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)


def test_interpolation_property():
    a = exact_rank_matrix(51, 30, 30, 6)
    oracle = dense_oracle(a)
    factors, history = aca_compress(oracle, AcaConfig(tol=1e-9, seed=2))
    resid = a - factors.matrix()
    bound = 1e-10 * np.linalg.norm(a)
    assert np.abs(resid[history.row_pivots, :]).max() <= bound
    assert np.abs(resid[:, history.col_pivots]).max() <= bound


def test_history_norm_tracking():
    a = make_rng(52).standard_normal((40, 40))
    factors, history = aca_compress(dense_oracle(a), AcaConfig(tol=1e-6, seed=3))
    for rec in history.records:
        mu_exact = lr_norm(factors.u[:, : rec.rank], factors.v[: rec.rank, :])
        assert abs(rec.mu - mu_exact) <= 1e-10 * mu_exact


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("exponent", [-600, 600])
def test_scaled_matrix_scales_the_sweep_exactly(exponent, complex_):
    # unscaled, the squares of these entries under- or overflow; scaled by
    # powers of two the sweep is the unscaled one with v times the scale
    rng = make_rng(55)
    x, y = rng.standard_normal((30, 4)), rng.standard_normal((4, 30))
    if complex_:
        x = x + 1j * rng.standard_normal((30, 4))
    a = x @ y
    scale = 2.0**exponent
    config = AcaConfig(tol=1e-10, seed=1)
    ref, ref_history = aca_compress(dense_oracle(a), config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, history = aca_compress(dense_oracle(a * scale), config)
    assert history.termination == ref_history.termination
    assert history.blocks == ref_history.blocks
    assert got.rank == ref.rank == 4
    assert np.array_equal(got.u, ref.u)
    assert np.array_equal(got.v, ref.v * scale)
    assert len(history.records) == len(ref_history.records)
    for rec, want in zip(history.records, ref_history.records):
        assert rec.nu == pytest.approx(want.nu * scale, rel=1e-14, abs=0.0)
        assert rec.mu == pytest.approx(want.mu * scale, rel=1e-14, abs=0.0)


class TestLazyNorm:
    """The sweep settles mu only when its stop test can fire."""

    @staticmethod
    def count_settles(monkeypatch):
        calls = []
        real = aca_mod.lr_norm_prefixes

        def spy(u, v, mu, starts, nu):
            calls.append(list(starts))
            return real(u, v, mu, starts, nu)

        monkeypatch.setattr(aca_mod, "lr_norm_prefixes", spy)
        return calls

    def test_aca_settles_at_most_twice(self, monkeypatch):
        calls = self.count_settles(monkeypatch)
        oracle = product_of_random_oracle(1024, 64, seed=5)
        factors, history = aca_compress(oracle, AcaConfig(tol=1e-6, seed=2))
        assert factors.rank >= 64
        assert 1 <= len(calls) <= 2
        assert [rec.k for rec in history.records] == list(range(1, history.iterations + 1))
        for rec in history.records:
            exact = lr_norm(factors.u[:, : rec.rank], factors.v[: rec.rank])
            assert abs(rec.mu - exact) <= 1e-10 * exact

    def test_hbaca_leaves_settle_at_most_once(self, monkeypatch):
        # the hbaca-prodrand shape: 64 leaves of 512 x 512 at rank 64;
        # a leaf's first settle starts from rank 0, any later one would not
        calls = self.count_settles(monkeypatch)
        oracle = product_of_random_oracle(4096, 64, seed=5)
        svd, _ = hbaca_compress(oracle, 64, BacaConfig(block_size=8, tol=1e-6, seed=5), workers=1)
        assert svd.rank == 64
        assert 1 <= len(calls) <= 64
        assert all(starts[0] == 0 for starts in calls)


def test_history_record_shape():
    a = exact_rank_matrix(53, 20, 26, 4)
    _, history = aca_compress(dense_oracle(a), AcaConfig(tol=1e-9, seed=1))
    ranks = [r.rank for r in history.records]
    assert ranks == sorted(set(ranks))
    assert all(r.nu >= 0 and r.mu >= 0 for r in history.records)
    assert [r.k for r in history.records] == list(range(1, len(ranks) + 1))


def test_max_rank_cap():
    a = make_rng(54).standard_normal((30, 30))
    factors, history = aca_compress(dense_oracle(a), AcaConfig(tol=1e-12, seed=0, max_rank=7))
    assert factors.rank == 7
    assert history.termination == RANK_CAP


def test_complex_hankel_strip_convergence():
    cloud = strip_cloud(16.0 * np.pi, 15)
    oracle = offdiag_oracle(Hankel2DKernel(16.0 * np.pi), cloud)
    factors, history = aca_compress(oracle, AcaConfig(tol=1e-8, seed=0))
    assert factors.u.dtype == np.complex128
    assert history.termination == CONVERGED
    assert factors.rank < oracle.rows / 2
    assert rel_fro(factors.matrix(), oracle.dense()) <= 1e-6


def test_repeat_runs_are_bitwise_identical():
    # rank 40 crosses several factor-buffer growth steps
    oracle = product_of_random_oracle(120, 40, seed=7)
    config = AcaConfig(tol=1e-10, seed=3)
    (a, ha), (b, hb) = aca_compress(oracle, config), aca_compress(oracle, config)
    assert a.rank in (40, 41)
    assert ha.records == hb.records and ha.blocks == hb.blocks
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_empty_oracle_rejected():
    with pytest.raises(ValueError):
        aca_compress(dense_oracle(np.zeros((0, 3))), AcaConfig(tol=1e-6))


def test_config_validation():
    with pytest.raises(ValueError):
        AcaConfig(tol=0.0)
    with pytest.raises(ValueError):
        AcaConfig(tol=1.5)


def test_max_rank_above_the_smaller_dimension_rejected():
    oracle = dense_oracle(make_rng(56).standard_normal((5, 8)))
    with pytest.raises(ValueError, match="max_rank exceeds min"):
        aca_compress(oracle, AcaConfig(tol=1e-6, max_rank=6))
    factors, _ = aca_compress(oracle, AcaConfig(tol=1e-12, max_rank=5))
    assert factors.rank == 5


def test_non_integer_max_rank_rejected():
    with pytest.raises(ValueError, match="max_rank must be an integer"):
        AcaConfig(tol=1e-6, max_rank=2.5)
    a = make_rng(55).standard_normal((20, 20))
    factors, history = aca_compress(dense_oracle(a), AcaConfig(tol=1e-12, max_rank=np.int64(3)))
    assert factors.rank == 3
    assert history.termination == RANK_CAP


@pytest.mark.parametrize("seed", [2.5, "3", None])
def test_non_integer_seed_rejected(seed):
    # SeedSequence would fail on it mid-sweep, or draw fresh entropy for None
    with pytest.raises(ValueError, match="seed must be an integer"):
        AcaConfig(tol=1e-6, seed=seed)


def test_negative_seed_rejected_and_numpy_integer_accepted():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        AcaConfig(tol=1e-6, seed=-1)
    oracle = dense_oracle(make_rng(56).standard_normal((20, 20)))
    a, ha = aca_compress(oracle, AcaConfig(tol=1e-8, seed=np.int64(4)))
    b, hb = aca_compress(oracle, AcaConfig(tol=1e-8, seed=4))
    assert ha.blocks == hb.blocks and np.array_equal(a.u, b.u)
