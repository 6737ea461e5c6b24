import numpy as np
import pytest

from helpers import exact_rank_matrix, rel_fro
from lrcompress.aca import CONVERGED, DEGENERATE, RANK_CAP, AcaConfig, aca_compress
from lrcompress.kernels import GaussianKernel, Hankel2DKernel, KernelOracle, dense_oracle, offdiag_oracle, product_of_random_oracle, strip_cloud
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
