import numpy as np
import pytest

import lrcompress.baca as baca_mod
from helpers import exact_rank_matrix, gram_epsilon_rank, rel_fro
from lrcompress.aca import CONVERGED, DEGENERATE, EXHAUSTED, AcaConfig, aca_compress
from lrcompress.baca import BacaConfig, baca_compress, lrid, select_pivot_blocks
from lrcompress.kernels import dense_oracle, product_of_random_oracle
from lrcompress.linalg import argmax_tied_sq, lr_norm
from lrcompress.seeding import make_rng


def empty_factors(m, n):
    return np.zeros((m, 0)), np.zeros((0, n))


class TestSelectPivotBlocks:
    def test_block_size_one_matches_argmax(self):
        a = make_rng(1).standard_normal((12, 10))
        o = dense_oracle(a)
        u, v = empty_factors(12, 10)
        j = 4
        rows, next_cols, c, r, w = select_pivot_blocks(o, u, v, [j], [], [], 1)
        i_expect = argmax_tied_sq(np.abs(a[:, j]) ** 2)
        assert list(rows) == [i_expect]
        mags = np.abs(a[i_expect, :]) ** 2
        mags_avail = mags.copy()
        # column j is excluded from the next block
        order = [idx for idx in range(10) if idx != j]
        j_expect = order[argmax_tied_sq(mags_avail[order])]
        assert list(next_cols) == [j_expect]
        assert w.shape == (1, 1) and w[0, 0] == a[i_expect, j]

    def test_exclusions_respected(self):
        a = make_rng(2).standard_normal((10, 10))
        o = dense_oracle(a)
        u, v = empty_factors(10, 10)
        rows, next_cols, _, _, _ = select_pivot_blocks(
            o, u, v, [0, 1], used_rows=[3, 4], used_cols=[5], d=2
        )
        assert not set(rows) & {3, 4}
        assert not set(next_cols) & {5, 0, 1}
        assert len(rows) == 2 and len(next_cols) == 2

    def test_zero_oracle_first_iteration(self):
        o = dense_oracle(np.zeros((8, 8)))
        u, v = empty_factors(8, 8)
        rows, next_cols, c, r, w = select_pivot_blocks(o, u, v, [0, 1, 2], [], [], 3)
        assert np.array_equal(c, np.zeros((8, 3)))
        assert np.array_equal(w, np.zeros((3, 3)))
        # ties on zero norms resolve to the lowest indices
        assert list(rows) == [0, 1, 2]
        u_k, v_k, d_k, jbar = lrid(c, w, r, 1e-8)
        assert d_k == 0

    def test_full_rank_intersection_on_exact_rank_matrix(self):
        a = exact_rank_matrix(3, 16, 16, 4)
        o = dense_oracle(a)
        u, v = empty_factors(16, 16)
        cols = [2, 5, 9, 14]
        rows, _, c, r, w = select_pivot_blocks(o, u, v, cols, [], [], 4)
        sigma = np.linalg.svd(w, compute_uv=False)
        assert sigma[-1] > 1e-8 * sigma[0]
        u_k, v_k, d_k, _ = lrid(c, w, r, 1e-10)
        assert d_k == 4

    def test_clamps_to_remaining(self):
        a = make_rng(4).standard_normal((6, 6))
        o = dense_oracle(a)
        u, v = empty_factors(6, 6)
        rows, next_cols, _, _, _ = select_pivot_blocks(
            o, u, v, [0], used_rows=[0, 1, 2, 3], used_cols=[1, 2, 3, 4], d=4
        )
        assert len(rows) == 1  # one column in the block bounds the row picks
        assert set(next_cols) == {5}


class TestLrid:
    def test_identity_intersection(self):
        rng = make_rng(5)
        c = rng.standard_normal((8, 3))
        r = rng.standard_normal((3, 8))
        u_k, v_k, d_k, jbar = lrid(c, np.eye(3), r, 1e-10)
        assert d_k == 3
        assert list(jbar) == [0, 1, 2]
        assert np.allclose(u_k, c, atol=1e-14)
        assert np.allclose(v_k, r, atol=1e-12)

    def test_rank_one_intersection(self):
        rng = make_rng(6)
        c = rng.standard_normal((8, 3))
        r = rng.standard_normal((3, 8))
        w = np.outer([1.0, -2.0, 0.5], [0.3, 1.0, 0.7])
        u_k, v_k, d_k, jbar = lrid(c, w, r, 1e-10)
        assert d_k == 1
        assert u_k.shape == (8, 1)
        assert np.array_equal(u_k[:, 0], c[:, jbar[0]])

    def test_matches_dense_inverse(self):
        rng = make_rng(7)
        c = rng.standard_normal((8, 3))
        r = rng.standard_normal((3, 8))
        w = rng.standard_normal((3, 3))
        u_k, v_k, d_k, _ = lrid(c, w, r, 1e-12)
        assert d_k == 3
        exact = c @ np.linalg.inv(w) @ r
        assert rel_fro(u_k @ v_k, exact) <= 1e-10

    def test_zero_intersection(self):
        u_k, v_k, d_k, jbar = lrid(np.zeros((5, 2)), np.zeros((2, 2)), np.zeros((2, 6)), 1e-8)
        assert d_k == 0
        assert u_k.shape == (5, 0) and v_k.shape == (0, 6)

    def test_scalar_intersection(self):
        rng = make_rng(61)
        for cplx in (False, True):
            c = rng.standard_normal((7, 1))
            r = rng.standard_normal((1, 9))
            w = np.array([[-0.37]])
            if cplx:
                c = c + 1j * rng.standard_normal((7, 1))
                r = r + 1j * rng.standard_normal((1, 9))
                w = w + 0.21j
            u_k, v_k, d_k, jbar = lrid(c, w, r, 1e-10)
            assert d_k == 1 and list(jbar) == [0]
            assert np.array_equal(u_k, c)
            assert np.array_equal(v_k, r / w[0, 0])
        u_k, v_k, d_k, _ = lrid(np.ones((3, 1)), np.zeros((1, 1)), np.ones((1, 4)), 1e-10)
        assert d_k == 0


class TestBacaCompress:
    def test_block_size_one_reduces_to_aca(self):
        for seed in range(10):
            a = make_rng(2000 + seed).standard_normal((32, 32))
            o = dense_oracle(a)
            _, ha = aca_compress(o, AcaConfig(tol=1e-6, seed=seed))
            _, hb = baca_compress(o, BacaConfig(block_size=1, tol=1e-6, seed=seed))
            assert ha.blocks == hb.blocks
            assert ha.iterations == hb.iterations
            assert ha.termination == hb.termination

    def test_full_block_reduces_to_qrcp_id(self):
        a = exact_rank_matrix(8, 32, 32, 6)
        svd, history = baca_compress(dense_oracle(a), BacaConfig(block_size=32, tol=1e-8, seed=3))
        assert svd.rank == 6
        assert rel_fro(svd.matrix(), a) <= 1e-6
        assert history.iterations == 1
        # the single full block consumes every column
        assert history.termination == EXHAUSTED

    def test_duplicated_column_groups(self):
        base = make_rng(21).standard_normal((64, 8))
        a = np.repeat(base, 8, axis=1)
        assert gram_epsilon_rank(a, 1e-6) == 8
        svd, _ = baca_compress(dense_oracle(a), BacaConfig(block_size=4, tol=1e-8, seed=5))
        assert svd.rank == 8
        assert rel_fro(svd.matrix(), a) <= 1e-10

    def test_degenerate_block_retry_recovers(self):
        # seed 10 starts on the dead half of the columns (rank-0 update),
        # resamples a fresh block and still converges to the true rank
        rng = make_rng(60)
        a = np.zeros((32, 32))
        a[:, 16:] = rng.standard_normal((32, 6)) @ rng.standard_normal((6, 16))
        from lrcompress.seeding import initial_column_block

        assert (initial_column_block(make_rng(10), 32, 4) < 16).all()
        svd, history = baca_compress(dense_oracle(a), BacaConfig(block_size=4, tol=1e-8, seed=10))
        assert svd.rank == 6
        assert history.termination == CONVERGED
        assert rel_fro(svd.matrix(), a) <= 1e-10

    def test_zero_oracle_flags_degenerate(self):
        svd, history = baca_compress(
            dense_oracle(np.zeros((6, 6))), BacaConfig(block_size=2, tol=1e-8, seed=0)
        )
        assert svd.rank == 0
        assert history.termination == DEGENERATE
        assert history.degenerate
        assert history.iterations == 0

    def test_pivot_disjointness_and_rank_accounting(self):
        a = make_rng(22).standard_normal((40, 40))
        _, history = baca_compress(dense_oracle(a), BacaConfig(block_size=4, tol=1e-4, seed=2))
        rows = history.row_pivots
        cols = history.col_pivots
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        running = 0
        for block, rec in zip(history.blocks, history.records):
            assert block.added == len(block.rows) == len(block.cols)
            running += block.added
            assert rec.rank == running

    def test_norm_tracking_against_accumulated_factors(self, monkeypatch):
        seen = []
        real = baca_mod._append_and_track

        def spy(factors, mu, u_k, v_k):
            out = real(factors, mu, u_k, v_k)
            seen.append((factors.u.copy(), factors.v.copy(), out[1]))
            return out

        monkeypatch.setattr(baca_mod, "_append_and_track", spy)
        a = make_rng(23).standard_normal((30, 30))
        baca_compress(dense_oracle(a), BacaConfig(block_size=4, tol=1e-6, seed=1))
        assert seen
        for u, v, mu in seen:
            exact = lr_norm(u, v)
            assert abs(mu - exact) <= 1e-10 * exact

    def test_output_svd_invariants(self):
        oracle = product_of_random_oracle(48, 10, seed=31)
        svd, _ = baca_compress(oracle, BacaConfig(block_size=4, tol=1e-6, seed=4))
        r = svd.rank
        assert np.abs(svd.u.conj().T @ svd.u - np.eye(r)).max() <= 1e-12
        assert np.abs(svd.vt @ svd.vt.conj().T - np.eye(r)).max() <= 1e-12
        assert (np.diff(svd.sigma) <= 1e-14).all()

    def test_exact_rank_termination_speed(self):
        # rank r with blocks of 4: at most ceil(r/4) + 1 recorded iterations,
        # and the final update-norm proxy drops to elimination-noise level
        for seed, rank in [(41, 5), (42, 8), (43, 3)]:
            a = exact_rank_matrix(seed, 48, 48, rank)
            svd, history = baca_compress(dense_oracle(a), BacaConfig(block_size=4, tol=1e-9, seed=seed))
            assert history.iterations <= -(-rank // 4) + 1
            assert rel_fro(svd.matrix(), a) <= 1e-10
            final = history.records[-1]
            assert final.nu <= 1e-10 * final.mu

    def test_rectangular_and_complex(self):
        rng = make_rng(24)
        u = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
        v = rng.standard_normal((5, 44)) + 1j * rng.standard_normal((5, 44))
        o = dense_oracle(u @ v)
        svd, _ = baca_compress(o, BacaConfig(block_size=3, tol=1e-8, seed=6))
        assert svd.u.dtype == np.complex128
        assert rel_fro(svd.matrix(), u @ v) <= 1e-8

    def test_max_rank_cap(self):
        a = make_rng(25).standard_normal((30, 30))
        svd, history = baca_compress(
            dense_oracle(a), BacaConfig(block_size=4, tol=1e-12, seed=0, max_rank=6)
        )
        assert history.records[-1].rank == 6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BacaConfig(block_size=0, tol=1e-6)
        with pytest.raises(ValueError):
            BacaConfig(block_size=2, tol=2.0)
