import numpy as np
import pytest

import lrcompress.aca as aca_mod
import lrcompress.linalg as linalg_mod
from helpers import exact_rank_matrix, gram_epsilon_rank, rel_fro
from lrcompress.aca import (
    CONVERGED,
    DEGENERATE,
    EXHAUSTED,
    FULL_RANK,
    RANK_CAP,
    AcaConfig,
    aca_compress,
)
from lrcompress.baca import (
    BacaConfig,
    baca_compress,
    baca_lockstep,
    lrid,
    select_pivot_blocks,
)
from lrcompress.hmerge import hbaca_compress
from lrcompress.kernels import (
    EntryOracle,
    Hankel2DKernel,
    dense_oracle,
    offdiag_oracle,
    product_of_random_oracle,
    strip_cloud,
)
from lrcompress.linalg import argmax_tied_sq, lr_norm
from lrcompress.seeding import make_rng


def empty_factors(m, n):
    return np.zeros((m, 0)), np.zeros((0, n))


def mask(size, used=()):
    out = np.zeros(size, dtype=bool)
    out[list(used)] = True
    return out


class TestSelectPivotBlocks:
    def test_block_size_one_matches_argmax(self):
        a = make_rng(1).standard_normal((12, 10))
        o = dense_oracle(a)
        u, v = empty_factors(12, 10)
        j = 4
        rows, next_cols, c, r, w = select_pivot_blocks(o, u, v, [j], mask(12), mask(10), 1)
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
        used_rows, used_cols = mask(10, [3, 4]), mask(10, [5])
        rows, next_cols, _, _, _ = select_pivot_blocks(
            o, u, v, [0, 1], used_rows=used_rows, used_cols=used_cols, d=2
        )
        assert not set(rows) & {3, 4}
        assert not set(next_cols) & {5, 0, 1}
        # the caller's masks are read, never written
        assert np.array_equal(used_rows, mask(10, [3, 4]))
        assert np.array_equal(used_cols, mask(10, [5]))
        assert len(rows) == 2 and len(next_cols) == 2

    def test_zero_oracle_first_iteration(self):
        o = dense_oracle(np.zeros((8, 8)))
        u, v = empty_factors(8, 8)
        rows, next_cols, c, r, w = select_pivot_blocks(o, u, v, [0, 1, 2], mask(8), mask(8), 3)
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
        rows, _, c, r, w = select_pivot_blocks(o, u, v, cols, mask(16), mask(16), 4)
        sigma = np.linalg.svd(w, compute_uv=False)
        assert sigma[-1] > 1e-8 * sigma[0]
        u_k, v_k, d_k, _ = lrid(c, w, r, 1e-10)
        assert d_k == 4

    def test_clamps_to_remaining(self):
        a = make_rng(4).standard_normal((6, 6))
        o = dense_oracle(a)
        u, v = empty_factors(6, 6)
        rows, next_cols, _, _, _ = select_pivot_blocks(
            o, u, v, [0], used_rows=mask(6, [0, 1, 2, 3]), used_cols=mask(6, [1, 2, 3, 4]), d=4
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
        real = aca_mod._Sweep.append

        def spy(sweep, rows, cols, u_k, v_k, nu):
            out = real(sweep, rows, cols, u_k, v_k, nu)
            seen.append((sweep.factors.u.copy(), sweep.factors.v.copy(), sweep.mu))
            return out

        monkeypatch.setattr(aca_mod._Sweep, "append", spy)
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
        for max_rank in (0, -1):
            with pytest.raises(ValueError):
                BacaConfig(block_size=4, tol=1e-6, max_rank=max_rank)

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ValueError, match="block_size must be an integer"):
            BacaConfig(block_size=2.5, tol=1e-6)
        with pytest.raises(ValueError, match="max_rank must be an integer"):
            BacaConfig(block_size=2, tol=1e-6, max_rank=3.5)
        a = make_rng(26).standard_normal((30, 30))
        _, history = baca_compress(dense_oracle(a), BacaConfig(
            block_size=np.int64(4), tol=1e-12, seed=0, max_rank=np.int64(6)))
        assert history.records[-1].rank == 6

    def test_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            BacaConfig(block_size=2, tol=1e-6, seed=2.5)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            BacaConfig(block_size=2, tol=1e-6, seed=-1)
        oracle = dense_oracle(make_rng(27).standard_normal((30, 30)))
        a, ha = baca_compress(oracle, BacaConfig(block_size=4, tol=1e-8, seed=np.int64(5)))
        b, hb = baca_compress(oracle, BacaConfig(block_size=4, tol=1e-8, seed=5))
        assert ha.blocks == hb.blocks and np.array_equal(a.u, b.u)


def _dead_half(m, n):
    # zero left half, rank 6 right half: seed 10 starts on the dead half
    rng = make_rng(60)
    a = np.zeros((m, n))
    a[:, n // 2:] = rng.standard_normal((m, 6)) @ rng.standard_normal((6, n - n // 2))
    return a


class TestLockstep:
    def test_each_sweep_is_the_one_it_runs_alone(self):
        # one block-row: 32 rows, widths 32 and 31, and sweeps that retry,
        # stop degenerate, converge, hit the rank cap and run to full rank
        # at different iterations
        cases = [
            (_dead_half(32, 32), dict(seed=10)),
            (np.zeros((32, 31)), dict(seed=1)),
            (exact_rank_matrix(71, 32, 31, 3), dict(seed=2)),
            (exact_rank_matrix(72, 32, 32, 12), dict(seed=3)),
            (exact_rank_matrix(73, 32, 31, 5), dict(seed=4, max_rank=4)),
            # full rank, one column apart: their last blocks differ in size
            (make_rng(77).standard_normal((32, 31)), dict(seed=5)),
            (make_rng(78).standard_normal((32, 32)), dict(seed=6)),
        ]
        oracles = [dense_oracle(a) for a, _ in cases]
        configs = [BacaConfig(block_size=4, tol=1e-9, **kw) for _, kw in cases]
        together = baca_lockstep(oracles, configs)
        for oracle, config, (svd, history) in zip(oracles, configs, together):
            alone, alone_history = baca_compress(oracle, config)
            assert history.blocks == alone_history.blocks
            assert history.termination == alone_history.termination
            assert svd.rank == alone.rank
            assert rel_fro(svd.matrix(), alone.matrix()) <= 1e-12
        assert [history.termination for _, history in together] == [
            CONVERGED, DEGENERATE, CONVERGED, CONVERGED, RANK_CAP, FULL_RANK, FULL_RANK]
        assert len({history.iterations for _, history in together}) > 2
        for (a, _), (svd, history) in zip(cases, together):
            if history.termination == CONVERGED:
                assert rel_fro(svd.matrix(), a) <= 1e-10

    def test_block_size_one_group_matches_plain_sweeps(self):
        mats = [make_rng(90 + k).standard_normal((24, 24 - k % 2)) for k in range(4)]
        oracles = [dense_oracle(a) for a in mats]
        together = baca_lockstep(oracles, [BacaConfig(block_size=1, tol=1e-6, seed=k)
                                           for k in range(4)])
        for k, (oracle, (_, history)) in enumerate(zip(oracles, together)):
            _, plain = aca_compress(oracle, AcaConfig(tol=1e-6, seed=k))
            assert history.blocks == plain.blocks
            assert history.termination == plain.termination

    def test_complex_group(self):
        rng = make_rng(74)
        mats = []
        for n in (20, 19, 20):
            u = rng.standard_normal((18, 4)) + 1j * rng.standard_normal((18, 4))
            v = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
            mats.append(u @ v)
        together = baca_lockstep([dense_oracle(a) for a in mats],
                                 [BacaConfig(block_size=3, tol=1e-10, seed=k) for k in range(3)])
        for a, (svd, _) in zip(mats, together):
            assert svd.u.dtype == np.complex128
            assert svd.rank == 4
            assert rel_fro(svd.matrix(), a) <= 1e-10

    def test_mixed_real_and_complex_group_rejected(self):
        rng = make_rng(79)
        real = rng.standard_normal((20, 20))
        complex_ = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        cfg = BacaConfig(block_size=3, tol=1e-8, seed=0)
        with pytest.raises(ValueError, match="all real or all complex"):
            baca_lockstep([dense_oracle(real), dense_oracle(complex_)], [cfg, cfg])

    def test_non_finite_residual_raises(self):
        a = exact_rank_matrix(75, 16, 16, 3)
        a[5, :] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            baca_lockstep([dense_oracle(exact_rank_matrix(76, 16, 16, 3)), _NanOracle(a)],
                          [BacaConfig(block_size=2, tol=1e-8, seed=k) for k in range(2)])


class _NanOracle(EntryOracle):
    # an oracle that may hold NaNs, which DenseOracle refuses up front
    def __init__(self, a):
        self.a = a
        self.rows, self.cols = a.shape
        self.dtype = a.dtype

    def block(self, rows, cols):
        return self.a[np.ix_(rows, cols)]


class _NanFilledEmpty:
    """numpy, except that ``empty`` fills floating arrays with NaN: memory a
    kernel reads before writing it then poisons the result, whatever the
    allocator happens to return."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out


class TestUninitializedScratch:
    # qrcp's scratch rows past a slice's rank are never written; the
    # interpolative update must not read them

    def test_rank_deficient_intersection(self, monkeypatch):
        a = exact_rank_matrix(81, 20, 20, 3)
        rows, cols = np.arange(2, 18, 2), np.arange(1, 17, 2)
        args = (a[:, cols], a[np.ix_(rows, cols)], a[rows], 1e-8)
        want = lrid(*args)
        monkeypatch.setattr(linalg_mod, "np", _NanFilledEmpty())
        got = lrid(*args)
        assert got[2] == want[2] == 3
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert rel_fro(got[0] @ got[1], a) <= 1e-10

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_hankel_strip(self, monkeypatch, workers):
        # flat BACA (workers None) and H-BACA at one and two workers
        oracle = offdiag_oracle(Hankel2DKernel(300.0), strip_cloud(300.0, 15))
        cfg = BacaConfig(block_size=8, tol=1e-4, seed=5)

        def run():
            if workers is None:
                return baca_compress(oracle, cfg)[0]
            return hbaca_compress(oracle, 16, cfg, workers=workers)[0]

        want = run()
        # forked pool workers inherit the patch
        monkeypatch.setattr(linalg_mod, "np", _NanFilledEmpty())
        got = run()
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.vt, want.vt)
