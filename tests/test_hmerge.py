import ctypes

import numpy as np
import pytest

import lrcompress.hmerge as hmerge_mod
from helpers import rel_fro
from lrcompress.baca import BacaConfig, baca_compress
from lrcompress.hmerge import (
    BlockSVD,
    CostModelParams,
    build_index_tree,
    cost_model,
    hbaca_compress,
    merge_pair_horizontal,
    merge_pair_vertical,
)
from lrcompress.kernels import dense_oracle, product_of_random_oracle
from lrcompress.linalg import truncated_svd
from lrcompress.seeding import make_rng


class TestIndexTree:
    def test_even_split(self):
        tree = build_index_tree(8, 2)
        assert tree.leaves() == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_ceil_floor_split(self):
        tree = build_index_tree(7, 1)
        assert tree.leaves() == ((0, 4), (4, 7))

    def test_divisible_case(self):
        tree = build_index_tree(5000, 3)
        sizes = {hi - lo for lo, hi in tree.leaves()}
        assert sizes == {625}
        assert len(tree.leaves()) == 8

    def test_partition_is_exact(self):
        for extent in (9, 17, 100, 257):
            tree = build_index_tree(extent, 3)
            covered = []
            for lo, hi in tree.leaves():
                covered.extend(range(lo, hi))
            assert covered == list(range(extent))

    def test_overpartitioned(self):
        with pytest.raises(ValueError):
            build_index_tree(7, 3)

    def test_parent_child_ranges(self):
        tree = build_index_tree(21, 2)
        for level in (1, 2):
            for i, (lo, hi) in enumerate(tree.ranges[level]):
                c0 = tree.ranges[level - 1][2 * i]
                c1 = tree.ranges[level - 1][2 * i + 1]
                assert c0[0] == lo and c1[1] == hi and c0[1] == c1[0]


def block_of(a, row_node, col_node, tol=1e-12):
    return BlockSVD(row_node=row_node, col_node=col_node, svd=truncated_svd(a, tol))


def rank_zero_block(m, n, row_node, col_node):
    return BlockSVD(
        row_node=row_node,
        col_node=col_node,
        svd=truncated_svd(np.zeros((m, n)), 0.5),
    )


class TestHorizontalMerge:
    def test_rank_zero_right(self):
        rng = make_rng(1)
        a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 8))
        left = block_of(a, (0, 0), (0, 0))
        right = rank_zero_block(12, 6, (0, 0), (0, 1))
        merged = merge_pair_horizontal(left, right, 1e-12)
        assert merged.rank == 3
        assert np.allclose(merged.svd.sigma, left.svd.sigma, rtol=1e-12)
        assert rel_fro(merged.svd.matrix(), np.hstack([a, np.zeros((12, 6))])) <= 1e-12
        assert merged.col_node == (1, 0)

    def test_shared_column_space_collapses(self):
        rng = make_rng(2)
        u = rng.standard_normal(10)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        w = rng.standard_normal(9)
        w /= np.linalg.norm(w)
        left = block_of(3.0 * np.outer(u, v), (0, 2), (0, 0))
        right = block_of(3.0 * np.outer(u, w), (0, 2), (0, 1))
        merged = merge_pair_horizontal(left, right, 1e-10)
        assert merged.rank == 1

    def test_random_blocks_reconstruction(self):
        rng = make_rng(3)
        a1 = rng.standard_normal((32, 3)) @ rng.standard_normal((3, 16))
        a2 = rng.standard_normal((32, 3)) @ rng.standard_normal((3, 16))
        merged = merge_pair_horizontal(
            block_of(a1, (0, 0), (0, 0)), block_of(a2, (0, 0), (0, 1)), 1e-10
        )
        assert merged.rank == 6
        assert rel_fro(merged.svd.matrix(), np.hstack([a1, a2])) <= 1e-8
        r = merged.rank
        assert np.abs(merged.svd.u.T @ merged.svd.u - np.eye(r)).max() <= 1e-12
        assert np.abs(merged.svd.vt @ merged.svd.vt.T - np.eye(r)).max() <= 1e-12

    def test_both_rank_zero(self):
        merged = merge_pair_horizontal(
            rank_zero_block(5, 4, (0, 0), (0, 0)),
            rank_zero_block(5, 6, (0, 0), (0, 1)),
            1e-8,
        )
        assert merged.rank == 0
        assert merged.svd.shape == (5, 10)

    def test_node_validation(self):
        left = rank_zero_block(5, 4, (0, 0), (0, 0))
        bad = rank_zero_block(5, 4, (0, 1), (0, 1))
        with pytest.raises(ValueError):
            merge_pair_horizontal(left, bad, 1e-8)
        not_sibling = rank_zero_block(5, 4, (0, 0), (0, 2))
        with pytest.raises(ValueError):
            merge_pair_horizontal(left, not_sibling, 1e-8)


class TestVerticalMerge:
    def test_rank_zero_bottom(self):
        rng = make_rng(4)
        a = rng.standard_normal((16, 3)) @ rng.standard_normal((3, 20))
        top = block_of(a, (0, 0), (1, 0))
        bottom = rank_zero_block(9, 20, (0, 1), (1, 0))
        merged = merge_pair_vertical(top, bottom, 1e-12)
        assert merged.rank == 3
        assert rel_fro(merged.svd.matrix(), np.vstack([a, np.zeros((9, 20))])) <= 1e-12
        assert merged.row_node == (1, 0)

    def test_shared_row_space_collapses(self):
        rng = make_rng(5)
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        w = rng.standard_normal(11)
        w /= np.linalg.norm(w)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        top = block_of(2.0 * np.outer(u, v), (0, 0), (0, 3))
        bottom = block_of(2.0 * np.outer(w, v), (0, 1), (0, 3))
        merged = merge_pair_vertical(top, bottom, 1e-10)
        assert merged.rank == 1

    def test_random_blocks_reconstruction(self):
        rng = make_rng(6)
        a1 = rng.standard_normal((16, 2)) @ rng.standard_normal((2, 32))
        a2 = rng.standard_normal((16, 2)) @ rng.standard_normal((2, 32))
        merged = merge_pair_vertical(
            block_of(a1, (0, 0), (0, 0)), block_of(a2, (0, 1), (0, 0)), 1e-10
        )
        assert merged.rank == 4
        assert rel_fro(merged.svd.matrix(), np.vstack([a1, a2])) <= 1e-8

    def test_rank_bounded_by_sum(self):
        for seed in range(5):
            rng = make_rng(60 + seed)
            r1, r2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a1 = rng.standard_normal((20, r1)) @ rng.standard_normal((r1, 12))
            a2 = rng.standard_normal((20, r2)) @ rng.standard_normal((r2, 12))
            merged = merge_pair_vertical(
                block_of(a1, (0, 0), (0, 0)), block_of(a2, (0, 1), (0, 0)), 1e-10
            )
            assert merged.rank <= r1 + r2


class TestHBaca:
    def test_single_block_is_passthrough(self):
        oracle = product_of_random_oracle(40, 6, seed=70)
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=9)
        direct, _ = baca_compress(oracle, cfg)
        merged, diag = hbaca_compress(oracle, 1, cfg, workers=1)
        assert np.array_equal(direct.u, merged.u)
        assert np.array_equal(direct.sigma, merged.sigma)
        assert np.array_equal(direct.vt, merged.vt)
        assert diag.level_max_rank == [direct.rank]

    def test_global_rank_one(self):
        rng = make_rng(71)
        a = np.outer(rng.random(64) + 0.5, rng.random(64) + 0.5)
        svd, diag = hbaca_compress(
            dense_oracle(a), 16, BacaConfig(block_size=2, tol=1e-8, seed=1), workers=1
        )
        assert svd.rank == 1
        assert rel_fro(svd.matrix(), a) <= 1e-10
        assert all(r == 1 for r in diag.block_ranks.values())
        assert diag.level_max_rank == [1, 1, 1]

    def test_product_of_random_recovery(self):
        oracle = product_of_random_oracle(512, 64, seed=90)
        dense = oracle.dense()
        svd, diag = hbaca_compress(
            oracle, 16, BacaConfig(block_size=8, tol=1e-6, seed=17), workers=1
        )
        assert abs(svd.rank - 64) <= 2
        assert rel_fro(svd.matrix(), dense) <= 1e-4
        # each level's max rank is bounded by the block dimension there
        for level, s_l in enumerate(diag.level_max_rank):
            assert s_l <= 512 // 2 ** (2 - level)

    def test_error_envelope_up_to_64_blocks(self):
        oracle = product_of_random_oracle(256, 16, seed=95)
        dense = oracle.dense()
        tol = 1e-6
        for n_blocks in (1, 4, 16, 64):
            svd, _ = hbaca_compress(
                oracle, n_blocks, BacaConfig(block_size=4, tol=tol, seed=8), workers=1
            )
            assert rel_fro(svd.matrix(), dense) <= 100.0 * tol

    def test_parallel_matches_serial(self):
        oracle = product_of_random_oracle(128, 12, seed=91)
        cfg = BacaConfig(block_size=4, tol=1e-6, seed=2)
        s1, d1 = hbaca_compress(oracle, 4, cfg, workers=1)
        s2, d2 = hbaca_compress(oracle, 4, cfg, workers=2)
        assert abs(s1.rank - s2.rank) <= 1
        dense = oracle.dense()
        assert rel_fro(s1.matrix(), dense) <= 1e-4
        assert rel_fro(s2.matrix(), dense) <= 1e-4
        assert d1.block_ranks == d2.block_ranks

    def test_rectangular_matrix(self):
        rng = make_rng(96)
        a = rng.standard_normal((96, 5)) @ rng.standard_normal((5, 132))
        svd, diag = hbaca_compress(
            dense_oracle(a), 16, BacaConfig(block_size=4, tol=1e-8, seed=6), workers=1
        )
        assert svd.shape == (96, 132)
        assert svd.rank == 5
        assert rel_fro(svd.matrix(), a) <= 1e-8

    def test_complex_kernel_through_hierarchy(self):
        from lrcompress.kernels import Hankel2DKernel, offdiag_oracle, strip_cloud

        wavenumber = 24.0 * np.pi
        oracle = offdiag_oracle(Hankel2DKernel(wavenumber), strip_cloud(wavenumber, 15))
        svd, _ = hbaca_compress(
            oracle, 4, BacaConfig(block_size=8, tol=1e-6, seed=3), workers=1
        )
        assert svd.u.dtype == np.complex128
        assert rel_fro(svd.matrix(), oracle.dense()) <= 1e-4

    def test_serial_runs_are_bitwise_identical(self):
        oracle = product_of_random_oracle(96, 8, seed=92)
        cfg = BacaConfig(block_size=4, tol=1e-7, seed=5)
        a, _ = hbaca_compress(oracle, 4, cfg, workers=1)
        b, _ = hbaca_compress(oracle, 4, cfg, workers=1)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.vt, b.vt)

    def test_block_count_validation(self):
        oracle = product_of_random_oracle(16, 2, seed=93)
        cfg = BacaConfig(block_size=2, tol=1e-6, seed=0)
        with pytest.raises(ValueError):
            hbaca_compress(oracle, 8, cfg)
        with pytest.raises(ValueError):
            hbaca_compress(oracle, 1024, cfg)
        with pytest.raises(ValueError):
            hbaca_compress(oracle, 4, cfg, workers=0)

    def test_degenerate_leaf_propagates(self):
        a = np.zeros((32, 32))
        a[:16, :16] = make_rng(94).standard_normal((16, 16))
        svd, diag = hbaca_compress(
            dense_oracle(a), 4, BacaConfig(block_size=2, tol=1e-6, seed=3), workers=1
        )
        assert len(diag.degenerate_blocks) == 3
        assert rel_fro(svd.matrix(), a) <= 1e-4


def _blas_threads():
    get = hmerge_mod._bundled_openblas().scipy_openblas_get_num_threads64_
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


class TestWorkerBlasThreads:
    def test_pool_workers_run_single_threaded_blas(self):
        lib = hmerge_mod._bundled_openblas()
        if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
            pytest.skip("numpy does not bundle OpenBLAS with the thread getter")
        before = _blas_threads()
        pool = hmerge_mod._Pool(2, product_of_random_oracle(8, 2, seed=1))
        try:
            assert pool.map(_blas_threads, [()] * 4) == [1] * 4
        finally:
            pool.close()
        # the pin applies in the workers only
        assert _blas_threads() == before


class TestCostModel:
    def test_merge_flops_grow_like_sqrt_blocks_under_constant_rank(self):
        base = cost_model(CostModelParams(n=4096, rank=32, n_blocks=1))
        merges = []
        for n_b in (4, 16, 64):
            est = cost_model(CostModelParams(n=4096, rank=32, n_blocks=n_b))
            merges.append(est["merge_flops"] / base["leaf_flops"])
        # ratios to the flat-compression baseline track sqrt(n_b) - 1
        assert merges[0] == pytest.approx(1.0, rel=1e-12)
        assert merges[1] == pytest.approx(3.0, rel=1e-12)
        assert merges[2] == pytest.approx(7.0, rel=1e-12)

    def test_merge_flops_bounded_under_doubling_rank(self):
        base = cost_model(CostModelParams(n=4096, rank=32, n_blocks=1))
        for n_b in (4, 16, 64):
            est = cost_model(
                CostModelParams(n=4096, rank=32, n_blocks=n_b, rank_model="doubling")
            )
            assert est["merge_flops"] / base["leaf_flops"] <= 2.0

    def test_no_levels_no_merge(self):
        est = cost_model(CostModelParams(n=1000, rank=10, n_blocks=1, processes=4))
        assert est["merge_flops"] == 0.0
        assert est["messages"] == 0.0
        assert est["volume"] == 0.0

    def test_quadrupling_ratios(self):
        consts = [
            cost_model(CostModelParams(n=8192, rank=64, n_blocks=nb, processes=nb))
            for nb in (64, 256, 1024)
        ]
        for lo, hi in zip(consts, consts[1:]):
            ratio = hi["merge_flops"] / lo["merge_flops"]
            assert abs(ratio - 2.0) <= 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            cost_model(CostModelParams(n=100, rank=4, n_blocks=3))
        with pytest.raises(ValueError):
            CostModelParams(n=100, rank=4, n_blocks=4, rank_model="linear")
