import ctypes
import sys
import threading
import time
import types

import numpy as np
import pytest

import lrcompress.hmerge as hmerge_mod
import lrcompress.kernels as kernels_mod
import lrcompress.linalg as linalg_mod
from helpers import conj_transposed, random_factors, rel_fro, traced_peak
from lrcompress.aca import DEGENERATE
from lrcompress.baca import BacaConfig, baca_compress
from lrcompress.hmerge import (
    BlockSVD,
    CostModelParams,
    _leaf_ranges,
    cost_model,
    hbaca_compress,
    merge_pair_horizontal,
    merge_pair_vertical,
)
from lrcompress.kernels import (
    DenseOracle,
    Hankel2DKernel,
    LowRankProductOracle,
    dense_oracle,
    offdiag_oracle,
    product_of_random_oracle,
    strip_cloud,
)
from lrcompress.linalg import LowRankFactors, TruncatedSVD, lr_recompress, truncated_svd
from lrcompress.seeding import make_rng


class TestIndexTree:
    def test_even_split(self):
        assert _leaf_ranges(8, 2) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_ceil_floor_split(self):
        assert _leaf_ranges(7, 1) == [(0, 4), (4, 7)]

    def test_divisible_case(self):
        leaves = _leaf_ranges(5000, 3)
        sizes = {hi - lo for lo, hi in leaves}
        assert sizes == {625}
        assert len(leaves) == 8

    def test_partition_is_exact(self):
        for extent in (9, 17, 100, 257):
            covered = []
            for lo, hi in _leaf_ranges(extent, 3):
                covered.extend(range(lo, hi))
            assert covered == list(range(extent))

    def test_overpartitioned(self):
        oracle = dense_oracle(np.ones((7, 7)))
        with pytest.raises(ValueError, match="cannot split a 7x7 matrix into 8x8 blocks"):
            hbaca_compress(oracle, 64, BacaConfig(block_size=2, tol=1e-8))

    def test_parent_child_ranges(self):
        # each sibling pair of one split tiles the matching range of the
        # split one level up
        for levels in (1, 2, 3):
            parents = _leaf_ranges(21, levels - 1)
            children = _leaf_ranges(21, levels)
            for i, (lo, hi) in enumerate(parents):
                c0, c1 = children[2 * i], children[2 * i + 1]
                assert c0[0] == lo and c1[1] == hi and c0[1] == c1[0]


def block_of(a, row_node, col_node, tol=1e-12):
    return BlockSVD(row_node=row_node, col_node=col_node, svd=truncated_svd(a, tol))


def rank_zero_block(m, n, row_node, col_node):
    return BlockSVD(
        row_node=row_node,
        col_node=col_node,
        svd=truncated_svd(np.zeros((m, n)), 0.5),
    )


@pytest.mark.usefixtures("qr_path")
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


@pytest.mark.usefixtures("qr_path")
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

    def test_node_validation(self):
        top = rank_zero_block(4, 5, (0, 0), (0, 0))
        not_shared = rank_zero_block(4, 5, (0, 1), (0, 1))
        with pytest.raises(ValueError, match="shared column node"):
            merge_pair_vertical(top, not_shared, 1e-8)
        not_sibling = rank_zero_block(4, 5, (0, 2), (0, 0))
        with pytest.raises(ValueError, match="adjacent sibling row nodes"):
            merge_pair_vertical(top, not_sibling, 1e-8)
        odd_top = rank_zero_block(4, 5, (0, 1), (0, 0))
        odd_bottom = rank_zero_block(4, 5, (0, 2), (0, 0))
        with pytest.raises(ValueError, match="adjacent sibling row nodes"):
            merge_pair_vertical(odd_top, odd_bottom, 1e-8)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_peak_memory_matches_the_mirrored_horizontal_merge(self, kind):
        # two 2048 x 1024 rank-64 blocks stacked, against the horizontal
        # merge of their transposes: the vertical merge copies no factor
        rng = make_rng(8)
        top, bottom = (random_svd(rng, 2048, 1024, 64, kind) for _ in range(2))
        left, right = conj_transposed(top), conj_transposed(bottom)

        def vertical():
            return merge_pair_vertical(BlockSVD((0, 0), (0, 0), top),
                                       BlockSVD((0, 1), (0, 0), bottom), 1e-10)

        def horizontal():
            return merge_pair_horizontal(BlockSVD((0, 0), (0, 0), left),
                                         BlockSVD((0, 0), (0, 1), right), 1e-10)

        vertical(), horizontal()  # warm calls
        _, vertical_peak = traced_peak(vertical)
        _, horizontal_peak = traced_peak(horizontal)
        assert vertical_peak <= 1.05 * horizontal_peak


def transposed(svd):
    """The TruncatedSVD of A^T from that of A, as views."""
    return TruncatedSVD(u=svd.vt.T, sigma=svd.sigma, vt=svd.u.T)


def random_svd(rng, m, n, rank, kind):
    """TruncatedSVD of an m x n matrix of exact rank ``rank``, singular
    values in [0.1, 1]; complex factors when ``kind == "complex"``."""

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

    u = np.linalg.qr(draw((m, rank)))[0]
    v = np.linalg.qr(draw((n, rank)))[0]
    sigma = np.sort(rng.uniform(0.1, 1.0, rank))[::-1]
    return TruncatedSVD(u=np.ascontiguousarray(u), sigma=sigma,
                        vt=np.ascontiguousarray(v.conj().T))


# (shared extent, rank of the first block, rank of the second block)
MERGE_CASES = {
    "unequal_ranks": (40, 3, 7),
    "ranks_exceed_shared_extent": (10, 8, 9),
    "first_rank_zero": (30, 0, 5),
    "second_rank_zero": (30, 6, 0),
    "both_ranks_zero": (30, 0, 0),
    "second_basis_inside_first": (30, 6, 4),
    "second_basis_nearly_inside_first": (30, 6, 4),
}


def counted_qr_shapes(monkeypatch):
    """The shapes of the matrices given to the Householder QR from here on,
    in call order."""
    shapes = []
    qr = linalg_mod._householder_qr

    def counting(a):
        shapes.append(a.shape)
        return qr(a)

    monkeypatch.setattr(linalg_mod, "_householder_qr", counting)
    return shapes


def merge_pair(case, kind, direction, seed=7):
    """Two sibling BlockSVDs for ``case`` and the dense matrix they merge
    into. The shared side (rows of a horizontal pair, columns of a vertical
    one) has the case's extent; the other sides have 12 and 15."""
    shared, ra, rb = MERGE_CASES[case]
    rng = make_rng(seed)
    a = random_svd(rng, shared, 12, ra, kind)
    if case.startswith("second_basis_"):
        # b's basis lies in the span of a's, so the remainder is round-off;
        # or nearly so, with a real remainder 1e-7 the size of the rest
        mix = np.linalg.qr(rng.standard_normal((ra, rb)))[0]
        b = random_svd(rng, shared, 15, rb, kind)
        u = a.u @ mix
        if case == "second_basis_nearly_inside_first":
            u = np.linalg.qr(u + 1e-7 * random_svd(rng, shared, rb, rb, kind).u)[0]
        b = TruncatedSVD(u=np.ascontiguousarray(u), sigma=b.sigma, vt=b.vt)
    else:
        b = random_svd(rng, shared, 15, rb, kind)
    if direction == "horizontal":
        first = BlockSVD((1, 2), (0, 2), a)
        second = BlockSVD((1, 2), (0, 3), b)
        return first, second, np.hstack([a.matrix(), b.matrix()])
    first = BlockSVD((0, 4), (2, 1), conj_transposed(a))
    second = BlockSVD((0, 5), (2, 1), conj_transposed(b))
    return first, second, np.vstack([first.svd.matrix(), second.svd.matrix()])


@pytest.mark.usefixtures("qr_path")
class TestMergeAgainstDense:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("direction", ["horizontal", "vertical"])
    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    def test_matches_dense_svd(self, case, kind, direction):
        first, second, dense = merge_pair(case, kind, direction)
        merge = merge_pair_horizontal if direction == "horizontal" else merge_pair_vertical
        merged = merge(first, second, 1e-10)
        out = merged.svd
        assert out.shape == dense.shape
        for factor in (out.u, out.vt):
            assert factor.flags.c_contiguous or factor.flags.f_contiguous
        expected_dtype = np.complex128 if kind == "complex" else np.float64
        assert out.u.dtype == out.vt.dtype == expected_dtype
        if direction == "horizontal":
            assert (merged.row_node, merged.col_node) == ((1, 2), (1, 1))
        else:
            assert (merged.row_node, merged.col_node) == ((1, 2), (2, 1))

        sigma = np.linalg.svd(dense, compute_uv=False)
        if sigma[0] == 0.0:
            assert out.rank == 0
            return
        expected_rank = int(np.sum(sigma >= 1e-10 * sigma[0]))
        if case == "second_basis_inside_first":
            assert expected_rank == first.rank
        if case == "second_basis_nearly_inside_first":
            assert expected_rank == first.rank + second.rank
        assert out.rank == expected_rank
        assert np.all(np.diff(out.sigma) <= 0.0)
        assert np.abs(out.sigma - sigma[: out.rank]).max() <= 1e-12 * sigma[0]
        assert rel_fro(out.matrix(), dense) <= 1e-12
        eye = np.eye(out.rank)
        assert np.abs(out.u.conj().T @ out.u - eye).max() <= 1e-12
        assert np.abs(out.vt @ out.vt.conj().T - eye).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    def test_vertical_is_the_transposed_horizontal_bitwise(self, case, kind):
        top, bottom, _ = merge_pair(case, kind, "vertical")
        vertical = merge_pair_vertical(top, bottom, 1e-10).svd
        horizontal = merge_pair_horizontal(
            BlockSVD((2, 1), (0, 4), transposed(top.svd)),
            BlockSVD((2, 1), (0, 5), transposed(bottom.svd)),
            1e-10,
        ).svd
        assert np.array_equal(vertical.u, horizontal.vt.T)
        assert np.array_equal(vertical.sigma, horizontal.sigma)
        assert np.array_equal(vertical.vt, horizontal.u.T)

    @pytest.mark.parametrize("direction", ["horizontal", "vertical"])
    def test_one_qr_of_the_stacked_bases(self, monkeypatch, direction):
        # the blocks' bases on the other side are already orthonormal
        first, second, _ = merge_pair("unequal_ranks", "complex", direction)
        merge = merge_pair_horizontal if direction == "horizontal" else merge_pair_vertical
        shapes = counted_qr_shapes(monkeypatch)
        merge(first, second, 1e-10)
        assert shapes == [(40, 3 + 7)]

    def test_repeat_merges_are_bitwise_identical(self):
        first, second, _ = merge_pair("unequal_ranks", "complex", "horizontal")
        a = merge_pair_horizontal(first, second, 1e-10).svd
        b = merge_pair_horizontal(first, second, 1e-10).svd
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.vt, b.vt)


class TestHBaca:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_scale_free(self, complex_, exponent):
        # squares of these entries under- or overflow; the leaves and merges
        # give the unscaled run's ranks and its singular values scaled
        u, v = random_factors(1, 64, 64, 4, complex_)
        cfg = BacaConfig(block_size=4, tol=1e-10, seed=1)
        want, want_diag = hbaca_compress(dense_oracle(u @ v), 4, cfg)
        s = 2.0**exponent
        got, diag = hbaca_compress(dense_oracle((u @ v) * s), 4, cfg)
        assert got.rank == want.rank == 4
        assert diag.block_ranks == want_diag.block_ranks
        assert not diag.degenerate_blocks
        np.testing.assert_allclose(got.sigma / s, want.sigma, rtol=0.0,
                                   atol=1e-14 * want.sigma[0])

    def test_single_block_is_passthrough(self):
        oracle = product_of_random_oracle(40, 6, seed=70)
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=9)
        direct, _ = baca_compress(oracle, cfg)
        merged, diag = hbaca_compress(oracle, 1, cfg, workers=1)
        assert np.array_equal(direct.u, merged.u)
        assert np.array_equal(direct.sigma, merged.sigma)
        assert np.array_equal(direct.vt, merged.vt)
        assert diag.level_max_rank == [direct.rank]

    def test_max_rank_needs_a_single_block(self):
        # the cap would reach only the 16 x 16 leaves: at max_rank 8 the
        # merges returned rank 64, and 20 exceeded a leaf's min(m, n)
        a = make_rng(72).standard_normal((64, 64))
        for cap in (8, 20):
            cfg = BacaConfig(block_size=4, tol=1e-6, seed=1, max_rank=cap)
            with pytest.raises(ValueError, match="merges cannot hold the result to max_rank"):
                hbaca_compress(dense_oracle(a), 16, cfg)
            direct, _ = baca_compress(dense_oracle(a), cfg)
            passed, diag = hbaca_compress(dense_oracle(a), 1, cfg)
            assert passed.rank == direct.rank == cap
            assert np.array_equal(passed.u, direct.u) and np.array_equal(passed.vt, direct.vt)
            assert diag.level_max_rank == [cap]

    def test_global_rank_one(self):
        rng = make_rng(71)
        a = np.outer(rng.random(64) + 0.5, rng.random(64) + 0.5)
        svd, diag = hbaca_compress(
            dense_oracle(a), 16, BacaConfig(block_size=2, tol=1e-8, seed=1), workers=1
        )
        assert svd.rank == 1
        assert rel_fro(svd.matrix(), a) <= 1e-10
        # the leaves hand on their cross factors untruncated; every merge
        # truncates to rank one
        assert all(r >= 1 for (level, _, _), r in diag.block_ranks.items() if level == 0)
        assert all(r == 1 for (level, _, _), r in diag.block_ranks.items() if level > 0)
        assert diag.level_max_rank[1:] == [1, 1]

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

    def test_leaf_records(self):
        oracle = product_of_random_oracle(128, 12, seed=97)
        cfg = BacaConfig(block_size=4, tol=1e-6, seed=4)
        _, diag = hbaca_compress(oracle, 16, cfg, workers=1)
        assert list(diag.leaves) == [(i, j) for i in range(4) for j in range(4)]
        for (i, j), leaf in diag.leaves.items():
            # a leaf hands its cross factors to the first merge untruncated
            assert leaf.rank_accumulated == diag.block_ranks[(0, i, j)]
            assert leaf.iterations >= 1
            assert leaf.seconds > 0.0
            assert (leaf.termination == DEGENERATE) == ((i, j) in diag.degenerate_blocks)
        assert sum(leaf.seconds for leaf in diag.leaves.values()) == diag.leaf_seconds
        # a 2 x 2 tile runs as one task: its leaf-phase wall time is split
        # evenly, and tiles differ
        tiles = [{diag.leaves[i + a, j + b].seconds for a in (0, 1) for b in (0, 1)}
                 for i in (0, 2) for j in (0, 2)]
        assert all(len(tile) == 1 for tile in tiles)
        assert len(set.union(*tiles)) > 1

    def test_single_block_leaf_record(self):
        oracle = product_of_random_oracle(40, 6, seed=70)
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=9)
        _, history = baca_compress(oracle, cfg)
        svd, diag = hbaca_compress(oracle, 1, cfg, workers=1)
        leaf = diag.leaves[0, 0]
        assert leaf.iterations == history.iterations
        assert leaf.rank_accumulated == history.records[-1].rank
        assert leaf.termination == history.termination
        # the passthrough truncates: its leaf hands on the truncated rank
        assert diag.block_ranks == {(0, 0, 0): svd.rank}

    def test_parallel_leaf_records_match_serial(self):
        oracle = product_of_random_oracle(128, 12, seed=91)
        cfg = BacaConfig(block_size=4, tol=1e-6, seed=2)
        _, d1 = hbaca_compress(oracle, 16, cfg, workers=1)
        _, d2 = hbaca_compress(oracle, 16, cfg, workers=2)

        def counts(diag):
            return {key: (leaf.iterations, leaf.rank_accumulated, leaf.termination)
                    for key, leaf in diag.leaves.items()}

        assert counts(d1) == counts(d2)

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

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0)])
    def test_empty_oracle_rejected(self, shape):
        cfg = BacaConfig(block_size=2, tol=1e-6, seed=0)
        with pytest.raises(ValueError, match="oracle must be nonempty"):
            hbaca_compress(dense_oracle(np.zeros(shape)), 4, cfg)

    def test_non_integer_workers_rejected(self):
        oracle = product_of_random_oracle(32, 4, seed=95)
        cfg = BacaConfig(block_size=2, tol=1e-6, seed=0)
        with pytest.raises(ValueError, match="workers must be an integer"):
            hbaca_compress(oracle, 4, cfg, workers=1.5)
        want, _ = hbaca_compress(oracle, 4, cfg, workers=1)
        got, _ = hbaca_compress(oracle, 4, cfg, workers=np.int64(2))
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.vt, want.vt)

    def test_non_integer_block_count_rejected(self):
        oracle = product_of_random_oracle(32, 4, seed=96)
        cfg = BacaConfig(block_size=2, tol=1e-6, seed=0)
        for n_blocks in (16.0, "16"):
            with pytest.raises(ValueError, match="n_blocks must be an integer"):
                hbaca_compress(oracle, n_blocks, cfg)
        want, _ = hbaca_compress(oracle, 16, cfg)
        got, _ = hbaca_compress(oracle, np.int64(16), cfg)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.vt, want.vt)

    def test_degenerate_leaf_propagates(self):
        a = np.zeros((32, 32))
        a[:16, :16] = make_rng(94).standard_normal((16, 16))
        svd, diag = hbaca_compress(
            dense_oracle(a), 4, BacaConfig(block_size=2, tol=1e-6, seed=3), workers=1
        )
        assert len(diag.degenerate_blocks) == 3
        assert rel_fro(svd.matrix(), a) <= 1e-4


def _level_by_level(leaves, tol):
    # the root and the block ranks of merging every level in full before
    # the next, from the raw leaf factors in a row-major grid; the first
    # horizontal merges take the raw leaves
    ranks = {(0, i, j): f.rank for i, row in enumerate(leaves) for j, f in enumerate(row)}
    grid, level = leaves, 0
    while len(grid) > 1:
        level += 1
        if level == 1:
            grid = [[BlockSVD((0, i), (0, j), f) for j, f in enumerate(row)]
                    for i, row in enumerate(grid)]
        half = [[merge_pair_horizontal(*row[j:j + 2], tol) for j in range(0, len(row), 2)]
                for row in grid]
        grid = [[merge_pair_vertical(top, bottom, tol) for top, bottom in zip(half[i], half[i + 1])]
                for i in range(0, len(half), 2)]
        ranks.update(((level, i, j), b.rank) for i, row in enumerate(grid)
                     for j, b in enumerate(row))
    return grid[0][0].svd, ranks


class TestRawFactorQRs:
    def test_leaf_pair_factors_the_stacked_u_and_each_v(self, monkeypatch):
        (ua, va), (ub, vb) = random_factors(20, 20, 11, 3), random_factors(21, 20, 9, 4)
        shapes = counted_qr_shapes(monkeypatch)
        merge_pair_horizontal(BlockSVD((0, 0), (0, 0), LowRankFactors(ua, va)),
                              BlockSVD((0, 0), (0, 1), LowRankFactors(ub, vb)), 1e-10)
        assert shapes == [(20, 3 + 4), (11, 3), (9, 4)]

    def test_leaf_pair_merge_never_writes_the_leaves(self):
        # the kernel factors what it may write in place; a raw leaf's v^T is
        # column-major, and merge_pair_horizontal hands it over read-only
        leaves = [random_factors(23, 20, 11, 3, complex_=True),
                  random_factors(24, 20, 9, 4, complex_=True)]
        before = [(u.copy(), v.copy()) for u, v in leaves]
        merge_pair_horizontal(*(BlockSVD((0, 0), (0, j), LowRankFactors(u, v))
                                for j, (u, v) in enumerate(leaves)), 1e-10)
        for (u, v), (u0, v0) in zip(leaves, before):
            assert u.tobytes() == u0.tobytes() and v.tobytes() == v0.tobytes()

    def test_lr_recompress_factors_u_and_v(self, monkeypatch):
        u, v = random_factors(22, 20, 11, 3)
        shapes = counted_qr_shapes(monkeypatch)
        lr_recompress(u, v, 1e-10)
        assert shapes == [(20, 3), (11, 3)]


class TestRawLeafBlocks:
    def test_vertical_merge_refuses_raw_blocks(self):
        raw = [BlockSVD((0, i), (0, 0), LowRankFactors(*random_factors(30 + i, 6, 5, 2)))
               for i in (0, 1)]
        svd = [rank_zero_block(6, 5, (0, i), (0, 0)) for i in (0, 1)]
        for top, bottom in ((raw[0], raw[1]), (raw[0], svd[1]), (svd[0], raw[1])):
            with pytest.raises(ValueError, match="vertical merge takes SVD blocks"):
                merge_pair_vertical(top, bottom, 1e-8)

    def test_horizontal_merge_refuses_raw_leaves_not_adjacent_siblings(self):
        def leaf(j):
            return BlockSVD((0, 0), (0, j), LowRankFactors(*random_factors(40 + j, 6, 5, 2)))

        for left, right in ((0, 2), (1, 2), (1, 0)):
            with pytest.raises(ValueError, match="adjacent sibling column nodes"):
                merge_pair_horizontal(leaf(left), leaf(right), 1e-8)

    @pytest.mark.parametrize("n_blocks", [16, 64])
    def test_every_merge_goes_through_a_public_merge_function(self, monkeypatch, n_blocks):
        # n_b - 1 merges in all, the leaf pairs' among them: each is one
        # call to a public merge and one truncated SVD of its core
        merges, svds = [], []
        _recording_merges(monkeypatch, lambda: merges.append(1))
        svd = linalg_mod.truncated_svd

        def counted(*args):
            svds.append(1)
            return svd(*args)

        monkeypatch.setattr(linalg_mod, "truncated_svd", counted)
        oracle = product_of_random_oracle(256, 6, seed=14)
        hbaca_compress(oracle, n_blocks, BacaConfig(block_size=4, tol=1e-8, seed=2), workers=1)
        assert len(merges) == n_blocks - 1
        assert len(svds) == n_blocks - 1


class TestDepthFirstMerges:
    @pytest.mark.usefixtures("qr_path")
    @pytest.mark.parametrize("case", ["prodrand-uneven", "hankel-complex"])
    def test_equal_to_level_by_level_merges(self, monkeypatch, case):
        if case == "prodrand-uneven":
            # leaves 125 and 126 columns wide, in 2 x 2 tiles of 4 x 4 leaves
            oracle, n_blocks, span = product_of_random_oracle(1003, 20, seed=16), 64, 4
            cfg = BacaConfig(block_size=8, tol=1e-8, seed=5)
        else:
            # 2 x 2 tiles of 2 x 2 leaves
            oracle = offdiag_oracle(Hankel2DKernel(300.0), strip_cloud(300.0, 15))
            n_blocks, span, cfg = 16, 2, BacaConfig(block_size=8, tol=1e-6, seed=3)
        side = int(np.sqrt(n_blocks))
        tiles = []
        lockstep = hmerge_mod.lockstep_factors

        def capturing(*args):
            out = lockstep(*args)
            tiles.append([factors for factors, _ in out])
            return out

        monkeypatch.setattr(hmerge_mod, "lockstep_factors", capturing)
        got, diag = hbaca_compress(oracle, n_blocks, cfg, workers=1)
        # the tiles run in row-major order, their leaves row-major within
        assert len(tiles) == (side // span) ** 2
        leaves = [[None] * side for _ in range(side)]
        for k, tile in enumerate(tiles):
            ti, tj = divmod(k, side // span)
            for q, factors in enumerate(tile):
                a, b = divmod(q, span)
                leaves[ti * span + a][tj * span + b] = factors
        # on single-threaded BLAS, as hbaca_compress merges
        with hmerge_mod._single_threaded_blas:
            want, ranks = _level_by_level(leaves, cfg.tol)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.vt, want.vt)
        # keys in level-by-level, row-major order
        assert list(diag.block_ranks.items()) == list(ranks.items())
        assert diag.level_max_rank == [
            max(r for (l, _, _), r in ranks.items() if l == level)
            for level in range(len(diag.level_max_rank))]

    def test_peak_memory_near_the_leaf_factors(self):
        # at one worker the tiles run one at a time, and each walk holds its
        # unmerged blocks plus one partial root-to-leaf path, not a level's
        # inputs and outputs together: the peak stays below the leaves'
        # cross factors taken together
        n, n_blocks = 2048, 64
        oracle = product_of_random_oracle(n, 32, seed=1)
        cfg = BacaConfig(block_size=8, tol=1e-6, seed=1)
        hbaca_compress(oracle, n_blocks, cfg, workers=1)  # warm call
        (_, diag), peak = traced_peak(lambda: hbaca_compress(oracle, n_blocks, cfg, workers=1))
        leaves = _leaf_ranges(n, 3)
        leaf_bytes = sum(
            rank * (leaves[i][1] - leaves[i][0] + leaves[j][1] - leaves[j][0]) * 8
            for (level, i, j), rank in diag.block_ranks.items() if level == 0)
        # 6.7 MB traced against 10.5 MB of cross factors (leaf rank 40)
        assert peak <= 0.8 * leaf_bytes


def _blas_threads():
    get = linalg_mod._bundled_openblas().scipy_openblas_get_num_threads64_
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


@pytest.fixture
def caller_blas_threads():
    """Sets the caller's BLAS thread count to 2, a count the single-thread
    pin has to change and then restore; skips without the OpenBLAS getter."""
    lib = linalg_mod._bundled_openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy does not bundle OpenBLAS with the thread getter")
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    before = _blas_threads()
    set_threads(2)
    try:
        yield 2
    finally:
        set_threads(before)


class _ThreadSpyOracle(DenseOracle):
    # records the BLAS thread count at every block request, and raises at
    # the first one when told to
    def __init__(self, matrix, fail=False):
        super().__init__(matrix)
        self.fail = fail
        self.seen = []

    def block(self, row_idx, col_idx):
        self.seen.append(_blas_threads())
        if self.fail:
            raise RuntimeError("leaf oracle failure")
        return super().block(row_idx, col_idx)


def _spy(fail=False):
    u, v = random_factors(12, 48, 48, 6)
    return _ThreadSpyOracle(u @ v, fail=fail)


class _SingleThreadOnlyOracle(DenseOracle):
    # a block request under more than one BLAS thread fails the leaf and
    # with it the call
    def block(self, row_idx, col_idx):
        if _blas_threads() != 1:
            raise RuntimeError("block requested under multithreaded BLAS")
        return super().block(row_idx, col_idx)


class _FailingTileOracle(LowRankProductOracle):
    # appends the first leaf of every tile task that starts, the one whose
    # corner lies on the tile grid, to a log file, and fails the task of
    # tile (0, 0) at once
    def __init__(self, u, v, tile, log):
        super().__init__(u, v)
        self.tile = tile
        self.log = log

    def subblock(self, row_lo, row_hi, col_lo, col_hi):
        if row_lo % self.tile == 0 and col_lo % self.tile == 0:
            with open(self.log, "a") as fh:
                fh.write(f"{row_lo},{col_lo}\n")
        if row_lo == col_lo == 0:
            raise RuntimeError("leaf failure")
        return super().subblock(row_lo, row_hi, col_lo, col_hi)


def _recording_merges(monkeypatch, record):
    # wraps the merges hbaca_compress looks up as module attributes, in the
    # caller and in the pool threads alike
    for name in ("merge_pair_horizontal", "merge_pair_vertical"):
        def wrapped(*args, _merge=getattr(hmerge_mod, name)):
            record()
            return _merge(*args)

        monkeypatch.setattr(hmerge_mod, name, wrapped)


class TestWorkerBlasThreads:
    def test_pool_workers_run_single_threaded_blas(self, caller_blas_threads):
        u, v = random_factors(13, 48, 48, 6)
        svd, diag = hbaca_compress(_SingleThreadOnlyOracle(u @ v), 16,
                                   BacaConfig(block_size=4, tol=1e-8, seed=1), workers=2)
        assert svd.rank == 6
        assert len(diag.leaves) == 16
        # the pin applies in the pool threads and during the call only
        assert _blas_threads() == caller_blas_threads

    def test_merges_run_single_threaded(self, caller_blas_threads, monkeypatch):
        threads = []
        _recording_merges(monkeypatch, lambda: threads.append(_blas_threads()))
        oracle = product_of_random_oracle(64, 6, seed=14)
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=2)
        # every merge, inline and on the pool: the four tiles' 8 + 4 and the
        # caller's 2 + 1; the process-wide pin covers the pool threads
        for workers in (1, 2):
            threads.clear()
            hbaca_compress(oracle, 16, cfg, workers=workers)
            assert threads == [1] * (8 + 4 + 2 + 1)
        assert _blas_threads() == caller_blas_threads


class TestTilePool:
    def test_the_caller_merges_only_above_the_tiles(self, monkeypatch):
        idents = []
        _recording_merges(monkeypatch, lambda: idents.append(threading.get_ident()))
        oracle = product_of_random_oracle(64, 6, seed=14)
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=2)
        svd, _ = hbaca_compress(oracle, 16, cfg, workers=2)
        assert svd.rank == 6
        # four tiles of 2 x 2 leaves, each merged to its root in a pool
        # thread: the caller merges the roots last, two horizontal merges
        # and a vertical
        caller = threading.get_ident()
        assert idents[-(2 + 1):] == [caller] * (2 + 1)
        assert caller not in idents[:-(2 + 1)]
        assert len(idents) == 4 * (2 + 1) + (2 + 1)

    def test_phase_times_fit_in_the_call(self):
        # on a pool the tasks overlap: their summed leaf and merge times are
        # scaled down to the pool's wall time
        oracle = product_of_random_oracle(256, 8, seed=18)
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=3)
        for workers in (1, 2):
            t0 = time.perf_counter()
            _, diag = hbaca_compress(oracle, 16, cfg, workers=workers)
            total = time.perf_counter() - t0
            assert diag.leaf_seconds > 0.0 and diag.merge_seconds > 0.0
            assert diag.leaf_seconds + diag.merge_seconds <= total

    def test_pool_is_capped_at_the_task_count(self, monkeypatch):
        # one task per tile: 16 leaves make 4 tiles of 2 x 2, and 4 leaves
        # one tile, which runs inline
        sizes = []
        real = hmerge_mod.ThreadPoolExecutor

        def recording(max_workers, **kwargs):
            sizes.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(hmerge_mod, "ThreadPoolExecutor", recording)
        oracle = product_of_random_oracle(32, 3, seed=15)
        cfg = BacaConfig(block_size=2, tol=1e-8, seed=4)
        for n_blocks in (16, 4):
            want, _ = hbaca_compress(oracle, n_blocks, cfg, workers=1)
            got, _ = hbaca_compress(oracle, n_blocks, cfg, workers=8)
            assert np.array_equal(got.u, want.u) and np.array_equal(got.vt, want.vt)
        assert sizes == [4]

    def test_a_failing_task_cancels_the_tasks_not_started(self, tmp_path):
        # 256 leaves of 128 x 128 make 16 tiles of 512 x 512
        u, v = random_factors(17, 2048, 2048, 64)
        log = tmp_path / "started.txt"
        oracle = _FailingTileOracle(u, v, 512, str(log))
        with pytest.raises(RuntimeError, match="leaf failure"):
            hbaca_compress(oracle, 256, BacaConfig(block_size=8, tol=1e-6, seed=1), workers=2)
        started = log.read_text().split()
        assert "0,0" in started
        # one task per pool thread, and at times one more that a thread takes
        # before the failure reaches the caller: 2 or 3 start
        assert len(started) < 10


class TestSingleThreadedTasks:
    def test_inline_tasks_run_single_threaded_and_restore(self, caller_blas_threads):
        spy = _spy()
        svd, _ = hbaca_compress(spy, 4, BacaConfig(block_size=4, tol=1e-8, seed=1))
        assert svd.rank == 6
        assert spy.seen and set(spy.seen) == {1}
        assert _blas_threads() == caller_blas_threads

    def test_restored_after_a_raising_leaf_oracle(self, caller_blas_threads):
        spy = _spy(fail=True)
        with pytest.raises(RuntimeError, match="leaf oracle failure"):
            hbaca_compress(spy, 4, BacaConfig(block_size=4, tol=1e-8, seed=1))
        assert spy.seen == [1]
        assert _blas_threads() == caller_blas_threads

    def test_single_block_passthrough_keeps_the_caller_count(self, caller_blas_threads):
        spy = _spy()
        hbaca_compress(spy, 1, BacaConfig(block_size=4, tol=1e-8, seed=1))
        assert set(spy.seen) == {caller_blas_threads}

    def test_worker_counts_are_bitwise_identical(self, caller_blas_threads):
        # a complex Hankel strip, and a product whose leaves are 125 and 126
        # columns wide, at worker counts that do and do not divide the rows
        from lrcompress.kernels import Hankel2DKernel, offdiag_oracle, strip_cloud

        hankel = offdiag_oracle(Hankel2DKernel(300.0), strip_cloud(300.0, 15))
        uneven = product_of_random_oracle(1003, 20, seed=16)
        cfg = BacaConfig(block_size=8, tol=1e-8, seed=5)
        # one tile, 4 tiles of 2 x 2, 4 of 4 x 4 and 16 of 4 x 4 leaves
        cases = [(uneven, 4, cfg),
                 (hankel, 16, BacaConfig(block_size=8, tol=1e-6, seed=3)),
                 (uneven, 64, cfg),
                 (uneven, 256, cfg)]
        for oracle, n_blocks, cfg in cases:
            (a, da), *others = [hbaca_compress(oracle, n_blocks, cfg, workers=w)
                                for w in (1, 2, 3)]
            assert a.u.dtype == oracle.dtype
            for b, db in others:
                assert np.array_equal(a.u, b.u)
                assert np.array_equal(a.sigma, b.sigma)
                assert np.array_equal(a.vt, b.vt)
                assert da.block_ranks == db.block_ranks

    @pytest.mark.parametrize("case", ["hankel", "prodrand-uneven"])
    def test_pool_threads_share_the_run_cache(self, case, monkeypatch):
        # every tile thread takes its index runs from kernels._RUNS; kept at
        # two runs, the cache is cleared while both threads read it, and a
        # run it no longer holds is served by a scan, to the same values
        cleared = []

        class Runs(dict):
            def clear(self):
                cleared.append(threading.get_ident())
                super().clear()

        monkeypatch.setattr(kernels_mod, "_RUNS", Runs())
        monkeypatch.setattr(kernels_mod, "_RUNS_KEPT", 2)
        if case == "hankel":
            oracle = offdiag_oracle(Hankel2DKernel(300.0), strip_cloud(300.0, 15))
            n_blocks, cfg = 16, BacaConfig(block_size=8, tol=1e-6, seed=3)
        else:
            oracle = product_of_random_oracle(1003, 20, seed=16)
            n_blocks, cfg = 64, BacaConfig(block_size=8, tol=1e-8, seed=5)
        want, want_diag = hbaca_compress(oracle, n_blocks, cfg, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # two threads, and four, more than the cores of a small host
            for workers in (2, 4):
                cleared.clear()
                got, got_diag = hbaca_compress(oracle, n_blocks, cfg, workers=workers)
                assert any(ident != threading.get_ident() for ident in cleared)
                assert np.array_equal(got.u, want.u)
                assert np.array_equal(got.sigma, want.sigma)
                assert np.array_equal(got.vt, want.vt)
                assert got_diag.block_ranks == want_diag.block_ranks
        finally:
            sys.setswitchinterval(interval)

    def test_threadpoolctl_pins_when_installed(self, caller_blas_threads, monkeypatch):
        # a stand-in threadpoolctl that pins through the OpenBLAS setter, as
        # the real one does; the ctypes branch must not run beside it
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=1)
        want, _ = hbaca_compress(_spy(), 4, cfg)
        set_threads = linalg_mod._bundled_openblas().scipy_openblas_set_num_threads64_
        calls = []

        class Limits:
            def __init__(self, limits):
                calls.append(("limits", limits, _blas_threads()))
                set_threads(limits)

            def restore_original_limits(self):
                calls.append(("restore", _blas_threads()))
                set_threads(caller_blas_threads)

        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = lambda limits: Limits(limits)
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        monkeypatch.setattr(hmerge_mod, "_bundled_openblas", None)
        spy = _spy()
        got, _ = hbaca_compress(spy, 4, cfg)
        assert calls == [("limits", 1, caller_blas_threads), ("restore", 1)]
        assert set(spy.seen) == {1}
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.sigma, want.sigma)
        assert np.array_equal(got.vt, want.vt)
        assert _blas_threads() == caller_blas_threads

    @pytest.mark.parametrize("lib", [None, types.SimpleNamespace()])
    def test_no_pin_without_threadpoolctl_or_openblas(self, lib, monkeypatch):
        # numpy on another BLAS, or an OpenBLAS without the thread symbols:
        # the pin is a no-op and the call still returns
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(hmerge_mod, "_bundled_openblas", lambda: lib)
        assert hmerge_mod._limit_blas_threads()() is None
        u, v = random_factors(12, 48, 48, 6)
        svd, _ = hbaca_compress(dense_oracle(u @ v), 4, BacaConfig(block_size=4, tol=1e-8, seed=1))
        assert svd.rank == 6
        assert rel_fro(svd.matrix(), u @ v) <= 1e-10

    def test_concurrent_callers_share_one_pin(self, caller_blas_threads):
        # the thread count is process-wide: a caller that restored it while
        # another still ran would let that one see the caller count, and a
        # lost update of the user count would leave it pinned at 1
        spies = [_spy() for _ in range(6)]
        cfg = BacaConfig(block_size=4, tol=1e-8, seed=1)
        want, _ = hbaca_compress(spies[0], 4, cfg)
        got = [None] * len(spies)

        def run(k):
            got[k] = hbaca_compress(spies[k], 4, cfg)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(spies))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for spy, svd in zip(spies, got):
            assert set(spy.seen) == {1}
            assert np.array_equal(svd.u, want.u) and np.array_equal(svd.vt, want.vt)
        assert _blas_threads() == caller_blas_threads


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
        est = cost_model(CostModelParams(n=1000, rank=10, n_blocks=1))
        assert est["merge_flops"] == 0.0

    def test_quadrupling_ratios(self):
        consts = [
            cost_model(CostModelParams(n=8192, rank=64, n_blocks=nb))
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

    def test_non_integer_block_count_rejected(self):
        with pytest.raises(ValueError, match="n_blocks must be an integer"):
            cost_model(CostModelParams(n=100, rank=4, n_blocks=16.0))
        assert (cost_model(CostModelParams(n=100, rank=4, n_blocks=np.int64(16)))
                == cost_model(CostModelParams(n=100, rank=4, n_blocks=16)))
