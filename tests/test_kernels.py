import numpy as np
import pytest

from helpers import gram_epsilon_rank, j0_series, y0_series
from lrcompress.kernels import (
    DenseOracle,
    EntryOracle,
    GaussianKernel,
    GeometryError,
    Hankel2DKernel,
    KernelOracle,
    LowRankProductOracle,
    PointCloud,
    PointFileError,
    PolynomialKernel,
    load_dense_matrix,
    load_point_cloud,
    offdiag_oracle,
    product_of_random_oracle,
    random_cloud,
    strip_cloud,
)
from lrcompress import AcaConfig, BacaConfig, aca_compress, baca_compress
from lrcompress.kernels import _as_run, _pairwise_sq, full_range
from lrcompress.linalg import truncated_svd
from lrcompress.seeding import make_rng


class TestKernelValues:
    def test_gaussian_at_zero_distance(self):
        k = GaussianKernel(0.7)
        x = np.array([0.3, -1.2, 4.0])
        assert k.element(x, x) == 1.0

    def test_polynomial_at_origin(self):
        k = PolynomialKernel(0.2)
        z = np.zeros(5)
        assert k.element(z, z) == pytest.approx(0.04, abs=1e-15)

    def test_hankel_at_unit_argument(self):
        # wavenumber * distance == 1
        k = Hankel2DKernel(2.0)
        xi = np.array([0.0, 0.0])
        xj = np.array([0.5, 0.0])
        val = k.element(xi, xj)
        assert val.real == pytest.approx(j0_series(1.0), abs=1e-10)
        assert val.imag == pytest.approx(-y0_series(1.0), abs=1e-10)

    def test_hankel_rejects_coincident_points(self):
        k = Hankel2DKernel(5.0)
        x = np.array([1.0, 2.0])
        with pytest.raises(GeometryError):
            k.element(x, x.copy())
        with pytest.raises(GeometryError):
            k.block(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [0.0, 0.0]]))
        # |a|^2 + |b|^2 - 2 a.b leaves a rounding residue for this point
        # paired with itself; per-coordinate differences give exactly 0
        x = np.array([[543.62499147, 935.07242379]])
        with pytest.raises(GeometryError):
            k.block(x, x.copy())
        pts = make_rng(11).random((300, 2)) * 1000.0
        assert not _pairwise_sq(pts, pts).diagonal().any()

    @pytest.mark.parametrize("kernel", [GaussianKernel(0.5), PolynomialKernel(0.2)])
    def test_exact_symmetry(self, kernel):
        rng = make_rng(1)
        pts = rng.standard_normal((6, 4))
        for i in range(6):
            for j in range(6):
                assert kernel.element(pts[i], pts[j]) == kernel.element(pts[j], pts[i])

    def test_hankel_symmetry(self):
        rng = make_rng(2)
        pts = rng.standard_normal((5, 2))
        k = Hankel2DKernel(3.0)
        for i in range(5):
            for j in range(i + 1, 5):
                assert k.element(pts[i], pts[j]) == k.element(pts[j], pts[i])

    def test_block_matches_element(self):
        rng = make_rng(3)
        xr = rng.random((7, 3))
        xc = rng.random((9, 3)) + 2.0
        for kernel in (GaussianKernel(0.8), PolynomialKernel(0.3)):
            blk = kernel.block(xr, xc)
            for i in range(7):
                for j in range(9):
                    assert blk[i, j] == pytest.approx(
                        kernel.element(xr[i], xc[j]), rel=1e-12, abs=1e-15
                    )
        k = Hankel2DKernel(4.0)
        blk = k.block(xr[:, :2], xc[:, :2])
        for i in range(7):
            for j in range(9):
                assert blk[i, j] == pytest.approx(k.element(xr[i, :2], xc[j, :2]), rel=1e-12)
        # element is the 1 x 1 block, bit for bit
        for kernel in (GaussianKernel(0.8), PolynomialKernel(0.3), k):
            oracle = KernelOracle(kernel, xr[:, :2], xc[:, :2])
            for i in range(7):
                for j in range(9):
                    assert oracle.element(i, j) == oracle.block([i], [j])[0, 0]

    def test_gaussian_entries_in_unit_interval(self):
        rng = make_rng(4)
        k = GaussianKernel(0.5)
        blk = k.block(rng.standard_normal((20, 3)), rng.standard_normal((20, 3)))
        assert (blk > 0.0).all() and (blk <= 1.0).all()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)
        with pytest.raises(ValueError):
            Hankel2DKernel(-1.0)


class TestPointClouds:
    def test_strips_fifteen_points_per_wavelength(self):
        # ten wavelengths per unit strip at 15 per wavelength -> 150 each
        wavenumber = 20.0 * np.pi
        cloud = strip_cloud(wavenumber, 15)
        assert cloud.count == 300
        assert cloud.dim == 2
        assert np.array_equal(np.unique(cloud.points[:150, 1]), [0.0])
        assert np.array_equal(np.unique(cloud.points[150:, 1]), [1.0])
        assert cloud.points[:, 0].min() >= 0.0 and cloud.points[:, 0].max() <= 1.0

    def test_strip_separation_is_at_least_one(self):
        cloud = strip_cloud(40.0, 15)
        n = cloud.count // 2
        d = np.linalg.norm(
            cloud.points[:n, None, :] - cloud.points[None, n:, :], axis=2
        )
        assert d.min() >= 1.0

    def test_random_cloud_is_seeded(self):
        a = random_cloud(4, 2, seed=7)
        b = random_cloud(4, 2, seed=7)
        assert np.array_equal(a.points, b.points)
        c = random_cloud(4, 2, seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_point_file_roundtrip(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# header\n1 2 3 4 5 6 7 8\n1,2,3,4,5,6,7,8\n\n0 0 0 0 0 0 0 1\n")
        cloud = load_point_cloud(path)
        assert cloud.count == 3
        assert cloud.dim == 8

    def test_point_file_bad_arity_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n1 2\n")
        with pytest.raises(PointFileError, match="bad.txt:2"):
            load_point_cloud(path)

    def test_point_file_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("1 2\n1 x\n")
        with pytest.raises(PointFileError, match="bad2.txt:2"):
            load_point_cloud(path)

    def test_point_file_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(PointFileError):
            load_point_cloud(path)

    def test_dense_matrix_file(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("1 2\n3 4\n")
        assert np.array_equal(load_dense_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.0], [np.inf]]))


class TestProductOfRandomOracle:
    def test_rank_one_minors_are_singular(self):
        o = product_of_random_oracle(10, 1, seed=3)
        a = o.dense()
        scale = np.abs(a).max() ** 2
        for i in range(9):
            for j in range(9):
                det = a[i, j] * a[i + 1, j + 1] - a[i, j + 1] * a[i + 1, j]
                assert abs(det) <= 1e-10 * scale

    def test_dense_epsilon_rank(self):
        o = product_of_random_oracle(64, 8, seed=4)
        assert truncated_svd(o.dense(), 1e-8).rank == 8

    def test_dense_matches_factors(self):
        o = product_of_random_oracle(40, 5, seed=5)
        dense = o.dense()
        exact = o.u @ o.v
        assert np.abs(dense - exact).max() <= 1e-14 * np.abs(exact).max()
        assert o.element(3, 7) == pytest.approx(exact[3, 7], rel=1e-14)

    def test_determinism(self):
        a = product_of_random_oracle(16, 3, seed=9).dense()
        b = product_of_random_oracle(16, 3, seed=9).dense()
        assert np.array_equal(a, b)

    def test_large_instance_epsilon_rank_bound(self):
        # n=2500 with inner rank 1000: the epsilon-rank at 1e-4 equals 1000.
        # sigma_1000(A) >= sigma_min(U) sigma_min(V) and
        # sigma_1(A) <= sigma_max(U) sigma_max(V); the ratio stays far above
        # 1e-4 and sigma_1001 is exactly zero by construction.
        o = product_of_random_oracle(2500, 1000, seed=6)
        su = np.linalg.svd(o.u, compute_uv=False)
        sv = np.linalg.svd(o.v, compute_uv=False)
        lower_1000 = su[-1] * sv[-1]
        upper_1 = su[0] * sv[0]
        assert lower_1000 / upper_1 > 1e-4
        assert o.inner_rank == 1000

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            product_of_random_oracle(8, 0, seed=0)
        with pytest.raises(ValueError):
            product_of_random_oracle(8, 9, seed=0)


class TestOffdiagOracle:
    def test_far_clusters_are_uniformly_small(self):
        rng = make_rng(11)
        pts = np.vstack([rng.random((30, 2)), rng.random((30, 2)) + 10.0])
        h = 0.5
        o = offdiag_oracle(GaussianKernel(h), PointCloud(pts))
        sep = 10.0 * np.sqrt(2) - 2.0  # conservative min cluster distance
        assert o.dense().max() <= np.exp(-(sep - 1.0) ** 2 / (2 * h * h))

    def test_single_pair(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        o = offdiag_oracle(GaussianKernel(1.0), PointCloud(pts))
        assert o.shape == (1, 1)
        assert o.element(0, 0) == GaussianKernel(1.0).element(pts[0], pts[1])

    def test_grid_split_rank(self):
        # 200 grid points on [0, 1] split at the midpoint, h = 0.5: the
        # off-diagonal block compresses to rank 4 at 1e-6 (dense oracle)
        grid = np.linspace(0.0, 1.0, 200)[:, None]
        o = offdiag_oracle(GaussianKernel(0.5), PointCloud(grid))
        dense = o.dense()
        assert gram_epsilon_rank(dense, 1e-6) == 4
        assert truncated_svd(dense, 1e-6).rank == 4

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            offdiag_oracle(GaussianKernel(1.0), PointCloud(np.zeros((3, 2))))


class TestOracleSurface:
    def test_subblock(self):
        o = product_of_random_oracle(12, 2, seed=13)
        sub = o.subblock(2, 7, 3, 9)
        assert sub.shape == (5, 6)
        assert np.array_equal(sub.dense(), o.dense()[2:7, 3:9])
        assert sub.element(0, 0) == o.element(2, 3)

    def test_base_block_loop_fallback(self):
        class Two(EntryOracle):
            rows, cols, dtype = 3, 3, np.dtype(np.float64)

            def element(self, i, j):
                return float(i * 10 + j)

        o = Two()
        assert np.array_equal(o.block([0, 2], [1]), [[1.0], [21.0]])

    def test_kernel_oracle_dtype(self):
        cloud = strip_cloud(40.0, 15)
        o = offdiag_oracle(Hankel2DKernel(40.0), cloud)
        assert o.dtype == np.complex128
        assert o.dense().dtype == np.complex128


class TestSubblockBounds:
    def test_element_agrees_with_block(self):
        a = make_rng(64).standard_normal((12, 10))
        sub = DenseOracle(a).subblock(2, 9, 3, 8)
        for i in range(-sub.rows, sub.rows):
            for j in range(-sub.cols, sub.cols):
                assert sub.element(i, j) == sub.block([i], [j])[0, 0]
        assert sub.element(-1, -1) == a[8, 7]
        for i, j in [(sub.rows, 0), (-sub.rows - 1, 0), (0, sub.cols), (0, -sub.cols - 1)]:
            with pytest.raises(IndexError):
                sub.element(i, j)

    def test_middle_subblock_no_longer_reads_its_neighbours(self):
        sub = product_of_random_oracle(12, 2, seed=66).subblock(2, 9, 3, 8)
        for rows, cols in [
            ([sub.rows], [0]),
            ([0], [sub.cols]),
            ([-sub.rows - 1], [0]),
            ([0], [-sub.cols - 1]),
            (np.array([0, 3, sub.rows]), np.arange(sub.cols)),
        ]:
            with pytest.raises(IndexError):
                sub.block(rows, cols)


class _LoopOracle(EntryOracle):
    # base-class block: one element call per entry
    def __init__(self, matrix):
        self.matrix = matrix
        self.rows, self.cols = matrix.shape
        self.dtype = matrix.dtype

    def element(self, i, j):
        return self.matrix[i, j]


def _gather_cases(kind):
    """(name, oracle, reference) triples; reference(rows, cols) is the
    oracle's own arithmetic on explicitly fancy-gathered operands."""
    rng = make_rng(61)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

    a = draw((12, 10))
    u, v = draw((12, 3)), draw((3, 10))
    pts_r, pts_c = rng.random((12, 2)), rng.random((10, 2)) + 2.0
    kernel = Hankel2DKernel(3.0) if kind == "complex" else GaussianKernel(0.7)
    lr = LowRankProductOracle(u, v)
    return [
        ("dense", DenseOracle(a), lambda r, c: a[np.ix_(r, c)]),
        ("kernel", KernelOracle(kernel, pts_r, pts_c),
         lambda r, c: kernel.block(pts_r[r], pts_c[c])),
        ("lowrank", lr, lambda r, c: u[r, :] @ np.ascontiguousarray(v[:, c])),
        # base entries on every side: only the subblock's own bounds make
        # negatives wrap inside it and one past its end raise
        ("subblock", lr.subblock(2, 9, 3, 8),
         lambda r, c: u[2:9][r, :] @ np.ascontiguousarray(v[:, 3:8][:, c])),
        ("loop", _LoopOracle(a), lambda r, c: np.array(
            [[a[i, j] for j in c] for i in r], dtype=a.dtype).reshape(len(r), len(c))),
    ]


_INDEX_SETS = {
    "full": lambda n: np.arange(n),
    "partial": lambda n: np.arange(2, n - 3),
    "single": lambda n: np.array([4]),
    "empty": lambda n: np.array([], dtype=np.intp),
    "descending": lambda n: np.arange(n - 2, 1, -1),
    "duplicated": lambda n: np.array([1, 1, 2, 3]),
    "int32": lambda n: np.arange(1, n, dtype=np.int32),
    "negative": lambda n: np.array([-3, -2, -1]),
}


class TestOracleGathers:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("row_set", sorted(_INDEX_SETS))
    @pytest.mark.parametrize("col_set", ["full", "partial", "duplicated", "negative"])
    def test_block_equals_fancy_gather(self, kind, row_set, col_set):
        for name, oracle, reference in _gather_cases(kind):
            rows = _INDEX_SETS[row_set](oracle.rows)
            cols = _INDEX_SETS[col_set](oracle.cols)
            got = oracle.block(rows, cols)
            want = reference(rows, cols)
            assert got.shape == want.shape == (rows.size, cols.size), name
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_run_one_past_the_end_raises(self, kind):
        for name, oracle, _ in _gather_cases(kind):
            with pytest.raises(IndexError):
                oracle.block(np.arange(1, oracle.rows + 1), np.arange(oracle.cols))
            with pytest.raises(IndexError):
                oracle.block(np.arange(oracle.rows), np.arange(1, oracle.cols + 1))

    @pytest.mark.parametrize("rows, cols", [
        (np.arange(6), np.arange(5)),
        (np.arange(1, 4), np.arange(2, 5)),
        (np.arange(6), np.array([0, 3])),
        (np.array([5, 0]), np.arange(5)),
    ])
    def test_dense_block_is_owned_by_the_caller(self, rows, cols):
        a = make_rng(62).standard_normal((6, 5))
        oracle = DenseOracle(a.copy())
        out = oracle.block(rows, cols)
        out[...] = 0.0
        assert np.array_equal(oracle.matrix, a)


class _BlockOnlyOracle(EntryOracle):
    # a custom oracle with no element and no run recognition: block gathers
    # with whatever index arrays it gets, and records them
    def __init__(self, matrix):
        self.matrix = matrix
        self.rows, self.cols = matrix.shape
        self.dtype = matrix.dtype
        self.seen = []

    def block(self, row_idx, col_idx):
        self.seen.append((row_idx, col_idx))
        return self.matrix[np.ix_(row_idx, col_idx)]


class TestFullRange:
    def test_shared_read_only_arange(self):
        idx = full_range(37)
        assert full_range(37) is idx
        assert np.array_equal(idx, np.arange(37))
        assert idx.dtype.kind == "i" and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 5

    def test_recognized_by_identity(self):
        assert _as_run(full_range(40), 40) == slice(0, 40)
        # an equal array that is not the shared one takes the general path
        # to the same run
        assert _as_run(np.arange(40), 40) == slice(0, 40)
        # the shared range of another extent is only a run, checked as one
        assert _as_run(full_range(30), 40) == slice(0, 30)
        assert not isinstance(_as_run(full_range(40), 30), slice)

    @pytest.mark.parametrize("algorithm", ["aca", "baca"])
    def test_block_only_oracle_gets_plain_integer_arrays(self, algorithm):
        a = product_of_random_oracle(60, 5, seed=9).dense()
        oracle = _BlockOnlyOracle(a)
        if algorithm == "aca":
            res, hist = aca_compress(oracle, AcaConfig(tol=1e-10, seed=3))
            ref, ref_hist = aca_compress(DenseOracle(a), AcaConfig(tol=1e-10, seed=3))
        else:
            config = BacaConfig(block_size=4, tol=1e-10, seed=3)
            res, hist = baca_compress(oracle, config)
            ref, ref_hist = baca_compress(DenseOracle(a), config)
        assert oracle.seen
        for rows, cols in oracle.seen:
            for idx in (rows, cols):
                assert isinstance(idx, np.ndarray)
                assert idx.ndim == 1 and idx.dtype.kind in "iu"
        assert any(np.array_equal(rows, np.arange(60)) for rows, _ in oracle.seen)
        assert hist.col_pivots == ref_hist.col_pivots
        assert hist.row_pivots == ref_hist.row_pivots
        assert rel_fro_matrix(res, a) <= 1e-9


def rel_fro_matrix(res, a):
    return np.linalg.norm(res.matrix() - a) / np.linalg.norm(a)
