import numpy as np
import pytest

from helpers import gram_epsilon_rank, random_factors, rel_fro
from lrcompress.linalg import (
    FactorBuffer,
    cholesky_upper,
    epsilon_rank,
    lr_norm,
    lr_norm_update,
    lr_recompress,
    qrcp,
    truncated_svd,
)
from lrcompress.seeding import make_rng


class TestQRCP:
    def test_identity_fixed_rank(self):
        fac = qrcp(np.eye(3), rank=3)
        assert list(fac.pivots) == [0, 1, 2]
        assert np.allclose(np.abs(np.diag(fac.t)), 1.0)

    def test_rank_one_tolerance(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        fac = qrcp(a, tol=1e-12)
        assert fac.rank == 1
        assert fac.pivots[0] == 1  # column norm sqrt(20) beats sqrt(5)

    def test_rank_of_random_product(self):
        rng = make_rng(3)
        a = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 20))
        # Gram-eigenvalue oracle resolves down to ~sqrt(eps) only; the huge
        # spectral gap of an exact-rank product makes 1e-6 equivalent here.
        assert gram_epsilon_rank(a, 1e-6) == 5
        assert qrcp(a, tol=1e-10).rank == 5

    @pytest.mark.parametrize("shape", [(12, 8), (8, 12), (10, 10)])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_reconstruction_and_orthonormality(self, shape, complex_):
        rng = make_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        if complex_:
            a = a + 1j * rng.standard_normal(shape)
        r = min(shape)
        fac = qrcp(a, rank=r)
        norm_a = np.linalg.norm(a)
        assert np.linalg.norm(a[:, fac.pivots[:r]] - fac.q @ fac.t[:, :r]) <= 1e-12 * norm_a
        assert np.abs(fac.q.conj().T @ fac.q - np.eye(r)).max() <= 1e-12
        assert sorted(fac.pivots) == list(range(shape[1]))

    def test_diagonal_monotone(self):
        for seed in range(5):
            a = make_rng(seed).standard_normal((15, 12))
            fac = qrcp(a, rank=12)
            d = np.abs(np.diag(fac.t))
            assert (d[1:] <= d[:-1] * (1.0 + 1e-12)).all()

    def test_tolerance_matches_svd_rank_on_graded_spectra(self):
        for seed in range(5):
            rng = make_rng(100 + seed)
            q1, _ = np.linalg.qr(rng.standard_normal((24, 24)))
            q2, _ = np.linalg.qr(rng.standard_normal((24, 24)))
            sigma = 10.0 ** -np.arange(24.0)
            a = (q1 * sigma) @ q2
            # QRCP diagonals track the graded spectrum closely here
            got = qrcp(a, tol=1e-8).rank
            want = gram_epsilon_rank(a, 1e-8)
            assert abs(got - want) <= 1

    def test_near_parallel_columns_trigger_norm_recompute(self):
        # running norms collapse by ~1e-8 after the first elimination, which
        # forces the exact-recomputation path of the downdating recurrence
        rng = make_rng(9)
        base = rng.standard_normal(30)
        a = np.column_stack(
            [base + 1e-8 * rng.standard_normal(30) for _ in range(6)]
        )
        fac = qrcp(a, rank=6)
        norm_a = np.linalg.norm(a)
        assert np.linalg.norm(a[:, fac.pivots] - fac.q @ fac.t) <= 1e-12 * norm_a
        d = np.abs(np.diag(fac.t))
        assert (d[1:] <= d[:-1] * (1.0 + 1e-12)).all()

    def test_empty_matrix(self):
        fac = qrcp(np.zeros((0, 4)), tol=1e-8)
        assert fac.rank == 0
        assert fac.t.shape == (0, 4)
        fac = qrcp(np.zeros((4, 0)), rank=0)
        assert fac.rank == 0

    def test_zero_matrix_tolerance_rank_zero(self):
        assert qrcp(np.zeros((5, 5)), tol=1e-8).rank == 0

    def test_bad_arguments(self):
        a = np.eye(3)
        with pytest.raises(ValueError):
            qrcp(a)
        with pytest.raises(ValueError):
            qrcp(a, rank=2, tol=1e-8)
        with pytest.raises(ValueError):
            qrcp(a, rank=4)
        with pytest.raises(ValueError):
            qrcp(np.array([[np.nan, 1.0], [0.0, 1.0]]), rank=1)


class TestTruncatedSVD:
    def test_outer_product(self):
        rng = make_rng(1)
        u = rng.standard_normal(9)
        v = rng.standard_normal(7)
        res = truncated_svd(np.outer(u, v), 1e-8)
        assert res.rank == 1
        assert abs(res.sigma[0] - np.linalg.norm(u) * np.linalg.norm(v)) <= 1e-12 * res.sigma[0]

    def test_diag_epsilon_rank(self):
        res = truncated_svd(np.diag([1.0, 1e-3, 1e-9]), 1e-6)
        assert res.rank == 2

    def test_arithmetic_grid_is_rank_two(self):
        a = np.add.outer(np.arange(12.0), np.arange(12.0))
        assert gram_epsilon_rank(a, 1e-6) == 2
        assert truncated_svd(a, 1e-10).rank == 2

    def test_zero_matrix(self):
        res = truncated_svd(np.zeros((4, 6)), 1e-8)
        assert res.rank == 0
        assert res.u.shape == (4, 0) and res.vt.shape == (0, 6)

    def test_epsilon_rank_matches_gram_oracle(self):
        for seed in range(20):
            rng = make_rng(200 + seed)
            m = int(rng.integers(5, 64))
            n = int(rng.integers(5, 64))
            r = int(rng.integers(1, min(m, n) + 1))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            a += 1e-9 * rng.standard_normal((m, n))
            for tol in (1e-2, 1e-6):
                assert truncated_svd(a, tol).rank == gram_epsilon_rank(a, tol)

    def test_reconstruction_and_orthonormality(self):
        rng = make_rng(77)
        a = rng.standard_normal((30, 20))
        tol = 1e-3
        res = truncated_svd(a, tol)
        r = res.rank
        assert np.abs(res.u.conj().T @ res.u - np.eye(r)).max() <= 1e-12
        assert np.abs(res.vt @ res.vt.conj().T - np.eye(r)).max() <= 1e-12
        assert (np.diff(res.sigma) <= 1e-14).all()
        bound = tol * np.linalg.norm(a) * np.sqrt(min(a.shape))
        assert np.linalg.norm(a - res.matrix()) <= bound

    def test_strict_inequality_rule(self):
        # sigma exactly at tol * sigma_1 is kept (rule is strictly below)
        assert epsilon_rank(np.array([1.0, 0.5, 0.5 - 1e-12]), 0.5) == 2


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_upper(np.eye(4)), np.eye(4))

    def test_two_by_two_by_hand(self):
        t = cholesky_upper(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(t, [[2.0, 1.0], [0.0, 1.0]])

    def test_gram_reconstruction(self):
        g = make_rng(5).standard_normal((8, 3))
        a = g.T @ g
        t = cholesky_upper(a)
        assert rel_fro(t.conj().T @ t, a) <= 1e-12
        assert np.allclose(np.tril(t, -1), 0.0)

    def test_complex_hermitian(self):
        rng = make_rng(6)
        g = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        a = g.conj().T @ g
        t = cholesky_upper(a)
        assert rel_fro(t.conj().T @ t, a) <= 1e-12

    def test_not_positive_definite(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_not_hermitian(self):
        with pytest.raises(ValueError):
            cholesky_upper(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestLrNorm:
    def test_unit_cross(self):
        u = np.zeros((6, 1))
        u[0, 0] = 1.0
        v = np.zeros((1, 9))
        v[0, 0] = 1.0
        assert lr_norm(u, v) == pytest.approx(1.0, abs=1e-15)

    def test_unitary_invariance(self):
        rng = make_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        w, _ = np.linalg.qr(rng.standard_normal((15, 4)))
        sigma = np.array([3.0, 2.0, 1.0, 0.5])
        v = sigma[:, None] * w.T
        assert lr_norm(q, v) == pytest.approx(np.linalg.norm(sigma), rel=1e-13)

    def test_against_dense_product(self):
        u, v = random_factors(9, 30, 25, 4)
        dense = np.linalg.norm(u @ v)
        assert abs(lr_norm(u, v) - dense) <= 1e-12 * dense

    def test_rank_deficient_fallback(self):
        u, v = random_factors(10, 30, 25, 4)
        ud = np.hstack([u, u[:, :2]])
        vd = np.vstack([v, v[:2, :]])
        dense = np.linalg.norm(ud @ vd)
        assert abs(lr_norm(ud, vd) - dense) <= 1e-12 * dense

    def test_empty_factors(self):
        assert lr_norm(np.zeros((5, 0)), np.zeros((0, 7))) == 0.0

    def test_complex(self):
        u, v = random_factors(11, 18, 22, 3, complex_=True)
        dense = np.linalg.norm(u @ v)
        assert abs(lr_norm(u, v) - dense) <= 1e-12 * dense


class TestLrNormUpdate:
    def test_orthogonal_column_spaces(self):
        u = np.eye(10)[:, :3]
        ubar = np.eye(10)[:, 3:5]
        v = make_rng(12).standard_normal((3, 8))
        vbar = make_rng(13).standard_normal((2, 8))
        mu = lr_norm(u, v)
        nu = lr_norm(ubar, vbar)
        got = lr_norm_update(u, v, mu, ubar, vbar, nu)
        assert got == pytest.approx(np.hypot(mu, nu), rel=1e-14)

    def test_duplicated_update(self):
        u, v = random_factors(14, 20, 20, 3)
        mu = lr_norm(u, v)
        got = lr_norm_update(u, v, mu, u, v, mu)
        assert got == pytest.approx(2.0 * mu, rel=1e-12)

    def test_against_dense_concatenation(self):
        for seed, complex_ in [(s, c) for s in range(10) for c in (False, True)]:
            u, v = random_factors(300 + seed, 20, 20, 3, complex_)
            ubar, vbar = random_factors(400 + seed, 20, 20, 2, complex_)
            mu = lr_norm(u, v)
            nu = lr_norm(ubar, vbar)
            dense = np.linalg.norm(np.hstack([u, ubar]) @ np.vstack([v, vbar]))
            got = lr_norm_update(u, v, mu, ubar, vbar, nu)
            assert abs(got - dense) <= 1e-12 * dense

    def test_cancellation_clamps_to_zero(self):
        u, v = random_factors(15, 16, 16, 2)
        mu = lr_norm(u, v)
        got = lr_norm_update(u, v, mu, -u, v, mu)
        assert got >= 0.0 and got <= 1e-5 * mu
        assert np.isfinite(got)

    def test_empty_existing_factors(self):
        ubar, vbar = random_factors(16, 12, 12, 2)
        nu = lr_norm(ubar, vbar)
        got = lr_norm_update(np.zeros((12, 0)), np.zeros((0, 12)), 0.0, ubar, vbar, nu)
        assert got == pytest.approx(nu, rel=1e-14)


class TestFactorBuffer:
    def test_appends_across_growth_boundaries(self):
        m, n = 40, 30
        u, v = random_factors(17, m, n, 30, complex_=True)
        buf = FactorBuffer(m, n, np.complex128)
        capacities = []
        # widths 1, then a block that jumps past the current capacity
        for lo, hi in [(0, 1), (1, 2), (2, 3), (3, 20), (20, 21), (21, 30)]:
            buf.append(u[:, lo:hi], v[lo:hi])
            capacities.append(buf.capacity)
            assert buf.rank == hi
            assert np.array_equal(buf.u, u[:, :hi])
            assert np.array_equal(buf.v, v[:hi])
            assert buf.rank <= buf.capacity <= min(m, n)
        assert len(set(capacities)) >= 3
        assert capacities[-1] == 30

    def test_capacity_never_exceeds_min_dimension(self):
        buf = FactorBuffer(9, 500, np.float64)
        for k in range(9):
            buf.append(np.full((9, 1), k), np.full((1, 500), k))
            assert buf.capacity <= 9
        assert np.array_equal(buf.u[0], np.arange(9.0))
        with pytest.raises(ValueError):
            buf.append(np.ones((9, 1)), np.ones((1, 500)))

    def test_views_are_contiguous(self):
        buf = FactorBuffer(16, 12, np.float64)
        u, v = random_factors(18, 16, 12, 5)
        buf.append(u, v)
        assert buf.u.flags.f_contiguous and buf.v.flags.c_contiguous


class TestLrRecompress:
    def test_duplicated_column(self):
        rng = make_rng(17)
        u1 = rng.standard_normal(10)
        v1 = rng.standard_normal(12)
        u = np.column_stack([u1, u1])
        v = np.vstack([v1, v1])
        res = lr_recompress(u, v, 1e-10)
        assert res.rank == 1
        want = 2.0 * np.linalg.norm(u1) * np.linalg.norm(v1)
        assert res.sigma[0] == pytest.approx(want, rel=1e-12)

    def test_svd_form_passthrough(self):
        rng = make_rng(18)
        q, _ = np.linalg.qr(rng.standard_normal((16, 3)))
        w, _ = np.linalg.qr(rng.standard_normal((14, 3)))
        sigma = np.array([5.0, 2.0, 1.0])
        res = lr_recompress(q, sigma[:, None] * w.T, 1e-12)
        assert res.rank == 3
        assert np.allclose(res.sigma, sigma)
        # same product up to sign conventions
        assert rel_fro(res.matrix(), (q * sigma) @ w.T) <= 1e-12

    def test_overestimated_rank_collapses(self):
        # rank-8 product carried by 12 columns, as a blocked sweep would
        # overestimate it
        u, v = random_factors(19, 64, 64, 8)
        u_over = np.hstack([u, u[:, :4]])
        v_over = np.vstack([np.zeros((8, 64)), v[:4, :]])
        v_over[:8, :] += v
        assert gram_epsilon_rank(u_over @ v_over, 1e-6) == 8
        res = lr_recompress(u_over, v_over, 1e-8)
        assert res.rank == 8
        assert rel_fro(res.matrix(), u_over @ v_over) <= 1e-10

    def test_rank_zero_input(self):
        res = lr_recompress(np.zeros((5, 0)), np.zeros((0, 6)), 1e-8)
        assert res.rank == 0
        assert res.shape == (5, 6)

    def test_never_increases_rank_or_error(self):
        for seed in range(8):
            rng = make_rng(500 + seed)
            r = int(rng.integers(1, 10))
            u, v = random_factors(600 + seed, 24, 30, r)
            tol = 1e-8
            res = lr_recompress(u, v, tol)
            product = u @ v
            assert res.rank <= r
            bound = tol * np.linalg.norm(product) * np.sqrt(max(r, 1))
            assert np.linalg.norm(res.matrix() - product) <= bound
