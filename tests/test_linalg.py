import numpy as np
import pytest

from helpers import gram_epsilon_rank, householder_qrcp, random_factors, rel_fro
from lrcompress.linalg import (
    FactorBuffer,
    _householder_qr,
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

    @pytest.mark.parametrize("complex_", [False, True])
    def test_t_is_gathered_on_first_access(self, complex_):
        u, v = random_factors(23, 9, 12, 9, complex_=complex_)
        a = u @ v
        fac = qrcp(a, rank=5)
        assert "t" not in vars(fac)
        t = fac.t
        assert fac.t is t
        assert t.shape == (5, 12)
        assert np.array_equal(np.tril(t, -1), np.zeros_like(t))
        # rows keeps q^H a in the original column order
        np.testing.assert_allclose(fac.rows, fac.q.conj().T @ a, rtol=0.0,
                                   atol=1e-12 * np.linalg.norm(a))
        assert np.linalg.norm(a[:, fac.pivots[:5]] - fac.q @ t[:, :5]) <= (
            1e-12 * np.linalg.norm(a))

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


def _qrcp_case(kind, shape, complex_, seed):
    rng = make_rng(seed)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    m, n = shape
    if kind == "gaussian":
        return draw(shape)
    if kind == "graded":
        k = min(m, n)
        q1, _ = np.linalg.qr(draw((m, k)))
        q2, _ = np.linalg.qr(draw((n, k)))
        return (q1 * 10.0 ** -np.linspace(0.0, 9.0, k)) @ q2.conj().T
    if kind == "near_parallel":
        # running norms collapse by ~1e-8 after the first step: stale norms
        return draw((m, 1)) + 1e-8 * draw(shape)
    if kind == "duplicated":
        base = draw((m, max(1, min(m, n) // 2)))
        return base[:, rng.integers(0, base.shape[1], n)]
    if kind == "zero_columns":
        a = draw(shape)
        a[:, rng.choice(n, n // 3, replace=False)] = 0.0
        return a
    raise ValueError(kind)


QRCP_KINDS = ["gaussian", "graded", "near_parallel", "duplicated", "zero_columns"]
QRCP_SHAPES = [(8, 500), (8, 8), (12, 30), (30, 12), (16, 16), (60, 5)]


class TestQRCPAgainstHouseholder:
    """qrcp against the Householder reference in helpers.py: same pivots,
    rank and |diag(t)| up to the numerical rank."""

    @pytest.mark.parametrize("kind", QRCP_KINDS)
    @pytest.mark.parametrize("shape", QRCP_SHAPES)
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pivots_rank_and_diagonal(self, kind, shape, complex_, seed):
        a = _qrcp_case(kind, shape, complex_, seed)
        ref = householder_qrcp(a, tol=1e-10)
        r = ref.rank
        scale = abs(ref.t[0, 0]) if r else 0.0
        for got, want in [
            (qrcp(a, tol=1e-10), ref),
            (qrcp(a, rank=r), householder_qrcp(a, rank=r)),
        ]:
            assert got.rank == want.rank == r
            assert list(got.pivots[:r]) == list(want.pivots[:r])
            np.testing.assert_allclose(np.abs(np.diag(got.t)), np.abs(np.diag(want.t)),
                                       rtol=1e-10, atol=1e-12 * scale)
            assert sorted(got.pivots) == list(range(shape[1]))
            assert list(got.pivots[r:]) == sorted(got.pivots[r:])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_exact_ties_go_to_the_lowest_index(self, complex_):
        a = _qrcp_case("duplicated", (8, 40), complex_, 3)
        fac = qrcp(a, tol=1e-10)
        assert fac.rank == 4
        for j in fac.selected():
            twins = np.flatnonzero((a == a[:, [j]]).all(axis=0))
            assert j == twins[0]

    @pytest.mark.parametrize("kind", QRCP_KINDS)
    @pytest.mark.parametrize("complex_", [False, True])
    def test_fixed_rank_returns_q_and_leaves_input_alone(self, kind, complex_):
        # the wide fixed-rank call select_pivot_blocks makes: Q always comes
        # back with rank columns in the input's dtype, and the input is unchanged
        a = _qrcp_case(kind, (8, 40), complex_, 4)
        keep = a.copy()
        fac = qrcp(a, rank=8)
        assert np.array_equal(a, keep)
        assert fac.q.shape == (8, 8) and fac.q.dtype == a.dtype
        assert np.abs(fac.q.conj().T @ fac.q - np.eye(8)).max() <= 1e-12
        err = np.linalg.norm(a[:, fac.pivots] - fac.q @ fac.t)
        assert err <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize(
        "a",
        [
            _qrcp_case("duplicated", (8, 20), False, 5),
            _qrcp_case("duplicated", (20, 8), True, 6),
            _qrcp_case("near_parallel", (8, 30), True, 7),
            _qrcp_case("zero_columns", (6, 9), False, 8),
            # residuals that vanish exactly after the first steps
            3.0 * np.eye(6)[:, [0, 0, 1, 1, 2, 2]],
            np.ones((5, 7)),
            np.outer(np.arange(1.0, 6.0), np.arange(1.0, 9.0)),
            np.zeros((4, 6), dtype=complex),
        ],
    )
    def test_q_orthonormal_at_every_rank(self, a):
        m, n = a.shape
        norm_a = np.linalg.norm(a)
        for r in range(min(m, n) + 1):
            fac = qrcp(a, rank=r)
            assert fac.q.shape == (m, r)
            assert np.abs(fac.q.conj().T @ fac.q - np.eye(r)).max(initial=0.0) <= 1e-12
            err = np.linalg.norm(a[:, fac.pivots[:r]] - fac.q @ fac.t[:, :r])
            assert err <= 1e-12 * norm_a


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


def _qr_input(case, complex_):
    rng = make_rng(81)

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    if case == "tall":
        return draw((40, 9))
    if case == "square":
        return draw((7, 7))
    if case == "zero_columns":
        a = draw((30, 6))
        a[:, [1, 4]] = 0.0
        return a
    if case == "rank_deficient":
        a = draw((25, 6))
        a[:, 3] = a[:, 0] - 2.0 * a[:, 2]
        return a
    if case == "wide":
        return draw((5, 11))
    if case == "one_column":
        return draw((12, 1))
    if case == "one_row":
        return draw((1, 4))
    if case == "zero":
        return np.zeros((6, 3), dtype=np.complex128 if complex_ else np.float64)
    return draw((8, 0))


class TestHouseholderQR:
    CASES = ["tall", "square", "zero_columns", "rank_deficient", "wide",
             "one_column", "one_row", "zero", "no_columns"]

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_explicit_qr(self, case, complex_):
        a = _qr_input(case, complex_)
        q, r = np.linalg.qr(a)
        got_r, q_times = _householder_qr(a)
        # R straight from the same LAPACK factorization
        assert got_r.shape == r.shape
        assert np.array_equal(got_r, r)
        rng = make_rng(82)
        for cols in (0, 1, 5):
            x = rng.standard_normal((r.shape[0], cols))
            if complex_:
                x = x + 1j * rng.standard_normal(x.shape)
            got = q_times(x)
            assert got.shape == (a.shape[0], cols)
            np.testing.assert_allclose(got, q @ x, rtol=0.0, atol=1e-13)
        # q itself, as q times the identity, and q r back to a
        eye = np.eye(r.shape[0])
        np.testing.assert_allclose(q_times(eye), q, rtol=0.0, atol=1e-13)
        if a.size:
            assert rel_fro(q_times(got_r), a) <= 1e-13

    def test_square_input_ends_in_an_identity_reflector(self):
        # the last reflector of a square input has tau = 0: it must drop out
        a = _qr_input("square", False)
        _, tau = np.linalg.qr(a, mode="raw")
        assert tau[-1] == 0.0
        _, q_times = _householder_qr(a)
        q = q_times(np.eye(7))
        np.testing.assert_allclose(q.T @ q, np.eye(7), rtol=0.0, atol=1e-14)

    def test_leaves_input_alone(self):
        a = _qr_input("tall", True)
        before = a.copy()
        _householder_qr(a)[1](np.ones((9, 2)))
        assert np.array_equal(a, before)


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

    @pytest.mark.parametrize("complex_", [False, True])
    def test_wide_factors(self, complex_):
        # inner dimension above both m and n: both Householder QRs are wide
        u, v = random_factors(31, 6, 9, 14, complex_=complex_)
        res = lr_recompress(u, v, 1e-12)
        assert res.rank == 6
        np.testing.assert_allclose(res.u.conj().T @ res.u, np.eye(6), atol=1e-13)
        np.testing.assert_allclose(res.vt @ res.vt.conj().T, np.eye(6), atol=1e-13)
        assert rel_fro(res.matrix(), u @ v) <= 1e-13
