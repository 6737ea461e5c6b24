import gc
import tracemalloc

import numpy as np
import pytest

from helpers import gram_epsilon_rank, householder_qrcp, random_factors, rel_fro, traced_peak
import lrcompress.linalg as linalg_mod
from lrcompress.linalg import (
    TIE_RTOL,
    FactorBuffer,
    LowRankFactors,
    _householder_qr,
    _lr_norms,
    _qrcp_stack,
    argmax_tied_sq,
    checked_matrix,
    epsilon_rank,
    lr_norm,
    lr_norm_prefixes,
    lr_norm_update,
    lr_recompress,
    pow2_scale,
    qrcp,
    truncated_svd,
    vector_norm,
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


STACK_KINDS = ["gaussian", "graded", "near_parallel", "duplicated", "zero_columns", "zero"]


def _stack_slice(kind, shape, complex_, seed):
    if kind == "zero":
        return np.zeros(shape, dtype=complex if complex_ else float)
    return _qrcp_case(kind, shape, complex_, seed)


def _counting(monkeypatch, name):
    # counts the calls made to a linalg helper
    calls = []
    real = getattr(linalg_mod, name)

    def wrapped(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(linalg_mod, name, wrapped)
    return calls


class TestQRCPStack:
    """The stacked kernel against the 2-d qrcp, slice by slice: pivots and
    rank exact, q, t and the other coefficients within 1e-13."""

    def check_slice(self, stack_out, b, ref, rows=None, cols=None):
        qt, coeffs, t, piv, rank = stack_out
        k = ref.rank
        rows = np.arange(ref.q.shape[0]) if rows is None else rows
        cols = np.arange(ref.rows.shape[1]) if cols is None else cols
        assert rank[b] == k
        assert list(piv[b, :k]) == list(cols[ref.pivots[:k]])
        q = qt[b, :k].T
        np.testing.assert_allclose(q[rows], ref.q, rtol=0.0, atol=1e-13)
        # rows outside the slice's own are padding and stay zero
        assert not np.delete(q, rows, axis=0).any()
        np.testing.assert_allclose(t[b, :k, :k], ref.t[:, :k], rtol=0.0, atol=1e-13)
        rest = ref.pivots[k:]
        np.testing.assert_allclose(coeffs[b, :k][:, cols[rest]], ref.rows[:, rest],
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("mode", ["rank", "tol"])
    def test_matches_qrcp_slice_by_slice(self, complex_, mode, monkeypatch):
        slices = [_stack_slice(kind, (8, 40), complex_, seed)
                  for seed, kind in enumerate(STACK_KINDS)]
        a = np.stack(slices)
        stale = _counting(monkeypatch, "_column_norms_sq")
        outside = _counting(monkeypatch, "_unit_outside")
        if mode == "rank":
            cap = np.array([8, 5, 8, 8, 3, 6])
            out = _qrcp_stack(a, cap)
            # the duplicated slice runs past its numerical rank: a column
            # in the span takes the substitute unit vector
            assert outside
        else:
            cap = np.full(len(slices), 8)
            out = _qrcp_stack(a, cap, tol=1e-10)
        # beyond the first call and those of the unit vectors, stale
        # running norms were refreshed
        assert len(stale) > 1 + len(outside)
        if mode == "rank":
            refs = [qrcp(x, rank=int(c)) for x, c in zip(slices, cap)]
        else:
            refs = [qrcp(x, tol=1e-10) for x in slices]
            # tolerance ranks differ from slice to slice
            assert len({ref.rank for ref in refs}) > 2
        for b, ref in enumerate(refs):
            self.check_slice(out, b, ref)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_masked_columns_and_padded_rows(self, complex_):
        # slice b is its leading lengths[b] rows and eligible columns only
        rng = make_rng(40)
        lengths = np.array([8, 5, 6, 8])
        slices = [_stack_slice(kind, (8, 30), complex_, 10 + b)
                  for b, kind in enumerate(["gaussian", "duplicated", "zero_columns", "zero"])]
        # exact duplicates of three coordinate vectors: past rank 3 every
        # residual is exactly zero, so the lowest free column is pivoted on
        # and takes a unit vector inside the slice's five rows
        slices[1] = 3.0 * np.eye(8)[:, rng.integers(0, 3, 30)].astype(slices[1].dtype)
        eligible = rng.random((4, 30)) < 0.7
        eligible[2, :] = True
        a = np.stack(slices)
        for b, mb in enumerate(lengths):
            a[b, mb:] = 0.0
        for mode in ("rank", "tol"):
            if mode == "rank":
                cap = np.array([6, 5, 6, 4])
                out = _qrcp_stack(a, cap, eligible=eligible, lengths=lengths)
            else:
                cap = lengths
                out = _qrcp_stack(a, cap, tol=1e-10, eligible=eligible, lengths=lengths)
            for b, mb in enumerate(lengths):
                cols = np.flatnonzero(eligible[b])
                sub = a[b, :mb][:, cols]
                ref = qrcp(sub, rank=int(cap[b])) if mode == "rank" else qrcp(sub, tol=1e-10)
                self.check_slice(out, b, ref, rows=np.arange(mb), cols=cols)


class TestQRCPScaling:
    """Inputs whose squares under- or overflow are factored scaled by a
    power of two: pivots and q are the unscaled run's bit for bit, and rows
    and t exactly scaled. The suite's RuntimeWarning filter makes any
    warning on the way an error."""

    @pytest.mark.parametrize("kind", QRCP_KINDS)
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_qrcp(self, kind, complex_, exponent):
        a = _qrcp_case(kind, (12, 30), complex_, 9)
        s = 2.0**exponent
        for rule in ({"tol": 1e-10}, {"rank": 10}):
            want = qrcp(a, **rule)
            got = qrcp(a * s, **rule)
            assert got.rank == want.rank
            assert np.array_equal(got.pivots, want.pivots)
            assert np.array_equal(got.q, want.q)
            assert np.array_equal(got.rows, want.rows * s)
            assert np.array_equal(got.t, want.t * s)

    def test_complex_squares_that_overflow_only_when_added(self):
        # every entry has |re| = |im| = 8e153 / sqrt(2): each part's squared
        # column norms are finite, their sums are not
        rng = make_rng(10)
        phases = np.array([1.0, -1.0, 1j, -1j])[rng.integers(0, 4, (4, 6))]
        a = 8e153 * (1.0 + 1.0j) / np.sqrt(2.0) * phases
        s = 2.0**600
        for rule in ({"tol": 1e-10}, {"rank": 4}):
            want = qrcp(a / s, **rule)
            got = qrcp(a, **rule)
            assert got.rank == want.rank
            assert np.array_equal(got.pivots, want.pivots)
            assert np.array_equal(got.q, want.q)
            assert np.array_equal(got.t, want.t * s)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_mixed_stack(self, complex_):
        # slices 1 and 2 leave the range; the others keep their bits
        kinds = ["gaussian", "graded", "duplicated", "near_parallel", "zero"]
        a = np.stack([_stack_slice(kind, (8, 40), complex_, seed)
                      for seed, kind in enumerate(kinds)])
        scales = np.array([1.0, 2.0**600, 2.0**-600, 1.0, 1.0])
        cap = np.array([8, 8, 6, 8, 8])
        for tol in (None, 1e-10):
            want_qt, want_rows, want_t, want_piv, want_rank = _qrcp_stack(a, cap, tol=tol)
            qt, rows, t, piv, rank = _qrcp_stack(a * scales[:, None, None], cap, tol=tol)
            assert np.array_equal(rank, want_rank)
            for b, s in enumerate(scales):
                k = rank[b]
                assert np.array_equal(piv[b, :k], want_piv[b, :k])
                assert np.array_equal(qt[b, :k], want_qt[b, :k])
                assert np.array_equal(rows[b, :k], want_rows[b, :k] * s)
                assert np.array_equal(t[b, :k, :k], want_t[b, :k, :k] * s)


class TestArgmaxTiedSq:
    def test_rows_match_the_flat_rule(self):
        near = 1.0 - 0.5 * TIE_RTOL  # tied with 1.0 within TIE_RTOL
        apart = 1.0 - 4.0 * TIE_RTOL  # not tied
        x = np.array([
            [0.5, 2.0, 2.0, 1.0],  # exact tie
            [near, 1.0, 0.5, 0.0],  # a near tie below the maximum wins
            [apart, 1.0, near, 0.0],  # the lower index falls outside the window
            [-np.inf, 0.0, -np.inf, 0.0],  # masked entries
            [-np.inf, -np.inf, -np.inf, -np.inf],  # nothing left: index 0
            [0.0, 0.0, 0.0, 0.0],
        ])
        got = argmax_tied_sq(x, axis=1)
        assert list(got) == [argmax_tied_sq(row) for row in x] == [1, 0, 1, 1, 0, 0]
        # along the other axis: each column's own rule
        assert list(argmax_tied_sq(x.T, axis=0)) == list(got)

    def test_flat_index_is_an_int(self):
        got = argmax_tied_sq(np.array([[0.0, 3.0], [3.0, 1.0]]))
        assert type(got) is int and got == 1


class TestInputChecks:
    def test_checked_matrix_rejects_non_2d(self):
        for a in (np.ones(3), np.ones((2, 2, 2)), 1.0):
            with pytest.raises(ValueError, match="must be 2-d"):
                checked_matrix(a, "a")

    def test_inner_dimensions_must_agree(self):
        u, v = np.ones((4, 2)), np.ones((3, 5))
        with pytest.raises(ValueError, match="inner dimensions"):
            lr_norm(u, v)
        with pytest.raises(ValueError, match="inner dimensions"):
            lr_recompress(u, v, 1e-8)

    def test_low_rank_factors_shape(self):
        u, v = random_factors(41, 7, 5, 3)
        f = LowRankFactors(u, v)
        assert f.shape == (7, 5) and f.rank == 3
        assert np.array_equal(f.matrix(), u @ v)

    def test_low_rank_factors_refuse_a_sigma(self):
        # an SVD is a TruncatedSVD: a sigma here was read by matrix() and
        # dropped by the recompression kernel, which looks only at the type
        u, v = random_factors(42, 7, 5, 3)
        with pytest.raises(ValueError, match="takes no sigma"):
            LowRankFactors(u, v, sigma=np.array([5.0, 2.0, 1.0]))


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


_TOL_ENTRIES = {
    "epsilon_rank": lambda tol: epsilon_rank(np.ones(3), tol),
    "truncated_svd": lambda tol: truncated_svd(np.eye(4), tol),
    "lr_recompress": lambda tol: lr_recompress(np.eye(4), np.eye(4), tol),
    "qrcp": lambda tol: qrcp(np.eye(4), tol=tol),
}


class TestToleranceRange:
    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1.0, np.nan])
    @pytest.mark.parametrize("entry", sorted(_TOL_ENTRIES))
    def test_rejected_before_any_factorization(self, entry, tol, monkeypatch):
        # a tol of 1 or more used to give rank 0, and a negative or NaN one
        # every column, without a word
        def factorization(*args, **kwargs):
            raise AssertionError(f"{entry} factored with tol = {tol}")

        monkeypatch.setattr(np.linalg, "svd", factorization)
        monkeypatch.setattr(linalg_mod, "_householder_qr", factorization)
        monkeypatch.setattr(linalg_mod, "_qrcp_stack", factorization)
        with pytest.raises(ValueError, match="tol must be in"):
            _TOL_ENTRIES[entry](tol)

    @pytest.mark.parametrize("entry", sorted(_TOL_ENTRIES))
    def test_accepted_inside(self, entry):
        _TOL_ENTRIES[entry](0.5)


def _assert_empty_svd(res, m, n, dtype):
    # the factors an empty input has always given: (m, 0) and (0, n) in the
    # working dtype, C-contiguous, and an empty float64 sigma
    assert (res.u.shape, res.sigma.shape, res.vt.shape) == ((m, 0), (0,), (0, n))
    assert res.u.dtype == dtype and res.vt.dtype == dtype
    assert res.sigma.dtype == np.float64
    assert res.u.flags.c_contiguous and res.vt.flags.c_contiguous


class TestEmptyShapes:
    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
    @pytest.mark.parametrize("dtype, want", [
        (np.float64, np.float64), (np.complex128, np.complex128), (np.int64, np.float64),
    ])
    def test_truncated_svd(self, shape, dtype, want):
        _assert_empty_svd(truncated_svd(np.ones(shape, dtype), 1e-8), *shape, want)

    @pytest.mark.parametrize("m, r, n", [(5, 0, 6), (0, 3, 6), (5, 3, 0), (0, 0, 0)])
    @pytest.mark.parametrize("u_dtype, v_dtype", [
        (np.float64, np.float64), (np.complex128, np.complex128),
        (np.float64, np.complex128), (np.complex128, np.float64),
    ])
    def test_lr_recompress(self, m, r, n, u_dtype, v_dtype):
        res = lr_recompress(np.ones((m, r), u_dtype), np.ones((r, n), v_dtype), 1e-8)
        _assert_empty_svd(res, m, n, np.result_type(u_dtype, v_dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rank_zero_norm_updates(self, dtype):
        # a rank-0 side contributes an exactly zero cross term
        u, v = random_factors(16, 12, 10, 2, complex_=dtype == np.complex128)
        mu = lr_norm(u, v)
        none_u, none_v = np.zeros((12, 0), dtype), np.zeros((0, 10), dtype)
        assert lr_norm_update(u, v, mu, none_u, none_v, 0.0) == mu
        assert lr_norm_update(none_u, none_v, 0.0, u, v, mu) == mu
        assert lr_norm_update(none_u, none_v, 0.0, none_u, none_v, 0.0) == 0.0


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

    @pytest.mark.parametrize("x, y", [
        (0.3, 2.0), (-1.0, 4.0), (0.0, 5.0), (1.0 + 1.0j, 2.0 - 1e-6j), (1j, -4.0 + 0j), (2.0 + 0j, 0.3),
    ])
    def test_one_by_one_is_abs_product(self, x, y):
        # R of a 1x1 u is u up to a unit phase, which the norm drops
        assert lr_norm(np.array([[x]]), np.array([[y]])) == pytest.approx(abs(x * y), rel=1e-15)

    @pytest.mark.parametrize("x, y, want", [
        (1e-300, 1.0, 1e-300), (7e250, 1e-3, 7e247), (5e-324, 1.0, 5e-324),
    ])
    def test_no_underflow_or_overflow(self, x, y, want):
        # the squares of these entries underflow to 0 or overflow to inf
        assert lr_norm(np.array([[x]]), np.array([[y]])) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("s", [1e-300, 1e160])
    def test_scaled_product(self, s, complex_):
        u, v = random_factors(21, 30, 25, 4, complex_)
        assert lr_norm(s * u, v) == pytest.approx(s * lr_norm(u, v), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("u_shape, v_shape", [
        ((0, 3), (3, 4)), ((5, 0), (0, 4)), ((5, 3), (3, 0)), ((0, 0), (0, 0)),
    ])
    def test_empty_factor_shapes(self, u_shape, v_shape):
        # no early return: the QR of an empty stack and its product are empty
        for dtype in (np.float64, np.complex128):
            assert lr_norm(np.ones(u_shape, dtype), np.ones(v_shape, dtype)) == 0.0

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m, n, r", [(3, 20, 8), (8, 8, 8), (30, 2, 5), (1, 1, 4)])
    def test_u_wide_square_and_tall(self, m, n, r, complex_):
        # for m < r, R is m x r trapezoidal and ||R v|| still equals ||u v||
        u, v = random_factors(13, m, n, r, complex_)
        dense = np.linalg.norm(u @ v)
        assert abs(lr_norm(u, v) - dense) <= 1e-13 * dense

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-7])
    def test_cancellation_inside_the_product(self, delta, complex_):
        # u v = delta (x r2 + y r1) from factors of order one: the Gram
        # matrices of u and v are nearly singular, while the norm of R v
        # for u = Q R stays accurate to rounding
        m, n, d = 500, 400, 4
        for seed in range(20):
            rng = make_rng(seed)

            def draw(*shape):
                a = rng.standard_normal(shape)
                return a + 1j * rng.standard_normal(shape) if complex_ else a

            x, y, mix, r1, r2 = draw(m, d), draw(m, d), draw(d, d), draw(d, n), draw(d, n)
            u = np.hstack([x, x @ mix + delta * y])
            v = np.vstack([-mix @ r1 + delta * r2, r1])
            dense = np.linalg.norm(u @ v)
            assert abs(lr_norm(u, v) - dense) <= 1e-8 * dense

    @pytest.mark.parametrize("complex_", [False, True])
    def test_zero_padded_stack(self, complex_):
        # the layout lockstep_factors passes: u is the transposed view of a
        # (B, r, m) stack, and slice b is zero past its rank in both factors
        m, n, width = 40, 30, 8
        ranks = [0, 1, 3, 8]
        dtype = np.complex128 if complex_ else np.float64
        ut = np.zeros((len(ranks), width, m), dtype=dtype)
        v = np.zeros((len(ranks), width, n), dtype=dtype)
        for b, r in enumerate(ranks):
            if r:
                u_b, v_b = random_factors(20 + b, m, n, r, complex_)
                ut[b, :r] = u_b.T
                v[b, :r] = v_b
        got = _lr_norms(ut.swapaxes(1, 2), v)
        assert got[0] == 0.0
        for b, r in enumerate(ranks[1:], start=1):
            want = lr_norm(ut[b, :r].T, v[b, :r])
            assert abs(got[b] - want) <= 1e-14 * want


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


class TestLrNormPrefixes:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_each_prefix_against_lr_norm(self, complex_):
        # a settled prefix of rank 4, then blocks of widths 1, 3, 0, 2 and 1
        u, v = random_factors(18, 30, 25, 11, complex_)
        starts = [4, 5, 8, 8, 10]
        nu = [lr_norm(u[:, lo:hi], v[lo:hi]) for lo, hi in zip(starts, [*starts[1:], 11])]
        got = lr_norm_prefixes(u, v, lr_norm(u[:, :4], v[:4]), starts, nu)
        for hi, mu in zip([*starts[1:], 11], got):
            want = lr_norm(u[:, :hi], v[:hi])
            assert abs(mu - want) <= 1e-13 * want

    @pytest.mark.parametrize("complex_", [False, True])
    def test_blocks_across_chunks(self, complex_):
        # blocks of 7 from rank 3 straddle the SETTLE_CHUNK boundaries
        r = 3 + 7 * 20
        assert r > 2 * linalg_mod.SETTLE_CHUNK
        u, v = random_factors(20, 160, 150, r, complex_)
        starts = list(range(3, r, 7))
        ends = [*starts[1:], r]
        nu = [lr_norm(u[:, lo:hi], v[lo:hi]) for lo, hi in zip(starts, ends)]
        got = lr_norm_prefixes(u, v, lr_norm(u[:, :3], v[:3]), starts, nu)
        for hi, mu in zip(ends, got):
            want = lr_norm(u[:, :hi], v[:hi])
            assert abs(mu - want) <= 1e-12 * want

    def test_from_rank_zero(self):
        u, v = random_factors(19, 20, 20, 6)
        nu = [lr_norm(u[:, [j]], v[[j]]) for j in range(6)]
        got = lr_norm_prefixes(u, v, 0.0, list(range(6)), nu)
        assert got[0] == nu[0]
        for r, mu in enumerate(got, start=1):
            want = lr_norm(u[:, :r], v[:r])
            assert abs(mu - want) <= 1e-13 * want

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_scales_exactly(self, exponent, complex_):
        # the Gram products and squares of these factors leave the range
        u, v = random_factors(21, 20, 30, 7, complex_)
        starts, scale = [2, 3, 6], 2.0**exponent
        nu = [lr_norm(u[:, lo:hi], v[lo:hi]) for lo, hi in zip(starts, [3, 6, 7])]
        mu = lr_norm(u[:, :2], v[:2])
        want = lr_norm_prefixes(u, v, mu, starts, nu)
        got = lr_norm_prefixes(u, v * scale, mu * scale, starts, [x * scale for x in nu])
        assert got == [x * scale for x in want]


class TestScaledNorms:
    @pytest.mark.parametrize("amax, want", [
        (0.0, 1.0), (0.5, 1.0), (0.75, 1.0), (1.0, 0.5), (3.0, 0.25),
        (2.0**-600, 2.0**599), (2.0**600, 2.0**-601), (5e-324, 2.0**1022),
    ])
    def test_pow2_scale(self, amax, want):
        assert pow2_scale(amax) == want

    @pytest.mark.parametrize("complex_", [False, True])
    def test_vector_norm_in_range_is_numpy_norm(self, complex_):
        for seed in range(5):
            x = random_factors(30 + seed, 1, 200, 1, complex_)[1][0] * 10.0 ** (3 * seed - 6)
            assert vector_norm(x) == np.linalg.norm(x)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_vector_norm_out_of_range(self, exponent, complex_):
        # np.linalg.norm squares these entries to 0 or inf
        x = random_factors(35, 1, 50, 1, complex_)[1][0]
        assert vector_norm(x * 2.0**exponent) == np.linalg.norm(x) * 2.0**exponent

    def test_vector_norm_of_zero_and_empty(self):
        assert vector_norm(np.zeros(4)) == 0.0
        assert vector_norm(np.zeros(0)) == 0.0


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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_growth_holds_three_buffers(self, dtype):
        # u grows and the old u is freed before v grows: never the old and
        # the new buffers of both factors at once. Traced from before the
        # old buffers exist, so that freeing them counts.
        m, n = 1500, 1300
        u, v = random_factors(19, m, n, 9, complex_=dtype == np.complex128)
        tracemalloc.start()
        try:
            buf = FactorBuffer(m, n, dtype)
            buf.append(u[:, :8], v[:8])
            old = buf.capacity
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            buf.append(u[:, 8:], v[8:])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert buf.capacity > old
        assert np.array_equal(buf.u, u) and np.array_equal(buf.v, v)
        assert peak < buf.capacity * (m + n) * np.dtype(dtype).itemsize


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
    # shapes over several QR_BLOCK-column blocks
    if case == "blocks_33":
        return draw((100, 33))
    if case == "blocks_64":
        return draw((300, 64))
    if case == "blocks_144":
        return draw((512, 144))
    if case == "blocks_wide":
        return draw((40, 100))
    if case == "zero_column_40":
        # tau = 0 inside the second block
        a = draw((100, 50))
        a[:, 40] = 0.0
        return a
    return draw((8, 0))


class TestHouseholderQR:
    CASES = ["tall", "square", "zero_columns", "rank_deficient", "wide",
             "one_column", "one_row", "zero", "no_columns", "blocks_33", "blocks_64",
             "blocks_144", "blocks_wide", "zero_column_40"]

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_explicit_qr(self, qr_path, case, complex_):
        a = _qr_input(case, complex_)
        q, r = np.linalg.qr(a)
        # a copy: a one-column or one-row a is also column-major, which
        # _householder_qr factors in place, and a is read again below
        got_r, q_times = _householder_qr(a.copy())
        assert got_r.shape == r.shape
        eye = np.eye(r.shape[0])
        got_q = q_times(eye)
        if qr_path == "numpy":
            # R straight from the same LAPACK factorization, and its q
            assert np.array_equal(got_r, r)
            np.testing.assert_allclose(got_q, q, rtol=0.0, atol=1e-13)
        else:
            # ?geqrt's R is numpy's (?geqrf's) to rounding: both take
            # ?larfg's reflectors, signs included. Past a dependent column
            # (column 3 of rank_deficient) a reflector follows rounding
            # noise, so only the rows before it are unique.
            assert np.array_equal(got_r, np.triu(got_r))
            unique = 3 if case == "rank_deficient" else r.shape[0]
            assert np.linalg.norm(got_r[:unique] - r[:unique]) <= 1e-13 * np.linalg.norm(a)
        np.testing.assert_allclose(got_q.conj().T @ got_q, eye, rtol=0.0, atol=1e-13)
        rng = make_rng(82)
        for cols in (0, 1, 5):
            x = rng.standard_normal((r.shape[0], cols))
            if complex_:
                x = x + 1j * rng.standard_normal(x.shape)
            got = q_times(x)
            assert got.shape == (a.shape[0], cols)
            np.testing.assert_allclose(got, (q if qr_path == "numpy" else got_q) @ x,
                                       rtol=0.0, atol=1e-13)
        if a.size:
            assert rel_fro(q_times(got_r), a) <= 1e-13

    def test_square_input_ends_in_an_identity_reflector(self, qr_path):
        # the last reflector of a square input has tau = 0: it must drop out
        a = _qr_input("square", False)
        _, tau = np.linalg.qr(a, mode="raw")
        assert tau[-1] == 0.0
        _, q_times = _householder_qr(a)
        q = q_times(np.eye(7))
        np.testing.assert_allclose(q.T @ q, np.eye(7), rtol=0.0, atol=1e-14)

    def test_leaves_input_alone(self, qr_path):
        a = _qr_input("tall", True)
        before = a.copy()
        _householder_qr(a)[1](np.ones((9, 2)))
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_column_major_input_factored_in_place(self, qr_path, complex_):
        # a writeable column-major input gives the bits a read-only one
        # gives, which is copied and left alone; ?geqrt leaves r on and
        # above the diagonal of the writeable one itself
        a = np.asfortranarray(_qr_input("blocks_64", complex_))
        read_only = a.copy(order="F")
        read_only.flags.writeable = False
        col_major = a.copy(order="F")
        want_r, want_q = _householder_qr(read_only)
        got_r, got_q = _householder_qr(col_major)
        x = make_rng(84).standard_normal((64, 3))
        assert np.array_equal(got_r, want_r)
        assert np.array_equal(got_q(x), want_q(x))
        assert np.array_equal(read_only, a)
        if qr_path == "numpy":
            # np.linalg.qr factors a copy
            assert np.array_equal(col_major, a)
        else:
            assert np.array_equal(np.triu(col_major[:64]), got_r)

    def test_real_q_times_complex(self, qr_path):
        a = _qr_input("blocks_64", False)
        x = make_rng(83).standard_normal((64, 6)) * (1.0 - 2.0j)
        _, q_times = _householder_qr(a)
        got = q_times(x)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got, q_times(np.eye(64)) @ x, rtol=0.0, atol=1e-13)

    def test_reflectors_freed_without_the_collector(self, qr_path):
        # a reference cycle through q_times would hold the reflectors, the
        # size of the input, until the next garbage collection
        a = _qr_input("blocks_144", False)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            r, q_times = _householder_qr(a)
            q_times(np.ones((144, 2)))
            del r, q_times
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < a.nbytes / 10


@pytest.mark.usefixtures("qr_path")
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

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("u_order", ["C", "F"])
    @pytest.mark.parametrize("v_layout", ["C", "transposed"])
    def test_never_writes_its_inputs(self, complex_, u_order, v_layout):
        # the kernel factors what it may write in place; the caller's
        # arrays must come back bit for bit
        u, v = random_factors(38, 70, 60, 12, complex_=complex_)
        u = np.asarray(u, order=u_order)
        if v_layout == "transposed":
            v = v.T.copy().T
        u_before, v_before = u.copy(), v.copy()
        res = lr_recompress(u, v, 1e-12)
        assert res.rank == 12
        assert u.tobytes() == u_before.tobytes()
        assert v.tobytes() == v_before.tobytes()

    @pytest.mark.parametrize("complex_", [False, True])
    def test_working_memory(self, complex_):
        # two reflector sets plus the outputs, each about one factor's size:
        # the peak above the inputs stays within 3.5 average factors
        m, n, r = 3000, 2800, 64
        u, v = random_factors(37, m, n, r, complex_=complex_)
        lr_recompress(u, v, 1e-12)  # warm call
        res, peak = traced_peak(lambda: lr_recompress(u, v, 1e-12))
        assert res.rank == r
        assert peak <= 3.5 * (m + n) * r * u.itemsize / 2
