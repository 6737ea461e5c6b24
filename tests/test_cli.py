import json

import numpy as np
import pytest

from helpers import rel_fro
from lrcompress import cli
from lrcompress.aca import ConvergenceHistory, IterationRecord
from lrcompress.cli import (
    JobConfig,
    UsageError,
    build_oracle,
    main,
    run_job,
    verify_against_dense,
    write_history,
)
from lrcompress.kernels import (
    Hankel2DKernel,
    PolynomialKernel,
    dense_oracle,
    offdiag_oracle,
    product_of_random_oracle,
    random_cloud,
    strip_cloud,
)
from lrcompress.linalg import truncated_svd
from lrcompress.seeding import make_rng


class TestVerifyAgainstDense:
    def test_exact_svd_is_exact(self):
        a = make_rng(1).standard_normal((20, 15))
        res = truncated_svd(a, 1e-15)
        assert verify_against_dense(dense_oracle(a), res) <= 1e-14

    def test_rank_zero_on_nonzero_matrix(self):
        a = make_rng(2).standard_normal((8, 8))
        res = truncated_svd(np.zeros((8, 8)), 0.5)
        assert verify_against_dense(dense_oracle(a), res) == pytest.approx(1.0)

    def test_matches_elementwise_accumulation(self):
        rng = make_rng(3)
        a = rng.standard_normal((25, 18))
        res = truncated_svd(a, 1e-1)
        got = verify_against_dense(dense_oracle(a), res)
        resid = a - res.matrix()
        acc = 0.0
        for i in range(25):
            for j in range(18):
                acc += resid[i, j] ** 2
        denom = 0.0
        for i in range(25):
            for j in range(18):
                denom += a[i, j] ** 2
        want = np.sqrt(acc) / np.sqrt(denom)
        assert abs(got - want) <= 1e-12 * want

    def test_cap_refusal(self):
        o = product_of_random_oracle(100, 2, seed=4)
        res = truncated_svd(np.zeros((100, 100)), 0.5)
        with pytest.raises(UsageError):
            verify_against_dense(o, res, cap=64)

    def test_blocked_sweep_result_verifies(self):
        from lrcompress.baca import BacaConfig, baca_compress

        oracle = product_of_random_oracle(64, 8, seed=5)
        svd, _ = baca_compress(oracle, BacaConfig(block_size=4, tol=1e-8, seed=1))
        assert verify_against_dense(oracle, svd) <= 1e-6


class TestWriteHistory:
    def test_empty_history(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(ConvergenceHistory(), path)
        assert path.read_text() == "k,rank,nu,mu,residual_ratio\n"

    def test_three_iterations(self, tmp_path):
        hist = ConvergenceHistory(
            records=[
                IterationRecord(1, 2, 3.5, 3.5),
                IterationRecord(2, 4, 1.25, 3.75),
                IterationRecord(3, 5, 0.125, 3.8125),
            ]
        )
        path = tmp_path / "h.csv"
        write_history(hist, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "k,rank,nu,mu,residual_ratio"
        k, rank, nu, mu, ratio = lines[2].split(",")
        assert (int(k), int(rank)) == (2, 4)
        assert float(nu) == 1.25 and float(mu) == 3.75
        assert float(ratio) == 1.25 / 3.75

    def test_full_precision_roundtrip(self, tmp_path):
        nu = 0.1 + 0.2  # not exactly representable in decimal
        hist = ConvergenceHistory(records=[IterationRecord(1, 1, nu, nu)])
        path = tmp_path / "h.csv"
        write_history(hist, path)
        back = float(path.read_text().splitlines()[1].split(",")[2])
        assert back == nu


def prodrand_job(**kw):
    base = dict(
        kernel="prodrand",
        algorithm="baca",
        n=256,
        inner_rank=32,
        d=8,
        tol=1e-6,
        seed=12,
        verify=True,
    )
    base.update(kw)
    return JobConfig(**base)


class TestRunJob:
    def test_baca_prodrand_summary(self):
        summary = run_job(prodrand_job())
        assert summary.rank == 32
        assert summary.rel_error is not None and summary.rel_error <= 1e-4
        assert summary.n == 256
        assert not summary.degenerate
        assert summary.time_total_s >= 0.0

    def test_hbaca_single_block_matches_baca(self):
        a = run_job(prodrand_job())
        b = run_job(prodrand_job(algorithm="hbaca", n_blocks=1))
        assert a.rank == b.rank
        assert a.rel_error == b.rel_error

    def test_zero_n_is_usage_error(self):
        with pytest.raises(UsageError):
            run_job(prodrand_job(n=0))

    def test_rank_one_history_flag(self, tmp_path):
        path = tmp_path / "mat.txt"
        rng = make_rng(5)
        a = np.outer(rng.random(6) + 1.0, rng.random(6) + 1.0)
        np.savetxt(path, a)
        hist_path = tmp_path / "hist.csv"
        cfg = JobConfig(
            kernel="dense-file",
            algorithm="aca",
            points_file=str(path),
            tol=1e-8,
            history_out=str(hist_path),
            verify=True,
        )
        summary = run_job(cfg)
        assert summary.rank == 1
        assert summary.rel_error <= 1e-12
        lines = hist_path.read_text().splitlines()
        final_ratio = float(lines[-1].split(",")[-1])
        assert final_ratio <= 1e-12 or summary.degenerate

    def test_summary_json_roundtrip(self, tmp_path):
        out = tmp_path / "s.json"
        summary = run_job(prodrand_job(summary_out=str(out)))
        on_disk = json.loads(out.read_text())
        assert on_disk == summary.to_dict()
        assert json.loads(json.dumps(summary.to_dict())) == summary.to_dict()
        assert list(on_disk) == [
            "algorithm", "kernel", "n", "d", "n_b", "epsilon", "seed",
            "workers", "rank", "rel_error", "time_leaf_s", "time_merge_s",
            "time_total_s", "level_ranks", "degenerate",
        ]

    def test_repeatable_history_bytes(self, tmp_path):
        p1, p2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
        s1 = run_job(prodrand_job(history_out=str(p1)))
        s2 = run_job(prodrand_job(history_out=str(p2)))
        assert s1.rank == s2.rank
        assert p1.read_bytes() == p2.read_bytes()

    def test_flat_run_is_one_leaf(self):
        s = run_job(prodrand_job(algorithm="aca", d=8))
        assert (s.d, s.n_b) == (1, 1)
        assert s.level_ranks == [s.rank]
        assert s.time_merge_s == 0.0
        assert s.time_leaf_s == s.time_total_s

    def test_hierarchical_summary_splits_the_call(self):
        s = run_job(prodrand_job(algorithm="hbaca", n_blocks=16))
        assert (s.d, s.n_b) == (8, 16)
        assert len(s.level_ranks) == 3
        assert s.level_ranks[-1] == s.rank
        assert s.time_leaf_s + s.time_merge_s <= s.time_total_s

    def test_history_refused_for_hierarchical(self):
        with pytest.raises(UsageError):
            run_job(prodrand_job(algorithm="hbaca", n_blocks=4, history_out="x.csv"))

    def test_block_count_refused_for_flat_algorithms(self):
        with pytest.raises(UsageError):
            run_job(prodrand_job(algorithm="baca", n_blocks=4))

    @pytest.mark.parametrize("algorithm", ["aca", "baca"])
    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_worker_count_refused_for_flat_algorithms(self, algorithm, workers, capsys):
        rc = main([
            "run", "--kernel", "prodrand", "--n", "64", "--inner-rank", "4",
            "--algorithm", algorithm, "--workers", workers,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers applies to the hbaca algorithm only" in captured.err

    def test_gaussian_random_cloud_path(self):
        cfg = JobConfig(kernel="gaussian", algorithm="baca", n=64, h=1.0, d=4,
                        tol=1e-4, seed=3, dim=3, verify=True)
        summary = run_job(cfg)
        assert summary.rel_error <= 1e-2
        assert summary.n == 64

    def test_hankel_strip_path(self):
        cfg = JobConfig(kernel="hankel2d", algorithm="baca", wavenumber=16 * np.pi,
                        ppw=15.0, d=8, tol=1e-6, seed=0, verify=True)
        summary = run_job(cfg)
        assert summary.n == 120  # 8 wavelengths at 15 points each
        assert summary.rel_error <= 1e-4

    def test_missing_wavenumber(self):
        with pytest.raises(UsageError):
            run_job(JobConfig(kernel="hankel2d", algorithm="baca", n=32))

    def test_unknown_algorithm(self):
        with pytest.raises(UsageError, match="unknown algorithm 'svd'"):
            run_job(prodrand_job(algorithm="svd"))


class TestMain:
    def test_run_exit_codes_and_stdout(self, tmp_path, capsys):
        rc = main([
            "run", "--kernel", "prodrand", "--n", "128", "--inner-rank", "16",
            "--algorithm", "baca", "--d", "8", "--eps", "1e-6", "--seed", "7",
            "--verify",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 16
        assert out["rel_error"] <= 1e-4

    def test_usage_error_exit_code(self, capsys):
        rc = main(["run", "--kernel", "prodrand", "--n", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_value_less_point_file_is_input_error(self, tmp_path, capsys):
        # a file error, not a traceback from a cloud with no coordinates
        path = tmp_path / "seps.txt"
        path.write_text(",,\n,,\n")
        rc = main(["run", "--kernel", "gaussian", "--points-file", str(path),
                   "--algorithm", "aca"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}:1: no values" in captured.err

    @pytest.mark.parametrize("cap", ["-100", "0"])
    def test_verify_cap_below_one_is_usage_error(self, cap, capsys):
        rc = main([
            "run", "--kernel", "prodrand", "--n", "64", "--inner-rank", "4",
            "--verify", "--verify-cap", cap,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--verify-cap" in captured.err

    @pytest.mark.parametrize("command, want", [
        (["run"], JobConfig(kernel="prodrand")),
        (["scaling"], JobConfig(kernel="prodrand", algorithm="hbaca")),
    ])
    def test_flag_defaults_are_the_job_defaults(self, monkeypatch, command, want):
        seen = []
        summary = run_job(prodrand_job(n=16, inner_rank=2))

        def fake_run_job(config):
            seen.append(config)
            return summary

        monkeypatch.setattr(cli, "run_job", fake_run_job)
        assert main(command + ["--kernel", "prodrand"]) == 0
        assert seen == [want]

    def test_strict_flags_degenerate_run(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        np.savetxt(path, np.zeros((5, 5)))
        rc = main([
            "run", "--kernel", "dense-file", "--points-file", str(path),
            "--algorithm", "aca", "--strict",
        ])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["degenerate"] is True

    def test_polynomial_kernel(self, capsys):
        # (x . y + h)^2 over 3-d points has rank (3 + 1)(3 + 2) / 2 = 10
        rc = main([
            "run", "--kernel", "polynomial", "--n", "64", "--h", "0.5", "--dim", "3",
            "--algorithm", "baca", "--d", "4", "--eps", "1e-10", "--seed", "2", "--verify",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel"] == "polynomial" and out["n"] == 64
        assert out["rank"] == 10
        assert out["rel_error"] <= 1e-8

    def test_malformed_block_count_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--kernel", "prodrand", "--n", "16", "--nb", "1,x"])
        assert exc.value.code == 2
        assert "not a comma-separated int list: '1,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [
        ("--history-out", "history"), ("--summary-out", "summary"),
    ])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, flag, what):
        path = tmp_path / "missing" / "out"
        rc = main([
            "run", "--kernel", "prodrand", "--n", "32", "--inner-rank", "4",
            "--algorithm", "aca", flag, str(path),
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {what} to {path}" in captured.err
        assert not path.parent.exists()

    def test_hierarchical_run_with_workers(self, capsys):
        rc = main([
            "run", "--kernel", "prodrand", "--n", "128", "--inner-rank", "16",
            "--algorithm", "hbaca", "--nb", "4", "--workers", "2",
            "--d", "4", "--eps", "1e-6", "--seed", "7", "--verify",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 16
        assert out["rel_error"] <= 1e-4
        assert len(out["level_ranks"]) == 2

    def test_scaling_subcommand(self, tmp_path):
        out = tmp_path / "scaling.csv"
        rc = main([
            "scaling", "--kernel", "prodrand", "--n", "128", "--inner-rank", "16",
            "--d", "4", "--eps", "1e-6", "--seed", "3", "--verify",
            "--nb", "1,4", "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "workers,n_b,rank,rel_error,time_leaf_s,time_merge_s,time_total_s,degenerate"
        )
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert int(fields[1]) in (1, 4)
            assert int(fields[2]) == 16
            assert float(fields[3]) <= 1e-4


class TestBuildOracle:
    def test_dense_file_requires_path(self):
        with pytest.raises(UsageError):
            build_oracle(JobConfig(kernel="dense-file"))

    def test_unknown_kernel(self):
        with pytest.raises(UsageError):
            build_oracle(JobConfig(kernel="sinc"))

    def test_points_file_for_gaussian(self, tmp_path):
        path = tmp_path / "pts.txt"
        rng = make_rng(6)
        np.savetxt(path, rng.random((20, 3)))
        o = build_oracle(JobConfig(kernel="gaussian", h=0.5, points_file=str(path)))
        assert o.shape == (10, 10)

    def test_polynomial_random_cloud(self):
        o = build_oracle(JobConfig(kernel="polynomial", n=12, h=0.25, dim=3, seed=4))
        want = offdiag_oracle(PolynomialKernel(0.25), random_cloud(24, 3, 4))
        assert np.array_equal(o.dense(), want.dense())

    def test_points_file_for_hankel(self, tmp_path):
        cloud = strip_cloud(30.0, 15.0)
        path = tmp_path / "strips.txt"
        np.savetxt(path, cloud.points)
        o = build_oracle(JobConfig(kernel="hankel2d", wavenumber=30.0, points_file=str(path)))
        want = offdiag_oracle(Hankel2DKernel(30.0), cloud)
        assert o.shape == want.shape
        assert np.array_equal(o.dense(), want.dense())

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_gaussian_width_must_be_positive(self, h):
        with pytest.raises(UsageError, match="--h > 0"):
            build_oracle(JobConfig(kernel="gaussian", n=8, h=h))

    @pytest.mark.parametrize("kernel", ["gaussian", "polynomial"])
    def test_cloud_kernel_needs_points(self, kernel):
        with pytest.raises(UsageError, match="--n >= 1 or --points-file"):
            build_oracle(JobConfig(kernel=kernel, n=0))

    def test_inner_rank_validation(self):
        with pytest.raises(UsageError):
            build_oracle(JobConfig(kernel="prodrand", n=8, inner_rank=9))
