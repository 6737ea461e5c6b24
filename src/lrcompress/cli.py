"""Benchmark and verification front end.

``lrcompress run`` configures a kernel and an algorithm, runs one
compression, and emits a JSON summary plus an optional per-iteration
convergence CSV and dense-oracle verification. ``lrcompress scaling`` reruns
one hierarchical configuration across worker and block-count sweeps into a
combined CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import kernels
from .aca import AcaConfig, aca_compress
from .baca import BacaConfig, baca_compress
from .hmerge import hbaca_compress

__all__ = [
    "UsageError",
    "JobConfig",
    "RunSummary",
    "build_oracle",
    "run_job",
    "write_history",
    "verify_against_dense",
    "main",
]

VERIFY_CAP_DEFAULT = 4096

KERNELS = ("gaussian", "polynomial", "hankel2d", "prodrand", "dense-file")
ALGORITHMS = ("aca", "baca", "hbaca")


class UsageError(ValueError):
    """Invalid job configuration."""


@dataclass
class JobConfig:
    kernel: str
    algorithm: str = "baca"
    n: int = 0
    inner_rank: int = 32
    h: float = 1.0
    wavenumber: float | None = None
    ppw: float = 15.0
    dim: int = 8
    points_file: str | None = None
    d: int = 8
    n_blocks: int = 1
    tol: float = 1e-6
    seed: int = 0
    workers: int = 1
    verify: bool = False
    history_out: str | None = None
    summary_out: str | None = None
    verify_cap: int = VERIFY_CAP_DEFAULT


@dataclass
class RunSummary:
    algorithm: str
    kernel: str
    n: int
    d: int
    n_b: int
    epsilon: float
    seed: int
    workers: int
    rank: int
    rel_error: float | None
    time_leaf_s: float
    time_merge_s: float
    time_total_s: float
    level_ranks: list
    degenerate: bool

    def to_dict(self):
        return asdict(self)


def build_oracle(config):
    """Construct the entry oracle described by a job configuration.

    gaussian/polynomial: off-diagonal block of the kernel over a 2n-point
    cloud (from --points-file, else uniform random points of --dim
    coordinates). hankel2d: off-diagonal block between the two strips (or a
    point file). prodrand: product of seeded random factors. dense-file:
    matrix rows read from --points-file.
    """
    kind = config.kernel
    if kind not in KERNELS:
        raise UsageError(f"unknown kernel {kind!r}")

    if kind == "dense-file":
        if not config.points_file:
            raise UsageError("dense-file kernel needs --points-file")
        return kernels.dense_oracle(kernels.load_dense_matrix(config.points_file))

    if kind == "prodrand":
        if config.n < 1:
            raise UsageError("prodrand kernel needs --n >= 1")
        if not 1 <= config.inner_rank <= config.n:
            raise UsageError("--inner-rank must be in [1, n]")
        return kernels.product_of_random_oracle(config.n, config.inner_rank, config.seed)

    if kind == "hankel2d":
        if config.wavenumber is None or config.wavenumber <= 0:
            raise UsageError("hankel2d kernel needs --wavenumber > 0")
        kernel = kernels.Hankel2DKernel(config.wavenumber)
        if config.points_file:
            cloud = kernels.load_point_cloud(config.points_file)
        else:
            cloud = kernels.strip_cloud(config.wavenumber, config.ppw)
        return kernels.offdiag_oracle(kernel, cloud)

    if kind == "gaussian":
        if config.h <= 0:
            raise UsageError("gaussian kernel needs --h > 0")
        kernel = kernels.GaussianKernel(config.h)
    else:
        kernel = kernels.PolynomialKernel(config.h)
    if config.points_file:
        cloud = kernels.load_point_cloud(config.points_file)
    else:
        if config.n < 1:
            raise UsageError(f"{kind} kernel needs --n >= 1 or --points-file")
        cloud = kernels.random_cloud(2 * config.n, config.dim, config.seed)
    return kernels.offdiag_oracle(kernel, cloud)


def verify_against_dense(oracle, result, cap=VERIFY_CAP_DEFAULT):
    """Relative Frobenius error of a factorization against the densified
    oracle; refuses oracles larger than cap^2 entries."""
    if oracle.rows * oracle.cols > cap * cap:
        raise UsageError(
            f"verification refused: {oracle.rows}x{oracle.cols} exceeds the "
            f"densification cap {cap}x{cap}"
        )
    dense = oracle.dense()
    resid = float(np.linalg.norm(dense - result.matrix()))
    denom = float(np.linalg.norm(dense))
    if denom == 0.0:
        return 0.0 if resid == 0.0 else float("inf")
    return resid / denom


def write_history(history, path):
    """Write a convergence history as CSV: one row per iteration with
    columns k,rank,nu,mu,residual_ratio; floats round-trip at full double
    precision."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("k,rank,nu,mu,residual_ratio\n")
            for rec in history.records:
                ratio = rec.nu / rec.mu if rec.mu > 0.0 else 0.0
                fh.write(f"{rec.k},{rec.rank},{rec.nu!r},{rec.mu!r},{ratio!r}\n")
    except OSError as exc:
        raise UsageError(f"cannot write history to {path}: {exc}") from None


def _write_summary(summary, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write summary to {path}: {exc}") from None


def run_job(config):
    """Build the oracle, run the selected algorithm, verify and write
    outputs as requested; returns the RunSummary.

    A flat run (aca, baca) is one leaf: its leaf time is the whole call,
    its merge time 0 and its level ranks the one final rank."""
    if config.algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {config.algorithm!r}")
    if config.algorithm != "hbaca" and config.n_blocks != 1:
        raise UsageError("--nb applies to the hbaca algorithm only")
    if config.algorithm != "hbaca" and config.workers != 1:
        raise UsageError("--workers applies to the hbaca algorithm only")
    if config.history_out and config.algorithm == "hbaca":
        raise UsageError(
            "--history-out is only meaningful for aca/baca (hierarchical runs "
            "have one history per leaf block)"
        )
    if config.verify_cap < 1:
        raise UsageError("--verify-cap must be >= 1")
    oracle = build_oracle(config)

    t0 = time.perf_counter()
    if config.algorithm == "aca":
        result, info = aca_compress(oracle, AcaConfig(config.tol, config.seed))
    elif config.algorithm == "baca":
        result, info = baca_compress(oracle, BacaConfig(config.d, config.tol, config.seed))
    else:
        result, info = hbaca_compress(oracle, config.n_blocks,
                                      BacaConfig(config.d, config.tol, config.seed),
                                      workers=config.workers)
    total_s = time.perf_counter() - t0

    if config.algorithm == "hbaca":
        leaf_s, merge_s = info.leaf_seconds, info.merge_seconds
        level_ranks = list(info.level_max_rank)
        degenerate = bool(info.degenerate_blocks)
    else:
        leaf_s, merge_s = total_s, 0.0
        level_ranks = [result.rank]
        degenerate = info.degenerate

    rel_error = None
    if config.verify:
        rel_error = verify_against_dense(oracle, result, cap=config.verify_cap)

    summary = RunSummary(
        algorithm=config.algorithm,
        kernel=config.kernel,
        n=oracle.rows,
        d=1 if config.algorithm == "aca" else config.d,
        n_b=config.n_blocks,
        epsilon=float(config.tol),
        seed=config.seed,
        workers=config.workers,
        rank=result.rank,
        rel_error=rel_error,
        time_leaf_s=leaf_s,
        time_merge_s=merge_s,
        time_total_s=total_s,
        level_ranks=level_ranks,
        degenerate=degenerate,
    )
    if config.history_out:
        write_history(info, config.history_out)
    if config.summary_out:
        _write_summary(summary, config.summary_out)
    return summary


def _add_job_flags(p):
    p.add_argument("--kernel", choices=KERNELS, required=True)
    p.add_argument("--n", type=int,
                   help="points per side of the off-diagonal block / matrix size")
    p.add_argument("--inner-rank", type=int, help="inner rank of the prodrand kernel")
    p.add_argument("--h", type=float, help="Gaussian width / polynomial regularization")
    p.add_argument("--wavenumber", type=float)
    p.add_argument("--ppw", type=float, help="points per wavelength for the strip geometry")
    p.add_argument("--dim", type=int, help="dimension of generated random point clouds")
    p.add_argument("--points-file",
                   help="point rows (kernels) or matrix rows (dense-file)")
    p.add_argument("--d", type=int, help="block size")
    p.add_argument("--eps", type=float, dest="tol", metavar="EPS", help="relative tolerance")
    p.add_argument("--seed", type=int)
    p.add_argument("--verify", action="store_true",
                   help="densify the oracle and report the relative error")
    p.add_argument("--verify-cap", type=int)


def _job_from_args(args, **overrides):
    # flags not given are absent from args, so JobConfig supplies every default
    given = vars(args)
    job = JobConfig(**{f.name: given[f.name] for f in fields(JobConfig) if f.name in given})
    return replace(job, **overrides)


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


_WORKERS_HELP = "tile tasks run at once on threads, capped at the tile count (hbaca only)"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lrcompress",
        description="Low-rank compression benchmarks over entry oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one compression job",
                           argument_default=argparse.SUPPRESS)
    _add_job_flags(run_p)
    run_p.add_argument("--algorithm", choices=ALGORITHMS)
    run_p.add_argument("--nb", type=int, dest="n_blocks", metavar="NB",
                       help="leaf block count for hbaca (power of 4)")
    run_p.add_argument("--workers", type=int, help=_WORKERS_HELP)
    run_p.add_argument("--strict", action="store_true", default=False,
                       help="exit nonzero on degenerate termination")
    run_p.add_argument("--history-out")
    run_p.add_argument("--summary-out")

    scal_p = sub.add_parser(
        "scaling",
        help="rerun one hbaca config across workers x block-count sweeps",
        argument_default=argparse.SUPPRESS,
    )
    _add_job_flags(scal_p)
    scal_p.add_argument("--nb", type=_int_list, default=[1], dest="n_blocks", metavar="NB",
                        help="comma-separated block counts, e.g. 1,4,16")
    scal_p.add_argument("--workers", type=_int_list, default=[1],
                        help="comma-separated worker counts, e.g. 1,2,4; " + _WORKERS_HELP)
    scal_p.add_argument("--out", help="combined CSV path (default stdout)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary = run_job(_job_from_args(args))
            print(json.dumps(summary.to_dict()))
            return 1 if args.strict and summary.degenerate else 0
        return _run_scaling(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_scaling(args):
    lines = ["workers,n_b,rank,rel_error,time_leaf_s,time_merge_s,time_total_s,degenerate"]
    for n_b in args.n_blocks:
        for workers in args.workers:
            summary = run_job(_job_from_args(args, algorithm="hbaca", n_blocks=n_b,
                                             workers=workers))
            err = "" if summary.rel_error is None else repr(summary.rel_error)
            lines.append(
                f"{workers},{n_b},{summary.rank},{err},"
                f"{summary.time_leaf_s!r},{summary.time_merge_s!r},"
                f"{summary.time_total_s!r},{int(summary.degenerate)}"
            )
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
