"""Seeded workloads and the correctness gate applied to every call.

Each workload builds its oracle through ``lrcompress.cli.build_oracle`` and
drives one public entry point. The workload seed is both the oracle seed and
the compressor seed; the library receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from lrcompress import AcaConfig, BacaConfig, aca_compress, baca_compress, hbaca_compress
from lrcompress.aca import DEGENERATE
from lrcompress.cli import JobConfig, build_oracle
from lrcompress.linalg import TruncatedSVD

# A call passes when its sampled relative error is at most this multiple of
# the workload's tolerance.
ERROR_FACTOR = 10.0
# Rows and columns drawn for the sampled error, so the check works at any n.
SAMPLE = 512
# Stream tag separating the sample draw from the oracle and compressor seed.
SAMPLE_STREAM = 0x5EED


@dataclass(frozen=True)
class Workload:
    """One compression job: oracle description, entry point and settings.

    ``rank_slack`` set means the oracle has exact inner rank r and the final
    rank must lie in [r, r + rank_slack].
    """

    name: str
    job: dict = field(hash=False)
    algorithm: str
    tol: float
    d: int = 8
    n_blocks: int = 1
    workers: int = 1
    rank_slack: int | None = None

    @property
    def root_span(self):
        return {
            "aca": "aca.aca_compress",
            "baca": "baca.baca_compress",
            "hbaca": "hmerge.hbaca_compress",
        }[self.algorithm]

    def build_oracle(self, seed):
        return build_oracle(JobConfig(seed=seed, **self.job))

    def compress(self, oracle, seed):
        """Run the entry point; returns (result, history or diagnostics)."""
        if self.algorithm == "aca":
            return aca_compress(oracle, AcaConfig(tol=self.tol, seed=seed))
        config = BacaConfig(block_size=self.d, tol=self.tol, seed=seed)
        if self.algorithm == "baca":
            return baca_compress(oracle, config)
        return hbaca_compress(oracle, self.n_blocks, config, workers=self.workers)


WORKLOADS = {
    w.name: w
    for w in [
        # Memory-bound oracle gathers, factor appends and norm tracking; never
        # calls qrcp, the merges or the pool.
        Workload(
            name="aca-prodrand",
            job={"kernel": "prodrand", "n": 4096, "inner_rank": 256},
            algorithm="aca",
            tol=1e-6,
            rank_slack=1,
        ),
        # Compute-bound complex Bessel oracle, qrcp pivoting, lrid and the
        # final lr_recompress.
        Workload(
            name="baca-hankel",
            job={"kernel": "hankel2d", "wavenumber": 2000.0, "ppw": 15.0},
            algorithm="baca",
            tol=1e-4,
        ),
        # One worker: 64 small BACA leaves (qrcp, lrid) and the dense
        # truncated-SVD merge phase; bitwise deterministic.
        Workload(
            name="hbaca-prodrand",
            job={"kernel": "prodrand", "n": 4096, "inner_rank": 64},
            algorithm="hbaca",
            tol=1e-6,
            n_blocks=64,
            rank_slack=0,
        ),
        # The only job that starts the hmerge process pool. Not listed in
        # BENCHMARK.json: under the default BLAS threading its call times
        # spread too widely to bound.
        Workload(
            name="hbaca-pool",
            job={"kernel": "prodrand", "n": 1024, "inner_rank": 64},
            algorithm="hbaca",
            tol=1e-6,
            n_blocks=16,
            workers=2,
            rank_slack=0,
        ),
    ]
}


def factor_arrays(result):
    return [getattr(result, f.name) for f in fields(result)]


def sampled_product(result, rows, cols):
    """Entries (rows x cols) of a factorization without densifying it."""
    if isinstance(result, TruncatedSVD):
        return (result.u[rows] * result.sigma) @ result.vt[:, cols]
    left = result.u[rows] if result.sigma is None else result.u[rows] * result.sigma
    return left @ result.v[:, cols]


def degenerate_count(info):
    """Degenerate terminations in a history (0/1) or H-BACA diagnostics."""
    if hasattr(info, "degenerate_blocks"):
        return len(info.degenerate_blocks)
    return int(info.termination == DEGENERATE)


class Gate:
    """Correctness check of one call's result against the oracle.

    The sampled reference entries are drawn and evaluated once per run; a
    deterministic (single-worker) workload must also repeat its first
    result bit for bit.
    """

    def __init__(self, workload, oracle, seed):
        rng = np.random.default_rng([SAMPLE_STREAM, seed])
        m, n = oracle.shape
        self.rows = np.sort(rng.choice(m, size=min(SAMPLE, m), replace=False))
        self.cols = np.sort(rng.choice(n, size=min(SAMPLE, n), replace=False))
        self.reference = oracle.block(self.rows, self.cols)
        self.reference_norm = float(np.linalg.norm(self.reference))
        self.error_bound = ERROR_FACTOR * workload.tol
        inner = workload.job.get("inner_rank")
        self.rank_range = (
            None if workload.rank_slack is None else (inner, inner + workload.rank_slack)
        )
        self.deterministic = workload.workers == 1
        self.first = None

    def check(self, result, info):
        """Returns (rel_error, list of problems); no problems means a pass."""
        approx = sampled_product(result, self.rows, self.cols)
        rel_error = float(np.linalg.norm(self.reference - approx)) / self.reference_norm
        problems = []
        if not rel_error <= self.error_bound:
            problems.append(f"rel_error {rel_error:.3e} above {self.error_bound:.1e}")
        if self.rank_range is not None:
            lo, hi = self.rank_range
            if not lo <= result.rank <= hi:
                problems.append(f"rank {result.rank} outside [{lo}, {hi}]")
        if degenerate_count(info):
            problems.append("degenerate termination")
        if self.deterministic:
            arrays = factor_arrays(result)
            if self.first is None:
                self.first = arrays
            elif not all(np.array_equal(a, b) for a, b in zip(self.first, arrays)):
                problems.append("factors differ from the first call")
        return rel_error, problems
