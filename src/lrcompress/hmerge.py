"""Hierarchical compression: partition, per-block compression, pairwise
truncated-SVD merges, and the analytic cost model.

The matrix is tiled into n_b = 4^L blocks by L-level binary index trees on
rows and columns. Every leaf block is compressed independently (blocked
cross approximation), then for each level the sibling blocks are merged
horizontally and vertically, never through the dense blocks. A merge uses
that both blocks' bases on the shared side are already orthonormal: one is
orthogonalized against the other by block classical Gram-Schmidt with one
reorthogonalization pass (CGS2), and only the small (r1 + r2)-square core
gets a truncated SVD. The leaves of one block-row share their rows and
differ in width by at most one; they are compressed in lockstep
(``baca_lockstep``) as one task. The tasks run on a process pool, or inline
for one worker; the merges then run in the calling process, subtree by
subtree: a depth-first walk of the block quadtree merges each 2x2 group of
siblings as soon as its children exist and releases each child once it is
merged, so the merge phase holds the leaves plus at most one partial
root-to-leaf path. The tasks depend only on the index trees, each merge
gets the inputs a level-by-level sweep would give it, and leaves and
merges alike run on single-threaded BLAS, so results are bitwise identical
at every worker count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .aca import DEGENERATE, _checked_index
from .baca import baca_compress, baca_lockstep
from .linalg import TruncatedSVD, _householder_qr, truncated_svd
from .seeding import block_seed

__all__ = [
    "IndexTree",
    "BlockSVD",
    "HBacaDiagnostics",
    "LeafRecord",
    "CostModelParams",
    "build_index_tree",
    "merge_pair_horizontal",
    "merge_pair_vertical",
    "hbaca_compress",
    "cost_model",
]


@dataclass(frozen=True)
class IndexTree:
    """Binary tree of contiguous index ranges.

    ``ranges[l]`` lists the half-open (lo, hi) ranges of the nodes at level
    l, with leaves at level 0 (2^levels nodes) and the root at level
    ``levels``. Node (l, i) has children (l-1, 2i) and (l-1, 2i+1).
    """

    extent: int
    levels: int
    ranges: tuple

    def leaves(self):
        return self.ranges[0]


def build_index_tree(extent, levels):
    """Split [0, extent) into 2^levels leaves by repeated ceil/floor
    midpoint splits; raises if extent < 2^levels."""
    if extent < 2**levels:
        raise ValueError(f"extent {extent} cannot be split into 2^{levels} leaves")
    by_level = [[(0, extent)]]
    for _ in range(levels):
        children = []
        for lo, hi in by_level[-1]:
            size = hi - lo
            left = (size + 1) // 2
            children.append((lo, lo + left))
            children.append((lo + left, hi))
        by_level.append(children)
    by_level.reverse()
    return IndexTree(extent=extent, levels=levels,
                     ranges=tuple(tuple(level) for level in by_level))


@dataclass(frozen=True)
class BlockSVD:
    """Truncated SVD of one block, tagged with its (level, index) row and
    column tree nodes."""

    row_node: tuple
    col_node: tuple
    svd: TruncatedSVD

    @property
    def rank(self):
        return self.svd.rank


def _merge_side_by_side(a, b, tol):
    """Truncated SVD of ``[A, B]`` from the SVDs ``a`` of A and ``b`` of B,
    two blocks over the same rows.

    ``b.u`` is split by block classical Gram-Schmidt with one
    reorthogonalization pass (CGS2) into ``a.u @ p`` plus an orthonormal
    remainder ``q @ r``. Then ``[A, B] = [a.u, q] K blockdiag(a.vt, b.vt)``
    with the small core ``K = [[diag(sa), p sb], [0, r sb]]``, and only K
    is decomposed. The remainder's Householder q is applied to K's left
    singular vectors from its reflectors and never formed. O(m (ra + rb)^2)
    for m rows, against a dense SVD of the m x (ra + rb) stacked factor.
    """
    ra = a.rank
    au_h = a.u.conj().T
    p = au_h @ b.u
    w = b.u - a.u @ p
    p2 = au_h @ w
    w -= a.u @ p2
    p += p2
    r, q_times = _householder_qr(w)
    core = np.zeros((ra + r.shape[0], ra + b.rank), dtype=np.result_type(p, r))
    core[:ra, :ra] = np.diag(a.sigma)
    core[:ra, ra:] = p * b.sigma
    core[ra:, ra:] = r * b.sigma
    c = truncated_svd(core, tol)
    u = a.u @ c.u[:ra] + q_times(c.u[ra:])
    na = a.vt.shape[1]
    vt = np.empty((c.rank, na + b.vt.shape[1]), dtype=np.result_type(c.vt, a.vt, b.vt))
    np.matmul(c.vt[:, :ra], a.vt, out=vt[:, :na])
    np.matmul(c.vt[:, ra:], b.vt, out=vt[:, na:])
    return TruncatedSVD(u=u, sigma=c.sigma, vt=vt)


def merge_pair_horizontal(left, right, tol):
    """Merge two side-by-side blocks sharing a row node into their column
    parent: the right row basis is orthogonalized against the left one
    (CGS2), only the small (r1 + r2)-square core is decomposed and
    truncated at ``tol``, and V picks up the block diagonal of the old
    column bases."""
    if left.row_node != right.row_node:
        raise ValueError("horizontal merge requires a shared row node")
    lvl, li = left.col_node
    rvl, ri = right.col_node
    if rvl != lvl or ri != li + 1 or li % 2 != 0:
        raise ValueError("horizontal merge requires adjacent sibling column nodes")
    out = _merge_side_by_side(left.svd, right.svd, tol)
    return BlockSVD(row_node=left.row_node, col_node=(lvl + 1, li // 2), svd=out)


def merge_pair_vertical(top, bottom, tol):
    """Merge two stacked blocks sharing a column node into their row parent:
    the horizontal merge of the transposes, ``[A; B] = [A^T, B^T]^T``, taken
    as views since ``A^T = vt^T diag(sigma) u^T`` is already an SVD. The
    column bases are orthogonalized, U picks up the block diagonal of the
    old row bases, and the result's factors are F-contiguous views."""
    if top.col_node != bottom.col_node:
        raise ValueError("vertical merge requires a shared column node")
    lvl, ti = top.row_node
    bvl, bi = bottom.row_node
    if bvl != lvl or bi != ti + 1 or ti % 2 != 0:
        raise ValueError("vertical merge requires adjacent sibling row nodes")
    a, b = (TruncatedSVD(u=s.vt.T, sigma=s.sigma, vt=s.u.T) for s in (top.svd, bottom.svd))
    merged = _merge_side_by_side(a, b, tol)
    out = TruncatedSVD(u=merged.vt.T, sigma=merged.sigma, vt=merged.u.T)
    return BlockSVD(row_node=(lvl + 1, ti // 2), col_node=top.col_node, svd=out)


class LeafRecord(NamedTuple):
    """One leaf compression: BACA iterations, rank accumulated before the
    final recompression, rank after it, wall seconds and termination. The
    leaves of one block-row run in lockstep as one task, so ``seconds`` is
    that task's wall time split evenly across its leaves; at one worker the
    leaves' seconds add up to at most ``HBacaDiagnostics.leaf_seconds``."""

    iterations: int
    rank_accumulated: int
    rank: int
    seconds: float
    termination: str


def _leaf_record(svd, history, seconds):
    accumulated = history.records[-1].rank if history.records else 0
    return LeafRecord(history.iterations, accumulated, svd.rank, seconds,
                      history.termination)


@dataclass
class HBacaDiagnostics:
    """Per-level maximum block ranks s_l (index 0 = leaves), per-block ranks
    keyed by (level, row index, col index), leaf blocks that terminated
    degenerate, one ``LeafRecord`` per leaf keyed by (row index, col
    index), and the wall-clock split between the two phases."""

    level_max_rank: list = field(default_factory=list)
    block_ranks: dict = field(default_factory=dict)
    degenerate_blocks: list = field(default_factory=list)
    leaves: dict = field(default_factory=dict)
    leaf_seconds: float = 0.0
    merge_seconds: float = 0.0


def _row_task(oracle, row_range, col_ranges, configs):
    # the leaves of one block-row, in lockstep; oracle is None inside a pool
    # worker, which holds its own copy
    if oracle is None:
        oracle = _worker_oracle
    t0 = time.perf_counter()
    leaves = [oracle.subblock(row_range[0], row_range[1], lo, hi) for lo, hi in col_ranges]
    results = baca_lockstep(leaves, configs)
    share = (time.perf_counter() - t0) / len(leaves)
    return [(svd, _leaf_record(svd, history, share)) for svd, history in results]


# Oracle shared with pool workers through the initializer: shipped once per
# worker instead of once per leaf task.
_worker_oracle = None


@functools.cache
def _bundled_openblas():
    """numpy's bundled OpenBLAS (wheel builds ship it in numpy.libs), or
    None for a numpy linked against some other BLAS; looked up once per
    process."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    libs = sorted(glob.glob(os.path.join(libs_dir, "libscipy_openblas64_*.so*")))
    if not libs:
        return None
    try:
        # already loaded by numpy: this returns a handle to the same copy
        return ctypes.CDLL(libs[0])
    except OSError:
        return None


def _limit_blas_threads():
    """Pin the process's BLAS to one thread; returns a callable that
    restores the previous thread count.

    Uses threadpoolctl when installed, else the thread setter of numpy's
    bundled OpenBLAS (the symbol threadpoolctl calls); any other BLAS is
    left as it is.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pass
    else:
        return threadpool_limits(limits=1).restore_original_limits
    lib = _bundled_openblas()
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get_threads is None or set_threads is None:
        return lambda: None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    before = get_threads()
    set_threads(1)
    return lambda: set_threads(before)


class _SingleThreadedBlas:
    """Context manager running its body under single-threaded BLAS.

    The thread count is process-wide, so concurrent callers share one pin:
    the first to enter saves the count and pins it, the last to leave
    restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                self._restore = _limit_blas_threads()
            self._users += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                self._restore()
                self._restore = None


_single_threaded_blas = _SingleThreadedBlas()


def _init_worker(oracle):
    global _worker_oracle
    _worker_oracle = oracle
    # workers already oversubscribe the cores; stop BLAS from multiplying that
    _limit_blas_threads()


def _noop():
    return None


def _compress_leaves(oracle, jobs, workers):
    """``_row_task`` over ``jobs`` of (row range, column ranges, configs),
    in job order, and the seconds the tasks took.

    One worker runs them inline; more run them on a process pool of at most
    one process per task, every worker holding its own copy of the oracle.
    The workers are started before the clock and shut down after it; when a
    task raises, the tasks not yet started are cancelled.
    """
    workers = min(workers, len(jobs))
    if workers == 1:
        t0 = time.perf_counter()
        results = [_row_task(oracle, *job) for job in jobs]
        return results, time.perf_counter() - t0
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(oracle,)) as pool:
        for f in [pool.submit(_noop) for _ in range(workers)]:
            f.result()
        t0 = time.perf_counter()
        futures = [pool.submit(_row_task, None, *job) for job in jobs]
        try:
            results = [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        return results, time.perf_counter() - t0


def _levels_for(n_blocks):
    n_blocks = _checked_index(n_blocks, "n_blocks")
    levels = 0
    while 4**levels < n_blocks:
        levels += 1
    if 4**levels != n_blocks:
        raise ValueError(f"n_blocks must be a power of 4, got {n_blocks}")
    return levels


def hbaca_compress(oracle, n_blocks, config, workers=1):
    """Hierarchical blocked compression of an entry oracle.

    Parameters
    ----------
    oracle : EntryOracle
    n_blocks : int
        Number of leaf blocks; must be a power of 4 with
        sqrt(n_blocks) <= min(m, n). 1 is a literal passthrough to
        baca_compress with the caller's seed.
    config : BacaConfig
        Leaf compressor settings; block size 1 gives hierarchical plain
        cross approximation. Leaf seeds derive from (config.seed, block id).
    workers : int
        Process pool size for the leaf compressions, which run one task
        per block-row of sqrt(n_blocks) leaves in lockstep, so the pool is
        capped at sqrt(n_blocks); 1 runs them inline. The merges run in the
        calling process after the pool has shut down, subtree by subtree
        (depth first over the block quadtree): each child block is released
        once it is merged, so the merge phase holds the leaves plus at most
        one partial root-to-leaf path. Leaves and merges run
        on single-threaded BLAS, so this is the number of cores the call
        uses, and the result is bitwise identical at every worker count.
        The caller's BLAS thread count is restored on return or raise;
        n_blocks=1 runs at that count.

    Returns
    -------
    (TruncatedSVD, HBacaDiagnostics)

    Notes
    -----
    Truncation errors compound up the hierarchy. The leaves and each of
    the 2L merge half-steps (horizontal, then vertical, at each of the L
    levels) drop singular values below ``config.tol`` relative to the
    largest one of the block at hand, and the errors of successive steps
    add. The root's relative error is therefore bounded by roughly the sum
    over the steps, about (2L + 1) times the error of one truncation at
    ``config.tol``, not by ``config.tol`` alone; pass a proportionally
    smaller tolerance when the bound must hold for the whole matrix.
    """
    if _checked_index(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    levels = _levels_for(n_blocks)
    m, n = oracle.rows, oracle.cols
    if m == 0 or n == 0:
        raise ValueError("oracle must be nonempty")

    if n_blocks == 1:
        t0 = time.perf_counter()
        svd, history = baca_compress(oracle, config)
        seconds = time.perf_counter() - t0
        diag = HBacaDiagnostics(
            level_max_rank=[svd.rank],
            block_ranks={(0, 0, 0): svd.rank},
            degenerate_blocks=[(0, 0)] if history.termination == DEGENERATE else [],
            leaves={(0, 0): _leaf_record(svd, history, seconds)},
            leaf_seconds=seconds,
            merge_seconds=0.0,
        )
        return svd, diag

    side = 2**levels
    if side > min(m, n):
        raise ValueError(f"cannot split a {m}x{n} matrix into {side}x{side} blocks")
    row_tree = build_index_tree(m, levels)
    col_tree = build_index_tree(n, levels)

    # leaves and merges run on single-threaded BLAS, in the caller as in the
    # pool workers
    diag = HBacaDiagnostics()
    with _single_threaded_blas:
        jobs = [(row_range, col_tree.leaves(),
                 [replace(config, seed=block_seed(config.seed, i * side + j))
                  for j in range(side)])
                for i, row_range in enumerate(row_tree.leaves())]
        results, diag.leaf_seconds = _compress_leaves(oracle, jobs, workers)
        grid = [[BlockSVD((0, i), (0, j), svd) for j, (svd, _) in enumerate(row)]
                for i, row in enumerate(results)]
        diag.leaves = {(i, j): record for i, row in enumerate(results)
                       for j, (_, record) in enumerate(row)}
        # from here on the grid holds the only reference to each leaf
        del results
        for (i, j), record in diag.leaves.items():
            diag.block_ranks[0, i, j] = record.rank
            if record.termination == DEGENERATE:
                diag.degenerate_blocks.append((i, j))

        t0 = time.perf_counter()
        root = _merge_subtree(grid, levels, 0, 0, config.tol, diag.block_ranks)
        diag.merge_seconds = time.perf_counter() - t0

    # the walk records ranks depth first; list them level by level, row by row
    diag.block_ranks = dict(sorted(diag.block_ranks.items()))
    for level in range(levels + 1):
        diag.level_max_rank.append(
            max(rank for (l, _, _), rank in diag.block_ranks.items() if l == level))
    return root.svd, diag


def _merge_subtree(grid, level, i, j, tol, ranks):
    """Block (i, j) of ``level``, merged depth first from the leaf blocks
    under it in ``grid``.

    The top pair of children is merged horizontally as soon as both exist,
    then the bottom pair, then the two halves vertically. Each leaf is taken
    out of ``grid``, and each child released once merged, so the walk holds
    the unmerged leaves plus at most one partial root-to-leaf path. Merged
    blocks' ranks are recorded in ``ranks`` under (level, i, j).
    """
    if level == 0:
        block, grid[i][j] = grid[i][j], None
        return block
    halves = [merge_pair_horizontal(_merge_subtree(grid, level - 1, row, 2 * j, tol, ranks),
                                    _merge_subtree(grid, level - 1, row, 2 * j + 1, tol, ranks),
                                    tol)
              for row in (2 * i, 2 * i + 1)]
    block = merge_pair_vertical(*halves, tol)
    ranks[level, i, j] = block.rank
    return block


@dataclass(frozen=True)
class CostModelParams:
    """Inputs of the asymptotic cost model: matrix size, target rank, leaf
    block count and the per-level rank law ('constant' keeps s_l = r;
    'doubling' grows s_l = r 2^(l-L) from leaf to root)."""

    n: int
    rank: int
    n_blocks: int
    rank_model: str = "constant"

    def __post_init__(self):
        if self.rank_model not in ("constant", "doubling"):
            raise ValueError(f"unknown rank model {self.rank_model!r}")


def cost_model(params):
    """Asymptotic-unit flop counts for one hierarchical compression (no
    machine constants).

    Leaf work is n_b blocks of size n/sqrt(n_b) at leaf rank s_0; merge work
    sums 4^(L-l) * n_l * s_l^2 over levels with n_l = 2^l n / sqrt(n_b).

    Returns
    -------
    dict with keys leaf_flops, merge_flops.
    """
    levels = _levels_for(params.n_blocks)
    sqrt_nb = 2**levels

    def s(l):
        if params.rank_model == "constant":
            return float(params.rank)
        return params.rank * 2.0 ** (l - levels)

    leaf_flops = params.n_blocks * (params.n / sqrt_nb) * s(0) ** 2
    merge_flops = 0.0
    for l in range(1, levels + 1):
        n_l = 2**l * params.n / sqrt_nb
        merge_flops += 4.0 ** (levels - l) * n_l * s(l) ** 2
    return {"leaf_flops": float(leaf_flops), "merge_flops": float(merge_flops)}
