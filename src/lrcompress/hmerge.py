"""Hierarchical compression: partition, per-block compression, pairwise
truncated-SVD merges, and the analytic cost model.

The matrix is tiled into n_b = 4^L leaf blocks: rows and columns are each
split into 2^L contiguous leaf ranges by L rounds of ceil/floor midpoint
splits (``_leaf_ranges``). Every leaf block is compressed independently
(blocked cross approximation), then for each level the sibling blocks are
merged horizontally and vertically, never through the dense blocks. Every merge
runs through one kernel, ``linalg._recompress_side_by_side``: one
Householder QR of the two blocks' stacked bases on the shared side, and a
truncated SVD of the small core only. No leaf is truncated on its own: a
leaf enters the merge walk as a block holding its raw cross factors, and
``merge_pair_horizontal`` takes two such leaves as it takes two SVD
blocks, giving each raw v^T a QR of its own. Every merge above the leaves
takes two SVDs, whose bases on the other side are already orthonormal and
need no QR; ``merge_pair_vertical`` takes SVD blocks only, since raw
leaves are always merged horizontally first.

A task is one tile of 2^t x 2^t leaves, t = ceil(L / 2): its leaves are
compressed in lockstep (``lockstep_factors``) as one group and merged up
to the tile root within the task. The tasks run on a thread pool that
shares the caller's oracle, or inline for one worker; the calling thread
then merges the tile roots over the top L - t levels. Merges run subtree
by subtree: a depth-first walk of the block quadtree merges each 2x2
group of siblings as soon as its children exist and releases each child
once it is merged, so a walk holds its unmerged inputs plus at most one
partial root-to-leaf path. The tiles depend only on n_b, each merge gets
the inputs a level-by-level sweep would give it, and leaves and merges
alike run on single-threaded BLAS, so results are bitwise identical at
every worker count.
"""

from __future__ import annotations

import ctypes
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .aca import DEGENERATE, _checked_index
from .baca import baca_compress, lockstep_factors
from .linalg import (
    LowRankFactors,
    TruncatedSVD,
    _bundled_openblas,
    _read_only,
    _recompress_side_by_side,
)

# truncated_svd stays importable from this module, where perfbench's tracer
# patches it; the merges reach it through _recompress_side_by_side
from .linalg import truncated_svd  # noqa: F401
from .seeding import block_seed

__all__ = [
    "BlockSVD",
    "HBacaDiagnostics",
    "LeafRecord",
    "CostModelParams",
    "merge_pair_horizontal",
    "merge_pair_vertical",
    "hbaca_compress",
    "cost_model",
]


def _leaf_ranges(extent, levels):
    """The 2^levels half-open ranges (lo, hi) that split [0, extent), in
    order, by ``levels`` rounds of ceil/floor midpoint splits."""
    ranges = [(0, extent)]
    for _ in range(levels):
        halves = []
        for lo, hi in ranges:
            mid = (lo + hi + 1) // 2
            halves += [(lo, mid), (mid, hi)]
        ranges = halves
    return ranges


@dataclass(frozen=True)
class BlockSVD:
    """One block of the merge walk, tagged with its (level, index) row and
    column nodes: node (l, i) spans leaf ranges 2^l i to 2^l (i + 1) - 1,
    and its children are (l - 1, 2i) and (l - 1, 2i + 1). ``svd`` is a
    ``TruncatedSVD``, or for a leaf its raw cross factors
    (``LowRankFactors``, ``u @ v``), which no merge but
    ``merge_pair_horizontal`` takes."""

    row_node: tuple
    col_node: tuple
    svd: TruncatedSVD | LowRankFactors

    @property
    def rank(self):
        return self.svd.rank


def merge_pair_horizontal(left, right, tol):
    """Merge two side-by-side blocks sharing a row node into their column
    parent: one Householder QR of the stacked row bases ``[U_1, U_2]``,
    then only the small core ``R blockdiag(S_1, S_2)`` is decomposed and
    truncated at ``tol`` (``_recompress_side_by_side``), and V picks up the
    block diagonal of the old column bases. Either block may be a raw leaf,
    ``[A, B] = [u_a, u_b] blockdiag(v_a, v_b)``, whose v^T then gets a QR
    of its own in place of S. The kernel factors in place what it may
    write, so it gets a read-only view of a raw leaf's v, which it copies,
    and the blocks are never written; the stacked bases are its own."""
    if left.row_node != right.row_node:
        raise ValueError("horizontal merge requires a shared row node")
    lvl, li = left.col_node
    rvl, ri = right.col_node
    if rvl != lvl or ri != li + 1 or li % 2 != 0:
        raise ValueError("horizontal merge requires adjacent sibling column nodes")
    out = _recompress_side_by_side(
        [LowRankFactors(b.u, _read_only(b.v)) if isinstance(b, LowRankFactors) else b
         for b in (left.svd, right.svd)], tol)
    return BlockSVD(row_node=left.row_node, col_node=(lvl + 1, li // 2), svd=out)


def merge_pair_vertical(top, bottom, tol):
    """Merge two stacked blocks sharing a column node into their row parent:
    the horizontal merge of the transposes, ``[A; B] = [A^T, B^T]^T``, taken
    as views since ``A^T = vt^T diag(sigma) u^T`` is already an SVD. The
    stacked column bases get the one QR, U picks up the block diagonal of
    the old row bases, and the result's factors are transposed views of
    the merged ones, never copies. Both blocks must be SVDs: raw leaves
    are merged horizontally first."""
    if not (isinstance(top.svd, TruncatedSVD) and isinstance(bottom.svd, TruncatedSVD)):
        raise ValueError("vertical merge takes SVD blocks; merge raw leaves horizontally first")
    if top.col_node != bottom.col_node:
        raise ValueError("vertical merge requires a shared column node")
    lvl, ti = top.row_node
    bvl, bi = bottom.row_node
    if bvl != lvl or bi != ti + 1 or ti % 2 != 0:
        raise ValueError("vertical merge requires adjacent sibling row nodes")
    a, b = (TruncatedSVD(u=s.vt.T, sigma=s.sigma, vt=s.u.T) for s in (top.svd, bottom.svd))
    merged = _recompress_side_by_side([a, b], tol)
    out = TruncatedSVD(u=merged.vt.T, sigma=merged.sigma, vt=merged.u.T)
    return BlockSVD(row_node=(lvl + 1, ti // 2), col_node=top.col_node, svd=out)


class LeafRecord(NamedTuple):
    """One leaf compression: BACA iterations, the rank of its cross
    factors, wall seconds and termination. The leaves of one tile run in
    lockstep as one task, so ``seconds`` is that task's leaf-phase wall
    time split evenly across its leaves; at one worker the leaves' seconds
    add up to ``HBacaDiagnostics.leaf_seconds``."""

    iterations: int
    rank_accumulated: int
    seconds: float
    termination: str


def _leaf_record(history, seconds):
    accumulated = history.records[-1].rank if history.records else 0
    return LeafRecord(history.iterations, accumulated, seconds, history.termination)


@dataclass
class HBacaDiagnostics:
    """Per-block ranks keyed by (level, row index, col index), one
    ``LeafRecord`` per leaf keyed by (row index, col index), and the
    wall-clock split between the two phases. A leaf's rank is the rank it
    hands to the first merge: its cross rank, or the truncated rank of the
    n_blocks = 1 passthrough. ``level_max_rank`` and ``degenerate_blocks``
    are derived from the ranks and the leaves."""

    block_ranks: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)
    leaf_seconds: float = 0.0
    merge_seconds: float = 0.0

    @property
    def level_max_rank(self):
        """Maximum block rank s_l per level l, index 0 = leaves."""
        return [max(rank for (l, _, _), rank in self.block_ranks.items() if l == level)
                for level in sorted({key[0] for key in self.block_ranks})]

    @property
    def degenerate_blocks(self):
        """(row index, col index) of the leaves that terminated degenerate."""
        return [key for key, record in self.leaves.items()
                if record.termination == DEGENERATE]


def _tile_task(oracle, tile, level, row_ranges, col_ranges, configs, tol):
    """Tile ``tile`` = (i, j) of ``level``: its leaves on ``row_ranges`` x
    ``col_ranges``, compressed in lockstep with ``configs`` in row-major
    order and merged depth first up to the tile root.

    Returns (root BlockSVD, LeafRecords by leaf, block ranks of the tile
    as in HBacaDiagnostics.block_ranks, merge seconds); the records carry
    the leaf phase's seconds. Tasks on the pool share ``oracle``.
    """
    t0 = time.perf_counter()
    results = lockstep_factors([oracle.subblock(r0, r1, c0, c1)
                                for r0, r1 in row_ranges for c0, c1 in col_ranges], configs)
    t1 = time.perf_counter()
    share = (t1 - t0) / len(results)
    span = len(col_ranges)
    blocks, records, ranks = {}, {}, {}
    for k, (factors, history) in enumerate(results):
        i, j = tile[0] * span + k // span, tile[1] * span + k % span
        blocks[0, i, j] = BlockSVD((0, i), (0, j), factors)
        records[i, j] = _leaf_record(history, share)
        ranks[0, i, j] = factors.rank
    # from here on the walk holds the only reference to each leaf
    del results, factors
    root = _merge_subtree(blocks, level, *tile, tol, ranks)
    return root, records, ranks, time.perf_counter() - t1


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


def _run_tasks(oracle, jobs, workers):
    """``_tile_task`` over ``jobs`` (its arguments after the oracle), in
    job order, and the wall seconds the tasks took.

    One worker runs them inline in the calling thread; more run them
    through ``Executor.map`` on a pool of at most one thread per task,
    every task reading the caller's oracle. When a task raises, ``map``
    cancels the tasks not yet started.
    """
    workers = min(workers, len(jobs))
    t0 = time.perf_counter()
    if workers == 1:
        results = [_tile_task(oracle, *job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_tile_task, [oracle] * len(jobs), *zip(*jobs)))
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
        ``config.max_rank`` is accepted only at n_blocks = 1, where it caps
        the one BACA call; above that it raises ValueError, because it could
        cap only the leaves, and the merges' ranks grow past it.
    workers : int
        Number of tile tasks run at once, on a thread pool that shares
        ``oracle``. A task is one tile of 2^t x 2^t leaves, t = ceil(L / 2)
        for n_blocks = 4^L: its leaves run in lockstep and are merged up to
        the tile root in the task, so the pool is capped at the 4^(L - t)
        tiles; 1 runs them inline, one tile at a time. The calling thread
        merges the tile roots over the top L - t levels after the pool has
        shut down. Every merge walk is depth first over the block quadtree
        and releases each child block once it is merged. Leaves and merges
        run on single-threaded BLAS, so the result is bitwise identical at
        every worker count. Tasks overlap where numpy releases the GIL, in
        BLAS, LAPACK and array loops; an oracle whose ``block`` runs Python
        code per entry holds it. The caller's BLAS thread count is restored
        on return or raise; n_blocks=1 runs at that count.

    Returns
    -------
    (TruncatedSVD, HBacaDiagnostics)

    Notes
    -----
    Truncation errors compound up the hierarchy. Each of the 2L merge
    half-steps (horizontal, then vertical, at each of the L levels) drops
    singular values below ``config.tol`` relative to the largest one of
    the block at hand, and the errors of successive steps add; the leaves'
    cross factors are not truncated before the first merge. The root's
    relative error is therefore bounded by roughly the sum over the steps,
    about 2L times the error of one truncation at ``config.tol``, not by
    ``config.tol`` alone; pass a proportionally smaller tolerance when the
    bound must hold for the whole matrix.

    ``leaf_seconds`` and ``merge_seconds`` of the diagnostics are the
    tasks' leaf and merge phases summed, plus the caller's merges. When
    the tasks' summed time exceeds their wall time, as on a pool, both
    task sums are scaled down to the wall time in proportion, so the two
    never add up to more than the call.
    """
    if _checked_index(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    levels = _levels_for(n_blocks)
    if n_blocks > 1 and config.max_rank is not None:
        raise ValueError("max_rank needs n_blocks = 1: the merges cannot hold "
                         "the result to max_rank")
    m, n = oracle.rows, oracle.cols
    if m == 0 or n == 0:
        raise ValueError("oracle must be nonempty")

    if n_blocks == 1:
        t0 = time.perf_counter()
        svd, history = baca_compress(oracle, config)
        seconds = time.perf_counter() - t0
        diag = HBacaDiagnostics(
            block_ranks={(0, 0, 0): svd.rank},
            leaves={(0, 0): _leaf_record(history, seconds)},
            leaf_seconds=seconds,
        )
        return svd, diag

    side = 2**levels
    if side > min(m, n):
        raise ValueError(f"cannot split a {m}x{n} matrix into {side}x{side} blocks")
    row_leaves = _leaf_ranges(m, levels)
    col_leaves = _leaf_ranges(n, levels)

    tile_level = (levels + 1) // 2
    span = 2**tile_level
    tiles = range(0, side, span)
    jobs = [((i // span, j // span), tile_level,
             row_leaves[i:i + span], col_leaves[j:j + span],
             [replace(config, seed=block_seed(config.seed, a * side + b))
              for a in range(i, i + span) for b in range(j, j + span)],
             config.tol)
            for i in tiles for j in tiles]

    # leaves and merges run on single-threaded BLAS; the pin is process-wide,
    # so it covers the pool threads
    diag = HBacaDiagnostics()
    with _single_threaded_blas:
        results, wall = _run_tasks(oracle, jobs, workers)
        roots = {}
        merge_s = 0.0
        for root, records, ranks, seconds in results:
            roots[(*root.row_node, root.col_node[1])] = root
            diag.leaves.update(records)
            diag.block_ranks.update(ranks)
            merge_s += seconds
        # from here on the walk holds the only reference to each tile root
        del results, root
        diag.leaves = dict(sorted(diag.leaves.items()))
        leaf_s = sum(record.seconds for record in diag.leaves.values())
        # tasks that overlapped on a pool share its wall time
        scale = 1.0 if leaf_s + merge_s <= wall else wall / (leaf_s + merge_s)
        diag.leaf_seconds = scale * leaf_s

        t0 = time.perf_counter()
        root = _merge_subtree(roots, levels, 0, 0, config.tol, diag.block_ranks)
        diag.merge_seconds = scale * merge_s + time.perf_counter() - t0

    # the walk records ranks depth first; list them level by level, row by row
    diag.block_ranks = dict(sorted(diag.block_ranks.items()))
    return root.svd, diag


def _merge_subtree(blocks, level, i, j, tol, ranks):
    """Block (i, j) of ``level``, merged depth first from the BlockSVDs
    under it in ``blocks``, a dict keyed by (level, i, j) whose level-0
    entries hold raw leaf factors.

    The top pair of children is merged horizontally as soon as both exist,
    then the bottom pair, then the two halves vertically. Each
    block is taken out of ``blocks``, and each child released once merged,
    so the walk holds the unmerged blocks plus at most one partial
    root-to-leaf path. Merged blocks' ranks are recorded in ``ranks`` under
    (level, i, j).
    """
    block = blocks.pop((level, i, j), None)
    if block is not None:
        return block
    halves = []
    for row in (2 * i, 2 * i + 1):
        left = _merge_subtree(blocks, level - 1, row, 2 * j, tol, ranks)
        right = _merge_subtree(blocks, level - 1, row, 2 * j + 1, tol, ranks)
        halves.append(merge_pair_horizontal(left, right, tol))
        del left, right
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
