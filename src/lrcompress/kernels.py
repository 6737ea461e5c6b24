"""Entry oracles for implicitly defined matrices.

An entry oracle exposes a matrix only through on-demand element evaluation:
shape, scalar kind and a pure ``element(i, j)`` (plus a vectorized ``block``
used by the compressors). Oracles here cover the kernel matrices used in the
benchmarks (Gaussian, polynomial, 2-d Hankel), products of random factors,
dense arrays and file-backed data, together with point-cloud generation and
ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# bessel_j0 and bessel_y0 stay importable from this module, where perfbench's
# tracer patches them; the Hankel kernel calls the fused hankel2_0
from .bessel import bessel_j0, bessel_y0, hankel2_0  # noqa: F401
from .seeding import make_rng

__all__ = [
    "GeometryError",
    "PointFileError",
    "PointCloud",
    "GaussianKernel",
    "PolynomialKernel",
    "Hankel2DKernel",
    "EntryOracle",
    "DenseOracle",
    "KernelOracle",
    "LowRankProductOracle",
    "SubblockOracle",
    "random_cloud",
    "strip_cloud",
    "load_point_cloud",
    "load_dense_matrix",
    "kernel_oracle",
    "offdiag_oracle",
    "product_of_random_oracle",
    "dense_oracle",
    "full_range",
]


class GeometryError(ValueError):
    """Kernel evaluated at an invalid geometric configuration."""


class PointFileError(ValueError):
    """Malformed point/matrix text file; message names the offending line."""


def _checked_2d(a, name, dtype=None):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {a.shape}")
    return a


def _checked_points(a, name):
    """``a`` as a float64 array of points, one per row: 2-d, with at least
    one coordinate, all finite."""
    pts = _checked_2d(a, name, np.float64)
    if pts.shape[1] == 0:
        raise ValueError(f"{name} must have at least one coordinate")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} coordinates must be finite")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Fixed-dimension feature vectors, one per row of ``points``."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_points(self.points, "points"))

    @property
    def count(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def random_cloud(count, dim, seed):
    """i.i.d. uniform[0, 1) cloud from the seeded generator."""
    if count <= 0 or dim <= 0:
        raise ValueError("count and dim must be positive")
    return PointCloud(make_rng(seed).random((count, dim)))


def strip_cloud(wavenumber, points_per_wavelength):
    """Two parallel unit-length 2-d strips at distance 1, sampled uniformly.

    The per-strip point count is ``round(ppw * wavenumber / (2 pi))``, i.e.
    ``points_per_wavelength`` samples per wavelength ``2 pi / wavenumber``.
    Strip points come first for the first strip, then the second, so the
    cloud splits at its midpoint for off-diagonal blocks.
    """
    if wavenumber <= 0.0:
        raise ValueError("wavenumber must be positive")
    if points_per_wavelength <= 0:
        raise ValueError("points_per_wavelength must be positive")
    per_strip = int(round(points_per_wavelength * wavenumber / (2.0 * np.pi)))
    per_strip = max(per_strip, 1)
    t = (np.arange(per_strip) + 0.5) / per_strip
    strip0 = np.column_stack([t, np.zeros(per_strip)])
    strip1 = np.column_stack([t, np.ones(per_strip)])
    return PointCloud(np.vstack([strip0, strip1]))


def _parse_table(path):
    rows = []
    arity = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p for p in text.replace(",", " ").split() if p]
            if not parts:
                raise PointFileError(f"{path}:{lineno}: no values")
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                raise PointFileError(
                    f"{path}:{lineno}: expected {arity} values, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise PointFileError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise PointFileError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def load_point_cloud(path):
    """Read a whitespace/comma separated point file (one point per line,
    ``#`` comment lines allowed)."""
    return PointCloud(_parse_table(path))


def load_dense_matrix(path):
    """Read a dense matrix in the same text format (one row per line)."""
    a = _parse_table(path)
    if not np.isfinite(a).all():
        raise PointFileError(f"{path}: non-finite entries")
    return a


class _Kernel:
    """Kernel functions evaluate blocks, ``block(xr, xc)`` over the rows of
    two point arrays; ``element`` is the 1 x 1 block, so the scalar and the
    vectorized paths cannot drift apart."""

    def element(self, xi, xj):
        return self.block(np.asarray(xi)[None, :], np.asarray(xj)[None, :])[0, 0].item()


@dataclass(frozen=True)
class GaussianKernel(_Kernel):
    """exp(-||xi - xj||^2 / (2 h^2)) with width h."""

    width: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError("Gaussian width must be positive")

    dtype = np.float64

    def block(self, xr, xc):
        sq = _pairwise_sq(xr, xc)
        return np.exp(-sq / (2.0 * self.width**2))


@dataclass(frozen=True)
class PolynomialKernel(_Kernel):
    """(xi . xj + h)^2 with regularization h."""

    shift: float

    dtype = np.float64

    def block(self, xr, xc):
        return (xr @ xc.T + self.shift) ** 2


@dataclass(frozen=True)
class Hankel2DKernel(_Kernel):
    """Order-zero second-kind Hankel function of k * distance,
    J0(kr) - i Y0(kr); coincident points are rejected."""

    wavenumber: float

    def __post_init__(self):
        if self.wavenumber <= 0.0:
            raise ValueError("wavenumber must be positive")

    dtype = np.complex128

    def block(self, xr, xc):
        kr = _pairwise_sq(xr, xc)
        if (kr == 0.0).any():
            raise GeometryError("coincident points in Hankel kernel")
        np.sqrt(kr, out=kr)
        kr *= self.wavenumber
        return hankel2_0(kr)


def _pairwise_sq(xr, xc):
    # summed squared per-coordinate differences: exactly 0 for coincident
    # points, where ||a||^2 + ||b||^2 - 2 a.b leaves a rounding residue
    sq = np.subtract.outer(xr[:, 0], xc[:, 0]) ** 2
    for k in range(1, xr.shape[1]):
        sq += np.subtract.outer(xr[:, k], xc[:, k]) ** 2
    return sq


# (lo, hi) -> the shared read-only np.arange(lo, hi) of _index_run. The
# bound holds the row and column runs of 32 x 32 leaves and the full ranges;
# a run dropped from it is still served, after a scan.
_RUNS = {}
_RUNS_KEPT = 128


def _index_run(lo, hi):
    """``np.arange(lo, hi)`` as one shared read-only array per run.

    ``_as_run`` recognizes a shared run by identity in O(1), where any
    other run costs a pass over its entries. To a custom oracle it is a
    plain integer array.
    """
    idx = _RUNS.get((lo, hi))
    if idx is None:
        if len(_RUNS) >= _RUNS_KEPT:
            _RUNS.clear()
        idx = np.arange(lo, hi)
        idx.flags.writeable = False
        _RUNS[lo, hi] = idx
    return idx


def full_range(extent):
    """``np.arange(extent)`` as a shared run; the sweeps ask for whole rows
    and columns with it."""
    return _index_run(0, extent)


def _as_run(idx, extent):
    """``slice(lo, hi)`` when ``idx`` is a 1-d integer array holding the
    ascending run lo, lo+1, ..., hi-1 with 0 <= lo and hi <= extent;
    otherwise ``idx`` as an array, for fancy indexing with its usual
    shape and IndexError semantics. A shared ``_index_run`` is recognized
    by identity, without reading more than its ends."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        return idx
    lo = int(idx[0])
    hi = int(idx[-1]) + 1
    # O(1) rejections first: only a candidate run that is not a shared one
    # pays for the diff
    if lo < 0 or hi > extent or hi - lo != idx.size:
        return idx
    if idx is not _RUNS.get((lo, hi)) and idx.size > 2 and not (np.diff(idx) == 1).all():
        return idx
    return slice(lo, hi)


class EntryOracle:
    """Implicit matrix: shape, dtype and a pure per-entry evaluator.

    ``block(row_idx, col_idx)`` is the vectorized access path used by the
    compressors. It receives 1-d integer index arrays, which it must not
    write to, and returns the (len(row_idx), len(col_idx)) block as an
    array the caller owns and may overwrite. The compressors ask for whole
    rows and columns as the shared ``full_range`` arrays; the oracles here
    serve an ascending contiguous run by slicing instead of gathering (a
    shared run recognized in O(1); a subblock passes a whole-range request
    on to its base as such a run), and a custom oracle can do the same.
    The base implementation loops over ``element``, so a custom oracle may
    define ``element`` alone; the built-in oracles define ``block`` alone
    and take ``element`` as its 1 x 1 block, so the two paths cannot give
    different values. Instances are immutable after construction, and
    ``block`` may be called from several threads at once: H-BACA's tile
    tasks share one oracle.
    """

    rows: int
    cols: int
    dtype: np.dtype

    def element(self, i, j):
        raise NotImplementedError

    def block(self, row_idx, col_idx):
        row_idx = np.asarray(row_idx)
        col_idx = np.asarray(col_idx)
        out = np.empty((row_idx.size, col_idx.size), dtype=self.dtype)
        for a, i in enumerate(row_idx):
            for b, j in enumerate(col_idx):
                out[a, b] = self.element(int(i), int(j))
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def dense(self):
        """Materialize the full matrix (tests and verification only)."""
        return self.block(full_range(self.rows), full_range(self.cols))

    def subblock(self, row_lo, row_hi, col_lo, col_hi):
        return SubblockOracle(self, row_lo, row_hi, col_lo, col_hi)


class _BlockOracle(EntryOracle):
    """Base of the built-in oracles: ``element`` is the 1 x 1 ``block``."""

    def element(self, i, j):
        return self.block(np.array([i]), np.array([j]))[0, 0]


class DenseOracle(_BlockOracle):
    """Oracle over an explicitly stored matrix."""

    def __init__(self, matrix):
        a = _checked_2d(matrix, "matrix")
        if a.dtype.kind not in "biufc":
            raise TypeError(f"matrix must be numeric, got dtype {a.dtype}")
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        self.matrix = a
        self.rows, self.cols = a.shape
        self.dtype = a.dtype

    def block(self, row_idx, col_idx):
        rs, cs = _as_run(row_idx, self.rows), _as_run(col_idx, self.cols)
        if not (isinstance(rs, slice) or isinstance(cs, slice)):
            return self.matrix[np.ix_(rs, cs)]
        out = self.matrix[rs, cs]
        # a view would let the caller write into the stored matrix
        return out.copy() if np.may_share_memory(out, self.matrix) else out


class KernelOracle(_BlockOracle):
    """Kernel matrix between a row cloud and a column cloud."""

    def __init__(self, kernel, row_points, col_points):
        rp = _checked_points(row_points, "row_points")
        cp = _checked_points(col_points, "col_points")
        if rp.shape[1] != cp.shape[1]:
            raise ValueError("row/column point dimensions disagree")
        self.kernel = kernel
        self.row_points = rp
        self.col_points = cp
        self.rows = rp.shape[0]
        self.cols = cp.shape[0]
        self.dtype = np.dtype(kernel.dtype)

    def block(self, row_idx, col_idx):
        return self.kernel.block(
            self.row_points[_as_run(row_idx, self.rows)],
            self.col_points[_as_run(col_idx, self.cols)],
        )


class LowRankProductOracle(_BlockOracle):
    """Oracle for an exact low-rank product u @ v with stored factors."""

    def __init__(self, u, v):
        self.u = _checked_2d(u, "u")
        self.v = _checked_2d(v, "v")
        if self.u.shape[1] != self.v.shape[0]:
            raise ValueError("inner dimensions disagree")
        self.rows = self.u.shape[0]
        self.cols = self.v.shape[1]
        self.dtype = np.result_type(self.u, self.v)

    @property
    def inner_rank(self):
        return self.u.shape[1]

    def block(self, row_idx, col_idx):
        # a column gather comes back column-major, which BLAS multiplies in
        # another order than a slice: make v's block row-major either way so
        # the values never depend on which path served the indices
        v = np.ascontiguousarray(self.v[:, _as_run(col_idx, self.cols)])
        return self.u[_as_run(row_idx, self.rows), :] @ v


class SubblockOracle(_BlockOracle):
    """Contiguous rectangular restriction of another oracle. Indices are
    relative to the subblock, with the semantics of ``DenseOracle``:
    entries in [-rows, rows) (columns likewise) wrap, anything else
    raises IndexError instead of reaching outside the subblock."""

    def __init__(self, base, row_lo, row_hi, col_lo, col_hi):
        if not (0 <= row_lo <= row_hi <= base.rows):
            raise ValueError("row range out of bounds")
        if not (0 <= col_lo <= col_hi <= base.cols):
            raise ValueError("column range out of bounds")
        self.base = base
        # base indices of the subblock's rows and columns, as shared runs;
        # indexing them wraps and bounds-checks like a dense array
        self.row_index = _index_run(row_lo, row_hi)
        self.col_index = _index_run(col_lo, col_hi)
        self.rows = row_hi - row_lo
        self.cols = col_hi - col_lo
        self.dtype = base.dtype

    def block(self, row_idx, col_idx):
        return self.base.block(_restrict(self.row_index, row_idx),
                               _restrict(self.col_index, col_idx))


def _restrict(run, idx):
    # the entries idx of a subblock's shared run: a whole-range request
    # forwards the run itself, which the base recognizes in O(1)
    return run if idx is _RUNS.get((0, run.size)) else run[idx]


def kernel_oracle(kernel, cloud):
    """Full symmetric kernel matrix over one cloud."""
    return KernelOracle(kernel, cloud.points, cloud.points)


def offdiag_oracle(kernel, cloud):
    """n x n off-diagonal block of the kernel matrix of a 2n-point cloud:
    rows from the first n points, columns from the second n."""
    if cloud.count % 2 != 0:
        raise ValueError(f"off-diagonal oracle needs an even point count, got {cloud.count}")
    n = cloud.count // 2
    return KernelOracle(kernel, cloud.points[:n], cloud.points[n:])


def product_of_random_oracle(n, inner_rank, seed):
    """Product of two seeded i.i.d. standard-normal factors (n x r)(r x n);
    the implicit matrix has exact rank ``inner_rank`` almost surely."""
    if not 1 <= inner_rank <= n:
        raise ValueError(f"inner rank must be in [1, {n}], got {inner_rank}")
    rng = make_rng(seed)
    u = rng.standard_normal((n, inner_rank))
    v = rng.standard_normal((inner_rank, n))
    return LowRankProductOracle(u, v)


def dense_oracle(matrix):
    return DenseOracle(matrix)
