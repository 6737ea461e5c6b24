"""Low-rank compression of matrices defined by entry oracles.

Cross approximation with single or blocked pivots, hierarchical block
compression with truncated-SVD merges, kernel-matrix oracles, and a
benchmark CLI with dense-oracle verification.
"""

from .aca import (
    AcaConfig,
    ConvergenceHistory,
    IterationRecord,
    PivotBlock,
    aca_compress,
)
from .baca import BacaConfig, baca_compress, lrid, select_pivot_blocks
from .bessel import bessel_j0, bessel_y0
from .hmerge import (
    BlockSVD,
    CostModelParams,
    HBacaDiagnostics,
    LeafRecord,
    cost_model,
    hbaca_compress,
    merge_pair_horizontal,
    merge_pair_vertical,
)
from .kernels import (
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
    dense_oracle,
    kernel_oracle,
    load_dense_matrix,
    load_point_cloud,
    offdiag_oracle,
    product_of_random_oracle,
    random_cloud,
    strip_cloud,
)
from .linalg import (
    LowRankFactors,
    QRCPResult,
    TruncatedSVD,
    epsilon_rank,
    lr_norm,
    lr_norm_prefixes,
    lr_norm_update,
    lr_recompress,
    qrcp,
    truncated_svd,
)
from .seeding import block_seed, make_rng

__version__ = "0.1.0"
