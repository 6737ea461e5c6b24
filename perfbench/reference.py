"""Fixed numpy workload that measures how fast the machine is right now.

Run as a helper process by run.py, started before lrcompress is imported,
so nothing the library does to its own process (BLAS threads, environment)
reaches it:

    python3 perfbench/reference.py

Each line read from stdin runs the workload once and answers with its wall
seconds on stdout; end of input ends the process. The mix covers what the
compressors spend their time on: threaded LAPACK on complex and real
matrices, transcendental element-wise maths, row/column gathers through a
matrix product, and a Python loop over small array operations.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# Working sets of tens of MB, beyond the last-level cache as the
# compressors' factors are, so memory contention from other tenants shows.
rng = np.random.default_rng(0)
QR_IN = rng.standard_normal((3072, 192)) + 1j * rng.standard_normal((3072, 192))
SVD_IN = rng.standard_normal((384, 384))
WAVE = rng.uniform(1.0, 50.0, size=1 << 21)
U = rng.standard_normal((8192, 256))
V = rng.standard_normal((256, 8192))
GATHERS = [(np.sort(rng.choice(8192, 64, replace=False)),
            np.sort(rng.choice(8192, 8192, replace=True))) for _ in range(8)]
SMALL = rng.standard_normal((256, 32))


def workload():
    np.linalg.qr(QR_IN)
    np.linalg.svd(SVD_IN)
    np.exp(1j * WAVE) / np.sqrt(WAVE)
    for rows, cols in GATHERS:
        U[rows] @ V[:, cols]
    norms = np.einsum("ij,ij->j", SMALL, SMALL)
    for _ in range(1500):
        j = int(np.argmax(norms))
        norms = norms - SMALL[j % 256] ** 2 * 1e-6
        norms[j] = abs(norms[j])


def main():
    workload()  # warm: first-touch pages, BLAS thread start
    for _ in sys.stdin:
        t0 = time.perf_counter()
        workload()
        print(time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
