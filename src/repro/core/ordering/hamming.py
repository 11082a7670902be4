"""Pairwise column Hamming distances of the zero-padded EBM (Algorithm 1).

The distance between columns ``a`` and ``b`` of the padded matrix
``C = [0 | B]`` is the number of rows where they differ, so the whole
clique is ``D = C^T (U − C) + (U − C)^T C`` — one integer matmul. The
padding column turns the TSP *path* problem into a *tour* problem while
preserving approximation quality. (The paper partitions the rows across
workers and sums the partial matrices on one of them; the sum is the same
matrix, so the partition is not reproduced.)
"""

from __future__ import annotations

import numpy as np


def hamming_distance_matrix(matrix: np.ndarray) -> np.ndarray:
    """Return the (k+1)x(k+1) distance matrix of ``[0 | matrix]`` columns.

    Column 0 of the result corresponds to the padded all-zero column; the
    remaining indices are the views shifted by one.
    """
    m, k = matrix.shape
    padded = np.zeros((m, k + 1), dtype=np.int64)
    padded[:, 1:] = matrix.astype(np.int64)
    complement = 1 - padded
    return padded.T @ complement + complement.T @ padded
