"""Pair conversions of ``shotsvm.kernels`` as first written, kept as the
reference that its boolean-mask, block-wise implementation must reproduce bit
for bit.

They index the matrix with the row and column arrays of
``np.triu_indices(n, 1)`` (2-D fancy indexing) and fill the diagonal with
``np.fill_diagonal``. Leave them as they are: they are the specification, not
a second implementation.
"""

from __future__ import annotations

import numpy as np


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays aligned with the flat pair layout."""
    return np.triu_indices(n, k=1)


def condense(matrix: np.ndarray) -> np.ndarray:
    """Strict upper triangle of a square matrix as a flat vector."""
    matrix = np.asarray(matrix)
    return matrix[pair_indices(matrix.shape[0])]


def expand(vec: np.ndarray, n: int, diag=0.0) -> np.ndarray:
    """Symmetric full matrix from a flat pair vector, with the given diagonal."""
    out = np.zeros((n, n))
    iu, ju = pair_indices(n)
    out[iu, ju] = vec
    out[ju, iu] = vec
    np.fill_diagonal(out, diag)
    return out
