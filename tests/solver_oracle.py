"""Independent checks the solver and sensitivity tests compare against.

The pattern-search dual solver shares nothing with the SMO update in
``shotsvm.solver``, so agreement between the two is meaningful. The pair-slot
formula and the bound-set rule are written out here from their definitions
rather than taken from the package.
"""

from __future__ import annotations

import numpy as np

from shotsvm.kernels import KernelMatrix
from shotsvm.solver import SvmModel


def pair_index(i: int, j: int, n: int) -> int:
    """Flat slot of the unordered pair {i, j} in the upper-triangle layout."""
    if i == j:
        raise ValueError(f"diagonal entry ({i},{i}) is exact and never stored")
    if i > j:
        i, j = j, i
    if i < 0 or j >= n:
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def bound_set(model: SvmModel) -> np.ndarray:
    """Indices of the dual coefficients pinned at the box bound C."""
    return np.flatnonzero(model.alpha >= model.c - model.sv_tol)


def dual_objective(alpha: np.ndarray, kernel: KernelMatrix, y: np.ndarray) -> float:
    v = np.asarray(alpha) * np.asarray(y)
    return float(np.sum(alpha) - 0.5 * (v @ kernel.entries @ v))


def brute_force_dual(kernel: KernelMatrix, y: np.ndarray, c: float,
                     grid: float = 1e-5, max_sweeps: int = 500):
    """Pattern search over the dual polytope, for cross-checking ``train``.

    Walks pairwise exchange directions (the only moves that keep the equality
    constraint) on a geometrically shrinking step grid, accepting a move only
    when the freshly evaluated objective strictly improves. No gradients, no
    curvature — deliberately nothing in common with the SMO update — so
    agreement between the two is meaningful. Small n only.

    Returns (alpha, objective).
    """
    y = np.asarray(y, dtype=np.float64)
    k = kernel.entries
    n = kernel.n

    def obj(a):
        v = a * y
        return float(a.sum() - 0.5 * (v @ k @ v))

    alpha = np.zeros(n)
    best = obj(alpha)
    h = c / 2.0
    floor = grid * c
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while h >= floor:
        for _ in range(max_sweeps):
            improved = False
            for i, j in pairs:
                for t in (1.0, -1.0):
                    u_i = t * y[i]
                    u_j = -t * y[j]
                    head_i = (c - alpha[i]) if u_i > 0 else alpha[i]
                    head_j = (c - alpha[j]) if u_j > 0 else alpha[j]
                    step = min(h, head_i, head_j)
                    if step <= 0.0:
                        continue
                    ai0, aj0 = alpha[i], alpha[j]
                    alpha[i] = ai0 + step * u_i
                    alpha[j] = aj0 + step * u_j
                    cand = obj(alpha)
                    if cand > best + 1e-14:
                        best = cand
                        improved = True
                    else:
                        alpha[i], alpha[j] = ai0, aj0
            if not improved:
                break
        h /= 2.0
    return alpha, best
