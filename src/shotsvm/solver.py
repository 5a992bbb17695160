"""Soft-margin kernel SVM trained directly on a (possibly noisy) Gram matrix.

The dual problem

    max_alpha  sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
    s.t.       0 <= alpha_i <= C,   sum_i alpha_i y_i = 0

is solved by sequential minimal optimization with maximal-violating-pair
selection. Estimated kernels arriving here can be indefinite; the two-variable
subproblem floors its curvature at 1e-12 so steps stay finite and get clipped
to the box, which is the standard way to keep SMO moving on such matrices.

The bias comes from the mean KKT target over free support vectors when any
exist, otherwise from the midpoint of the interval of biases consistent with
the box-bound KKT conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateProblemError
from .kernels import KernelMatrix

CURVATURE_FLOOR = 1e-12
SV_TOL_SCALE = 1e-8  # support/free membership cutoff, relative to C


@dataclass
class SvmModel:
    alpha: np.ndarray
    labels: np.ndarray
    b: float
    c: float
    n_iter: int
    kkt_violation: float = 0.0

    @property
    def sv_tol(self) -> float:
        return SV_TOL_SCALE * self.c

    @property
    def support_set(self) -> np.ndarray:
        return np.flatnonzero(self.alpha > self.sv_tol)

    @property
    def bound_set(self) -> np.ndarray:
        return np.flatnonzero(self.alpha >= self.c - self.sv_tol)

    @property
    def beta(self) -> np.ndarray:
        """Signed dual weights alpha_i * y_i."""
        return self.alpha * self.labels


def check_labels(y: np.ndarray) -> np.ndarray:
    """Labels as floats; raises unless they are +/-1 with both classes present."""
    y = np.asarray(y, dtype=np.float64)
    vals = set(np.unique(y).tolist())
    if not vals <= {-1.0, 1.0}:
        raise ValueError(f"labels must be +/-1, got values {sorted(vals)}")
    if len(vals) < 2:
        raise DegenerateProblemError("training data contains a single class")
    return y


def train(kernel: KernelMatrix, y: np.ndarray, c: float = 1.0,
          kkt_tol: float = 1e-6, max_iter: int | None = None) -> SvmModel:
    """SMO with maximal-violating-pair selection on a precomputed kernel."""
    y = check_labels(y)
    n = kernel.n
    if len(y) != n:
        raise ValueError(f"{len(y)} labels for an n={n} kernel")
    if c <= 0:
        raise ValueError("c must be positive")
    if max_iter is None:
        max_iter = 100_000 * n

    k = kernel.entries
    q = (y[:, None] * y[None, :]) * k
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the minimization form 1/2 a'Qa - sum a

    pos = y > 0
    m_val = mm_val = 0.0
    it = 0
    while True:
        target = -y * grad  # the bias each point would demand on the margin
        up = (pos & (alpha < c)) | (~pos & (alpha > 0))
        low = (~pos & (alpha < c)) | (pos & (alpha > 0))
        t_up = np.where(up, target, -np.inf)
        t_low = np.where(low, target, np.inf)
        i = int(np.argmax(t_up))
        j = int(np.argmin(t_low))
        m_val = t_up[i]
        mm_val = t_low[j]
        if m_val - mm_val <= kkt_tol:
            break
        if it >= max_iter:
            raise ConvergenceError(f"no convergence in {max_iter} iterations",
                                   violation=m_val - mm_val)
        it += 1

        ai_old, aj_old = alpha[i], alpha[j]
        quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if quad <= 0.0:
            quad = CURVATURE_FLOOR
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = ai_old - aj_old
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0.0:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = diff
                if alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = c - diff
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
                if alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = c + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = ai_old + aj_old
            alpha[i] -= delta
            alpha[j] += delta
            if total > c:
                if alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = total - c
                if alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = total - c
            else:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = total
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = total

        d_i = alpha[i] - ai_old
        d_j = alpha[j] - aj_old
        if d_i != 0.0 or d_j != 0.0:
            grad += q[i] * d_i + q[j] * d_j

    sv_tol = SV_TOL_SCALE * c
    target = -y * grad
    free = (alpha > sv_tol) & (alpha < c - sv_tol)
    if np.any(free):
        b = float(target[free].mean())
    else:
        b = float((m_val + mm_val) / 2.0)

    return SvmModel(alpha=alpha, labels=y, b=b, c=c, n_iter=it,
                    kkt_violation=float(max(m_val - mm_val, 0.0)))


def decision_values(model: SvmModel, kernel: KernelMatrix) -> np.ndarray:
    """f_i = sum_j alpha_j y_j K_ij + b on any kernel over the same points."""
    return kernel.entries @ model.beta + model.b


def margin_norm(model: SvmModel, kernel: KernelMatrix) -> float:
    """sqrt(beta' K beta); floored at zero since indefinite estimates can push
    the quadratic form slightly negative."""
    beta = model.beta
    return float(np.sqrt(max(beta @ kernel.entries @ beta, 0.0)))


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
