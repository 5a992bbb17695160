"""The SMO loop of ``shotsvm.solver.train`` as first written, kept as the
reference that the in-place implementation must reproduce bit for bit.

Each iteration adds rows of Q = (y y') o K to the gradient and rebuilds the
bias targets and their up/low masks from scratch, about twenty numpy calls per
iteration against the package's six array operations. Leave it as it is: it is
the specification, not a second implementation.
"""

from __future__ import annotations

import numpy as np

from shotsvm.errors import ConvergenceError
from shotsvm.kernels import KernelMatrix
from shotsvm.solver import CURVATURE_FLOOR, SV_TOL_SCALE, SvmModel, check_labels


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
