"""Soft-margin kernel SVM trained directly on a (possibly noisy) Gram matrix.

The dual problem

    max_alpha  sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
    s.t.       0 <= alpha_i <= C,   sum_i alpha_i y_i = 0

is solved by sequential minimal optimization with maximal-violating-pair
selection. Estimated kernels arriving here are indefinite in practice (every
adaptive-round estimate measured at nbar = 50 was), so the dual is nonconvex:
the solver returns the stationary point that its path from alpha = 0 reaches,
and another start can end elsewhere on the same kernel. A round's model is
therefore a property of this solver path. The two-variable subproblem floors
its curvature at 1e-12 so steps stay finite and get clipped to the box, which
is the standard way to keep SMO moving on such matrices.

Each iteration costs a handful of vector operations. The bias target
t = -y * grad of a point is the bias it would demand on the margin. One 2 x n
array holds t masked to the up set (-inf outside) and -t masked to the low set
(-inf outside), so a single argmax along its rows picks the maximal violating
pair. A step vector K[i] * (y_i d_i) + K[j] * (y_j d_j) is subtracted from the
first row and added to the second in place. Only i and j can change set, and
only when their alpha moves onto or off a bound, so only then are their masked
entries rewritten. Every point is in at least one set (C > 0), and the step has
already updated its entry there, so that entry gives the new target. The
two-variable step itself runs on Python floats.

This is the textbook loop that adds rows of Q = (y y') o K to the gradient
and rebuilds the targets and masks every iteration (kept in
tests/smo_reference.py), bit for bit up to the sign of an exact zero. Q
differs from K only in sign and round-to-nearest commutes with negation, so
every updated target, and every negated one, has the same value, and -inf plus
or minus a finite step stays -inf, so the masks hold. A zero compares equal to
its negation in argmax and every branch, so alpha and the iteration count are
identical. Targets built by subtraction from +/-1 are never -0.0, and the
second row is read back as 0.0 - v, which is -v except that a zero reads +0.0,
so b and the reported violation are never -0.0; the textbook loop can report
-0.0 where they are 0.0. All of this needs finite entries, which ``train``
enforces: it rejects a kernel with a NaN or infinite entry before the loop,
on which the loop would otherwise run to its iteration cap.

The bias comes from the mean KKT target over free support vectors when any
exist (read from the first row: free points are in both sets), otherwise from
the midpoint of the interval of biases consistent with the box-bound KKT
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

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
    def beta(self) -> np.ndarray:
        """Signed dual weights alpha_i * y_i."""
        return self.alpha * self.labels


def check_labels(y: np.ndarray) -> np.ndarray:
    """Labels as floats; raises unless they are +/-1 with both classes present."""
    y = np.asarray(y, dtype=np.float64)
    # Masks, not np.unique: np.unique imports numpy.ma on its first call,
    # which would then sit under a trial's peak memory.
    positive = y == 1.0
    negative = y == -1.0
    if not (positive | negative).all():
        vals = set(np.unique(y).tolist())
        raise ValueError(f"labels must be +/-1, got values {sorted(vals)}")
    if not (positive.any() and negative.any()):
        raise ValueError("training data contains a single class")
    return y


def _change_sets(targets: np.ndarray, p: int, positive: bool, a_old: float,
                 a_new: float, c: float) -> None:
    """Rewrite point p's masked targets after its alpha moved onto or off a bound.

    The up set holds positive points below C and negative points above 0, the
    low set the other way round.
    """
    below_old, above_old = a_old < c, a_old > 0.0
    below_new, above_new = a_new < c, a_new > 0.0
    if positive:
        up_old, low_old, up_new, low_new = below_old, above_old, below_new, above_new
    else:
        up_old, low_old, up_new, low_new = above_old, below_old, above_new, below_new
    # p was in at least one set, whose entry the step has already updated
    t_p = targets.item(0, p) if up_old else 0.0 - targets.item(1, p)
    if up_new != up_old:
        targets[0, p] = t_p if up_new else -np.inf
    if low_new != low_old:
        targets[1, p] = -t_p if low_new else -np.inf


def train(kernel: np.ndarray, y: np.ndarray, c: float = 1.0,
          kkt_tol: float = 1e-6, max_iter: int | None = None) -> SvmModel:
    """SMO with maximal-violating-pair selection on a precomputed kernel."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"kernel must be square, got shape {k.shape}")
    y = check_labels(y)
    n = len(k)
    if len(y) != n:
        raise ValueError(f"{len(y)} labels for an n={n} kernel")
    if c <= 0:
        raise ValueError("c must be positive")
    if not np.isfinite(k).all():
        raise ValueError("kernel entries must be finite")
    if max_iter is None:
        max_iter = 100_000 * n

    rows = list(k)  # row views, bound once: k[i] builds a new view on every call
    y_list = y.tolist()
    diag = k.diagonal().tolist()
    cf = float(c)  # c may be an int; alpha must stay floats
    alpha = [0.0] * n
    # Row 0 is the bias target over the up set and row 1 its negation over the
    # low set, -inf elsewhere in both. grad starts at -1, so the targets start
    # at y; at alpha = 0 the up set is the positive points and the low set the
    # negative ones.
    targets = np.empty((2, n))
    targets[0] = np.where(y > 0, y, -np.inf)
    targets[1] = np.where(y > 0, -np.inf, -y)
    t_up, t_nlow = targets
    step = np.empty(n)
    step_j = np.empty(n)
    # 0-d operands: numpy converts a Python float operand on every call, which
    # at these sizes costs more than the multiplication itself
    yd_i = np.empty(())
    yd_j = np.empty(())

    m_val = mm_val = 0.0
    it = 0
    while True:
        i, j = targets.argmax(axis=1).tolist()
        m_val = t_up.item(i)
        mm_val = 0.0 - t_nlow.item(j)  # as -t_nlow[j], but a zero reads +0.0
        if m_val - mm_val <= kkt_tol:
            break
        if it >= max_iter:
            raise ConvergenceError(max_iter, m_val - mm_val)
        it += 1

        y_i, y_j = y_list[i], y_list[j]
        g_i, g_j = -y_i * m_val, -y_j * mm_val  # grad = -y * t, exactly
        ai_old, aj_old = alpha[i], alpha[j]
        a_i, a_j = ai_old, aj_old
        quad = diag[i] + diag[j] - 2.0 * k.item(i, j)
        if quad <= 0.0:
            quad = CURVATURE_FLOOR
        if y_i != y_j:
            delta = (-g_i - g_j) / quad
            diff = ai_old - aj_old
            a_i += delta
            a_j += delta
            if diff > 0.0:
                if a_j < 0.0:
                    a_j = 0.0
                    a_i = diff
                if a_i > cf:
                    a_i = cf
                    a_j = cf - diff
            else:
                if a_i < 0.0:
                    a_i = 0.0
                    a_j = -diff
                if a_j > cf:
                    a_j = cf
                    a_i = cf + diff
        else:
            delta = (g_i - g_j) / quad
            total = ai_old + aj_old
            a_i -= delta
            a_j += delta
            if total > cf:
                if a_i > cf:
                    a_i = cf
                    a_j = total - cf
                if a_j > cf:
                    a_j = cf
                    a_i = total - cf
            else:
                if a_j < 0.0:
                    a_j = 0.0
                    a_i = total
                if a_i < 0.0:
                    a_i = 0.0
                    a_j = total
        alpha[i], alpha[j] = a_i, a_j

        d_i = a_i - ai_old
        d_j = a_j - aj_old
        if d_i != 0.0 or d_j != 0.0:
            yd_i[()] = y_i * d_i
            yd_j[()] = y_j * d_j
            np.multiply(rows[i], yd_i, out=step)
            np.multiply(rows[j], yd_j, out=step_j)
            step += step_j
            t_up -= step
            t_nlow += step
            # i and j change set only when their alpha moves onto or off a bound
            if (ai_old < cf) != (a_i < cf) or (ai_old > 0.0) != (a_i > 0.0):
                _change_sets(targets, i, y_i > 0, ai_old, a_i, cf)
            if (aj_old < cf) != (a_j < cf) or (aj_old > 0.0) != (a_j > 0.0):
                _change_sets(targets, j, y_j > 0, aj_old, a_j, cf)

    alpha = np.array(alpha)
    sv_tol = SV_TOL_SCALE * c
    free = (alpha > sv_tol) & (alpha < c - sv_tol)
    if free.any():
        b = float(t_up[free].mean())
    else:
        b = float((m_val + mm_val) / 2.0)

    return SvmModel(alpha=alpha, labels=y, b=b, c=c, n_iter=it,
                    kkt_violation=float(max(m_val - mm_val, 0.0)))


def decision_values(model: SvmModel, kernel: np.ndarray) -> np.ndarray:
    """f_i = sum_j alpha_j y_j K_ij + b on any kernel over the same points."""
    return kernel @ model.beta + model.b


def margin_norm(model: SvmModel, kernel: np.ndarray) -> float:
    """sqrt(beta' K beta), with the form floored at zero, for a PSD kernel such
    as the clean one of ``Reference.of``. On an indefinite estimate the form can
    be far below zero (-16.0 against a clean ||w||^2 of 12.9 on one n = 400
    estimate), so ``metrics.compute_bundle`` signs the root instead."""
    beta = model.beta
    return float(np.sqrt(max(beta @ kernel @ beta, 0.0)))
