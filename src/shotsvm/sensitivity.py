"""How the trained margin and decisions respond to kernel-entry error, and the
per-entry scores that steer the next round of measurement.

The squared margin ||w||^2 = sum_ij alpha_i alpha_j y_i y_j K_ij is locally
linear in each entry while the dual coefficients stay put, so the influence of
entry (i, j) is just alpha_i alpha_j y_i y_j. Points near the margin get an
uncertainty treatment: the decision value f_i inherits variance from every
estimated entry in its row, and the probability the point sits on the wrong
side of its margin condition is a Gaussian tail of the margin residual.

Shot scores mix the two signals — exploitation of proven influence and
exploration of potential support flips — then damp entries whose Bernoulli
rate is already pinned near 0 or 1, where extra shots buy little variance.

The Gaussian tail comes from the C library's ``erfc`` through ``math.erfc``,
so importing the package does not import SciPy.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KernelMatrix, MeasurementLedger, condense, expand
from .solver import SvmModel, decision_values


def margin_gradient(model: SvmModel) -> np.ndarray:
    """Influence alpha_i alpha_j y_i y_j of each upper-triangle entry on ||w||^2."""
    beta = model.beta
    return condense(np.outer(beta, beta))


def margin_residuals(model: SvmModel, kernel: KernelMatrix) -> np.ndarray:
    """delta_i = y_i f_i - 1; zero on the margin, negative on the wrong side of it."""
    return model.labels * decision_values(model, kernel) - 1.0


def decision_variance(model: SvmModel, entry_variances: np.ndarray) -> np.ndarray:
    """Var(f_i) from per-entry estimator variances (flat pair vector).

    The diagonal is exact and contributes nothing; each off-diagonal entry
    (i, j) feeds row i with weight (alpha_j y_j)^2 = alpha_j^2.
    """
    n = len(model.alpha)
    v = expand(np.asarray(entry_variances, dtype=np.float64), n, diag=0.0)
    return v @ (model.alpha**2)


def sv_transition_prob(delta, sigma_f):
    """P(margin condition flips) = Phi(-delta / sigma_f), elementwise.

    Phi(x) = erfc(-x / sqrt(2)) / 2, with ``math.erfc`` (the C library's erfc)
    on each element. With sigma_f = 0 the Gaussian collapses to the indicator
    of delta <= 0.
    """
    delta, sigma = np.broadcast_arrays(np.asarray(delta, dtype=np.float64),
                                       np.asarray(sigma_f, dtype=np.float64))
    if (sigma < 0).any():
        raise ValueError("sigma_f must be nonnegative")
    sqrt1_2 = math.sqrt(0.5)
    p = np.array([0.5 * math.erfc(d / s * sqrt1_2) if s > 0 else float(d <= 0)
                  for d, s in zip(delta.ravel().tolist(), sigma.ravel().tolist())])
    p = p.reshape(delta.shape)
    return p if p.ndim else float(p)


def allocation_scores(model: SvmModel, ledger: MeasurementLedger,
                      transition_probs: np.ndarray, lam: float):
    """Per-entry shot scores; returns (scores, used_fallback).

    score_ij = [(1-lam) |alpha_i alpha_j y_i y_j| + lam P_i P_j C^2] * sqrt(p(1-p))

    with p the smoothed ledger rate. If every score vanishes (e.g. lam = 1 and
    no point is near its margin) the caller gets uniform scores and a flag.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
    p_t = np.asarray(transition_probs, dtype=np.float64)
    exploit = np.abs(margin_gradient(model))
    explore = condense(np.outer(p_t, p_t)) * model.c**2
    s = (1.0 - lam) * exploit + lam * explore
    rate = ledger.smoothed()
    scores = s * np.sqrt(rate * (1.0 - rate))
    if not (scores > 0.0).any():
        return np.ones_like(scores), True
    return scores, False
