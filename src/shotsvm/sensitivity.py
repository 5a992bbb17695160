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

from .kernels import estimator_variance, expand, pair_blocks, pair_products, smoothed_rates
from .solver import SvmModel, decision_values


def margin_gradient(model: SvmModel) -> np.ndarray:
    """Influence alpha_i alpha_j y_i y_j of each upper-triangle entry on ||w||^2."""
    return pair_products(model.beta)


def margin_residuals(model: SvmModel, kernel: np.ndarray) -> np.ndarray:
    """delta_i = y_i f_i - 1; zero on the margin, negative on the wrong side of it."""
    return model.labels * decision_values(model, kernel) - 1.0


def decision_variance(model: SvmModel, successes: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Var(f_i) from the running per-pair success and shot totals (flat pair vectors).

    Each off-diagonal entry (i, j) has the estimator variance of its shot
    count at its add-one smoothed rate and feeds row i with weight
    (alpha_j y_j)^2 = alpha_j^2; the diagonal is exact and contributes nothing.
    The variances are computed and written a block of pairs at a time, so no
    pair vector of rates or variances is built. Every count must be positive.
    """
    def variances(pairs):
        n_shots = shots[pairs]
        return estimator_variance(smoothed_rates(successes[pairs], n_shots), n_shots)

    v = expand(variances, len(model.alpha))
    return v @ (model.alpha**2)


def sv_transition_prob(delta: np.ndarray, sigma_f: np.ndarray) -> np.ndarray:
    """P(margin condition flips) = Phi(-delta / sigma_f) for two equal-length arrays.

    Phi(x) = erfc(-x / sqrt(2)) / 2, with ``math.erfc`` (the C library's erfc)
    on each element. With sigma_f = 0 the Gaussian collapses to the indicator
    of delta <= 0.
    """
    if (sigma_f < 0).any():
        raise ValueError("sigma_f must be nonnegative")
    sqrt1_2 = math.sqrt(0.5)
    return np.array([0.5 * math.erfc(d / s * sqrt1_2) if s > 0 else float(d <= 0)
                     for d, s in zip(delta.tolist(), sigma_f.tolist())])


def allocation_scores(model: SvmModel, successes: np.ndarray, shots: np.ndarray,
                      residuals: np.ndarray, lam: float):
    """Per-entry shot scores from the running per-pair totals and the margin
    residuals; returns (scores, used_fallback).

    score_ij = [(1-lam) |alpha_i alpha_j y_i y_j| + lam P_i P_j C^2] * sqrt(p(1-p))

    with P = sv_transition_prob(residuals, sqrt(decision_variance)) and p the
    entries' add-one smoothed rates (kernels.smoothed_rates). Every count must
    be positive. If every score vanishes (e.g. lam = 1 and no point is near its
    margin) the caller gets uniform scores and a flag.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
    # the n x n variance matrix is freed before the score vector exists
    p_t = sv_transition_prob(residuals, np.sqrt(decision_variance(model, successes, shots)))
    # in place and a block of pairs at a time, with each product's operands
    # those of the formula
    scores = margin_gradient(model)
    np.abs(scores, out=scores)
    scores *= 1.0 - lam
    for rows, mask, pairs in pair_blocks(len(p_t)):
        explore = np.multiply.outer(p_t[rows], p_t)[mask]
        explore *= model.c**2
        explore *= lam
        block = scores[pairs]
        block += explore
        rates = smoothed_rates(successes[pairs], shots[pairs])
        spread = 1.0 - rates
        spread *= rates
        block *= np.sqrt(spread, out=spread)
    if not (scores > 0.0).any():
        return np.ones_like(scores), True
    return scores, False
