"""How well a model trained on an estimated kernel recovers the clean one.

All comparisons are against a reference model trained on the exact kernel.
Kernel RMSE runs over all n^2 positions (the exact diagonal contributes
zeros); the support-restricted variant looks only at rows and columns of the
reference support vectors, where entry errors actually move the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import SvmModel, decision_values, margin_norm, train


def _rms(diff: np.ndarray) -> float:
    """sqrt(mean(diff**2)), squaring the caller's temporary in place; the sum
    over the size is what np.mean computes."""
    diff *= diff
    return math.sqrt(diff.sum() / diff.size)


def kernel_rmse(k_est: np.ndarray, k_ref: np.ndarray, subset=None) -> float:
    """Entrywise RMSE, optionally restricted to the rows/columns in ``subset``."""
    if k_est.shape != k_ref.shape:
        raise ValueError("kernel shapes differ")
    if subset is not None:
        subset = np.asarray(subset, dtype=np.intp)
        if subset.size == 0:
            return 0.0
        k_est = k_est[subset[:, None], subset]
        k_ref = k_ref[subset[:, None], subset]
    return _rms(k_est - k_ref)


def jaccard(set_a, set_b) -> float:
    a, b = set(np.asarray(set_a, dtype=np.intp).tolist()), set(np.asarray(set_b, dtype=np.intp).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def weighted_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """sum(min)/sum(max) over nonnegative magnitude vectors; 1 when both vanish."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (a < 0).any() or (b < 0).any():
        raise ValueError("weighted Jaccard is defined on nonnegative magnitudes")
    denom = np.maximum(a, b).sum()
    if denom == 0.0:
        return 1.0
    return float(np.minimum(a, b).sum() / denom)


def relative_margin_error(w_est: float, w_true: float) -> float:
    if w_true <= 0:
        raise ValueError("reference margin norm must be positive")
    return abs(w_est - w_true) / w_true


def decision_rmse(f_est: np.ndarray, f_true: np.ndarray, w_true: float) -> float:
    """RMSE between decision-value vectors, in units of the reference margin norm."""
    if w_true <= 0:
        raise ValueError("reference margin norm must be positive")
    f_est = np.asarray(f_est, dtype=np.float64)
    f_true = np.asarray(f_true, dtype=np.float64)
    return _rms(f_est - f_true) / w_true


def relative_improvement(rmse_uniform: float, rmse_adaptive: float) -> float:
    """Fraction of the uniform baseline's error removed by the adaptive run."""
    if rmse_uniform <= 0:
        raise ValueError("baseline RMSE must be positive")
    return (rmse_uniform - rmse_adaptive) / rmse_uniform


def gini(values: np.ndarray) -> float:
    """Concentration of a nonnegative vector: 0 for flat, (n-1)/n for one-hot."""
    v = np.asarray(values, dtype=np.float64)
    total = v.sum()
    if total == 0.0:
        return 0.0
    diff_sum = np.abs(v[:, None] - v[None, :]).sum()
    return float(diff_sum / (2.0 * len(v) * total))


@dataclass(frozen=True)
class MetricBundle:
    rmse_k: float
    rmse_k_sv: float
    jaccard: float
    weighted_jaccard: float
    rel_margin_err: float
    decision_rmse: float


@dataclass(frozen=True)
class Reference:
    """A trial's clean problem: the exact kernel, the model trained on it and
    its labels, and the parts of that model that every metric bundle of the
    trial compares against, computed once per trial."""

    model: SvmModel
    kernel: np.ndarray
    support_set: np.ndarray
    margin_norm: float
    decision_values: np.ndarray

    @classmethod
    def of(cls, kernel: np.ndarray, labels: np.ndarray, c: float) -> Reference:
        """Trains the clean model at box bound ``c``. Raises ValueError when its
        margin norm, the unit of two metrics, is 0 up to rounding:
        beta'K beta <= n eps |beta|'K|beta|."""
        model = train(kernel, labels, c=c)
        norm = margin_norm(model, kernel)
        abs_beta = np.abs(model.beta)
        if norm * norm <= len(abs_beta) * np.finfo(float).eps * (abs_beta @ kernel @ abs_beta):
            raise ValueError("reference margin norm must be positive")
        return cls(model=model, kernel=kernel, support_set=model.support_set,
                   margin_norm=norm, decision_values=decision_values(model, kernel))


def compute_bundle(reference: Reference, estimate: SvmModel, k_hat: np.ndarray) -> MetricBundle:
    """All recovery metrics for one (estimated kernel, estimated model) pair.

    Takes ownership of ``k_hat``: rmse_k comes last, from the clean kernel
    subtracted from it in place, so the caller must not use it afterwards.
    """
    k_true = reference.kernel
    sv_true = reference.support_set
    w_true = reference.margin_norm
    f_est = decision_values(estimate, k_hat)
    rmse_k_sv = kernel_rmse(k_hat, k_true, subset=sv_true)
    rel_margin_err = relative_margin_error(margin_norm(estimate, k_hat), w_true)
    k_hat -= k_true  # kernel_rmse has checked the shapes
    return MetricBundle(
        rmse_k=_rms(k_hat),
        rmse_k_sv=rmse_k_sv,
        jaccard=jaccard(estimate.support_set, sv_true),
        weighted_jaccard=weighted_jaccard(estimate.alpha, reference.model.alpha),
        rel_margin_err=rel_margin_err,
        decision_rmse=decision_rmse(f_est, reference.decision_values, w_true),
    )
