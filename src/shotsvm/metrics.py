"""How well a model trained on an estimated kernel recovers the clean one.

All comparisons are against a reference model trained on the exact kernel.
``compute_bundle`` takes the six ``MetricBundle`` values from one difference
K_hat - K. Kernel RMSE runs over all n^2 positions (the exact diagonal
contributes zeros); the support-restricted variant looks only at rows and
columns of the reference support vectors, where entry errors actually move
the decision. Margin and decision errors are in units of the reference margin
norm, which ``Reference.of`` refuses at zero.
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


def relative_improvement(rmse_uniform: float, rmse_adaptive: float) -> float:
    """Fraction of the uniform baseline's error removed by the adaptive run.

    Undefined at a zero baseline, which raises; a caller that needs only
    whether adaptive won compares the two errors instead.
    """
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
        return cls(model=model, kernel=kernel, margin_norm=norm,
                   decision_values=decision_values(model, kernel))


def compute_bundle(reference: Reference, estimate: SvmModel, k_hat: np.ndarray) -> MetricBundle:
    """All recovery metrics for one (estimated kernel, estimated model) pair.

    The estimate's margin norm is signed: sqrt(q) for q = beta'K_hat beta >= 0
    and -sqrt(-q) otherwise, so ``rel_margin_err`` reads (w + sqrt(-q)) / w on
    an indefinite estimate instead of saturating at 1.

    Takes ownership of ``k_hat``: the clean kernel is subtracted from it in
    place, the support block is gathered from that difference, and rmse_k comes
    last because it squares the difference in place, so the caller must not
    use ``k_hat`` afterwards.
    """
    w_true = reference.margin_norm
    sv_true = reference.model.support_set
    f_est = decision_values(estimate, k_hat)
    beta = estimate.beta
    q = float(beta @ k_hat @ beta)
    k_hat -= reference.kernel
    rmse_k_sv = _rms(k_hat[sv_true[:, None], sv_true]) if sv_true.size else 0.0
    return MetricBundle(
        rmse_k=_rms(k_hat),
        rmse_k_sv=rmse_k_sv,
        jaccard=jaccard(estimate.support_set, sv_true),
        weighted_jaccard=weighted_jaccard(estimate.alpha, reference.model.alpha),
        rel_margin_err=abs(math.copysign(math.sqrt(abs(q)), q) - w_true) / w_true,
        decision_rmse=_rms(f_est - reference.decision_values) / w_true,
    )
