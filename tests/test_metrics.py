"""Recovery metrics.

Frozen hand values:
  - constant off-diagonal error d on an n=3 kernel: RMSE over all 9 positions is
    d*sqrt(6/9) = 0.3 * 0.8164965809...;
  - weighted Jaccard of (1,0) vs (0.5,0.5): min-sum 0.5 over max-sum 1.5 = 1/3;
  - relative margin error, est 1 vs true sqrt(2): 1 - 1/sqrt(2) = 0.2928932...;
  - one-hot gini over n=4 entries: 2*3/(2*4) = 0.75.
"""

import numpy as np
import pytest

from shotsvm.metrics import (
    MetricBundle,
    Reference,
    compute_bundle,
    decision_rmse,
    gini,
    jaccard,
    kernel_rmse,
    relative_improvement,
    relative_margin_error,
    weighted_jaccard,
)
from shotsvm.solver import decision_values, margin_norm, train


def test_kernel_rmse_constant_offset():
    base = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    shifted = base.copy()
    shifted[~np.eye(3, dtype=bool)] += 0.3
    err = kernel_rmse(shifted, base)
    assert err == pytest.approx(0.3 * np.sqrt(6.0 / 9.0), abs=1e-12)


def test_kernel_rmse_subset_restriction():
    base = np.eye(4)
    est = base.copy()
    est[2, 3] = est[3, 2] = 0.5  # error confined to points {2, 3}
    full = kernel_rmse(est, base)
    sub_hit = kernel_rmse(est, base, subset=np.array([2, 3]))
    sub_miss = kernel_rmse(est, base, subset=np.array([0, 1]))
    assert sub_miss == 0.0
    assert sub_hit == pytest.approx(np.sqrt(2 * 0.25 / 4.0))
    assert full == pytest.approx(np.sqrt(2 * 0.25 / 16.0))
    assert sub_hit > full


def test_jaccard_cases():
    assert jaccard([1, 2], [2, 3]) == pytest.approx(1.0 / 3.0)
    assert jaccard([], []) == 1.0
    assert jaccard([0, 1], [0, 1]) == 1.0
    assert jaccard([0], []) == 0.0


def test_weighted_jaccard_cases():
    assert weighted_jaccard(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(1 / 3)
    assert weighted_jaccard(np.zeros(3), np.zeros(3)) == 1.0
    assert weighted_jaccard(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        weighted_jaccard(np.array([-0.1, 1.0]), np.array([1.0, 1.0]))


def test_relative_margin_error_hand_value():
    assert relative_margin_error(1.0, np.sqrt(2.0)) == pytest.approx(1 - 1 / np.sqrt(2.0))
    assert relative_margin_error(2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        relative_margin_error(1.0, 0.0)


def test_decision_rmse_constant_offset():
    f_true = np.array([1.0, -1.0, 0.5])
    assert decision_rmse(f_true + 0.2, f_true, w_true=2.0) == pytest.approx(0.1)


def test_relative_improvement():
    assert relative_improvement(0.5, 0.4) == pytest.approx(0.2)
    assert relative_improvement(0.5, 0.6) == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        relative_improvement(0.0, 0.1)


def test_gini_extremes():
    assert gini(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.75)
    assert gini(np.full(7, 3.3)) == pytest.approx(0.0, abs=1e-12)
    assert gini(np.zeros(5)) == 0.0


def test_gini_scale_invariant():
    rng = np.random.default_rng(2)
    v = rng.uniform(0.0, 2.0, 30)
    assert gini(v) == pytest.approx(gini(5.0 * v), abs=1e-12)


def test_metric_bundle_perfect_recovery():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(10, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / d2.mean())
    y = np.array([1.0, -1.0] * 5)
    reference = Reference.of(k, y, 1.0)
    bundle = compute_bundle(reference, reference.model, k.copy())
    assert isinstance(bundle, MetricBundle)
    assert bundle.rmse_k == 0.0
    assert bundle.rmse_k_sv == 0.0
    assert bundle.jaccard == 1.0
    assert bundle.weighted_jaccard == 1.0
    assert bundle.rel_margin_err == pytest.approx(0.0, abs=1e-12)
    assert bundle.decision_rmse == pytest.approx(0.0, abs=1e-12)


def test_metric_bundle_finite_on_noisy_estimate():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(12, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / d2.mean())
    np.fill_diagonal(k, 1.0)
    y = np.array([1.0, -1.0] * 6)
    noisy = np.clip(k + rng.normal(0, 0.05, k.shape), 0, 1)
    noisy = (noisy + noisy.T) / 2
    np.fill_diagonal(noisy, 1.0)
    est = train(noisy, y, c=1.0)
    bundle = compute_bundle(Reference.of(k, y, 1.0), est, noisy)
    for name, val in vars(bundle).items():
        assert np.isfinite(val), name
    assert bundle.rmse_k > 0


def test_reference_holds_what_every_bundle_compares_against():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(14, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / d2.mean())
    noisy = k + 0.01 * np.eye(14)
    y = np.array([1.0, -1.0] * 7)
    ref, est = train(k, y, c=1.0), train(noisy, y, c=1.0)
    reference = Reference.of(k, y, 1.0)
    assert reference.kernel is k
    assert reference.model.alpha.tobytes() == ref.alpha.tobytes()
    assert (reference.model.b, reference.model.c) == (ref.b, ref.c)
    assert reference.model.labels.tolist() == y.tolist()
    assert reference.support_set.tolist() == ref.support_set.tolist()
    assert reference.margin_norm == margin_norm(ref, k)
    assert reference.decision_values.tobytes() == decision_values(ref, k).tobytes()
    bundle = compute_bundle(reference, est, noisy.copy())
    w = margin_norm(ref, k)
    assert bundle.decision_rmse == decision_rmse(
        decision_values(est, noisy), decision_values(ref, k), w)
    assert bundle.rel_margin_err == relative_margin_error(margin_norm(est, noisy), w)
    assert bundle.rmse_k_sv == kernel_rmse(noisy, k, subset=ref.support_set)


def test_margin_error_on_an_indefinite_estimate_keeps_growing():
    """q = beta'K_hat beta < 0 gives the estimate the signed norm -sqrt(-q), so
    rel_margin_err reads (w + sqrt(-q)) / w, above the 1 a floor at 0 would give.
    Clean K = I at labels (+, -, +, -) puts every alpha at 1, so w = 2; the
    estimate has 0.9 on opposite-label pairs and 0.1 on same-label pairs, so
    q = 4 - 2 * (4 * 0.9 - 2 * 0.1) = -2.8."""
    y = np.array([1.0, -1.0, 1.0, -1.0])
    reference = Reference.of(np.eye(4), y, 1.0)
    k_hat = np.where(np.not_equal.outer(y, y), 0.9, 0.1)
    np.fill_diagonal(k_hat, 1.0)
    beta = reference.model.beta
    q = float(beta @ k_hat @ beta)
    assert q == pytest.approx(-2.8) and np.linalg.eigvalsh(k_hat)[0] < 0
    assert margin_norm(reference.model, k_hat) == 0.0  # the floor the bundle no longer uses
    w = reference.margin_norm
    bundle = compute_bundle(reference, reference.model, k_hat)
    assert bundle.rel_margin_err == (w + np.sqrt(-q)) / w
    assert bundle.rel_margin_err > 1.0


def test_compute_bundle_turns_the_estimate_into_its_squared_error():
    """It takes ownership of k_hat: rmse_k comes last, from the clean kernel
    subtracted from it and the difference squared, both in place. Every metric
    equals the one computed from an untouched copy, and the clean kernel is
    left as it is."""
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(14, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / d2.mean())
    noisy = np.clip(k + rng.normal(0, 0.05, k.shape), 0, 1)
    noisy = (noisy + noisy.T) / 2
    np.fill_diagonal(noisy, 1.0)
    y = np.array([1.0, -1.0] * 7)
    ref, est = train(k, y, c=1.0), train(noisy, y, c=1.0)
    k_before = k.copy()
    owned = noisy.copy()
    bundle = compute_bundle(Reference.of(k, y, 1.0), est, owned)
    squared_error = noisy - k
    squared_error *= squared_error
    assert owned.tobytes() == squared_error.tobytes()
    assert k.tobytes() == k_before.tobytes()
    assert bundle.rmse_k == kernel_rmse(noisy, k)
    assert bundle.rmse_k_sv == kernel_rmse(noisy, k, subset=ref.support_set)
    assert bundle.rel_margin_err == relative_margin_error(margin_norm(est, noisy),
                                                          margin_norm(ref, k))
    assert bundle.decision_rmse == decision_rmse(
        decision_values(est, noisy), decision_values(ref, k), margin_norm(ref, k))


def test_metrics_permutation_equivariant():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, 20)
    b = rng.uniform(0, 1, 20)
    perm = rng.permutation(20)
    assert weighted_jaccard(a, b) == pytest.approx(weighted_jaccard(a[perm], b[perm]))
    assert gini(a) == pytest.approx(gini(a[perm]))


@pytest.mark.parametrize("call, message", [
    (lambda: kernel_rmse(np.eye(2), np.eye(3)), "kernel shapes differ"),
    (lambda: decision_rmse(np.zeros(2), np.ones(2), w_true=0.0),
     "reference margin norm must be positive"),
    (lambda: decision_rmse(np.zeros(2), np.ones(2), w_true=-1.0),
     "reference margin norm must be positive"),
], ids=["kernel shapes", "zero margin norm", "negative margin norm"])
def test_metric_input_checks(call, message):
    with pytest.raises(ValueError) as ei:
        call()
    assert str(ei.value) == message


def test_kernel_rmse_over_an_empty_subset_is_zero():
    assert kernel_rmse(np.eye(3), np.ones((3, 3)), subset=[]) == 0.0
