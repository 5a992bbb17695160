"""Recovery metrics.

Frozen hand values, each read through ``compute_bundle``:
  - constant off-diagonal error d on an n=3 kernel: RMSE over all 9 positions is
    d*sqrt(6/9) = 0.3 * 0.8164965809...;
  - weighted Jaccard of (1,0) vs (0.5,0.5): min-sum 0.5 over max-sum 1.5 = 1/3;
  - relative margin error, est 1 vs true sqrt(2): 1 - 1/sqrt(2) = 0.2928932...;
  - a constant decision offset 0.2 at margin norm 2: decision RMSE 0.1;
  - one-hot gini over n=4 entries: 2*3/(2*4) = 0.75.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shotsvm.datasets import rbf_kernel
from shotsvm.metrics import (
    MetricBundle,
    Reference,
    compute_bundle,
    gini,
    jaccard,
    relative_improvement,
    weighted_jaccard,
)
from shotsvm.solver import decision_values, margin_norm, train

ALTERNATING = np.array([1.0, -1.0, 1.0, -1.0])


def textbook_bundle(k, k_hat, ref, est):
    """The six metrics from their definitions, on untouched copies of both
    kernels: RMSE over all entries and over the reference support block, the
    two Jaccard overlaps, the signed estimated margin sqrt(|q|) sign(q) against
    w = sqrt(beta'K beta), and the decision-value RMSE in units of w."""
    sv_ref, sv_est = ref.support_set.tolist(), est.support_set.tolist()
    block = np.ix_(sv_ref, sv_ref)
    w = np.sqrt(ref.beta @ k @ ref.beta)
    q = est.beta @ k_hat @ est.beta
    f_ref = k @ ref.beta + ref.b
    f_est = k_hat @ est.beta + est.b
    union = set(sv_ref) | set(sv_est)
    return MetricBundle(
        rmse_k=np.sqrt(np.mean((k_hat - k) ** 2)),
        rmse_k_sv=np.sqrt(np.mean((k_hat[block] - k[block]) ** 2)) if sv_ref else 0.0,
        jaccard=len(set(sv_ref) & set(sv_est)) / len(union) if union else 1.0,
        weighted_jaccard=(np.minimum(est.alpha, ref.alpha).sum()
                          / np.maximum(est.alpha, ref.alpha).sum()),
        rel_margin_err=abs(np.sign(q) * np.sqrt(abs(q)) - w) / w,
        decision_rmse=np.sqrt(np.mean((f_est - f_ref) ** 2)) / w,
    )


def test_kernel_rmse_constant_offset():
    base = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.4], [0.4, 0.4, 1.0]])
    shifted = base.copy()
    shifted[~np.eye(3, dtype=bool)] += 0.3
    reference = Reference.of(base, np.array([1.0, -1.0, 1.0]), 1.0)
    bundle = compute_bundle(reference, reference.model, shifted)
    assert bundle.rmse_k == pytest.approx(0.3 * np.sqrt(6.0 / 9.0), abs=1e-12)


def _with_support(reference, points):
    """``reference`` with every dual weight outside ``points`` set to zero."""
    alpha = np.zeros_like(reference.model.alpha)
    alpha[points] = reference.model.alpha[points]
    return dataclasses.replace(reference, model=dataclasses.replace(reference.model, alpha=alpha))


def test_kernel_rmse_subset_restriction():
    base = np.eye(4)
    est = base.copy()
    est[2, 3] = est[3, 2] = 0.5  # error confined to points {2, 3}
    reference = Reference.of(base, ALTERNATING, 1.0)
    hit = compute_bundle(_with_support(reference, [2, 3]), reference.model, est.copy())
    miss = compute_bundle(_with_support(reference, [0, 1]), reference.model, est.copy())
    assert miss.rmse_k_sv == 0.0
    assert hit.rmse_k_sv == pytest.approx(np.sqrt(2 * 0.25 / 4.0))
    assert hit.rmse_k == miss.rmse_k == pytest.approx(np.sqrt(2 * 0.25 / 16.0))
    assert hit.rmse_k_sv > hit.rmse_k


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
    """Clean K = I on two points of opposite label puts both alphas at 1, so
    w = sqrt(2); an estimate of 0.5 off the diagonal gives q = 1."""
    reference = Reference.of(np.eye(2), np.array([1.0, -1.0]), 1.0)
    assert reference.margin_norm == pytest.approx(np.sqrt(2.0))
    bundle = compute_bundle(reference, reference.model, np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert bundle.rel_margin_err == pytest.approx(1 - 1 / np.sqrt(2.0))


def test_decision_rmse_constant_offset():
    """Clean K = I at alternating labels has w = 2 (see the indefinite case
    below); shifting the estimate's bias by 0.2 shifts every decision value."""
    reference = Reference.of(np.eye(4), ALTERNATING, 1.0)
    assert reference.margin_norm == 2.0
    shifted = dataclasses.replace(reference.model, b=reference.model.b + 0.2)
    bundle = compute_bundle(reference, shifted, np.eye(4))
    assert bundle.decision_rmse == pytest.approx(0.1)
    assert bundle.rel_margin_err == 0.0


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
    assert reference.margin_norm == margin_norm(ref, k)
    assert reference.decision_values.tobytes() == decision_values(ref, k).tobytes()
    assert compute_bundle(reference, est, noisy.copy()) == textbook_bundle(k, noisy, ref, est)


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
    assert bundle == textbook_bundle(k, noisy, ref, est)


def test_metrics_permutation_equivariant():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, 20)
    b = rng.uniform(0, 1, 20)
    perm = rng.permutation(20)
    assert weighted_jaccard(a, b) == pytest.approx(weighted_jaccard(a[perm], b[perm]))
    assert gini(a) == pytest.approx(gini(a[perm]))


@pytest.mark.parametrize("kernel", [np.ones((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])],
                         ids=["zero margin norm", "negative margin norm"])
def test_metric_input_checks(kernel):
    """The reference margin norm is the unit of two metrics, so ``Reference.of``
    refuses a clean model whose beta'K beta is 0 or below; the indefinite kernel
    trains both alphas to 1 with beta'K beta = -2."""
    with pytest.raises(ValueError) as ei:
        Reference.of(kernel, np.array([1.0, -1.0]), 1.0)
    assert str(ei.value) == "reference margin norm must be positive"


def test_kernel_rmse_over_an_empty_subset_is_zero():
    """A reference with no support vector has an empty support block, whose RMSE
    is 0 rather than the 0/0 of a mean over no entries (pytest turns that
    RuntimeWarning into an error)."""
    reference = Reference.of(np.eye(3), np.array([1.0, -1.0, 1.0]), 1.0)
    empty = _with_support(reference, [])
    assert empty.model.support_set.size == 0
    bundle = compute_bundle(empty, reference.model, np.ones((3, 3)))
    assert bundle.rmse_k_sv == 0.0


@st.composite
def clean_and_estimate(draw):
    """A clean RBF kernel on random points with mixed labels, and a symmetric
    estimate of it with noise of any of several scales."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.resize([1.0, -1.0], n))
    points = rng.normal(size=(n, 2)) + 1.5 * labels[:, None]
    kernel = rbf_kernel(points)
    noise = rng.normal(0.0, draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])), (n, n))
    return kernel, kernel + (noise + noise.T) / 2, labels, draw(st.sampled_from([0.1, 1.0, 10.0]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(clean_and_estimate())
def test_bundle_equals_its_textbook_formulas(case):
    """On any clean problem and estimate, each of the six metrics is the
    textbook formula computed on untouched copies."""
    kernel, k_hat, labels, c = case
    try:
        reference = Reference.of(kernel, labels, c)
    except ValueError as exc:
        assume("reference margin norm must be positive" not in str(exc))
        raise
    estimate = train(k_hat, labels, c=c)
    bundle = compute_bundle(reference, estimate, k_hat.copy())
    assert bundle == textbook_bundle(kernel, k_hat, reference.model, estimate)
