"""Margin sensitivities, misclassification-transition probabilities, shot scores.

Frozen oracles:
  - Phi(-1) = 0.15865525 and Phi(1) = 0.84134475 from the standard normal table;
  - the worked score 0.3125 = (0.5*1 + 0.5*0.25*1) * sqrt(0.25);
  - finite differences of ||w||^2 under symmetric single-entry perturbation with
    retraining, restricted to support pairs pinned at the box bound — the regime
    where alpha stays locally constant and the derivative identity is exact;
  - scipy.special.ndtr, which the Gaussian CDF must match to a relative 1e-14
    for |x| <= 8 and 1e-12 down to x = -37, and 0.15865525393145705, the
    double nearest Phi(-1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr

from shotsvm.kernels import KernelMatrix, MeasurementLedger
from shotsvm.sensitivity import (
    allocation_scores,
    decision_variance,
    margin_gradient,
    margin_residuals,
    sv_transition_prob,
)
from shotsvm.solver import train, margin_norm
from solver_oracle import bound_set, pair_index

EYE2 = KernelMatrix(np.eye(2))
Y2 = np.array([1.0, -1.0])


def test_margin_gradient_two_point():
    model = train(EYE2, Y2, c=10.0)
    g = margin_gradient(model)
    np.testing.assert_allclose(g, [-1.0], atol=1e-7)


def test_margin_residuals_on_margin():
    model = train(EYE2, Y2, c=10.0)
    np.testing.assert_allclose(margin_residuals(model, EYE2), [0.0, 0.0], atol=1e-7)


def test_decision_variance_hand_case():
    model = train(EYE2, Y2, c=10.0)
    model.alpha[:] = [1.0, 2.0]
    var = decision_variance(model, np.array([0.01]))
    np.testing.assert_allclose(var, [0.04, 0.01], atol=1e-15)


def test_sv_transition_prob_table_values():
    assert sv_transition_prob(1.0, 1.0) == pytest.approx(0.15865525, abs=1e-6)
    assert sv_transition_prob(-1.0, 1.0) == pytest.approx(0.84134475, abs=1e-6)
    assert sv_transition_prob(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def phi(x):
    """Phi(x) through the transition probability: delta = -x at unit sigma."""
    return sv_transition_prob(-np.asarray(x, dtype=np.float64), 1.0)


def test_phi_exact_values_and_shapes():
    assert phi(0.0) == 0.5 and phi(-0.0) == 0.5
    assert phi(5e-324) == 0.5 and phi(-5e-324) == 0.5
    assert phi(math.inf) == 1.0 and phi(-math.inf) == 0.0
    assert math.isnan(phi(math.nan))
    grid = np.array([[-1.0, 0.0, 1.0], [-8.0, 2.0, 8.0]])
    assert phi(grid).shape == (2, 3)
    assert sv_transition_prob(-grid, np.ones((2, 1))).shape == (2, 3)
    assert isinstance(phi(np.float64(-1.0)), float)


def relative_gap(got, want):
    return np.abs(got - want) / want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.integers(1, 60), elements=st.floats(-8.0, 8.0)),
       arrays(np.float64, st.integers(1, 60), elements=st.floats(-37.0, 8.0)))
def test_phi_matches_scipy_ndtr(central, tail):
    assert np.all(relative_gap(phi(central), ndtr(central)) <= 1e-14)
    want = ndtr(tail)
    positive = want > 0
    assert np.all(relative_gap(phi(tail)[positive], want[positive]) <= 1e-12)


def test_sv_transition_prob_degenerate_sigma():
    # zero uncertainty: the transition indicator
    assert sv_transition_prob(0.5, 0.0) == 0.0
    assert sv_transition_prob(-0.5, 0.0) == 1.0
    assert sv_transition_prob(0.0, 0.0) == 1.0
    p = sv_transition_prob(np.array([1.0, -1.0, 0.3]), np.array([1.0, 0.0, 0.0]))
    assert p[0] == pytest.approx(0.15865525393145705, rel=1e-15)
    np.testing.assert_array_equal(p[1:], [1.0, 0.0])


def test_sv_transition_prob_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sv_transition_prob(0.0, -1.0)


def test_allocation_scores_worked_example():
    model = train(EYE2, Y2, c=1.0)
    model.alpha[:] = [1.0, 1.0]
    led = MeasurementLedger.empty(2)
    led.record(np.array([8]), np.array([4]))  # smoothed rate exactly 0.5
    scores, fallback = allocation_scores(model, led, np.array([0.5, 0.5]), lam=0.5)
    assert not fallback
    np.testing.assert_allclose(scores, [0.3125], atol=1e-12)


def test_allocation_scores_uniform_fallback():
    model = train(EYE2, Y2, c=1.0)
    model.alpha[:] = 0.0
    led = MeasurementLedger.empty(2)
    led.record(np.array([8]), np.array([4]))
    scores, fallback = allocation_scores(model, led, np.zeros(2), lam=1.0)
    assert fallback
    np.testing.assert_array_equal(scores, [1.0])


def test_allocation_scores_nonnegative_and_lambda_range():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(8, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = KernelMatrix(np.exp(-d2 / d2.mean()))
    y = np.array([1.0, -1.0] * 4)
    model = train(k, y, c=1.0)
    led = MeasurementLedger.empty(8)
    led.record(np.full(28, 10), rng.integers(0, 11, 28))
    scores, _ = allocation_scores(model, led, rng.uniform(size=8), lam=0.3)
    assert np.all(scores >= 0)
    with pytest.raises(ValueError):
        allocation_scores(model, led, np.zeros(8), lam=1.5)


def _overlapping_instance(seed, n=14, c=0.3):
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack([rng.normal(-0.5, 1.0, (half, 2)), rng.normal(0.5, 1.0, (n - half, 2))])
    y = np.concatenate([-np.ones(half), np.ones(n - half)])
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / (2.0 * pts.var() * 2))
    np.fill_diagonal(k, 1.0)
    return KernelMatrix((k + k.T) / 2), y, c


def _partition(model):
    tol = model.sv_tol
    at_zero = model.alpha <= tol
    at_c = model.alpha >= model.c - tol
    return tuple(np.flatnonzero(at_zero)), tuple(np.flatnonzero(at_c))


def test_margin_gradient_matches_finite_difference_on_pinned_pairs():
    """Central FD of ||w||^2 (with retraining) over a symmetric entry bump, divided
    by the extra factor 2 for perturbing both triangles, reproduces the gradient
    entry whenever both coefficients sit at the box bound and the active set
    survives the perturbation."""
    h = 1e-5
    checked = 0
    for seed in range(6):
        k, y, c = _overlapping_instance(seed)
        model = train(k, y, c=c, kkt_tol=1e-10)
        g = margin_gradient(model)
        base_part = _partition(model)
        bound = bound_set(model)
        for a in range(len(bound)):
            for b_ in range(a + 1, len(bound)):
                i, j = int(bound[a]), int(bound[b_])
                w2 = {}
                parts_ok = True
                for sign in (+1.0, -1.0):
                    kp = k.entries.copy()
                    kp[i, j] += sign * h
                    kp[j, i] += sign * h
                    mp = train(KernelMatrix(kp), y, c=c, kkt_tol=1e-10)
                    if _partition(mp) != base_part:
                        parts_ok = False
                        break
                    w2[sign] = margin_norm(mp, KernelMatrix(kp)) ** 2
                if not parts_ok:
                    continue
                fd = (w2[1.0] - w2[-1.0]) / (2.0 * h * 2.0)
                expect = g[pair_index(i, j, k.n)]
                assert fd == pytest.approx(expect, rel=1e-3)
                checked += 1
    assert checked >= 5
