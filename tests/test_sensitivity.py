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

from shotsvm.kernels import num_pairs, smoothed_rates
from shotsvm.sensitivity import (
    allocation_scores,
    decision_variance,
    margin_gradient,
    margin_residuals,
    sv_transition_prob,
)
from shotsvm.solver import SvmModel, margin_norm, train
from solver_oracle import bound_set, pair_index

EYE2 = np.eye(2)
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
    # 4 of 8 shots: smoothed rate 5/10 = 0.5, entry variance 0.25 / 8 = 0.03125
    var = decision_variance(model, np.array([4]), np.array([8]))
    np.testing.assert_allclose(var, [0.125, 0.03125], atol=1e-15)


def test_sv_transition_prob_table_values():
    p = sv_transition_prob(np.array([1.0, -1.0, 0.0]), np.ones(3))
    assert p[0] == pytest.approx(0.15865525, abs=1e-6)
    assert p[1] == pytest.approx(0.84134475, abs=1e-6)
    assert p[2] == pytest.approx(0.5, abs=1e-12)


def phi(x):
    """Phi(x) through the transition probability: delta = -x at unit sigma."""
    x = np.asarray(x, dtype=np.float64)
    return sv_transition_prob(-x, np.ones(len(x)))


def test_phi_exact_values_and_shapes():
    p = phi([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
    np.testing.assert_array_equal(p[:6], [0.5, 0.5, 0.5, 0.5, 1.0, 0.0])
    assert math.isnan(p[6])
    grid = np.array([-8.0, -1.0, 0.0, 1.0, 2.0, 8.0])
    assert phi(grid).shape == (6,) and phi(grid).dtype == np.float64
    assert phi(grid[:1]).shape == (1,)


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
    np.testing.assert_array_equal(
        sv_transition_prob(np.array([0.5, -0.5, 0.0]), np.zeros(3)), [0.0, 1.0, 1.0])
    p = sv_transition_prob(np.array([1.0, -1.0, 0.3]), np.array([1.0, 0.0, 0.0]))
    assert p[0] == pytest.approx(0.15865525393145705, rel=1e-15)
    np.testing.assert_array_equal(p[1:], [1.0, 0.0])


def test_sv_transition_prob_rejects_negative_sigma():
    with pytest.raises(ValueError):
        sv_transition_prob(np.array([0.0, 0.0]), np.array([1.0, -1.0]))


def test_allocation_scores_worked_example():
    model = train(EYE2, Y2, c=1.0)
    model.alpha[:] = [1.0, 1.0]
    # 4 of 8 shots: smoothed rate exactly 0.5; zero residuals at a positive
    # sigma_f give P = Phi(0) = 0.5 exactly
    scores, fallback = allocation_scores(model, np.array([4]), np.array([8]), np.zeros(2),
                                         lam=0.5)
    assert not fallback
    np.testing.assert_allclose(scores, [0.3125], atol=1e-12)


def test_allocation_score_terms_move_shots_as_stated():
    """Each score term favours what it stands for: influence |alpha_i alpha_j| at
    lambda = 0, flip risk P_i P_j at lambda = 1, and, with the other terms equal,
    a rate near 0.5 over one pinned near 0 or 1."""
    # pairs (0, 1), (0, 2), (1, 2): influence 2, 0.5, 1; residuals 0.3, 0, -0.3
    # give P_0 < 0.5 = P_1 < P_2, so flip risk rises in pair order
    model = SvmModel(alpha=np.array([1.0, 2.0, 0.5]), labels=np.array([1.0, -1.0, 1.0]),
                     b=0.0, c=1.0, n_iter=0)
    successes, shots = np.full(3, 4), np.full(3, 8)  # every rate 0.5
    residuals = np.array([0.3, 0.0, -0.3])
    for lam, term in [(0.0, [2.0, 0.5, 1.0]), (1.0, [1.0, 2.0, 3.0])]:
        scores, fallback = allocation_scores(model, successes, shots, residuals, lam=lam)
        assert not fallback
        assert np.all(np.diff(scores[np.argsort(term)]) > 0), lam
    # equal influence and, with zero residuals, flip risk 0.5 on every point;
    # rates 5/10 = 0.5, 1/50 = 0.02 and 49/50 = 0.98
    model.alpha[:] = 1.0
    scores, _ = allocation_scores(model, np.array([4, 0, 48]), np.array([8, 48, 48]),
                                  np.zeros(3), lam=0.5)
    assert scores[0] > scores[1] and scores[0] > scores[2]


def test_allocation_scores_uniform_fallback():
    # zero duals: no influence and sigma_f = 0, so positive residuals give P = 0
    model = train(EYE2, Y2, c=1.0)
    model.alpha[:] = 0.0
    scores, fallback = allocation_scores(model, np.array([4]), np.array([8]), np.ones(2),
                                         lam=1.0)
    assert fallback
    np.testing.assert_array_equal(scores, [1.0])


def test_allocation_scores_nonnegative_and_lambda_range():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(8, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / d2.mean())
    y = np.array([1.0, -1.0] * 4)
    model = train(k, y, c=1.0)
    successes, shots = rng.integers(0, 11, 28), np.full(28, 10)
    scores, _ = allocation_scores(model, successes, shots, rng.normal(size=8), lam=0.3)
    assert np.all(scores >= 0)
    with pytest.raises(ValueError):
        allocation_scores(model, successes, shots, np.zeros(8), lam=1.5)


def test_allocation_scores_leave_inputs_alone():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    model = train(np.exp(-d2 / d2.mean()), np.array([1.0, -1.0] * 4), c=2.0)
    successes, shots = rng.integers(0, 11, 28), np.full(28, 10)
    residuals = rng.normal(size=8)
    inputs = (successes, shots, residuals, model.alpha, model.beta)
    before = [a.copy() for a in inputs]
    allocation_scores(model, successes, shots, residuals, lam=0.3)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()


@st.composite
def score_cases(draw):
    """A model, running totals and residuals on n points; n > 128 spans
    several pair_blocks blocks."""
    n = draw(st.sampled_from([2, 3, 17, 128, 129, 200, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.sampled_from([1e-3, 1.0, 100.0]))
    # duals at 0, strictly inside the box and at the bound
    alpha = np.where(rng.uniform(size=n) < 0.5, rng.choice([0.0, c], size=n),
                     rng.uniform(0.0, c, size=n))
    if draw(st.booleans()):
        alpha[:] = 0.0  # sigma_f = 0: the flip probabilities are indicators
    labels = rng.choice([-1.0, 1.0], size=n)
    model = SvmModel(alpha=alpha, labels=labels, b=0.0, c=c, n_iter=0)
    shots = rng.integers(1, 60, num_pairs(n))
    successes = rng.integers(0, shots + 1)
    residuals = rng.normal(size=n) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
    return model, successes, shots, residuals, draw(st.sampled_from([0.0, 0.3, 1.0]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(score_cases())
def test_allocation_scores_equal_the_formula_bitwise(case):
    """The docstring's formula composed from the public pieces, on whole pair
    vectors, gives the blockwise scores bit for bit."""
    model, successes, shots, residuals, lam = case
    scores, fallback = allocation_scores(model, successes, shots, residuals, lam)
    p = sv_transition_prob(residuals, np.sqrt(decision_variance(model, successes, shots)))
    rates = smoothed_rates(successes, shots)
    explore = np.outer(p, p)[np.triu_indices(len(p), 1)]
    want = ((1.0 - lam) * np.abs(margin_gradient(model)) + lam * (explore * model.c**2)) \
        * np.sqrt(rates * (1.0 - rates))
    assert fallback == (not (want > 0.0).any())
    if fallback:
        want = np.ones_like(want)
    assert scores.tobytes() == want.tobytes()


def _overlapping_instance(seed, n=14, c=0.3):
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack([rng.normal(-0.5, 1.0, (half, 2)), rng.normal(0.5, 1.0, (n - half, 2))])
    y = np.concatenate([-np.ones(half), np.ones(n - half)])
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
    k = np.exp(-d2 / (2.0 * pts.var() * 2))
    np.fill_diagonal(k, 1.0)
    return (k + k.T) / 2, y, c


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
                    kp = k.copy()
                    kp[i, j] += sign * h
                    kp[j, i] += sign * h
                    mp = train(kp, y, c=c, kkt_tol=1e-10)
                    if _partition(mp) != base_part:
                        parts_ok = False
                        break
                    w2[sign] = margin_norm(mp, kp) ** 2
                if not parts_ok:
                    continue
                fd = (w2[1.0] - w2[-1.0]) / (2.0 * h * 2.0)
                expect = g[pair_index(i, j, len(k))]
                assert fd == pytest.approx(expect, rel=1e-3)
                checked += 1
    assert checked >= 5
