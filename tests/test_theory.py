"""Closed-form variance and cost identities.

Frozen hand values:
  - w = (4, 1), 30 shots: even-split variance 2*5/30 = 1/3, sqrt-split (sum sqrt w)^2/30 = 0.3;
  - constant w = (1, 1), 100 shots, counts nudged by (+5, -5): exact variance increase
    1/55 + 1/45 - 2/50 = 4.0404e-4 vs second-order prediction 2*25/50^3 = 4e-4;
  - n = 50, reuse fraction 0.16, 6 rounds, 100 shots/entry: critical cost ratio
    49 * 0.84 * 100 / (2 * 2500 * 6) = 0.1372 exactly.
"""

import math

import numpy as np
import pytest

from shotsvm.allocation import oracle_allocation, sampling_variance
from shotsvm.theory import (
    CostModel,
    cost_totals,
    perturbation_penalty,
    tau_critical,
    v_star,
    v_uniform,
)


def test_v_uniform_hand_value():
    assert v_uniform(np.array([4.0, 1.0]), 30) == pytest.approx(1 / 3)


def test_v_star_hand_value():
    assert v_star(np.array([4.0, 1.0]), 30) == pytest.approx(0.3)


def test_v_star_equals_realized_oracle_variance():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.01, 2.0, 25)
    assert v_star(w, 1234.0) == pytest.approx(
        sampling_variance(w, oracle_allocation(w, 1234.0)), rel=1e-12)


def test_perturbation_penalty_hand_value():
    w = np.array([1.0, 1.0])
    counts = oracle_allocation(w, 100.0)
    deltas = np.array([5.0, -5.0])
    predicted = perturbation_penalty(w, counts, deltas)
    assert predicted == pytest.approx(4.0e-4, abs=1e-12)
    actual = np.sum(w / (counts + deltas)) - np.sum(w / counts)
    assert actual == pytest.approx(1 / 55 + 1 / 45 - 2 / 50, abs=1e-15)
    assert predicted == pytest.approx(actual, rel=0.02)


def test_perturbation_penalty_second_order_accuracy():
    """Prediction tracks the exact increase within 10% for small zero-sum nudges."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = int(rng.integers(2, 20))
        w = rng.uniform(0.1, 3.0, m)
        counts = oracle_allocation(w, 5000.0)
        d = rng.normal(size=m)
        d -= d.mean()
        d *= 0.02 * counts.min() / (np.abs(d).max() + 1e-300)
        predicted = perturbation_penalty(w, counts, d)
        actual = np.sum(w / (counts + d)) - v_star(w, 5000.0)
        assert actual >= 0.0
        assert predicted == pytest.approx(actual, rel=0.10)


def test_perturbation_penalty_validates_inputs():
    w = np.array([1.0, 1.0])
    counts = oracle_allocation(w, 10.0)
    with pytest.raises(ValueError):
        perturbation_penalty(w, counts, np.array([1.0, 1.0]))  # not zero-sum
    with pytest.raises(ValueError):
        perturbation_penalty(w, counts, np.array([-6.0, 6.0]))  # kills a count


def test_tau_critical_reference_point():
    cm = CostModel(c_q=1.0, c_c=1.0, r=0.16, rounds=6, n=50, nbar=100.0)
    assert tau_critical(cm) == pytest.approx(0.1372, abs=1e-9)


def test_break_even_identity():
    """At the critical ratio the two pipelines cost the same."""
    cm = CostModel(c_q=1.0, c_c=0.1372, r=0.16, rounds=6, n=50, nbar=100.0)
    n_tot = 50 * 49 // 2 * 100
    unif, adapt = cost_totals(cm, n_tot)
    assert unif == pytest.approx(adapt, rel=1e-9)


def test_cost_totals_hand_case():
    cm = CostModel(c_q=1.0, c_c=0.1, r=0.5, rounds=2, n=10, nbar=2.0)
    unif, adapt = cost_totals(cm, 100)
    assert unif == pytest.approx(100 + 0.1 * 1000)
    assert adapt == pytest.approx(50 + 3 * 0.1 * 1000)


def test_tau_critical_monotone_in_n():
    taus = []
    for n in range(10, 101, 10):
        cm = CostModel(c_q=1.0, c_c=1.0, r=0.2, rounds=5, n=n, nbar=50.0)
        taus.append(tau_critical(cm))
    # (n-1)/n^2 shrinks, so bigger problems tolerate less classical-solve cost
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_cost_model_validation():
    valid = dict(c_q=1.0, c_c=1.0, r=0.2, rounds=5, n=10, nbar=10.0)
    bad = [("c_q", -1.0), ("r", 1.5), ("rounds", 0), ("n", 1), ("nbar", 0.0),
           # NaN used to pass, and tau_critical returned nan
           ("nbar", math.nan), ("c_q", math.nan), ("c_c", math.nan),
           # in range, yet infinite or not an integer
           ("n", math.inf), ("n", 10.0), ("rounds", 2.5), ("nbar", math.inf),
           ("c_q", math.inf), ("c_c", math.inf)]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            CostModel(**{**valid, name: value})
    # every range is closed: each finite end is accepted
    for name, ends in CostModel.RANGES.items():
        for end in ends:
            if math.isfinite(end):
                CostModel(**{**valid, name: end})


@pytest.mark.parametrize("call, message", [
    (lambda: v_uniform(np.array([1.0, 2.0]), 0), "budget must be positive"),
    (lambda: v_star(np.array([1.0, 2.0]), 0), "budget must be positive"),
    (lambda: v_star(np.array([1.0, -2.0]), 10), "weights must be nonnegative"),
], ids=["v_uniform budget", "v_star budget", "v_star negative weight"])
def test_variance_formula_input_checks(call, message):
    with pytest.raises(ValueError) as ei:
        call()
    assert str(ei.value) == message
