"""Shot allocations: uniform, square-root-weighted oracle, multinomial draws,
and the achieved sampling variance.

Frozen hand values: w = (4, 1) with 30 shots splits as sqrt-weights (2, 1) ->
(20, 10); its variance is 4/20 + 1/10 = 0.3 against 1/3 for the even split.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shotsvm.allocation import (
    margin_weights,
    multinomial_draw,
    oracle_allocation,
    sampling_variance,
    uniform_allocation,
)
from shotsvm.experiments import repair_starved
from shotsvm.kernels import num_pairs
from shotsvm.solver import train
from shotsvm.theory import v_star, v_uniform


def test_uniform_divisible():
    counts = uniform_allocation(5, 10)
    np.testing.assert_array_equal(counts, np.full(10, 10))
    for n, nbar in [(50, 3), (400, 2)]:
        counts = uniform_allocation(n, nbar)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, np.full(num_pairs(n), nbar))


def test_oracle_allocation_sqrt_weights():
    counts = oracle_allocation(np.array([4.0, 1.0]), 30)
    np.testing.assert_allclose(counts, [20.0, 10.0], atol=1e-12)


def test_oracle_allocation_scale_invariant_and_sparse():
    w = np.array([9.0, 0.0, 1.0])
    a = oracle_allocation(w, 40)
    b = oracle_allocation(w * 7.3, 40)
    np.testing.assert_allclose(a, b, atol=1e-9)
    assert a[1] == 0.0
    np.testing.assert_allclose(a, [30.0, 0.0, 10.0], atol=1e-9)


def test_oracle_allocation_degenerate():
    with pytest.raises(ValueError, match="^all allocation weights are zero$"):
        oracle_allocation(np.zeros(3), 10)


def test_sampling_variance_hand_values():
    w = np.array([4.0, 1.0])
    assert sampling_variance(w, oracle_allocation(w, 30)) == pytest.approx(0.3)
    assert sampling_variance(w, np.array([15.0, 15.0])) == pytest.approx(1 / 3)


def test_sampling_variance_skips_zero_weight_and_flags_starved():
    w = np.array([0.0, 1.0])
    assert sampling_variance(w, np.array([0.0, 10.0])) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="^1 positive-weight entries received zero shots$"):
        sampling_variance(np.array([1.0, 1.0]), np.array([10.0, 0.0]))


def test_sqrt_allocation_beats_uniform_prop():
    """Square-root allocation never loses to the even split, strictly unless
    the weights are constant."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        w = rng.gamma(shape=rng.uniform(0.3, 3.0), scale=1.0, size=m)
        w[rng.random(m) < 0.2] = 0.0
        if not np.any(w > 0):
            continue
        n_tot = float(rng.integers(m, 10_000))
        vs = v_star(w, n_tot)
        vu = v_uniform(w, n_tot)
        assert vs <= vu + 1e-12 * max(1.0, vu)
        positive = w[w > 0]
        if len(w) > len(positive) or np.ptp(positive) > 1e-9:
            assert vs < vu


def test_oracle_matches_closed_form_variance():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 5.0, size=12)
    counts = oracle_allocation(w, 500.0)
    assert sampling_variance(w, counts) == pytest.approx(v_star(w, 500.0), rel=1e-12)


def test_oracle_local_optimality_under_perturbation():
    """Zero-sum fractional perturbations that keep every count positive can only
    raise the variance."""
    rng = np.random.default_rng(77)
    for _ in range(30):
        m = int(rng.integers(3, 12))
        w = rng.uniform(0.2, 4.0, size=m)
        counts = oracle_allocation(w, 200.0)
        base = sampling_variance(w, counts)
        for _ in range(100):
            d = rng.normal(size=m)
            d -= d.mean()  # zero-sum
            scale = 0.2 * counts.min() / (np.abs(d).max() + 1e-12)
            cand = counts + scale * d
            assert np.all(cand > 0)
            v = np.sum(w / cand)
            assert v >= base - 1e-10 * base


def test_multinomial_draw_totals_and_concentration():
    rng = np.random.default_rng(3)
    counts = multinomial_draw(np.array([1.0, 1.0]), 100_000, rng)
    assert counts.sum() == 100_000
    assert abs(counts[0] - 50_000) < 700


def test_multinomial_draw_zero_budget_and_degenerate_scores():
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    counts = multinomial_draw(np.array([0.5, 0.25, 0.25]), 0, rng)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, [0, 0, 0])
    # a zero budget draws nothing
    assert rng.bit_generator.state == twin.bit_generator.state
    with pytest.raises(ValueError, match="^all scores are zero$"):
        multinomial_draw(np.zeros(2), 10, rng)


def test_multinomial_draw_normalises_the_scores_in_place():
    """It takes ownership of a float64 score array: the array becomes the
    draw's probabilities, and the draw is the one made from a normalised copy."""
    scores = np.random.default_rng(5).uniform(0.0, 3.0, 50)
    owned = scores.copy()
    counts = multinomial_draw(owned, 1_000, np.random.default_rng(6))
    probs = scores / scores.sum()
    assert owned.tobytes() == probs.tobytes()
    np.testing.assert_array_equal(counts, np.random.default_rng(6).multinomial(1_000, probs))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
       st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_multinomial_draw_counts_are_int64_and_sum_to_budget(scores, budget, seed):
    assume(sum(scores) > 0.0)
    counts = multinomial_draw(np.array(scores), budget, np.random.default_rng(seed))
    assert counts.dtype == np.int64
    assert counts.shape == (len(scores),)
    assert (counts >= 0).all()
    assert int(counts.sum()) == budget
    assert (counts[np.array(scores) == 0.0] == 0).all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_repair_starved_keeps_total_and_feeds_every_positive_weight(data):
    size = data.draw(st.integers(1, 30))
    weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-9, 0.5, 3.0]),
                                          min_size=size, max_size=size)))
    counts = np.array(data.draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)),
                      dtype=np.int64)
    deficit = int((weights > 0).sum()) - int(counts.sum())
    if deficit > 0:  # one bin takes the missing shots, so the total covers every positive weight
        counts[data.draw(st.integers(0, size - 1))] += deficit
    before = counts.copy()
    repaired = repair_starved(counts, weights)
    assert (counts == before).all()
    assert repaired.sum() == counts.sum()
    assert (repaired >= 0).all()
    assert (repaired[weights > 0] >= 1).all()


def test_repair_starved_never_takes_from_an_empty_bin():
    # the fullest bins after the first are empty, and one has zero weight
    repaired = repair_starved(np.array([3, 0, 0, 0]), np.array([1.0, 1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(repaired, [1, 1, 1, 0])
    with pytest.raises(ValueError):
        repair_starved(np.array([1, 0]), np.array([1.0, 1.0]))


def test_margin_weights_hand_value():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    model = train(k, np.array([1.0, -1.0]), c=10.0)
    model.alpha[:] = [1.0, 1.0]
    np.testing.assert_allclose(margin_weights(model, k), [0.25], atol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: oracle_allocation(np.array([1.0, -0.5]), 10), "weights must be nonnegative"),
    (lambda: multinomial_draw(np.array([0.5, -0.1]), 10, np.random.default_rng(0)),
     "scores must be nonnegative"),
    (lambda: multinomial_draw(np.array([0.5, 0.5]), -1, np.random.default_rng(0)),
     "budget must be nonnegative"),
], ids=["negative weight", "negative score", "negative budget"])
def test_allocation_input_checks(call, message):
    with pytest.raises(ValueError) as ei:
        call()
    assert str(ei.value) == message
