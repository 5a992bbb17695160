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
    Allocation,
    margin_weights,
    multinomial_draw,
    oracle_allocation,
    sampling_variance,
    uniform_allocation,
)
from shotsvm.errors import (
    DegenerateWeightsError,
    InfiniteVarianceError,
    InsufficientBudgetError,
)
from shotsvm.kernels import KernelMatrix, num_pairs
from shotsvm.solver import train
from shotsvm.theory import v_star, v_uniform


def test_uniform_divisible():
    alloc = uniform_allocation(5, 100)
    np.testing.assert_array_equal(alloc.counts, np.full(10, 10))
    assert alloc.budget == 100


def test_uniform_remainder_spread_one_each():
    alloc = uniform_allocation(3, 4, rng=np.random.default_rng(0))
    assert sorted(alloc.counts.tolist()) == [1, 1, 2]
    assert alloc.counts.sum() == 4


def test_uniform_remainder_deterministic_given_seed():
    a = uniform_allocation(6, 47, rng=np.random.default_rng(9))
    b = uniform_allocation(6, 47, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a.counts, b.counts)


def test_uniform_budget_too_small():
    with pytest.raises(InsufficientBudgetError):
        uniform_allocation(4, 5)  # 6 pairs need at least 6 shots
    with pytest.raises(ValueError):
        uniform_allocation(3, 5)  # remainder without an rng


def test_oracle_allocation_sqrt_weights():
    alloc = oracle_allocation(np.array([4.0, 1.0]), 30)
    np.testing.assert_allclose(alloc.counts, [20.0, 10.0], atol=1e-12)


def test_oracle_allocation_scale_invariant_and_sparse():
    w = np.array([9.0, 0.0, 1.0])
    a = oracle_allocation(w, 40)
    b = oracle_allocation(w * 7.3, 40)
    np.testing.assert_allclose(a.counts, b.counts, atol=1e-9)
    assert a.counts[1] == 0.0
    np.testing.assert_allclose(a.counts, [30.0, 0.0, 10.0], atol=1e-9)


def test_oracle_allocation_degenerate():
    with pytest.raises(DegenerateWeightsError):
        oracle_allocation(np.zeros(3), 10)


def test_sampling_variance_hand_values():
    w = np.array([4.0, 1.0])
    assert sampling_variance(w, oracle_allocation(w, 30)) == pytest.approx(0.3)
    assert sampling_variance(w, Allocation(np.array([15.0, 15.0]), 30)) == pytest.approx(1 / 3)


def test_sampling_variance_skips_zero_weight_and_flags_starved():
    w = np.array([0.0, 1.0])
    assert sampling_variance(w, Allocation(np.array([0.0, 10.0]), 10)) == pytest.approx(0.1)
    with pytest.raises(InfiniteVarianceError):
        sampling_variance(np.array([1.0, 1.0]), Allocation(np.array([10.0, 0.0]), 10))


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
    alloc = oracle_allocation(w, 500.0)
    assert sampling_variance(w, alloc) == pytest.approx(v_star(w, 500.0), rel=1e-12)


def test_oracle_local_optimality_under_perturbation():
    """Zero-sum fractional perturbations that keep every count positive can only
    raise the variance."""
    rng = np.random.default_rng(77)
    for _ in range(30):
        m = int(rng.integers(3, 12))
        w = rng.uniform(0.2, 4.0, size=m)
        alloc = oracle_allocation(w, 200.0)
        base = sampling_variance(w, alloc)
        for _ in range(100):
            d = rng.normal(size=m)
            d -= d.mean()  # zero-sum
            scale = 0.2 * alloc.counts.min() / (np.abs(d).max() + 1e-12)
            cand = alloc.counts + scale * d
            assert np.all(cand > 0)
            v = np.sum(w / cand)
            assert v >= base - 1e-10 * base


def test_multinomial_draw_totals_and_concentration():
    rng = np.random.default_rng(3)
    alloc = multinomial_draw(np.array([1.0, 1.0]), 100_000, rng)
    assert alloc.counts.sum() == 100_000
    assert abs(alloc.counts[0] - 50_000) < 700


def test_multinomial_draw_zero_budget_and_degenerate_scores():
    rng = np.random.default_rng(4)
    alloc = multinomial_draw(np.array([0.5, 0.5]), 0, rng)
    np.testing.assert_array_equal(alloc.counts, [0, 0])
    with pytest.raises(DegenerateWeightsError):
        multinomial_draw(np.zeros(2), 10, rng)


def test_allocation_invariant_checked():
    with pytest.raises(ValueError):
        Allocation(np.array([1.0, 1.0]), 3)
    with pytest.raises(ValueError):
        Allocation(np.array([-1.0, 4.0]), 3)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _budget_and_total(draw):
    """A finite budget and a nonnegative total near the edge of its tolerance."""
    budget = draw(st.one_of(_finite, st.integers(0, 10**12).map(float),
                            st.floats(-1e3, 1e3), st.floats(0.0, 1e-5)))
    tol = 1e-6 + 1e-9 * abs(budget)
    edge = draw(st.sampled_from([budget, budget + tol, budget - tol]))
    steps = draw(st.integers(-2, 2))
    total = edge
    for _ in range(abs(steps)):
        total = float(np.nextafter(total, np.inf if steps > 0 else -np.inf))
    total = draw(st.one_of(st.just(total), _finite))
    assume(np.isfinite(total) and total >= 0.0)
    return budget, total


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_budget_and_total())
def test_allocation_budget_check_is_np_isclose(case):
    budget, total = case
    accepted = True
    try:
        Allocation(np.array([total]), budget)
    except ValueError:
        accepted = False
    assert accepted == bool(np.isclose(total, budget, rtol=1e-9, atol=1e-6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
       st.integers(0, 10**6), st.integers(0, 2**32 - 1))
def test_multinomial_draw_counts_are_int64_and_sum_to_budget(scores, budget, seed):
    assume(sum(scores) > 0.0)
    alloc = multinomial_draw(np.array(scores), budget, np.random.default_rng(seed))
    assert alloc.counts.dtype == np.int64
    assert alloc.counts.shape == (len(scores),)
    assert (alloc.counts >= 0).all()
    assert int(alloc.counts.sum()) == budget
    assert (alloc.counts[np.array(scores) == 0.0] == 0).all()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 40), st.integers(0, 10**5), st.integers(0, 2**32 - 1))
def test_uniform_allocation_counts_are_int64_and_sum_to_budget(n, extra, seed):
    n_tot = num_pairs(n) + extra
    alloc = uniform_allocation(n, n_tot, np.random.default_rng(seed))
    assert alloc.counts.dtype == np.int64
    assert alloc.counts.shape == (num_pairs(n),)
    assert (alloc.counts >= 1).all()
    assert int(alloc.counts.sum()) == n_tot
    assert int(alloc.counts.max()) - int(alloc.counts.min()) <= 1


def test_margin_weights_hand_value():
    k = KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    model = train(k, np.array([1.0, -1.0]), c=10.0)
    model.alpha[:] = [1.0, 1.0]
    np.testing.assert_allclose(margin_weights(model, k), [0.25], atol=1e-12)
