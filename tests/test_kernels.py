"""Measurement layer: kernel container, validation, shot simulation, ledger, estimators.

Monte Carlo checks freeze their expected values from the closed-form variance law
    Var(Khat) = K(1-K)/N + (1 - 1/N) * sigma_phys**2
computed by hand for each (K, N, sigma) grid point before the implementation existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairs_reference
from shotsvm.errors import IncompleteLedgerError
from shotsvm.kernels import (
    KernelMatrix,
    MeasurementLedger,
    assemble_estimate,
    condense,
    estimator_variance,
    expand,
    flat_pair_indices,
    num_pairs,
    pair_indices,
    simulate_counts,
    success_probabilities,
    validate_kernel,
)
from solver_oracle import pair_index

# ---------------------------------------------------------------- pair indexing


def test_num_pairs():
    assert num_pairs(2) == 1
    assert num_pairs(5) == 10
    assert num_pairs(50) == 1225


def test_pair_index_roundtrip():
    n = 7
    iu, ju = pair_indices(n)
    assert len(iu) == num_pairs(n)
    for k in range(num_pairs(n)):
        assert pair_index(int(iu[k]), int(ju[k]), n) == k


def test_flat_pair_indices_are_cached_and_read_only():
    for n in (2, 3, 7, 50, 7):
        upper, lower = flat_pair_indices(n)
        iu, ju = np.triu_indices(n, k=1)
        assert upper.dtype == lower.dtype == np.int64
        np.testing.assert_array_equal(upper, iu * n + ju)
        np.testing.assert_array_equal(lower, ju * n + iu)
        again = flat_pair_indices(n)
        assert again[0] is upper and again[1] is lower
        with pytest.raises(ValueError):
            upper[0] = 1
        with pytest.raises(ValueError):
            lower[...] = 0
        # the row and column arrays are derived from the flat ones
        row, col = pair_indices(n)
        np.testing.assert_array_equal(row, iu)
        np.testing.assert_array_equal(col, ju)
        assert row.dtype == col.dtype == iu.dtype


_any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 5e-324]))


@st.composite
def _pair_vectors(draw):
    n = draw(st.integers(2, 60))
    # a drawn pattern repeated over the pairs (and the diagonal, when it is an
    # array) keeps generation fast at n = 60 and still places -0.0, NaN and
    # +/-inf at many positions
    pattern = draw(st.lists(_any_float, min_size=1, max_size=64))
    vec = np.resize(np.array(pattern), num_pairs(n))
    if draw(st.booleans()):
        diag = draw(_any_float)
    else:
        diag = np.resize(np.array(draw(st.lists(_any_float, min_size=1, max_size=8))), n)
    return n, vec, diag


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pair_vectors())
def test_condense_expand_match_reference_bitwise(case):
    n, vec, diag = case
    full = expand(vec, n, diag=diag)
    ref = pairs_reference.expand(vec, n, diag=diag)
    assert full.shape == ref.shape and full.dtype == ref.dtype
    assert full.tobytes() == ref.tobytes()
    assert full.flags.c_contiguous
    # an asymmetric matrix too: condense reads the upper triangle only
    skew = full.copy()
    skew[np.tril_indices(n, k=-1)] = -1.5
    for matrix in (full, skew, skew.T, np.arange(n * n).reshape(n, n)):
        got = condense(matrix)
        want = pairs_reference.condense(matrix)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_pair_index_order_swapped_and_diagonal():
    # (j, i) maps to the same slot as (i, j); the diagonal is never stored
    assert pair_index(3, 1, 5) == pair_index(1, 3, 5)
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)


def test_condense_expand_roundtrip():
    rng = np.random.default_rng(7)
    a = rng.random((6, 6))
    sym = (a + a.T) / 2
    vec = condense(sym)
    assert vec.shape == (15,)
    back = expand(vec, 6, diag=np.diag(sym))
    np.testing.assert_array_equal(back, sym)


# ---------------------------------------------------------------- validation


def test_validate_kernel_accepts_near_singular_psd():
    # eigenvalues are 1.99 and 0.01, both above the floor
    k = KernelMatrix(np.array([[1.0, 0.99], [0.99, 1.0]]))
    assert validate_kernel(k) == []


def test_validate_kernel_range_violation_carries_index():
    k = KernelMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))
    bad = validate_kernel(k)
    kinds = {v.kind for v in bad}
    assert "range" in kinds
    range_hits = [v for v in bad if v.kind == "range"]
    assert (0, 1) in [v.index for v in range_hits]


def test_validate_kernel_symmetry_is_exact():
    m = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    bad = validate_kernel(KernelMatrix(m))
    assert any(v.kind == "symmetry" for v in bad)


def test_validate_kernel_diagonal():
    m = np.array([[0.9, 0.1], [0.1, 1.0]])
    bad = validate_kernel(KernelMatrix(m))
    assert any(v.kind == "diagonal" and v.index == (0, 0) for v in bad)


def test_validate_kernel_psd_floor():
    # eigenvalues 1 +/- 0.9999...: push one slightly negative via range-legal entries
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert validate_kernel(KernelMatrix(m)) == []  # eigenvalues 2, 0
    # indefinite example: 3x3 with strong off-diagonal contradiction
    m = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
    # eigenvalues: 1 + 0.9*sqrt(2), 1, 1 - 0.9*sqrt(2) < 0
    bad = validate_kernel(KernelMatrix(m))
    assert any(v.kind == "psd" for v in bad)


def test_kernel_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        KernelMatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------- estimators


def test_smoothed_rates_never_saturate():
    led = MeasurementLedger.empty(3)
    led.record(np.array([10, 5, 0]), np.array([10, 0, 0]))
    smoothed = led.smoothed()
    assert smoothed[0] == pytest.approx(11.0 / 12.0, abs=0)
    assert np.all((0.0 < smoothed) & (smoothed < 1.0))


def test_estimator_variance_hand_values():
    assert estimator_variance(0.5, 10, 0.0) == pytest.approx(0.025, rel=0, abs=1e-15)
    # 0.3*0.7/10 + (1 - 1/10)*0.05**2 = 0.021 + 0.00225
    assert estimator_variance(0.3, 10, 0.05) == pytest.approx(0.02325, abs=1e-15)
    with pytest.raises(ValueError):
        estimator_variance(0.5, 0, 0.0)


def test_estimator_variance_broadcasts():
    v = estimator_variance(np.array([0.5, 0.3]), np.array([10, 10]), 0.05)
    np.testing.assert_allclose(v, [0.025 + 0.9 * 0.0025, 0.02325], atol=1e-15)


# ---------------------------------------------------------------- simulation


def test_offsets_persist_within_trial():
    """Two large batches in one trial share the miscalibration offset, so their
    empirical rates agree even when the offset has pushed both away from K."""
    k = KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    z = np.random.default_rng(99).standard_normal(1)[0]
    rng = np.random.default_rng(99)
    probs = success_probabilities(k, 0.3, rng)  # the offset is the rng's first normal draw
    np.testing.assert_array_equal(probs, [np.clip(0.5 + 0.3 * z, 0.0, 1.0)])
    m = 50_000
    r1 = simulate_counts(probs, [m], rng)[0] / m
    r2 = simulate_counts(probs, [m], rng)[0] / m
    assert abs(r1 - r2) < 0.02  # binomial noise only
    assert r1 == pytest.approx(probs[0], abs=0.02)


def test_zero_sigma_is_pure_bernoulli():
    k = KernelMatrix(expand(np.linspace(0.1, 0.9, 6), 4, diag=1.0))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(success_probabilities(k, 0.0, rng), k.condensed())
    assert rng.bit_generator.state == state  # no offset draw
    with pytest.raises(ValueError):
        success_probabilities(k, -0.1, rng)


def test_simulate_counts_matches_entrywise_model():
    n = 4
    k = KernelMatrix(expand(np.full(num_pairs(n), 0.25), n, diag=1.0))
    rng = np.random.default_rng(11)
    counts = np.array([1000, 0, 2000, 0, 500, 3000])
    s = simulate_counts(k.condensed(), counts, rng)
    assert s.shape == counts.shape
    assert np.all(s <= counts)
    assert np.all(s[counts == 0] == 0)
    nz = counts > 0
    np.testing.assert_allclose(s[nz] / counts[nz], 0.25, atol=0.08)


# ---------------------------------------------------------------- ledger


def test_ledger_accumulates_and_totals():
    led = MeasurementLedger.empty(3)
    led.record(np.array([10, 0, 0]), np.array([4, 0, 0]))
    led.record(np.array([5, 0, 0]), np.array([5, 0, 0]))
    np.testing.assert_array_equal(led.shots, [15, 0, 0])
    np.testing.assert_array_equal(led.successes, [9, 0, 0])
    assert led.shots.sum() == 15
    led.record(np.array([0, 2, 0]), np.array([0, 1, 0]))
    assert led.shots.sum() == 17


def test_ledger_rejects_bad_counts():
    led = MeasurementLedger.empty(3)
    with pytest.raises(ValueError):
        led.record(np.array([5, 0, 0]), np.array([6, 0, 0]))  # successes > shots
    with pytest.raises(ValueError):
        led.record(np.array([-1, 0, 0]), np.array([0, 0, 0]))


_RECORD_KINDS = ["valid", "negative shots", "negative successes", "successes exceed shots"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.data())
def test_ledger_invariants_under_record_sequences(n, data):
    """Accepted records add up, rejected ones change nothing, and the totals
    always satisfy 0 <= successes <= shots with smoothed rates inside (0, 1)."""
    m = num_pairs(n)
    led = MeasurementLedger.empty(n)
    want_shots = np.zeros(m, dtype=np.int64)
    want_successes = np.zeros(m, dtype=np.int64)
    counts = st.lists(st.integers(0, 1000), min_size=m, max_size=m)
    for _ in range(data.draw(st.integers(1, 12))):
        shots = np.array(data.draw(counts))
        successes = np.array(data.draw(counts)) % (shots + 1)
        kind = data.draw(st.sampled_from(_RECORD_KINDS))
        slot = data.draw(st.integers(0, m - 1))
        excess = data.draw(st.integers(1, 5))
        if kind == "negative shots":
            shots[slot] = -excess
        elif kind == "negative successes":
            successes[slot] = -excess
        elif kind == "successes exceed shots":
            successes[slot] = shots[slot] + excess
        before_shots, before_successes = led.shots.copy(), led.successes.copy()
        if kind == "valid":
            led.record(shots, successes)
            want_shots += shots
            want_successes += successes
        else:
            with pytest.raises(ValueError):
                led.record(shots, successes)
            assert (led.shots == before_shots).all()
            assert (led.successes == before_successes).all()
        assert (led.successes >= 0).all() and (led.successes <= led.shots).all()
        assert (led.shots == want_shots).all() and (led.successes == want_successes).all()
        rates = led.smoothed()
        assert ((rates > 0.0) & (rates < 1.0)).all()


def test_assemble_estimate_symmetric_unit_diagonal():
    n = 4
    led = MeasurementLedger.empty(n)
    rng = np.random.default_rng(3)
    k_true = KernelMatrix(expand(rng.uniform(0.2, 0.8, num_pairs(n)), n, diag=1.0))
    counts = np.full(num_pairs(n), 400)
    s = simulate_counts(k_true.condensed(), counts, rng)
    led.record(counts, s)
    khat = assemble_estimate(led)
    np.testing.assert_array_equal(khat.entries, khat.entries.T)
    np.testing.assert_array_equal(np.diag(khat.entries), np.ones(n))
    np.testing.assert_allclose(khat.condensed(), k_true.condensed(), atol=0.15)


def test_assemble_estimate_incomplete_ledger():
    led = MeasurementLedger.empty(3)
    led.record(np.array([5, 0, 0]), np.array([2, 0, 0]))
    with pytest.raises(IncompleteLedgerError) as ei:
        assemble_estimate(led)
    assert (0, 2) in ei.value.missing_pairs and (1, 2) in ei.value.missing_pairs


# ------------------------------------------------------- measurement-law Monte Carlo


def _mc_estimates(k, n_shots, sigma, trials, seed):
    """One estimate per simulated trial (fresh offset each trial)."""
    rng = np.random.default_rng(seed)
    if sigma > 0:
        p = np.clip(k + rng.normal(0.0, sigma, trials), 0.0, 1.0)
    else:
        p = np.full(trials, k)
    return rng.binomial(n_shots, p) / n_shots


@pytest.mark.parametrize("n_shots", [5, 20, 100])
@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.05])
def test_variance_law_grid(n_shots, sigma):
    est = _mc_estimates(0.3, n_shots, sigma, 100_000, seed=42 + n_shots)
    predicted = estimator_variance(0.3, n_shots, sigma)
    assert np.var(est) == pytest.approx(predicted, rel=0.05)


def test_unbiased_within_four_se():
    trials = 100_000
    est = _mc_estimates(0.3, 20, 0.02, trials, seed=2024)
    se = np.sqrt(estimator_variance(0.3, 20, 0.02) / trials)
    assert abs(est.mean() - 0.3) <= 4 * se


def test_variance_floor_as_shots_grow():
    """With sigma fixed, more shots drive the variance down to sigma^2, never below 0.9 sigma^2."""
    sigma = 0.05
    prev = np.inf
    for n_shots in (100, 1_000, 10_000):
        est = _mc_estimates(0.3, n_shots, sigma, 100_000, seed=7 * n_shots)
        v = np.var(est)
        assert v >= 0.9 * sigma**2
        assert v <= prev * 1.02  # nonincreasing up to MC wiggle
        prev = v
    assert prev == pytest.approx(sigma**2, rel=0.1)


def test_cross_batch_covariance_equals_sigma_sq():
    """Two batches within a trial covary through the shared offset: Cov = sigma_phys^2."""
    sigma, n_shots, trials = 0.05, 50, 100_000
    rng = np.random.default_rng(31)
    p = np.clip(0.5 + rng.normal(0.0, sigma, trials), 0.0, 1.0)
    est1 = rng.binomial(n_shots, p) / n_shots
    est2 = rng.binomial(n_shots, p) / n_shots
    cov = np.cov(est1, est2)[0, 1]
    assert cov == pytest.approx(sigma**2, rel=0.15)
