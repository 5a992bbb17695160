"""Measurement layer: pair layout, validation, shot simulation, estimators.

Monte Carlo checks freeze their expected values from the closed-form variance law
    Var(Khat) = K(1-K)/N + (1 - 1/N) * sigma_phys**2
computed by hand for each (K, N, sigma) grid point before the implementation existed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairs_reference
import shotsvm.kernels as kernels_mod
from shotsvm.kernels import (
    assemble_estimate,
    check_kernel,
    condense,
    estimator_variance,
    expand,
    num_pairs,
    pair_blocks,
    pair_products,
    simulate_counts,
    smoothed_rates,
    success_probabilities,
    upper_mask,
)
from solver_oracle import pair_index

# ---------------------------------------------------------------- pair indexing


def test_num_pairs():
    assert num_pairs(2) == 1
    assert num_pairs(5) == 10
    assert num_pairs(50) == 1225


def test_pair_index_roundtrip():
    n = 7
    iu, ju = np.nonzero(upper_mask(n))
    assert len(iu) == num_pairs(n)
    for k in range(num_pairs(n)):
        assert pair_index(int(iu[k]), int(ju[k]), n) == k


def test_upper_mask_is_cached_and_read_only():
    for n in (2, 3, 7, 50, 7):
        mask = upper_mask(n)
        assert mask.dtype == bool and mask.shape == (n, n)
        np.testing.assert_array_equal(mask, np.triu(np.ones((n, n), dtype=bool), 1))
        assert upper_mask(n) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = True
        # its True positions in row-major order are the flat pair layout
        row, col = np.nonzero(mask)
        iu, ju = np.triu_indices(n, 1)
        np.testing.assert_array_equal(row, iu)
        np.testing.assert_array_equal(col, ju)


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
    full = expand(vec.__getitem__, n, diag=diag)
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


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("n", [2, 3, 7, 50, 401])
def test_pair_products_match_condensed_outer_bitwise(monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(kernels_mod, "_PAIR_BLOCK", block)
    u = np.random.default_rng(n).standard_normal(n) * 1e3
    u[0], u[-1] = -0.0, np.inf  # a signed zero, and inf * 0 = NaN
    with np.errstate(invalid="ignore"):
        got = pair_products(u)
        want = condense(np.outer(u, u))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("n", [2, 7, 401])
def test_expand_and_assemble_estimate_match_reference_bitwise(monkeypatch, n, block):
    """One block, several, and one row per block all give the reference matrix."""
    if block is not None:
        monkeypatch.setattr(kernels_mod, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(n)
    shots = rng.integers(1, 9, num_pairs(n))
    successes = rng.integers(0, shots + 1)
    want = pairs_reference.expand(successes / shots, n, diag=1.0)
    assert expand((successes / shots).__getitem__, n, diag=1.0).tobytes() == want.tobytes()
    assert assemble_estimate(successes, shots, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, 100, None])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 401])
def test_pair_blocks_tile_the_layout_in_whole_rows(monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(kernels_mod, "_PAIR_BLOCK", block)
    mask = upper_mask(n)
    blocks = list(pair_blocks(n))
    step = max(1, kernels_mod._PAIR_BLOCK // max(n, 1))
    assert [b[0].start for b in blocks] == list(range(0, n, step))
    bounds = [0] + [b[2].stop for b in blocks]
    assert [b[2].start for b in blocks] == bounds[:-1]
    assert bounds[-1] == num_pairs(n)
    for rows, rows_mask, pairs in blocks:
        assert rows_mask.tobytes() == mask[rows].tobytes()
        assert pairs.stop - pairs.start == rows_mask.sum()
        if block is None or block >= n:
            assert pairs.stop - pairs.start <= kernels_mod._PAIR_BLOCK


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
    back = expand(vec.__getitem__, 6, diag=np.diag(sym))
    np.testing.assert_array_equal(back, sym)


# ---------------------------------------------------------------- validation


def test_validate_kernel_accepts_near_singular_psd():
    # eigenvalues are 1.99 and 0.01, both above the floor
    check_kernel(np.array([[1.0, 0.99], [0.99, 1.0]]))


def test_validate_kernel_range_violation_carries_index():
    k = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(ValueError) as ei:
        check_kernel(k)
    assert str(ei.value).startswith(
        "invalid kernel: range: K[0,1]=1.2 outside [0,1]; range: K[1,0]=1.2 outside [0,1]")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_kernel_reports_non_finite_entries(value):
    m = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    m[0, 1] = m[1, 0] = value
    with pytest.raises(ValueError) as ei:
        check_kernel(m)  # no eigenvalue check, so no LinAlgError on NaN
    message = str(ei.value)
    assert message.startswith(f"invalid kernel: finite: K[0,1]={float(value)!r} is not finite; "
                              f"finite: K[1,0]={float(value)!r} is not finite")
    assert "symmetry" not in message and "psd" not in message


def test_validate_kernel_symmetry_is_exact():
    m = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    with pytest.raises(ValueError, match=r"^invalid kernel: symmetry: K\[0,1\]=0.5 != K\[1,0\]"):
        check_kernel(m)


def test_validate_kernel_diagonal():
    m = np.array([[0.9, 0.1], [0.1, 1.0]])
    with pytest.raises(ValueError) as ei:
        check_kernel(m)
    assert str(ei.value) == "invalid kernel: diagonal: K[0,0]=0.9 != 1"


def test_validate_kernel_psd_floor():
    check_kernel(np.ones((2, 2)))  # eigenvalues 2, 0
    # indefinite example: 3x3 with strong off-diagonal contradiction
    m = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
    # eigenvalues: 1 + 0.9*sqrt(2), 1, 1 - 0.9*sqrt(2) < 0
    with pytest.raises(ValueError) as ei:
        check_kernel(m)
    assert str(ei.value) == "invalid kernel: psd: smallest eigenvalue -2.728e-01 < -1e-08"


def test_check_kernel_names_six_and_counts_the_rest():
    # 3 diagonal and 7 range entries, 3 of them on the diagonal: the first
    # six are named and the other four counted
    m = np.array([[2.0, 1.5, 0.2], [1.5, 2.0, -0.5], [0.2, -0.5, 2.0]])
    with pytest.raises(ValueError) as ei:
        check_kernel(m)
    assert str(ei.value) == (
        "invalid kernel: diagonal: K[0,0]=2.0 != 1; diagonal: K[1,1]=2.0 != 1; "
        "diagonal: K[2,2]=2.0 != 1; range: K[0,0]=2.0 outside [0,1]; "
        "range: K[0,1]=1.5 outside [0,1]; range: K[1,0]=1.5 outside [0,1] (+4 more)")


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
    except ValueError:
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_rejecting_a_kernel_costs_what_accepting_one_does():
    """The check counts offenders with whole-array reductions and formats only
    the six it names, so an all-out-of-range kernel peaks as a valid one does
    (a report of one object per offender peaked 27 times as high at n = 300)."""
    n = 300
    rng = np.random.default_rng(0)
    x = np.abs(rng.standard_normal((n, 3)))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    valid = x @ x.T
    np.fill_diagonal(valid, 1.0)
    valid = (valid + valid.T) / 2
    bad = np.full((n, n), 2.0)
    check_kernel(valid)
    with pytest.raises(ValueError, match=r"\(\+90294 more\)$"):
        check_kernel(bad)
    assert _traced_peak(check_kernel, bad) <= 2 * _traced_peak(check_kernel, valid)


# ---------------------------------------------------------------- estimators


def test_smoothed_rates_never_saturate():
    smoothed = smoothed_rates(np.array([10, 0, 0]), np.array([10, 5, 0]))
    assert smoothed[0] == pytest.approx(11.0 / 12.0, abs=0)
    assert np.all((0.0 < smoothed) & (smoothed < 1.0))


# the largest per-entry total a CLI run can reach: nbar <= 1e9 over n <= 2000 points
_MAX_SHOTS = 2 * 10**15


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, _MAX_SHOTS), st.floats(0.0, 1.0)),
                min_size=1, max_size=20))
def test_smoothed_rates_inside_unit_interval(entries):
    """For any totals 0 <= successes <= shots the add-one rate lies strictly
    inside (0, 1), no farther from 1/2 than the raw rate, and the totals are
    left as they were."""
    shots = np.array([total for total, _ in entries], dtype=np.int64)
    successes = np.array([int(total * share) for total, share in entries], dtype=np.int64)
    before = shots.copy(), successes.copy()
    rates = smoothed_rates(successes, shots)
    assert rates.shape == shots.shape
    assert ((rates > 0.0) & (rates < 1.0)).all()
    measured = shots > 0
    raw = successes[measured] / shots[measured]
    assert (np.abs(rates[measured] - 0.5) <= np.abs(raw - 0.5)).all()
    assert (shots == before[0]).all() and (successes == before[1]).all()


def test_estimator_variance_hand_values():
    assert estimator_variance(0.5, 10, 0.0) == pytest.approx(0.025, rel=0, abs=1e-15)
    # 0.3*0.7/10 + (1 - 1/10)*0.05**2 = 0.021 + 0.00225
    assert estimator_variance(0.3, 10, 0.05) == pytest.approx(0.02325, abs=1e-15)
    with pytest.raises(ValueError):
        estimator_variance(0.5, 0, 0.0)


def test_estimator_variance_broadcasts():
    v = estimator_variance(np.array([0.5, 0.3]), np.array([10, 10]), 0.05)
    np.testing.assert_allclose(v, [0.025 + 0.9 * 0.0025, 0.02325], atol=1e-15)


def _variance_one_expression(k, n_shots, sigma_phys=0.0):
    """The variance law as one expression over float64 copies of the inputs."""
    k = np.asarray(k, dtype=np.float64)
    n_shots = np.asarray(n_shots, dtype=np.float64)
    sigma_phys = np.asarray(sigma_phys, dtype=np.float64)
    out = k * (1.0 - k) / n_shots + (1.0 - 1.0 / n_shots) * sigma_phys**2
    return out if out.ndim else float(out)


@st.composite
def _variance_operand(draw, elements, dtype):
    """A scalar, or an array whose shape broadcasts against (3, 4)."""
    shape = draw(st.sampled_from([None, (), (4,), (3, 1), (3, 4)]))
    if shape is None:
        return draw(elements)
    return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape)))), dtype=dtype).reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_variance_operand(st.floats(0.0, 1.0), np.float64),
       st.one_of(_variance_operand(st.integers(1, 10**9), np.int64),
                 _variance_operand(st.floats(1.0, 1e9), np.float64)),
       _variance_operand(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), np.float64))
def test_estimator_variance_matches_one_expression_bitwise(k, n_shots, sigma):
    got = estimator_variance(k, n_shots, sigma)
    want = _variance_one_expression(k, n_shots, sigma)
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_estimator_variance_and_success_probabilities_leave_inputs_alone():
    rates = np.array([0.25, 0.5, 0.75])
    shots = np.array([4, 8, 2], dtype=np.int64)
    kernel = pairs_reference.expand(np.array([0.0, 0.4, 1.0]), 3, diag=1.0)
    before = [a.copy() for a in (rates, shots, kernel)]
    estimator_variance(rates, shots, 0.1)
    estimator_variance(rates, shots)
    success_probabilities(kernel, 0.5, np.random.default_rng(0))
    success_probabilities(kernel, 0.0, np.random.default_rng(0))
    for a, b in zip((rates, shots, kernel), before):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- simulation


def test_offsets_persist_within_trial():
    """Two large batches in one trial share the miscalibration offset, so their
    empirical rates agree even when the offset has pushed both away from K."""
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
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
    k = pairs_reference.expand(np.linspace(0.1, 0.9, 6), 4, diag=1.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(success_probabilities(k, 0.0, rng), condense(k))
    assert rng.bit_generator.state == state  # no offset draw
    with pytest.raises(ValueError):
        success_probabilities(k, -0.1, rng)


def test_simulate_counts_matches_entrywise_model():
    n = 4
    k = pairs_reference.expand(np.full(num_pairs(n), 0.25), n, diag=1.0)
    rng = np.random.default_rng(11)
    counts = np.array([1000, 0, 2000, 0, 500, 3000])
    s = simulate_counts(condense(k), counts, rng)
    assert s.shape == counts.shape
    assert np.all(s <= counts)
    assert np.all(s[counts == 0] == 0)
    nz = counts > 0
    np.testing.assert_allclose(s[nz] / counts[nz], 0.25, atol=0.08)
    # the only guard against negative counts on the trial path
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_counts(condense(k), np.array([5, -1, 0, 0, 0, 0]), rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------- assembly


def test_assemble_estimate_symmetric_unit_diagonal():
    n = 4
    rng = np.random.default_rng(3)
    k_true = pairs_reference.expand(rng.uniform(0.2, 0.8, num_pairs(n)), n, diag=1.0)
    shots = np.full(num_pairs(n), 400)
    khat = assemble_estimate(simulate_counts(condense(k_true), shots, rng), shots, n)
    np.testing.assert_array_equal(khat, khat.T)
    np.testing.assert_array_equal(np.diag(khat), np.ones(n))
    np.testing.assert_allclose(condense(khat), condense(k_true), atol=0.15)


def test_assemble_estimate_incomplete_ledger():
    with pytest.raises(ValueError) as ei:
        assemble_estimate(np.array([2, 0, 0]), np.array([5, 0, 0]), 3)
    assert str(ei.value) == "no shots recorded for pairs: (0, 2), (1, 2)"
    # past eight missing pairs the message counts the rest
    with pytest.raises(ValueError) as ei:
        assemble_estimate(np.zeros(10), np.zeros(10), 5)
    assert str(ei.value) == (
        "no shots recorded for pairs: (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), "
        "(1, 4), (2, 3) (+2 more)")


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
