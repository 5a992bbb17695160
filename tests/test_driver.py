"""End-to-end measurement runs: pilot, adaptive refinement rounds, uniform
baseline, early stopping, budget accounting, and bitwise determinism.
"""

import numpy as np
import pytest

import shotsvm.driver as driver_mod
from shotsvm.datasets import BlobSpec, make_blobs, rbf_kernel
from shotsvm.driver import (
    AdaptiveConfig,
    RunTrace,
    TrialData,
    dual_stability,
    run_adaptive,
    run_pilot,
    run_uniform,
    stop_round,
)
from shotsvm.errors import InsufficientBudgetError
from shotsvm.kernels import KernelMatrix, expand, num_pairs, success_probabilities
from shotsvm.solver import train


def small_trial(seed=0, n=12, sigma=0.0):
    spec = BlobSpec(n_points=n, separation=2.5, noise_scale=0.6, seed=seed)
    x, y = make_blobs(spec)
    return TrialData(kernel=rbf_kernel(x), labels=y, sigma_phys=sigma)


def cfg(n=12, nbar=20, **kw):
    kw.setdefault("rounds", 3)
    kw.setdefault("epsilon", 0.0)
    return AdaptiveConfig(n_tot=nbar * num_pairs(n), **kw)


def test_dual_stability_hand_value():
    d = dual_stability(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert d == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert dual_stability(np.zeros(2), np.zeros(2)) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(n_tot=100, lam=1.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(n_tot=100, m0=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(n_tot=100, epsilon=-0.1)
    with pytest.raises(ValueError):
        AdaptiveConfig(n_tot=0)


def test_pilot_spends_m0_everywhere():
    data = small_trial()
    config = cfg(m0=2)
    rng = np.random.default_rng(1)
    probs = success_probabilities(data.kernel, data.sigma_phys, rng)
    ledger, model = run_pilot(data, config, probs, rng)
    assert np.all(ledger.shots == 2)
    assert ledger.shots.sum() == 2 * num_pairs(12)
    assert model.alpha.shape == (12,)


def test_budget_too_small_for_pilot():
    data = small_trial()
    config = AdaptiveConfig(n_tot=10, m0=2)
    with pytest.raises(InsufficientBudgetError):
        run_adaptive(data, config, np.random.default_rng(0))


def test_adaptive_budget_accounting_no_early_stop():
    data = small_trial()
    config = cfg(nbar=21)  # indivisible leftovers exercise the remainder rule
    trace = run_adaptive(data, config, np.random.default_rng(2))
    assert isinstance(trace, RunTrace)
    assert not trace.stopped_early
    assert len(trace.rounds) == config.rounds + 1
    assert trace.rounds[-1].cumulative_shots == config.n_tot
    assert trace.rounds[-1].cumulative_shots / trace.n_tot == 1.0
    spent = [r.shots for r in trace.rounds]
    assert spent[0] == config.m0 * num_pairs(12)
    rem = config.n_tot - spent[0]
    assert spent[1] == spent[2] == rem // 3
    assert spent[3] == rem - 2 * (rem // 3)
    cums = [r.cumulative_shots for r in trace.rounds]
    assert cums == np.cumsum(spent).tolist()


def test_epsilon_infinite_stops_after_first_round():
    data = small_trial()
    trace = run_adaptive(data, cfg(epsilon=np.inf), np.random.default_rng(3))
    assert trace.stopped_early
    assert len(trace.rounds) == 2  # pilot + one round
    assert trace.rounds[-1].cumulative_shots < cfg().n_tot
    assert trace.rounds[-1].cumulative_shots / trace.n_tot < 1.0


def test_leftover_budget_unspent_after_early_stop():
    data = small_trial()
    config = cfg(epsilon=np.inf)
    trace = run_adaptive(data, config, np.random.default_rng(4))
    assert trace.rounds[-1].cumulative_shots <= config.n_tot


def test_uniform_run_single_record_full_budget():
    data = small_trial()
    config = cfg()
    trace = run_uniform(data, config, np.random.default_rng(5))
    assert trace.strategy == "uniform"
    assert len(trace.rounds) == 1
    assert trace.rounds[0].cumulative_shots == config.n_tot
    assert trace.rounds[-1].cumulative_shots / trace.n_tot == 1.0
    assert trace.rounds[0].delta is None


def test_uniform_run_draws_remainder_then_offsets_then_shots():
    """With a budget that leaves a remainder and nonzero offsets, the uniform
    run draws the remainder entries, then the trial's offsets, then the shots,
    and trains on exactly the estimate those draws give."""
    n, sigma = 12, 0.05
    m = num_pairs(n)
    data = small_trial(seed=3, n=n, sigma=sigma)
    config = AdaptiveConfig(n_tot=7 * m + 5)
    trace = run_uniform(data, config, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    counts = np.full(m, 7, dtype=np.int64)
    counts[rng.choice(m, size=5, replace=False)] += 1
    offsets = rng.standard_normal(m) * sigma
    successes = rng.binomial(counts, np.clip(data.kernel.condensed() + offsets, 0.0, 1.0))
    model = train(KernelMatrix(expand(successes / counts, n, diag=1.0)), data.labels, c=config.c)
    np.testing.assert_array_equal(trace.rounds[0].alpha, model.alpha)
    assert trace.rounds[0].b == model.b


def test_determinism_bitwise():
    data = small_trial(seed=7, sigma=0.02)
    config = cfg(rounds=4)
    t1 = run_adaptive(data, config, np.random.default_rng(42))
    t2 = run_adaptive(data, config, np.random.default_rng(42))
    assert len(t1.rounds) == len(t2.rounds)
    for a, b in zip(t1.rounds, t2.rounds):
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert a.b == b.b
        assert a.shots == b.shots
        assert a.metrics == b.metrics
        assert a.delta == b.delta
    u1 = run_uniform(data, config, np.random.default_rng(43))
    u2 = run_uniform(data, config, np.random.default_rng(43))
    np.testing.assert_array_equal(u1.rounds[0].alpha, u2.rounds[0].alpha)


def test_early_stop_prefix_matches_full_trace():
    """A run with threshold e walks the identical trajectory as the e=0 run and
    just stops at the first round whose stability dips below e."""
    data = small_trial(seed=11)
    full = run_adaptive(data, cfg(rounds=5), np.random.default_rng(9))
    deltas = [r.delta for r in full.rounds[1:]]
    assert all(d is not None and d >= 0 for d in deltas)
    for eps in (0.05, 0.3, np.inf):
        part = run_adaptive(data, cfg(rounds=5, epsilon=eps), np.random.default_rng(9))
        r_star = stop_round(full, eps)
        assert part.rounds[-1].index == r_star
        assert len(part.rounds) == r_star + 1
        for a, b in zip(part.rounds, full.rounds):
            np.testing.assert_array_equal(a.alpha, b.alpha)
            assert a.cumulative_shots == b.cumulative_shots


def test_stop_round_replay_rules():
    data = small_trial(seed=13)
    full = run_adaptive(data, cfg(rounds=4), np.random.default_rng(1))
    assert stop_round(full, 0.0) == 4  # never triggers, last executed round
    assert stop_round(full, np.inf) == 1


def test_metrics_improve_with_budget_on_average():
    """Not a per-trial guarantee, but the pilot should typically be worse than
    the final round; check the median over a few trials."""
    gains = []
    for seed in range(8):
        data = small_trial(seed=seed)
        trace = run_adaptive(data, cfg(nbar=40), np.random.default_rng(100 + seed))
        gains.append(trace.rounds[0].metrics.decision_rmse - trace.rounds[-1].metrics.decision_rmse)
    assert np.median(gains) > 0


def test_rounds_zero_gives_pilot_only():
    data = small_trial()
    trace = run_adaptive(data, cfg(rounds=0, nbar=2), np.random.default_rng(0))
    assert len(trace.rounds) == 1
    assert not trace.stopped_early
    # the pilot was the whole budget
    assert trace.rounds[-1].cumulative_shots / trace.n_tot == 1.0


def test_fallback_flag_is_recorded(monkeypatch):
    data = small_trial()

    real = driver_mod.allocation_scores

    def degenerate(model, ledger, probs, lam):
        scores, _ = real(model, ledger, probs, lam)
        return np.ones_like(scores), True

    monkeypatch.setattr(driver_mod, "allocation_scores", degenerate)
    trace = run_adaptive(data, cfg(), np.random.default_rng(6))
    assert all(r.used_fallback for r in trace.rounds[1:])


def test_matched_budget_fairness():
    data = small_trial()
    config = cfg()
    rng_a = np.random.default_rng(70)
    rng_u = np.random.default_rng(71)
    adaptive = run_adaptive(data, config, rng_a)
    uniform = run_uniform(data, config, rng_u)
    assert adaptive.n_tot == uniform.n_tot
    assert adaptive.rounds[-1].cumulative_shots == uniform.rounds[0].cumulative_shots
