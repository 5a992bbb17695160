"""End-to-end measurement runs: pilot, adaptive refinement rounds, uniform
baseline, early stopping, budget accounting, and bitwise determinism.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pairs_reference
import shotsvm.driver as driver_mod
from shotsvm.datasets import BlobSpec, make_blobs, rbf_kernel
from shotsvm.driver import (
    AdaptiveConfig,
    RunTrace,
    dual_stability,
    run_adaptive,
    run_uniform,
    stop_round,
)
from shotsvm.experiments import TrialTask, stage_rows
from shotsvm.kernels import condense, num_pairs
from shotsvm.metrics import Reference, compute_bundle
from shotsvm.solver import train
from test_acceptance import fidelity_kernel


def small_trial(seed=0, n=12, c=1.0):
    """A blob instance's clean problem: its kernel and labels, trained at c."""
    x, y = make_blobs(BlobSpec(n_points=n, separation=2.5, noise_scale=0.6), seed)
    return Reference.of(rbf_kernel(x), y, c)


def cfg(n=12, nbar=20, **kw):
    kw.setdefault("rounds", 3)
    kw.setdefault("epsilon", 0.0)
    return AdaptiveConfig(nbar=nbar, **kw)


def budget(config, n=12):
    """The shots a run on n points spends under config."""
    return config.nbar * num_pairs(n)


def reported(reference, config, trace):
    """The stage rows written for trace, which derive its cumulative shots and
    early stop from the rounds."""
    task = TrialTask(experiment="driver", trial=0, seed=0, config=config, reference=reference)
    return stage_rows(task, trace)


# the largest threshold a config accepts: every finite delta is below it
_EPSILON_MAX = float(np.finfo(np.float64).max)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 2
    assert all(math.isfinite(v) for v in values)


def test_dual_stability_hand_value():
    d = dual_stability(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert d == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert dual_stability(np.zeros(2), np.zeros(2)) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(nbar=100, lam=1.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(nbar=100, m0=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(nbar=100, epsilon=-0.1)
    # the range check comes first, so nbar = 0 under the default m0 names the range
    with pytest.raises(ValueError, match=re.escape("nbar must be in [1, 1e+09], got 0")):
        AdaptiveConfig(nbar=0)
    # the cap keeps every budget nbar * n(n-1)/2 in int64
    AdaptiveConfig(nbar=10**9)
    for nbar in (10**9 + 1, 3 * 10**18, math.inf):
        message = f"nbar must be in [1, 1e+09], got {nbar}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AdaptiveConfig(nbar=nbar)
    with pytest.raises(ValueError):
        AdaptiveConfig(nbar=100, sigma_phys=-0.1)
    # a run is a pilot plus at least one round, so it spends its whole budget
    with pytest.raises(ValueError, match="rounds must be at least 1, got 0"):
        AdaptiveConfig(nbar=100, rounds=0)
    # the per-pair budget must pay for the pilot
    with pytest.raises(ValueError,
                       match="^nbar 2 cannot cover the pilot of m0 3 shots per entry$"):
        AdaptiveConfig(nbar=2, m0=3)
    AdaptiveConfig(nbar=3, m0=3)
    lo, hi = AdaptiveConfig.RANGES["c"]
    # c = 1e200 used to pass here and overflow in the first round's scores
    for c in (1e200, np.nextafter(hi, np.inf), np.nextafter(lo, 0.0), 1e-300, 0.0, np.nan):
        with pytest.raises(ValueError, match="c must be in"):
            AdaptiveConfig(nbar=100, c=c)
    AdaptiveConfig(nbar=100, c=lo)
    AdaptiveConfig(nbar=100, c=hi)
    # in range, yet not an integer or not finite
    for name, value in [("rounds", 2.5), ("nbar", 500.0),
                        ("epsilon", math.inf), ("sigma_phys", math.inf)]:
        with pytest.raises(ValueError, match=f"{name} must be (an integer|finite)"):
            AdaptiveConfig(**{"nbar": 500, name: value})
    AdaptiveConfig(nbar=np.int64(100), rounds=np.int32(2))


def test_run_draws_offsets_once(monkeypatch):
    """A run draws its per-entry offsets once: the pilot and every round simulate
    shots at the same success probabilities, so batches of an entry covary."""
    drawn, used = [], []
    real_probs, real_counts = driver_mod.success_probabilities, driver_mod.simulate_counts

    def probs(*args):
        drawn.append(real_probs(*args))
        return drawn[-1]

    def counts(shot_probs, *args, **kwargs):
        used.append(shot_probs)
        return real_counts(shot_probs, *args, **kwargs)

    monkeypatch.setattr(driver_mod, "success_probabilities", probs)
    monkeypatch.setattr(driver_mod, "simulate_counts", counts)
    config = cfg(sigma_phys=0.05)
    run_adaptive(small_trial(), config, np.random.default_rng(3))
    [shot_probs] = drawn
    assert len(used) == config.rounds + 1
    assert all(p is shot_probs for p in used)


def test_pilot_spends_m0_everywhere(monkeypatch):
    batches = []
    real = driver_mod.simulate_counts

    def spy(shot_probs, counts, rng):
        successes = real(shot_probs, counts=counts, rng=rng)
        # the run adds later rounds to the pilot's arrays in place
        batches.append((counts.copy(), successes.copy()))
        return successes

    monkeypatch.setattr(driver_mod, "simulate_counts", spy)
    trace = run_adaptive(small_trial(), cfg(m0=2), np.random.default_rng(1))
    shots, successes = batches[0]
    assert len(shots) == num_pairs(12)
    assert np.all(shots == 2)
    assert shots.dtype == np.int64 and successes.dtype == np.int64
    assert np.all((0 <= successes) & (successes <= shots))
    assert trace.rounds[0].shots == 2 * num_pairs(12)


def test_budget_too_small_for_pilot():
    with pytest.raises(ValueError,
                       match="^nbar 1 cannot cover the pilot of m0 2 shots per entry$"):
        AdaptiveConfig(nbar=1, m0=2)


@pytest.mark.parametrize("run", [run_adaptive, run_uniform])
def test_run_at_the_nbar_cap_spends_its_budget(run):
    # past the cap, nbar = 3e18 made run_adaptive raise OverflowError partway
    config = cfg(n=8, nbar=AdaptiveConfig.RANGES["nbar"][1], rounds=2)
    trace = run(small_trial(n=8), config, np.random.default_rng(4))
    assert sum(rec.shots for rec in trace.rounds) == budget(config, n=8)


@pytest.mark.parametrize("run", [run_adaptive, run_uniform])
def test_zero_reference_margin_fails_before_any_shot(monkeypatch, run):
    """On the all-ones kernel every decision value is the bias, so the clean
    model's margin norm, the unit of two metrics, is 0: building the reference
    raises, so a trial on that kernel fails before the run draws a shot."""
    def no_shots(*args, **kwargs):
        raise AssertionError("a shot was drawn")

    monkeypatch.setattr(driver_mod, "simulate_counts", no_shots)
    config = AdaptiveConfig(nbar=4, rounds=2)
    with pytest.raises(ValueError, match="reference margin norm must be positive"):
        run(Reference.of(np.ones((4, 4)), np.array([1.0, -1.0, 1.0, -1.0]), config.c),
            config, np.random.default_rng(0))


@pytest.mark.parametrize("run", [run_adaptive, run_uniform])
def test_run_rejects_a_reference_trained_at_another_c(monkeypatch, run):
    """Every metric compares against the clean model at the run's box bound,
    so a reference trained at another c is refused before any shot."""
    def no_shots(*args, **kwargs):
        raise AssertionError("a shot was drawn")

    monkeypatch.setattr(driver_mod, "simulate_counts", no_shots)
    with pytest.raises(ValueError, match=r"trained at c=2\.0, not 1\.0"):
        run(small_trial(c=2.0), cfg(c=1.0), np.random.default_rng(0))


def test_adaptive_budget_accounting_no_early_stop():
    reference = small_trial()
    # 19 * 66 = 1,254 shots after the pilot leave 2 over 4 rounds, which the
    # last round spends
    config = cfg(nbar=21, rounds=4)
    trace = run_adaptive(reference, config, np.random.default_rng(2))
    assert isinstance(trace, RunTrace)
    rows = reported(reference, config, trace)
    assert not rows[-1].stopped_early
    assert len(trace.rounds) == config.rounds + 1
    assert rows[-1].cumulative_shots == budget(config)
    spent = [r.shots for r in trace.rounds]
    assert spent[0] == config.m0 * num_pairs(12)
    rem = budget(config) - spent[0]
    assert rem % 4 == 2
    assert spent[1] == spent[2] == spent[3] == rem // 4
    assert spent[4] == rem - 3 * (rem // 4)
    cums = [row.cumulative_shots for row in rows]
    assert cums == np.cumsum(spent).tolist()


@pytest.mark.parametrize("nbar, rounds", [(2, 1), (2, 3), (3, 200)])
def test_a_round_with_no_shots_is_not_run(nbar, rounds):
    """Only rounds with shots to spend run. When nbar == m0 the run is the
    pilot alone; when fewer shots than rounds remain after the pilot, the last
    round, which takes them all, is the only one, so the run is the one-round
    run. Either way it spends its whole budget and has not stopped early."""
    config = cfg(nbar=nbar, rounds=rounds)
    reference = small_trial()
    trace = run_adaptive(reference, config, np.random.default_rng(6))
    rows = reported(reference, config, trace)
    if nbar == config.m0:
        assert [rec.shots for rec in trace.rounds] == [budget(config)]
    else:
        one_round = run_adaptive(reference, dataclasses.replace(config, rounds=1),
                                 np.random.default_rng(6))
        assert len(trace.rounds) == 2
        assert repr(trace) == repr(one_round)
    assert rows[-1].cumulative_shots == budget(config)
    assert [row.stopped_early for row in rows] == [False] * len(rows)


def test_a_threshold_run_is_not_stopped_by_a_round_of_no_shots():
    """n = 8 leaves 28 shots for 40 rounds after a 2-shot pilot. A round of 0
    shots would retrain on the pilot's estimate, read delta 0 and stop any
    positive threshold with 28 of the 84 shots unspent; the one round that
    runs spends them, so the threshold does not change the run."""
    x, y = make_blobs(BlobSpec(n_points=8, separation=3.0, noise_scale=0.5), 3)
    config = AdaptiveConfig(nbar=3, m0=2, rounds=40, epsilon=0.01)
    reference = Reference.of(rbf_kernel(x), y, config.c)
    trace = run_adaptive(reference, config, np.random.default_rng(1))
    rows = reported(reference, config, trace)
    assert (rows[-1].cumulative_shots, rows[-1].stopped_early) == (84, False)
    for other in (dataclasses.replace(config, rounds=1), dataclasses.replace(config, epsilon=0.0)):
        assert repr(run_adaptive(reference, other, np.random.default_rng(1))) == repr(trace)


def test_epsilon_infinite_stops_after_first_round():
    reference = small_trial()
    config = cfg(epsilon=_EPSILON_MAX)
    trace = run_adaptive(reference, config, np.random.default_rng(3))
    rows = reported(reference, config, trace)
    assert rows[-1].stopped_early
    assert len(trace.rounds) == 2  # pilot + one round
    assert rows[-1].cumulative_shots < budget(config)


def test_epsilon_infinite_spends_a_one_round_budget():
    """A run whose only round spends the rest of the budget has not stopped
    early, however large its threshold."""
    reference, config = small_trial(), cfg(rounds=1, epsilon=_EPSILON_MAX)
    trace = run_adaptive(reference, config, np.random.default_rng(3))
    rows = reported(reference, config, trace)
    assert len(trace.rounds) == 2  # pilot + the one round
    assert rows[-1].cumulative_shots == budget(config)
    assert not rows[-1].stopped_early


def test_leftover_budget_unspent_after_early_stop():
    reference = small_trial()
    config = cfg(epsilon=_EPSILON_MAX)
    trace = run_adaptive(reference, config, np.random.default_rng(4))
    assert reported(reference, config, trace)[-1].cumulative_shots <= budget(config)


def test_uniform_run_single_record_full_budget():
    reference = small_trial()
    config = cfg()
    trace = run_uniform(reference, config, np.random.default_rng(5))
    assert trace.strategy == "uniform"
    assert len(trace.rounds) == 1
    (row,) = reported(reference, config, trace)
    assert trace.rounds[0].shots == row.cumulative_shots == budget(config)
    assert not row.stopped_early
    assert trace.rounds[0].delta is None


def test_uniform_run_draws_offsets_then_shots():
    """With nonzero offsets, the uniform run draws the trial's offsets, then
    nbar shots on every entry, and trains on exactly the estimate those draws
    give."""
    n, sigma = 12, 0.05
    m = num_pairs(n)
    reference = small_trial(seed=3, n=n)
    kernel, labels = reference.kernel, reference.model.labels
    config = AdaptiveConfig(nbar=7, sigma_phys=sigma)
    trace = run_uniform(reference, config, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    counts = np.full(m, 7, dtype=np.int64)
    offsets = rng.standard_normal(m) * sigma
    successes = rng.binomial(counts, np.clip(condense(kernel) + offsets, 0.0, 1.0))
    khat = pairs_reference.expand(successes / counts, n, diag=1.0)
    model = train(khat, labels, c=config.c)
    expected = compute_bundle(reference, model, khat)
    assert trace.rounds[0].metrics == expected


def test_determinism_bitwise():
    reference = small_trial(seed=7)
    config = cfg(rounds=4, sigma_phys=0.02)
    t1 = run_adaptive(reference, config, np.random.default_rng(42))
    t2 = run_adaptive(reference, config, np.random.default_rng(42))
    assert t1 == t2
    assert len(t1.rounds) == config.rounds + 1
    u1 = run_uniform(reference, config, np.random.default_rng(43))
    u2 = run_uniform(reference, config, np.random.default_rng(43))
    assert u1 == u2


def test_early_stop_prefix_matches_full_trace():
    """A run with threshold e walks the identical trajectory as the e=0 run and
    just stops at the first round whose stability dips below e."""
    reference = small_trial(seed=11)
    full = run_adaptive(reference, cfg(rounds=5), np.random.default_rng(9))
    deltas = [r.delta for r in full.rounds[1:]]
    assert all(d is not None and d >= 0 for d in deltas)
    for eps in (0.05, 0.3, _EPSILON_MAX):
        part = run_adaptive(reference, cfg(rounds=5, epsilon=eps), np.random.default_rng(9))
        r_star = stop_round(full, eps)
        assert len(part.rounds) - 1 == r_star
        assert part.rounds == full.rounds[:r_star + 1]


def test_stop_round_replay_rules():
    reference = small_trial(seed=13)
    full = run_adaptive(reference, cfg(rounds=4), np.random.default_rng(1))
    assert stop_round(full, 0.0) == 4  # never triggers, last executed round
    assert stop_round(full, np.inf) == 1


@st.composite
def run_cases(draw):
    """A clean problem and a config with every field at or near its range ends."""
    family = draw(st.sampled_from(["blob", "fidelity", "identity", "near-constant"]))
    if family in ("blob", "fidelity"):
        n = 2 * draw(st.integers(2, 8))
        spec = BlobSpec(n_points=n, separation=draw(st.sampled_from([0.0, 3.0, 5.0])),
                        noise_scale=draw(st.sampled_from([0.5, 1.0])),
                        dims=8 if family == "fidelity" else 2)
        x, labels = make_blobs(spec, draw(st.integers(0, 2**16)))
        if family == "blob":
            kernel = rbf_kernel(x)
        else:
            kernel = fidelity_kernel(x, draw(st.sampled_from([0.2, 1.0, 4.0, 20.0])))
    else:
        n = draw(st.integers(4, 16))
        labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        kernel = np.eye(n) if family == "identity" else np.full((n, n), 0.999)
        np.fill_diagonal(kernel, 1.0)
    m0 = draw(st.sampled_from([1, 2, 5]))
    config = AdaptiveConfig(
        nbar=m0 + draw(st.sampled_from([0, 1, 7, 50])),
        rounds=draw(st.sampled_from([1, 2, 3, 8])), m0=m0,
        lam=draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])),
        epsilon=draw(st.sampled_from([0.0, 1e-9, 0.05, 1.0, _EPSILON_MAX])),
        c=draw(st.sampled_from([1e-6, 1e-3, 1.0, 100.0])),
        sigma_phys=draw(st.sampled_from([0.0, 0.05, 10.0])))
    return kernel, labels, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run_cases())
def test_runs_keep_their_accounting_on_any_config(case):
    """Both runners, on any clean problem and config: reruns are bitwise equal,
    every run spends what it reports, no round after the pilot spends 0 shots,
    only a run that breaks before its last round has stopped early, which is a
    run that left budget unspent, and a threshold run is the threshold-0 trace
    cut at its stop round."""
    kernel, labels, config, seed = case
    assume(labels.min() < labels.max())
    pairs = num_pairs(len(kernel))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reference = Reference.of(kernel, labels, config.c)
        except ValueError as exc:
            assume("reference margin norm must be positive" not in str(exc))
            raise
        adaptive = run_adaptive(reference, config, np.random.default_rng(seed))
        uniform = run_uniform(reference, config, np.random.default_rng(seed))
        for run, trace in [(run_adaptive, adaptive), (run_uniform, uniform)]:
            assert repr(run(reference, config, np.random.default_rng(seed))) == repr(trace)
        full_config = dataclasses.replace(config, epsilon=0.0)
        full = run_adaptive(reference, full_config, np.random.default_rng(seed))

    # only rounds with shots to spend run: below one shot per round the last
    # round, which takes them all, is the only one, or none when none remain
    remaining = (config.nbar - config.m0) * pairs
    rounds = config.rounds if remaining >= config.rounds else min(remaining, 1)
    # a run breaks only at its last round or at a delta below its threshold
    executed = len(adaptive.rounds) - 1
    assert all(rec.delta >= config.epsilon for rec in adaptive.rounds[1:-1])
    assert executed == rounds or adaptive.rounds[-1].delta < config.epsilon
    assert adaptive.rounds[0].shots == config.m0 * pairs
    assert len(full.rounds) - 1 == rounds
    assert all(rec.shots > 0 for rec in full.rounds[1:])
    assert adaptive.rounds == full.rounds[:stop_round(full, config.epsilon) + 1]
    assert len(uniform.rounds) == 1
    for trace, run_config in [(adaptive, config), (full, full_config), (uniform, config)]:
        rows = reported(reference, run_config, trace)
        assert [row.stopped_early for row in rows] == [
            trace is adaptive and executed < rounds] * len(rows)
        assert [row.cumulative_shots for row in rows] == list(
            itertools.accumulate(r.shots for r in trace.rounds))
        assert rows[-1].stopped_early == (rows[-1].cumulative_shots < config.nbar * pairs)
        if not rows[-1].stopped_early:
            assert rows[-1].cumulative_shots == config.nbar * pairs
        for rec in trace.rounds:
            assert all(math.isfinite(v) for v in vars(rec.metrics).values())
            assert 0.0 <= rec.metrics.jaccard <= 1.0


def test_metrics_improve_with_budget_on_average():
    """Not a per-trial guarantee, but the pilot should typically be worse than
    the final round; check the median over a few trials."""
    gains = []
    for seed in range(8):
        reference = small_trial(seed=seed)
        trace = run_adaptive(reference, cfg(nbar=40), np.random.default_rng(100 + seed))
        gains.append(trace.rounds[0].metrics.decision_rmse - trace.rounds[-1].metrics.decision_rmse)
    assert np.median(gains) > 0


def test_fallback_flag_is_recorded(monkeypatch):
    reference = small_trial()

    real = driver_mod.allocation_scores

    def degenerate(model, successes, shots, residuals, lam):
        scores, _ = real(model, successes, shots, residuals, lam)
        return np.ones_like(scores), True

    monkeypatch.setattr(driver_mod, "allocation_scores", degenerate)
    trace = run_adaptive(reference, cfg(), np.random.default_rng(6))
    assert all(r.used_fallback for r in trace.rounds[1:])


def test_matched_budget_fairness():
    reference = small_trial()
    config = cfg()
    adaptive = run_adaptive(reference, config, np.random.default_rng(70))
    uniform = run_uniform(reference, config, np.random.default_rng(71))
    assert reported(reference, config, adaptive)[-1].cumulative_shots == budget(config)
    assert reported(reference, config, uniform)[0].cumulative_shots == budget(config)


def test_adaptive_run_memory_stays_bounded():
    """A pair vector is 0.64 MB at n = 400 and 4.0 MB at n = 1,000; an n x n
    array is 1.28 and 8.0 MB. A run holds three pair vectors throughout (the
    success probabilities and the running success and shot totals) and the
    cached pair mask (0.16 and 1.0 MB), 2.1 and 13.0 MB with the clean
    reference. On top of that a round holds at most one n x n array or two
    pair vectors, plus block temporaries of about 0.5 MB: 3.9 and 22.1 MB
    measured. Each cap is below that plus one pair vector, so one more pair
    vector or n x n array alive at the peak breaks it. When a round kept its
    rate, entry-variance and ratio vectors and the estimate's error matrix,
    the peaks were 5.2 and 29.1 MB."""
    for n, cap_mb in [(400, 4.2), (1000, 24.0)]:
        x, y = make_blobs(BlobSpec(n_points=n, separation=5.0, noise_scale=0.5), 7)
        kernel = rbf_kernel(x)
        config = AdaptiveConfig(nbar=50, rounds=5)
        tracemalloc.start()
        try:
            # the clean solve is traced too, as it was when the run trained it
            run_adaptive(Reference.of(kernel, y, config.c), config, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cap_mb * 1e6, n
