"""Measurement campaigns: spend a shot budget on a kernel, train, repeat.

The adaptive loop seeds every entry with a small pilot, trains, then spends the
rest of the budget in rounds: score entries by their influence on the margin
and the risk of support flips, draw the round's shots from a multinomial over
those scores, re-estimate, retrain. A run can end early once the dual weights
stop moving between rounds; whatever budget remains is simply not spent. The
uniform baseline spends the identical nominal budget in one even pass.

Every random choice flows through the caller's Generator, so a (data, config,
seed) triple reproduces a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import multinomial_draw, uniform_allocation
from .errors import InsufficientBudgetError
from .kernels import (
    KernelMatrix,
    MeasurementLedger,
    assemble_estimate,
    estimator_variance,
    num_pairs,
    simulate_counts,
    success_probabilities,
)
from .metrics import MetricBundle, Reference, compute_bundle
from .sensitivity import (
    allocation_scores,
    decision_variance,
    margin_residuals,
    sv_transition_prob,
)
from .solver import train

STABILITY_REGULARIZER = 1e-12


@dataclass(frozen=True)
class AdaptiveConfig:
    """Budget and algorithm knobs shared by the adaptive and uniform pipelines."""

    n_tot: int
    rounds: int = 5
    m0: int = 2
    lam: float = 0.5
    epsilon: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.n_tot < 1:
            raise ValueError("n_tot must be positive")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.m0 < 1:
            raise ValueError("pilot needs at least one shot per entry")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")


@dataclass(frozen=True)
class TrialData:
    """One problem instance: the clean kernel, labels, and the offset scale."""

    kernel: KernelMatrix
    labels: np.ndarray
    sigma_phys: float = 0.0


@dataclass
class RoundRecord:
    index: int  # 0 is the pilot; uniform runs have a single index-0 record
    shots: int
    cumulative_shots: int
    alpha: np.ndarray = field(repr=False)
    b: float
    delta: float | None  # dual movement vs the previous round; None before round 1
    metrics: MetricBundle
    used_fallback: bool = False


@dataclass
class RunTrace:
    strategy: str
    rounds: list[RoundRecord]
    n_tot: int
    stopped_early: bool


def dual_stability(alpha_new: np.ndarray, alpha_old: np.ndarray) -> float:
    """Relative movement of the dual weights between consecutive rounds."""
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a 1-D float array
    step = alpha_new - alpha_old
    num = math.sqrt(step.dot(step))
    return num / (math.sqrt(alpha_old.dot(alpha_old)) + STABILITY_REGULARIZER)


def clean_reference(data: TrialData, c: float) -> Reference:
    """The model trained on the exact kernel, which every round's metrics compare against."""
    return Reference.of(train(data.kernel, data.labels, c=c), data.kernel)


def run_pilot(data: TrialData, config: AdaptiveConfig, shot_probs: np.ndarray,
              rng: np.random.Generator):
    """m0 shots on every entry at the trial's success probabilities, then a
    first model. Returns (ledger, model)."""
    n = data.kernel.n
    ledger = MeasurementLedger.empty(n)
    counts = np.full(num_pairs(n), config.m0, dtype=np.int64)
    successes = simulate_counts(shot_probs, counts=counts, rng=rng)
    ledger.record(counts, successes)
    model = train(assemble_estimate(ledger), data.labels, c=config.c)
    return ledger, model


def run_adaptive(data: TrialData, config: AdaptiveConfig, rng: np.random.Generator,
                 reference: Reference | None = None) -> RunTrace:
    """Pilot plus up to ``rounds`` scored refinement rounds under one budget."""
    n = data.kernel.n
    m = num_pairs(n)
    n_pilot = config.m0 * m
    if config.n_tot < n_pilot:
        raise InsufficientBudgetError(
            f"budget {config.n_tot} is below the pilot cost {n_pilot}")
    if reference is None:
        reference = clean_reference(data, config.c)

    shot_probs = success_probabilities(data.kernel, data.sigma_phys, rng)
    ledger, model = run_pilot(data, config, shot_probs, rng)
    khat = assemble_estimate(ledger)
    records = [RoundRecord(
        index=0, shots=n_pilot, cumulative_shots=n_pilot,
        alpha=model.alpha.copy(), b=model.b, delta=None,
        metrics=compute_bundle(reference, model, khat))]

    remaining = config.n_tot - n_pilot
    per_round = remaining // config.rounds if config.rounds else 0
    cumulative = n_pilot
    stopped = False
    for r in range(1, config.rounds + 1):
        budget_r = per_round if r < config.rounds else remaining - per_round * (config.rounds - 1)
        residuals = margin_residuals(model, khat)
        entry_var = estimator_variance(ledger.smoothed(), np.maximum(ledger.shots, 1))
        sigma_f = np.sqrt(decision_variance(model, entry_var))
        probs = sv_transition_prob(residuals, sigma_f)
        scores, used_fallback = allocation_scores(model, ledger, probs, config.lam)
        alloc = multinomial_draw(scores, budget_r, rng)
        successes = simulate_counts(shot_probs, counts=alloc.counts, rng=rng)
        ledger.record(alloc.counts, successes)
        khat = assemble_estimate(ledger)
        new_model = train(khat, data.labels, c=config.c)
        delta = dual_stability(new_model.alpha, model.alpha)
        model = new_model
        cumulative += int(budget_r)
        records.append(RoundRecord(
            index=r, shots=int(budget_r), cumulative_shots=cumulative,
            alpha=model.alpha.copy(), b=model.b, delta=delta,
            metrics=compute_bundle(reference, model, khat),
            used_fallback=used_fallback))
        if delta < config.epsilon:
            stopped = True
            break

    return RunTrace(strategy="adaptive", rounds=records, n_tot=config.n_tot,
                    stopped_early=stopped)


def run_uniform(data: TrialData, config: AdaptiveConfig, rng: np.random.Generator,
                reference: Reference | None = None) -> RunTrace:
    """The whole budget in one even pass; the head-to-head baseline."""
    n = data.kernel.n
    if reference is None:
        reference = clean_reference(data, config.c)
    ledger = MeasurementLedger.empty(n)
    alloc = uniform_allocation(n, config.n_tot, rng)
    shot_probs = success_probabilities(data.kernel, data.sigma_phys, rng)
    successes = simulate_counts(shot_probs, counts=alloc.counts, rng=rng)
    ledger.record(alloc.counts, successes)
    khat = assemble_estimate(ledger)
    model = train(khat, data.labels, c=config.c)
    record = RoundRecord(
        index=0, shots=config.n_tot, cumulative_shots=config.n_tot,
        alpha=model.alpha.copy(), b=model.b, delta=None,
        metrics=compute_bundle(reference, model, khat))
    return RunTrace(strategy="uniform", rounds=[record], n_tot=config.n_tot,
                    stopped_early=False)


def stop_round(trace: RunTrace, epsilon: float) -> int:
    """The round a threshold-epsilon run would have stopped at, read off a full trace.

    The trajectory up to the stop never depends on epsilon, so sweeping
    thresholds only needs the epsilon = 0 trace.
    """
    for rec in trace.rounds[1:]:
        if rec.delta is not None and rec.delta < epsilon:
            return rec.index
    return trace.rounds[-1].index
