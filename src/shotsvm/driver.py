"""Measurement campaigns: spend a shot budget on a kernel, train, repeat.

The adaptive loop seeds every entry with a small pilot, trains, then spends the
rest of the budget in rounds: score entries by their influence on the margin
and the risk of support flips, draw the round's shots from a multinomial over
those scores, re-estimate, retrain. A run can end early once the dual weights
stop moving between rounds; whatever budget remains is simply not spent. The
uniform baseline spends the identical nominal budget in one even pass.

A run takes its clean problem as one value, a :class:`~shotsvm.metrics.Reference`
holding the exact kernel, the labels and the model trained on them. Every
random choice flows through the caller's Generator, so a (reference, config,
seed) tuple reproduces a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import multinomial_draw, uniform_allocation
from .errors import Ranged
from .kernels import assemble_estimate, num_pairs, simulate_counts, success_probabilities
from .metrics import MetricBundle, Reference, compute_bundle
from .sensitivity import allocation_scores, margin_residuals
from .solver import train

STABILITY_REGULARIZER = 1e-12


@dataclass(frozen=True)
class AdaptiveConfig(Ranged):
    """Budget, noise and algorithm knobs shared by the adaptive and uniform runs.

    ``nbar`` is the shot budget per pair, so a run on n points spends
    ``nbar * num_pairs(n)`` shots; ``sigma_phys`` scales the per-entry offsets
    each run draws once, and ``c`` is the SVM box bound. ``RANGES`` holds each
    field's closed range, and ``nbar`` must also cover the ``m0``-shot pilot.
    Its cap of 1e9 keeps every budget in int64 for n up to about 135,000.
    On overlapping classes SMO walks dual weights to the box bound in small
    steps, so its iterations grow with ``c``: the worst solve measured took
    0.9 % of the 100,000-per-point cap at c = 100 (n = 400) and 6.8 % at
    c = 1e3 (n = 50), and at c = 1e4 some n = 50 solves hit the cap. Below
    about c = 7e-81 the fourth powers of the dual weights in the allocation
    weights underflow to zero. A round with no shots to spend is not run:
    when fewer than ``rounds`` shots remain after the pilot, the last round,
    which takes them all, is the only one, and when ``nbar == m0`` the run is
    the pilot alone.
    """

    nbar: int
    rounds: int = 5
    m0: int = 2
    lam: float = 0.5
    epsilon: float = 0.0
    c: float = 1.0
    sigma_phys: float = 0.0

    RANGES = {
        "nbar": (1, 1_000_000_000),
        "rounds": (1, math.inf),
        "m0": (1, math.inf),
        "lam": (0.0, 1.0),
        "epsilon": (0.0, math.inf),
        "c": (1e-6, 1e2),
        "sigma_phys": (0.0, math.inf),
    }

    def __post_init__(self):
        super().__post_init__()
        if self.nbar < self.m0:
            raise ValueError(
                f"nbar {self.nbar} cannot cover the pilot of m0 {self.m0} shots per entry")


@dataclass
class RoundRecord:
    shots: int
    delta: float | None  # dual movement vs the previous round; None before round 1
    metrics: MetricBundle
    used_fallback: bool = False


@dataclass
class RunTrace:
    strategy: str
    rounds: list[RoundRecord]  # position r is round r, 0 the pilot; uniform runs have only 0


def dual_stability(alpha_new: np.ndarray, alpha_old: np.ndarray) -> float:
    """Relative movement of the dual weights between consecutive rounds."""
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a 1-D float array
    step = alpha_new - alpha_old
    num = math.sqrt(step.dot(step))
    return num / (math.sqrt(alpha_old.dot(alpha_old)) + STABILITY_REGULARIZER)


def run_adaptive(reference: Reference, config: AdaptiveConfig,
                 rng: np.random.Generator) -> RunTrace:
    """Pilot plus up to ``rounds`` scored refinement rounds under one budget."""
    if reference.model.c != config.c:
        raise ValueError(f"the reference was trained at c={reference.model.c}, not {config.c}")
    kernel, labels = reference.kernel, reference.model.labels
    n = len(kernel)
    n_pilot = config.m0 * num_pairs(n)

    shot_probs = success_probabilities(kernel, config.sigma_phys, rng)
    # the pilot: m0 shots on every entry, then a first model. successes and
    # shots are the running per-pair totals, which later rounds add to in
    # place. The pilot's estimate is assembled twice and its shots are not
    # uniform_allocation's, because perfbench/workloads.py pins both call counts
    shots = np.full(num_pairs(n), config.m0, dtype=np.int64)
    successes = simulate_counts(shot_probs, counts=shots, rng=rng)
    model = train(assemble_estimate(successes, shots, n), labels, c=config.c)
    # compute_bundle consumes each estimate, so the residuals the next round
    # scores with are taken from it first
    khat = assemble_estimate(successes, shots, n)
    residuals = margin_residuals(model, khat)
    records = [RoundRecord(
        shots=n_pilot, delta=None,
        metrics=compute_bundle(reference, model, khat))]
    del khat

    remaining = (config.nbar - config.m0) * num_pairs(n)
    per_round = remaining // config.rounds
    # only rounds with shots to spend run: below one shot per round the last
    # round, which takes them all, is the only one, or none when none remain
    rounds = config.rounds if per_round else min(remaining, 1)
    for r in range(1, rounds + 1):
        budget_r = per_round if r < rounds else remaining - per_round * (rounds - 1)
        # each temporary is handed on or deleted at its last use, so a round
        # holds at most one n x n array besides the clean kernel; the pilot
        # gave every entry m0 >= 1 shots, so no count is zero
        scores, used_fallback = allocation_scores(model, successes, shots, residuals, config.lam)
        counts = multinomial_draw(scores, budget_r, rng)
        del scores
        shots += counts
        successes += simulate_counts(shot_probs, counts=counts, rng=rng)
        del counts
        khat = assemble_estimate(successes, shots, n)
        new_model = train(khat, labels, c=config.c)
        delta = dual_stability(new_model.alpha, model.alpha)
        model = new_model
        last = r == rounds or delta < config.epsilon
        if not last:
            residuals = margin_residuals(model, khat)
        records.append(RoundRecord(
            shots=int(budget_r), delta=delta,
            metrics=compute_bundle(reference, model, khat),
            used_fallback=used_fallback))
        del khat
        if last:
            break
    return RunTrace(strategy="adaptive", rounds=records)


def run_uniform(reference: Reference, config: AdaptiveConfig,
                rng: np.random.Generator) -> RunTrace:
    """The whole budget in one even pass; the head-to-head baseline."""
    if reference.model.c != config.c:
        raise ValueError(f"the reference was trained at c={reference.model.c}, not {config.c}")
    n = len(reference.kernel)
    n_tot = config.nbar * num_pairs(n)
    shots = uniform_allocation(n, config.nbar)
    shot_probs = success_probabilities(reference.kernel, config.sigma_phys, rng)
    successes = simulate_counts(shot_probs, counts=shots, rng=rng)
    khat = assemble_estimate(successes, shots, n)
    del shot_probs, successes, shots  # training needs only the estimate
    model = train(khat, reference.model.labels, c=config.c)
    record = RoundRecord(shots=n_tot, delta=None, metrics=compute_bundle(reference, model, khat))
    return RunTrace(strategy="uniform", rounds=[record])


def stop_round(trace: RunTrace, epsilon: float) -> int:
    """The round a threshold-epsilon run would have stopped at, read off a full trace.

    The trajectory up to the stop never depends on epsilon, so sweeping
    thresholds only needs the epsilon = 0 trace.
    """
    for r, rec in enumerate(trace.rounds[1:], start=1):
        if rec.delta < epsilon:
            return r
    return len(trace.rounds) - 1
