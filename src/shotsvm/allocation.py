"""Splitting a shot budget across kernel entries.

The variance objective is sum_ij w_ij / N_ij for nonnegative entry weights w.
Minimizing under a fixed total budget puts shots proportional to sqrt(w_ij)
(Lagrange on the continuous relaxation), which by Cauchy-Schwarz never does
worse than the even split. Everything here works on flat upper-triangle pair
vectors; fractional allocations are the analytic objects, integer ones are what
a measurement run can actually execute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScoresError,
    DegenerateWeightsError,
    InfiniteVarianceError,
    InsufficientBudgetError,
)
from .kernels import KernelMatrix, condense, num_pairs
from .solver import SvmModel


@dataclass
class Allocation:
    """Per-entry shot counts (integer or fractional) summing to the budget."""

    counts: np.ndarray
    budget: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if (self.counts < 0).any():
            raise ValueError("negative shot count")
        total = float(self.counts.sum())
        # np.isclose(total, budget, rtol=1e-9, atol=1e-6) for a finite budget,
        # in Python floats
        if not abs(total - self.budget) <= 1e-6 + 1e-9 * abs(self.budget):
            raise ValueError(f"counts sum to {total}, budget is {self.budget}")


def uniform_allocation(n: int, n_tot: int, rng: np.random.Generator | None = None) -> Allocation:
    """Even integer split over all pairs; leftover shots go one each to a
    drawn-without-replacement subset of entries."""
    m = num_pairs(n)
    if n_tot < m:
        raise InsufficientBudgetError(f"budget {n_tot} cannot cover {m} entries")
    base, rem = divmod(int(n_tot), m)
    counts = np.full(m, base, dtype=np.int64)
    if rem:
        if rng is None:
            raise ValueError("remainder assignment needs an rng")
        counts[rng.choice(m, size=rem, replace=False)] += 1
    return Allocation(counts, n_tot)


def oracle_allocation(weights: np.ndarray, n_tot: float) -> Allocation:
    """Fractional square-root-proportional allocation; zero-weight entries get nothing."""
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    root = np.sqrt(w)
    total = root.sum()
    if total == 0.0:
        raise DegenerateWeightsError("all allocation weights are zero")
    return Allocation(n_tot * root / total, n_tot)


def sampling_variance(weights: np.ndarray, alloc) -> float:
    """sum of w_ij / N_ij over positive-weight entries; diverges if one is starved."""
    w = np.asarray(weights, dtype=np.float64)
    counts = np.asarray(alloc.counts if isinstance(alloc, Allocation) else alloc,
                        dtype=np.float64)
    active = w > 0
    starved = active & (counts == 0)
    if starved.any():
        raise InfiniteVarianceError(
            f"{int(starved.sum())} positive-weight entries received zero shots")
    return float(np.sum(w[active] / counts[active]))


def margin_weights(model: SvmModel, kernel: KernelMatrix) -> np.ndarray:
    """(alpha_i alpha_j)^2 K_ij (1 - K_ij): variance weights for the margin functional."""
    a2 = condense(np.outer(model.alpha, model.alpha)) ** 2
    kv = kernel.condensed()
    return a2 * kv * (1.0 - kv)


def multinomial_draw(scores: np.ndarray, budget: int, rng: np.random.Generator) -> Allocation:
    """Integer allocation from one multinomial draw with probabilities ~ scores."""
    s = np.asarray(scores, dtype=np.float64)
    if (s < 0).any():
        raise ValueError("scores must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    total = s.sum()
    if total == 0.0:
        raise DegenerateScoresError("all scores are zero")
    if budget == 0:
        return Allocation(np.zeros(len(s), dtype=np.int64), 0)
    return Allocation(rng.multinomial(int(budget), s / total), budget)
