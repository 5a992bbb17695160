"""Splitting a shot budget across kernel entries.

The variance objective is sum_ij w_ij / N_ij for nonnegative entry weights w.
Minimizing under a fixed total budget puts shots proportional to sqrt(w_ij)
(Lagrange on the continuous relaxation), which by Cauchy-Schwarz never does
worse than the even split. Everything here works on flat upper-triangle pair
vectors; fractional allocations are the analytic objects, integer ones are what
a measurement run can actually execute.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateWeightsError, InfiniteVarianceError, InsufficientBudgetError
from .kernels import condense, num_pairs, pair_products
from .solver import SvmModel


def uniform_allocation(n: int, n_tot: int, rng: np.random.Generator) -> np.ndarray:
    """Even int64 shot counts over all pairs; leftover shots go one each to a
    drawn-without-replacement subset of entries."""
    m = num_pairs(n)
    if n_tot < m:
        raise InsufficientBudgetError(f"budget {n_tot} cannot cover {m} entries")
    base, rem = divmod(int(n_tot), m)
    counts = np.full(m, base, dtype=np.int64)
    if rem:
        counts[rng.choice(m, size=rem, replace=False)] += 1
    return counts


def oracle_allocation(weights: np.ndarray, n_tot: float) -> np.ndarray:
    """Square-root-proportional fractional counts summing to n_tot; zero weights get none."""
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    root = np.sqrt(w)
    total = root.sum()
    if total == 0.0:
        raise DegenerateWeightsError("all allocation weights are zero")
    return n_tot * root / total


def sampling_variance(weights: np.ndarray, counts: np.ndarray) -> float:
    """sum of w_ij / N_ij over positive-weight entries; diverges if one is starved."""
    w = np.asarray(weights, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    active = w > 0
    starved = active & (counts == 0)
    if starved.any():
        raise InfiniteVarianceError(
            f"{int(starved.sum())} positive-weight entries received zero shots")
    return float(np.sum(w[active] / counts[active]))


def margin_weights(model: SvmModel, kernel: np.ndarray) -> np.ndarray:
    """(alpha_i alpha_j)^2 K_ij (1 - K_ij): variance weights for the margin functional."""
    a2 = pair_products(model.alpha) ** 2
    kv = condense(kernel)
    return a2 * kv * (1.0 - kv)


def multinomial_draw(scores: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """int64 shot counts from one multinomial draw with probabilities ~ scores.

    Takes ownership of a float64 ``scores`` array: it is normalised in place
    into the draw's probabilities, so the caller must not use it afterwards.
    """
    s = np.asarray(scores, dtype=np.float64)
    if (s < 0).any():
        raise ValueError("scores must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    total = s.sum()
    if total == 0.0:
        raise DegenerateWeightsError("all scores are zero")
    if budget == 0:
        return np.zeros(len(s), dtype=np.int64)
    s /= total
    return rng.multinomial(int(budget), s)
