"""Closed-form predictions: allocation variances, integer-realization penalty,
and the cost crossover between uniform and adaptive measurement pipelines.

For weights w over M entries and total budget N:

    even split        V_unif = M * sum(w) / N
    sqrt-proportional V*     = (sum sqrt(w))^2 / N        (<= V_unif, Cauchy-Schwarz)

Nudging the oracle counts by zero-sum deltas costs, to second order,
sum_ij w_ij delta_ij^2 / N*_ij^3 — the price of realizing integer counts.

Cost accounting per run: the uniform pipeline pays c_q per shot on the full
budget plus one O(n^3) classical solve; the adaptive one reuses a fraction r of
the budget but retrains after the pilot and every round, i.e. R+1 solves. The
two lines cross at the critical cost ratio

    tau* = c_c / c_q = (n - 1)(1 - r) Nbar / (2 n^2 R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Ranged


def v_uniform(weights: np.ndarray, n_tot: float) -> float:
    w = np.asarray(weights, dtype=np.float64)
    if n_tot <= 0:
        raise ValueError("budget must be positive")
    return float(len(w) * w.sum() / n_tot)


def v_star(weights: np.ndarray, n_tot: float) -> float:
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if n_tot <= 0:
        raise ValueError("budget must be positive")
    return float(np.sqrt(w).sum() ** 2 / n_tot)


def perturbation_penalty(weights: np.ndarray, counts: np.ndarray,
                         deltas: np.ndarray) -> float:
    """Second-order variance increase for zero-sum deviations from the oracle counts."""
    w = np.asarray(weights, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if abs(d.sum()) > 1e-9 * (np.abs(d).sum() + 1.0):
        raise ValueError("deltas must sum to zero (budget is fixed)")
    if np.any(counts + d <= 0):
        raise ValueError("perturbed counts must stay positive")
    active = w > 0
    return float(np.sum(w[active] * d[active] ** 2 / counts[active] ** 3))


@dataclass(frozen=True)
class CostModel(Ranged):
    """Per-shot cost c_q, per-solve coefficient c_c (times n^3), reuse fraction r,
    retraining rounds, problem size n, and per-entry budget nbar.

    ``RANGES`` holds each field's closed range; nbar only scales the cost
    totals, so it need only be positive.
    """

    c_q: float
    c_c: float
    r: float
    rounds: int
    n: int
    nbar: float

    RANGES = {
        "c_q": (0.0, math.inf),
        "c_c": (0.0, math.inf),
        "r": (0.0, 1.0),
        "rounds": (1, math.inf),
        "n": (2, math.inf),
        "nbar": (math.ulp(0.0), math.inf),
    }


def cost_totals(cm: CostModel, n_tot: float) -> tuple[float, float]:
    """(uniform, adaptive) total cost for a run with the given shot budget."""
    solve = cm.c_c * cm.n**3
    uniform = cm.c_q * n_tot + solve
    adaptive = cm.c_q * cm.r * n_tot + (cm.rounds + 1) * solve
    return float(uniform), float(adaptive)


def tau_critical(cm: CostModel) -> float:
    """Critical c_c/c_q ratio where adaptive and uniform pipelines cost the same."""
    return (cm.n - 1) * (1.0 - cm.r) * cm.nbar / (2.0 * cm.n**2 * cm.rounds)
