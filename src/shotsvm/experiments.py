"""Experiment families at desk scale: per-trial workers and result rows.

Each family turns into a stream of flat result records, one namedtuple type
per output table whose field order is the column order, that the CLI
serializes to CSV or JSON lines. Trials are embarrassingly parallel: a trial's
random streams are derived from (seed, trial index, stream id), never from
scheduling order, so the rows are byte-identical however many workers run.
Workers are plain top-level functions over frozen tasks so they cross process
boundaries.

Stage-level families (fixed budget, saturation, kernel-file runs) emit one row
per (trial, strategy, round). The sweep families emit one summary row per grid
point after all trials are in.
"""

from __future__ import annotations

import contextlib
import os
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .allocation import margin_weights, oracle_allocation, sampling_variance, uniform_allocation
from .datasets import (
    BlobSpec,
    coefficient_of_variation,
    interpolate_weights,
    make_blobs,
    margin_strength,
    rbf_kernel,
)
from .driver import (
    AdaptiveConfig,
    RunTrace,
    clean_reference,
    run_adaptive,
    run_uniform,
    stop_round,
)
from .errors import DegenerateWeightsError
from .kernels import num_pairs
from .metrics import Reference, gini, relative_improvement
from .solver import SvmModel, train
from .theory import CostModel, tau_critical, v_star, v_uniform

#: The run settings that stage, sweep and regime rows repeat, in column order.
SETTINGS = ["n", "nbar", "n_tot", "rounds", "m0", "lam", "epsilon", "c", "sigma_phys", "seed"]

#: Stage-level rows, one per (trial, strategy, round).
StageRow = namedtuple("StageRow", [
    "experiment", "trial", "strategy", "round", *SETTINGS,
    "shots", "cumulative_shots", "shot_fraction", "rounds_executed", "stopped_early",
    "used_fallback", "delta",
    "rmse_k", "rmse_k_sv", "jaccard", "weighted_jaccard", "rel_margin_err", "decision_rmse",
    "delta_series",
])

#: Per-threshold summary rows from the stopping sweep.
SweepRow = namedtuple("SweepRow", [
    "experiment", "epsilon", *(name for name in SETTINGS if name != "epsilon"), "trials",
    "median_delta_rmse", "success_rate", "median_shot_fraction", "median_rounds",
    "median_decision_rmse_uniform", "median_decision_rmse_adaptive",
])

#: Per-cell summary rows from the regime map.
RegimeRow = namedtuple("RegimeRow", [
    "experiment", "separation", "noise_scale", "margin_strength", *SETTINGS, "trials",
    "mean_gini", "mean_delta_rmse", "success_rate",
])

#: Rows of the heterogeneity sweep; oracle rows are exact formula values.
VarianceRow = namedtuple("VarianceRow", [
    "experiment", "t", "cv", "scheme", "oracle", "variance", "mc_se", "mc",
    "n", "nbar", "n_tot", "seed",
])

#: Rows of the cost-model curves.
CostRow = namedtuple("CostRow", ["experiment", "r", "rounds", "nbar", "n", "tau_star"])

_MAX_REDRAWS = 100


@dataclass(frozen=True)
class TrialTask:
    """Everything one worker needs to run a single trial.

    ``config`` holds the run's budget, offset scale and algorithm settings; its
    ``n_tot`` is a whole number of shots per pair, ``nbar * num_pairs(n)``. The
    problem instance is ``blob``, a geometry sampled afresh for each trial, or,
    when ``blob`` is None, the loaded kernel and labels that ``reference`` holds.
    """

    experiment: str
    trial: int
    seed: int
    config: AdaptiveConfig
    blob: BlobSpec | None = None
    include_uniform: bool = True
    reference: Reference | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.blob.n_points if self.blob is not None else len(self.reference.kernel)

    @property
    def nbar(self) -> int:
        return self.config.n_tot // num_pairs(self.n)


def _echo(task: TrialTask) -> dict:
    """The task's SETTINGS, keyed by name: each is a field of its config or,
    for n, nbar and seed, of the task."""
    config = vars(task.config)
    return {name: config[name] if name in config else getattr(task, name) for name in SETTINGS}


def blob_instance(blob: BlobSpec, seed: int, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """A trial's clean kernel and labels: a two-class sample of the blob geometry
    whose seed derives from (seed, trial)."""
    for attempt in range(_MAX_REDRAWS):
        words = [seed, trial, 0] if attempt == 0 else [seed, trial, 0, attempt]
        derived = int(np.random.SeedSequence(words).generate_state(1)[0])
        points, labels = make_blobs(blob, derived)
        if labels.min() < labels.max():
            return rbf_kernel(points), labels
    raise RuntimeError(
        f"trial {trial}: no two-class sample after {_MAX_REDRAWS} redraws "
        f"(label_noise={blob.label_noise})")


def _trial_traces(task: TrialTask) -> tuple[SvmModel, RunTrace | None, RunTrace]:
    config = task.config
    # one clean model serves both runs: the task's, or that of a blob trial's sample
    reference = task.reference
    if task.blob is not None:
        reference = clean_reference(*blob_instance(task.blob, task.seed, task.trial), config.c)
    kernel, labels = reference.kernel, reference.model.labels
    trial_key = [task.seed, task.trial]
    uniform_trace = None
    if task.include_uniform:
        uniform_trace = run_uniform(kernel, labels, config, np.random.default_rng([*trial_key, 1]),
                                    reference=reference)
    adaptive_trace = run_adaptive(kernel, labels, config, np.random.default_rng([*trial_key, 2]),
                                  reference=reference)
    return reference.model, uniform_trace, adaptive_trace


def stage_rows(task: TrialTask, trace: RunTrace) -> list[StageRow]:
    """Flatten a run trace into one row per recorded stage."""
    last = trace.rounds[-1].index
    settings = _echo(task)
    deltas: list[float] = []
    rows = []
    for rec in trace.rounds:
        if rec.delta is not None:
            deltas.append(rec.delta)
        rows.append(StageRow(
            experiment=task.experiment, trial=task.trial, strategy=trace.strategy,
            round=rec.index, **settings, shots=rec.shots,
            cumulative_shots=rec.cumulative_shots,
            shot_fraction=rec.cumulative_shots / task.config.n_tot, rounds_executed=last,
            stopped_early=trace.stopped_early, used_fallback=rec.used_fallback,
            delta=rec.delta, **vars(rec.metrics), delta_series=list(deltas)))
    return rows


def run_stage_trial(task: TrialTask) -> list[StageRow]:
    """Worker for the stage-level families: uniform baseline plus adaptive stages."""
    _, uniform_trace, adaptive_trace = _trial_traces(task)
    rows: list[StageRow] = []
    if uniform_trace is not None:
        rows.extend(stage_rows(task, uniform_trace))
    rows.extend(stage_rows(task, adaptive_trace))
    return rows


def run_sweep_trial(task: TrialTask) -> tuple[RunTrace, RunTrace]:
    """Worker for the stopping sweep: full traces, thresholds replayed later."""
    _, uniform_trace, adaptive_trace = _trial_traces(task)
    return uniform_trace, adaptive_trace


def run_regime_trial(task: TrialTask) -> tuple[float, float]:
    """Worker for the regime map: (gini of the clean duals, budget-matched gain)."""
    reference, uniform_trace, adaptive_trace = _trial_traces(task)
    improvement = relative_improvement(
        uniform_trace.rounds[-1].metrics.decision_rmse,
        adaptive_trace.rounds[-1].metrics.decision_rmse)
    return gini(reference.alpha), improvement


def worker_count(threads: int, n_tasks: int) -> int:
    """Worker processes to start: never more than the tasks or the CPUs."""
    return min(threads, n_tasks, os.cpu_count() or 1)


@contextlib.contextmanager
def trial_pool(threads: int, n_tasks: int):
    """Context manager for a worker pool sized for n_tasks trials.

    It gives None when one worker suffices, which :func:`map_trials` reads as
    running in-process; such a run never imports the process-pool modules.
    Every command opens exactly one pool here, for all of its trials;
    regime-map queues every cell on it before reading the first. If the body
    raises, trials still queued are cancelled, so the command exits once the
    trials already running finish rather than after the whole queue.
    """
    workers = worker_count(threads, n_tasks)
    if workers <= 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def map_trials(worker, tasks: Iterable[TrialTask], pool) -> Iterator:
    """An iterator over the worker's results in task order.

    ``pool`` comes from :func:`trial_pool`: None runs each trial in-process as
    the iterator reaches it; a pool queues every task at this call and spreads
    them over its worker processes. Either way the results come in task order,
    so downstream writes are scheduling-independent.
    """
    if pool is None:
        return map(worker, tasks)
    return pool.map(worker, tasks, chunksize=1)


def median(values) -> float:
    """Median of finite numbers, bit for bit what ``np.median`` returns.

    Pure Python because ``np.median`` imports ``numpy.ma`` on its first call,
    about 20 ms that every command printing or writing a median would pay.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    # np.median averages the middle one or two values with a sum that starts
    # from +0.0, which is why a zero median is never -0.0
    if len(ordered) % 2:
        return float(0.0 + ordered[mid])
    return float((0.0 + ordered[mid - 1] + ordered[mid]) / 2)


def sweep_summary_rows(epsilons: Iterable[float], task: TrialTask,
                       results: list[tuple[RunTrace, RunTrace]]) -> list[SweepRow]:
    """Replay every stopping threshold against the recorded full traces.

    The adaptive trajectory does not depend on the threshold up to the stop
    round, so one trace per trial covers the whole sweep.
    """
    settings = _echo(task)
    rows = []
    for epsilon in epsilons:
        fractions, improvements, stop_rounds, unif_rmse, adapt_rmse = [], [], [], [], []
        for uniform_trace, adaptive_trace in results:
            stop = stop_round(adaptive_trace, epsilon)
            rec = adaptive_trace.rounds[stop]
            fractions.append(rec.cumulative_shots / task.config.n_tot)
            stop_rounds.append(stop)
            unif_final = uniform_trace.rounds[-1].metrics.decision_rmse
            improvements.append(relative_improvement(unif_final, rec.metrics.decision_rmse))
            unif_rmse.append(unif_final)
            adapt_rmse.append(rec.metrics.decision_rmse)
        rows.append(SweepRow(
            experiment=task.experiment, **{**settings, "epsilon": epsilon},
            trials=len(results), median_delta_rmse=median(improvements),
            success_rate=float(np.mean([v > 0 for v in improvements])),
            median_shot_fraction=median(fractions), median_rounds=median(stop_rounds),
            median_decision_rmse_uniform=median(unif_rmse),
            median_decision_rmse_adaptive=median(adapt_rmse)))
    return rows


def regime_cell_row(task: TrialTask, results: list[tuple[float, float]]) -> RegimeRow:
    """Aggregate one (separation, noise_scale) cell of the regime map."""
    ginis = [g for g, _ in results]
    improvements = [v for _, v in results]
    return RegimeRow(
        experiment=task.experiment, separation=task.blob.separation,
        noise_scale=task.blob.noise_scale, margin_strength=margin_strength(task.blob),
        **_echo(task), trials=len(results), mean_gini=float(np.mean(ginis)),
        mean_delta_rmse=float(np.mean(improvements)),
        success_rate=float(np.mean([v > 0 for v in improvements])))


def repair_starved(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Move single shots from the fullest bins onto starved positive-weight bins.

    A multinomial draw can leave a positive-weight entry with zero shots, which
    would make its variance contribution infinite; the repaired counts keep the
    same total. A donor gives only a spare shot: it never drops below zero, nor
    to zero when its own weight is positive. Raises ValueError when the total
    is below the number of positive weights.
    """
    counts = counts.copy()
    positive = weights > 0
    starved = np.flatnonzero(positive & (counts == 0))
    while starved.size:
        order = np.argsort(counts, kind="stable")[::-1]
        donors = order[counts[order] > positive[order]][:starved.size]
        if not donors.size:
            raise ValueError("too few shots to give every positive-weight entry one")
        counts[donors] -= 1
        counts[starved[:donors.size]] += 1
        starved = np.flatnonzero(positive & (counts == 0))
    return counts


def variance_sweep_rows(base_weights: np.ndarray, t_grid: Iterable[float], n: int,
                        nbar: int, mc: int, seed: int) -> Iterator[VarianceRow]:
    """Oracle and finite-shot variances along the heterogeneity interpolation.

    For each interpolation point: the closed-form variances of the fractional
    optimal and uniform allocations, then Monte Carlo means over integer
    realizations — multinomial draws (repaired against starved entries) for the
    optimal scheme, even splits with a randomly placed remainder for uniform.
    """
    if not np.any(base_weights > 0):
        raise DegenerateWeightsError("all base weights are zero")
    n_tot = nbar * num_pairs(n)
    for index, t in enumerate(t_grid):
        weights = interpolate_weights(base_weights, float(t))
        cv = coefficient_of_variation(weights)
        echo = {"experiment": "theory-variance", "t": float(t), "cv": cv,
                "n": n, "nbar": nbar, "n_tot": n_tot, "seed": seed}
        yield VarianceRow(**echo, scheme="optimal", oracle=True,
                          variance=v_star(weights, n_tot), mc_se=None, mc=0)
        yield VarianceRow(**echo, scheme="uniform", oracle=True,
                          variance=v_uniform(weights, n_tot), mc_se=None, mc=0)
        probs = oracle_allocation(weights, n_tot) / n_tot
        rng = np.random.default_rng([seed, index, 3])
        optimal_draws = [
            sampling_variance(weights, repair_starved(rng.multinomial(n_tot, probs), weights))
            for _ in range(mc)]
        yield VarianceRow(**echo, scheme="optimal", oracle=False,
                          variance=float(np.mean(optimal_draws)),
                          mc_se=float(np.std(optimal_draws) / np.sqrt(mc)), mc=mc)
        rng = np.random.default_rng([seed, index, 4])
        uniform_draws = [
            sampling_variance(weights, uniform_allocation(n, n_tot, rng))
            for _ in range(mc)]
        yield VarianceRow(**echo, scheme="uniform", oracle=False,
                          variance=float(np.mean(uniform_draws)),
                          mc_se=float(np.std(uniform_draws) / np.sqrt(mc)), mc=mc)


def data_driven_weights(blob: BlobSpec, seed: int, c: float) -> np.ndarray:
    """Margin-variance weights of the clean-kernel model for trial 0's sample of the blob."""
    kernel, labels = blob_instance(blob, seed, 0)
    model = train(kernel, labels, c=c)
    return margin_weights(model, kernel)


def cost_model_rows(configs: Iterable[tuple[float, int]], n_values: Iterable[int],
                    nbar: float) -> Iterator[CostRow]:
    """Critical cost-ratio curves tau*(n), one row per (configuration, n)."""
    for r, rounds in configs:
        for n in n_values:
            model = CostModel(c_q=1.0, c_c=1.0, r=r, rounds=rounds, n=n, nbar=nbar)
            yield CostRow(experiment="cost-model", r=r, rounds=rounds, nbar=nbar, n=n,
                          tau_star=tau_critical(model))
