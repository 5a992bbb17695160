"""Command-line runner for the experiment families.

Subcommands mirror the study designs: head-to-head fixed budgets, saturation
over many rounds, the stopping-threshold sweep, the regime map over dataset
grids, the heterogeneity variance sweep, critical cost-ratio curves, and
fixed-budget runs on a kernel loaded from disk. Results land in CSV (RFC 4180,
written by the csv module) or JSON lines; floats are serialized with 17
significant digits so reruns are byte-comparable. Each command is a
generator: it yields its rows in batches and prints its summary after the last
one. :func:`main` builds each budget's run configuration once, which every trial
of that budget shares, and then alone opens the output file, before any trial
runs, so an unwritable path fails at once, and writes each batch the command yields.
Exit codes: 0 on success, 1 on a runtime failure (partial rows are already
flushed), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from typing import Iterable, Iterator

from . import experiments
from .datasets import MAX_POINTS, T_RANGE, BlobSpec, load_kernel_file
from .driver import AdaptiveConfig
from .errors import check_range
from .experiments import (
    CostRow,
    RegimeRow,
    StageRow,
    SweepRow,
    TrialTask,
    VarianceRow,
    map_trials,
    median,
)
from .metrics import MetricBundle, Reference
from .theory import CostModel

_EPSILON_DEFAULT = "0.01,0.0215,0.0464,0.1,0.215,0.464,1.0"
_T_GRID_DEFAULT = "0,0.125,0.25,0.375,0.5,0.625,0.75,0.875,1.0"

# Resource caps no library class imposes (datasets.MAX_POINTS caps n and
# AdaptiveConfig nbar): a mistyped count exits 2 instead of hanging.
_MAX_TRIALS = 100_000
_MAX_ROUNDS = 10_000
_MAX_MC = 1_000_000
_MAX_DIMS = 1_000


def _format_value(value) -> str:
    # floats first, as most cells are (np.float64 subclasses float); bool before int
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + ",".join("%.17g" % v for v in value) + "]"
    return str(value)


class ResultWriter:
    """Serializes records of one namedtuple type, whose fields are the columns
    in order, and flushes eagerly."""

    def __init__(self, path: str, fmt: str, record: type):
        self.columns = record._fields
        self.fmt = fmt
        self._file = open(path, "w", newline="")
        if fmt == "csv":
            import csv

            self._csv = csv.writer(self._file)
            self._csv.writerow(self.columns)
        self._file.flush()

    def write_rows(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            if self.fmt == "csv":
                self._csv.writerow([_format_value(v) for v in row])
            else:
                fields = []
                for c, v in zip(self.columns, row):
                    text = json.dumps(v) if v is None or isinstance(v, str) else _format_value(v)
                    fields.append(f"{json.dumps(c)}:{text}")
                self._file.write("{" + ",".join(fields) + "}\n")
        self._file.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()
        return False


def _flag(name: str, cast, check):
    """Flag type: the text cast, a float required to be finite, then ``check(value)``,
    whose ValueError becomes the usage error. argparse names ``name`` on a failed cast."""
    def parse(text: str):
        value = cast(text)
        try:
            # isfinite only on floats: it raises OverflowError on a huge int
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {value}")
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = name
    return parse


def _bounded(name: str, lo, hi: float = math.inf, cast=int):
    """Flag type accepting lo..hi, both included; an integer unless ``cast`` says otherwise."""
    return _flag(f"_{name}", cast, lambda v: check_range(name, v, lo, hi))


def _field(owner, name: str, cap: float = math.inf):
    """Flag type for field ``name`` of the config class ``owner``, capped at ``cap``;
    an integer when the field is annotated ``int``, else a float."""
    def check(value):
        owner.check(name, value)
        check_range(name, value, owner.RANGES[name][0], cap)
    return _flag(f"_{name}", int if owner.is_integer(name) else float, check)


_nbar = _field(AdaptiveConfig, "nbar")


def _list_of(parse):
    """Comma-list argument type that checks every element with a scalar parser."""
    def parse_list(text: str) -> list:
        items = [part.strip() for part in text.split(",") if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError("expected a comma-separated list")
        return [parse(part) for part in items]
    parse_list.__name__ = f"list of {parse.__name__.lstrip('_')}"
    return parse_list


def _config(text: str) -> tuple[float, int]:
    """One r:R cost-model configuration: CostModel's shot fraction r and rounds R."""
    try:
        r_text, rounds_text = text.split(":")
        return _field(CostModel, "r")(r_text), _field(CostModel, "rounds")(rounds_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad configuration {text!r}, expected r:R") from exc


def _int_range(text: str) -> range:
    """Inclusive lo:hi range of CostModel sizes n, hi at most MAX_POINTS."""
    size = _field(CostModel, "n", MAX_POINTS)
    try:
        lo, hi = map(size, text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected lo:hi") from exc
    if hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: need lo <= hi")
    return range(lo, hi + 1)


def _add_points_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_field(BlobSpec, "n_points", MAX_POINTS), default=50,
                     help=f"training points, even, at most {MAX_POINTS} (default 50)")


def _add_run_flags(sub: argparse.ArgumentParser, trials_default: int = 200) -> None:
    sub.add_argument("--trials", type=_bounded("trials", 1, _MAX_TRIALS), default=trials_default,
                     help=f"number of trials, at most {_MAX_TRIALS} (default {trials_default})")
    sub.add_argument("--nbar", type=_nbar, default=50,
                     help="shots per entry; the total budget is nbar*n*(n-1)/2; "
                          "at most %d (default 50)" % AdaptiveConfig.RANGES["nbar"][1])
    sub.add_argument("--rounds", type=_field(AdaptiveConfig, "rounds", _MAX_ROUNDS),
                     default=5,
                     help=f"adaptive rounds after the pilot, 1 to {_MAX_ROUNDS} (default 5)")
    sub.add_argument("--m0", type=_field(AdaptiveConfig, "m0"), default=2,
                     help="pilot shots per entry (default 2)")
    sub.add_argument("--lambda", dest="lam", type=_field(AdaptiveConfig, "lam"), default=0.5,
                     help="exploration weight in the allocation scores (default 0.5)")
    sub.add_argument("--c", type=_field(AdaptiveConfig, "c"), default=1.0,
                     help="SVM box bound in [%g, %g] (default 1.0)" % AdaptiveConfig.RANGES["c"])
    sub.add_argument("--sigma-phys", type=_field(AdaptiveConfig, "sigma_phys"), default=0.0,
                     help="persistent per-entry offset scale (default 0)")


def _add_blob_flags(sub: argparse.ArgumentParser, cell_grid: bool = False) -> None:
    separation, noise_scale = _field(BlobSpec, "separation"), _field(BlobSpec, "noise_scale")
    if cell_grid:
        sub.add_argument("--separations", type=_list_of(separation),
                         default=[1.0, 2.33, 3.67, 5.0],
                         help="comma list of cluster separations (grid axis)")
        sub.add_argument("--noise-scales", type=_list_of(noise_scale),
                         default=[0.35, 0.6, 0.85, 1.1],
                         help="comma list of cluster spreads (grid axis)")
    else:
        sub.add_argument("--separation", type=separation, default=3.0,
                         help="distance between cluster centers (default 3.0)")
        sub.add_argument("--noise-scale", type=noise_scale, default=0.5,
                         help="cluster standard deviation (default 0.5)")
    sub.add_argument("--anisotropy", type=_field(BlobSpec, "anisotropy"), default=1.0,
                     help="stretch factor along the separating axis (default 1.0)")
    sub.add_argument("--label-noise", type=_field(BlobSpec, "label_noise"), default=0.0,
                     help="label flip probability (default 0)")
    sub.add_argument("--dims", type=_field(BlobSpec, "dims", _MAX_DIMS), default=2,
                     help=f"point dimension, at most {_MAX_DIMS} (default 2)")


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_bounded("seed", 0), default=0, help="base seed (default 0)")
    sub.add_argument("--threads", type=_bounded("threads", 1), default=1,
                     help="worker processes, at most one per trial and per CPU; "
                          "never changes the numbers (default 1)")
    sub.add_argument("--out", required=True, help="output file path")
    sub.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                     help="output format (default csv)")


def _blob(args, separation: float, noise_scale: float) -> BlobSpec:
    return BlobSpec(n_points=args.n, separation=separation, noise_scale=noise_scale,
                    anisotropy=args.anisotropy, label_noise=args.label_noise, dims=args.dims)


def _trial_tasks(args, experiment: str, config: AdaptiveConfig, first: int = 0,
                 **instance) -> list[TrialTask]:
    """``--trials`` tasks numbered from ``first`` that share the run configuration ``config``."""
    return [TrialTask(experiment=experiment, trial=first + trial, seed=args.seed,
                      config=config, **instance)
            for trial in range(args.trials)]


def _matched_budgets(args, experiment: str, **instance) -> Iterator[list[StageRow]]:
    """Uniform against adaptive at each matched budget: one block of ``--trials``
    trials per entry of ``args.run_configs``, numbered on from the block before,
    then, after the last row, each block's summary over its own final rounds."""
    tasks = [task for block, config in enumerate(args.run_configs)
             for task in _trial_tasks(args, experiment, config, first=block * args.trials,
                                      **instance)]
    # each trial's final (uniform, adaptive) metrics, one list per block, so a
    # repeated budget summarizes its own trials
    finals = [[] for _ in args.run_configs]
    with experiments.trial_pool(args.threads, len(tasks)) as pool:
        for task, runs in zip(tasks, map_trials(experiments.run_stage_trial, tasks, pool)):
            yield [row for trace in runs for row in experiments.stage_rows(task, trace)]
            finals[task.trial // args.trials].append([trace.rounds[-1].metrics for trace in runs])
    for config, block in zip(args.run_configs, finals):
        uniform, adaptive = zip(*block)
        print(f"{experiment}: {args.trials} trials, n={tasks[0].n}, nbar={config.nbar}, "
              f"rounds={config.rounds}, lambda={config.lam}")
        for field in dataclasses.fields(MetricBundle):
            print(f"  median {field.name:17s} "
                  f"uniform={median([getattr(m, field.name) for m in uniform]):.6g}  "
                  f"adaptive={median([getattr(m, field.name) for m in adaptive]):.6g}")
        # a win is a lower final decision_rmse; two zero errors tie, which is no win
        wins = sum(a.decision_rmse < u.decision_rmse for u, a in block)
        print(f"  uniform baseline median decision_rmse: "
              f"{median([m.decision_rmse for m in uniform]):.6g}")
        print(f"  success rate (delta_rmse > 0): {wins / len(block):.3f}")


def cmd_fixed_budget(args) -> Iterator[list[StageRow]]:
    return _matched_budgets(args, "fixed-budget",
                            blob=_blob(args, args.separation, args.noise_scale))


def cmd_saturation(args) -> Iterator[list[StageRow]]:
    tasks = _trial_tasks(args, "saturation", args.run_configs[0], include_uniform=False,
                         blob=_blob(args, args.separation, args.noise_scale))
    # only what the summary prints: each trial's pilot and final decision_rmse
    pilots, finals = [], []
    with experiments.trial_pool(args.threads, len(tasks)) as pool:
        runs = map_trials(experiments.run_stage_trial, tasks, pool)
        for task, (_, adaptive) in zip(tasks, runs):
            yield experiments.stage_rows(task, adaptive)
            pilots.append(adaptive.rounds[0].metrics.decision_rmse)
            finals.append(adaptive.rounds[-1].metrics.decision_rmse)
    pilot, final = median(pilots), median(finals)
    print(f"saturation: {args.trials} trials, rounds={args.rounds}, n={args.n}, nbar={args.nbar}")
    print(f"  median decision_rmse pilot={pilot:.6g} final={final:.6g} "
          f"final<=pilot: {'true' if final <= pilot else 'false'}")


def cmd_stopping_sweep(args) -> Iterator[list[SweepRow]]:
    tasks = _trial_tasks(args, "stopping-sweep", args.run_configs[0],
                         blob=_blob(args, args.separation, args.noise_scale))
    with experiments.trial_pool(args.threads, len(tasks)) as pool:
        results = list(map_trials(experiments.run_stage_trial, tasks, pool))
    rows = experiments.sweep_summary_rows(args.epsilons, tasks[0], results)
    yield rows
    print(f"stopping-sweep: {args.trials} trials, rounds={args.rounds}, n={args.n}, "
          f"nbar={args.nbar}, {len(rows)} thresholds")
    for row in rows:
        print(f"  epsilon={row.epsilon:<8.4g} median_shot_fraction={row.median_shot_fraction:.3f} "
              f"median_delta_rmse={row.median_delta_rmse:+.4f} "
              f"success_rate={row.success_rate:.2f} median_rounds={row.median_rounds:.1f}")


def cmd_regime_map(args) -> Iterator[list[RegimeRow]]:
    cells = [(sep, noise) for sep in args.separations for noise in args.noise_scales]
    print(f"regime-map: {len(cells)} cells x {args.trials} trials, n={args.n}, nbar={args.nbar}")
    # One worker pool runs every cell, so its workers start once per command,
    # and every cell is queued before the first is read, so no worker idles
    # while a cell waits for its slowest trial.
    cell_tasks = [_trial_tasks(args, "regime-map", args.run_configs[0],
                               blob=_blob(args, sep, noise)) for sep, noise in cells]
    with experiments.trial_pool(args.threads, len(cells) * args.trials) as pool:
        pending = [map_trials(experiments.run_regime_trial, tasks, pool)
                   for tasks in cell_tasks]
        for (sep, noise), tasks, results in zip(cells, cell_tasks, pending):
            row = experiments.regime_cell_row(tasks[0], list(results))
            yield [row]
            print(f"  separation={sep:<5g} noise_scale={noise:<5g} "
                  f"margin_strength={row.margin_strength:.2f} mean_gini={row.mean_gini:.3f} "
                  f"mean_delta_rmse={row.mean_delta_rmse:+.3f}")


def cmd_theory_variance(args) -> Iterator[list[VarianceRow]]:
    base = experiments.data_driven_weights(
        _blob(args, args.separation, args.noise_scale), args.seed, args.c)
    written = 0
    for row in experiments.variance_sweep_rows(base, args.t_grid, args.n, args.nbar,
                                               args.mc, args.seed):
        yield [row]
        written += 1
        if not row.oracle and row.scheme == "optimal":
            print(f"  t={row.t:.3f} cv={row.cv:.3f} "
                  f"finite_optimal={row.variance:.6g} (se {row.mc_se:.2g})")
    print(f"theory-variance: {written} rows over {len(args.t_grid)} interpolation points")


def cmd_cost_model(args) -> Iterator[list[CostRow]]:
    rows = list(experiments.cost_model_rows(args.configs, args.n_range, args.nbar))
    yield rows
    print(f"cost-model: {len(rows)} rows "
          f"({len(args.configs)} configurations x {len(args.n_range)} sizes)")
    for r, rounds in args.configs:
        sample = [row for row in rows if row.r == r and row.rounds == rounds]
        print(f"  r={r} rounds={rounds}: tau* from {sample[0].tau_star:.6g} "
              f"(n={sample[0].n}) to {sample[-1].tau_star:.6g} (n={sample[-1].n})")


def _load_kernel(parser: argparse.ArgumentParser, args) -> None:
    """Read --kernel into ``args.reference``, its kernel and labels with the model
    trained on them at --c; a file that cannot be read, is not a valid kernel
    file, is also --out (checked before the parse) or whose clean model has a zero
    margin norm is a usage error naming the file once."""
    try:
        if os.path.exists(args.out) and os.path.samefile(args.out, args.kernel):
            parser.error(f"{args.kernel}: --out names the kernel file, which it would overwrite")
        kernel, labels = load_kernel_file(args.kernel)
    except OSError as exc:  # its message names the file
        parser.error(str(exc))
    except ValueError as exc:
        parser.error(f"{args.kernel}: {exc}")
    try:
        args.reference = Reference.of(kernel, labels, args.c)
    except ValueError as exc:
        parser.error(f"{args.kernel} at --c {args.c}: {exc}")


def cmd_load_kernel(args) -> Iterator[list[StageRow]]:
    return _matched_budgets(args, "load-kernel", reference=args.reference)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotsvm",
        description="Adaptive vs uniform shot allocation for SVMs on estimated kernels.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "fixed-budget", help="uniform vs adaptive at a matched total budget")
    _add_points_flag(sub)
    _add_run_flags(sub)
    _add_blob_flags(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_fixed_budget, record=StageRow)

    sub = commands.add_parser(
        "saturation", help="adaptive stage metrics over many rounds")
    _add_points_flag(sub)
    _add_run_flags(sub)
    _add_blob_flags(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_saturation, record=StageRow)

    sub = commands.add_parser(
        "stopping-sweep", help="early-stopping thresholds replayed against full traces")
    _add_points_flag(sub)
    _add_run_flags(sub)
    sub.add_argument("--epsilons", type=_list_of(_field(AdaptiveConfig, "epsilon")),
                     default=_EPSILON_DEFAULT,
                     help=f"comma list of stopping thresholds (default {_EPSILON_DEFAULT})")
    _add_blob_flags(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_stopping_sweep, record=SweepRow)

    sub = commands.add_parser(
        "regime-map", help="mean budget-matched gain over a dataset grid")
    _add_points_flag(sub)
    _add_run_flags(sub, trials_default=20)
    sub.add_argument("--epsilon", type=_field(AdaptiveConfig, "epsilon"), default=0.0,
                     help="early-stopping threshold (default 0 = disabled)")
    _add_blob_flags(sub, cell_grid=True)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_regime_map, record=RegimeRow)

    sub = commands.add_parser(
        "theory-variance", help="oracle and finite-shot variances along the heterogeneity sweep")
    _add_points_flag(sub)
    sub.add_argument("--nbar", type=_nbar, default=50,
                     help="shots per entry defining the budget, at most %d (default 50)"
                          % AdaptiveConfig.RANGES["nbar"][1])
    sub.add_argument("--c", type=_field(AdaptiveConfig, "c"), default=1.0,
                     help="SVM box bound for the base instance, in [%g, %g] (default 1.0)"
                          % AdaptiveConfig.RANGES["c"])
    sub.add_argument("--t-grid", dest="t_grid", default=_T_GRID_DEFAULT,
                     type=_list_of(_bounded("t", *T_RANGE, cast=float)),
                     help="comma list of interpolation points in [%g, %g]" % T_RANGE)
    sub.add_argument("--mc", type=_bounded("mc", 1, _MAX_MC), default=300,
                     help=f"Monte Carlo draws per finite-shot point, at most {_MAX_MC} (default 300)")
    _add_blob_flags(sub)
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_theory_variance, record=VarianceRow)

    sub = commands.add_parser(
        "cost-model", help="critical cost-ratio curves tau*(n)")
    sub.add_argument("--configs", type=_list_of(_config), default=[(0.16, 6)],
                     help="comma list of r:R configurations (default 0.16:6)")
    sub.add_argument("--n-range", dest="n_range", type=_int_range, default=range(10, 101),
                     help="inclusive lo:hi range of training-set sizes, hi at most "
                          f"{MAX_POINTS} (default 10:100)")
    sub.add_argument("--nbar", type=_field(CostModel, "nbar"), default=50,
                     help="shots per entry entering the cost totals (default 50)")
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_cost_model, record=CostRow)

    sub = commands.add_parser(
        "load-kernel", help="fixed-budget runs on a kernel matrix loaded from disk")
    sub.add_argument("--kernel", required=True, help="path to a saved kernel file with labels")
    _add_run_flags(sub, trials_default=50)
    sub.add_argument("--nbar-list", dest="nbar_list", type=_list_of(_nbar), default=None,
                     help="comma list of per-entry budgets to sweep, each at most %d "
                          "(overrides --nbar)" % AdaptiveConfig.RANGES["nbar"][1])
    _add_io_flags(sub)
    sub.set_defaults(func=cmd_load_kernel, record=StageRow)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "m0"):
        # one run configuration per budget, built before --out opens;
        # --nbar-list, where a command has it, replaces --nbar
        try:
            args.run_configs = [AdaptiveConfig(
                nbar=nbar, rounds=args.rounds, m0=args.m0, lam=args.lam,
                epsilon=getattr(args, "epsilon", 0.0), c=args.c, sigma_phys=args.sigma_phys)
                for nbar in getattr(args, "nbar_list", None) or [args.nbar]]
        except ValueError as exc:
            parser.error(str(exc))
    if hasattr(args, "kernel"):
        _load_kernel(parser, args)
    try:
        # the command's body first runs at the first batch, so --out opens before any
        # trial; closing the batches on every exit cancels trials still queued
        with contextlib.closing(args.func(args)) as batches, \
                ResultWriter(args.out, args.format, args.record) as writer:
            for rows in batches:
                writer.write_rows(rows)
        return 0
    except Exception as exc:  # runtime failures keep partial results on disk
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
