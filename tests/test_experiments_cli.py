"""Command-line contract: row schemas and counts, CSV/JSONL round-trips,
byte-identical reruns across thread counts, and the exit-code convention.
"""

import argparse
import csv
import dataclasses
import filecmp
import hashlib
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotsvm import cli, datasets, experiments, metrics
from shotsvm.allocation import sampling_variance, uniform_allocation
from shotsvm.datasets import (
    T_RANGE,
    BlobSpec,
    interpolate_weights,
    make_blobs,
    rbf_kernel,
    save_kernel_file,
)
from shotsvm.driver import AdaptiveConfig, RunTrace
from shotsvm.errors import ConvergenceError
from shotsvm.experiments import StageRow, SweepRow, VarianceRow, worker_count
from shotsvm.theory import CostModel, tau_critical


_MAX_C = AdaptiveConfig.RANGES["c"][1]
_MAX_NBAR = AdaptiveConfig.RANGES["nbar"][1]


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's shotsvm."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def labeled_kernel_file(tmp_path):
    """An n = 12 blob kernel with its labels, saved as a kernel file."""
    path = tmp_path / "k.csv"
    x, y = make_blobs(BlobSpec(n_points=12, separation=4.0, noise_scale=0.5), 3)
    save_kernel_file(path, rbf_kernel(x), y)
    return path


def fb_args(out, n=12, trials=3, nbar=10, rounds=2, seed=7, **extra):
    args = ["fixed-budget", "--n", n, "--trials", trials, "--nbar", nbar,
            "--rounds", rounds, "--seed", seed, "--out", out]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


def test_fixed_budget_row_contract(tmp_path, capsys):
    out = tmp_path / "fb.csv"
    assert run_cli(*fb_args(out, trials=3, rounds=2)) == 0
    rows = read_csv(out)
    assert tuple(rows[0].keys()) == StageRow._fields
    # per trial: one uniform row plus pilot + rounds adaptive stage rows
    assert len(rows) == 3 * (1 + 3)
    for trial in range(3):
        block = [r for r in rows if r["trial"] == str(trial)]
        assert [r["strategy"] for r in block] == ["uniform"] + ["adaptive"] * 3
        uniform = block[0]
        assert uniform["round"] == "0"
        assert uniform["shots"] == uniform["n_tot"]
        assert uniform["shot_fraction"] == "1"
        final = block[-1]
        assert final["cumulative_shots"] == final["n_tot"]
        assert json.loads(final["delta_series"]) == pytest.approx(
            [float(r["delta"]) for r in block[2:]])
    assert "success rate" in capsys.readouterr().out


def test_fixed_budget_echoes_config(tmp_path):
    out = tmp_path / "fb.csv"
    run_cli(*fb_args(out, trials=1, nbar=8, rounds=1, **{"lambda": 0.25, "c": 2.0}))
    row = read_csv(out)[0]
    assert (row["n"], row["nbar"], row["m0"]) == ("12", "8", "2")
    assert (row["lam"], row["c"], row["epsilon"]) == ("0.25", "2", "0")
    assert row["n_tot"] == str(8 * (12 * 11 // 2))


def test_saturation_row_count_adaptive_only(tmp_path):
    out = tmp_path / "sat.csv"
    assert run_cli("saturation", "--n", 12, "--trials", 2, "--nbar", 10,
                   "--rounds", 4, "--seed", 3, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * (4 + 1)
    assert {r["strategy"] for r in rows} == {"adaptive"}
    for trial in ("0", "1"):
        assert [r["round"] for r in rows if r["trial"] == trial] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("nbar, rounds, epsilon", [
    (20, 3, 0.0),  # a full adaptive run
    (20, 3, float(np.finfo(np.float64).max)),  # stopped after its first round
    (2, 1, 0.0), (2, 3, 0.0), (3, 200, 0.0),  # fewer shots than rounds after the pilot
])
def test_stage_rows_derive_spend_and_early_stop(nbar, rounds, epsilon):
    """cumulative_shots is the running sum of a run's shots and shot_fraction its
    share of n_tot; stopped_early holds on every row of a run that left budget
    unspent, which only the epsilon-stopped run does, since a round with no
    shots to spend is not run, and on no uniform row."""
    config = AdaptiveConfig(nbar=nbar, rounds=rounds, epsilon=epsilon)
    task = experiments.TrialTask(experiment="fixed-budget", trial=0, seed=7, config=config,
                                 blob=BlobSpec(n_points=12, separation=2.5, noise_scale=0.6))
    uniform, adaptive = (experiments.stage_rows(task, trace)
                         for trace in experiments.run_stage_trial(task))
    assert [(r.strategy, r.cumulative_shots, r.shot_fraction, r.stopped_early)
            for r in uniform] == [("uniform", task.n_tot, 1.0, False)]
    spent = list(itertools.accumulate(r.shots for r in adaptive))
    assert [r.cumulative_shots for r in adaptive] == spent
    assert [r.shot_fraction for r in adaptive] == [s / task.n_tot for s in spent]
    stopped = epsilon > 0
    assert [r.stopped_early for r in adaptive] == [stopped] * len(adaptive)
    assert (spent[-1] < task.n_tot) == stopped
    assert all(r.shots > 0 for r in adaptive[1:])


def test_stage_worker_returns_runs_that_the_command_writes(tmp_path):
    """run_stage_trial returns a trial's (uniform, adaptive) runs, the uniform
    one None when the task skips it, and fixed-budget writes each trial's
    stage_rows of those runs, uniform first."""
    config = AdaptiveConfig(nbar=8, rounds=2)

    def task(trial, **kw):
        return experiments.TrialTask(
            experiment="fixed-budget", trial=trial, seed=5, config=config,
            blob=BlobSpec(n_points=12, separation=3.0, noise_scale=0.5), **kw)

    uniform, adaptive = experiments.run_stage_trial(task(0, include_uniform=False))
    assert uniform is None and isinstance(adaptive, RunTrace)
    assert adaptive.strategy == "adaptive"
    expected = []
    for trial in range(2):
        runs = experiments.run_stage_trial(task(trial))
        assert [(type(t), t.strategy) for t in runs] == [(RunTrace, "uniform"),
                                                         (RunTrace, "adaptive")]
        expected += [row for trace in runs for row in experiments.stage_rows(task(trial), trace)]
    out = tmp_path / "fb.csv"
    assert run_cli("fixed-budget", "--n", 12, "--trials", 2, "--nbar", 8, "--rounds", 2,
                   "--separation", 3.0, "--noise-scale", 0.5, "--seed", 5, "--threads", 1,
                   "--out", out) == 0
    assert read_csv(out) == [{c: cli._format_value(v) for c, v in zip(StageRow._fields, row)}
                             for row in expected]


def test_jsonl_matches_csv_values(tmp_path):
    a, b = tmp_path / "fb.csv", tmp_path / "fb.jsonl"
    run_cli(*fb_args(a, trials=2, rounds=1))
    run_cli(*fb_args(b, trials=2, rounds=1, format="jsonl"))
    csv_rows = read_csv(a)
    jsonl_rows = [json.loads(line) for line in b.read_text().splitlines()]
    assert len(jsonl_rows) == len(csv_rows)
    for c_row, j_row in zip(csv_rows, jsonl_rows):
        assert tuple(j_row.keys()) == StageRow._fields
        assert float(c_row["decision_rmse"]) == j_row["decision_rmse"]
        assert c_row["stopped_early"] == ("true" if j_row["stopped_early"] else "false")
        assert (c_row["delta"] == "") == (j_row["delta"] is None)


def test_rerun_and_threads_byte_identical(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    run_cli(*fb_args(paths[0], trials=4), "--threads", 1)
    run_cli(*fb_args(paths[1], trials=4), "--threads", 1)
    run_cli(*fb_args(paths[2], trials=4), "--threads", 3)
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    assert filecmp.cmp(paths[0], paths[2], shallow=False)


@pytest.mark.parametrize("command", ["saturation", "stopping-sweep", "regime-map", "load-kernel"])
def test_threads_byte_identical_for_every_pooled_command(tmp_path, capsys, command):
    args = [command, "--trials", 3, "--nbar", 8, "--rounds", 2, "--seed", 5]
    if command == "load-kernel":
        args += ["--kernel", labeled_kernel_file(tmp_path), "--nbar-list", "8,12"]
    else:
        args += ["--n", 12]
    if command == "regime-map":
        args += ["--epsilon", 0.2, "--separations", "1.0,4.0", "--noise-scales", "0.5"]
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}.csv"
        assert run_cli(*args, "--threads", threads, "--out", out) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]


@pytest.mark.skipif(worker_count(2, 2) < 2, reason="needs two usable CPUs for a 2-worker pool")
def test_forkserver_pool_matches_one_worker(tmp_path):
    """A pooled run under the forkserver start method, the default on Linux
    from Python 3.14, writes the bytes of a one-worker run."""
    argv = ["regime-map", "--n", "12", "--trials", "2", "--separations", "1.0,4.0",
            "--noise-scales", "0.5", "--seed", "3"]
    one = tmp_path / "one.csv"
    assert run_cli(*argv, "--threads", 1, "--out", one) == 0
    pooled = tmp_path / "pooled.csv"
    code = ("import multiprocessing, sys\n"
            "from shotsvm import cli\n"
            "multiprocessing.set_start_method('forkserver')\n"
            f"sys.exit(cli.main({argv + ['--threads', '2', '--out', str(pooled)]!r}))\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(pooled.read_bytes()).digest() == hashlib.sha256(
        one.read_bytes()).digest()


def test_usage_errors_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    kernel = labeled_kernel_file(tmp_path)
    bad = [
        ["fixed-budget", "--n", 12, "--trials", 0, "--out", out],
        ["fixed-budget", "--n", 13, "--trials", 1, "--out", out],
        ["fixed-budget", "--n", 12, "--nbar", 1, "--m0", 2, "--out", out],
        ["fixed-budget", "--n", 12, "--label-noise", 0.7, "--out", out],
        ["stopping-sweep", "--n", 12, "--epsilons", "", "--out", out],
        ["cost-model", "--configs", "0.16:0", "--out", out],
        ["cost-model", "--configs", "0.16", "--out", out],
        ["cost-model", "--configs", "1.5:6", "--out", out],
        ["cost-model", "--n-range", "50:10", "--out", out],
        ["no-such-command", "--out", out],
        ["theory-variance", "--n", 12, "--t-grid", "0,1.5", "--out", out],
        ["stopping-sweep", "--n", 12, "--epsilons", "0.1,-0.5", "--out", out],
        ["load-kernel", "--kernel", "k.csv", "--nbar-list", "8,2.5", "--out", out],
        ["load-kernel", "--kernel", "k.csv", "--nbar-list", "8,0", "--out", out],
        ["load-kernel", "--kernel", "k.csv", "--nbar-list", "8,1", "--out", out],
        ["regime-map", "--n", 12, "--separations", "1,-2", "--out", out],
        ["regime-map", "--n", 12, "--noise-scales", "0.5,0", "--out", out],
        ["fixed-budget", "--n", 8, "--separation", "nan", "--out", out],
        ["fixed-budget", "--n", 12, "--sigma-phys", "nan", "--out", out],
        ["fixed-budget", "--n", 12, "--c", "inf", "--out", out],
        ["fixed-budget", "--n", 12, "--c", "1e160", "--out", out],
        ["theory-variance", "--n", 12, "--c", _MAX_C * 2, "--out", out],
        ["fixed-budget", "--n", 12, "--c", 0, "--out", out],
        # each exited 1 after the parser accepted it: a NaN kernel, a zero
        # uniform error, a zero-variance point cloud, a zero margin norm and
        # SMO's iteration cap
        ["fixed-budget", "--n", 50, "--trials", 1, "--nbar", 5, "--rounds", 2,
         "--separation", "1e300", "--seed", 1, "--out", out],
        ["fixed-budget", "--n", 4, "--trials", 2, "--nbar", 5, "--rounds", 2,
         "--noise-scale", "1e-200", "--seed", 1, "--out", out],
        ["regime-map", "--n", 4, "--trials", 2, "--nbar", 1, "--m0", 1, "--rounds", 1,
         "--separations", 0, "--noise-scales", "1e-300", "--seed", 1, "--out", out],
        ["stopping-sweep", "--n", 4, "--trials", 2, "--nbar", 5, "--rounds", 2,
         "--c", "1e-300", "--seed", 1, "--out", out],
        ["fixed-budget", "--n", 12, "--trials", 8, "--nbar", 2, "--m0", 1, "--rounds", 2,
         "--c", "1e6", "--seed", 7, "--out", out],
        ["fixed-budget", "--n", 12, "--anisotropy", "1e300", "--out", out],
        ["fixed-budget", "--n", 12, "--noise-scale", "inf", "--out", out],
        ["stopping-sweep", "--n", 12, "--epsilons", "0.1,nan", "--out", out],
        ["fixed-budget", "--n", 12, "--anisotropy", 0.5, "--out", out],
        ["fixed-budget", "--n", 12, "--seed", -3, "--out", out],
        # count bounds: a budget that would wrap int64, a count that would hang
        ["fixed-budget", "--n", 4, "--nbar", 3074457345618258602, "--trials", 1,
         "--rounds", 1, "--out", out],
        ["fixed-budget", "--n", 12, "--nbar", 10**19, "--out", out],
        ["fixed-budget", "--n", 12, "--trials", 10**400, "--out", out],
        ["saturation", "--n", 12, "--rounds", cli._MAX_ROUNDS + 1, "--out", out],
        ["theory-variance", "--n", datasets.MAX_POINTS + 2, "--out", out],
        ["theory-variance", "--n", 12, "--mc", cli._MAX_MC + 1, "--out", out],
        ["fixed-budget", "--n", 12, "--dims", cli._MAX_DIMS + 1, "--out", out],
        ["cost-model", "--n-range", f"10:{datasets.MAX_POINTS + 1}", "--out", out],
        ["load-kernel", "--kernel", "k.csv", "--nbar-list", f"8,{_MAX_NBAR + 1}",
         "--out", out],
        ["load-kernel", "--kernel", "k.csv", "--m0", 60, "--nbar-list", "100,50", "--out", out],
        # a run is a pilot plus at least one round, so it spends its whole budget
        *[[command, "--n", 8, "--trials", 1, "--nbar", 4, "--rounds", 0, "--out", out]
          for command in ("fixed-budget", "saturation", "stopping-sweep", "regime-map")],
        ["load-kernel", "--kernel", kernel, "--trials", 1, "--nbar", 4, "--rounds", 0,
         "--out", out],
    ]
    for args in bad:
        with pytest.raises(SystemExit) as err:
            run_cli(*args)
        assert err.value.code == 2
        assert not out.exists(), args


@pytest.mark.parametrize("argv, message", [
    (["fixed-budget", "--n", 12, "--nbar", 1, "--m0", 2], "cannot cover the pilot"),
    (["load-kernel", "--kernel", "KERNEL", "--m0", 60, "--nbar-list", "100,50"],
     "cannot cover the pilot"),
    (["fixed-budget", "--n", 12, "--nbar", 0], "nbar must be in [1, 1e+09], got 0"),
    (["load-kernel", "--kernel", "KERNEL", "--nbar-list", "8,0"],
     "nbar must be in [1, 1e+09], got 0"),
], ids=["fixed-budget", "load-kernel", "fixed-budget-nbar-0", "load-kernel-nbar-list-0"])
def test_pilot_budget_error_comes_from_the_config(tmp_path, capsys, argv, message):
    """A per-pair budget below 1 or below the pilot is refused by AdaptiveConfig
    itself, whose message the parser prints before --out opens."""
    out = tmp_path / "x.csv"
    argv = [labeled_kernel_file(tmp_path) if a == "KERNEL" else a for a in argv]
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--out", out)
    assert err.value.code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_main_builds_one_config_per_budget(tmp_path, monkeypatch):
    """Every task of a regime-map grid shares one run configuration, and
    load-kernel's blocks take one configuration per --nbar-list entry, in order."""
    seen = []
    for name in ("run_regime_trial", "run_stage_trial"):
        def recording(task, worker=getattr(experiments, name)):
            seen.append(task.config)
            return worker(task)
        monkeypatch.setattr(experiments, name, recording)
    assert run_cli("regime-map", "--n", 12, "--trials", 2, "--nbar", 8, "--rounds", 2,
                   "--epsilon", 0.2, "--separations", "1.0,4.0", "--noise-scales", "0.5,0.8",
                   "--seed", 3, "--out", tmp_path / "grid.csv") == 0
    assert len(seen) == 8 and all(config is seen[0] for config in seen)
    assert seen[0] == AdaptiveConfig(nbar=8, rounds=2, epsilon=0.2)
    seen.clear()
    assert run_cli("load-kernel", "--kernel", labeled_kernel_file(tmp_path), "--trials", 2,
                   "--nbar-list", "6,10", "--rounds", 2, "--out", tmp_path / "lk.csv") == 0
    assert [config.nbar for config in seen] == [6, 6, 10, 10]
    assert seen[0] is seen[1] and seen[2] is seen[3] and seen[1] is not seen[2]


def test_count_bounds_are_inclusive():
    def parse(*args):
        return cli.build_parser().parse_args([str(a) for a in args] + ["--out", "x.csv"])

    args = parse("fixed-budget", "--n", datasets.MAX_POINTS, "--trials", cli._MAX_TRIALS,
                 "--nbar", _MAX_NBAR, "--rounds", cli._MAX_ROUNDS, "--dims", cli._MAX_DIMS)
    assert (args.n, args.trials, args.nbar, args.rounds, args.dims) == (
        datasets.MAX_POINTS, cli._MAX_TRIALS, _MAX_NBAR, cli._MAX_ROUNDS, cli._MAX_DIMS)
    assert parse("theory-variance", "--mc", cli._MAX_MC).mc == cli._MAX_MC
    assert parse("fixed-budget", "--c", _MAX_C).c == _MAX_C
    assert parse("theory-variance", "--c", _MAX_C).c == _MAX_C
    assert parse("load-kernel", "--kernel", "k.csv",
                 "--nbar-list", f"8,{_MAX_NBAR}").nbar_list == [8, _MAX_NBAR]
    assert parse("cost-model", "--n-range", f"10:{datasets.MAX_POINTS}").n_range == range(
        10, datasets.MAX_POINTS + 1)


def test_one_shot_pilots_at_the_box_bound_ceiling_finish(tmp_path):
    # One-shot pilots make SMO walk its dual weights to the box bound: at
    # --c 1e6 this run hit the 1,200,000-iteration cap and exited 1. At the
    # ceiling it takes about 0.03 s on a 2-vCPU Xeon.
    out = tmp_path / "fb.csv"
    argv = ["fixed-budget", "--n", 12, "--trials", 8, "--nbar", 2, "--m0", 1, "--rounds", 2,
            "--seed", 7, "--out", out]
    start = time.perf_counter()
    assert run_cli(*argv, "--c", _MAX_C) == 0
    assert time.perf_counter() - start < 5.0
    out.unlink()
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--c", np.nextafter(_MAX_C, np.inf))
    assert err.value.code == 2
    assert not out.exists()


def _text(value) -> str:
    return str(value) if isinstance(value, (int, str)) else repr(float(value))


def _values(lo, hi, inside, slow_top=False):
    """Flag text for the closed range [lo, hi]: (values drawn from ``inside``,
    values at a finite end of the range or the nearest value just past it).
    ``slow_top`` leaves out an upper end that would make the run slow, such as
    100,000 trials; the value just past it stays."""
    if isinstance(lo, int):
        edges = [lo, lo - 1]
        if hi < math.inf:
            edges += [hi + 1] if slow_top else [hi, hi + 1]
    else:
        edges = [lo, np.nextafter(lo, -np.inf)]
        if hi < math.inf:
            edges += [hi, np.nextafter(hi, np.inf)]
    return inside.map(_text), st.sampled_from([_text(v) for v in edges])


def _listed(values):
    inside, edges = values
    return st.lists(inside, min_size=1, max_size=2).map(",".join), edges


def _joined(first, second):
    """r:R or lo:hi text from two (inside, edge) pairs; an edge value in either part."""
    edge = st.one_of(st.tuples(first[1], second[0]), st.tuples(first[0], second[1]))
    return st.tuples(first[0], second[0]).map(":".join), edge.map(":".join)


_B, _A, _C = BlobSpec.RANGES, AdaptiveConfig.RANGES, CostModel.RANGES
_floats = {name: _values(*_B[name], st.floats(*_B[name]))
           for name in ("separation", "noise_scale", "anisotropy", "label_noise")}
_floats.update({name: _values(*_A[name], st.floats(_A[name][0], min(_A[name][1], 1e300)))
                for name in ("lam", "c", "epsilon", "sigma_phys")})
_nbar = _values(1, _MAX_NBAR, st.integers(1, 6))
# every flag of every subcommand, as (text inside its range, text at or just past an end);
# sizes inside the ranges stay tiny so that each run takes milliseconds
_FLAG_VALUES = {
    "--n": _values(_B["n_points"][0], datasets.MAX_POINTS, st.sampled_from([4, 6, 8]),
                   slow_top=True),
    "--trials": _values(1, cli._MAX_TRIALS, st.integers(1, 2), slow_top=True),
    "--nbar": _nbar,
    "--rounds": _values(_A["rounds"][0], cli._MAX_ROUNDS, st.integers(1, 2), slow_top=True),
    "--m0": _values(_A["m0"][0], _A["m0"][1], st.integers(1, 3)),
    "--lambda": _floats["lam"],
    "--c": _floats["c"],
    "--sigma-phys": _floats["sigma_phys"],
    "--separation": _floats["separation"],
    "--separations": _listed(_floats["separation"]),
    "--noise-scale": _floats["noise_scale"],
    "--noise-scales": _listed(_floats["noise_scale"]),
    "--anisotropy": _floats["anisotropy"],
    "--label-noise": _floats["label_noise"],
    "--dims": _values(_B["dims"][0], cli._MAX_DIMS, st.integers(1, 3)),
    "--epsilon": _floats["epsilon"],
    "--epsilons": _listed(_floats["epsilon"]),
    "--t-grid": _listed(_values(*T_RANGE, st.floats(*T_RANGE))),
    "--mc": _values(1, cli._MAX_MC, st.integers(1, 2), slow_top=True),
    "--configs": _listed(_joined(_values(*_C["r"], st.floats(*_C["r"])),
                                 _values(*_C["rounds"], st.integers(1, 3)))),
    "--n-range": _joined(_values(_C["n"][0], datasets.MAX_POINTS, st.integers(_C["n"][0], 5)),
                         _values(5, datasets.MAX_POINTS, st.integers(5, 9))),
    "--nbar-list": _listed(_nbar),
    "--seed": _values(0, math.inf, st.integers(0, 2**70)),
    "--threads": _values(1, math.inf, st.just(1)),
    "--format": (st.sampled_from(["csv", "jsonl"]),) * 2,
}
# cost-model's --nbar is CostModel's, not the shots per entry of a run
_COST_NBAR = _values(*_C["nbar"], st.floats(_C["nbar"][0], 1e300))


def _command_flags() -> dict[str, list[str]]:
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[-1] for a in sub._actions
                   if a.dest not in ("help", "out", "kernel")]
            for name, sub in commands.choices.items()}


def _unit_gram(x: np.ndarray) -> np.ndarray:
    """Gram matrix of the rows of nonnegative ``x`` scaled to unit length, made
    exactly symmetric with a unit diagonal, as kernel files must be."""
    x = np.array(x, dtype=np.float64)
    x[np.linalg.norm(x, axis=1) == 0, 0] = 1.0  # a zero row, or one whose norm underflows
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    gram = np.clip(x @ x.T, 0.0, 1.0)
    gram = np.maximum(gram, gram.T)
    np.fill_diagonal(gram, 1.0)
    return gram


@st.composite
def _kernel_files(draw):
    """(kernel, labels) of 2 to 15 points with both classes: the Gram matrix of
    nonnegative unit vectors, of such vectors with rows repeated, of sparse 0/1
    features, or all ones. Repeated and identical points with opposite labels
    give the clean model a zero margin norm."""
    n = draw(st.integers(2, 15))
    dims = draw(st.integers(1, 4))

    def rows(count, entries):
        return draw(st.lists(st.lists(entries, min_size=dims, max_size=dims),
                             min_size=count, max_size=count))

    family = draw(st.sampled_from(["unit", "repeated", "sparse", "ones"]))
    if family == "unit":
        x = rows(n, st.floats(0.0, 1.0))
    elif family == "repeated":
        base = rows(draw(st.integers(1, n - 1)), st.floats(0.0, 1.0))
        x = [base[i] for i in draw(st.lists(st.integers(0, len(base) - 1),
                                            min_size=n, max_size=n))]
    elif family == "sparse":
        x = rows(n, st.integers(0, 1))
    else:
        x = np.ones((n, 1))
    labels = draw(st.permutations(
        [1, -1] + draw(st.lists(st.sampled_from([1, -1]), min_size=n - 2, max_size=n - 2))))
    return _unit_gram(x), labels


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_parsed_argv_exits_0_or_2(argv_dir, data):
    """Every flag inside its range, and one at an end of its range or just past it,
    and for load-kernel a small kernel file: the run exits 0, or exits 2 before
    it opens --out; it never fails at run time."""
    flags = _command_flags()
    command = data.draw(st.sampled_from(sorted(flags)))
    probed = data.draw(st.sampled_from(flags[command]))
    out = argv_dir / "out.csv"
    argv = [command, "--out", str(out)]
    if command == "load-kernel":
        save_kernel_file(argv_dir / "k.csv", *data.draw(_kernel_files()))
        argv += ["--kernel", str(argv_dir / "k.csv")]
    for flag in flags[command]:
        inside, edge = _COST_NBAR if (command, flag) == ("cost-model", "--nbar") else \
            _FLAG_VALUES[flag]
        argv += [flag, data.draw(edge if flag == probed else inside)]
    out.unlink(missing_ok=True)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2), argv
    assert out.exists() == (code == 0), argv


@pytest.mark.parametrize("owner", [BlobSpec, AdaptiveConfig, CostModel])
def test_every_config_field_has_a_range(owner):
    """Construction checks the fields RANGES names, so a field without a range
    would go unchecked."""
    assert list(owner.RANGES) == [field.name for field in dataclasses.fields(owner)]


def set_cpus(monkeypatch, count, usable=None):
    """Make os report ``count`` CPUs, of which the affinity mask holds ``usable``
    (all of them when None)."""
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: count)
    mask = set(range(count if usable is None else usable))
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: mask, raising=False)


def test_worker_count_is_bounded(monkeypatch):
    set_cpus(monkeypatch, 4)
    assert worker_count(1, 10) == 1
    assert worker_count(3, 10) == 3
    assert worker_count(1000, 10) == 4  # never more than the CPUs
    assert worker_count(8, 2) == 2  # never more than the tasks
    # a process pinned to one of eight CPUs (taskset -c 0) runs one worker
    set_cpus(monkeypatch, 8, usable=1)
    assert worker_count(8, 10) == 1
    # without an affinity mask the CPU count bounds the workers
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    assert worker_count(1000, 10) == 8
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert worker_count(8, 10) == 1


def test_runtime_error_exit_1_keeps_partial_rows(tmp_path, monkeypatch):
    kernel_path = labeled_kernel_file(tmp_path)
    out = tmp_path / "lk.csv"
    real = experiments.run_stage_trial

    def fail_second_block(task):
        if task.config.nbar == 12:
            raise RuntimeError("trial failed")
        return real(task)

    monkeypatch.setattr(experiments, "run_stage_trial", fail_second_block)
    # every trial of the second budget in the sweep fails -> fails after block one
    rc = run_cli("load-kernel", "--kernel", kernel_path, "--trials", 2, "--nbar-list",
                 "8,12", "--rounds", 1, "--seed", 5, "--out", out)
    assert rc == 1
    rows = read_csv(out)
    assert len(rows) == 2 * (1 + 2)  # first block was flushed before the failure
    assert {r["nbar"] for r in rows} == {"8"}


# each command, with the library function that does its work
_OUTPUT_FIRST = [
    (["fixed-budget", "--n", 12, "--trials", 2], "run_stage_trial"),
    (["saturation", "--n", 12, "--trials", 2], "run_stage_trial"),
    (["stopping-sweep", "--n", 12, "--trials", 2], "run_stage_trial"),
    (["regime-map", "--n", 12, "--trials", 2], "run_regime_trial"),
    (["theory-variance", "--n", 12], "data_driven_weights"),
    (["cost-model"], "cost_model_rows"),
    (["load-kernel", "--kernel", "KERNEL", "--trials", 2], "run_stage_trial"),
]


@pytest.mark.parametrize("argv,work", _OUTPUT_FIRST, ids=[argv[0] for argv, _ in _OUTPUT_FIRST])
def test_unwritable_out_fails_before_any_trial(tmp_path, monkeypatch, capsys, argv, work):
    calls = []
    monkeypatch.setattr(experiments, work, lambda *a, **k: calls.append(a))
    argv = [labeled_kernel_file(tmp_path) if a == "KERNEL" else a for a in argv]
    assert run_cli(*argv, "--out", tmp_path / "missing" / "x.csv") == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert calls == []


def test_load_kernel_roundtrip(tmp_path):
    kernel_path = tmp_path / "k.csv"
    x, y = make_blobs(BlobSpec(n_points=14, separation=4.0, noise_scale=0.5), 9)
    save_kernel_file(kernel_path, rbf_kernel(x), y)
    out = tmp_path / "lk.csv"
    assert run_cli("load-kernel", "--kernel", kernel_path, "--trials", 2,
                   "--nbar-list", "8,16", "--rounds", 2, "--seed", 5, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 2 * (1 + 3)
    assert {r["n"] for r in rows} == {"14"}
    assert [r["trial"] for r in rows[::4]] == ["0", "1", "2", "3"]
    assert {r["nbar"] for r in rows} == {"8", "16"}


def test_load_kernel_repeated_budget_summarizes_each_block(tmp_path, capsys):
    """Each --nbar-list entry runs its own block of trials and prints
    fixed-budget's summary over that block's final rows, even when a budget repeats."""
    kernel_path = labeled_kernel_file(tmp_path)
    argv = ["load-kernel", "--kernel", kernel_path, "--trials", 2, "--rounds", 2, "--seed", 0]
    assert run_cli(*argv, "--nbar-list", "8", "--out", tmp_path / "once.csv") == 0
    once = capsys.readouterr().out.splitlines()
    out = tmp_path / "twice.csv"
    assert run_cli(*argv, "--nbar-list", "8,8", "--out", out) == 0
    twice = capsys.readouterr().out.splitlines()
    assert len(once) == 9 and len(twice) == 18 and twice[:9] == once
    finals = [r for r in read_csv(out) if r["round"] == r["rounds_executed"]]
    for block in range(2):
        lines = twice[9 * block:9 * (block + 1)]
        assert lines[0] == "load-kernel: 2 trials, n=12, nbar=8, rounds=2, lambda=0.5"
        rows = {strategy: [r for r in finals
                           if int(r["trial"]) // 2 == block and r["strategy"] == strategy]
                for strategy in ("uniform", "adaptive")}
        assert [len(rows[s]) for s in rows] == [2, 2]

        def med(strategy, name):
            return experiments.median([float(r[name]) for r in rows[strategy]])

        for line, field in zip(lines[1:7], dataclasses.fields(metrics.MetricBundle)):
            assert line == (f"  median {field.name:17s} uniform={med('uniform', field.name):.6g}"
                            f"  adaptive={med('adaptive', field.name):.6g}")
        assert lines[7] == ("  uniform baseline median decision_rmse: "
                            f"{med('uniform', 'decision_rmse'):.6g}")
        assert lines[8].startswith("  success rate (delta_rmse > 0): ")


def test_load_kernel_trial_leaves_the_task_arrays_alone(tmp_path):
    """A trial runs on the kernel and labels of the task's reference, not on
    copies, so it must write to neither."""
    kernel, labels = datasets.load_kernel_file(labeled_kernel_file(tmp_path))
    config = AdaptiveConfig(nbar=10, rounds=2)
    reference = metrics.Reference.of(kernel, labels, config.c)
    task = experiments.TrialTask(experiment="load-kernel", trial=0, seed=7, config=config,
                                 reference=reference)
    assert reference.model.labels is labels
    before = kernel.tobytes(), labels.tobytes()
    experiments.run_stage_trial(task)
    assert (kernel.tobytes(), labels.tobytes()) == before


def test_load_kernel_checks_the_listed_budgets_not_nbar(tmp_path):
    """--nbar-list replaces --nbar, so the default --nbar 50 below --m0 60 is no error."""
    kernel_path = labeled_kernel_file(tmp_path)
    out = tmp_path / "lk.csv"
    assert run_cli("load-kernel", "--kernel", kernel_path, "--m0", 60, "--nbar-list", "100,200",
                   "--trials", 1, "--rounds", 1, "--out", out) == 0
    assert {r["nbar"] for r in read_csv(out)} == {"100", "200"}


def test_load_kernel_without_labels_fails(tmp_path, capsys):
    kernel_path = tmp_path / "k.csv"
    kernel_path.write_text("1.0,0.5\n0.5,1.0\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1, "--out", out)
    assert err.value.code == 2
    assert f"{kernel_path}: the first non-blank line must be the #labels row" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["same", "relative", "hard link"])
def test_load_kernel_out_naming_the_kernel_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                            spelling):
    """--out naming the --kernel file, by any path, exits 2 before the file is
    parsed and before --out opens, so the kernel file is left byte for byte as
    it was; it used to be replaced by the result table."""
    kernel_path = labeled_kernel_file(tmp_path)
    monkeypatch.setattr(cli, "load_kernel_file", lambda path: pytest.fail("parsed"))
    before = kernel_path.read_bytes()
    out = kernel_path
    if spelling == "relative":
        monkeypatch.chdir(tmp_path)
        out = Path(".", "sub", "..", kernel_path.name)
        (tmp_path / "sub").mkdir()
    elif spelling == "hard link":
        out = tmp_path / "link.csv"
        os.link(kernel_path, out)
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1, "--out", out)
    assert err.value.code == 2
    assert "--out names the kernel file" in capsys.readouterr().err
    assert kernel_path.read_bytes() == before
    # a missing --kernel next to an existing --out still names the missing file
    missing = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", missing, "--trials", 1, "--out", out)
    assert err.value.code == 2
    assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
    assert kernel_path.read_bytes() == before


def test_load_kernel_solves_the_clean_model_once(tmp_path, monkeypatch):
    """The clean model that the zero-margin check trains serves every trial
    of every budget."""
    calls = []
    of = metrics.Reference.of

    def counted(cls, kernel, labels, c):
        calls.append(len(kernel))
        return of(kernel, labels, c)

    monkeypatch.setattr(metrics.Reference, "of", classmethod(counted))
    assert run_cli("load-kernel", "--kernel", labeled_kernel_file(tmp_path), "--threads", 1,
                   "--trials", 3, "--nbar-list", "6,10", "--rounds", 2,
                   "--out", tmp_path / "lk.csv") == 0
    assert calls == [12]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_kernel_rejects_non_finite_entries(tmp_path, capsys, value):
    kernel_path = tmp_path / "k.csv"
    kernel_path.write_text(f"#labels,1,-1,1\n1.0,{value},0.2\n{value},1.0,0.3\n0.2,0.3,1.0\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1, "--out", out)
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert "invalid kernel" in err
    assert f"K[0,1]={value} is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("#labels,1,1,1\n1.0,0.1,0.2\n0.1,1.0,0.3\n0.2,0.3,1.0\n", "single class"),
    ("#labels,1,-1,1\n1.0,1.5,0.2\n1.5,1.0,0.3\n0.2,0.3,1.0\n", "K[0,1]=1.5 outside [0,1]"),
    ("#labels,1,-1\n1.0,x\nx,1.0\n", "line 2, column 2: not a number: 'x'"),
])
def test_load_kernel_bad_file_is_a_usage_error(tmp_path, capsys, text, message):
    """A missing file, one-class labels, an entry outside [0, 1] and an entry
    that is no number exit 2 before --out opens, naming the file once and what
    is wrong with it."""
    kernel_path = tmp_path / "k.csv"
    if text is not None:
        kernel_path.write_text(text)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1, "--out", out)
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count(str(kernel_path)) == 1
    assert not out.exists()


def test_load_kernel_past_the_point_cap_is_a_usage_error(tmp_path, capsys):
    """A #labels row past MAX_POINTS exits 2 before --out opens, and before
    the unparsable row after it is read."""
    kernel_path = tmp_path / "k.csv"
    kernel_path.write_text("#labels," + ",".join(["1", "-1"] * 1000 + ["1"]) + "\noops\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1, "--out", out)
    assert err.value.code == 2
    assert f"{kernel_path}: 2001 labels, more than the 2000 points" in capsys.readouterr().err
    assert not out.exists()


# two pairs of identical points, 0.3 apart; each pair gets both labels below
_PAIRED = np.kron(np.array([[1.0, 0.3], [0.3, 1.0]]), np.ones((2, 2)))


@pytest.mark.parametrize("kernel,labels,c", [
    (np.ones((4, 4)), [1, -1, 1, -1], 1.0),
    (_PAIRED, [1, -1, 1, -1], 1.0),
    (np.ones((6, 6)), [1, 1, 1, -1, -1, -1], 0.01),
], ids=["all-ones", "paired", "all-ones-rounding"])
def test_load_kernel_zero_margin_is_a_usage_error(tmp_path, capsys, kernel, labels, c):
    """Identical points with opposite labels give the clean model a zero margin
    norm, the unit of decision_rmse and rel_margin_err: exit 2 before --out
    opens. The first two files exited 1 after writing the header. The third
    one's norm is a rounding residue, 3.5e-18, and it exited 0 with every
    decision_rmse 0."""
    kernel_path = tmp_path / "k.csv"
    save_kernel_file(kernel_path, kernel, labels)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1, "--c", c, "--out", out)
    assert err.value.code == 2
    assert "reference margin norm must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kernel", [
    np.kron(np.eye(2), np.ones((3, 3))),
    np.eye(6),
], ids=["all-ones-blocks", "identity"])
def test_load_kernel_on_an_exactly_measured_kernel_finishes(tmp_path, capsys, kernel):
    """Entries of 0 and 1 are measured exactly by any shot budget, so both
    strategies end with zero decision error and no trial is a win. The command
    used to write every row and then exit 1 with "baseline RMSE must be
    positive"."""
    kernel_path = tmp_path / "k.csv"
    save_kernel_file(kernel_path, kernel, [1, 1, 1, -1, -1, -1])
    out = tmp_path / "lk.csv"
    assert run_cli("load-kernel", "--kernel", kernel_path, "--trials", 3, "--nbar", 10,
                   "--rounds", 2, "--seed", 1, "--out", out) == 0
    assert len(read_csv(out)) == 3 * (1 + 3)
    assert capsys.readouterr().out.splitlines()[-1] == "  success rate (delta_rmse > 0): 0.000"


def test_sweep_epsilon_zero_matches_fixed_budget_final(tmp_path):
    fb_out, sw_out = tmp_path / "fb.csv", tmp_path / "sw.csv"
    common = ["--n", 12, "--trials", 4, "--nbar", 10, "--rounds", 3, "--seed", 11]
    run_cli("fixed-budget", *common, "--out", fb_out)
    run_cli("stopping-sweep", *common, "--epsilons", "0,1e9", "--out", sw_out)
    fb_rows = read_csv(fb_out)
    finals = [float(r["decision_rmse"]) for r in fb_rows
              if r["strategy"] == "adaptive" and r["round"] == r["rounds_executed"]]
    sweep = read_csv(sw_out)
    assert tuple(sweep[0].keys()) == SweepRow._fields
    zero = sweep[0]
    assert float(zero["epsilon"]) == 0.0
    assert float(zero["median_shot_fraction"]) == 1.0
    assert float(zero["median_decision_rmse_adaptive"]) == pytest.approx(
        float(np.median(finals)), rel=1e-12)
    # an absurdly loose threshold stops every trial at the first adaptive round
    loose = sweep[1]
    assert float(loose["median_rounds"]) == 1.0
    assert float(loose["median_shot_fraction"]) < 1.0


def test_regime_map_grid_rows(tmp_path):
    out = tmp_path / "rm.csv"
    assert run_cli("regime-map", "--n", 12, "--trials", 2, "--nbar", 8, "--rounds", 2,
                   "--separations", "1.0,4.0", "--noise-scales", "0.5,0.8",
                   "--seed", 7, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert [(r["separation"], r["noise_scale"]) for r in rows] == [
        ("1", "0.5"), ("1", "0.80000000000000004"),
        ("4", "0.5"), ("4", "0.80000000000000004")]
    for row in rows:
        assert np.isfinite(float(row["mean_delta_rmse"]))
        assert 0.0 <= float(row["mean_gini"]) <= 1.0
    # margin strength tracks separation/noise
    strengths = {(r["separation"], r["noise_scale"]): float(r["margin_strength"])
                 for r in rows}
    assert strengths[("4", "0.5")] > strengths[("1", "0.5")]
    assert strengths[("1", "0.5")] > strengths[("1", "0.80000000000000004")]


def test_regime_map_runs_whole_grid_through_one_pool(tmp_path, monkeypatch):
    events = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor without starting a process."""

        def __init__(self, max_workers):
            events.append(("pool", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            tasks = list(iterable)
            events.append(("map", tasks[0].blob.separation, tasks[0].blob.noise_scale, chunksize))
            return map(fn, tasks)

    write_rows = cli.ResultWriter.write_rows

    def logged_write_rows(self, rows):
        rows = list(rows)
        events.append(("write", len(rows)))
        write_rows(self, rows)

    grid = ["regime-map", "--n", 12, "--trials", 2, "--nbar", 8, "--rounds", 2,
            "--epsilon", 0.2, "--separations", "1.0,4.0", "--noise-scales", "0.5,0.8",
            "--seed", 3]
    inline, pooled = tmp_path / "inline.csv", tmp_path / "pooled.csv"
    assert run_cli(*grid, "--threads", 1, "--out", inline) == 0
    set_cpus(monkeypatch, 4)
    # trial_pool imports the executor only when it opens a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.ResultWriter, "write_rows", logged_write_rows)
    assert run_cli(*grid, "--threads", 2, "--out", pooled) == 0
    assert [e for e in events if e[0] == "pool"] == [("pool", 2)]
    # every cell is queued before the first row is written
    assert [e for e in events if e[0] != "pool"] == [
        ("map", 1.0, 0.5, 1), ("map", 1.0, 0.8, 1), ("map", 4.0, 0.5, 1), ("map", 4.0, 0.8, 1),
        ("write", 1), ("write", 1), ("write", 1), ("write", 1)]
    assert pooled.read_bytes() == inline.read_bytes()
    assert len(read_csv(pooled)) == 4


_TRIAL_LOG = None  # directory the failing regime worker marks each trial it starts in


def _regime_trial_failing_in_cell_2(task):
    """Regime worker for a grid with one noise scale: cell 1 (separation 1)
    returns at once, the first trial of cell 2 raises and its other trials
    take a while, so every later cell is still queued when the error arrives."""
    Path(_TRIAL_LOG, f"{task.blob.separation}-{task.trial}").touch()
    if task.blob.separation == 2.0:
        if task.trial == 0:
            raise RuntimeError("cell 2 failed")
        time.sleep(0.25)
    return 0.5, 0.1


def test_failing_regime_map_cancels_queued_cells(tmp_path, monkeypatch, capsys):
    # Two workers hold two trials and the executor's call queue three more,
    # and a queued trial can no longer be cancelled. Cell 2's sixteen trials
    # keep every later cell out of that queue for about 1.5 s after its first
    # trial fails, time enough to read the error and cancel the rest.
    log = tmp_path / "started"
    log.mkdir()
    monkeypatch.setattr(sys.modules[__name__], "_TRIAL_LOG", str(log))
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "run_regime_trial", _regime_trial_failing_in_cell_2)
    out = tmp_path / "rm.csv"
    assert run_cli("regime-map", "--n", 12, "--trials", 16, "--nbar", 8, "--rounds", 2,
                   "--separations", "1,2,3,4,5,6,7,8", "--noise-scales", "0.5",
                   "--threads", 2, "--out", out) == 1
    assert "cell 2 failed" in capsys.readouterr().err
    assert [row["separation"] for row in read_csv(out)] == ["1"]
    started = {name.split("-")[0] for name in os.listdir(log)}
    assert started == {"1.0", "2.0"}


def test_failed_write_cancels_queued_cells(tmp_path, monkeypatch, capsys):
    # cli.main writes outside the command's pool, so a failed write must close
    # the command and cancel its queued trials, as a failed trial does above
    log = tmp_path / "started"
    log.mkdir()
    monkeypatch.setattr(sys.modules[__name__], "_TRIAL_LOG", str(log))
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "run_regime_trial", _regime_trial_slow_after_cell_1)

    def failing_write_rows(self, rows):
        raise OSError("disk full")

    monkeypatch.setattr(cli.ResultWriter, "write_rows", failing_write_rows)
    out = tmp_path / "rm.csv"
    assert run_cli("regime-map", "--n", 12, "--trials", 16, "--nbar", 8, "--rounds", 2,
                   "--separations", "1,2,3,4,5,6,7,8", "--noise-scales", "0.5",
                   "--threads", 2, "--out", out) == 1
    assert "disk full" in capsys.readouterr().err
    assert read_csv(out) == []
    started = sorted(os.listdir(log))
    assert {"1.0"} <= {name.split("-")[0] for name in started} <= {"1.0", "2.0"}
    time.sleep(0.6)  # a pool left open would go on starting cell 2's trials
    assert sorted(os.listdir(log)) == started


def _regime_trial_slow_after_cell_1(task):
    """Regime worker that returns at once in cell 1 (separation 1) and takes a
    while in every later cell, so cells 3 on are still queued when cell 1's row
    is written."""
    Path(_TRIAL_LOG, f"{task.blob.separation}-{task.trial}").touch()
    if task.blob.separation != 1.0:
        time.sleep(0.25)
    return 0.5, 0.1


@pytest.mark.parametrize("error,attribute", [
    (ConvergenceError(5, 0.5), "violation"),
], ids=["ConvergenceError"])
def test_runtime_errors_survive_a_pickle_round_trip(error, attribute):
    # a worker's exception reaches the parent pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert getattr(back, attribute) == getattr(error, attribute)


def _regime_trial_not_converging(task):
    raise ConvergenceError(5, 0.5)


def _regime_trial_zero_scores(task):
    raise ValueError("all scores are zero")


def test_pooled_trial_error_reads_as_in_process(tmp_path, monkeypatch, capsys):
    # an exception that did not unpickle broke the pool, and the run reported
    # a process "terminated abruptly" instead of the trial's error
    set_cpus(monkeypatch, 2)
    for worker, message in [
        (_regime_trial_not_converging,
         "no convergence in 5 iterations (worst KKT violation 5.000e-01)"),
        (_regime_trial_zero_scores, "all scores are zero"),
    ]:
        monkeypatch.setattr(experiments, "run_regime_trial", worker)
        errors = []
        for threads in (1, 2):
            assert run_cli("regime-map", "--n", 12, "--trials", 2, "--nbar", 8, "--rounds", 2,
                           "--separations", "1.0", "--noise-scales", "0.5", "--threads",
                           threads, "--out", tmp_path / f"rm{threads}.csv") == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            f"error: regime-map trial 0 seed 0 separation=1.0 noise_scale=0.5: {message}\n")


def test_trial_error_names_a_kernel_task_without_blob_geometry(tmp_path, monkeypatch, capsys):
    def fail(task):
        raise ValueError("all scores are zero")

    monkeypatch.setattr(experiments, "run_stage_trial", fail)
    assert run_cli("load-kernel", "--kernel", labeled_kernel_file(tmp_path), "--trials", 2,
                   "--nbar-list", "8,12", "--rounds", 1, "--seed", 5, "--threads", 1,
                   "--out", tmp_path / "lk.csv") == 1
    assert capsys.readouterr().err == "error: load-kernel trial 0 seed 5: all scores are zero\n"


def test_blob_instance_gives_up_after_its_redraws(monkeypatch):
    draws = []

    def one_class(spec, seed):
        draws.append(seed)
        return np.zeros((spec.n_points, 2)), np.ones(spec.n_points)

    monkeypatch.setattr(experiments, "make_blobs", one_class)
    with pytest.raises(RuntimeError) as ei:
        experiments.blob_instance(BlobSpec(n_points=4, separation=1.0, noise_scale=0.5), 0, 3)
    assert str(ei.value) == "no two-class sample after 100 redraws (label_noise=0.0)"
    assert len(set(draws)) == 100


@pytest.mark.parametrize("text", ["10", "10:x", "10:20:30"])
def test_n_range_that_is_not_lo_hi_is_a_usage_error(tmp_path, capsys, text):
    out = tmp_path / "cm.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("cost-model", "--n-range", text, "--out", out)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"shotsvm cost-model: error: argument --n-range: bad range {text!r}, expected lo:hi")
    assert not out.exists()


def _modules_after_tiny_saturation(tmp_path):
    """sys.modules of a fresh process after a tiny saturation run through cli.main."""
    out = tmp_path / "sat.csv"
    argv = ["saturation", "--n", "8", "--trials", "1", "--nbar", "4", "--rounds", "2",
            "--out", str(out)]
    code = ("import json, sys\n"
            "from shotsvm import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert len(read_csv(out)) == 3
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_run_imports_no_scipy(tmp_path):
    modules = _modules_after_tiny_saturation(tmp_path)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_cli_run_in_process_imports_no_process_pool(tmp_path):
    # a one-worker run never opens a pool, so it skips about 30 ms of imports
    modules = _modules_after_tiny_saturation(tmp_path)
    assert [m for m in modules
            if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent")] == []


def test_cli_run_imports_no_numpy_ma(tmp_path):
    # np.median would import numpy.ma (about 20 ms) on its first call
    modules = _modules_after_tiny_saturation(tmp_path)
    assert "numpy" in modules
    assert [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


_medians = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=1, max_size=9),
    st.lists(st.floats(-1.0, 1.0).map(np.float64), min_size=1, max_size=30),
    st.lists(st.integers(0, 60), min_size=1, max_size=30))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_medians)
def test_median_matches_np_median_bitwise(values):
    got = experiments.median(values)
    with np.errstate(over="ignore"):  # both sides overflow to inf alike
        want = np.median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_theory_variance_schema(tmp_path):
    out = tmp_path / "tv.csv"
    assert run_cli("theory-variance", "--n", 12, "--nbar", 10, "--separation", 4,
                   "--t-grid", "0,0.5,1", "--mc", 40, "--seed", 7, "--out", out) == 0
    rows = read_csv(out)
    assert tuple(rows[0].keys()) == VarianceRow._fields
    assert len(rows) == 3 * 3
    oracle = [r for r in rows if r["oracle"] == "true"]
    finite = [r for r in rows if r["oracle"] == "false"]
    assert len(oracle) == 6 and len(finite) == 3
    assert all(r["mc_se"] == "" and r["mc"] == "0" for r in oracle)
    # only the optimal scheme is drawn, and the multinomial draw always jitters it
    assert all(r["scheme"] == "optimal" and float(r["mc_se"]) > 0 and r["mc"] == "40"
               for r in finite)
    at_zero = {r["scheme"]: float(r["variance"]) for r in oracle if r["t"] == "0"}
    assert at_zero["optimal"] == pytest.approx(at_zero["uniform"], rel=1e-12)


def test_uniform_oracle_row_is_the_even_split_variance():
    """The even split of nbar shots per pair is one fixed allocation, so the
    uniform oracle row already holds its finite-shot variance."""
    n, nbar, t_grid = 12, 8, [0.0, 0.25, 0.5, 1.0]
    blob = BlobSpec(n_points=n, separation=4.0, noise_scale=0.5)
    base = experiments.data_driven_weights(blob, 7, 1.0)
    rows = experiments.variance_sweep_rows(base, t_grid, n, nbar, mc=5, seed=7)
    uniform = [r for r in rows if r.scheme == "uniform"]
    assert [r.t for r in uniform] == t_grid and all(r.oracle for r in uniform)
    for row in uniform:
        exact = sampling_variance(interpolate_weights(base, row.t), uniform_allocation(n, nbar))
        assert row.variance == pytest.approx(exact, rel=1e-12)


def test_variance_sweep_rejects_zero_base_weights():
    rows = experiments.variance_sweep_rows(np.zeros(3), [0.0], 3, 8, mc=5, seed=7)
    with pytest.raises(ValueError, match="^all base weights are zero$"):
        next(rows)


def test_cost_model_matches_library(tmp_path):
    out = tmp_path / "cm.csv"
    assert run_cli("cost-model", "--configs", "0.16:6,0.3:10", "--n-range", "10:14",
                   "--nbar", 100, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 5
    probe = rows[7]
    expected = tau_critical(CostModel(
        c_q=1.0, c_c=1.0, r=float(probe["r"]), rounds=int(probe["rounds"]),
        n=int(probe["n"]), nbar=float(probe["nbar"])))
    assert float(probe["tau_star"]) == pytest.approx(expected, rel=1e-12)
