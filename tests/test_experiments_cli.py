"""Command-line contract: row schemas and counts, CSV/JSONL round-trips,
byte-identical reruns across thread counts, and the exit-code convention.
"""

import csv
import filecmp
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotsvm import cli, experiments
from shotsvm.datasets import BlobSpec, make_blobs, rbf_kernel, save_kernel_file
from shotsvm.experiments import STAGE_COLUMNS, SWEEP_COLUMNS, VARIANCE_COLUMNS, worker_count
from shotsvm.theory import CostModel, tau_critical


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    assert list(rows[0].keys()) == STAGE_COLUMNS
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


def test_jsonl_matches_csv_values(tmp_path):
    a, b = tmp_path / "fb.csv", tmp_path / "fb.jsonl"
    run_cli(*fb_args(a, trials=2, rounds=1))
    run_cli(*fb_args(b, trials=2, rounds=1, format="jsonl"))
    csv_rows = read_csv(a)
    jsonl_rows = [json.loads(line) for line in open(b)]
    assert len(jsonl_rows) == len(csv_rows)
    for c_row, j_row in zip(csv_rows, jsonl_rows):
        assert list(j_row.keys()) == STAGE_COLUMNS
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
        kernel_path = tmp_path / "k.csv"
        x, y = make_blobs(BlobSpec(n_points=12, separation=4.0, noise_scale=0.5, seed=3))
        save_kernel_file(kernel_path, rbf_kernel(x), y)
        args += ["--kernel", kernel_path, "--nbar-list", "8,12"]
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


def test_usage_errors_exit_2(tmp_path):
    out = tmp_path / "x.csv"
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
        ["theory-variance", "--n", cli._MAX_POINTS + 2, "--out", out],
        ["theory-variance", "--n", 12, "--mc", cli._MAX_MC + 1, "--out", out],
        ["fixed-budget", "--n", 12, "--dims", cli._MAX_DIMS + 1, "--out", out],
        ["load-kernel", "--kernel", "k.csv", "--nbar-list", f"8,{cli._MAX_NBAR + 1}",
         "--out", out],
    ]
    for args in bad:
        with pytest.raises(SystemExit) as err:
            run_cli(*args)
        assert err.value.code == 2
        assert not out.exists(), args


def test_count_bounds_are_inclusive():
    def parse(*args):
        return cli.build_parser().parse_args([str(a) for a in args] + ["--out", "x.csv"])

    args = parse("fixed-budget", "--n", cli._MAX_POINTS, "--trials", cli._MAX_TRIALS,
                 "--nbar", cli._MAX_NBAR, "--rounds", cli._MAX_ROUNDS, "--dims", cli._MAX_DIMS)
    assert (args.n, args.trials, args.nbar, args.rounds, args.dims) == (
        cli._MAX_POINTS, cli._MAX_TRIALS, cli._MAX_NBAR, cli._MAX_ROUNDS, cli._MAX_DIMS)
    assert parse("theory-variance", "--mc", cli._MAX_MC).mc == cli._MAX_MC
    assert parse("load-kernel", "--kernel", "k.csv",
                 "--nbar-list", f"8,{cli._MAX_NBAR}").nbar_list == [8, cli._MAX_NBAR]


def test_worker_count_is_bounded(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    assert worker_count(1, 10) == 1
    assert worker_count(3, 10) == 3
    assert worker_count(1000, 10) == 4  # never more than the CPUs
    assert worker_count(8, 2) == 2  # never more than the tasks
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert worker_count(8, 10) == 1


def test_runtime_error_exit_1_keeps_partial_rows(tmp_path, monkeypatch):
    kernel_path = tmp_path / "k.csv"
    x, y = make_blobs(BlobSpec(n_points=12, separation=4.0, noise_scale=0.5, seed=3))
    save_kernel_file(kernel_path, rbf_kernel(x), y)
    out = tmp_path / "lk.csv"
    real = experiments.run_stage_trial

    def fail_second_block(task):
        if task.nbar == 12:
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


def test_load_kernel_roundtrip(tmp_path):
    kernel_path = tmp_path / "k.csv"
    x, y = make_blobs(BlobSpec(n_points=14, separation=4.0, noise_scale=0.5, seed=9))
    save_kernel_file(kernel_path, rbf_kernel(x), y)
    out = tmp_path / "lk.csv"
    assert run_cli("load-kernel", "--kernel", kernel_path, "--trials", 2,
                   "--nbar-list", "8,16", "--rounds", 2, "--seed", 5, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 2 * (1 + 3)
    assert {r["n"] for r in rows} == {"14"}
    assert [r["trial"] for r in rows[::4]] == ["0", "1", "2", "3"]
    assert {r["nbar"] for r in rows} == {"8", "16"}


def test_load_kernel_without_labels_fails(tmp_path, capsys):
    kernel_path = tmp_path / "k.csv"
    x, _ = make_blobs(BlobSpec(n_points=12, separation=4.0, noise_scale=0.5, seed=3))
    save_kernel_file(kernel_path, rbf_kernel(x))
    assert run_cli("load-kernel", "--kernel", kernel_path, "--trials", 1,
                   "--out", tmp_path / "x.csv") == 1
    assert "labels" in capsys.readouterr().err


def test_sweep_epsilon_zero_matches_fixed_budget_final(tmp_path):
    fb_out, sw_out = tmp_path / "fb.csv", tmp_path / "sw.csv"
    common = ["--n", 12, "--trials", 4, "--nbar", 10, "--rounds", 3, "--seed", 11]
    run_cli("fixed-budget", *common, "--out", fb_out)
    run_cli("stopping-sweep", *common, "--epsilons", "0,1e9", "--out", sw_out)
    fb_rows = read_csv(fb_out)
    finals = [float(r["decision_rmse"]) for r in fb_rows
              if r["strategy"] == "adaptive" and r["round"] == r["rounds_executed"]]
    sweep = read_csv(sw_out)
    assert list(sweep[0].keys()) == SWEEP_COLUMNS
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
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
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
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "run_regime_trial", _regime_trial_failing_in_cell_2)
    out = tmp_path / "rm.csv"
    assert run_cli("regime-map", "--n", 12, "--trials", 16, "--nbar", 8, "--rounds", 2,
                   "--separations", "1,2,3,4,5,6,7,8", "--noise-scales", "0.5",
                   "--threads", 2, "--out", out) == 1
    assert "cell 2 failed" in capsys.readouterr().err
    assert [row["separation"] for row in read_csv(out)] == ["1"]
    started = {name.split("-")[0] for name in os.listdir(log)}
    assert started == {"1.0", "2.0"}


def _modules_after_tiny_saturation(tmp_path):
    """sys.modules of a fresh process after a tiny saturation run through cli.main."""
    out = tmp_path / "sat.csv"
    argv = ["saturation", "--n", "8", "--trials", "1", "--nbar", "4", "--rounds", "2",
            "--out", str(out)]
    code = ("import json, sys\n"
            "from shotsvm import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
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
    assert list(rows[0].keys()) == VARIANCE_COLUMNS
    assert len(rows) == 3 * 4
    oracle = [r for r in rows if r["oracle"] == "true"]
    finite = [r for r in rows if r["oracle"] == "false"]
    assert len(oracle) == len(finite) == 6
    assert all(r["mc_se"] == "" and r["mc"] == "0" for r in oracle)
    assert all(float(r["mc_se"]) >= 0 and r["mc"] == "40" for r in finite)
    # the multinomial draw always jitters the optimal scheme
    assert all(float(r["mc_se"]) > 0 for r in finite if r["scheme"] == "optimal")
    at_zero = {r["scheme"]: float(r["variance"]) for r in oracle if r["t"] == "0"}
    assert at_zero["optimal"] == pytest.approx(at_zero["uniform"], rel=1e-12)


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
