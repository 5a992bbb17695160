"""The benchmark's workloads, the check of each run's output, and the counts a
traced run must reproduce.

Every workload is one shotsvm CLI command run as a fresh process. Its trial
count is sized so that one process takes two to four seconds on a 2-core
machine, which lets a run of the benchmark take the median of many.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

# The CLI default for --m0 (pilot shots per entry); the workloads leave it unset.
M0 = 2

STAGE_COLUMNS = [
    "experiment", "trial", "strategy", "round",
    "n", "nbar", "n_tot", "rounds", "m0", "lam", "epsilon", "c", "sigma_phys", "seed",
    "shots", "cumulative_shots", "shot_fraction", "rounds_executed", "stopped_early",
    "used_fallback", "delta",
    "rmse_k", "rmse_k_sv", "jaccard", "weighted_jaccard", "rel_margin_err", "decision_rmse",
    "delta_series",
]

REGIME_COLUMNS = [
    "experiment", "separation", "noise_scale", "margin_strength",
    "n", "nbar", "n_tot", "rounds", "m0", "lam", "epsilon", "c", "sigma_phys", "seed", "trials",
    "mean_gini", "mean_delta_rmse", "success_rate",
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int
    nbar: int
    rounds: int
    trials: int  # per cell for regime-map
    threads: int
    uniform: bool  # whether each trial also runs the uniform baseline
    epsilon: float = 0.0
    cells: int = 1  # the regime-map default grid is 4 x 4
    blob_flags: tuple[str, ...] = ("--separation", "5.0", "--noise-scale", "0.5")

    def argv(self, seed: int, out: str, threads: int | None = None) -> list[str]:
        args = [self.command, "--n", str(self.n), "--nbar", str(self.nbar),
                "--rounds", str(self.rounds)]
        if self.epsilon:
            args += ["--epsilon", repr(self.epsilon)]
        return args + [*self.blob_flags, "--threads", str(threads or self.threads),
                       "--trials", str(self.trials), "--seed", str(seed), "--out", out]

    @property
    def total_trials(self) -> int:
        return self.trials * self.cells

    @property
    def pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def n_tot(self) -> int:
        return self.nbar * self.pairs

    @property
    def columns(self) -> list[str]:
        return REGIME_COLUMNS if self.command == "regime-map" else STAGE_COLUMNS

    @property
    def expected_rows(self) -> int:
        if self.command == "regime-map":
            return self.cells
        return self.trials * (self.rounds + 1 + int(self.uniform))

    def adaptive_shots(self, rounds_executed: int) -> int:
        """Shots one adaptive run spends when it stops after ``rounds_executed``
        rounds: the pilot, then equal rounds, the last taking the remainder."""
        if rounds_executed == self.rounds:
            return self.n_tot
        pilot = M0 * self.pairs
        return pilot + rounds_executed * ((self.n_tot - pilot) // self.rounds)


WORKLOADS = {w.name: w for w in [
    Workload("saturation-n50", "saturation", n=50, nbar=50, rounds=50, trials=8,
             threads=1, uniform=False),
    Workload("fixed-budget-n400", "fixed-budget", n=400, nbar=50, rounds=5, trials=8,
             threads=1, uniform=True),
    Workload("regime-map-ragged", "regime-map", n=50, nbar=50, rounds=10, trials=10,
             threads=2, uniform=True, epsilon=0.2, cells=16, blob_flags=()),
]}


def _finite_numbers(cell: str) -> bool:
    """False if the cell, or an element of a bracketed list, is a non-finite float."""
    parts = cell[1:-1].split(",") if cell.startswith("[") else [cell]
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            continue  # text such as a strategy name, true/false, or an empty list
        if not math.isfinite(value):
            return False
    return True


def check_output(workload: Workload, path: str) -> tuple[int, list[str]]:
    """Check one run's CSV output; returns (data rows, problems found)."""
    try:
        with open(path, newline="") as handle:
            table = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error) as exc:
        return 0, [f"unreadable CSV: {exc}"]
    if not table or table[0] != workload.columns:
        return 0, ["unexpected column header"]
    header, rows = table[0], table[1:]
    problems = []
    if len(rows) != workload.expected_rows:
        problems.append(f"{len(rows)} rows, expected {workload.expected_rows}")
    col = {name: index for index, name in enumerate(header)}
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            problems.append(f"line {number}: {len(row)} fields")
            continue
        if not all(_finite_numbers(cell) for cell in row if cell):
            problems.append(f"line {number}: non-finite value")
        try:
            if "shot_fraction" in col and float(row[col["shot_fraction"]]) > 1.0:
                problems.append(f"line {number}: shot_fraction above 1")
            if "trials" in col and int(row[col["trials"]]) != workload.trials:
                problems.append(f"line {number}: trials != {workload.trials}")
        except ValueError:
            problems.append(f"line {number}: a count or fraction is not a number")
        final = "round" in col and row[col["round"]] == row[col["rounds_executed"]]
        if final and row[col["cumulative_shots"]] != row[col["n_tot"]]:
            problems.append(f"line {number}: final cumulative_shots != n_tot")
    return len(rows), problems


def expected_counts(workload: Workload, rounds_executed: list[int],
                    output_rows: int) -> dict[str, int]:
    """Exact per-layer counts implied by the workload argv.

    ``rounds_executed`` holds one entry per adaptive run as the driver reported
    it; every other layer's count must follow from it and the argv. Without
    early stopping every run must execute all rounds.
    """
    trials = workload.total_trials
    uniform = trials if workload.uniform else 0
    rounds = sum(rounds_executed)
    expected = {
        "driver.run_adaptive.calls": trials,
        "driver.run_uniform.calls": uniform,
        "datasets.make_blobs.calls": trials,
        "datasets.rbf_kernel.calls": trials,
        # clean reference + pilot + one per round, plus the uniform run
        "solver.train.calls": 2 * trials + uniform + rounds,
        # pilot + one per round, plus the uniform run
        "kernels.simulate_counts.calls": trials + uniform + rounds,
        # the pilot assembles twice: once to train, once for its metrics
        "kernels.assemble_estimate.calls": 2 * trials + uniform + rounds,
        "metrics.compute_bundle.calls": trials + uniform + rounds,
        "allocation.multinomial_draw.calls": rounds,
        "allocation.uniform_allocation.calls": uniform,
        "sensitivity.allocation_scores.calls": rounds,
        "sensitivity.decision_variance.calls": rounds,
        "sensitivity.margin_residuals.calls": rounds,
        "sensitivity.sv_transition_prob.calls": rounds,
        "kernels.shots_simulated": uniform * workload.n_tot
        + sum(workload.adaptive_shots(r) for r in rounds_executed),
        "cli.rows_written": output_rows,
        "experiments.map_trials.calls": workload.cells,
    }
    if workload.command != "regime-map":
        expected["experiments.stage_rows.calls"] = trials + uniform
        expected["cli.write_rows.calls"] = trials
    else:
        expected["cli.write_rows.calls"] = workload.cells
    if not workload.epsilon:
        expected["driver.rounds_executed"] = trials * workload.rounds
    return expected
