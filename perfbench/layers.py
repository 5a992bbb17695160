"""Per-layer metrics from the spans of one traced CLI process.

A span's self time is its duration minus the time its direct child spans
cover. Calls are synchronous within a process, so children never overlap.
``<layer>.self_s`` sums the self time of every traced function of the layer,
so it is measured on every workload, including those that never call one of
its functions.
"""

from __future__ import annotations

import statistics

# (name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("solver.train.calls", "count", "lower"),
    ("solver.train.iterations", "count", "lower"),
    ("solver.train.iterations_max", "count", "lower"),
    ("solver.train.self_s", "s", "lower"),
    ("solver.train.us_per_iteration", "us", "lower"),
    ("solver.train.kkt_violation_max", "ratio", "lower"),
    ("kernels.simulate_counts.calls", "count", "lower"),
    ("kernels.simulate_counts.self_s", "s", "lower"),
    ("kernels.assemble_estimate.calls", "count", "lower"),
    ("kernels.assemble_estimate.self_s", "s", "lower"),
    ("kernels.shots_simulated", "count", "lower"),
    ("allocation.multinomial_draw.calls", "count", "lower"),
    ("allocation.multinomial_draw.self_s", "s", "lower"),
    ("allocation.self_s", "s", "lower"),
    ("sensitivity.allocation_scores.self_s", "s", "lower"),
    ("sensitivity.decision_variance.self_s", "s", "lower"),
    ("sensitivity.margin_residuals.self_s", "s", "lower"),
    ("sensitivity.sv_transition_prob.self_s", "s", "lower"),
    ("sensitivity.fallbacks", "count", "lower"),
    ("metrics.compute_bundle.calls", "count", "lower"),
    ("metrics.compute_bundle.self_s", "s", "lower"),
    ("datasets.make_blobs.self_s", "s", "lower"),
    ("datasets.rbf_kernel.self_s", "s", "lower"),
    ("driver.run_adaptive.self_s", "s", "lower"),
    ("driver.self_s", "s", "lower"),
    ("driver.rounds_executed", "count", "lower"),
    ("driver.rounds_executed_frac", "ratio", "lower"),
    ("driver.trial_ms_p50", "ms", "lower"),
    ("driver.trial_ms_p90", "ms", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.map_trials.calls", "count", "lower"),
    ("experiments.map_trials.wait_s", "s", "lower"),
    ("cli.write_rows.calls", "count", "lower"),
    ("cli.write_rows.self_s", "s", "lower"),
    ("cli.rows_written", "count", "higher"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# One call of a worker function is one trial.
TRIAL_SPANS = ("experiments.run_stage_trial", "experiments.run_regime_trial")


def self_times(spans: list[list]) -> dict[str, float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - covered[index])
    return totals


def _infos(spans: list[list], name: str) -> list:
    return [span[4] for span in spans if span[0] == name]


def counts(record: dict) -> dict:
    """Exact counts of one traced process: calls per layer function and the
    work the spans report."""
    spans = record["spans"]
    out = {f"{name}.calls": calls for name, calls in record["calls"].items()}
    solves = _infos(spans, "solver.train")
    out.update({
        "solver.train.iterations": sum(it for it, _ in solves),
        "solver.train.iterations_max": max((it for it, _ in solves), default=0),
        "kernels.shots_simulated": sum(_infos(spans, "kernels.simulate_counts")),
        "sensitivity.fallbacks": sum(_infos(spans, "sensitivity.allocation_scores")),
        "driver.rounds_executed": sum(rounds_executed(record)),
        "cli.rows_written": sum(_infos(spans, "cli.write_rows")),
    })
    return out


def rounds_executed(record: dict) -> list[int]:
    return _infos(record["spans"], "driver.run_adaptive")


def layer_metrics(workload, record: dict, pool_record: dict, bytes_written: int) -> dict:
    """Every per-layer metric except trace.overhead_frac.

    ``record`` is a traced run in which the trials ran in the traced process;
    ``pool_record`` is a traced run of the workload's own argv, whose parent
    process gives the experiments.map_trials numbers.
    """
    st = self_times(record["spans"])
    c = counts(record)
    solves = _infos(record["spans"], "solver.train")
    trial_ms = [(span[2] - span[1]) * 1e3 for span in record["spans"] if span[0] in TRIAL_SPANS]
    metrics = {
        "solver.train.us_per_iteration":
            st.get("solver.train", 0.0) / max(c["solver.train.iterations"], 1) * 1e6,
        "solver.train.kkt_violation_max": max((kkt for _, kkt in solves), default=0.0),
        "driver.rounds_executed_frac":
            c["driver.rounds_executed"] / (workload.total_trials * workload.rounds),
        "driver.trial_ms_p50": statistics.median(trial_ms),
        "driver.trial_ms_p90": statistics.quantiles(trial_ms, n=10, method="inclusive")[8],
        "experiments.map_trials.calls": pool_record["calls"].get("experiments.map_trials", 0),
        "experiments.map_trials.wait_s":
            self_times(pool_record["spans"]).get("experiments.map_trials", 0.0),
        "cli.bytes_written": bytes_written,
    }
    for name, _, _ in PER_LAYER:
        if name in metrics or name == "trace.overhead_frac":
            continue
        if name.endswith(".self_s"):
            prefix = name[:-len("self_s")]  # "solver.train." or "allocation."
            metrics[name] = sum(t for span, t in st.items() if (span + ".").startswith(prefix))
        else:
            metrics[name] = c.get(name, 0)
    return metrics


def count_mismatches(expected: dict, actual: dict) -> list[str]:
    return [f"{key}: traced {actual.get(key, 0)}, expected {value}"
            for key, value in expected.items() if actual.get(key, 0) != value]
