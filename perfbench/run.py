"""shotsvm benchmark: run one workload for a fixed time, check its output, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload saturation-n50 --seed 7 --seconds 40 --trace 0

Each run of the workload is a fresh `shotsvm` CLI process (through launch.py,
with PYTHONPATH set to the checkout's src/), repeated until --seconds are used;
the end-to-end metrics are medians over those processes. Process k passes the
CLI `--seed SEED + 1000 k`, so a run samples many trials, not the same few
again; the first seed is run once more at the end, and its two outputs must be
identical. With --trace 1 each seed is run untraced and traced, and the
per-layer metrics come from the traced processes (see DESIGN.md).

The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. A JSON result file with the machine fingerprint and every
process's numbers is written to perfbench/out/; the processes' own files are
kept beside it only when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, UNITS, count_mismatches, counts, layer_metrics, rounds_executed
from workloads import WORKLOADS, Workload, check_output, expected_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 150.0  # any CLI process still running by then is killed
SEED_STRIDE = 1000

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("trials_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]

PREFLIGHT = """
import json, platform, numpy, scipy, shotsvm.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"shotsvm_file": shotsvm.cli.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


@dataclass
class Rep:
    """One CLI process."""

    mode: str  # "plain" or "trace"
    threads: int
    seed: int
    code: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    sha256: str | None = None
    rows: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    record: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        keys = ("mode", "threads", "seed", "code", "wall_s", "setup_s", "cpu_s", "peak_rss_mb",
                "sha256", "rows", "bytes_written", "problems")
        return {key: getattr(self, key) for key in keys}


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread per process: regime-map's two workers must not oversubscribe the cores.
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(env: dict) -> dict:
    """Versions and machine state; exits with code 2 if the checkout has no shotsvm."""
    load = os.getloadavg()
    done = subprocess.run([sys.executable, "-c", PREFLIGHT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        sys.exit(f"error: cannot import shotsvm from {ROOT / 'src'}:\n{done.stderr.strip()}")
    info = json.loads(done.stdout)
    if not Path(info.pop("shotsvm_file")).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: shotsvm was imported from outside {ROOT / 'src'}")
    info.update(nproc=len(os.sched_getaffinity(0)), cpu_model=cpu_model(),
                loadavg_at_start=list(load))
    return info


def run_cli(workload: Workload, seed: int, mode: str, threads: int, env: dict,
            kill_at: float, work_dir: Path) -> Rep:
    tag = f"{mode}-t{threads}"
    out, record_path = work_dir / f"{tag}.csv", work_dir / f"{tag}.record.json"
    for path in (out, record_path):
        path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "launch.py"), str(record_path), mode,
               *workload.argv(seed, str(out), threads)]
    with open(work_dir / f"{tag}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        # The CLI's pool workers share its process group, so one kill stops them all.
        timer = threading.Timer(max(kill_at - start, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # usage covers the reaped workers too
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    cmd_start = record.get("cmd_start")
    rep = Rep(mode=mode, threads=threads, seed=seed, code=proc.returncode, wall_s=wall,
              setup_s=None if cmd_start is None else cmd_start - start,
              cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0,
              record=record if mode == "trace" else None)
    if rep.code != 0:
        rep.problems.append(f"exit code {rep.code}")
    if rep.setup_s is None:
        rep.problems.append("the subcommand never started")
    if out.exists():
        data = out.read_bytes()
        rep.sha256, rep.bytes_written = hashlib.sha256(data).hexdigest(), len(data)
        rep.rows, problems = check_output(workload, str(out))
        rep.problems += problems
    else:
        rep.problems.append("no output file")
    return rep


def check_hashes(reps: list[Rep]) -> None:
    """Processes given the same seed must write identical output, traced or not,
    whatever their --threads."""
    first: dict[int, str] = {}
    for rep in reps:
        if rep.sha256 and first.setdefault(rep.seed, rep.sha256) != rep.sha256:
            rep.problems.append(f"output for --seed {rep.seed} differs from its first run")


def end_to_end(workload: Workload, reps: list[Rep]) -> dict:
    samples = {
        "wall_s": [rep.wall_s for rep in reps],
        "setup_s": [rep.setup_s for rep in reps],
        "trials_per_s": [workload.total_trials / (rep.wall_s - rep.setup_s) for rep in reps],
        "cpu_s": [rep.cpu_s for rep in reps],
        "peak_rss_mb": [rep.peak_rss_mb for rep in reps],
    }
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(workload: Workload, cycles: list[list[Rep]]) -> tuple[dict, list[str]]:
    """Medians over cycles of the per-layer metrics, and any count mismatches.

    A cycle is [untraced, traced] runs of the workload argv with one seed, plus
    a traced --threads 1 run when the workload uses a pool, since pool workers
    record nothing.
    """
    per_cycle, mismatches = [], []
    for cycle in cycles:
        pooled, inline = cycle[1], cycle[-1]
        expected = expected_counts(workload, rounds_executed(inline.record), inline.rows)
        mismatches += count_mismatches(expected, counts(inline.record))
        if pooled is not inline:
            keys = ("experiments.map_trials.calls", "cli.write_rows.calls", "cli.rows_written")
            mismatches += count_mismatches({k: expected[k] for k in keys}, counts(pooled.record))
        per_cycle.append(layer_metrics(workload, inline.record, pooled.record,
                                       inline.bytes_written))
    metrics = {name: statistics.median(m[name] for m in per_cycle)
               for name in per_cycle[0]}
    metrics["trace.overhead_frac"] = (statistics.median(c[1].wall_s for c in cycles)
                                      / statistics.median(c[0].wall_s for c in cycles) - 1.0)
    return ({name: {"value": metrics[name], "unit": UNITS[name]} for name, _, _ in PER_LAYER},
            sorted(set(mismatches)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="nonnegative, as the CLI requires")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    env = child_env()
    machine = fingerprint(env)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    # Outputs, logs and span records of the run's processes; kept only if a check fails.
    work_dir = OUT / stem
    work_dir.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    kill_at = start + RUN_LIMIT_S
    cycle_modes = [("plain", workload.threads)]
    if args.trace:
        cycle_modes.append(("trace", workload.threads))
        if workload.threads > 1:
            cycle_modes.append(("trace", 1))
    # Untraced runs end with a repeat of the first seed, so leave room for it.
    reserve = 1 if args.trace else 2
    cycles: list[list[Rep]] = []
    while True:
        seed = args.seed + SEED_STRIDE * len(cycles)
        cycles.append([run_cli(workload, seed, mode, threads, env, kill_at, work_dir)
                       for mode, threads in cycle_modes])
        elapsed = time.monotonic() - start
        if elapsed * (len(cycles) + reserve) / len(cycles) > args.seconds:
            break
    if not args.trace:
        cycles.append([run_cli(workload, args.seed, "plain", workload.threads, env, kill_at,
                               work_dir)])
    reps = [rep for cycle in cycles for rep in cycle]
    check_hashes(reps)
    good = [cycle for cycle in cycles if all(rep.ok for rep in cycle)]
    failed = sum(not rep.ok for rep in reps)
    problems = sorted({problem for rep in reps for problem in rep.problems})

    metrics, mismatches = None, []
    if good and args.trace:
        metrics, mismatches = per_layer(workload, good)
    elif good:
        metrics = end_to_end(workload, [cycle[0] for cycle in good])
    correct = not problems and not mismatches
    if correct:
        shutil.rmtree(work_dir)
    result_path = OUT / f"{stem}.json"
    result_path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": workload.argv(args.seed, "OUT"),
        "fingerprint": machine, "problems": problems, "count_mismatches": mismatches,
        "runs": [rep.summary() for rep in reps],
        "metrics": metrics,
    }, indent=1) + "\n")
    for problem in problems + mismatches:
        print(f"check failed: {problem}", file=sys.stderr)
    if not good:
        print(f"error: no run of {workload.name} passed its checks; see {result_path}",
              file=sys.stderr)
        return 1

    print(f"{workload.name} seed {args.seed}: {len(reps)} processes of "
          f"`shotsvm {' '.join(workload.argv(args.seed, 'OUT'))}`, --seed varied, {failed} failed")
    print(f"  python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}, "
          f"{machine['blas']}, {machine['nproc']} cpus ({machine['cpu_model']}), "
          f"load {machine['loadavg_at_start'][0]:.2f}")
    print(f"  output sha256 {reps[0].sha256} (--seed {args.seed})")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':40s} {failed / len(reps):.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
