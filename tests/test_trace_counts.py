"""The benchmark's traced runs: a traced CLI process must make exactly the
layer calls that perfbench/workloads.py derives from its argv, so a refactor
cannot silently break ``perfbench/run.py --trace 1``."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shotsvm import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import layers  # noqa: E402
import workloads  # noqa: E402

TINY = [
    workloads.Workload("fixed-budget-tiny", "fixed-budget", n=12, nbar=8, rounds=2, trials=2,
                       threads=1, uniform=True),
    workloads.Workload("regime-map-tiny", "regime-map", n=12, nbar=8, rounds=3, trials=2,
                       threads=1, uniform=True, epsilon=0.2, cells=16, blob_flags=()),
    workloads.Workload("saturation-tiny", "saturation", n=12, nbar=8, rounds=4, trials=2,
                       threads=1, uniform=False),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_counts_match_expected(tmp_path, workload):
    out, record_path = tmp_path / "out.csv", tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(record_path), "trace",
         *workload.argv(17, str(out))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows, problems = workloads.check_output(workload, str(out))
    assert problems == []
    record = json.loads(record_path.read_text())
    expected = workloads.expected_counts(workload, layers.rounds_executed(record), rows)
    actual = layers.counts(record)
    assert {key: actual.get(key, 0) for key in expected} == expected


def test_every_subcommand_starts_through_a_cmd_global(monkeypatch):
    """perfbench/launch.py marks a run's start by wrapping the ``cli.cmd_*``
    globals before ``build_parser`` reads them; a subcommand bound to anything
    else would never be marked, and run.py would count its runs as incorrect."""
    sentinels = {name: object() for name in vars(cli) if name.startswith("cmd_")}
    for name, sentinel in sentinels.items():
        monkeypatch.setattr(cli, name, sentinel)
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert len(commands.choices) == len(sentinels) == 7
    for command, sub in commands.choices.items():
        assert any(sub.get_default("func") is s for s in sentinels.values()), command
