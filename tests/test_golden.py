"""Output bytes pinned by SHA-256.

The c12 command set runs once in-process (``--threads 1``), plus
``fixed-budget`` and ``theory-variance`` in JSON lines, which between them
write nulls, strings, bools and lists, and six more runs: fixed-budget with
persistent offsets, fixed-budget with the blob shape flags, load-kernel over
an ``--nbar-list`` with offsets, a 20-round saturation run at n = 50, whose
draws weigh 2,000 Gaussian tails, and one-trial fixed-budget runs at n = 400
and n = 1,000, whose pair vectors span several blocks of pairs. Each output's
digest, and the digest of the run's stdout under ``<name>.stdout``, must equal
the one recorded in ``tests/golden/sha256.json``. A change that alters
output bits on purpose re-blesses the file in the same change:

    PYTHONPATH=src python tests/test_golden.py

which prints each key whose digest changes, old -> new, and the number kept,
then writes the new digests.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from shotsvm import cli
from shotsvm.datasets import BlobSpec, make_blobs, rbf_kernel, save_kernel_file

GOLDEN = Path(__file__).parent / "golden" / "sha256.json"


def golden_runs(kernel_path) -> dict[str, list]:
    """Output file name -> CLI argv (without --threads and --out)."""
    runs = {
        "fixed-budget.csv": ["fixed-budget", "--n", 12, "--trials", 3, "--nbar", 8,
                             "--rounds", 2, "--seed", 7],
        "saturation.csv": ["saturation", "--n", 12, "--trials", 2, "--nbar", 8,
                           "--rounds", 3, "--seed", 7],
        "stopping-sweep.csv": ["stopping-sweep", "--n", 12, "--trials", 3, "--nbar", 8,
                               "--rounds", 2, "--epsilons", "0.05,0.5", "--seed", 7],
        "regime-map.csv": ["regime-map", "--n", 12, "--trials", 2, "--nbar", 8,
                           "--rounds", 2, "--separations", "1.0,4.0",
                           "--noise-scales", "0.5", "--seed", 7],
        "theory-variance.csv": ["theory-variance", "--n", 12, "--nbar", 8,
                                "--separation", 4.0, "--t-grid", "0,0.5,1",
                                "--mc", 30, "--seed", 7],
        "cost-model.csv": ["cost-model", "--configs", "0.16:6", "--n-range", "10:14"],
        "load-kernel.csv": ["load-kernel", "--kernel", kernel_path, "--trials", 2,
                            "--nbar", 8, "--rounds", 2, "--seed", 7],
    }
    for name in ("fixed-budget", "theory-variance"):
        runs[f"{name}.jsonl"] = runs[f"{name}.csv"] + ["--format", "jsonl"]
    # persistent offsets, the blob shape flags and a multi-budget kernel run
    runs["fixed-budget-sigma.csv"] = runs["fixed-budget.csv"] + ["--sigma-phys", 0.03]
    runs["fixed-budget-shape.csv"] = runs["fixed-budget.csv"] + [
        "--anisotropy", 1.5, "--dims", 3, "--label-noise", 0.1]
    runs["load-kernel-nbar-list.csv"] = ["load-kernel", "--kernel", kernel_path, "--trials", 2,
                                         "--nbar-list", "6,10", "--rounds", 2, "--seed", 7,
                                         "--sigma-phys", 0.03]
    # n = 50 over 20 rounds: 2,000 Gaussian-tail evaluations feed the draws
    runs["saturation-n50.csv"] = ["saturation", "--n", 50, "--trials", 2, "--nbar", 50,
                                  "--rounds", 20, "--separation", 5.0, "--noise-scale", 0.5,
                                  "--seed", 7]
    # n = 400 and n = 1,000: the only runs whose pair vectors span several blocks
    runs["fixed-budget-n400.csv"] = ["fixed-budget", "--n", 400, "--trials", 1, "--nbar", 4,
                                     "--rounds", 2, "--seed", 7]
    runs["fixed-budget-n1000.csv"] = ["fixed-budget", "--n", 1000, "--trials", 1, "--nbar", 2,
                                      "--rounds", 1, "--seed", 7]
    return runs


def output_hashes(workdir: Path) -> dict[str, str]:
    kernel_path = workdir / "kernel.csv"
    x, y = make_blobs(BlobSpec(n_points=12, separation=4.0, noise_scale=0.5), 3)
    save_kernel_file(kernel_path, rbf_kernel(x), y)
    hashes = {}
    for name, argv in golden_runs(kernel_path).items():
        out, stdout = workdir / name, io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([str(a) for a in argv] + ["--threads", "1", "--out", str(out)]) == 0
        hashes[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        hashes[f"{name}.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return hashes


def test_outputs_match_golden_hashes(tmp_path):
    assert output_hashes(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        blessed = output_hashes(Path(tmp))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in sorted(old.keys() | blessed.keys()):
        if old.get(name) != blessed.get(name):
            print(f"{name}: {old.get(name, '-')} -> {blessed.get(name, '-')}", file=sys.stderr)
    kept = sum(old.get(name) == digest for name, digest in blessed.items())
    print(f"{kept} of {len(blessed)} digests kept", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(blessed, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(blessed)} hashes to {GOLDEN}", file=sys.stderr)
