"""Synthetic two-cluster problems, the Gaussian kernel, structured weight
families for variance studies, and the kernel file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it on first use; load it at import, not in a trial

from .errors import Ranged, check_range
from .kernels import check_kernel
from .solver import check_labels

#: Largest pairwise-difference temporary rbf_kernel builds at once, in elements.
#: Not smaller: freeing the 2.56 MB block of a run at n = 400 raises glibc's
#: dynamic mmap and trim thresholds, so the trial's 0.64-1.28 MB arrays are
#: then reused from the heap. With 2**16 elements they were unmapped and
#: faulted in again on every round: an 8-trial fixed-budget run at n = 400
#: went from 16k to 80k minor faults and took about 18 % more CPU time.
_BLOCK_ELEMENTS = 1 << 21


#: Most points a kernel file or a command may have: its kernel is 32 MB at most.
MAX_POINTS = 2_000

#: The closed range of the heterogeneity sweep's interpolation point t.
T_RANGE = (0.0, 1.0)


@dataclass(frozen=True)
class BlobSpec(Ranged):
    """Two Gaussian clusters split evenly across the classes.

    The clusters sit at -+ separation/2 along the first axis; every axis has
    standard deviation noise_scale, with the first stretched by anisotropy.
    Each label flips independently with probability label_noise.

    ``RANGES`` holds each field's closed range, and ``n_points`` must also be
    even. rbf_kernel's default bandwidth makes the kernel depend on separation
    and noise_scale only through their ratio, so their ranges bound the ratio
    at 100 and still reach every ratio below it. The worst SMO solve measured
    took about 50 iterations per unit of ratio, a ratio of 1e5 exhausted the
    cap at n = 4, and from about 1e16 the clusters collapse to two points and
    the uniform baseline's decision error is often exactly zero. At an
    anisotropy of 100 the other axes hold 1e-4 of the variance; far past it,
    or past 1e150 in either distance, the squared distances overflow.
    """

    n_points: int
    separation: float
    noise_scale: float
    anisotropy: float = 1.0
    label_noise: float = 0.0
    dims: int = 2

    RANGES = {
        "n_points": (4, math.inf),
        "separation": (0.0, 10.0),
        "noise_scale": (0.1, 10.0),
        "anisotropy": (1.0, 100.0),
        "label_noise": (0.0, 0.5),
        "dims": (1, math.inf),
    }

    @classmethod
    def check(cls, name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for the field ``name``."""
        super().check(name, value)
        if name == "n_points" and value % 2:
            raise ValueError(f"n_points must be even, got {value}")


def make_blobs(spec: BlobSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample (points, labels) for a BlobSpec; bit-reproducible for a given seed."""
    rng = np.random.default_rng(seed)
    half = spec.n_points // 2
    stds = np.full(spec.dims, spec.noise_scale)
    stds[0] *= spec.anisotropy
    pts = rng.standard_normal((spec.n_points, spec.dims)) * stds
    pts[:half, 0] -= spec.separation / 2.0
    pts[half:, 0] += spec.separation / 2.0
    y = np.where(np.arange(spec.n_points) < half, -1.0, 1.0)
    if spec.label_noise > 0:
        flips = rng.random(spec.n_points) < spec.label_noise
        y = np.where(flips, -y, y)
    return pts, y


def margin_strength(spec: BlobSpec) -> float:
    """Separation in units of the isotropic cluster radius — the structure axis
    used by the regime map."""
    return spec.separation / (spec.noise_scale * np.sqrt(spec.dims))


def rbf_kernel(points: np.ndarray) -> np.ndarray:
    """exp(-gamma ||x_i - x_j||^2) with an exact unit diagonal.

    The bandwidth gamma = 1 / (dims * var(points)) is the usual median-free
    heuristic that keeps typical entries away from 0 and 1.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    v = float(np.var(pts))
    if v == 0.0:
        raise ValueError("degenerate point cloud: zero variance")
    gamma = 1.0 / (pts.shape[1] * v)
    # squared distances a block of rows at a time, so the rows x n x dims
    # temporary stays near _BLOCK_ELEMENTS; each entry is the same reduction
    n = len(pts)
    d2 = np.empty((n, n))
    step = max(1, _BLOCK_ELEMENTS // max(1, n * pts.shape[1]))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        np.sum((pts[rows, None, :] - pts[None, :, :]) ** 2, axis=-1, out=d2[rows])
    d2 *= -gamma
    k = np.exp(d2, out=d2)
    np.fill_diagonal(k, 1.0)
    return k


def interpolate_weights(base: np.ndarray, t: float) -> np.ndarray:
    """Mean-preserving slide from a flat profile (t=0) to the base profile (t=1).

    The population CV scales exactly linearly: CV(w(t)) = t * CV(base).
    """
    check_range("t", t, *T_RANGE)
    base = np.asarray(base, dtype=np.float64)
    if np.any(base < 0):
        raise ValueError("base weights must be nonnegative")
    return (1.0 - t) * base.mean() + t * base


def coefficient_of_variation(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=np.float64)
    mean = v.mean()
    if mean == 0.0:
        raise ValueError("CV undefined for zero-mean values")
    return float(v.std() / mean)


# ------------------------------------------------------------------ file formats


def save_kernel_file(path, kernel: np.ndarray, labels) -> None:
    """A leading #labels row, then n rows of comma-separated entries."""
    with open(path, "w", newline="") as fh:
        fh.write("#labels," + ",".join(repr(float(v)) for v in labels) + "\n")
        for row in kernel:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_kernel_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse and validate a kernel file; returns (n x n float64 kernel, labels).

    The #labels row, the first non-blank line, alone sets n (at most MAX_POINTS);
    rows are parsed into the kernel in one pass, and errors name the file's line
    and column, or both row counts. :func:`~shotsvm.kernels.check_kernel` rejects
    an invalid measurement kernel, naming its first six violations and counting
    the rest, and labels must pass the solver's label check.
    """
    with open(path) as fh:
        lines = ((li, ln.rstrip("\n")) for li, ln in enumerate(fh, start=1) if ln.strip())
        header = next(lines, (0, ""))[1].split(",")
        if header[0] != "#labels":
            raise ValueError("the first non-blank line must be the #labels row")
        try:
            labels = np.array([float(tok) for tok in header[1:]])
        except ValueError as exc:
            raise ValueError(f"bad labels row: {exc}") from None
        n = len(labels)
        if n > MAX_POINTS:
            raise ValueError(f"{n} labels, more than the {MAX_POINTS} points a kernel file may hold")
        out = np.empty((n, n))
        row = -1  # the last row read
        for row, (li, ln) in enumerate(lines):
            if row == n:
                raise ValueError(f"line {li}: more kernel rows than the {n} labels")
            toks = ln.split(",")
            if len(toks) != n:
                raise ValueError(f"line {li}: expected {n} columns, found {len(toks)}")
            try:
                # numpy converts each str as float() does
                out[row] = toks
            except ValueError:
                for ci, tok in enumerate(toks, start=1):
                    try:
                        float(tok)
                    except ValueError:
                        raise ValueError(f"line {li}, column {ci}: not a number: {tok!r}") from None
                raise
    if row + 1 != n:
        raise ValueError(f"{row + 1} kernel rows for {n} labels")
    labels = check_labels(labels)
    check_kernel(out)
    return out, labels
