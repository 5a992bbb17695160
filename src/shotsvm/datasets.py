"""Synthetic two-cluster problems, the Gaussian kernel, structured weight
families for variance studies, and the kernel file format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it on first use; load it at import, not in a trial

from .kernels import KernelMatrix, validate_kernel
from .solver import check_labels


@dataclass(frozen=True)
class BlobSpec:
    """Two Gaussian clusters split evenly across the classes.

    The clusters sit at -+ separation/2 along the first axis; every axis has
    standard deviation noise_scale, with the first stretched by anisotropy.
    Each label flips independently with probability label_noise.
    """

    n_points: int
    separation: float
    noise_scale: float
    anisotropy: float = 1.0
    label_noise: float = 0.0
    dims: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 4 or self.n_points % 2:
            raise ValueError("n_points must be even and at least 4")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        if self.anisotropy < 1.0:
            raise ValueError("anisotropy is a stretch ratio >= 1")
        if not 0.0 <= self.label_noise <= 0.5:
            raise ValueError("label_noise must be in [0, 0.5]")
        if self.dims < 1:
            raise ValueError("dims must be at least 1")


def make_blobs(spec: BlobSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample (points, labels) for a BlobSpec; bit-reproducible for a given seed."""
    rng = np.random.default_rng(spec.seed)
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


def rbf_kernel(points: np.ndarray, gamma: float | None = None) -> KernelMatrix:
    """exp(-gamma ||x_i - x_j||^2) with an exact unit diagonal.

    Default bandwidth gamma = 1 / (dims * var(points)), the usual
    median-free heuristic that keeps typical entries away from 0 and 1.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if gamma is None:
        v = float(np.var(pts))
        if v == 0.0:
            raise ValueError("degenerate point cloud: zero variance")
        gamma = 1.0 / (pts.shape[1] * v)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    k = np.exp(-gamma * d2)
    np.fill_diagonal(k, 1.0)
    return KernelMatrix(k)


def interpolate_weights(base: np.ndarray, t: float) -> np.ndarray:
    """Mean-preserving slide from a flat profile (t=0) to the base profile (t=1).

    The population CV scales exactly linearly: CV(w(t)) = t * CV(base).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must be in [0, 1]")
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


def save_kernel_file(path, kernel: KernelMatrix, labels=None) -> None:
    """n rows of comma-separated entries; labels, if any, on a leading #labels row."""
    with open(path, "w", newline="") as fh:
        if labels is not None:
            fh.write("#labels," + ",".join(repr(float(v)) for v in labels) + "\n")
        for row in kernel.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_kernel_file(path):
    """Parse and validate a kernel file; returns (KernelMatrix, labels-or-None).

    Parse failures name the offending line and column; a parsed matrix that is
    not a valid measurement kernel (symmetry, diagonal, range, eigenvalue floor)
    is rejected with the full violation list, and labels must pass the solver's
    label check.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    labels = None
    if lines and lines[0].startswith("#labels"):
        try:
            labels = np.array([float(tok) for tok in lines[0].split(",")[1:]])
        except ValueError as exc:
            raise ValueError(f"bad labels row: {exc}") from None
        lines = lines[1:]
    if not lines:
        raise ValueError("empty kernel file")
    n = len(lines)
    out = np.empty((n, n))
    for li, ln in enumerate(lines, start=1 if labels is None else 2):
        toks = ln.split(",")
        row = li - (0 if labels is None else 1) - 1
        if len(toks) != n:
            raise ValueError(f"line {li}: expected {n} columns, found {len(toks)}")
        for ci, tok in enumerate(toks, start=1):
            try:
                out[row, ci - 1] = float(tok)
            except ValueError:
                raise ValueError(f"line {li}, column {ci}: not a number: {tok!r}") from None
    if labels is not None:
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for an n={n} kernel")
        labels = check_labels(labels)
    kernel = KernelMatrix(out)
    bad = validate_kernel(kernel)
    if bad:
        detail = "; ".join(f"{v.kind}: {v.detail}" for v in bad[:6])
        more = "" if len(bad) <= 6 else f" (+{len(bad) - 6} more)"
        raise ValueError(f"invalid kernel: {detail}{more}")
    return kernel, labels
