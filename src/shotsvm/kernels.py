"""Kernel matrices estimated from finite batches of noisy Bernoulli measurements.

Each off-diagonal kernel entry K_ij in [0, 1] is observed only through repeated
binary trials: a single shot succeeds with probability K_ij shifted by a
per-trial miscalibration offset. Within one trial the offset is frozen, so shots
of the same entry are conditionally i.i.d. Bernoulli but correlated across
batches. Averaging S successes over N shots gives the entry estimator whose
variance decomposes as

    Var(Khat_ij) = K_ij (1 - K_ij) / N  +  (1 - 1/N) * sigma_phys^2

— a shot-noise term that dies off like 1/N and a floor set by the offset scale
sigma_phys that no shot budget can buy away. A run draws its offsets once, in
:func:`success_probabilities`, and passes the resulting per-entry success
probabilities to every :func:`simulate_counts` call it makes.

Storage convention: every per-pair quantity (shot counts, successes, offsets,
weights, scores) lives in a flat vector over the strict upper triangle in
row-major order, i.e. the ordering of ``np.triu_indices(n, 1)``. The diagonal is
known exactly (K_ii = 1) and is never measured or stored. Moving between that
vector and a full matrix goes through one cached pair of flat indices per n
(:func:`flat_pair_indices`): ``take`` on the raveled matrix condenses, and two
flat assignments plus the strided diagonal expand; the row and column indices
of :func:`pair_indices` are derived from them for the callers that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import IncompleteLedgerError

# ---------------------------------------------------------------- pair indexing


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=4)  # a run uses one or two n; 1.3 MB per entry at n = 400
def flat_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions ``i*n + j`` and ``j*n + i`` of every pair (i < j) in a
    row-major n x n matrix, in the flat pair layout.

    Cached per n, so every caller gets the same two arrays; they are
    read-only for that reason.
    """
    iu, ju = np.triu_indices(n, k=1)
    upper = iu * n + ju
    lower = ju * n + iu
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays aligned with the flat pair layout."""
    return np.divmod(flat_pair_indices(n)[0], n)


def condense(matrix: np.ndarray) -> np.ndarray:
    """Strict upper triangle of a square matrix as a flat vector."""
    matrix = np.asarray(matrix)
    return matrix.reshape(-1).take(flat_pair_indices(matrix.shape[0])[0])


def expand(vec: np.ndarray, n: int, diag=0.0) -> np.ndarray:
    """Symmetric full matrix from a flat pair vector, with the given diagonal."""
    upper, lower = flat_pair_indices(n)
    out = np.empty(n * n)  # the pairs and the diagonal write every position
    out[upper] = vec
    out[lower] = vec
    out[::n + 1] = diag
    return out.reshape(n, n)


# ---------------------------------------------------------------- kernel container


@dataclass
class KernelMatrix:
    """Square symmetric kernel; estimated instances may violate PSD and range."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError(f"kernel must be square, got shape {self.entries.shape}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def condensed(self) -> np.ndarray:
        return condense(self.entries)


#: How far below zero the smallest eigenvalue of a valid kernel may dip.
PSD_TOL = 1e-8


@dataclass(frozen=True)
class Violation:
    kind: str  # "symmetry" | "diagonal" | "range" | "psd"
    index: tuple | None
    detail: str


def validate_kernel(kernel: KernelMatrix) -> list[Violation]:
    """Report (not reject) deviations from a bona fide measurement kernel.

    Symmetry and the unit diagonal are exact requirements; entries must sit in
    [0, 1]; the smallest eigenvalue may dip to -PSD_TOL before it counts as a
    violation. Estimated kernels routinely fail the PSD check — callers decide
    whether that matters.
    """
    k = kernel.entries
    out: list[Violation] = []
    asym = np.argwhere(k != k.T)
    for i, j in asym:
        if i < j:
            out.append(Violation("symmetry", (int(i), int(j)),
                                 f"K[{i},{j}]={k[i, j]!r} != K[{j},{i}]={k[j, i]!r}"))
    for i in range(kernel.n):
        if k[i, i] != 1.0:
            out.append(Violation("diagonal", (int(i), int(i)), f"K[{i},{i}]={k[i, i]!r} != 1"))
    bad = np.argwhere((k < 0.0) | (k > 1.0))
    for i, j in bad:
        out.append(Violation("range", (int(i), int(j)), f"K[{i},{j}]={k[i, j]!r} outside [0,1]"))
    # eigvalsh wants exact symmetry; symmetrize defensively for the check only
    lam_min = float(np.linalg.eigvalsh((k + k.T) / 2.0)[0])
    if lam_min < -PSD_TOL:
        out.append(Violation("psd", None, f"smallest eigenvalue {lam_min:.3e} < -{PSD_TOL:g}"))
    return out


# ---------------------------------------------------------------- shot simulation


def success_probabilities(kernel: KernelMatrix, sigma_phys: float,
                          rng: np.random.Generator) -> np.ndarray:
    """One run's per-shot success probability for every entry (flat pair vector).

    The miscalibration offsets are one batched normal draw of scale
    ``sigma_phys``, made here and nowhere else; every shot of the run then
    uses the same probabilities, which is what makes distinct batches of the
    same entry covary by sigma_phys^2. A zero scale makes no draw.
    """
    if sigma_phys < 0:
        raise ValueError("sigma_phys must be nonnegative")
    condensed = kernel.condensed()
    offsets = rng.standard_normal(len(condensed)) * sigma_phys if sigma_phys else 0.0
    return np.clip(condensed + offsets, 0.0, 1.0)


def simulate_counts(probs: np.ndarray, counts: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Successes of one batch of shots per entry at the run's success probabilities."""
    counts = np.asarray(counts)
    if (counts < 0).any():
        raise ValueError("shot counts must be nonnegative")
    return rng.binomial(counts.astype(np.int64, copy=False), probs)


# ---------------------------------------------------------------- ledger


@dataclass
class MeasurementLedger:
    """Running (successes, shots) totals per upper-triangle entry."""

    n: int
    successes: np.ndarray = field(repr=False)
    shots: np.ndarray = field(repr=False)

    @classmethod
    def empty(cls, n: int) -> "MeasurementLedger":
        m = num_pairs(n)
        return cls(n=n, successes=np.zeros(m, dtype=np.int64), shots=np.zeros(m, dtype=np.int64))

    def record(self, shots: np.ndarray, successes: np.ndarray) -> None:
        shots = np.asarray(shots, dtype=np.int64)
        successes = np.asarray(successes, dtype=np.int64)
        if (shots < 0).any() or (successes < 0).any():
            raise ValueError("negative counts")
        if (successes > shots).any():
            raise ValueError("successes exceed shots")
        self.shots += shots
        self.successes += successes

    def smoothed(self) -> np.ndarray:
        """Add-one smoothed rates for every entry; always strictly inside (0, 1)."""
        return (self.successes + 1.0) / (self.shots + 2.0)


def estimator_variance(k, n_shots, sigma_phys=0.0):
    """Variance of the N-shot entry estimator; broadcasts over array inputs."""
    k = np.asarray(k, dtype=np.float64)
    n_shots = np.asarray(n_shots, dtype=np.float64)
    sigma_phys = np.asarray(sigma_phys, dtype=np.float64)
    if (n_shots <= 0).any():
        raise ValueError("n_shots must be positive")
    out = k * (1.0 - k) / n_shots + (1.0 - 1.0 / n_shots) * sigma_phys**2
    return out if out.ndim else float(out)


def assemble_estimate(ledger: MeasurementLedger) -> KernelMatrix:
    """Full symmetric estimate with exact unit diagonal; raises if any entry is unmeasured."""
    missing = np.flatnonzero(ledger.shots == 0)
    if missing.size:
        iu, ju = pair_indices(ledger.n)
        raise IncompleteLedgerError([(int(iu[k]), int(ju[k])) for k in missing])
    vec = ledger.successes / ledger.shots
    return KernelMatrix(expand(vec, ledger.n, diag=1.0))
