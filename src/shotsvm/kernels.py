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
:func:`pair_products` gives the pair vector of an outer product u_i v_j
without building the n x n product, a block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
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


#: Products pair_products computes at once; about 0.5 MB of float64.
_PRODUCT_BLOCK = 1 << 16


def pair_products(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i v_j for every pair (i < j) in the flat pair layout.

    Equal to ``condense(np.outer(u, v))`` bit for bit, but the n x n product
    is built a block of about _PRODUCT_BLOCK entries (whole rows) at a time.
    """
    u, v = np.ravel(u), np.ravel(v)
    n = len(u)
    upper = flat_pair_indices(n)[0]
    if n * n <= _PRODUCT_BLOCK:
        return np.multiply.outer(u, v).take(upper)
    out = np.empty(len(upper), dtype=np.result_type(u, v))
    step = max(1, _PRODUCT_BLOCK // n)
    for a in range(0, n - 1, step):
        b = min(a + step, n)
        # rows before row i hold i*n - i*(i+1)/2 pairs
        lo, hi = a * (2 * n - a - 1) // 2, b * (2 * n - b - 1) // 2
        out[lo:hi] = np.multiply.outer(u[a:b], v).take(upper[lo:hi] - a * n)
    return out


def expand(vec: np.ndarray, n: int, diag=0.0) -> np.ndarray:
    """Symmetric full matrix from a flat pair vector, with the given diagonal."""
    upper, lower = flat_pair_indices(n)
    out = np.empty(n * n)  # the pairs and the diagonal write every position
    out[upper] = vec
    out[lower] = vec
    out[::n + 1] = diag
    return out.reshape(n, n)


#: How far below zero the smallest eigenvalue of a valid kernel may dip.
PSD_TOL = 1e-8


@dataclass(frozen=True)
class Violation:
    kind: str  # "finite" | "symmetry" | "diagonal" | "range" | "psd"
    index: tuple | None
    detail: str


def validate_kernel(kernel: np.ndarray) -> list[Violation]:
    """Report (not reject) deviations from a bona fide measurement kernel.

    Entries must be finite; symmetry and the unit diagonal are exact
    requirements; entries must sit in [0, 1]; the smallest eigenvalue may dip
    to -PSD_TOL before it counts as a violation. A kernel with a non-finite
    entry gets no eigenvalue check. Estimated kernels routinely fail the PSD
    check — callers decide whether that matters.
    """
    k = np.asarray(kernel, dtype=np.float64)

    def entry(i, j) -> str:
        return f"K[{i},{j}]={float(k[i, j])!r}"

    out: list[Violation] = []
    finite = np.isfinite(k)
    for i, j in np.argwhere(~finite):
        out.append(Violation("finite", (int(i), int(j)), f"{entry(i, j)} is not finite"))
    for i, j in np.argwhere((k != k.T) & finite & finite.T):
        if i < j:
            out.append(Violation("symmetry", (int(i), int(j)), f"{entry(i, j)} != {entry(j, i)}"))
    for i in range(len(k)):
        if k[i, i] != 1.0:
            out.append(Violation("diagonal", (int(i), int(i)), f"{entry(i, i)} != 1"))
    for i, j in np.argwhere((k < 0.0) | (k > 1.0)):
        out.append(Violation("range", (int(i), int(j)), f"{entry(i, j)} outside [0,1]"))
    if not finite.all():
        return out
    # eigvalsh wants exact symmetry; symmetrize defensively for the check only
    lam_min = float(np.linalg.eigvalsh((k + k.T) / 2.0)[0])
    if lam_min < -PSD_TOL:
        out.append(Violation("psd", None, f"smallest eigenvalue {lam_min:.3e} < -{PSD_TOL:g}"))
    return out


# ---------------------------------------------------------------- shot simulation


def success_probabilities(kernel: np.ndarray, sigma_phys: float,
                          rng: np.random.Generator) -> np.ndarray:
    """One run's per-shot success probability for every entry (flat pair vector).

    The miscalibration offsets are one batched normal draw of scale
    ``sigma_phys``, made here and nowhere else; every shot of the run then
    uses the same probabilities, which is what makes distinct batches of the
    same entry covary by sigma_phys^2. A zero scale makes no draw.
    """
    if sigma_phys < 0:
        raise ValueError("sigma_phys must be nonnegative")
    probs = condense(kernel)  # a copy, so the kernel is left as it is
    probs += rng.standard_normal(len(probs)) * sigma_phys if sigma_phys else 0.0
    return np.clip(probs, 0.0, 1.0, out=probs)


def simulate_counts(probs: np.ndarray, counts: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Successes of one batch of shots per entry at the run's success probabilities."""
    counts = np.asarray(counts)
    if (counts < 0).any():
        raise ValueError("shot counts must be nonnegative")
    return rng.binomial(counts.astype(np.int64, copy=False), probs)


# ---------------------------------------------------------------- estimators


def smoothed_rates(successes: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Add-one smoothed success rates per entry; always strictly inside (0, 1)."""
    return (successes + 1.0) / (shots + 2.0)


def estimator_variance(k, n_shots, sigma_phys=0.0):
    """Variance of the N-shot entry estimator; broadcasts over array inputs.

    ``n_shots`` holds integer or float64 counts; integers divide as float64.
    """
    k = np.asarray(k, dtype=np.float64)
    n_shots = np.asarray(n_shots)  # no float copy of integer counts
    sigma_phys = np.asarray(sigma_phys, dtype=np.float64)
    if (n_shots <= 0).any():
        raise ValueError("n_shots must be positive")
    out = k * (1.0 - k) / n_shots
    # a zero scalar scale would add +0.0, which changes no bit for k in [0, 1]
    if sigma_phys.ndim or sigma_phys:
        out = out + (1.0 - 1.0 / n_shots) * sigma_phys**2
    return out if out.ndim else float(out)


def assemble_estimate(successes: np.ndarray, shots: np.ndarray, n: int) -> np.ndarray:
    """Full symmetric estimate from the running per-pair totals, with exact unit
    diagonal; raises if any entry is unmeasured."""
    missing = np.flatnonzero(shots == 0)
    if missing.size:
        iu, ju = pair_indices(n)
        raise IncompleteLedgerError([(int(iu[k]), int(ju[k])) for k in missing])
    return expand(successes / shots, n, diag=1.0)
