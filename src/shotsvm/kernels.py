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
known exactly (K_ii = 1) and is never measured or stored. One cached boolean
mask per n (:func:`upper_mask`) owns that layout: indexing a matrix with it
condenses. :func:`pair_blocks` cuts it into blocks of whole mask rows, and
whatever is built from pair values is built one block at a time:
:func:`pair_products` needs no n x n outer product, and :func:`expand` writes
each block through the mask rows and their transpose, so a matrix of ratios or
variances of the running totals needs no full pair vector of them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------- pair indexing


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=4)  # a run uses one or two n; 0.16 MB per entry at n = 400
def upper_mask(n: int) -> np.ndarray:
    """Boolean n x n mask of the strict upper triangle; its True positions in
    row-major order are the flat pair layout.

    Cached per n, so every caller gets the same array; it is read-only for
    that reason.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def condense(matrix: np.ndarray) -> np.ndarray:
    """Strict upper triangle of a square matrix as a flat vector."""
    matrix = np.asarray(matrix)
    return matrix[upper_mask(matrix.shape[0])]


#: Pairs a block of pair_blocks holds at most, about: its whole-row product
#: temporaries are then about 2**14 float64 (128 kB), which the heap reuses.
#: With 2**16 an 8-trial fixed-budget run at n = 400 peaked at 42.8 MB RSS,
#: against 41.7 MB with 2**14 or 2**13 (see datasets._BLOCK_ELEMENTS).
_PAIR_BLOCK = 1 << 14


def pair_blocks(n: int):
    """Yield (rows, mask, pairs) for consecutive blocks of about
    _PAIR_BLOCK // n whole rows: ``mask`` is ``upper_mask(n)[rows]`` and
    ``pairs`` slices the flat layout those rows own."""
    full = upper_mask(n)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    lo = 0
    for a in range(0, n, step):
        rows = slice(a, a + step)
        mask = full[rows]
        hi = lo + int(np.count_nonzero(mask))
        yield rows, mask, slice(lo, hi)
        lo = hi


def pair_products(u: np.ndarray) -> np.ndarray:
    """u_i u_j for every pair (i < j) in the flat pair layout.

    Equal to ``condense(np.outer(u, u))`` bit for bit, but the n x n product
    is built a block of pair_blocks at a time.
    """
    u = np.ravel(u)
    out = np.empty(num_pairs(len(u)), dtype=u.dtype)
    for rows, mask, pairs in pair_blocks(len(u)):
        out[pairs] = np.multiply.outer(u[rows], u)[mask]
    return out


def expand(pair_values, n: int, diag=0.0) -> np.ndarray:
    """Symmetric n x n matrix with the given diagonal, whose pairs in each
    block of pair_blocks(n) are ``pair_values(pairs)``; for a flat pair vector
    ``vec``, pass ``vec.__getitem__``."""
    out = np.empty((n, n))  # the pairs and the diagonal write every position
    for rows, mask, pairs in pair_blocks(n):
        values = pair_values(pairs)
        out[rows][mask] = values
        out.T[rows][mask] = values
    out.ravel()[::n + 1] = diag
    return out


#: How far below zero the smallest eigenvalue of a valid kernel may dip.
PSD_TOL = 1e-8


def check_kernel(kernel: np.ndarray) -> None:
    """Raise ValueError unless ``kernel`` is a bona fide measurement kernel:
    finite entries, exact symmetry and unit diagonal, entries in [0, 1] and, if
    every entry is finite, no eigenvalue below -PSD_TOL. The message names the
    first six offenders, kind by kind and row-major within a kind; the rest are
    only counted, by whole-array reductions."""
    k = np.asarray(kernel, dtype=np.float64)
    finite = np.isfinite(k)
    asymmetric = np.triu((k != k.T) & finite & finite.T, 1)
    checks = [("finite", ~finite, "{} is not finite"),
              ("symmetry", asymmetric, "{} != {}"),
              ("diagonal", np.diagflat(k.diagonal() != 1.0), "{} != 1"),
              ("range", (k < 0.0) | (k > 1.0), "{} outside [0,1]")]
    if finite.all():
        # eigvalsh wants exact symmetry: only an asymmetric k, already rejected,
        # is symmetrized (an inf sum gives a NaN floor). One floor: a 1 x 1 mask.
        with np.errstate(over="ignore"):
            lam = float(np.linalg.eigvalsh((k + k.T) / 2.0 if asymmetric.any() else k)[0])
        checks.append(("psd", np.array([[lam < -PSD_TOL]]),
                       f"smallest eigenvalue {lam:.3e} < -{PSD_TOL:g}"))
    details, total = [], 0
    for kind, mask, detail in checks:
        count, flat, at = int(np.count_nonzero(mask)), mask.ravel(), -1
        total += count
        for _ in range(min(count, 6 - len(details))):
            at += 1 + int(flat[at + 1:].argmax())  # the next offender, row-major
            i, j = divmod(at, mask.shape[1])
            details.append(f"{kind}: " + detail.format(f"K[{i},{j}]={float(k[i, j])!r}",
                                                       f"K[{j},{i}]={float(k[j, i])!r}"))
    if details:
        more = total - len(details)
        raise ValueError(f"invalid kernel: {'; '.join(details)}"
                         + (f" (+{more} more)" if more else ""))


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
    diagonal, written a block of pairs at a time; raises if any entry is
    unmeasured."""
    missing = np.flatnonzero(shots == 0)
    if missing.size:
        iu, ju = np.nonzero(upper_mask(n))
        shown = ", ".join(str((int(iu[k]), int(ju[k]))) for k in missing[:8])
        more = f" (+{missing.size - 8} more)" if missing.size > 8 else ""
        raise ValueError(f"no shots recorded for pairs: {shown}{more}")
    return expand(lambda pairs: successes[pairs] / shots[pairs], n, diag=1.0)
