"""How the trained margin and decisions respond to kernel-entry error, and the
per-entry scores that steer the next round of measurement.

The squared margin ||w||^2 = sum_ij alpha_i alpha_j y_i y_j K_ij is locally
linear in each entry while the dual coefficients stay put, so the influence of
entry (i, j) is just alpha_i alpha_j y_i y_j. Points near the margin get an
uncertainty treatment: the decision value f_i inherits variance from every
estimated entry in its row, and the probability the point sits on the wrong
side of its margin condition is a Gaussian tail of the margin residual.

Shot scores mix the two signals — exploitation of proven influence and
exploration of potential support flips — then damp entries whose Bernoulli
rate is already pinned near 0 or 1, where extra shots buy little variance.

The Gaussian tail is computed in-house (:func:`_ndtr`) so that importing the
package does not import SciPy, whose ``ndtr`` it reproduces bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KernelMatrix, MeasurementLedger, condense, expand
from .solver import SvmModel, decision_values


def margin_gradient(model: SvmModel) -> np.ndarray:
    """Influence alpha_i alpha_j y_i y_j of each upper-triangle entry on ||w||^2."""
    beta = model.beta
    return condense(np.outer(beta, beta))


def margin_residuals(model: SvmModel, kernel: KernelMatrix) -> np.ndarray:
    """delta_i = y_i f_i - 1; zero on the margin, negative on the wrong side of it."""
    return model.labels * decision_values(model, kernel) - 1.0


def decision_variance(model: SvmModel, entry_variances: np.ndarray) -> np.ndarray:
    """Var(f_i) from per-entry estimator variances (flat pair vector).

    The diagonal is exact and contributes nothing; each off-diagonal entry
    (i, j) feeds row i with weight (alpha_j y_j)^2 = alpha_j^2.
    """
    n = len(model.alpha)
    v = expand(np.asarray(entry_variances, dtype=np.float64), n, diag=0.0)
    return v @ (model.alpha**2)


# Cephes ndtr/erf/erfc (S. L. Moshier), as SciPy ships it: coefficients
# highest power first; the monic denominators carry their leading 1.0.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX); erfc(z) is 0 once z*z exceeds it
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner_table() -> np.ndarray:
    """(9 steps, numerator/denominator, 3 ranges): T/U, P/Q, R/S, zero-padded in front.

    A leading zero leaves Horner's rule exact on a finite argument (0*x + 0 is
    0, and 0 + c is c), so each padded polynomial rounds exactly like the
    unpadded one and all three ranges run through the same nine steps.
    """
    def pad(coefficients):
        return (0.0,) * (9 - len(coefficients)) + coefficients

    table = [[pad(_ERF_T), pad(_ERFC_P), pad(_ERFC_R)],
             [pad(_ERF_U), pad(_ERFC_Q), pad(_ERFC_S)]]
    return np.array(table).transpose(2, 0, 1).copy()


_HORNER = _horner_table()
_RANGE_STARTS = np.array([1.0, 8.0])


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, bit for bit Cephes ``ndtr`` (``scipy.special.ndtr``).

    With x = a/sqrt(2) and z = |x|: for z < 1/sqrt(2), 1/2 + erf(x)/2 with
    erf(x) = x T(x^2)/U(x^2); otherwise erfc(z)/2, reflected to 1 - erfc(z)/2
    for x > 0, where erfc(z) is 1 - z T(z^2)/U(z^2) for z < 1,
    exp(-z^2) P(z)/Q(z) for z < 8, exp(-z^2) R(z)/S(z) beyond, and 0 once
    z^2 > MAXLOG. Every operation is the one Cephes performs in its order; the
    exponential is ``math.exp``, the C library ``exp`` that Cephes calls, since
    ``np.exp`` rounds differently on some inputs. z is capped at 27 (past the
    underflow cut-off at 26.64) so nothing overflows; NaN stays NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    x = a.ravel() * _SQRT1_2
    z = np.minimum(np.abs(x), 27.0)
    zz = z * z
    small = z < 1.0
    central = z < _SQRT1_2
    # range 0 (z < 1): erf polynomials in z^2; 1 (z < 8) and 2: erfc polynomials in z
    coef = _HORNER.take(_RANGE_STARTS.searchsorted(z, side="right"), axis=2)
    arg = np.where(small, zz, z)
    poly = coef[0] * arg
    for c in coef[1:-1]:
        poly += c
        poly *= arg
    poly += coef[-1]
    scale = np.where(small, z, 0.0)
    scale[central] = x[central]
    tail = ~(small | (zz > _MAXLOG))
    scale[tail] = [math.exp(-v) for v in zz[tail].tolist()]
    ratio = scale * poly[0] / poly[1]
    half = 0.5 * np.where(small, 1.0 - ratio, ratio)
    p = np.where(x > 0, 1.0 - half, half)
    p = np.where(central, 0.5 + 0.5 * ratio, p)
    return p.reshape(a.shape)


def sv_transition_prob(delta, sigma_f):
    """P(margin condition flips) = Phi(-delta / sigma_f), elementwise.

    With sigma_f = 0 the Gaussian collapses to the indicator of delta <= 0.
    """
    delta = np.asarray(delta, dtype=np.float64)
    sigma = np.asarray(sigma_f, dtype=np.float64)
    if (sigma < 0).any():
        raise ValueError("sigma_f must be nonnegative")
    safe = np.where(sigma > 0, sigma, 1.0)
    p = np.where(sigma > 0, _ndtr(-delta / safe), (delta <= 0).astype(np.float64))
    return p if p.ndim else float(p)


def allocation_scores(model: SvmModel, ledger: MeasurementLedger,
                      transition_probs: np.ndarray, lam: float):
    """Per-entry shot scores; returns (scores, used_fallback).

    score_ij = [(1-lam) |alpha_i alpha_j y_i y_j| + lam P_i P_j C^2] * sqrt(p(1-p))

    with p the smoothed ledger rate. If every score vanishes (e.g. lam = 1 and
    no point is near its margin) the caller gets uniform scores and a flag.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0,1], got {lam}")
    p_t = np.asarray(transition_probs, dtype=np.float64)
    exploit = np.abs(margin_gradient(model))
    explore = condense(np.outer(p_t, p_t)) * model.c**2
    s = (1.0 - lam) * exploit + lam * explore
    rate = ledger.smoothed()
    scores = s * np.sqrt(rate * (1.0 - rate))
    if not (scores > 0.0).any():
        return np.ones_like(scores), True
    return scores, False
