"""Dual SVM solver: analytic two-point cases, KKT conditions, bitwise
agreement with the reference SMO loop, and the objective-comparison oracle
cross-check.

Hand-derived oracle for the two-point problem with K = I, y = (+1, -1):
the equality constraint forces alpha_1 = alpha_2 = a and the objective is
2a - a^2, maximized at a = 1 (clipped at the box when C < 1), with b = 0,
decision values (+a, -a), and ||w|| = a*sqrt(2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smo_reference
from shotsvm import solver
from shotsvm.datasets import BlobSpec, make_blobs, rbf_kernel
from shotsvm.errors import ConvergenceError, DegenerateProblemError
from shotsvm.kernels import (
    KernelMatrix,
    MeasurementLedger,
    assemble_estimate,
    expand,
    num_pairs,
    simulate_counts,
)
from shotsvm.solver import SvmModel, check_labels, decision_values, margin_norm, train
from solver_oracle import bound_set, brute_force_dual, dual_objective

EYE2 = KernelMatrix(np.eye(2))
Y2 = np.array([1.0, -1.0])


def rbf(pts):
    """Gaussian kernel with bandwidth set by the mean squared distance; exactly
    symmetric, since (a - b)**2 == (b - a)**2."""
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    k = np.exp(-d2 / (2.0 * d2.mean() + 1e-12))
    np.fill_diagonal(k, 1.0)
    return k


def random_pd_instance(rng, n):
    """Gaussian kernel of distinct random points: entries in (0,1], PD, unit diagonal."""
    k = rbf(rng.normal(size=(n, 2)))
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[rng.integers(n)] *= -1.0
    return KernelMatrix(k), y


@st.composite
def instances(draw):
    """(kernel, labels, C) with n in [2, 60] from four families: clean RBF
    kernels; pilot estimates after two shots per entry (entries in {0, 1/2, 1},
    indefinite); random symmetric 0/1 kernels; and RBF kernels over points
    drawn with repetition, whose repeated rows force ties in argmax/argmin."""
    n = draw(st.integers(2, 60), label="n")
    family = draw(st.sampled_from(["rbf", "pilot", "binary", "duplicates"]), label="family")
    c = draw(st.sampled_from([0.1, 1.0, 100.0]), label="c")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    y = rng.choice([-1.0, 1.0], size=n)
    y[:2] = 1.0, -1.0
    if family == "rbf":
        k = rbf(rng.normal(size=(n, 2)))
    elif family == "pilot":
        k = expand(rng.binomial(2, 0.5, num_pairs(n)) / 2.0, n, diag=1.0)
    elif family == "binary":
        k = expand(rng.integers(0, 2, num_pairs(n)).astype(float), n, diag=1.0)
    else:
        sources = draw(st.integers(2, n), label="distinct points")
        pick = np.concatenate([[0, 1], rng.integers(0, sources, n - 2)])
        k = rbf(rng.normal(size=(sources, 2))[pick])
        y = np.where(pick % 2 == 0, 1.0, -1.0)  # copies of a point share its label
    perm = rng.permutation(n)
    return KernelMatrix(k[np.ix_(perm, perm)]), y[perm], c


def pilot_estimate(n, m0, rng):
    """The estimate a real run trains on after its pilot: m0 shots on every
    entry of a blob kernel, so entries lie in {0, 1/m0, ..., 1} and the matrix
    is indefinite."""
    spec = BlobSpec(n_points=n, separation=float(rng.uniform(1.0, 5.0)),
                    noise_scale=float(rng.uniform(0.35, 1.1)), seed=int(rng.integers(2**32)))
    points, y = make_blobs(spec)
    ledger = MeasurementLedger.empty(n)
    counts = np.full(num_pairs(n), m0, dtype=np.int64)
    ledger.record(counts, simulate_counts(rbf_kernel(points).condensed(), counts, rng))
    return assemble_estimate(ledger), y


@st.composite
def bound_crossing_instances(draw):
    """(kernel, labels, C) whose solves move many alphas onto and off the box:
    C in [0.05, 0.5] with kernels whose repeated rows tie in argmax, RBF
    kernels under symmetric noise that makes them indefinite, and real pilot
    estimates with m0 = 1 or 2 at n = 50."""
    c = draw(st.floats(0.05, 0.5), label="c")
    family = draw(st.sampled_from(["ties", "noisy", "pilot"]), label="family")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if family == "pilot":
        k, y = pilot_estimate(50, draw(st.sampled_from([1, 2]), label="m0"), rng)
        return k, y, c
    n = draw(st.integers(4, 60), label="n")
    y = rng.choice([-1.0, 1.0], size=n)
    y[:2] = 1.0, -1.0
    if family == "ties":
        sources = draw(st.integers(2, max(2, n // 3)), label="distinct points")
        k = rbf(rng.normal(size=(sources, 2))[rng.integers(0, sources, n)])
    else:
        noise = rng.normal(0.0, draw(st.sampled_from([0.05, 0.2, 0.5]), label="sd"), (n, n))
        k = rbf(rng.normal(size=(n, 2))) + np.triu(noise, 1) + np.triu(noise, 1).T
    return KernelMatrix(k), y, c


# ---------------------------------------------------------------- analytic cases


def test_two_point_interior_optimum():
    model = train(EYE2, Y2, c=10.0, kkt_tol=1e-10)
    np.testing.assert_allclose(model.alpha, [1.0, 1.0], atol=1e-8)
    assert model.b == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(decision_values(model, EYE2), [1.0, -1.0], atol=1e-8)
    assert margin_norm(model, EYE2) == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert np.all((model.alpha > model.sv_tol) & (model.alpha < model.c - model.sv_tol))
    assert set(model.support_set) == {0, 1}


def test_two_point_box_clipped():
    model = train(EYE2, Y2, c=0.5, kkt_tol=1e-10)
    np.testing.assert_allclose(model.alpha, [0.5, 0.5], atol=1e-10)
    assert model.b == pytest.approx(0.0, abs=1e-10)  # midpoint rule, no free vectors
    assert np.all(model.alpha >= model.c - model.sv_tol)
    assert set(bound_set(model)) == {0, 1}


def test_exact_zero_bias_is_positive_zero():
    # Every alpha ends at C, so b is the midpoint of the two extreme targets,
    # which are both exactly zero here. Negating a zero target naively would
    # report b = -0.0.
    k = KernelMatrix(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]]))
    model = train(k, np.array([1.0, -1.0, -1.0, 1.0]), c=1.0)
    assert model.alpha.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert model.n_iter == 2
    assert math.copysign(1.0, model.b) == 1.0 and model.b == 0.0
    assert math.copysign(1.0, model.kkt_violation) == 1.0 and model.kkt_violation == 0.0


def test_equality_constraint_holds():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k, y = random_pd_instance(rng, 12)
        model = train(k, y, c=1.0)
        assert abs(np.dot(model.alpha, y)) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances())
def test_kkt_conditions_on_random_instances(instance):
    k, y, c = instance
    kkt_tol = 1e-8
    n = k.n
    model = train(k, y, c=c, kkt_tol=kkt_tol)
    assert np.all((model.alpha >= 0.0) & (model.alpha <= c))
    assert abs(np.dot(model.alpha, y)) <= 1e-9 * c * n
    assert model.kkt_violation <= kkt_tol
    viol = y * decision_values(model, k) - 1.0
    tol = 10 * kkt_tol
    at_zero = model.alpha <= model.sv_tol
    at_c = model.alpha >= c - model.sv_tol
    free = ~at_zero & ~at_c
    assert np.all(viol[at_zero] >= -tol)
    assert np.all(viol[at_c] <= tol)
    assert np.all(np.abs(viol[free]) <= tol)


def test_train_is_deterministic():
    rng = np.random.default_rng(3)
    k, y = random_pd_instance(rng, 10)
    m1 = train(k, y, c=2.0)
    m2 = train(k, y, c=2.0)
    np.testing.assert_array_equal(m1.alpha, m2.alpha)
    assert m1.b == m2.b
    assert m1.n_iter == m2.n_iter


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    k, y = random_pd_instance(rng, 9)
    perm = rng.permutation(9)
    kp = KernelMatrix(k.entries[np.ix_(perm, perm)])
    m = train(k, y, c=1.0, kkt_tol=1e-9)
    mp = train(kp, y[perm], c=1.0, kkt_tol=1e-9)
    np.testing.assert_allclose(mp.alpha, m.alpha[perm], atol=1e-6)
    assert mp.b == pytest.approx(m.b, abs=1e-6)


def test_single_class_raises():
    with pytest.raises(DegenerateProblemError):
        train(EYE2, np.array([1.0, 1.0]), c=1.0)


def test_bad_labels_raise():
    with pytest.raises(ValueError):
        train(EYE2, np.array([1.0, 0.0]), c=1.0)


@pytest.mark.parametrize("labels, error, message", [
    ([1.0, 2.0, -1.0], ValueError, "labels must be +/-1, got values [-1.0, 1.0, 2.0]"),
    ([np.nan, np.nan], ValueError, "labels must be +/-1, got values [nan]"),
    ([-0.0, 1.0], ValueError, "labels must be +/-1, got values [-0.0, 1.0]"),
    ([1.0, -1.0, np.inf], ValueError, "labels must be +/-1, got values [-1.0, 1.0, inf]"),
    ([1.0, 1.0], DegenerateProblemError, "training data contains a single class"),
    ([-1.0], DegenerateProblemError, "training data contains a single class"),
    ([], DegenerateProblemError, "training data contains a single class"),
])
def test_check_labels_messages(labels, error, message):
    with pytest.raises(error) as ei:
        check_labels(np.array(labels))
    assert type(ei.value) is error
    assert str(ei.value) == message


def test_check_labels_message_with_nan_among_labels():
    # The listed order depends on how NaN hashes into the value set, so only
    # the message's frame and its values are pinned.
    with pytest.raises(ValueError) as ei:
        check_labels(np.array([1.0, np.nan, -1.0]))
    prefix = "labels must be +/-1, got values ["
    message = str(ei.value)
    assert message.startswith(prefix) and message.endswith("]")
    assert sorted(message[len(prefix):-1].split(", ")) == ["-1.0", "1.0", "nan"]


def test_check_labels_returns_float_labels():
    y = check_labels(np.array([1, -1, 1]))
    assert y.dtype == np.float64
    assert y.tolist() == [1.0, -1.0, 1.0]


def test_iteration_cap_raises_with_violation():
    rng = np.random.default_rng(5)
    k, y = random_pd_instance(rng, 20)
    with pytest.raises(ConvergenceError) as ei:
        train(k, y, c=1.0, max_iter=1)
    assert ei.value.violation > 0
    with pytest.raises(ConvergenceError) as ref:
        smo_reference.train(k, y, c=1.0, max_iter=1)
    assert ei.value.violation == ref.value.violation


def outcome(solve, k, y, c, max_iter):
    """Everything ``train`` reports, or the violation it raised with."""
    try:
        m = solve(k, y, c=c, max_iter=max_iter)
    except ConvergenceError as exc:
        return "no convergence", exc.violation
    return m.alpha.tobytes(), m.b, m.n_iter, m.kkt_violation


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(instances(), st.one_of(st.none(), st.integers(0, 8)))
def test_train_matches_reference_loop_bitwise(instance, max_iter):
    k, y, c = instance
    assert outcome(train, k, y, c, max_iter) == outcome(smo_reference.train, k, y, c, max_iter)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bound_crossing_instances(), st.one_of(st.none(), st.integers(0, 8)))
def test_train_matches_reference_loop_bitwise_across_bounds(instance, max_iter):
    k, y, c = instance
    got = outcome(train, k, y, c, max_iter)
    assert got == outcome(smo_reference.train, k, y, c, max_iter)
    # the in-place loop never reports -0.0, where the reference loop may
    assert all(math.copysign(1.0, v) > 0 for v in got[1:] if isinstance(v, float) and v == 0.0)


@pytest.mark.parametrize("n, m0, c", [(200, 1, 0.2), (240, 2, 1.0)])
def test_train_matches_reference_loop_bitwise_on_large_pilot(n, m0, c, monkeypatch):
    k, y = pilot_estimate(n, m0, np.random.default_rng(n + m0))
    crossings = []
    change_sets = solver._change_sets

    def counted(targets, p, *rest):
        crossings.append(p)
        change_sets(targets, p, *rest)

    monkeypatch.setattr(solver, "_change_sets", counted)
    assert outcome(train, k, y, c, None) == outcome(smo_reference.train, k, y, c, None)
    assert len(set(crossings)) > n // 10  # many points moved onto or off a bound


# ---------------------------------------------------------------- margin / decisions


def test_margin_norm_nonnegative_on_indefinite_kernel():
    # eigenvalues 1 + 0.9*sqrt(2), 1, 1 - 0.9*sqrt(2) < 0 — an estimate can look like this
    k = KernelMatrix(np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]]))
    model = SvmModel(alpha=np.array([1.0, 1.0, 1.0]), labels=np.array([1.0, -1.0, 1.0]),
                     b=0.0, c=1.0, n_iter=0, kkt_violation=0.0)
    w = margin_norm(model, k)
    assert np.isfinite(w) and w >= 0.0


def test_decision_values_formula():
    model = train(EYE2, Y2, c=10.0)
    k_other = KernelMatrix(np.array([[1.0, 0.25], [0.25, 1.0]]))
    f = decision_values(model, k_other)
    # f_i = sum_j alpha_j y_j K_ij + b with alpha = (1,1), b = 0
    np.testing.assert_allclose(f, [1.0 - 0.25, 0.25 - 1.0], atol=1e-8)


def test_dual_objective_value():
    alpha = np.array([1.0, 1.0])
    assert dual_objective(alpha, EYE2, Y2) == pytest.approx(2.0 - 1.0)


# ---------------------------------------------------------------- oracle cross-check


def test_brute_force_two_point():
    alpha, obj = brute_force_dual(EYE2, Y2, c=10.0)
    np.testing.assert_allclose(alpha, [1.0, 1.0], atol=1e-4)
    assert obj == pytest.approx(1.0, abs=1e-7)


def test_solver_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(6)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        c = [0.5, 1.0, 10.0][trial % 3]
        k, y = random_pd_instance(rng, n)
        model = train(k, y, c=c, kkt_tol=1e-9)
        obj_smo = dual_objective(model.alpha, k, y)
        alpha_bf, obj_bf = brute_force_dual(k, y, c=c)
        assert obj_bf >= obj_smo - 1e-6
        assert abs(obj_smo - obj_bf) <= 1e-5 * max(1.0, abs(obj_bf))
        # PD kernel => strictly concave on the constraint slice => unique optimum
        assert np.max(np.abs(model.alpha - alpha_bf)) <= 1e-3
