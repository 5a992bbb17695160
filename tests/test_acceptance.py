"""Acceptance gate. Each test pins one end-to-end claim the package makes:
the measurement variance law, solver correctness against an independent
search, the envelope gradient, the two allocation bounds, the head-to-head
experiment outcomes, stopping behavior, the regime map, the cost model, the
heterogeneity sweep, bitwise reproducibility of every command, the gain on
concentrated quantum kernels, the support-vector gain at n = 400, and the
pilot size that turns the decision loss into a gain. One test per claim;
tolerances and budgets are stated inline.
"""

import csv
import filecmp
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from shotsvm import cli
from shotsvm.allocation import oracle_allocation
from shotsvm.datasets import BlobSpec, make_blobs, rbf_kernel, save_kernel_file
from shotsvm.kernels import (
    estimator_variance,
    num_pairs,
    simulate_counts,
    success_probabilities,
)
from shotsvm.sensitivity import margin_gradient
from shotsvm.solver import margin_norm, train
from shotsvm.theory import CostModel, cost_totals, perturbation_penalty, tau_critical, v_star, v_uniform
from solver_oracle import bound_set, brute_force_dual, dual_objective, pair_index

# The CLI --seed of each stochastic claim, fixed before the claim's first run.
# A sweep over other seeds patches these names; the pinned values stay.
SEED_C06 = 7
SEED_C07 = 7
SEED_C08 = 7
SEED_C09 = 7
SEED_C13 = 7
SEED_C14 = 14
SEED_C15 = 53


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def flat_kernel(n, value):
    k = np.full((n, n), value)
    np.fill_diagonal(k, 1.0)
    return k


# ------------------------------------------------------- 1. variance law


def test_c01_entry_estimator_variance_law():
    """Empirical variance of the N-shot rate estimator matches
    k(1-k)/N + (1 - 1/N) sigma^2 within 5%, and the mean is unbiased within
    4 standard errors, with and without persistent offsets. >=1e5 draws in
    under 10 seconds: every pair of one large flat kernel is an independent
    replication, measured in a single vectorized pass."""
    start = time.time()
    n, shots, k_val = 450, 10, 0.3
    pairs = num_pairs(n)
    assert pairs >= 100_000
    kernel = flat_kernel(n, k_val)
    counts = np.full(pairs, shots)
    for sigma in (0.0, 0.05):
        rng = np.random.default_rng(20260822)
        successes = simulate_counts(success_probabilities(kernel, sigma, rng), counts, rng)
        est = successes / shots
        predicted = estimator_variance(k_val, shots, sigma)
        assert est.var() == pytest.approx(predicted, rel=0.05)
        se = np.sqrt(est.var() / pairs)
        assert abs(est.mean() - k_val) <= 4.0 * se
    assert time.time() - start < 10.0


# ------------------------------------------------------- 2. solver


def test_c02_solver_agrees_with_pattern_search():
    """On 200 random small instances the SMO optimum matches an independent
    pattern search over the dual polytope to 1e-5; the orthogonal two-point
    problem is solved exactly."""
    start = time.time()
    eye = np.eye(2)
    y2 = np.array([1.0, -1.0])
    model = train(eye, y2, c=10.0, kkt_tol=1e-12)
    np.testing.assert_allclose(model.alpha, [1.0, 1.0], atol=1e-8)
    assert model.b == pytest.approx(0.0, abs=1e-8)
    assert margin_norm(model, eye) == pytest.approx(np.sqrt(2.0), abs=1e-8)

    rng = np.random.default_rng(41)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        pts = rng.normal(size=(n, 2))
        d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
        k = np.exp(-d2 / 2.0)
        np.fill_diagonal(k, 1.0)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        c = float(rng.uniform(0.2, 8.0))
        kernel = (k + k.T) / 2
        obj_smo = dual_objective(train(kernel, y, c=c, kkt_tol=1e-10).alpha, kernel, y)
        _, obj_bf = brute_force_dual(kernel, y, c=c)
        assert abs(obj_smo - obj_bf) <= 1e-5 * max(1.0, abs(obj_bf))
    assert time.time() - start < 60.0


# ------------------------------------------------------- 3. envelope gradient


def test_c03_margin_gradient_envelope_fd():
    """Central finite differences of ||w||^2 under symmetric entry bumps with
    full retraining reproduce alpha_i alpha_j y_i y_j to 1e-3 on at least 50
    bound-pair entries whose active set survives the bump."""
    start = time.time()
    h = 1e-5
    checked = 0

    def partition(model):
        tol = model.sv_tol
        return (tuple(np.flatnonzero(model.alpha <= tol)),
                tuple(np.flatnonzero(model.alpha >= model.c - tol)))

    for seed in range(60):
        if checked >= 55:
            break
        rng = np.random.default_rng(seed)
        n, c = 14, 0.3
        half = n // 2
        pts = np.vstack([rng.normal(-0.5, 1.0, (half, 2)),
                         rng.normal(0.5, 1.0, (n - half, 2))])
        y = np.concatenate([-np.ones(half), np.ones(half)])
        d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
        k = np.exp(-d2 / (2.0 * pts.var() * 2))
        np.fill_diagonal(k, 1.0)
        kernel = (k + k.T) / 2
        model = train(kernel, y, c=c, kkt_tol=1e-10)
        g = margin_gradient(model)
        base_part = partition(model)
        bound = bound_set(model)
        for a in range(len(bound)):
            for b_ in range(a + 1, len(bound)):
                i, j = int(bound[a]), int(bound[b_])
                w2 = {}
                parts_ok = True
                for sign in (+1.0, -1.0):
                    kp = kernel.copy()
                    kp[i, j] += sign * h
                    kp[j, i] += sign * h
                    mp = train(kp, y, c=c, kkt_tol=1e-10)
                    if partition(mp) != base_part:
                        parts_ok = False
                        break
                    w2[sign] = margin_norm(mp, kp) ** 2
                if not parts_ok:
                    continue
                fd = (w2[1.0] - w2[-1.0]) / (2.0 * h * 2.0)
                assert fd == pytest.approx(g[pair_index(i, j, n)], rel=1e-3)
                checked += 1
    assert checked >= 50
    assert time.time() - start < 120.0


# ------------------------------------------------------- 4. allocation bound


def test_c04_oracle_never_worse_than_uniform():
    """V* <= V_unif on 1000 random weight vectors, strictly so whenever the
    weights vary (CV > 1e-6), with equality to 1e-12 at constant weights."""
    start = time.time()
    rng = np.random.default_rng(17)
    n_tot = 5000.0
    for i in range(1000):
        m = int(rng.integers(2, 80))
        if i % 10 == 0:
            w = np.full(m, float(rng.uniform(0.1, 5.0)))
        elif i % 3 == 0:
            w = rng.lognormal(0.0, 1.5, m)
        else:
            w = rng.uniform(0.0, 2.0, m)
        vs, vu = v_star(w, n_tot), v_uniform(w, n_tot)
        assert vs <= vu * (1.0 + 1e-12)
        cv = w.std() / w.mean() if w.mean() > 0 else 0.0
        if cv > 1e-6:
            assert vs < vu
        if cv == 0.0:
            assert abs(vu - vs) <= 1e-12 * vu
    assert time.time() - start < 5.0


# ------------------------------------------------------- 5. second-order penalty


def test_c05_second_order_penalty_tracks_exact_increase():
    """sum w_m d_m^2 / N_m^3 predicts the exact variance increase of zero-sum
    deviations from the oracle counts within 10% for small perturbations."""
    start = time.time()
    rng = np.random.default_rng(29)
    for _ in range(200):
        m = int(rng.integers(2, 30))
        w = rng.uniform(0.05, 4.0, m)
        counts = oracle_allocation(w, 8000.0)
        d = rng.normal(size=m)
        d -= d.mean()
        d *= 0.02 * counts.min() / (np.abs(d).max() + 1e-300)
        predicted = perturbation_penalty(w, counts, d)
        actual = float(np.sum(w / (counts + d)) - np.sum(w / counts))
        assert predicted == pytest.approx(actual, rel=0.10)
    assert time.time() - start < 5.0


# ------------------------------------------------------- 6. fixed-budget head-to-head


def test_c06_fixed_budget_adaptive_wins_on_separated_data(tmp_path):
    """At a matched budget on well-separated blobs (separation = 6x the spread
    minimum and above), the adaptive run wins the decision-facing metrics —
    median decision_rmse, rel_margin_err, rmse on the support-vector block,
    weighted support overlap — in at least 60% of trials, while the uniform
    baseline keeps the better global kernel RMSE."""
    start = time.time()
    out = tmp_path / "fb.csv"
    assert run_cli("fixed-budget", "--n", 50, "--trials", 200, "--nbar", 50,
                   "--rounds", 5, "--m0", 2, "--lambda", 0.5, "--c", 1.0,
                   "--separation", 5.0, "--noise-scale", 0.5,
                   "--seed", SEED_C06, "--out", out) == 0
    rows = read_csv(out)
    finals = {"uniform": {}, "adaptive": {}}
    for row in rows:
        if row["round"] == row["rounds_executed"]:
            finals[row["strategy"]][int(row["trial"])] = row

    def med(strategy, field):
        return float(np.median([float(r[field]) for r in finals[strategy].values()]))

    assert med("adaptive", "decision_rmse") < med("uniform", "decision_rmse")
    assert med("adaptive", "rel_margin_err") < med("uniform", "rel_margin_err")
    assert med("adaptive", "rmse_k_sv") < med("uniform", "rmse_k_sv")
    assert med("adaptive", "weighted_jaccard") > med("uniform", "weighted_jaccard")
    assert med("uniform", "rmse_k") < med("adaptive", "rmse_k")
    wins = [float(finals["adaptive"][t]["decision_rmse"]) < float(finals["uniform"][t]["decision_rmse"])
            for t in finals["uniform"]]
    assert np.mean(wins) >= 0.60
    assert time.time() - start < 900.0


# ------------------------------------------------------- 7. saturation


def test_c07_saturation_plateau_and_stopping_signal(tmp_path):
    """Over 50 rounds the per-round median decision_rmse is non-increasing up
    to Monte Carlo noise — at most two adjacent increases beyond twice the
    bootstrap standard error of the median difference, each under 5% of the
    pilot median — and the round-to-round dual movement delta_r ranks the
    actual per-round improvement with Spearman rho >= 0.7."""
    start = time.time()
    rounds, trials = 50, 200
    out = tmp_path / "sat.csv"
    assert run_cli("saturation", "--n", 50, "--trials", trials, "--nbar", 50,
                   "--rounds", rounds, "--m0", 2, "--lambda", 0.5, "--c", 1.0,
                   "--separation", 5.0, "--noise-scale", 0.5,
                   "--seed", SEED_C07, "--out", out) == 0
    rows = read_csv(out)
    rmse = np.full((trials, rounds + 1), np.nan)
    delta = np.full((trials, rounds + 1), np.nan)
    for row in rows:
        t, r = int(row["trial"]), int(row["round"])
        rmse[t, r] = float(row["decision_rmse"])
        if row["delta"]:
            delta[t, r] = float(row["delta"])
    assert not np.isnan(rmse).any()

    med = np.median(rmse, axis=0)
    pilot = med[0]
    raw_increase = np.diff(med)  # positive entries are adjacent violations
    boot = np.random.default_rng(1234)
    idx = boot.integers(0, trials, size=(400, trials))
    boot_med = np.median(rmse[idx], axis=1)          # (400, rounds+1)
    se = np.std(np.diff(boot_med, axis=1), axis=0)   # SE of each adjacent median diff
    beyond_noise = raw_increase > 2.0 * se
    assert int(beyond_noise.sum()) <= 2
    assert np.all(raw_increase[beyond_noise] < 0.05 * pilot)

    med_delta = np.median(delta[:, 1:], axis=0)
    med_gain = np.median(rmse[:, :-1] - rmse[:, 1:], axis=0)
    rho = spearmanr(med_delta, med_gain).statistic
    assert rho >= 0.7
    assert time.time() - start < 1800.0


# ------------------------------------------------------- 8. stopping sweep


def test_c08_stopping_sweep_budget_win_and_sign_change(tmp_path):
    """Raising the stopping threshold only cuts spend (median shot fraction is
    non-increasing), there is a regime that keeps a positive median gain on
    less than half the budget, and pushing the threshold far enough flips the
    median gain negative."""
    start = time.time()
    out = tmp_path / "sweep.csv"
    eps = "0.01,0.0464,0.1,0.215,0.464,0.7,0.85,1.0,1.1,1.2"
    assert run_cli("stopping-sweep", "--n", 70, "--trials", 100, "--nbar", 25,
                   "--rounds", 20, "--c", 10.0, "--separation", 5.0,
                   "--noise-scale", 0.5, "--epsilons", eps,
                   "--seed", SEED_C08, "--out", out) == 0
    rows = read_csv(out)
    assert [float(r["epsilon"]) for r in rows] == sorted(float(x) for x in eps.split(","))
    fractions = [float(r["median_shot_fraction"]) for r in rows]
    gains = [float(r["median_delta_rmse"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert any(g > 0 and f < 0.5 for g, f in zip(gains, fractions))
    assert max(gains) > 0 and min(gains) < 0
    assert time.time() - start < 1800.0


# ------------------------------------------------------- 9. regime map


def test_c09_regime_map_gain_tracks_structure(tmp_path):
    """Across a separation x spread grid, the budget-matched gain concentrates
    where the dual concentrates: cells in the top quartile by mean gini (and
    by margin strength) average a higher gain than the bottom quartile, and at
    least one weak-structure cell shows no gain at all."""
    start = time.time()
    out = tmp_path / "map.csv"
    assert run_cli("regime-map", "--n", 50, "--trials", 20, "--nbar", 50,
                   "--rounds", 5, "--c", 1.0,
                   "--separations", "1.0,2.33,3.67,5.0",
                   "--noise-scales", "0.35,0.6,0.85,1.1",
                   "--seed", SEED_C09, "--out", out) == 0
    rows = read_csv(out)
    assert len(rows) == 16
    gain = np.array([float(r["mean_delta_rmse"]) for r in rows])
    for key in ("mean_gini", "margin_strength"):
        order = np.argsort([float(r[key]) for r in rows])
        assert gain[order[-4:]].mean() > gain[order[:4]].mean()
    weak = np.argsort([float(r["margin_strength"]) for r in rows])[:4]
    assert np.any(gain[weak] <= 0.0)
    assert time.time() - start < 1800.0


# ------------------------------------------------------- 10. cost model


def test_c10_cost_model_reference_point():
    """tau*(n=50, r=0.16, rounds=6, nbar=100) = 0.1372, and at that ratio the
    uniform and adaptive pipeline totals break even."""
    start = time.time()
    cm = CostModel(c_q=1.0, c_c=0.1372, r=0.16, rounds=6, n=50, nbar=100.0)
    assert tau_critical(cm) == pytest.approx(0.1372, abs=1e-4)
    uniform, adaptive = cost_totals(cm, n_tot=100.0 * num_pairs(50))
    assert abs(uniform - adaptive) <= 1e-9 * uniform
    assert time.time() - start < 1.0


# ------------------------------------------------------- 11. heterogeneity sweep


def test_c11_variance_gap_grows_with_heterogeneity(tmp_path):
    """Interpolating the margin weights from flat to their data-driven values:
    the two oracle curves coincide at CV = 0, the uniform-optimal gap never
    shrinks as heterogeneity grows, and realized finite-shot allocations never
    beat the continuous oracle by more than Monte Carlo error."""
    start = time.time()
    out = tmp_path / "var.csv"
    assert run_cli("theory-variance", "--n", 50, "--nbar", 50, "--c", 1.0,
                   "--separation", 5.0, "--noise-scale", 0.5, "--mc", 300,
                   "--seed", 7, "--out", out) == 0
    rows = read_csv(out)
    t_values = sorted({float(r["t"]) for r in rows})
    assert t_values[0] == 0.0 and t_values[-1] == 1.0

    def pick(t, scheme, oracle):
        for r in rows:
            if float(r["t"]) == t and r["scheme"] == scheme and r["oracle"] == oracle:
                return r
        raise AssertionError(f"missing row t={t} {scheme} oracle={oracle}")

    zero = pick(0.0, "optimal", "true")
    assert float(zero["cv"]) == pytest.approx(0.0, abs=1e-12)
    assert float(zero["variance"]) == pytest.approx(
        float(pick(0.0, "uniform", "true")["variance"]), rel=1e-9)

    gaps = [float(pick(t, "uniform", "true")["variance"])
            - float(pick(t, "optimal", "true")["variance"]) for t in t_values]
    assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(gaps, gaps[1:]))

    for t in t_values:
        oracle_v = float(pick(t, "optimal", "true")["variance"])
        finite = pick(t, "optimal", "false")
        slack = 3.0 * float(finite["mc_se"]) + 1e-12
        assert float(finite["variance"]) >= oracle_v - slack
    assert time.time() - start < 600.0


# ------------------------------------------------------- 12. determinism


def test_c12_every_command_rerun_byte_identical(tmp_path):
    """Every command, rerun with the same seed and with a different --threads,
    produces byte-identical output files."""
    kernel_path = tmp_path / "kernel.csv"
    x, y = make_blobs(BlobSpec(n_points=12, separation=4.0, noise_scale=0.5), 3)
    save_kernel_file(kernel_path, rbf_kernel(x), y)
    commands = {
        "fixed-budget": ["fixed-budget", "--n", 12, "--trials", 3, "--nbar", 8,
                         "--rounds", 2, "--seed", 7],
        "saturation": ["saturation", "--n", 12, "--trials", 2, "--nbar", 8,
                       "--rounds", 3, "--seed", 7],
        "stopping-sweep": ["stopping-sweep", "--n", 12, "--trials", 3, "--nbar", 8,
                           "--rounds", 2, "--epsilons", "0.05,0.5", "--seed", 7],
        "regime-map": ["regime-map", "--n", 12, "--trials", 2, "--nbar", 8,
                       "--rounds", 2, "--separations", "1.0,4.0",
                       "--noise-scales", "0.5", "--seed", 7],
        "theory-variance": ["theory-variance", "--n", 12, "--nbar", 8,
                            "--separation", 4.0, "--t-grid", "0,0.5,1",
                            "--mc", 30, "--seed", 7],
        "cost-model": ["cost-model", "--configs", "0.16:6", "--n-range", "10:14"],
        "load-kernel": ["load-kernel", "--kernel", kernel_path, "--trials", 2,
                        "--nbar", 8, "--rounds", 2, "--seed", 7],
    }
    for name, argv in commands.items():
        paths = [tmp_path / f"{name}-{tag}.csv" for tag in ("a", "b", "c")]
        assert run_cli(*argv, "--threads", 1, "--out", paths[0]) == 0
        assert run_cli(*argv, "--threads", 1, "--out", paths[1]) == 0
        assert run_cli(*argv, "--threads", 2, "--out", paths[2]) == 0
        assert filecmp.cmp(paths[0], paths[1], shallow=False), name
        assert filecmp.cmp(paths[0], paths[2], shallow=False), name


# ------------------------------------------------------- 13. kernel concentration


def fidelity_kernel(x, gamma):
    """K(x, x') = prod_d cos^2(gamma (x_d - x'_d) / 2), the fidelity kernel of
    angle-encoded product states. Its off-diagonal entries concentrate toward 0
    as gamma or the dimension grows."""
    diff = x[:, None, :] - x[None, :, :]
    return np.prod(np.cos(gamma * diff / 2.0) ** 2, axis=2)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_c13_adaptive_wins_on_concentrated_fidelity_kernels(tmp_path, seed):
    """On a concentrated quantum fidelity kernel (gamma = 4 over 8 angle-encoded
    dimensions), loaded from disk, adaptive's median final decision_rmse is
    below uniform's. All settings were fixed before any run; the wide-bandwidth
    side of the regime, where adaptive loses, is not pinned."""
    start = time.time()
    x, y = make_blobs(BlobSpec(n_points=40, separation=3.0, noise_scale=1.0, dims=8), seed)
    kernel_path, out = tmp_path / "kernel.csv", tmp_path / "lk.csv"
    save_kernel_file(kernel_path, fidelity_kernel(x, 4.0), y)
    assert run_cli("load-kernel", "--kernel", kernel_path, "--trials", 16, "--nbar", 50,
                   "--rounds", 5, "--seed", SEED_C13, "--out", out) == 0
    finals = {"uniform": [], "adaptive": []}
    for row in read_csv(out):
        if row["round"] == row["rounds_executed"]:
            finals[row["strategy"]].append(float(row["decision_rmse"]))
    assert len(finals["uniform"]) == len(finals["adaptive"]) == 16
    assert np.median(finals["adaptive"]) < np.median(finals["uniform"])
    assert time.time() - start < 60.0


# ------------------------------------------------------- 14. the support-vector gain at n = 400


def test_c14_adaptive_wins_the_support_vector_block_at_n400(tmp_path):
    """At n = 400 on c06's geometry (separation 5, spread 0.5), adaptive's
    median final rmse_k_sv is below uniform's and its median weighted_jaccard
    above. The trial count and seed were fixed before any run. The decision
    side, whose gain fades with n on this geometry, is not pinned."""
    start = time.time()
    out = tmp_path / "fb.csv"
    assert run_cli("fixed-budget", "--n", 400, "--trials", 60, "--nbar", 50, "--rounds", 5,
                   "--separation", 5.0, "--noise-scale", 0.5, "--seed", SEED_C14, "--out", out) == 0
    finals = {"uniform": {"rmse_k_sv": [], "weighted_jaccard": []},
              "adaptive": {"rmse_k_sv": [], "weighted_jaccard": []}}
    for row in read_csv(out):
        if row["round"] == row["rounds_executed"]:
            for field, values in finals[row["strategy"]].items():
                values.append(float(row[field]))
    assert len(finals["uniform"]["rmse_k_sv"]) == len(finals["adaptive"]["rmse_k_sv"]) == 60
    median = {s: {f: np.median(v) for f, v in fields.items()} for s, fields in finals.items()}
    assert median["adaptive"]["rmse_k_sv"] < median["uniform"]["rmse_k_sv"]
    assert median["adaptive"]["weighted_jaccard"] > median["uniform"]["weighted_jaccard"]
    assert time.time() - start < 20.0


# ------------------------------------------------------- 15. the pilot decides the decision gain


def test_c15_a_larger_pilot_turns_the_decision_loss_into_a_gain(tmp_path):
    """On overlapping blobs at n = 200 (separation 3, spread 1) with nbar 50
    and 5 rounds, adaptive's median final decision_rmse is above uniform's at
    a 2-shot pilot and below it at a 25-shot pilot. Uniform does not read m0,
    so both pilots share one uniform median. The trial count and seed were
    fixed before any run."""
    start = time.time()
    finals = {}
    for m0 in (2, 25):
        out = tmp_path / f"fb-m0-{m0}.csv"
        assert run_cli("fixed-budget", "--n", 200, "--trials", 40, "--nbar", 50, "--rounds", 5,
                       "--m0", m0, "--separation", 3.0, "--noise-scale", 1.0, "--seed", SEED_C15,
                       "--out", out) == 0
        for row in read_csv(out):
            if row["round"] == row["rounds_executed"]:
                finals.setdefault((row["strategy"], m0), []).append(float(row["decision_rmse"]))
    assert [len(v) for v in finals.values()] == [40] * 4
    assert finals["uniform", 2] == finals["uniform", 25]
    uniform = np.median(finals["uniform", 2])
    assert np.median(finals["adaptive", 2]) > uniform
    assert np.median(finals["adaptive", 25]) < uniform
    assert time.time() - start < 30.0
