"""Acceptance gate for the whole pipeline.

Ten checks, one per release criterion: contract-menu incentive properties,
reward arithmetic against an independent root-finding oracle, effort-search
optimality against a dense scan, the no-accuracy-term degenerate case, the
upload admission filter, gradient correctness, the desk-scale comparison
against FedAvg with and without attackers, bytewise determinism, curve-fit
recovery through the CLI, and the FedProx-to-FedAvg reduction.

Every test asserts its tolerance and runtime budget, then prints a one-line
summary (visible under `pytest -s`).
"""

import dataclasses
import filecmp
import json
import os
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from contractfl import cli, config, experiment, nn
from contractfl.contracts import (
    EFFORT_MIN,
    AccuracyCurveParams,
    MarketModel,
    accuracy_curve,
    effort_cost_coeffs,
    per_level_objective,
    rewards_from_efforts,
    solve_contract,
)
from contractfl.simulation import GateParams, access_control

# ten-level reference market used throughout the contract checks
FULL_MARKET = MarketModel.uniform(
    10, xi=2.0, c=5.0, f=1.0, t_com=10.0, e_com=20.0,
    lambda1=5e6, lambda2=4e5, t_max=1e5)

ASYNC_ARTIFACTS = ("config-echo.json", "contracts.json", "partition.csv",
                   "rounds.csv", "ledger.csv", "settlement.json", "model.bin")
BASELINE_ARTIFACTS = ("config-echo.json", "partition.csv", "rounds.csv",
                      "summary.json", "model.bin")


def test_full_market_menu_holds_participation_and_self_selection():
    t0 = time.perf_counter()
    menu = solve_contract(FULL_MARKET)
    e, r = menu.efforts, menu.rewards
    u = FULL_MARKET.unit_effort_cost
    # util[n, m]: level n's expected utility from taking row m
    util = np.outer(FULL_MARKET.theta, r) - (u * e + FULL_MARKET.e_com)[None, :]
    ir = np.diag(util)
    assert abs(ir[0]) <= 1e-6          # lowest level earns exactly zero
    assert (ir >= -1e-6).all()
    ic_gap = ir[:, None] - util        # own row beats every other row
    assert (ic_gap >= -1e-6).all()
    assert (np.diff(e) >= 0).all()
    assert (np.diff(r) >= 0).all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[acceptance 1] menu participation/self-selection: PASS "
          f"(worst IC slack {ic_gap.min():+.2e}, {elapsed:.2f}s)")


def _sequential_binding_rewards(efforts, market):
    # root-find each binding constraint instead of using the closed form
    u = market.xi * market.c * market.f ** 2
    out = np.empty(market.n_levels)
    target = u * efforts[0] + market.e_com

    def first(rr):
        return market.theta[0] * rr - target

    hi = 2.0 * target / market.theta[0] + 1.0
    out[0] = brentq(first, 0.0, hi, xtol=1e-14)
    for n in range(1, market.n_levels):
        gain = u * (efforts[n] - efforts[n - 1])

        def binding(rr, n=n, gain=gain):
            return market.theta[n] * (rr - out[n - 1]) - gain

        hi = out[n - 1] + 2.0 * gain / market.theta[n] + 1.0
        out[n] = brentq(binding, out[n - 1], hi, xtol=1e-14)
    return out


def test_reward_formula_matches_sequentially_solved_binding_constraints():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        theta = np.cumsum(rng.uniform(0.01, 0.1, n))
        theta = theta / theta[-1] * float(rng.uniform(0.5, 1.0))
        market = MarketModel(
            theta=theta, p=rng.dirichlet(np.ones(n)),
            xi=float(rng.uniform(0.5, 4.0)), c=float(rng.uniform(0.5, 4.0)),
            f=float(rng.uniform(0.5, 2.0)), t_com=1.0,
            e_com=float(rng.uniform(1.0, 50.0)),
            lambda1=1.0, lambda2=1.0, t_max=1e6)
        efforts = np.cumsum(rng.uniform(0.1, 40.0, n))
        ours = rewards_from_efforts(efforts, market)
        oracle = _sequential_binding_rewards(efforts, market)
        np.testing.assert_allclose(ours, oracle, rtol=1e-9, atol=1e-9)
        worst = max(worst, float(np.abs(ours - oracle).max()))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[acceptance 2] closed-form vs root-found rewards: PASS "
          f"(worst abs gap {worst:.2e}, {elapsed:.2f}s)")


def test_effort_search_is_within_one_step_of_dense_scan():
    t0 = time.perf_counter()
    acp = AccuracyCurveParams()
    menu = solve_contract(FULL_MARKET, acp)
    lo, hi = menu.provenance["effort_bounds"]
    grid = np.linspace(lo, hi, 80_000)
    step = float(grid[1] - grid[0])
    l = effort_cost_coeffs(FULL_MARKET)
    worst_e = 0.0
    for n in range(1, FULL_MARKET.n_levels + 1):
        vals = per_level_objective(grid, n, l, FULL_MARKET, acp)
        i = int(np.argmax(vals))
        brute_e, brute_v = float(grid[i]), float(vals[i])
        # objective may only fall below the scan's best by what one grid
        # step can change, plus float headroom
        drop = 0.0
        if i > 0:
            drop = max(drop, brute_v - float(vals[i - 1]))
        if i + 1 < grid.size:
            drop = max(drop, brute_v - float(vals[i + 1]))
        solver_e = float(menu.efforts[n - 1])
        solver_v = float(menu.provenance["objective_per_level"][n - 1])
        assert solver_v >= brute_v - drop - 1e-9 * abs(brute_v)
        assert abs(solver_e - brute_e) <= step
        worst_e = max(worst_e, abs(solver_e - brute_e))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[acceptance 3] effort search vs 80k-point scan: PASS "
          f"(worst effort gap {worst_e:.3g} <= step {step:.3g}, {elapsed:.2f}s)")


def test_effort_floors_when_accuracy_term_is_absent():
    # with lambda1 = 0 the objective is p*lambda2*ln(slack) - l*e: both terms
    # strictly decrease in e, so the maximum sits at the lower effort bound
    market = dataclasses.replace(FULL_MARKET, lambda1=0.0)
    menu = solve_contract(market)
    assert menu.efforts == pytest.approx(np.full(10, EFFORT_MIN), abs=1e-9)
    l = effort_cost_coeffs(market)
    lo, hi = menu.provenance["effort_bounds"]
    probe = np.linspace(lo, hi, 4001)
    acp = AccuracyCurveParams()
    for n in range(1, market.n_levels + 1):
        vals = per_level_objective(probe, n, l, market, acp)
        assert int(np.argmax(vals)) == 0
        assert (np.diff(vals) < 0).all()
    print("\n[acceptance 4] degenerate objective floors at minimum effort: PASS "
          f"(all 10 levels at e = {EFFORT_MIN})")


@pytest.mark.xfail(strict=True, reason=(
    "documents a defective interior formula: with no accuracy term the "
    "first-order condition has no feasible root, the objective strictly "
    "decreases, and the optimum is the effort floor rather than "
    "(f/c)(T_max - T_com) - lambda2*p*f/(l*c)"))
def test_interior_effort_formula_without_accuracy_term():
    market = dataclasses.replace(FULL_MARKET, lambda1=0.0)
    menu = solve_contract(market)
    lo, hi = menu.provenance["effort_bounds"]
    l = effort_cost_coeffs(market)
    formula = (market.f / market.c) * (market.t_max - market.t_com) \
        - market.lambda2 * market.p * market.f / (l * market.c)
    formula = np.clip(formula, lo, hi)
    tol = menu.provenance["grid_step"] + 1e-6
    np.testing.assert_allclose(menu.efforts, formula, atol=tol)


def test_filter_removes_scores_far_below_level_mean():
    rng = np.random.default_rng(11)
    eligible = removed = 0
    for _ in range(100):
        entries = []
        targets = {}
        sizes = {}
        cid = 0
        for level in range(1, 11):
            n_honest = int(rng.integers(3, 11))
            honest = rng.normal(2.0, 1.0, n_honest)
            for q in honest:
                entries.append((cid, level, float(q)))
                cid += 1
            # plant one score five honest-sigma below the level's sample mean
            entries.append((cid, level, float(honest.mean() - 5.0)))
            targets[level] = cid
            sizes[level] = n_honest + 1
            cid += 1
        decision = access_control(entries, GateParams(a=0.5, phi=3.0))
        if decision.alphas:
            assert abs(sum(decision.alphas.values()) - 1.0) <= 1e-9
        gone = set(decision.removed_by_filter) | set(decision.removed_nonpositive)
        for level, planted in targets.items():
            if sizes[level] >= 4:
                eligible += 1
                removed += planted in gone
    rate = removed / eligible
    assert rate >= 0.95
    print(f"\n[acceptance 5] planted low scores removed: PASS "
          f"({removed}/{eligible} level-rounds, rate {rate:.1%})")


def test_backprop_matches_central_differences():
    rng = np.random.default_rng(3)
    worst_frac = 1.0
    for _ in range(20):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 6)),
                int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        assert nn.param_count(dims) <= 200
        seeded = nn.init_model(dims, seed=int(rng.integers(1_000_000)))
        # zero-init biases park dead samples exactly on the relu kink, where
        # no two-sided difference quotient exists; check at a generic point
        model = nn.Model(dims, seeded.params + rng.normal(0.0, 0.2,
                                                          seeded.params.size))
        x = rng.normal(size=(8, dims[0]))
        y = rng.integers(0, dims[-1], size=8)
        _, grad = nn.loss_and_gradient(dims, model.params, x, y)
        eps = 1e-6
        fd = np.empty_like(grad)
        for j in range(model.params.size):
            up = model.params.copy()
            up[j] += eps
            down = model.params.copy()
            down[j] -= eps
            lp, _ = nn.loss_and_gradient(dims, up, x, y)
            lm, _ = nn.loss_and_gradient(dims, down, x, y)
            fd[j] = (lp - lm) / (2.0 * eps)
        # below this scale the difference quotient is all roundoff; a
        # relative comparison there would measure the probe, not backprop
        scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-5)
        frac = float((np.abs(grad - fd) / scale < 1e-4).mean())
        assert frac >= 0.99
        worst_frac = min(worst_frac, frac)
    print(f"\n[acceptance 6] backprop vs central differences: PASS "
          f"(worst per-model agreement {worst_frac:.1%})")


@pytest.mark.slow
def test_desk_comparison_clean_parity_and_attack_margin():
    t0 = time.perf_counter()
    acc = {"clean_async": [], "clean_fedavg": [],
           "attacked_async": [], "attacked_fedavg": []}
    for seed in (0, 1, 2):
        for attacked in (False, True):
            overrides = [f"seed={seed}"]
            if attacked:
                # 30% of the 20-client population flips half its labels
                overrides += ["attack.count=6", "attack.flip_fraction=0.5"]
            cfg = config.resolve_config("desk", None, overrides)
            arm = "attacked" if attacked else "clean"
            res = experiment.run_async_experiment(cfg)
            acc[f"{arm}_async"].append(res["publisher"]["final_test_accuracy"])
            base = experiment.run_baseline_experiment(cfg, "fedavg")
            acc[f"{arm}_fedavg"].append(base["final_test_accuracy"])
    mean = {k: float(np.mean(v)) for k, v in acc.items()}
    clean_gap = mean["clean_async"] - mean["clean_fedavg"]
    attack_gap = mean["attacked_async"] - mean["attacked_fedavg"]
    elapsed = time.perf_counter() - t0
    assert clean_gap >= -0.005   # within half a point of FedAvg on clean data
    assert attack_gap >= 0.05    # at least five points ahead under attack
    assert elapsed < 300.0
    print(f"\n[acceptance 7] desk comparison over 3 seeds: PASS "
          f"(clean gap {clean_gap:+.4f} >= -0.005, "
          f"attack gap {attack_gap:+.4f} >= +0.05, {elapsed:.0f}s)")


@pytest.mark.slow
def test_equal_seeds_reproduce_artifacts_bytewise(tmp_path):
    cfg = config.preset_desk()
    for sub in ("async-1", "async-2"):
        experiment.run_async_experiment(cfg, out_dir=str(tmp_path / sub))
    for name in ASYNC_ARTIFACTS:
        assert filecmp.cmp(tmp_path / "async-1" / name,
                           tmp_path / "async-2" / name, shallow=False), name
    for sub in ("base-1", "base-2"):
        experiment.run_baseline_experiment(cfg, "fedavg",
                                           out_dir=str(tmp_path / sub))
    for name in BASELINE_ARTIFACTS:
        assert filecmp.cmp(tmp_path / "base-1" / name,
                           tmp_path / "base-2" / name, shallow=False), name
    print(f"\n[acceptance 8] equal seeds, bytewise-equal artifacts: PASS "
          f"({len(ASYNC_ARTIFACTS)} async + {len(BASELINE_ARTIFACTS)} baseline files)")


def test_fit_command_recovers_generating_curves(tmp_path):
    t0 = time.perf_counter()
    acp = AccuracyCurveParams()
    rows = ["effort,theta,accuracy"]
    for e in np.linspace(50.0, 15000.0, 8):
        for theta in np.arange(1, 11) / 10.0:
            rows.append(f"{float(e)!r},{float(theta)!r},"
                        f"{float(accuracy_curve(e, theta, acp))!r}")
    acc_csv = tmp_path / "accuracy_samples.csv"
    acc_csv.write_text("\n".join(rows) + "\n")
    rc = cli.main(["fit", str(acc_csv), "--model", "accuracy_curve",
                   "--out", str(tmp_path / "acc")])
    assert rc == 0
    acc_fit = json.loads((tmp_path / "acc" / "fit.json").read_text())
    assert acc_fit["rmse"] < 1e-3

    z = np.linspace(10.0, 4000.0, 60)
    theta = 1.0 - 10.559 * np.exp(-1.803 * z ** 0.155)
    q_csv = tmp_path / "quality_samples.csv"
    q_csv.write_text("effective_quantity,theta\n" + "\n".join(
        f"{float(a)!r},{float(b)!r}" for a, b in zip(z, theta)) + "\n")
    rc = cli.main(["fit", str(q_csv), "--model", "data_quality",
                   "--out", str(tmp_path / "qual")])
    assert rc == 0
    q_fit = json.loads((tmp_path / "qual" / "fit.json").read_text())
    assert q_fit["rmse"] < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[acceptance 9] noiseless curve recovery via fit command: PASS "
          f"(rmse {acc_fit['rmse']:.2e} / {q_fit['rmse']:.2e}, {elapsed:.1f}s)")


@pytest.mark.slow
def test_full_scale_mnist_run_reaches_reference_accuracy():
    # optional stretch target, roughly an hour of pure-numpy training;
    # needs the four IDX files reachable through MNIST_DIR
    if not os.environ.get("MNIST_DIR"):
        pytest.skip("set MNIST_DIR to run the full-scale MNIST check")
    t0 = time.perf_counter()
    cfg = config.PRESETS["paper-noattack"]()
    res = experiment.run_async_experiment(cfg)
    acc = res["publisher"]["final_test_accuracy"]
    elapsed = time.perf_counter() - t0
    assert abs(acc - 0.9055) <= 0.03
    assert elapsed < 3600.0
    print(f"\n[acceptance 7b] full-scale 100-client run: PASS "
          f"(accuracy {acc:.4f}, {elapsed:.0f}s)")


def test_fedprox_with_zero_mu_reduces_to_fedavg(tmp_path):
    cfg = config.resolve_config("desk", None, [
        "rounds=5", "partition.num_clients=8",
        "dataset.train_count=800", "dataset.test_count=200",
        "baseline.prox_mu=0.0"])
    avg = experiment.run_baseline_experiment(cfg, "fedavg",
                                             out_dir=str(tmp_path / "avg"))
    prox = experiment.run_baseline_experiment(cfg, "fedprox",
                                              out_dir=str(tmp_path / "prox"))
    assert avg["final_test_accuracy"] == prox["final_test_accuracy"]
    for name in ("rounds.csv", "model.bin"):
        assert filecmp.cmp(tmp_path / "avg" / name,
                           tmp_path / "prox" / name, shallow=False), name
    print("\n[acceptance 10] FedProx(mu=0) reduces to FedAvg: PASS "
          "(identical round history and model bytes)")
