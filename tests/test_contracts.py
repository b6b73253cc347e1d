import json
import math
import re

import numpy as np
import pytest

from contractfl import contracts
from contractfl.contracts import (AccuracyCurveParams, ContractEntry,
                                  ContractMenu, MarketModel, QualityParams)
from contractfl.errors import (ConfigurationError, ContractViolation,
                               InfeasibleEffort)


@pytest.fixture
def market():
    return MarketModel.uniform()


def two_level_market():
    # theta (0.5, 1.0), equal shares, unit effort cost xi*c*f^2 = 10
    return MarketModel(theta=np.array([0.5, 1.0]), p=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Quality score
# ---------------------------------------------------------------------------

def test_data_quality_frozen_value():
    # 1 - 10.559 * exp(-1.803 * 1000**0.155), high-precision reference
    got = contracts.data_quality(1000.0, 0.0)
    assert abs(got - 0.945149409654985) < 1e-12


def test_data_quality_floor_on_consumed_budget():
    # skew penalty 70 * s exceeds the sample count: floored, not negative
    assert contracts.data_quality(29, 1.8) == 0.01
    assert contracts.data_quality(0, 0.0) == 0.01  # z = 0 exactly


def test_data_quality_large_gamma4_reaches_its_limit_without_overflow():
    # 1000 ** 200 overflows a float; exp(-gamma2 * z ** gamma4) is then 0
    assert contracts.data_quality(1000, 0.0, QualityParams(gamma4=200)) == 1.0
    clamps = []
    assert contracts.data_quality(1000, 0.0, QualityParams(gamma4=120), clamps) == 1.0
    assert clamps == []


def test_data_quality_monotone_in_quantity():
    qs = [contracts.data_quality(d, 0.5) for d in (100, 300, 1000, 5000, 50000)]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    assert qs[-1] < 1.0


def test_data_quality_decreasing_in_skew():
    qs = [contracts.data_quality(1000, s) for s in (0.0, 0.5, 1.0, 1.8)]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_data_quality_validation():
    with pytest.raises(ConfigurationError):
        contracts.data_quality(-1, 0.0)
    with pytest.raises(ConfigurationError):
        contracts.data_quality(100, -0.5)


def test_quality_level_boundaries(market):
    assert contracts.quality_level(0.05, market) == 1
    assert contracts.quality_level(0.1, market) == 1  # boundary belongs to its level
    assert contracts.quality_level(0.100001, market) == 2
    assert contracts.quality_level(0.95, market) == 10
    assert contracts.quality_level(1.0, market) == 10
    with pytest.raises(ConfigurationError):
        contracts.quality_level(0.0, market)
    with pytest.raises(ConfigurationError):
        contracts.quality_level(float("nan"), market)


def test_quality_level_clamps_above_top(market):
    small = MarketModel(theta=np.array([0.3, 0.6]), p=np.array([0.5, 0.5]))
    clamps = []
    assert contracts.quality_level(0.9, small, clamps) == 2
    assert clamps == ["quality above the top level"]
    assert contracts.quality_level(0.9, small) == 2  # without a list, not recorded


# ---------------------------------------------------------------------------
# Accuracy response curve
# ---------------------------------------------------------------------------

def test_accuracy_curve_frozen_value():
    got = contracts.accuracy_curve(5000.0, 0.9)
    assert abs(got - 0.5562597254996012) < 1e-12


def test_accuracy_curve_saturation():
    assert abs(contracts.accuracy_curve(1e9, 1.0) - 0.891) < 1e-12


def test_accuracy_curve_vectorized():
    e = np.array([0.0, 5000.0, 1e9])
    got = contracts.accuracy_curve(e, 1.0)
    assert got.shape == (3,)
    assert abs(got[0] - (0.459 + 0.432 - 0.459)) < 1e-12  # zero effort
    assert abs(got[2] - 0.891) < 1e-12
    assert (np.diff(got) > 0).all()


# ---------------------------------------------------------------------------
# Effort cost coefficients and rewards
# ---------------------------------------------------------------------------

def test_effort_cost_coeffs_two_level_hand_computed():
    # l_2 = u p_2 = 5; l_1 = u p_1 + u (1/0.5 - 1/1) * theta_2 p_2 = 5 + 5 = 10
    l = contracts.effort_cost_coeffs(two_level_market())
    assert np.allclose(l, [10.0, 5.0], rtol=0, atol=1e-12)


def test_effort_cost_coeffs_uniform_ten_level(market):
    # closed form for the uniform market: l_n = 0.5 + 55 / (n (n+1)), l_10 = 1
    want = [0.5 + 55.0 / (n * (n + 1)) for n in range(1, 10)] + [1.0]
    got = contracts.effort_cost_coeffs(market)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert (np.diff(got) < 0).all()  # higher levels bear less virtual cost


def test_rewards_from_efforts_hand_computed():
    m = two_level_market()
    r = contracts.rewards_from_efforts(np.array([100.0, 200.0]), m)
    # R_1 = (u e_1 + E_com) / theta_1 = (1000 + 20) / 0.5 = 2040
    # R_2 = R_1 + u (e_2 - e_1) / theta_2 = 2040 + 1000
    assert np.allclose(r, [2040.0, 3040.0], rtol=0, atol=1e-12)


def test_rewards_require_positive_nondecreasing_efforts():
    m = two_level_market()
    with pytest.raises(ContractViolation):
        contracts.rewards_from_efforts(np.array([200.0, 100.0]), m)
    with pytest.raises(ContractViolation):
        contracts.rewards_from_efforts(np.array([0.0, 100.0]), m)


def test_publisher_constant_uniform(market):
    # -(E_com / theta_1) * sum theta_n p_n = -(20 / 0.1) * 0.55
    assert abs(contracts.publisher_constant(market) + 110.0) < 1e-12


# ---------------------------------------------------------------------------
# Per-level objective
# ---------------------------------------------------------------------------

def test_per_level_objective_frozen_value(market):
    l = contracts.effort_cost_coeffs(market)
    got = contracts.per_level_objective(1e4, 10, l, market)
    assert abs(got - 848598.7978751228) < 1e-6  # high-precision reference


def test_per_level_objective_infeasible_effort(market):
    l = contracts.effort_cost_coeffs(market)
    # e c / f >= t_max - t_com leaves no completion slack
    with pytest.raises(InfeasibleEffort):
        contracts.per_level_objective(19998.0, 1, l, market)
    with pytest.raises(InfeasibleEffort):
        contracts.per_level_objective(3e4, 1, l, market)


def test_per_level_objective_vectorized(market):
    l = contracts.effort_cost_coeffs(market)
    e = np.array([1.0, 100.0, 1e4])
    vals = contracts.per_level_objective(e, 5, l, market)
    assert vals.shape == (3,)
    singles = [contracts.per_level_objective(float(x), 5, l, market) for x in e]
    assert np.allclose(vals, singles, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def test_solve_contract_paper_market(market):
    menu = contracts.solve_contract(market)
    efforts = menu.efforts
    rewards = menu.rewards
    assert menu.n_levels == 10
    # level 1's interior stationary point is dominated by the lower boundary
    assert efforts[0] == contracts.EFFORT_MIN
    assert abs(rewards[0] - 300.0) < 1e-9  # (10 * 1 + 20) / 0.1
    assert (np.diff(efforts) >= 0).all()
    assert (np.diff(rewards) >= 0).all()
    assert (efforts[1:] > 9000).all()  # interior optima for levels 2..10
    assert efforts[-1] < (market.t_max - market.t_com) * market.f / market.c


def test_solve_contract_rewards_match_closed_form(market):
    menu = contracts.solve_contract(market)
    want = contracts.rewards_from_efforts(menu.efforts, market)
    assert np.allclose(menu.rewards, want, rtol=1e-12, atol=0)


def test_solve_contract_provenance(market):
    menu = contracts.solve_contract(market)
    prov = menu.provenance
    assert prov["grid_points"] == contracts.GRID_POINTS
    assert len(prov["objective_per_level"]) == 10
    # publisher utility = sum of per-level bests plus the constant term
    want = sum(prov["objective_per_level"]) + contracts.publisher_constant(market)
    assert abs(prov["publisher_utility"] - want) < 1e-6


def test_solve_contract_verifies(market):
    menu = contracts.solve_contract(market)
    report = contracts.verify_contract(menu, market)
    assert report.ok
    assert report.violations == ()
    assert report.binding_ir == (1,)  # rents grow strictly above level 1
    # adjacent downward self-selection binds by construction at every level
    assert report.binding_ic_down == tuple((n, n - 1) for n in range(2, 11))


def test_solve_contract_flat_objective_hits_lower_bound():
    # with no accuracy payoff and no deadline payoff weight, paying for
    # effort is pure cost: the optimum is the smallest admissible effort
    m = MarketModel.uniform(lambda1=0.0, lambda2=0.0)
    menu = contracts.solve_contract(m)
    assert np.allclose(menu.efforts, contracts.EFFORT_MIN, rtol=0, atol=1e-9)


def test_solve_contract_bunching_fails_loudly():
    # a thin middle level squeezed under a big quality jump carries a huge
    # virtual cost per unit of mass, so its optimal effort collapses below
    # level 1's; the separable solver must refuse rather than emit a menu
    # that breaks self-selection
    m = MarketModel(theta=np.array([0.09, 0.1, 0.9]), p=np.array([0.1, 0.01, 0.89]))
    ratios = contracts.effort_cost_coeffs(m) / m.p
    assert ratios[1] > ratios[0]  # the middle level is the squeezed one
    with pytest.raises(ContractViolation, match="level 1 .* level 2 .*bunching") as exc:
        contracts.solve_contract(m)
    high, low = _bunching_efforts(exc)
    assert high > low


def _bunching_efforts(exc) -> tuple[float, float]:
    """The two efforts a bunching error names, each printed with repr, so
    that two different efforts never print as the same number."""
    found = re.findall(r"\(([^()]+)\)", str(exc.value))
    assert len(found) == 2 and all(repr(float(x)) == x for x in found), str(exc.value)
    return float(found[0]), float(found[1])


def test_solve_contract_refuses_a_measured_prior_that_needs_bunching():
    # paper-synth's level shares at seed 0 (72/3/1/6/5/7/6 clients on levels
    # 1/4/5/7/8/9/10): level 1 wants about 11,027 samples and level 2 one
    m = MarketModel(theta=np.arange(1, 11) / 10.0,
                    p=np.array([72, 0, 0, 3, 1, 0, 6, 5, 7, 6]) / 100.0)
    with pytest.raises(ContractViolation, match="level 1 .* level 2 .*bunching") as exc:
        contracts.solve_contract(m)
    high, low = _bunching_efforts(exc)
    assert high > 11000.0 and low == contracts.EFFORT_MIN


@pytest.mark.parametrize("market, acp", [
    # desk's market and curve with nearly free effort
    (MarketModel.uniform(5, xi=1e-8), AccuracyCurveParams(beta4=1.0)),
    # the paper market with cheap effort
    (MarketModel.uniform(10, xi=1e-6), AccuracyCurveParams()),
], ids=["desk-xi-1e-8", "paper-xi-1e-6"])
def test_solve_contract_lifts_an_effort_dip_that_costs_nothing(market, acp, monkeypatch):
    # on a flat objective, golden-section search places neighbouring levels'
    # optima up to 2e-4 samples apart in either order; lifting the lower one
    # costs it about 1e-16 of its objective, which is no reason to refuse
    raw = []
    golden = contracts._golden_max

    def recording(*args):
        x, fx = golden(*args)
        raw.append(x)
        return x, fx

    monkeypatch.setattr(contracts, "_golden_max", recording)
    menu = contracts.solve_contract(market, acp)
    assert (np.diff(raw) < 0).any()  # the search did dip
    assert (np.diff(menu.efforts) >= 0).all()
    assert contracts.verify_contract(menu, market).ok
    l = contracts.effort_cost_coeffs(market)
    lost = [menu.provenance["objective_per_level"][n]
            - contracts.per_level_objective(menu.efforts[n], n + 1, l, market, acp)
            for n in range(market.n_levels)]
    assert lost == [0.0] * market.n_levels


def test_solve_contract_infeasible_deadline():
    with pytest.raises(ConfigurationError, match="deadline"):
        contracts.solve_contract(MarketModel.uniform(t_max=10.2, t_com=10.0))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_contract_hand_menu_ic_slack():
    m = two_level_market()
    menu = ContractMenu(entries=(
        ContractEntry(1, 0.5, 0.5, 100.0, 2040.0),
        ContractEntry(2, 1.0, 0.5, 200.0, 3040.0),
    ))
    report = contracts.verify_contract(menu, m)
    assert report.ok
    # level 1 sits exactly at its participation bound
    assert abs(report.ir[0]) < 1e-9
    assert abs(report.ir[1] - 1020.0) < 1e-9
    # misreporting down to level 1 costs level 2 exactly its information rent
    assert abs(report.ic_gap[1, 0] - 0.0) < 1e-9
    # level 1 claiming level 2's contract loses 500
    assert abs(report.ic_gap[0, 1] - 500.0) < 1e-9


@pytest.mark.parametrize("market, acp", [
    (MarketModel.uniform(5), AccuracyCurveParams(beta4=1.0)),  # desk
    (MarketModel.uniform(10), AccuracyCurveParams()),          # paper
], ids=["desk", "paper"])
def test_verify_contract_prices_through_market_utility_bitwise(market, acp):
    menu = contracts.solve_contract(market, acp)
    report = contracts.verify_contract(menu, market)
    util = np.array([[market.utility(market.theta[n], menu.entry(m + 1).reward,
                                     menu.entry(m + 1).effort)
                      for m in range(market.n_levels)] for n in range(market.n_levels)])
    assert report.ir.tobytes() == np.diag(util).tobytes()
    assert report.ic_gap.tobytes() == (np.diag(util)[:, None] - util).tobytes()


def test_verify_contract_detects_violations():
    m = two_level_market()
    menu = ContractMenu(entries=(
        ContractEntry(1, 0.5, 0.5, 100.0, 2040.0),
        ContractEntry(2, 1.0, 0.5, 200.0, 10000.0),
    ))
    report = contracts.verify_contract(menu, m)
    assert not report.ok
    assert any("level 1" in v for v in report.violations)

    # reward below cost breaks participation
    single = MarketModel(theta=np.array([0.5]), p=np.array([1.0]))
    low = ContractMenu(entries=(ContractEntry(1, 0.5, 1.0, 100.0, 500.0),))
    report = contracts.verify_contract(low, single)
    assert not report.ok
    assert any("participation" in v or "IR" in v for v in report.violations)


# ---------------------------------------------------------------------------
# Menu plumbing
# ---------------------------------------------------------------------------

def test_menu_round_trip():
    # contracts.json holds the menu as to_dict() writes it; its rows give the
    # solved efforts and rewards back bit for bit
    menu = contracts.solve_contract(MarketModel.uniform())
    rows = json.loads(json.dumps(menu.to_dict()))["levels"]
    assert np.array_equal([r["effort"] for r in rows], menu.efforts)
    assert np.array_equal([r["reward"] for r in rows], menu.rewards)


def test_menu_rejects_decreasing_rows():
    with pytest.raises(ContractViolation):
        ContractMenu(entries=(
            ContractEntry(1, 0.5, 0.5, 200.0, 100.0),
            ContractEntry(2, 1.0, 0.5, 100.0, 200.0),
        ))


def test_menu_entry_lookup():
    menu = contracts.solve_contract(MarketModel.uniform())
    assert menu.entry(1).level == 1
    assert menu.entry(10).level == 10
    with pytest.raises(ConfigurationError):
        menu.entry(0)
    with pytest.raises(ConfigurationError):
        menu.entry(11)


# ---------------------------------------------------------------------------
# Market validation
# ---------------------------------------------------------------------------

def test_market_validation():
    with pytest.raises(ConfigurationError):
        MarketModel(theta=np.array([0.5, 0.5]), p=np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        MarketModel(theta=np.array([0.5, 1.2]), p=np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        MarketModel(theta=np.array([0.5, 1.0]), p=np.array([0.5, 0.6]))
    with pytest.raises(ConfigurationError):
        MarketModel.uniform(t_max=5.0, t_com=10.0)
    with pytest.raises(ConfigurationError):
        MarketModel.uniform(xi=-1.0)
    with pytest.raises(ConfigurationError):
        MarketModel.uniform(c=-1.0)
    with pytest.raises(ConfigurationError):
        MarketModel.uniform(0)
    for name in ("t_max", "lambda1", "e_com"):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got inf$"):
            MarketModel.uniform(**{name: float("inf")})


def test_market_unit_effort_cost():
    assert MarketModel.uniform().unit_effort_cost == 10.0
    assert MarketModel.uniform(xi=3.0, c=2.0, f=2.0).unit_effort_cost == 24.0


# ---------------------------------------------------------------------------
# Client-side helpers
# ---------------------------------------------------------------------------

def test_local_epochs_floor_and_clamp():
    assert contracts.local_epochs(5000.0, 600) == 8
    assert contracts.local_epochs(100.0, 600) == 1  # clamped up to one pass
    assert contracts.local_epochs(600.0, 600) == 1
    assert contracts.local_epochs(1199.0, 600) == 1
    assert contracts.local_epochs(1200.0, 600) == 2
    with pytest.raises(ConfigurationError):
        contracts.local_epochs(0.0, 600)
    with pytest.raises(ConfigurationError):
        contracts.local_epochs(100.0, 0)


def test_market_utility_hand_computed():
    m = two_level_market()
    menu = ContractMenu(entries=(
        ContractEntry(1, 0.5, 0.5, 100.0, 2040.0),
        ContractEntry(2, 1.0, 0.5, 200.0, 3040.0),
    ))
    # realized effort tau * d_k = contracted effort: utility is exactly IR slack
    assert abs(m.utility(m.theta[0], menu.entry(1).reward, 2 * 50)) < 1e-12
    assert abs(m.utility(m.theta[1], menu.entry(2).reward, 4 * 50) - 1020.0) < 1e-12
    # rounding tau down below the contracted effort leaves extra utility
    assert m.utility(m.theta[0], menu.entry(1).reward, 1 * 50) > 0


def test_market_utility_is_the_verified_ir_slack_bitwise():
    # settlement and verification price an effort through one payoff:
    # when the realized effort tau * d_k is the contracted effort, a client's
    # utility is the IR slack verify_contract reports for its level, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = MarketModel.uniform(
            4, xi=float(rng.uniform(0.1, 3.0)), c=float(rng.uniform(0.5, 9.0)),
            f=float(rng.uniform(0.5, 2.5)), e_com=float(rng.uniform(1.0, 50.0)))
        d_k = int(rng.integers(1, 400))
        taus = np.sort(rng.integers(1, 20, size=4))
        efforts = (taus * d_k).astype(np.float64)
        rewards = contracts.rewards_from_efforts(efforts, m)
        menu = ContractMenu(tuple(
            ContractEntry(n + 1, float(m.theta[n]), float(m.p[n]),
                          float(efforts[n]), float(rewards[n]))
            for n in range(4)))
        ir = contracts.verify_contract(menu, m).ir
        for n in range(1, 5):
            got = m.utility(m.theta[n - 1], menu.entry(n).reward,
                            int(taus[n - 1]) * d_k)
            assert np.float64(got).tobytes() == ir[n - 1].tobytes()


# ---------------------------------------------------------------------------
# Cross-checks between curve and solver
# ---------------------------------------------------------------------------

def test_solved_effort_dominates_fine_local_sweep(market):
    menu = contracts.solve_contract(market)
    l = contracts.effort_cost_coeffs(market)
    for n in (2, 6, 10):
        e_star = menu.efforts[n - 1]
        best = contracts.per_level_objective(e_star, n, l, market)
        sweep = np.linspace(max(contracts.EFFORT_MIN, e_star - 50.0),
                            e_star + 50.0, 4001)
        vals = contracts.per_level_objective(sweep, n, l, market)
        assert best >= vals.max() - 1e-6


def test_solver_golden_refinement_beats_coarse_grid(market, monkeypatch):
    fine = contracts.solve_contract(market)
    monkeypatch.setattr(contracts, "GRID_POINTS", 64)
    coarse = contracts.solve_contract(market)
    l = contracts.effort_cost_coeffs(market)
    for n in range(2, 11):
        fc = contracts.per_level_objective(coarse.efforts[n - 1], n, l, market)
        ff = contracts.per_level_objective(fine.efforts[n - 1], n, l, market)
        # refinement keeps each level within a hair of the dense answer
        assert fc >= ff - 1e-3 * abs(ff)
