import logging
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from common import make_view, tiny_config
from contractfl import config, experiment, nn, simulation
from contractfl.contracts import MarketModel, solve_contract
from contractfl.errors import ConfigurationError
from contractfl.seeds import STREAM_TRAIN, child_seed
from contractfl.simulation import (AsyncSimulation, Client, GateParams,
                                   RoundLedger, TimingParams, UploadRecord,
                                   access_control, access_indicator,
                                   settle_rewards)

MARKET = MarketModel.uniform()
MENU = solve_contract(MARKET)


def easy_client(cid, n=6, flip=False, seed=0):
    """1-d two-blob client data; trivially separable unless flipped."""
    rng = np.random.default_rng(seed + cid)
    y = np.arange(n) % 2
    x = np.where(y == 0, 0.1, 0.9)[:, None] + rng.uniform(-0.05, 0.05, (n, 1))
    if flip:
        y = rng.integers(0, 2, size=n)  # labels carry no signal
    return make_view(np.clip(x, 0, 1), y, 2)


def sim_client(cid, data, delay, tau=2, level=5, theta=0.5, reward=100.0):
    return Client(client_id=cid, data=data, emd=0.0, theta=theta, level=level,
                  per_epoch_delay=delay, effort=float(tau * data.d_k), reward=reward)


def eval_sets(seed=1):
    rng = np.random.default_rng(seed)
    y = np.arange(40) % 2
    x = np.where(y == 0, 0.1, 0.9)[:, None] + rng.uniform(-0.05, 0.05, (40, 1))
    val = make_view(np.clip(x, 0, 1), y, 2)
    y2 = np.arange(30) % 2
    x2 = np.where(y2 == 0, 0.1, 0.9)[:, None] + rng.uniform(-0.05, 0.05, (30, 1))
    test = make_view(np.clip(x2, 0, 1), y2, 2)
    return val, test


def make_sim(clients, rounds_seed=7, gate=GateParams(), delta_t=1.0,
             lr=0.5, batch_size=2):
    val, test = eval_sets()
    model = nn.init_model((1, 4, 4, 2), seed=3)
    timing = TimingParams(delta_t=delta_t)
    return AsyncSimulation(model, clients, timing, gate, val_data=val,
                           test_data=test, master_seed=rounds_seed, lr=lr,
                           batch_size=batch_size)


# ---------------------------------------------------------------------------
# Cost bookkeeping
# ---------------------------------------------------------------------------

def test_round_costs_hand_computed():
    c = sim_client(0, easy_client(0, n=100), delay=1.5, tau=4)
    market = MarketModel.uniform(c=5.0, f=1.0, xi=2.0, t_com=10.0, e_com=20.0)
    assert market.energy(c.tau * c.d_k) == 4020.0  # 2 * 5 * 1 * (4 * 100) + 20
    # the cycle occupies 4 epochs * 1.5 s of simulated time
    sim = make_sim([c], delta_t=8.0)
    assert [r.sim_time for r in sim.run_round().uploads] == [6.0]


def test_round_costs_three_epoch_example():
    c = sim_client(0, easy_client(0, n=100), delay=1.0, tau=3)
    assert MARKET.energy(c.tau * c.d_k) == 3020.0


# ---------------------------------------------------------------------------
# Epochs derived from the contracted effort
# ---------------------------------------------------------------------------

def _with_effort(effort, d_k=100):
    return Client(client_id=0, data=easy_client(0, n=d_k), emd=0.0, theta=0.5, level=1,
                  per_epoch_delay=1.0, effort=effort, reward=1.0)


@pytest.mark.parametrize("effort,tau,clamped", [
    (100.0, 1, False),                     # exactly one pass
    (math.nextafter(100.0, 0.0), 1, True),  # just below one pass: clamped up
    (250.0, 2, False),                     # 2.5 passes round down to 2
])
def test_client_epochs_at_the_edges(effort, tau, clamped):
    c = _with_effort(effort)
    assert (c.tau, c.tau_clamped) == (tau, clamped)


def test_client_without_a_contract_has_no_epochs():
    c = _with_effort(None)
    assert c.tau is None and c.tau_clamped is None


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
       st.integers(1, 2000))
def test_client_is_clamped_exactly_below_one_pass(effort, d_k):
    c = _with_effort(effort, d_k)
    assert c.tau_clamped == (effort < d_k)


# ---------------------------------------------------------------------------
# Admission scoring
# ---------------------------------------------------------------------------

GATE = GateParams(a=0.5, epsilon=2.0, phi=3.0)


def test_access_indicator_hand_computed():
    assert abs(access_indicator(0.5, 0.8, 1, GATE) - 0.1) < 1e-15
    assert access_indicator(0.5, 0.8, 0, GATE) == 0.5 * 0.8
    assert access_indicator(-0.3, 1.0, 0, GATE) == -0.3  # negative passes through
    # no staleness decay
    assert access_indicator(1.0, 1.0, 3, GateParams(epsilon=0.0)) == 1.0


def test_access_indicator_validation():
    with pytest.raises(ConfigurationError):
        access_indicator(0.5, 0.8, -1, GATE)
    with pytest.raises(ConfigurationError):
        access_indicator(0.5, 1.2, 0, GATE)
    with pytest.raises(ConfigurationError):
        GateParams(epsilon=-2.0)


def test_gate_params_own_their_range_checks():
    # the only check of a, epsilon and phi; NaN fails it too, since a NaN
    # bound would pass every upload without a word
    for name in ("a", "epsilon", "phi"):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be >= 0, got -1"):
            GateParams(**{name: -1.0})
        with pytest.raises(ConfigurationError, match=rf"^{name} must be >= 0, got nan"):
            GateParams(**{name: math.nan})
    assert GateParams(a=0.0, epsilon=0.0, phi=0.0).phi == 0.0


def test_access_control_tight_branch_worked_example():
    entries = [(0, 3, 2.0), (1, 3, 1.9), (2, 3, 2.1), (3, 3, -1.0)]
    decision = access_control(entries, GATE)
    stats = decision.level_stats[3]
    assert stats.tight_branch  # |1.25 - 1.95| = 0.7 > 0.5
    assert abs(stats.mean - 1.25) < 1e-12
    assert abs(stats.median - 1.95) < 1e-12
    assert abs(stats.std - 1.3009611831257687) < 1e-12  # population std
    assert abs(stats.threshold - (-0.050961183125768745)) < 1e-12
    assert decision.removed_by_filter == (3,)
    assert tuple(decision.alphas) == (0, 1, 2)
    assert abs(decision.alphas[0] - 2.0 / 6.0) < 1e-12
    assert abs(decision.alphas[1] - 1.9 / 6.0) < 1e-12
    assert abs(decision.alphas[2] - 2.1 / 6.0) < 1e-12
    assert abs(sum(decision.alphas.values()) - 1.0) < 1e-12


def test_access_control_loose_branch_keeps_everything():
    entries = [(0, 1, 2.0), (1, 1, 2.1), (2, 1, 1.9)]
    decision = access_control(entries, GATE)
    stats = decision.level_stats[1]
    assert not stats.tight_branch  # mean == median == 2.0
    assert abs(stats.threshold - (2.0 - 3.0 * stats.std)) < 1e-12
    assert tuple(decision.alphas) == (0, 1, 2)
    assert decision.removed_by_filter == ()


def test_access_control_drops_nonpositive_survivors():
    # wide phi lets a negative score through the spread filter; the
    # nonpositive guard still keeps it out of the weights
    entries = [(7, 2, 0.5), (9, 2, -0.2)]
    decision = access_control(entries, GateParams(a=10.0, phi=3.0))
    assert decision.removed_by_filter == ()
    assert decision.removed_nonpositive == (9,)
    assert decision.alphas == {7: 1.0}


def test_access_control_all_removed_is_noop():
    decision = access_control([(0, 1, -0.5), (1, 1, -0.7)], GATE)
    assert decision.alphas == {}
    assert decision.removed_nonpositive == (0, 1)


def test_access_control_empty_round():
    decision = access_control([], GATE)
    assert decision.alphas == {}
    assert decision.level_stats == {}


def test_access_control_single_upload():
    decision = access_control([(4, 6, 0.42)], GATE)
    assert decision.alphas == {4: 1.0}


def test_access_control_levels_filtered_independently():
    # the bad upload is an outlier only within its own level
    entries = [(0, 1, 5.0), (1, 1, 5.1), (2, 1, 4.9), (3, 1, 0.1),
               (10, 9, 0.2), (11, 9, 0.25)]
    decision = access_control(entries, GATE)
    assert 3 in decision.removed_by_filter
    assert 10 in decision.alphas and 11 in decision.alphas


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10),
                          st.floats(-5, 5, allow_nan=False, width=32)),
                min_size=1, max_size=30))
def test_access_control_invariants(rows):
    entries = [(cid, level, float(q)) for cid, (level, q) in enumerate(rows)]
    decision = access_control(entries, GATE)
    ids = {cid for cid, _, _ in entries}
    assert set(decision.alphas) <= ids
    assert list(decision.alphas) == sorted(decision.alphas)  # ascending ids
    if decision.alphas:
        assert abs(sum(decision.alphas.values()) - 1.0) < 1e-9
        assert all(a > 0 for a in decision.alphas.values())
    # every upload is admitted or removed by exactly one of the two passes
    gone = decision.removed_by_filter + decision.removed_nonpositive
    assert len(gone) == len(set(gone)) and not set(gone) & set(decision.alphas)
    assert set(gone) | set(decision.alphas) == ids
    # every admitted upload cleared both the spread filter and the sign guard
    by_id = dict((cid, q) for cid, _, q in entries)
    for cid in decision.alphas:
        assert by_id[cid] > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=12))
@example([-0.0]).via("odd count, signed zero")
@example([-0.0, -0.0]).via("even count, signed zeros")
@example([1e300, -1e-300, 3.0, 7.5]).via("even count, wide magnitudes")
def test_median_matches_numpy_bitwise(values):
    # access_control takes its per-level median from a sort, so that a run
    # never imports numpy.ma; the value must be np.median's to the bit, also
    # where the two middle values overflow to infinity when added
    qs = np.array(values)
    with np.errstate(over="ignore"):
        assert (np.float64(simulation._median(qs)).tobytes()
                == np.float64(np.median(qs)).tobytes())


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def test_window_scheduling_and_staleness():
    a = sim_client(0, easy_client(0), delay=0.45, tau=2)  # busy at 0.9
    b = sim_client(1, easy_client(1), delay=0.75, tau=2)  # busy at 1.5
    sim = make_sim([a, b])
    first = sim.run_round()
    assert [r.client_id for r in first.uploads] == [0]
    assert first.uploads[0].staleness == 0
    assert first.uploads[0].sim_time == 0.9

    second = sim.run_round()
    ids = {r.client_id: r for r in second.uploads}
    assert set(ids) == {0, 1}
    # A restarted at 1.0 and finished at 1.9; B still carries its round-0 base
    assert ids[0].staleness == 0
    assert ids[1].staleness == 1
    assert ids[0].sim_time == 1.9
    assert ids[1].sim_time == 1.5


def test_window_boundary_is_inclusive():
    c = sim_client(0, easy_client(0), delay=0.5, tau=2)  # finishes at exactly 1.0
    sim = make_sim([c])
    ledger = sim.run_round()
    assert [r.client_id for r in ledger.uploads] == [0]


def test_slow_clients_make_noop_rounds():
    c = sim_client(0, easy_client(0), delay=30.0, tau=2)  # busy at 60
    sim = make_sim([c])
    before = sim.model.params.copy()
    ledgers = sim.run(3)
    assert all(lg.admitted_count == 0 for lg in ledgers)
    assert all(not lg.uploads for lg in ledgers)
    assert np.array_equal(sim.model.params, before)  # bitwise unchanged
    assert len({lg.val_loss for lg in ledgers}) == 1  # carried forward
    assert ledgers[0].test_loss == ledgers[2].test_loss


def test_run_warns_when_no_cycle_ends_inside_the_horizon(caplog):
    with caplog.at_level(logging.WARNING, logger="contractfl.simulation"):
        make_sim([sim_client(0, easy_client(0), delay=30.0, tau=2)]).run(3)  # busy at 60
    assert ["no client finishes" in r.message for r in caplog.records] == [True]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="contractfl.simulation"):
        make_sim([sim_client(0, easy_client(0), delay=1.4, tau=2)]).run(3)  # busy at 2.8
    assert not any("no client finishes" in r.message for r in caplog.records)


def test_run_warns_when_no_upload_ever_lowers_the_loss(caplog):
    def clients():
        return [sim_client(i, easy_client(i, n=8), delay=0.4 + 0.05 * i)
                for i in range(3)]

    with caplog.at_level(logging.WARNING, logger="contractfl.simulation"):
        ledgers = make_sim(clients(), lr=1e3).run(3)
    assert all(r.m <= 0 for lg in ledgers for r in lg.uploads)
    warned = [r.message for r in caplog.records if "no upload was admitted" in r.message]
    assert len(warned) == 1
    assert "9 uploads" in warned[0] and "training.lr" in warned[0]
    # an ordinary run, and a run with no uploads at all, do not warn
    for sim in (make_sim(clients()),
                make_sim([sim_client(0, easy_client(0), delay=30.0)])):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="contractfl.simulation"):
            sim.run(3)
        assert not any("no upload was admitted" in r.message for r in caplog.records)


def test_stale_upload_scored_against_its_base_round():
    a = sim_client(0, easy_client(0), delay=0.45, tau=2)
    b = sim_client(1, easy_client(1), delay=0.75, tau=2)
    sim = make_sim([b, a])  # order must not matter
    init = nn.init_model((1, 4, 4, 2), seed=3)
    val, _ = eval_sets()
    val0 = nn.evaluate(init, val)[0]
    # replay B's first cycle: trained on the round-0 model with its own stream
    seed = child_seed(7, STREAM_TRAIN, 1, 0)
    _, losses = nn.train_epochs_tracked(init, b.data, 2, 0.5, 2, seed)
    sim.run_round()
    second = sim.run_round()
    rec = {r.client_id: r for r in second.uploads}[1]
    assert rec.m == val0 - float(losses[-1])  # exact, not approximate
    assert rec.staleness == 1


def test_client_ids_must_be_unique():
    a = sim_client(0, easy_client(0), delay=0.5)
    b = sim_client(0, easy_client(1), delay=0.5)
    with pytest.raises(ConfigurationError):
        make_sim([a, b])


def test_clients_without_contract_terms_are_rejected_by_id():
    # prepare(cfg, solve_menu=False) leaves effort and reward None: such a
    # client has no cycle length, so the simulator refuses it when built
    cfg = tiny_config(**{"partition.num_clients": 4})
    clients = experiment.prepare(cfg, solve_menu=False).clients
    priced = sim_client(9, easy_client(9), delay=0.5)
    with pytest.raises(ConfigurationError, match=r"clients 0 1 2 3 have no contract terms"):
        make_sim([priced, *reversed(clients)])


# ---------------------------------------------------------------------------
# Admission, payment, refresh
# ---------------------------------------------------------------------------

def test_poor_upload_rejected_paid_nothing_and_refreshed():
    good1 = sim_client(0, easy_client(0, n=8), delay=0.4, tau=2, level=5)
    good2 = sim_client(1, easy_client(1, n=8), delay=0.5, tau=2, level=5)
    bad = sim_client(2, easy_client(2, n=8, flip=True), delay=0.45, tau=2, level=5)
    sim = make_sim([good1, good2, bad], gate=GateParams(a=0.05))
    ledger = sim.run_round()
    assert ledger.admitted_count == 2
    rec = {r.client_id: r for r in ledger.uploads}
    assert rec[0].admitted and rec[1].admitted
    assert not rec[2].admitted
    assert rec[2].alpha == 0.0
    books = {row["client_id"]: row for row in
             settle_rewards([ledger], sim.clients, MENU, MARKET)["clients"]}
    # the reject was paid nothing but billed for its wasted cycle
    assert books[2]["rewards_earned"] == 0.0
    assert books[2]["rewards_withheld"] == bad.reward
    assert books[2]["rejected"] == 1
    assert books[2]["energy_spent"] == MARKET.energy(bad.tau * bad.d_k)
    # the admitted clients were paid their contract rate
    assert books[0]["rewards_earned"] == good1.reward
    assert books[0]["admitted"] == 1
    # and the reject was handed the fresh model: its next cycle starts at the
    # window end on the round-1 base, so it uploads at 1.9 with staleness 0
    again = {r.client_id: r for r in sim.run_round().uploads}[2]
    assert again.sim_time == 1.0 + 2 * 0.45
    assert again.staleness == 0


def test_admitted_weights_match_scores():
    good1 = sim_client(0, easy_client(0, n=8), delay=0.4, tau=2)
    good2 = sim_client(1, easy_client(1, n=8), delay=0.5, tau=2)
    sim = make_sim([good1, good2])
    ledger = sim.run_round()
    recs = {r.client_id: r for r in ledger.uploads}
    if ledger.admitted_count == 2:
        total = recs[0].q + recs[1].q
        assert abs(recs[0].alpha - recs[0].q / total) < 1e-12
        assert abs(recs[0].alpha + recs[1].alpha - 1.0) < 1e-12


def test_aggregation_applies_weighted_deltas():
    cl = sim_client(0, easy_client(0, n=8), delay=0.4, tau=2)
    sim = make_sim([cl])
    init_params = sim.model.params.copy()
    seed = child_seed(7, STREAM_TRAIN, 0, 0)
    model0 = nn.Model((1, 4, 4, 2), init_params)
    trained, _ = nn.train_epochs_tracked(model0, cl.data, 2, 0.5, 2, seed)
    ledger = sim.run_round()
    assert ledger.admitted_count == 1
    # single admitted upload with alpha 1: the delta is applied whole
    assert np.allclose(sim.model.params,
                       init_params + (trained.params - init_params),
                       rtol=0, atol=1e-12)


def test_cycles_train_at_upload_and_deltas_die_before_evaluation(monkeypatch):
    # a cycle holds its base model, not a trained result: building the
    # simulator trains nothing, and a round's deltas do not outlive its merge
    clients = [sim_client(i, easy_client(i, n=8), delay=0.3 + 0.05 * i, tau=2)
               for i in range(4)]
    trained = []
    train = nn.train_epochs_tracked

    def counting(model, data, *args, **kwargs):
        trained.append(id(data))
        return train(model, data, *args, **kwargs)

    monkeypatch.setattr(nn, "train_epochs_tracked", counting)
    sim = make_sim(clients)
    assert trained == []
    assert all(cycle.base is sim.model for cycle in sim._cycles.values())

    merged, checked = [], []
    aggregate, evaluate = nn.aggregate, nn.evaluate

    def recording(base, deltas, weights):
        merged.extend(weakref.ref(d) for d in deltas)
        return aggregate(base, deltas, weights)

    def checking(model, data):
        if merged and not checked:
            held = [i for i, ref in enumerate(merged) if ref() is not None]
            assert not held, f"merged deltas {held} are still held"
            checked.append(True)
        return evaluate(model, data)

    monkeypatch.setattr(nn, "aggregate", recording)
    monkeypatch.setattr(nn, "evaluate", checking)
    ledger = sim.run_round()
    assert ledger.admitted_count >= 2
    assert len(merged) == ledger.admitted_count
    assert checked
    # each uploader was trained in this round, once, in client order
    owner = {id(c.data): c.client_id for c in clients}
    assert [owner[i] for i in trained] == [r.client_id for r in ledger.uploads]


def test_full_run_deterministic():
    def build():
        return [sim_client(i, easy_client(i, n=6 + 2 * i), delay=0.3 + 0.2 * i, tau=2)
                for i in range(4)]
    sim1 = make_sim(build())
    sim2 = make_sim(build())
    l1 = sim1.run(5)
    l2 = sim2.run(5)
    assert np.array_equal(sim1.model.params, sim2.model.params)
    assert [lg.val_loss for lg in l1] == [lg.val_loss for lg in l2]
    assert [r for lg in l1 for r in lg.uploads] \
        == [r for lg in l2 for r in lg.uploads]


def test_run_validation():
    sim = make_sim([sim_client(0, easy_client(0), delay=0.5)])
    with pytest.raises(ConfigurationError):
        sim.run(0)


# ---------------------------------------------------------------------------
# Settlement and artifacts
# ---------------------------------------------------------------------------

def _finished_sim():
    clients = [sim_client(i, easy_client(i, n=8), delay=0.3 + 0.15 * i, tau=2,
                          level=5 if i < 2 else 7, reward=100.0 + i)
               for i in range(3)]
    sim = make_sim(clients)
    ledgers = sim.run(4)
    return sim, ledgers


def test_settle_rewards_books_balance():
    sim, ledgers = _finished_sim()
    result = simulation.settle_rewards(ledgers, sim.clients, MENU, MARKET)
    rows = result["clients"]
    assert [r["client_id"] for r in rows] == [0, 1, 2]
    for row, c in zip(rows, sim.clients):
        # replay each client's books upload by upload from the ledgers
        earned = energy = 0.0
        admitted = rejected = 0
        for r in (r for lg in ledgers for r in lg.uploads if r.client_id == c.client_id):
            energy += MARKET.energy(c.tau * c.d_k)
            if r.admitted:
                earned += c.reward
                admitted += 1
            else:
                rejected += 1
        assert row["rewards_earned"] == earned
        assert row["uploads"] == admitted + rejected
        assert (row["admitted"], row["rejected"]) == (admitted, rejected)
        assert abs(row["realized_utility"] - (earned - energy)) < 1e-9
    pub = result["publisher"]
    assert abs(pub["total_paid"] - sum(r["rewards_earned"] for r in rows)) < 1e-9
    assert abs(sum(pub["paid_by_level"].values()) - pub["total_paid"]) < 1e-9
    assert pub["rounds"] == 4
    assert pub["final_test_accuracy"] == ledgers[-1].test_accuracy


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_settle_rewards_books_follow_the_ledgers(data):
    rates = data.draw(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=5))
    levels = data.draw(st.lists(st.integers(1, MARKET.n_levels),
                                min_size=len(rates), max_size=len(rates)))
    clients = [sim_client(i, easy_client(i), delay=1.0, level=lv, reward=rate)
               for i, (rate, lv) in enumerate(zip(rates, levels))]
    # per round and client: no upload (None), rejected (False) or admitted (True)
    verdicts = data.draw(st.lists(
        st.lists(st.sampled_from([None, False, True]),
                 min_size=len(rates), max_size=len(rates)), max_size=12))
    ledgers = [
        RoundLedger(round=t, time_end=t + 1.0,
                    uploads=tuple(UploadRecord(cid, levels[cid], 0, 0.0, 0.0, t + 0.5,
                                               admitted=v)
                                  for cid, v in enumerate(row) if v is not None),
                    level_stats={}, val_loss=0.0, test_loss=0.0, test_accuracy=0.0)
        for t, row in enumerate(verdicts)]
    assert [lg.admitted_count for lg in ledgers] == [row.count(True) for row in verdicts]
    result = settle_rewards(ledgers, clients, MENU, MARKET)
    for row, c in zip(result["clients"], clients):
        column = [r[c.client_id] for r in verdicts]
        uploads = len(column) - column.count(None)
        assert row["uploads"] == uploads
        assert row["admitted"] == column.count(True)
        assert row["admitted"] + row["rejected"] == uploads
        assert math.isclose(row["rewards_earned"] + row["rewards_withheld"],
                            c.reward * uploads, rel_tol=1e-12)
    pub = result["publisher"]
    assert math.isclose(pub["total_paid"], sum(pub["paid_by_level"].values()),
                        rel_tol=1e-12)


def _driver_ledgers(out_dir, monkeypatch):
    """Run the async driver on a small synthetic population into out_dir and
    return the ledgers it settled: the records its CSV files write out."""
    seen = []

    def spy(ledgers, *args):
        seen.append(ledgers)
        return settle_rewards(ledgers, *args)

    monkeypatch.setattr(experiment, "settle_rewards", spy)
    cfg = config.resolve_config("desk", None, [
        "rounds=4", "partition.num_clients=6", "dataset.train_count=400",
        "dataset.test_count=120", "partition.max_classes_per_client=10"])
    experiment.run_async_experiment(cfg, str(out_dir))
    return seen[0]


def test_round_summary_csv_schema(tmp_path, monkeypatch):
    ledgers = _driver_ledgers(tmp_path, monkeypatch)
    lines = (tmp_path / "rounds.csv").read_text().splitlines()
    assert lines[0] == "round,test_loss,test_accuracy,admitted_count"
    # one line per round, floats in repr, which round-trips exactly
    assert lines[1:] == [f"{lg.round},{lg.test_loss!r},{lg.test_accuracy!r},"
                         f"{lg.admitted_count}" for lg in ledgers]
    assert len(ledgers) == 4


def test_ledger_csv_schema(tmp_path, monkeypatch):
    ledgers = _driver_ledgers(tmp_path, monkeypatch)
    lines = (tmp_path / "ledger.csv").read_text().splitlines()
    assert lines[0] == "round,sim_time,client_id,level,staleness,m,q,admitted,alpha"
    # one line per upload in round order, the admission flag as 0/1
    assert lines[1:] == [f"{lg.round},{r.sim_time!r},{r.client_id},{r.level},"
                         f"{r.staleness},{r.m!r},{r.q!r},{int(r.admitted)},{r.alpha!r}"
                         for lg in ledgers for r in lg.uploads]
    assert lines[1:] and {line.split(",")[7] for line in lines[1:]} <= {"0", "1"}


def test_timing_params_validation():
    with pytest.raises(ConfigurationError):
        TimingParams(delta_t=0.0)
    with pytest.raises(ConfigurationError):
        TimingParams(delay_lo=2.0, delay_hi=0.5)
