"""AsyncSimulation against an independent event-driven reference, bit for bit.

The reference is written from the simulator's documented rules, not from its
code. It keeps each client's cycle start time, base round and base model,
and trains a cycle only when the cycle ends inside a window, with the
documented seed child_seed(master, STREAM_TRAIN, client_id, base_round). It
scores with access_indicator, gates with access_control and merges with
nn.aggregate. Hypothesis draws small populations; every ledger field, the
validation-loss history and the final parameters must match bitwise.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from common import as_view, blob_data
from contractfl import nn
from contractfl.seeds import STREAM_TRAIN, child_seed
from contractfl.simulation import (AsyncSimulation, Client, GateParams, RoundLedger,
                                   TimingParams, UploadRecord, access_control,
                                   access_indicator)

GATE, SEED, BATCH = GateParams(a=0.5, epsilon=2.0, phi=3.0), 7, 2


def reference(model, clients, taus, dt, val, test, lr, rounds):
    val_losses, (test_loss, test_acc) = [nn.evaluate(model, val)[0]], nn.evaluate(model, test)
    cycles = {c.client_id: (0.0, 0, model) for c in clients}  # start, base round, base
    ledgers = []
    for t in range(rounds):
        lo, hi = t * dt, (t + 1) * dt
        ups = []  # (client, finish, staleness, m, q, delta)
        for c in sorted(clients, key=lambda c: c.client_id):
            start, base, base_model = cycles[c.client_id]
            tau = taus[c.client_id]
            finish = start + tau * c.per_epoch_delay
            if lo < finish <= hi:
                seed = child_seed(SEED, STREAM_TRAIN, c.client_id, base)
                trained, losses = nn.train_epochs_tracked(base_model, c.data, tau, lr,
                                                          BATCH, seed)
                m = val_losses[base] - float(losses[-1])
                q = access_indicator(m, c.theta, t - base, GATE)
                ups.append((c, finish, t - base, m, q, trained.params - base_model.params))
        decision = access_control([(u[0].client_id, u[0].level, u[4]) for u in ups], GATE)
        kept = sorted(decision.alphas)
        if kept:
            delta = {u[0].client_id: u[5] for u in ups}
            model = nn.aggregate(model, [delta[cid] for cid in kept],
                                 [decision.alphas[cid] for cid in kept])
            test_loss, test_acc = nn.evaluate(model, test)
        val_losses.append(nn.evaluate(model, val)[0] if kept else val_losses[-1])
        records = tuple(UploadRecord(c.client_id, c.level, s, m, q, finish,
                                     c.client_id in kept, decision.alphas.get(c.client_id, 0.0))
                        for c, finish, s, m, q, _ in ups)
        for c, *_ in ups:
            cycles[c.client_id] = (hi, t + 1, model)
        ledgers.append(RoundLedger(t, hi, records, decision.level_stats,
                                   val_losses[-1], test_loss, test_acc))
    return model, ledgers, val_losses


# (tau, per-epoch delay, level, theta); the dyadic delays put finishes
# exactly on window edges, the long ones past the horizon
CLIENT = st.tuples(st.integers(1, 4),
                   st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.5, 4.0]), st.floats(0.1, 4.0)),
                   st.integers(1, 3), st.sampled_from([0.25, 0.5, 1.0]))
EDGE = [(2, 0.5, 1, 0.5), (4, 0.25, 1, 1.0)]  # every cycle ends on an edge
IDLE = [(4, 1.5, 1, 0.5), (4, 4.0, 2, 0.5)]   # 5 empty rounds, then one
HOT = [(2, 0.4, 1, 0.5), (2, 0.45, 1, 0.5), (2, 0.5, 2, 0.5)]  # with lr 1e3


def _run_both(specs, rounds, dt, lr):
    val, test = as_view(blob_data(40, dim=1, seed=101)), as_view(blob_data(30, dim=1, seed=102))
    # a contracted effort of tau passes over the client's data buys tau epochs
    clients = [Client(cid, as_view(blob_data(6 + cid, dim=1, seed=cid)), 0.0, theta,
                      level, delay, effort=float(tau * (6 + cid)))
               for cid, (tau, delay, level, theta) in enumerate(specs)]
    taus = {cid: tau for cid, (tau, *_) in enumerate(specs)}
    model = nn.init_model((1, 4, 4, 2), seed=3)
    sim = AsyncSimulation(model, clients, TimingParams(delta_t=dt), GATE, val_data=val,
                          test_data=test, master_seed=SEED, lr=lr, batch_size=BATCH)
    sim.run(rounds)
    return sim, reference(model, clients, taus, dt, val, test, lr, rounds)


@settings(max_examples=60, deadline=None)
@given(st.lists(CLIENT, min_size=1, max_size=6), st.integers(1, 6),
       st.sampled_from([0.5, 1.0]), st.sampled_from([0.5, 1e3]))
@example(EDGE, 4, 1.0, 0.5).via("finishes on window edges")
@example(IDLE, 6, 1.0, 0.5).via("rounds with no upload, a cycle past the horizon")
@example(HOT, 3, 1.0, 1e3).via("rounds where every upload is filtered")
def test_simulation_matches_the_reference_bitwise(specs, rounds, dt, lr):
    sim, (model, ledgers, val_losses) = _run_both(specs, rounds, dt, lr)
    assert repr(sim.ledgers) == repr(ledgers)  # repr round-trips every float
    assert (np.array([lg.val_loss for lg in sim.ledgers]).tobytes()
            == np.array(val_losses[1:]).tobytes())
    assert sim.model.params.tobytes() == model.params.tobytes()


def test_reference_examples_reach_their_edge_cases():
    ledgers = _run_both(EDGE, 4, 1.0, 0.5)[1][1]
    assert [r.sim_time for lg in ledgers for r in lg.uploads] == [1.0, 1.0, 2.0, 2.0, 3.0,
                                                                  3.0, 4.0, 4.0]
    ledgers = _run_both(IDLE, 6, 1.0, 0.5)[1][1]
    assert [len(lg.uploads) for lg in ledgers] == [0, 0, 0, 0, 0, 1]
    ledgers = _run_both(HOT, 3, 1.0, 1e3)[1][1]
    assert all(lg.uploads and lg.admitted_count == 0 for lg in ledgers)
