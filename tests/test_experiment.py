import copy
import filecmp
import json
import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import make_view, tiny_config
from contractfl import config, experiment, nn
from contractfl.contracts import client_utility
from contractfl.datasets import DatasetView, synthetic_pair
from contractfl.seeds import STREAM_HOLDOUT, child_seed
from contractfl.simulation import Client
from contractfl.errors import ConfigurationError


def client(cid, d_k, level):
    data = make_view(np.zeros((d_k, 1)), np.arange(d_k) % 2, 2)
    return Client(client_id=cid, data=data, emd=0.2, theta=0.5, level=level,
                  per_epoch_delay=1.0)


def test_select_attackers_round_robin_levels():
    clients = [
        client(0, 500, 3),
        client(1, 900, 3),
        client(2, 100, 1),
        client(3, 400, 2),
        client(4, 700, 2),
    ]
    # one pass takes the biggest client from each level, highest level first
    picked = experiment.select_attackers(clients, 3)
    assert picked == {1, 4, 2}
    # a single attacker comes from the top level; two spread over two levels
    assert experiment.select_attackers(clients, 1) == {1}
    assert experiment.select_attackers(clients, 2) == {1, 4}
    # second pass returns to the top level for the next-biggest client
    assert experiment.select_attackers(clients, 4) == {1, 4, 2, 0}
    assert experiment.select_attackers(clients, 0) == set()


def test_select_attackers_ties_break_by_client_id():
    clients = [client(5, 100, 1), client(2, 100, 1), client(9, 100, 1)]
    assert experiment.select_attackers(clients, 2) == {2, 5}


def test_select_attackers_count_exceeds_population():
    with pytest.raises(ConfigurationError):
        experiment.select_attackers([client(0, 10, 1)], 2)
    with pytest.raises(ConfigurationError, match="attacker count"):
        experiment.select_attackers([client(0, 10, 1)], -1)


def round_robin_attackers(clients, count):
    """The queue walk select_attackers replaced, kept as its reference: one
    queue per level, largest d_k first (ties to the lower id), popped one
    client per level per pass from the highest level down."""
    queues = {}
    for c in sorted(clients, key=lambda c: (-c.level, -c.d_k, c.client_id)):
        queues.setdefault(c.level, []).append(c.client_id)
    order = []
    levels = sorted(queues, reverse=True)
    while len(order) < len(clients):
        for lv in levels:
            if queues[lv]:
                order.append(queues[lv].pop(0))
    return set(order[:count])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 6)), min_size=1,
                max_size=30), st.data())
def test_select_attackers_matches_the_round_robin_walk(rows, data):
    # few d_k values, so ties within a level are common
    ids = data.draw(st.permutations(range(len(rows))))
    clients = [client(cid, d_k, level) for cid, (level, d_k) in zip(ids, rows)]
    count = data.draw(st.integers(0, len(clients)))
    assert experiment.select_attackers(clients, count) == \
        round_robin_attackers(clients, count)


def test_prepare_quality_assessed_before_flip():
    clean = experiment.prepare(tiny_config(), solve_menu=False)
    attacked = experiment.prepare(tiny_config(**{"attack.count": 2}),
                                  solve_menu=False)
    # same partition, same declared quality, regardless of later corruption
    for a, b in zip(clean.clients, attacked.clients):
        assert a.d_k == b.d_k
        assert a.emd == b.emd
        assert a.theta == b.theta
        assert a.level == b.level
    flipped = [c.client_id for c in attacked.clients if c.malicious]
    assert len(flipped) == 2
    assert all(not c.malicious for c in clean.clients)
    # the attackers' labels really are corrupted; honest clients untouched
    for cid in range(len(clean.clients)):
        same = np.array_equal(clean.clients[cid].data.labels,
                              attacked.clients[cid].data.labels)
        assert same != (cid in flipped)


def test_prepare_gathers_pool_and_clients_from_one_matrix(monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(synthetic_pair(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiment, "synthetic_pair", spy)
    cfg = tiny_config(**{"attack.count": 2})
    prep = experiment.prepare(cfg, solve_menu=False)
    (train, _), = built
    root = train.parent.features
    assert np.shares_memory(root, prep.pool.parent.features)
    for c in prep.clients:
        assert np.shares_memory(root, c.data.parent.features)
    # the pool and the validation split hold the rows the holdout seed picks
    n = len(train)
    perm = np.random.default_rng(
        child_seed(cfg.seed, STREAM_HOLDOUT)).permutation(n)
    h = max(1, int(round(n * cfg.partition.val_fraction)))
    held, rest = np.sort(perm[:h]), np.sort(perm[h:])
    assert (prep.pool.parent.features[prep.pool.indices].tobytes()
            == train.parent.features[train.indices][rest].tobytes())
    assert prep.pool.labels.tobytes() == train.labels[rest].tobytes()
    # the validation split is a view of the same matrix: no row is copied
    assert prep.val.parent is prep.pool.parent
    assert (prep.val.parent.features[prep.val.indices].tobytes()
            == train.parent.features[train.indices][held].tobytes())
    assert prep.val.labels.tobytes() == train.labels[held].tobytes()


def test_prepare_folds_quality_clamps_into_one_warning(caplog):
    # the desk preset floors three clients' quality scores to 0.01
    with caplog.at_level(logging.WARNING):
        prep = experiment.prepare(config.preset_desk(), solve_menu=False)
    floored = [c.client_id for c in prep.clients if c.theta == 0.01]
    assert floored
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    msg = warnings[0].message
    assert f"quality clamped for {len(floored)} of 20 clients" in msg
    assert f"(clients {' '.join(map(str, floored))})" in msg


# the benchmark's paper-synth population: paper-noattack on 784-dim blobs
PAPER_SYNTH = ["dataset.kind=synthetic", "dataset.dim=784",
               "dataset.train_count=20000", "dataset.test_count=2000"]


def _losing(prep):
    return [c.client_id for c in prep.clients
            if client_utility(c.level, prep.menu, prep.market, c.tau, c.d_k) < 0]


def test_prepare_names_clients_with_negative_realized_utility(caplog):
    cfg = config.resolve_config("paper-noattack", None, PAPER_SYNTH)
    with caplog.at_level(logging.WARNING):
        prep = experiment.prepare(cfg)
    losing = _losing(prep)
    assert len(losing) == 72
    found = [r.message for r in caplog.records if "utility" in r.message]
    assert found == [f"realized contract utility below 0 for 72 of 100 clients: "
                     f"clients {' '.join(map(str, losing))}"]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        prep = experiment.prepare(config.preset_desk())
    assert _losing(prep) == []
    assert not [r for r in caplog.records if "utility" in r.message]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 7: a contracted effort below one pass over a client's data "
    "is clamped up to one epoch, so the client spends more energy than its "
    "reward covers; 72 of 100 paper-synth clients at seed 0"))
def test_every_paper_synth_client_gains_from_its_contract():
    cfg = config.resolve_config("paper-noattack", None, PAPER_SYNTH)
    assert _losing(experiment.prepare(cfg)) == []


def test_prepare_contract_fields_populated():
    prep = experiment.prepare(tiny_config())
    assert prep.menu is not None
    for c in prep.clients:
        assert c.effort is not None and c.effort > 0
        assert c.reward is not None and c.reward > 0
        assert c.tau is not None and c.tau >= 1
        entry = prep.menu.entries[c.level - 1]
        assert c.effort == entry.effort
        assert c.reward == entry.reward


def test_prepare_without_menu_skips_contract():
    prep = experiment.prepare(tiny_config(), solve_menu=False)
    assert prep.menu is None
    assert all(c.effort is None for c in prep.clients)


def test_run_async_experiment_artifacts_deterministic(tmp_path):
    cfg = tiny_config()
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    res1 = experiment.run_async_experiment(cfg, str(out1))
    res2 = experiment.run_async_experiment(cfg, str(out2))
    names = ["config-echo.json", "contracts.json", "partition.csv",
             "rounds.csv", "ledger.csv", "settlement.json", "model.bin"]
    for name in names:
        f1, f2 = out1 / name, out2 / name
        assert f1.exists(), name
        assert filecmp.cmp(f1, f2, shallow=False), name
    assert res1["history"] == res2["history"]
    echo = json.loads((out1 / "config-echo.json").read_text())
    assert echo == cfg.to_dict()


@pytest.mark.parametrize("algorithm", ["async", "fedavg"])
def test_run_keeps_every_array_in_float32(monkeypatch, tmp_path, algorithm):
    # rows are stored as pixels, one byte per feature, and everything
    # computed from them is float32: each gathered batch, model and delta
    cfg = tiny_config()
    prep = experiment.prepare(cfg)
    for split in (prep.pool, prep.val, prep.test):
        assert split.parent.features.dtype == np.uint8
        assert split.dtype == np.float32
    train, aggregate, batches = nn.train_epochs_tracked, nn.aggregate, DatasetView.batches
    workspaces, calls = [], {"train": 0, "aggregate": 0, "batches": 0}

    def spy_batches(self, order, size):
        assert self.parent.features.dtype == np.uint8
        for x, y in batches(self, order, size):
            assert x.dtype == np.float32
            calls["batches"] += 1
            yield x, y

    class SpyWorkspace(nn._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            workspaces.append(self)

    def spy_train(model, data, *args, **kwargs):
        assert model.params.dtype == data.dtype == np.float32
        trained, losses = train(model, data, *args, **kwargs)
        assert trained.params.dtype == np.float32
        calls["train"] += 1
        return trained, losses

    def spy_aggregate(base, deltas, weights):
        assert base.params.dtype == np.float32
        assert all(d.dtype == np.float32 for d in deltas)
        merged = aggregate(base, deltas, weights)
        assert merged.params.dtype == np.float32
        calls["aggregate"] += 1
        return merged

    monkeypatch.setattr(nn, "_Workspace", SpyWorkspace)
    monkeypatch.setattr(nn, "train_epochs_tracked", spy_train)
    monkeypatch.setattr(nn, "aggregate", spy_aggregate)
    monkeypatch.setattr(DatasetView, "batches", spy_batches)
    runs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        if algorithm == "async":
            experiment.run_async_experiment(cfg, str(out))
        else:
            experiment.run_baseline_experiment(cfg, algorithm, str(out))
        runs.append(out)
    assert calls["train"] > 0 and calls["aggregate"] > 0 and calls["batches"] > 0
    assert len(workspaces) == calls["train"]
    for ws in workspaces:
        assert ws.grad.dtype == np.float32
        for b in ws._steps.values():
            for arr in (b.acts, b.live, b.logits, *b.softmax, b.d_z2, b.d_z1):
                assert arr.dtype == np.float32
    # the checkpoint stays float64, and a float32 run is deterministic
    assert nn.load_model(runs[0] / "model.bin").params.dtype == np.float64
    for name in os.listdir(runs[0]):
        assert filecmp.cmp(runs[0] / name, runs[1] / name, shallow=False), name


@pytest.mark.parametrize("algorithm", ["async", "fedavg"])
def test_every_evaluation_gathers_its_rows_through_batches(monkeypatch, algorithm):
    # rows leave a root matrix only through DatasetView.batches: scoring a
    # split must gather every one of its rows there, whichever split it is
    batches, evaluate, prepare = DatasetView.batches, nn.evaluate, experiment.prepare
    gathered, scored, preps = [0], [], []

    def counting_batches(self, order, size):
        for x, y in batches(self, order, size):
            gathered[0] += x.shape[0]
            yield x, y

    def counting_evaluate(model, data):
        before = gathered[0]
        result = evaluate(model, data)
        scored.append((data, gathered[0] - before))
        return result

    def spy_prepare(*args, **kwargs):
        preps.append(prepare(*args, **kwargs))
        return preps[-1]

    monkeypatch.setattr(DatasetView, "batches", counting_batches)
    monkeypatch.setattr(nn, "evaluate", counting_evaluate)
    monkeypatch.setattr(experiment, "prepare", spy_prepare)
    cfg = tiny_config()
    if algorithm == "async":
        experiment.run_async_experiment(cfg)
    else:
        experiment.run_baseline_experiment(cfg, algorithm)
    (prep,) = preps
    names = {id(prep.pool): "pool", id(prep.val): "val", id(prep.test): "test"}
    assert {names[id(data)] for data, _ in scored} == (
        {"val", "test"} if algorithm == "async" else {"test"})
    for data, rows in scored:
        assert rows == len(data), names[id(data)]


def test_run_async_experiment_result_shape(tmp_path):
    cfg = tiny_config()
    res = experiment.run_async_experiment(cfg, str(tmp_path / "run"))
    assert len(res["history"]) == cfg.rounds
    settle = json.loads((tmp_path / "run" / "settlement.json").read_text())
    assert "publisher" in settle
    assert "clients" in settle
    assert len(settle["clients"]) == cfg.partition.num_clients


def test_run_baseline_experiment_artifacts(tmp_path):
    cfg = tiny_config(**{"rounds": 2})
    res = experiment.run_baseline_experiment(cfg, "fedavg", str(tmp_path / "b"))
    for name in ["config-echo.json", "partition.csv", "rounds.csv",
                 "summary.json", "model.bin"]:
        assert (tmp_path / "b" / name).exists(), name
    assert len(res["history"]) == 2
    assert 0.0 <= res["final_test_accuracy"] <= 1.0
    rows = (tmp_path / "b" / "rounds.csv").read_text().splitlines()
    assert rows[0] == "round,test_loss,test_accuracy,participants"
    assert len(rows) == 3


def test_run_baseline_experiment_unknown_algorithm(tmp_path):
    with pytest.raises(ConfigurationError, match="fedsgd"):
        experiment.run_baseline_experiment(tiny_config(), "fedsgd",
                                           str(tmp_path / "x"))


def test_baseline_shares_partition_with_async():
    cfg = tiny_config(**{"attack.count": 2})
    prep_a = experiment.prepare(cfg, solve_menu=False)
    prep_b = experiment.prepare(cfg, solve_menu=False)
    assert [c.client_id for c in prep_a.clients if c.malicious] == \
           [c.client_id for c in prep_b.clients if c.malicious]
    for ca, cb in zip(prep_a.clients, prep_b.clients):
        assert np.array_equal(ca.data.indices, cb.data.indices)


def test_partition_report_csv(tmp_path):
    out = tmp_path / "partition.csv"
    clients = experiment.prepare(tiny_config(), solve_menu=False).clients
    experiment.write_partition_csv(clients, str(out))
    rows = out.read_text().splitlines()
    assert rows[0] == "client_id,d_k,emd,theta,level,malicious"
    assert len(rows) == len(clients) + 1
    assert len(clients) == 6
    total = sum(c.d_k for c in clients)
    assert total <= 400


def test_mnist_paths_resolved_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    cfg = config.resolve_config("paper-noattack", None, ["rounds=1"])
    with pytest.raises(ConfigurationError, match="dataset.train_images"):
        experiment.build_dataset(cfg)
    monkeypatch.setenv("MNIST_DIR", str(tmp_path))
    with pytest.raises(ConfigurationError, match="train-images-idx3-ubyte"):
        experiment.build_dataset(cfg)


def test_explicit_mnist_path_must_exist(tmp_path):
    cfg = config.resolve_config(
        "paper-noattack", None, [f"dataset.train_images={tmp_path}/missing-file"])
    with pytest.raises(ConfigurationError, match="missing-file"):
        experiment.build_dataset(cfg)
