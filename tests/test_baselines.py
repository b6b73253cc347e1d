import numpy as np
import pytest

from common import blob_data, make_client, make_view, tiny_config
from contractfl import baselines, experiment, nn
from contractfl.errors import ConfigurationError
from contractfl.seeds import STREAM_TRAIN, child_seed

DIMS = (2, 4, 4, 2)


def client_pool(sizes, seed=0):
    return [make_client(i, *_blob_arrays(n, seed + i), num_classes=2)
            for i, n in enumerate(sizes)]


def _blob_arrays(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = np.clip(np.where(y == 0, 0.2, 0.8)[:, None]
                + rng.normal(0, 0.05, (n, 2)), 0, 1)
    return x, y


# One FedProx step: the kernel with epochs=1 and one batch that holds every
# sample, replayed with the kernel's own shuffle of that batch.

def _one_batch(n, seed, model, lr, mu, epochs=1):
    data = make_view(*_blob_arrays(n, seed), num_classes=2)
    trained, _ = nn.train_epochs_tracked(model, data, epochs, lr, batch_size=n,
                                         rng_seed=seed, mu=mu)
    return data, trained


def test_fedprox_step_mu_zero_is_plain_sgd():
    model = nn.init_model(DIMS, seed=1)
    data, stepped = _one_batch(8, 3, model, lr=0.1, mu=0.0)
    perm = np.random.default_rng(3).permutation(8)
    _, grad = nn.loss_and_gradient(model.layer_dims, model.params,
                                   data.features[data.indices][perm],
                                   data.labels[perm])
    assert np.array_equal(stepped.params, model.params - 0.1 * grad)


def test_fedprox_step_adds_exact_proximal_pull():
    # the anchor is the starting model, so the pull first acts on step 2:
    # both runs share step 1, then differ by exactly -lr * mu * (w1 - w0)
    model = nn.init_model(DIMS, seed=1)
    _, w1 = _one_batch(8, 3, model, lr=0.1, mu=0.0)
    _, plain = _one_batch(8, 3, model, lr=0.1, mu=0.0, epochs=2)
    _, prox = _one_batch(8, 3, model, lr=0.1, mu=0.5, epochs=2)
    want = plain.params - 0.1 * 0.5 * (w1.params - model.params)
    assert np.allclose(prox.params, want, rtol=1e-12, atol=1e-14)
    assert not np.array_equal(prox.params, plain.params)


def test_fedprox_step_at_anchor_matches_plain():
    model = nn.init_model(DIMS, seed=4)
    _, a = _one_batch(6, 1, model, lr=0.2, mu=0.9)
    _, b = _one_batch(6, 1, model, lr=0.2, mu=0.0)
    assert np.array_equal(a.params, b.params)


def test_fedprox_step_rejects_negative_mu():
    model = nn.init_model(DIMS, seed=0)
    for mu in (-0.1, float("nan")):
        with pytest.raises(ConfigurationError, match="mu"):
            _one_batch(4, 0, model, lr=0.1, mu=mu)


def test_fedavg_round_weights_by_data_share():
    clients = client_pool([30, 10])
    model = nn.init_model(DIMS, seed=5)
    seeds = {c.client_id: child_seed(9, STREAM_TRAIN, c.client_id, 4)
             for c in clients}
    out = baselines.fedavg_round(model, clients, epochs=1, lr=0.1, batch_size=8,
                                 master_seed=9, round_idx=4)
    deltas = []
    for c in clients:
        trained, _ = nn.train_epochs_tracked(model, c.data, 1, 0.1, 8, seeds[c.client_id])
        deltas.append(trained.params - model.params)
    want = model.params + 0.75 * deltas[0] + 0.25 * deltas[1]
    assert np.allclose(out.params, want, rtol=0, atol=1e-12)


def run_rounds(model, clients, rounds, epochs, lr, master_seed, test, mu=0.0):
    """`rounds` rounds of `fedavg_round` at batch size 8, each followed by a
    test evaluation, with the baseline driver's (round, test_loss,
    test_accuracy, participants) history rows."""
    history = []
    for r in range(rounds):
        model = baselines.fedavg_round(model, clients, epochs, lr, 8, master_seed, r,
                                       mu=mu)
        history.append((r, *nn.evaluate(model, test), len(clients)))
    return model, history


def test_run_fedprox_mu_zero_equals_fedavg_bitwise():
    clients = client_pool([20, 14, 9])
    model = nn.init_model(DIMS, seed=6)
    test = blob_data(40, num_classes=2, dim=2, seed=99)
    m_avg, h_avg = run_rounds(model, clients, 3, 2, 0.1, 11, test)
    m_prox, h_prox = run_rounds(model, clients, 3, 2, 0.1, 11, test, mu=0.0)
    assert m_avg.params.tobytes() == m_prox.params.tobytes()
    assert h_avg == h_prox


def test_run_fedprox_positive_mu_differs():
    clients = client_pool([20, 14])
    model = nn.init_model(DIMS, seed=6)
    test = blob_data(30, num_classes=2, dim=2, seed=98)
    m_avg, _ = run_rounds(model, clients, 2, 2, 0.1, 11, test)
    m_prox, _ = run_rounds(model, clients, 2, 2, 0.1, 11, test, mu=0.1)
    assert not np.array_equal(m_avg.params, m_prox.params)


def test_run_sync_improves_accuracy():
    clients = client_pool([40, 40, 40])
    model = nn.init_model(DIMS, seed=8)
    test = blob_data(60, num_classes=2, dim=2, seed=96)
    _, hist = run_rounds(model, clients, 5, 3, 0.3, 17, test)
    assert hist[-1][2] > 0.9


# The round loop itself lives in experiment.run_baseline_experiment.

def test_run_sync_history_and_determinism(tmp_path):
    cfg = tiny_config(rounds=3)
    runs = [experiment.run_baseline_experiment(cfg, "fedavg", out_dir=tmp_path / str(i))
            for i in range(2)]
    hist = runs[0]["history"]
    assert hist == runs[1]["history"]
    assert ((tmp_path / "0" / "model.bin").read_bytes()
            == (tmp_path / "1" / "model.bin").read_bytes())
    assert [row[0] for row in hist] == list(range(3))
    # every client participates in every round
    assert all(row[3] == cfg.partition.num_clients for row in hist)
    prep = experiment.prepare(cfg, solve_menu=False)
    start = experiment._init_model(cfg, prep.pool)
    assert hist[-1][1] < nn.evaluate(start, prep.test)[0]  # training helps


@pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "local-sgd"])
def test_sync_pipelines_train_on_the_client_and_round_seed(monkeypatch, algorithm):
    # in round r client k shuffles with child_seed(seed, STREAM_TRAIN, k, r),
    # the async simulator's stream, and local SGD trains the pool with k = 0
    cfg = tiny_config(rounds=3, seed=7)
    trainer, seen = {}, []
    prepare, train = experiment.prepare, nn.train_epochs_tracked

    def keep_prepared(*args, **kwargs):
        prep = prepare(*args, **kwargs)
        trainer.update({id(c.data): c.client_id for c in prep.clients})
        trainer[id(prep.pool)] = "pool"
        return prep

    def spy(model, data, epochs, lr, batch_size, rng_seed, mu=0.0):
        seen.append((trainer[id(data)], rng_seed))
        return train(model, data, epochs, lr, batch_size, rng_seed, mu=mu)

    monkeypatch.setattr(experiment, "prepare", keep_prepared)
    monkeypatch.setattr(nn, "train_epochs_tracked", spy)
    experiment.run_baseline_experiment(cfg, algorithm)
    if algorithm == "local-sgd":
        want = [("pool", child_seed(7, STREAM_TRAIN, 0, r)) for r in range(3)]
    else:
        want = [(k, child_seed(7, STREAM_TRAIN, k, r))
                for r in range(3) for k in range(cfg.partition.num_clients)]
    assert seen == want


def test_attack_leaves_local_sgd_unchanged(tmp_path):
    # local SGD trains on the pool as held out, before any client's labels
    # are flipped: the "ideal" baseline is the same with or without attackers
    clean = tiny_config(rounds=3)
    attacked = tiny_config(rounds=3, **{"attack.count": clean.partition.num_clients,
                                        "attack.flip_fraction": 1.0})
    for name, cfg in (("clean", clean), ("attacked", attacked)):
        experiment.run_baseline_experiment(cfg, "local-sgd", out_dir=tmp_path / name)
    rows = (tmp_path / "attacked" / "partition.csv").read_text().splitlines()
    assert rows[0].endswith(",malicious") and all(r.endswith(",1") for r in rows[1:])
    for artifact in ("model.bin", "rounds.csv", "summary.json"):
        assert ((tmp_path / "clean" / artifact).read_bytes()
                == (tmp_path / "attacked" / artifact).read_bytes()), artifact


def test_local_sgd_run_single_worker():
    cfg = tiny_config(rounds=3)
    hist1 = experiment.run_baseline_experiment(cfg, "local-sgd")["history"]
    hist2 = experiment.run_baseline_experiment(cfg, "local-sgd")["history"]
    assert hist1 == hist2
    assert [row[0] for row in hist1] == list(range(3))
    assert hist1[-1][1] < hist1[0][1] or hist1[-1][2] >= hist1[0][2]
    assert all(row[3] == 1 for row in hist1)
