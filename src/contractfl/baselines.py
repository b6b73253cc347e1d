"""Synchronous reference algorithms: FedAvg, FedProx, centralized local SGD.

Every client trains through nn.train_epochs_tracked, the same local SGD loop
the async simulator runs, with the same seed fan-out, so a baseline run on
the same partition and master seed is directly comparable. FedProx is
run_sync with the kernel's proximal weight mu > 0; with mu = 0 it is FedAvg,
bit for bit.
"""

from __future__ import annotations

from . import nn
from .datasets import Dataset, DatasetView
from .errors import ConfigurationError
from .seeds import STREAM_TRAIN, child_seed
from .simulation import Client


def fedavg_round(model: nn.Model, clients: list[Client], epochs: int, lr: float,
                 batch_size: int, master_seed: int, round_idx: int,
                 mu: float = 0.0) -> nn.Model:
    """One synchronous round: every client trains, deltas merge by data share.

    Each `Client` trains its `data` with the shuffle seed
    child_seed(master_seed, STREAM_TRAIN, client_id, round_idx), the stream
    the async simulator uses too. Aggregation weights are d_k / D.
    With mu > 0 each client's SGD is pulled toward this round's starting
    model (FedProx).
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    total = sum(c.d_k for c in ordered)
    deltas, weights = [], []
    for c in ordered:
        seed = child_seed(master_seed, STREAM_TRAIN, c.client_id, round_idx)
        trained, _ = nn.train_epochs_tracked(model, c.data, epochs, lr, batch_size,
                                             seed, mu=mu)
        deltas.append(trained.params - model.params)
        weights.append(c.d_k / total)
    return nn.aggregate(model, deltas, weights)


def run_sync(model: nn.Model, clients: list[Client], rounds: int, epochs: int,
             lr: float, batch_size: int, master_seed: int, test_data: Dataset,
             mu: float = 0.0) -> tuple[nn.Model, list[tuple[int, float, float, int]]]:
    """Run FedAvg (mu = 0) or FedProx (mu > 0) for a fixed round count.

    Returns the final model and per-round history rows
    (round, test_loss, test_accuracy, participant_count).
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    history = []
    for r in range(rounds):
        model = fedavg_round(model, clients, epochs, lr, batch_size, master_seed, r,
                             mu=mu)
        loss, acc = nn.evaluate(model, test_data)
        history.append((r, loss, acc, len(clients)))
    return model, history


def local_sgd_run(model: nn.Model, pool: DatasetView, rounds: int,
                  epochs: int, lr: float, batch_size: int, master_seed: int,
                  test_data: Dataset) -> tuple[nn.Model, list[tuple[int, float, float, int]]]:
    """Centralized reference: all data in one place, plain SGD between evals."""
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    history = []
    for r in range(rounds):
        seed = child_seed(master_seed, STREAM_TRAIN, 0, r)
        model, _ = nn.train_epochs_tracked(model, pool, epochs, lr, batch_size, seed)
        loss, acc = nn.evaluate(model, test_data)
        history.append((r, loss, acc, 1))
    return model, history
