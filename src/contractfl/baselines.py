"""One synchronous round of FedAvg or FedProx.

Every client trains through nn.train_epochs_tracked, the same local SGD loop
the async simulator runs, with the same seed fan-out, so a baseline run on
the same partition and master seed is directly comparable. FedProx is
`fedavg_round` with the kernel's proximal weight mu > 0; with mu = 0 it is
FedAvg, bit for bit. The round loop of all three baselines (FedAvg, FedProx
and centralized local SGD) is `experiment.run_baseline_experiment`.
"""

from __future__ import annotations

from . import nn
from .simulation import Client, train_for_round


def fedavg_round(model: nn.Model, clients: list[Client], epochs: int, lr: float,
                 batch_size: int, master_seed: int, round_idx: int,
                 mu: float = 0.0) -> nn.Model:
    """One synchronous round: every client trains, deltas merge by data share.

    Each `Client` trains its `data` through `simulation.train_for_round`
    under its id and `round_idx`. Aggregation weights are d_k / D. With
    mu > 0 each client's SGD is pulled toward this round's starting model
    (FedProx). A divergence names the client and the round.
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    total = sum(c.d_k for c in ordered)
    deltas, weights = [], []
    for c in ordered:
        trained, _ = train_for_round(model, c.data, epochs, lr, batch_size,
                                     master_seed, c.client_id, round_idx, mu=mu)
        deltas.append(trained.params - model.params)
        weights.append(c.d_k / total)
    return nn.aggregate(model, deltas, weights)
