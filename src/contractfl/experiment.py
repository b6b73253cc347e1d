"""End-to-end experiment orchestration and artifact writing.

Everything an experiment run produces goes through this module so that the
pipeline is identical whether it is driven from the command line, a demo
script, or a test. All randomness derives from the config seed through named
streams; runs with equal configs produce byte-identical artifacts. This is
the only module that knows a file format: every CSV goes through
`write_csv` and every JSON file through `write_json`.

`prepare` describes each client once, as a frozen `simulation.Client`: its
id (the position of its shard in `partition`'s list, the only place an id is
given), data view, quality score and level, per-epoch delay, attacker flag
and, when a menu is solved, its contract terms. The async simulator and the
baselines take the same records; nothing changes them after `prepare`
returns.

`run_baseline_experiment` holds the one synchronous round loop, for FedAvg,
FedProx and centralized local SGD alike.

Artifacts written into the output directory:
    config-echo.json   fully resolved configuration that produced the run
    contracts.json     solved menu, per-level diagnostics, verification report
    partition.csv      per-client sample count, skew, quality, level, contract
    rounds.csv         per-round test loss/accuracy and admission counts
    ledger.csv         per-upload admission trail (async runs only)
    settlement.json    reward and energy books per client plus publisher totals
    model.bin          final global model checkpoint
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, nn
from .config import ExperimentConfig, check_pool
from .contracts import (ContractMenu, ContractReport, MarketModel, client_utility,
                        data_quality, quality_level, solve_contract, verify_contract)
from .datasets import (Dataset, DatasetView, emd, flip_labels, load_idx_pair,
                       partition, split_holdout, synthetic_pair, uniform_benchmark)
from .errors import ConfigurationError
from .seeds import (STREAM_DATA, STREAM_DELAY, STREAM_FLIP, STREAM_HOLDOUT,
                    STREAM_INIT, STREAM_PARTITION, STREAM_TRAIN, child_seed)
from .simulation import AsyncSimulation, Client, settle_rewards

logger = logging.getLogger(__name__)

BASELINE_ALGORITHMS = ("fedavg", "fedprox", "local-sgd")

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass(frozen=True)
class Prepared:
    """Everything a run needs, assembled deterministically from one config."""

    market: MarketModel
    pool: DatasetView
    val: DatasetView
    test: Dataset
    clients: list[Client]
    menu: ContractMenu | None


def _resolve_mnist_path(explicit: str | None, default_name: str, field: str) -> str:
    if explicit is not None:
        if os.path.exists(explicit):
            return explicit
        raise ConfigurationError(f"dataset.{field}: file not found: {explicit}")
    root = os.environ.get("MNIST_DIR")
    if not root:
        raise ConfigurationError(
            f"dataset.{field} not set and MNIST_DIR is not in the environment")
    for name in (default_name, default_name + ".gz"):
        cand = os.path.join(root, name)
        if os.path.exists(cand):
            return cand
    raise ConfigurationError(
        f"dataset.{field}: neither {default_name} nor {default_name}.gz found "
        f"under MNIST_DIR={root}")


def build_dataset(cfg: ExperimentConfig) -> tuple[DatasetView, Dataset]:
    """Build (train pool, test set) for a config. The train pool is a view of
    one loaded or generated matrix: the synthetic split shuffled, the MNIST
    train set in file order. Only the first `dataset.subset` train and
    `dataset.test_subset` test images are decoded; a subset larger than its
    file, or a test file whose images are not as wide as the train file's,
    is a configuration error."""
    dc = cfg.dataset
    if dc.kind == "synthetic":
        return synthetic_pair(dc.classes, dc.dim, dc.train_count, dc.test_count,
                              dc.spread, seed=child_seed(cfg.seed, STREAM_DATA))
    paths = {
        field: _resolve_mnist_path(getattr(dc, field), name, field)
        for field, name in _MNIST_FILES.items()
    }
    train = load_idx_pair(paths["train_images"], paths["train_labels"],
                          num_classes=10, max_rows=dc.subset)
    test = load_idx_pair(paths["test_images"], paths["test_labels"],
                         num_classes=10, max_rows=dc.test_subset)
    # the loader decodes min(subset, file rows), so a short result means the
    # file itself holds fewer rows than asked for
    for field, split, path in (("subset", train, paths["train_images"]),
                               ("test_subset", test, paths["test_images"])):
        want = getattr(dc, field)
        if want is not None and want > len(split):
            raise ConfigurationError(f"dataset.{field} {want} exceeds the "
                                     f"{len(split)} rows of {path}")
    width, test_width = train.features.shape[1], test.features.shape[1]
    if test_width != width:
        raise ConfigurationError(
            f"dataset.test_images: {paths['test_images']} holds {test_width} features "
            f"per image, but the train file {paths['train_images']} holds {width}")
    check_pool(len(train), cfg.partition,
               f"dataset.subset {dc.subset}" if dc.subset is not None else
               f"the train file {paths['train_images']} ({len(train)} rows)")
    return DatasetView(train, np.arange(len(train)), train.labels), test


def select_attackers(clients: list[Client], count: int) -> set[int]:
    """Pick `count` clients to corrupt, spread across quality levels.

    Selection walks the levels from highest to lowest, taking one client per
    level per pass (largest d_k first within a level), so attackers land in
    every stratum instead of clustering at the bottom. Deterministic.
    """
    if count < 0:
        raise ConfigurationError(f"attacker count must be >= 0, got {count}")
    if count == 0:
        return set()
    if count > len(clients):
        raise ConfigurationError(
            f"cannot mark {count} attackers among {len(clients)} clients")
    queues: dict[int, list[int]] = {}
    for c in sorted(clients, key=lambda c: (-c.level, -c.d_k, c.client_id)):
        queues.setdefault(c.level, []).append(c.client_id)
    order: list[int] = []
    levels = sorted(queues, reverse=True)
    while len(order) < len(clients):
        for lv in levels:
            if queues[lv]:
                order.append(queues[lv].pop(0))
    return set(order[:count])


def prepare(cfg: ExperimentConfig, solve_menu: bool = True) -> Prepared:
    """Build data, partition, quality levels, delays, attackers, and
    (optionally) the menu, as one `Client` record per client. One WARNING
    names every client whose quality score or level was clamped. With a
    menu, each client gets its level's effort and reward, and one WARNING
    names every client whose contract utility at its realized effort (tau
    epochs of d_k samples) is negative."""
    market = cfg.market.to_market()
    train, test = build_dataset(cfg)
    val, pool = split_holdout(train, cfg.partition.val_fraction,
                              seed=child_seed(cfg.seed, STREAM_HOLDOUT))

    benchmark = uniform_benchmark(pool.num_classes)
    clients: list[Client] = []
    clamped: dict[str, list[int]] = {}
    shards = partition(pool, cfg.partition, child_seed(cfg.seed, STREAM_PARTITION))
    for cid, data in enumerate(shards):
        skew = emd(data.label_hist, benchmark)
        kinds: list[str] = []
        theta = data_quality(data.d_k, skew, cfg.quality, kinds)
        level = quality_level(theta, market, kinds)
        for kind in kinds:
            clamped.setdefault(kind, []).append(cid)
        rng = np.random.default_rng(child_seed(cfg.seed, STREAM_DELAY, cid))
        delay = float(rng.uniform(cfg.timing.delay_lo, cfg.timing.delay_hi))
        clients.append(Client(cid, data, skew, theta, level, delay))
    if clamped:
        logger.warning("quality clamped for %d of %d clients: %s",
                       len({cid for ids in clamped.values() for cid in ids}),
                       len(clients), "; ".join(
                           f"{kind}: {len(ids)} (clients {' '.join(map(str, ids))})"
                           for kind, ids in clamped.items()))

    attackers = select_attackers(clients, cfg.attack.count)
    menu = solve_contract(market, cfg.curve.to_params()) if solve_menu else None

    def complete(c: Client) -> Client:
        terms = {}
        if menu is not None:
            entry = menu.entry(c.level)
            terms.update(effort=entry.effort, reward=entry.reward)
        # quality and level were assessed on the data as declared, before any
        # corruption: a label flipper looks exactly like an honest client upstream
        if c.client_id in attackers:
            terms.update(malicious=True, data=flip_labels(
                c.data, cfg.attack.flip_fraction,
                seed=child_seed(cfg.seed, STREAM_FLIP, c.client_id)))
        return replace(c, **terms)

    clients = [complete(c) for c in clients]
    if menu is not None:
        losing = [c.client_id for c in clients
                  if client_utility(c.level, menu, market, c.tau, c.d_k) < 0]
        if losing:
            logger.warning("realized contract utility below 0 for %d of %d clients: "
                           "clients %s", len(losing), len(clients),
                           " ".join(map(str, losing)))
    return Prepared(market, pool, val, test, clients, menu)


def _init_model(cfg: ExperimentConfig, data: Dataset) -> nn.Model:
    dims = (data.features.shape[1], cfg.training.hidden1, cfg.training.hidden2,
            data.num_classes)
    return nn.init_model(dims, seed=child_seed(cfg.seed, STREAM_INIT))


def write_json(obj, path) -> None:
    """Write `obj` as sorted, indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row. Floats are written with
    repr, which round-trips exactly, and flags as 0/1."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_config_echo(cfg: ExperimentConfig, out_dir) -> None:
    write_json(cfg.to_dict(), os.path.join(out_dir, "config-echo.json"))


# partition.csv columns, each named after the `Client` attribute it holds;
# without a menu the contract terms are left out
_PARTITION_COLUMNS = ("client_id", "d_k", "emd", "theta", "level", "tau",
                      "tau_clamped", "effort", "reward", "malicious")
_PARTITION_NO_MENU = ("client_id", "d_k", "emd", "theta", "level", "malicious")
# rounds.csv of both drivers; the last column counts admitted uploads (async)
# or participants (baselines), the fourth field of each `history` row
_ROUNDS_COLUMNS = ("round", "test_loss", "test_accuracy")
_LEDGER_COLUMNS = ("round", "sim_time", "client_id", "level", "staleness", "m", "q",
                   "admitted", "alpha")


def write_partition_csv(clients: list[Client], path) -> None:
    columns = (_PARTITION_COLUMNS if clients and clients[0].effort is not None
               else _PARTITION_NO_MENU)
    write_csv(path, columns, ([getattr(c, name) for name in columns] for c in clients))


def write_contracts_json(menu: ContractMenu, report: ContractReport, path) -> None:
    write_json({"menu": menu.to_dict(), "verification": {
        "ok": report.ok,
        "ir": [float(v) for v in report.ir],
        "binding_ir": list(report.binding_ir),
        "binding_ic_down": [list(pair) for pair in report.binding_ic_down],
        "violations": list(report.violations),
    }}, path)


def run_async_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Full pipeline: prepare, simulate, settle, and (optionally) write artifacts.

    Returns the settlement dict extended with a `history` list of
    (round, test_loss, test_accuracy, admitted_count) rows.
    """
    prep = prepare(cfg, solve_menu=True)
    model = _init_model(cfg, prep.pool.parent)
    sim = AsyncSimulation(
        model, prep.clients, cfg.timing, a=cfg.gate.a,
        epsilon=cfg.gate.epsilon, phi=cfg.gate.phi, val_data=prep.val,
        test_data=prep.test, master_seed=cfg.seed, lr=cfg.training.lr,
        batch_size=cfg.training.batch_size)
    ledgers = sim.run(cfg.rounds)
    result = settle_rewards(ledgers, sim.clients, prep.menu, prep.market)
    result["history"] = [
        (lg.round, lg.test_loss, lg.test_accuracy, lg.admitted_count)
        for lg in ledgers
    ]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_config_echo(cfg, out_dir)
        write_contracts_json(prep.menu, verify_contract(prep.menu, prep.market),
                             os.path.join(out_dir, "contracts.json"))
        write_partition_csv(prep.clients, os.path.join(out_dir, "partition.csv"))
        write_csv(os.path.join(out_dir, "rounds.csv"),
                  (*_ROUNDS_COLUMNS, "admitted_count"), result["history"])
        write_csv(os.path.join(out_dir, "ledger.csv"), _LEDGER_COLUMNS,
                  ((lg.round, r.sim_time, r.client_id, r.level, r.staleness, r.m, r.q,
                    r.admitted, r.alpha) for lg in ledgers for r in lg.uploads))
        settlement = {k: v for k, v in result.items() if k != "history"}
        write_json(settlement, os.path.join(out_dir, "settlement.json"))
        nn.save_model(sim.model, os.path.join(out_dir, "model.bin"))
    return result


def run_baseline_experiment(cfg: ExperimentConfig, algorithm: str,
                            out_dir=None) -> dict:
    """Run a synchronous baseline on the same population as the async pipeline.

    Baselines share the partition, attacker set, and model init with the
    async run for the same config, so score differences come from the
    algorithm alone. Each round makes one update with no admission gate,
    cfg.baseline.local_epochs long: `baselines.fedavg_round` over every
    client (FedProx with mu = cfg.baseline.prox_mu), or, for local SGD, the
    whole pool as one participant. `history` rows are (round, test_loss,
    test_accuracy, participants).
    """
    if algorithm not in BASELINE_ALGORITHMS:
        raise ConfigurationError(
            f"unknown baseline {algorithm!r}; choose from {BASELINE_ALGORITHMS}")
    prep = prepare(cfg, solve_menu=False)
    model = _init_model(cfg, prep.pool.parent)
    epochs, lr, batch_size = (cfg.baseline.local_epochs, cfg.training.lr,
                              cfg.training.batch_size)
    mu = cfg.baseline.prox_mu if algorithm == "fedprox" else 0.0
    participants = 1 if algorithm == "local-sgd" else len(prep.clients)
    history = []
    for r in range(cfg.rounds):
        if algorithm == "local-sgd":
            seed = child_seed(cfg.seed, STREAM_TRAIN, 0, r)
            model, _ = nn.train_epochs_tracked(model, prep.pool, epochs, lr,
                                               batch_size, seed)
        else:
            model = baselines.fedavg_round(model, prep.clients, epochs, lr, batch_size,
                                           cfg.seed, r, mu=mu)
        loss, acc = nn.evaluate(model, prep.test)
        history.append((r, loss, acc, participants))
    last = history[-1]
    result = {
        "algorithm": algorithm,
        "rounds": cfg.rounds,
        "final_test_loss": last[1],
        "final_test_accuracy": last[2],
        "history": history,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_config_echo(cfg, out_dir)
        write_partition_csv(prep.clients, os.path.join(out_dir, "partition.csv"))
        write_csv(os.path.join(out_dir, "rounds.csv"), (*_ROUNDS_COLUMNS, "participants"),
                  history)
        write_json({k: v for k, v in result.items() if k != "history"},
                   os.path.join(out_dir, "summary.json"))
        nn.save_model(model, os.path.join(out_dir, "model.bin"))
    return result
