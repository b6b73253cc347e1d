"""Asynchronous training loop with staleness-aware, quality-gated admission.

A simulated clock drives scheduling: each client's training cycle occupies
tau * per_epoch_delay simulated seconds (communication is folded into the
per-epoch delay, so it adds no simulated time of its own), and the server
aggregates once per delta_t window. The settlement books price each uploaded
cycle with the contract's own cost model and payoff, `MarketModel.energy`
and `MarketModel.utility` at the realized effort tau * d_k.

Round t covers the window (t * delta_t, (t + 1) * delta_t]. Clients whose
cycles finish inside the window form the upload set. A cycle carries its
base, the global model it started on, and that model's validation loss.
Each uploader is trained then, from its base, and scored by q = (the base's
validation loss - its final-epoch training loss) * theta *
(staleness + 1)^(-epsilon), filtered per level by a mean/median spread
rule, and the survivors' deltas are applied to the current global model
with weights proportional to q. Every uploader, kept or filtered, receives
the fresh global model and starts a new cycle, so a rejected client is
never stranded on a stale base. The simulator holds the live model's
scores once, with no score history beside the round ledgers.

Execution is single-threaded and clients are always visited in ascending
client id, which makes every artifact byte-reproducible for a given seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import nn, seeds
from .contracts import MarketModel, local_epochs
from .datasets import DatasetView
from .errors import ConfigurationError, TrainingDiverged

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TimingParams:
    """The simulated-delay distribution and the aggregation period."""

    delay_lo: float = 0.5
    delay_hi: float = 2.0
    delta_t: float = 1.0

    def __post_init__(self):
        if not 0 < self.delay_lo <= self.delay_hi:
            raise ConfigurationError(
                f"delay_lo must be positive and at most delay_hi, "
                f"got ({self.delay_lo}, {self.delay_hi})")
        if not self.delta_t > 0:
            raise ConfigurationError(f"delta_t must be positive, got {self.delta_t}")


@dataclass(frozen=True)
class GateParams:
    """The admission gate: the spread bound `a` that picks a level's filter
    branch, the staleness decay `epsilon` and the outlier width `phi`."""

    a: float = 0.5
    epsilon: float = 2.0
    phi: float = 3.0

    def __post_init__(self):
        for name in ("a", "epsilon", "phi"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class Client:
    """One client as a run sees it, fixed before any training happens.

    The contract terms (effort, reward) are None when no menu was solved, and
    so are the epochs they buy (tau, tau_clamped), which are derived from
    effort and d_k. Quality and level describe the data as declared; for an
    attacker, `data` holds the corrupted labels it actually trains on. The
    id lives here alone: `data` is an index view of the pool that knows
    nothing of whose it is.
    """

    client_id: int
    data: DatasetView
    emd: float
    theta: float
    level: int
    per_epoch_delay: float
    malicious: bool = False
    effort: float | None = None
    reward: float | None = None

    @property
    def d_k(self) -> int:
        return self.data.d_k

    @property
    def tau(self) -> int | None:
        """Local epochs per cycle: `contracts.local_epochs(effort, d_k)`."""
        return None if self.effort is None else local_epochs(self.effort, self.d_k)

    @property
    def tau_clamped(self) -> bool | None:
        """Whether the realized effort tau * d_k exceeds the contracted one,
        which happens exactly when the effort is below one pass (d_k)."""
        return None if self.effort is None else self.tau * self.d_k > self.effort


@dataclass(frozen=True)
class _Cycle:
    """A training cycle in flight: it starts from `base`, the global model of
    `base_round` (shared by reference, never copied), whose validation loss
    `base_val_loss` its upload is scored against, and uploads at `finish`.
    Nothing is trained until the upload lands, so a cycle holds no delta
    and no training loss while it is in flight."""

    base_round: int
    finish: float
    base: nn.Model
    base_val_loss: float


@dataclass(frozen=True)
class UploadRecord:
    client_id: int
    level: int
    staleness: int
    m: float
    q: float
    sim_time: float
    admitted: bool = False
    alpha: float = 0.0


@dataclass(frozen=True)
class LevelStats:
    count: int
    mean: float
    median: float
    std: float
    threshold: float
    tight_branch: bool


@dataclass(frozen=True)
class AccessDecision:
    """One round's verdict. `alphas` maps each admitted client id, in
    ascending order, to its aggregation weight; it is empty when the round
    is a no-op."""

    alphas: dict
    removed_by_filter: tuple[int, ...]
    removed_nonpositive: tuple[int, ...]
    level_stats: dict


@dataclass(frozen=True)
class RoundLedger:
    round: int
    time_end: float
    uploads: tuple[UploadRecord, ...]
    level_stats: dict
    val_loss: float
    test_loss: float
    test_accuracy: float

    @property
    def admitted_count(self) -> int:
        """Uploads admitted this round; 0 makes the round a no-op."""
        return sum(r.admitted for r in self.uploads)


def train_for_round(model: nn.Model, data: DatasetView, epochs: int, lr: float,
                    batch_size: int, master_seed: int, trainer_id: int, round_idx: int,
                    mu: float = 0.0, who: str | None = None
                    ) -> tuple[nn.Model, np.ndarray]:
    """`nn.train_epochs_tracked` seeded by (trainer_id, round_idx): the one
    owner of the training seed, so every pipeline (async cycles, FedAvg and
    FedProx clients, local SGD as trainer 0) trains alike for equal ids and
    rounds. A divergence is raised again naming `who` (default "client
    <trainer_id>") and the round."""
    seed = seeds.child_seed(master_seed, seeds.STREAM_TRAIN, trainer_id, round_idx)
    try:
        return nn.train_epochs_tracked(model, data, epochs, lr, batch_size, seed, mu=mu)
    except TrainingDiverged as exc:
        where = f"{who or f'client {trainer_id}'}, round {round_idx}"
        raise TrainingDiverged(exc.step, exc.loss, where) from exc


def access_indicator(m: float, theta: float, staleness: int, gate: GateParams) -> float:
    """Contribution score: m * theta * (staleness + 1)^(-gate.epsilon)."""
    if staleness < 0:
        raise ConfigurationError(f"staleness must be >= 0, got {staleness}")
    if not 0 < theta <= 1:
        raise ConfigurationError(f"theta must be in (0, 1], got {theta}")
    return m * theta * (staleness + 1) ** (-gate.epsilon)


def _median(qs: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit, without the numpy.ma
    import np.median costs. The sum starts from 0.0 as np.mean's does, which
    turns a median of -0.0 into 0.0."""
    ordered = np.sort(qs)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(0.0 + ordered[mid])
    return float((0.0 + ordered[mid - 1] + ordered[mid]) / 2.0)


def access_control(entries: list[tuple[int, int, float]],
                   gate: GateParams) -> AccessDecision:
    """Filter upload scores level by level, then weight the survivors.

    entries: (client_id, level, q) triples for one round's uploads.

    Within each level the filter compares the mean and median of the level's
    scores. A gap above `gate.a` signals contamination, so anything below
    mean - std is removed; otherwise only extreme outliers below
    mean - gate.phi * std are removed. Statistics use the population std.
    After the per-level pass, survivors with q <= 0 are dropped as well,
    since a nonpositive score would turn aggregation weights meaningless.
    Weights are q / sum(q) over all remaining uploads, across levels. If
    nothing survives the round is a no-op.
    """
    by_level: dict[int, list[tuple[int, float]]] = {}
    for cid, level, q in entries:
        by_level.setdefault(level, []).append((cid, q))

    level_stats = {}
    survivors: list[tuple[int, float]] = []
    removed_filter: list[int] = []
    for level in sorted(by_level):
        rows = by_level[level]
        qs = np.array([q for _, q in rows])
        mean = float(qs.mean())
        median = _median(qs)
        std = float(qs.std())  # population std
        tight = abs(mean - median) > gate.a
        threshold = mean - std if tight else mean - gate.phi * std
        level_stats[level] = LevelStats(len(rows), mean, median, std, threshold, tight)
        for cid, q in rows:
            if q < threshold:
                removed_filter.append(cid)
            else:
                survivors.append((cid, q))

    removed_nonpositive = [cid for cid, q in survivors if q <= 0]
    kept = [(cid, q) for cid, q in survivors if q > 0]
    if entries and not kept:
        logger.warning("access control removed every upload; round is a no-op")
    total = sum(q for _, q in kept)  # in survivor order: it sets the alphas' bits
    alphas = {cid: q / total for cid, q in sorted(kept)}
    return AccessDecision(alphas, tuple(sorted(removed_filter)),
                          tuple(sorted(removed_nonpositive)), level_stats)


class AsyncSimulation:
    """Periodic-aggregation simulator over a fixed client population.

    Args:
        model: initial global model.
        clients: the population, each with its contract terms (ids must be
            unique; any order; a client without terms is refused).
        timing: simulated-delay distribution and aggregation period.
        gate: the admission gate's spread bound, staleness decay and
            outlier width, read by `access_indicator` and `access_control`.
        val_data: held-out split scored after every aggregation; each
            cycle's upload is scored against its base model's loss on it.
        test_data: reporting split for the per-round summary.
        master_seed: seeds each client's per-round shuffle stream.
        lr, batch_size: local SGD settings handed to every client.
    """

    def __init__(self, model: nn.Model, clients: list[Client],
                 timing: TimingParams, gate: GateParams,
                 val_data: DatasetView, test_data: DatasetView, master_seed: int,
                 lr: float, batch_size: int):
        ids = [c.client_id for c in clients]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("client ids must be unique")
        unpriced = [c.client_id for c in clients if c.effort is None]
        if unpriced:
            raise ConfigurationError(
                f"clients {' '.join(map(str, sorted(unpriced)))} have no contract "
                f"terms; the async simulator needs a solved menu")
        self.model = model
        self.clients = sorted(clients, key=lambda c: c.client_id)
        self.timing = timing
        self.gate = gate
        self.val_data = val_data
        self.test_data = test_data
        self.master_seed = master_seed
        self.lr = lr
        self.batch_size = batch_size
        self.ledgers: list[RoundLedger] = []
        self._cycles: dict[int, _Cycle] = {}
        self._score_model()
        # every client starts a cycle on the initial model at sim time 0
        for client in self.clients:
            self._start_cycle(client, round_idx=0, start_time=0.0)

    def _score_model(self):
        """Evaluate the live model: (validation loss, test loss, test accuracy)."""
        self._scores = (nn.evaluate(self.model, self.val_data)[0],
                        *nn.evaluate(self.model, self.test_data))

    def _start_cycle(self, client: Client, round_idx: int, start_time: float):
        self._cycles[client.client_id] = _Cycle(
            base_round=round_idx,
            finish=start_time + client.tau * client.per_epoch_delay,
            base=self.model,
            base_val_loss=self._scores[0])

    def _train(self, client: Client, cycle: _Cycle) -> tuple[np.ndarray, float]:
        """Train `client`'s cycle from its base as trainer `client_id` in the
        cycle's base round; return the delta and the final-epoch loss."""
        trained, epoch_losses = train_for_round(
            cycle.base, client.data, client.tau, self.lr, self.batch_size,
            self.master_seed, client.client_id, cycle.base_round)
        return trained.params - cycle.base.params, float(epoch_losses[-1])

    def run_round(self) -> RoundLedger:
        """Process one aggregation window and return its ledger entry."""
        t = len(self.ledgers)
        dt = self.timing.delta_t
        window_lo, window_hi = t * dt, (t + 1) * dt
        # each uploader is trained here, from its cycle's base, in ascending
        # client id; `deltas` is the only holder of the round's updates, and
        # it is dropped as soon as the merge returns, before any evaluation
        uploads = []  # (client, finish, staleness, m, q)
        deltas = {}
        for c in self.clients:
            cycle = self._cycles[c.client_id]
            if window_lo < cycle.finish <= window_hi:
                deltas[c.client_id], loss = self._train(c, cycle)
                staleness = t - cycle.base_round
                # loss reduction over the base model; negative when training hurt
                m = cycle.base_val_loss - loss
                q = access_indicator(m, c.theta, staleness, self.gate)
                uploads.append((c, cycle.finish, staleness, m, q))

        decision = access_control([(c.client_id, c.level, q) for c, *_, q in uploads],
                                  self.gate)
        if decision.alphas:
            self.model = nn.aggregate(
                self.model, [deltas[cid] for cid in decision.alphas],
                list(decision.alphas.values()))
            deltas.clear()
            self._score_model()

        records = tuple(
            UploadRecord(c.client_id, c.level, staleness, m, q, sim_time=finish,
                         admitted=c.client_id in decision.alphas,
                         alpha=decision.alphas.get(c.client_id, 0.0))
            for c, finish, staleness, m, q in uploads)
        # every uploader, kept or filtered, starts over from the fresh model
        for c, *_ in uploads:
            self._start_cycle(c, round_idx=t + 1, start_time=window_hi)

        val_loss, test_loss, test_accuracy = self._scores
        ledger = RoundLedger(round=t, time_end=window_hi, uploads=records,
                             level_stats=decision.level_stats, val_loss=val_loss,
                             test_loss=test_loss, test_accuracy=test_accuracy)
        self.ledgers.append(ledger)
        return ledger

    def run(self, rounds: int) -> list[RoundLedger]:
        """Run `rounds` aggregation windows and return every ledger so far.

        A cycle is trained when its upload lands (`run_round`), so a cycle
        that diverges raises `TrainingDiverged` at its upload. The run then
        trains every cycle still in flight at the horizon once, one at a
        time, and drops each result: it keeps the SGD work, and with it
        the step count that the benchmark's traced check derives from the
        artifacts (one cycle per upload plus one in flight per client), as
        it was when every cycle was trained at its start. A cycle in flight
        that diverges therefore raises at the end of the run, and a later
        `run` call trains such a cycle again when it uploads. Once that
        check follows the training policy, this end-of-run training can go.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        first_round = len(self.ledgers)
        horizon = (first_round + rounds) * self.timing.delta_t
        first = min((c.finish for c in self._cycles.values()), default=math.inf)
        if first > horizon:
            logger.warning(
                "no client finishes a training cycle within the horizon of %g "
                "simulated seconds (%d rounds of delta_t %g); the first finishes "
                "at %g, so no update is uploaded", horizon, rounds,
                self.timing.delta_t, first)
        for _ in range(rounds):
            self.run_round()
        for c in self.clients:  # every cycle in flight: trained, then dropped
            self._train(c, self._cycles[c.client_id])
        uploads = [r for lg in self.ledgers[first_round:] for r in lg.uploads]
        # m <= 0 scores q <= 0, which access control never admits
        if uploads and all(r.m <= 0 for r in uploads):
            logger.warning(
                "no upload was admitted in %d rounds: local training never lowered "
                "the loss below the global model's validation loss (%d uploads, "
                "best loss reduction m = %g); a training.lr that is too large is "
                "the usual cause", rounds, len(uploads), max(r.m for r in uploads))
        return self.ledgers


def settle_rewards(ledgers: list[RoundLedger], clients: list[Client],
                   market: MarketModel) -> dict:
    """Summarize who earned what across a finished run, from its ledgers.

    Per client: paid and withheld reward totals, energy spent on uploaded
    cycles, the realized utility rewards_earned - energy, and one cycle's
    contract utility, `market.utility` at the realized effort tau * d_k.
    An admitted upload pays the client's reward, and any other withholds it;
    sums run in round order. The publisher block totals payments per level.
    Every input is a fact the artifacts record, so they rebuild the books.
    """
    verdicts: dict[int, list[bool]] = {c.client_id: [] for c in clients}
    for lg in ledgers:
        for r in lg.uploads:
            verdicts[r.client_id].append(r.admitted)

    per_client = []
    for c in sorted(clients, key=lambda s: s.client_id):
        mine = verdicts[c.client_id]
        effort = c.tau * c.d_k
        cost = market.energy(effort)
        earned = withheld = energy = 0.0
        for admitted in mine:
            energy += cost
            if admitted:
                earned += c.reward
            else:
                withheld += c.reward
        per_client.append({
            "client_id": c.client_id,
            "level": c.level,
            "theta": c.theta,
            "d_k": c.d_k,
            "tau": c.tau,
            "tau_clamped": c.tau_clamped,
            "malicious": c.malicious,
            "uploads": len(mine),
            "admitted": sum(mine),
            "rejected": len(mine) - sum(mine),
            "reward_rate": c.reward,
            "rewards_earned": earned,
            "rewards_withheld": withheld,
            "energy_spent": energy,
            "realized_utility": earned - energy,
            "contract_utility": float(market.utility(market.theta[c.level - 1],
                                                     c.reward, effort)),
        })
    paid_by_level: dict[int, float] = {}
    for row in per_client:
        paid_by_level[row["level"]] = paid_by_level.get(row["level"], 0.0) \
            + row["rewards_earned"]
    final = ledgers[-1] if ledgers else None
    return {
        "clients": per_client,
        "publisher": {
            "total_paid": sum(r["rewards_earned"] for r in per_client),
            "total_withheld": sum(r["rewards_withheld"] for r in per_client),
            "paid_by_level": {str(k): v for k, v in sorted(paid_by_level.items())},
            "rounds": len(ledgers),
            "final_test_accuracy": final.test_accuracy if final else None,
            "final_test_loss": final.test_loss if final else None,
        },
    }
