"""Experiment configuration: one dataclass tree, JSON round-trip, presets.

Each section is one frozen dataclass that checks its own ranges. Four of
them are the library's parameter types, used as they are: `quality` is
`contracts.QualityParams`, `timing` is `simulation.TimingParams`, `gate` is
`simulation.GateParams` and `partition` is `datasets.PartitionSpec`.
`curve` is `contracts.AccuracyCurveParams` under a subclass that adds no
field. The rest live here.

Every preset, config file and dotted-path override (section.key=value) is
parsed, patched and validated on one path: `resolve_config` takes the base
config's dict, lays the file and then each override over it (an override is
the patch {"section": {"key": value}}), and builds the config with
`from_dict` once, after the last patch. The base is the named preset, the
library defaults when only a file is given, and desk when neither is.
Configs are strict: an unknown field, a value of the wrong type, a non-finite
number or a value out of range raises a ConfigurationError that names the
dotted field, so a bad config fails when it is parsed, never mid-training.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields

from .contracts import AccuracyCurveParams, MarketModel, QualityParams
from .datasets import PartitionSpec, holdout_count, zipf_counts
from .errors import ConfigurationError
from .simulation import GateParams, TimingParams


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic"
    # IDX file paths, used when kind == "mnist"; None falls back to $MNIST_DIR
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    subset: int | None = None
    test_subset: int | None = None
    # synthetic blob settings, used when kind == "synthetic"
    classes: int = 10
    dim: int = 64
    train_count: int = 4000
    test_count: int = 1000
    spread: float = 0.13

    def __post_init__(self):
        if self.kind not in ("synthetic", "mnist"):
            raise ConfigurationError(
                f"kind must be 'synthetic' or 'mnist', got {self.kind!r}")
        if self.kind == "synthetic":
            for name in ("train_images", "train_labels", "test_images", "test_labels",
                         "subset", "test_subset"):
                if getattr(self, name) is not None:
                    raise ConfigurationError(
                        f"{name} applies only to kind 'mnist', got {getattr(self, name)!r} "
                        f"with kind 'synthetic'")
        minimums = {"classes": 2, "dim": 1, "train_count": 1, "test_count": 1,
                    "subset": 1, "test_subset": 1}
        for name, low in minimums.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {value}")
        if not self.spread > 0:
            raise ConfigurationError(f"spread must be > 0, got {self.spread}")


@dataclass(frozen=True)
class MarketConfig:
    """The `market` section: a level count plus `contracts.MarketModel`'s
    scalars, whose defaults and range checks the model owns."""

    levels: int = 10
    xi: float = MarketModel.xi
    c: float = MarketModel.c
    f: float = MarketModel.f
    t_com: float = MarketModel.t_com
    e_com: float = MarketModel.e_com
    lambda1: float = MarketModel.lambda1
    lambda2: float = MarketModel.lambda2
    t_max: float = MarketModel.t_max

    def __post_init__(self):
        self.to_market()  # the market's own checks, levels included, at parse time

    def to_market(self) -> MarketModel:
        return MarketModel.uniform(
            self.levels, xi=self.xi, c=self.c, f=self.f, t_com=self.t_com,
            e_com=self.e_com, lambda1=self.lambda1, lambda2=self.lambda2,
            t_max=self.t_max)


class CurveConfig(AccuracyCurveParams):
    """The `curve` section: `contracts.AccuracyCurveParams`, which owns its
    fields, defaults and range checks; this adds only `to_params`."""

    def to_params(self) -> AccuracyCurveParams:
        return self


@dataclass(frozen=True)
class TrainingConfig:
    lr: float = 0.01
    batch_size: int = 20
    hidden1: int = 64
    hidden2: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(
                f"lr must be a positive finite number, got {self.lr}")
        for name in ("batch_size", "hidden1", "hidden2"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class AttackConfig:
    count: int = 0
    flip_fraction: float = 0.5

    def __post_init__(self):
        if self.count < 0:
            raise ConfigurationError(f"count must be >= 0, got {self.count}")
        if not 0 <= self.flip_fraction <= 1:
            raise ConfigurationError(
                f"flip_fraction must be in [0, 1], got {self.flip_fraction}")


@dataclass(frozen=True)
class BaselineConfig:
    local_epochs: int = 10
    prox_mu: float = 0.01

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ConfigurationError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.prox_mu < 0:
            raise ConfigurationError(f"prox_mu must be >= 0, got {self.prox_mu}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    rounds: int = 30
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    market: MarketConfig = field(default_factory=MarketConfig)
    quality: QualityParams = field(default_factory=QualityParams)
    curve: CurveConfig = field(default_factory=CurveConfig)
    timing: TimingParams = field(default_factory=TimingParams)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    gate: GateParams = field(default_factory=GateParams)
    attack: AttackConfig = field(default_factory=AttackConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)

    def __post_init__(self):
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        # limits that span two sections
        k = self.partition.num_clients
        if self.attack.count > k:
            raise ConfigurationError(
                f"attack.count {self.attack.count} exceeds partition.num_clients {k}")
        if self.dataset.kind == "synthetic":
            n = self.dataset.train_count
            check_pool(n, self.partition, f"dataset.train_count {n}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config field {sorted(unknown)[0]}")
        kwargs = {}
        for f in fields(cls):
            if f.name not in d:
                continue
            if f.default_factory is dataclasses.MISSING:
                kwargs[f.name] = _coerce_scalar(d[f.name], f.type, f.name)
            else:  # a section: its class is its field's default factory
                kwargs[f.name] = _build_section(f.default_factory, d[f.name], f.name)
        return cls(**kwargs)


def check_pool(n: int, spec: PartitionSpec, source: str) -> None:
    """Reject a train set of n rows whose pool, after the validation holdout,
    leaves some client's Zipf share 0 rows. The error names `source`, the
    field or file that set n, and the partition fields that ask too much."""
    k = spec.num_clients
    pool = n - holdout_count(n, spec.val_fraction)
    e = spec.zipf_exponent
    # pool < k already leaves a client 0 rows, and it keeps a huge k from
    # sizing zipf_counts' arrays
    if pool < k or zipf_counts(pool, k, e).min() < 1:
        raise ConfigurationError(
            f"{source} leaves a pool of {pool} after the validation holdout, "
            f"too small for partition.num_clients {k} at partition.zipf_exponent "
            f"{e}: some client's Zipf share rounds to 0 rows")


_SCALAR_KINDS = {
    "int": "an integer",
    "float": "a number",
    "str": "a string",
    "int | None": "an integer or null",
    "str | None": "a string or null",
}


def _coerce_scalar(value, annotation: str, path: str):
    # Overrides and JSON files deliver untyped values; reject mismatches here
    # so a string learning rate fails at parse time, not mid-training.
    base = annotation.split(" |")[0]
    if value is None and annotation.endswith("None"):
        return None
    if not isinstance(value, bool):  # bool passes isinstance(int) checks
        if base == "float" and isinstance(value, (int, float)):
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"config field {path!r} expects a finite number, got {value!r}")
            return float(value)
        if base == "int":
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
    if base == "str" and isinstance(value, str):
        return value
    raise ConfigurationError(
        f"config field {path!r} expects {_SCALAR_KINDS[annotation]}, got {value!r}")


def _build_section(section_cls, value, path: str):
    if not isinstance(value, dict):
        raise ConfigurationError(f"config section {path!r} must be an object")
    annotations = {f.name: f.type for f in fields(section_cls)}
    unknown = set(value) - set(annotations)
    if unknown:
        raise ConfigurationError(f"unknown config field {path}.{sorted(unknown)[0]}")
    clean = {k: _coerce_scalar(v, annotations[k], f"{path}.{k}")
             for k, v in value.items()}
    try:
        return section_cls(**clean)
    except ConfigurationError as exc:
        # a section names the bare field; the path in front is added here only
        raise ConfigurationError(f"{path}.{exc}") from exc


def _read_config_file(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return raw


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_desk() -> ExperimentConfig:
    """Minutes-scale comparative run on synthetic blobs, 20 clients.

    Quality and accuracy-curve parameters are recalibrated for shards of
    50..1000 samples: the full-scale defaults assume thousands of samples
    per client and would floor every desk client to the minimum quality
    score (and push optimal efforts far past anything a small shard can
    use). Five contract levels keep several clients per level so the
    per-level admission statistics stay meaningful.
    """
    return ExperimentConfig(
        seed=0,
        rounds=30,
        dataset=DatasetConfig(kind="synthetic", classes=10, dim=64,
                              train_count=4000, test_count=1000, spread=0.25),
        partition=PartitionSpec(num_clients=20, max_classes_per_client=10),
        market=MarketConfig(levels=5),
        quality=QualityParams(gamma1=1.68, gamma2=0.114, gamma3=20.0, gamma4=0.5),
        curve=CurveConfig(beta4=1.0),
        timing=TimingParams(delta_t=16.0),
        training=TrainingConfig(lr=0.15, batch_size=10),
    )


def preset_paper_noattack() -> ExperimentConfig:
    """Full-scale run: 100 clients on MNIST, no attackers."""
    return ExperimentConfig(
        seed=0,
        rounds=300,
        dataset=DatasetConfig(kind="mnist"),
        partition=PartitionSpec(num_clients=100),
        timing=TimingParams(delta_t=1.0),
    )


def preset_paper_attack30() -> ExperimentConfig:
    """Full-scale run with 30 label-flipping clients."""
    cfg = preset_paper_noattack()
    return dataclasses.replace(cfg, attack=AttackConfig(count=30, flip_fraction=0.5))


PRESETS = {
    "desk": preset_desk,
    "paper-noattack": preset_paper_noattack,
    "paper-attack30": preset_paper_attack30,
}


def resolve_config(preset: str | None, config_path: str | None,
                   overrides: list[str] | None = None) -> ExperimentConfig:
    """Build a config, the only way the package does: lay a config file,
    then each override, over a base, and validate once.

    The base is the named preset; the library defaults (`ExperimentConfig()`)
    when only a file is given; desk when neither is. An override
    'section.key=value' (or 'seed=7') is laid over the dict as the file is,
    and a value that is not JSON is a bare string. A later patch wins, and a
    limit spanning two patched fields is judged on their final values.
    """
    if preset is not None and preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    if preset is None and config_path is not None:
        base = ExperimentConfig()
    else:
        base = PRESETS[preset or "desk"]()
    d = base.to_dict()
    if config_path is not None:
        _deep_update(d, _read_config_file(config_path))
    for item in overrides or []:
        path, eq, raw = item.partition("=")
        if not eq or "" in path.split("."):
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are allowed unquoted
        for key in reversed(path.split(".")):
            value = {key: value}
        _deep_update(d, value)
    return ExperimentConfig.from_dict(d)


def _deep_update(base: dict, patch: dict) -> None:
    # an unknown key is laid over like any other, for from_dict to reject
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
