"""Contract-incentivized asynchronous federated learning, simulated end to end.

The package is a plain numpy/scipy library. `contracts` prices a menu of
effort/reward pairs for a heterogeneous client market, `datasets` builds and
partitions the data, `simulation` runs the asynchronous training loop with
quality-gated admission, `baselines` provides synchronous reference
algorithms, and `experiment` ties everything into reproducible artifact-
producing runs. The `contractfl` console script exposes the same pipeline.
"""

from .baselines import local_sgd_run, run_sync
from .config import ExperimentConfig, PRESETS, apply_overrides, load_config, resolve_config
from .contracts import (AccuracyCurveParams, ContractEntry, ContractMenu,
                        ContractReport, MarketModel, QualityParams,
                        accuracy_curve, client_utility, data_quality,
                        effort_cost_coeffs, local_epochs, per_level_objective,
                        publisher_constant, quality_level,
                        rewards_from_efforts, solve_contract, verify_contract)
from .datasets import (Dataset, DatasetView, PartitionSpec, emd, flip_labels,
                       largest_remainder, load_idx_pair, parse_idx, partition,
                       split_holdout, synthetic_pair, uniform_benchmark,
                       zipf_counts)
from .errors import (ConfigurationError, ContractViolation, DataFormatError,
                     InfeasibleEffort, TrainingDiverged)
from .experiment import (partition_report, prepare, run_async_experiment,
                         run_baseline_experiment, select_attackers)
from .fitting import FitResult, fit_curve, predict
from .nn import (Model, aggregate, evaluate, init_model, load_model,
                 loss_and_gradient, save_model, train_epochs_tracked)
from .seeds import child_seed
from .simulation import (AccessDecision, AsyncSimulation, Client, RoundLedger,
                         TimingParams, access_control, access_indicator,
                         settle_rewards)

__version__ = "0.1.0"

__all__ = [
    "AccessDecision", "AccuracyCurveParams", "AsyncSimulation",
    "Client", "ConfigurationError", "ContractEntry", "ContractMenu",
    "ContractReport", "ContractViolation", "Dataset", "DatasetView",
    "DataFormatError", "ExperimentConfig", "FitResult", "InfeasibleEffort",
    "MarketModel", "Model", "PRESETS", "PartitionSpec", "QualityParams",
    "RoundLedger", "TimingParams", "TrainingDiverged", "access_control",
    "access_indicator", "accuracy_curve", "aggregate", "apply_overrides",
    "child_seed", "client_utility", "data_quality", "effort_cost_coeffs",
    "emd", "evaluate", "fit_curve", "flip_labels", "init_model",
    "largest_remainder", "load_config", "load_idx_pair", "load_model",
    "local_epochs", "local_sgd_run", "loss_and_gradient", "parse_idx",
    "partition", "partition_report", "per_level_objective", "predict",
    "prepare", "publisher_constant", "quality_level", "resolve_config",
    "rewards_from_efforts", "run_async_experiment",
    "run_baseline_experiment", "run_sync", "save_model", "select_attackers",
    "settle_rewards", "solve_contract", "split_holdout", "synthetic_pair",
    "train_epochs_tracked", "uniform_benchmark", "verify_contract",
    "zipf_counts",
]
