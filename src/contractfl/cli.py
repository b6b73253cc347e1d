"""Command-line entry points.

Subcommands:
    contract         solve a contract menu and verify participation/self-selection
    simulate         run the asynchronous pipeline end to end
    baseline         run fedavg, fedprox, or local-sgd on the same population
    fit              fit a response-curve model to CSV samples
    partition-stats  describe the client partition a config would produce

Every subcommand but fit takes its config one way: --preset, then a
--config file, then each --set KEY=VALUE in order (the seed too, as
--set seed=N), and the whole config is validated once. A run is fully
pinned by its arguments; rerunning with the same arguments reproduces
every output byte for byte, on any host thread count: numpy's OpenBLAS runs
on one thread for the length of every subcommand.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings

import numpy as np

from . import fitting
from .blas import set_blas_threads
from .config import PRESETS, resolve_config
from .contracts import solve_contract, verify_contract
from .errors import (ConfigurationError, ContractViolation, DataFormatError,
                     InfeasibleEffort, TrainingDiverged)
from .experiment import (BASELINE_ALGORITHMS, prepare, run_async_experiment,
                         run_baseline_experiment, write_contracts_json, write_json,
                         write_partition_csv)

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="start from a named preset (default: desk, or the "
                             "library defaults when only --config is given)")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file patched over the preset (over "
                             "the library defaults if --preset is not given)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config field by dotted path, e.g. "
                             "--set rounds=5 (repeatable, applied in order)")
    parser.add_argument("--out", metavar="DIR", help="directory for artifacts")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")


def _cmd_contract(args) -> int:
    cfg = resolve_config(args.preset, args.config, args.overrides)
    market = cfg.market.to_market()
    menu = solve_contract(market, cfg.curve.to_params())
    report = verify_contract(menu, market)
    print(f"{'level':>5} {'theta':>8} {'p':>8} {'effort':>14} {'reward':>14}")
    for en in menu.entries:
        print(f"{en.level:>5} {en.theta:>8.3f} {en.p:>8.3f} "
              f"{en.effort:>14.4f} {en.reward:>14.4f}")
    prov = menu.provenance
    print(f"publisher utility: {prov.get('publisher_utility'):.6f}")
    if report.ok:
        print("verification: ok (participation and self-selection hold)")
    else:
        print(f"verification: FAILED ({len(report.violations)} violations)")
        for v in report.violations:
            print(f"  {v}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "contracts.json")
        write_contracts_json(menu, report, path)
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_simulate(args) -> int:
    cfg = resolve_config(args.preset, args.config, args.overrides)
    result = run_async_experiment(cfg, out_dir=args.out)
    pub = result["publisher"]
    print(f"rounds: {pub['rounds']}")
    print(f"final test accuracy: {pub['final_test_accuracy']:.4f}")
    print(f"final test loss: {pub['final_test_loss']:.6f}")
    print(f"rewards paid: {pub['total_paid']:.2f} "
          f"(withheld: {pub['total_withheld']:.2f})")
    if args.out:
        print(f"artifacts in {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    cfg = resolve_config(args.preset, args.config, args.overrides)
    result = run_baseline_experiment(cfg, args.algorithm, out_dir=args.out)
    print(f"algorithm: {result['algorithm']}")
    print(f"rounds: {result['rounds']}")
    print(f"final test accuracy: {result['final_test_accuracy']:.4f}")
    print(f"final test loss: {result['final_test_loss']:.6f}")
    if args.out:
        print(f"artifacts in {args.out}")
    return 0


def _read_samples(path) -> np.ndarray:
    """Load numeric CSV rows; a non-numeric first line is treated as a header."""
    with open(path) as fh:
        first = fh.readline()
    skip = 0
    try:
        [float(tok) for tok in first.strip().split(",") if tok != ""]
    except ValueError:
        skip = 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "no data" warning
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise DataFormatError(f"could not parse numeric CSV {path}: {exc}") from exc
    return data


def _cmd_fit(args) -> int:
    samples = _read_samples(args.samples)
    result = fitting.fit_curve(samples, args.model, seed=args.seed or 0,
                               n_starts=args.starts)
    print(f"model: {result.model_id}")
    for name, value in result.params.items():
        print(f"  {name} = {value:.6g}")
    print(f"rmse: {result.rmse:.6g}")
    print(f"converged: {result.converged} ({result.n_evals} evaluations)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fit.json")
        write_json({"model": result.model_id, "params": result.params,
                    "rmse": result.rmse, "converged": result.converged,
                    "n_evals": result.n_evals}, path)
        print(f"wrote {path}")
    return 0


def _cmd_partition_stats(args) -> int:
    cfg = resolve_config(args.preset, args.config, args.overrides)
    clients = prepare(cfg, solve_menu=False).clients
    print(f"{'client':>6} {'d_k':>6} {'emd':>8} {'theta':>8} {'level':>5} {'mal':>3}")
    for c in clients:
        print(f"{c.client_id:>6} {c.d_k:>6} {c.emd:>8.4f} {c.theta:>8.4f} "
              f"{c.level:>5} {int(c.malicious):>3}")
    counts = [c.d_k for c in clients]
    print(f"clients: {len(clients)}, samples: {sum(counts)}, "
          f"d_k range: [{min(counts)}, {max(counts)}]")
    by_level: dict[int, int] = {}
    for c in clients:
        by_level[c.level] = by_level.get(c.level, 0) + 1
    print("level counts: " + ", ".join(f"{lv}:{n}" for lv, n in sorted(by_level.items())))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "partition.csv")
        write_partition_csv(clients, path)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractfl",
        description="Contract-incentivized asynchronous federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contract", help="solve and verify a contract menu")
    _add_common(p)
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("simulate", help="run the asynchronous pipeline")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("baseline", help="run a synchronous baseline")
    p.add_argument("algorithm", choices=BASELINE_ALGORITHMS)
    _add_common(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("fit", help="fit a response curve to CSV samples")
    p.add_argument("samples", help="CSV of observations, target in the last column")
    p.add_argument("--model", required=True, choices=sorted(fitting.DEFAULT_INITS),
                   help="which curve to fit")
    p.add_argument("--seed", type=int, default=0, help="restart jitter seed")
    p.add_argument("--starts", type=int, default=8, help="optimizer restarts")
    p.add_argument("--out", metavar="DIR", help="directory for fit.json")
    p.add_argument("--verbose", action="store_true", help="log at INFO level")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("partition-stats", help="describe the client partition")
    _add_common(p)
    p.set_defaults(func=_cmd_partition_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    # one BLAS thread, so that equal arguments give equal bytes on any host
    # thread count; the caller's count is restored on the way out
    previous = set_blas_threads(1)
    try:
        return args.func(args)
    except (ConfigurationError, ContractViolation, DataFormatError,
            InfeasibleEffort, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            set_blas_threads(previous)


if __name__ == "__main__":
    sys.exit(main())
