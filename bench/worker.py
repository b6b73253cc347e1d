"""One benchmark run in a fresh interpreter; prints one JSON object.

    python3 bench/worker.py --mode setup|run --workload NAME --seed N
        --spawned-at T --run-id ID --out DIR [--trace] [--set KEY=VALUE ...]

`--spawned-at` is the parent's time.perf_counter() just before it started
this interpreter (CLOCK_MONOTONIC, shared by all processes), so times below
count interpreter start-up and imports.

setup: resolve the config and call experiment.prepare, then report the time
    since spawn. That covers imports, config, data build, holdout,
    partition, quality levels and the contract solve.
run: run the workload through its public entry point, writing artifacts to
    --out. Without --trace only experiment.prepare and the round functions
    are wrapped (about thirty calls), for the setup time and per-round
    times. With --trace every layer listed in `_trace_layers` is wrapped and
    the spans are written to --out/spans.csv.gz after the run.

Run the benchmark through bench/run.py, which starts this script.
"""

import time

import argparse
import json
import os
import resource
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))


def _flops_per_sample(dims) -> int:
    # forward matmuls, weight gradients, and input gradients of layers 2 and
    # 3 (no gradient is taken with respect to the features)
    d0, d1, d2, d3 = dims
    return 2 * (2 * d0 * d1 + 3 * d1 * d2 + 3 * d2 * d3)


def _blas_info() -> dict:
    """OpenBLAS build string and live thread count, when the library says."""
    import ctypes

    import numpy as np

    info = {"blas_threads": None, "openblas_config": None}
    libdir = os.path.dirname(np.__file__) + ".libs"
    if not os.path.isdir(libdir):
        return info
    for fname in sorted(os.listdir(libdir)):
        if "openblas" not in fname:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libdir, fname))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["blas_threads"] = get_threads()
                info["openblas_config"] = get_config().decode()
                return info
    return info


def _trace_layers(tracer, modules) -> None:
    """Wrap each layer's public functions, one span name per layer."""
    baselines, contracts, experiment, nn, simulation = modules

    def count_train(args):
        n = len(args["data"].labels)
        epochs = args["epochs"]
        dims = args["model"].layer_dims
        tracer.add("nn.sgd_samples", epochs * n)
        tracer.add("nn.step_gflop", epochs * n * _flops_per_sample(dims) / 1e9)
        # ClientDataset.features copies the client's rows once per call and
        # every step gathers its batch rows: computed, not measured
        tracer.add("datasets.feature_bytes_gathered", (1 + epochs) * n * dims[0] * 8)

    def count_evaluate(args):
        tracer.add("nn.evaluate_rows", len(args["data"].labels))

    def count_aggregate(args):
        tracer.add("nn.aggregate_deltas", len(args["deltas"]))

    tracer.wrap(experiment, "synthetic_pair", "datasets.build")
    tracer.wrap(experiment, "split_holdout", "datasets.holdout")
    tracer.wrap(experiment, "partition", "datasets.partition")
    for owner in (experiment, contracts):
        tracer.wrap(owner, "solve_contract", "contracts.solve")
        tracer.wrap(owner, "verify_contract", "contracts.verify")
    tracer.wrap(nn, "init_model", "nn.init")
    tracer.wrap(simulation.AsyncSimulation, "__init__", "simulation.init")
    tracer.wrap(simulation, "access_control", "simulation.access_control")
    tracer.wrap(experiment, "settle_rewards", "simulation.settle")
    tracer.wrap(nn, "train_epochs_tracked", "nn.train", count=count_train)
    tracer.wrap(nn, "loss_and_gradient", "nn.step")
    tracer.wrap(nn, "evaluate", "nn.evaluate", count=count_evaluate)
    tracer.wrap(nn, "aggregate", "nn.aggregate", count=count_aggregate)
    tracer.wrap(nn, "save_model", "nn.save")
    # every call after this one in run_*_experiment writes artifacts
    tracer.wrap(experiment, "write_config_echo", "experiment.write", phase=True)


def _layer_metrics(tracer, t_spawn: float, wall_s: float) -> dict:
    """Per-layer times and counts from this run's spans."""
    from tracing import percentile, tail_percentile

    rows = tracer.summary()

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def own(name):
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def per_call_median(name):
        durations = tracer.durations(name)
        return percentile(durations, 50.0) if durations else 0.0

    steps_us = [d * 1e6 for d in tracer.durations("nn.step")]
    step_tail = tail_percentile(len(steps_us))
    rounds = [i for i, n in enumerate(tracer.names) if n == "rounds.round"]
    prepare = [i for i, n in enumerate(tracer.names) if n == "experiment.prepare"]
    run = tracer.names.index("experiment.run")
    children = [i for i, p in enumerate(tracer.parents) if p == run]
    covered = total("process.import") + sum(
        tracer.ends[i] - tracer.starts[i] for i in children)
    step_s = total("nn.step")
    gflop = tracer.counts.get("nn.step_gflop", 0.0)
    return {
        "nn.sgd_steps": calls("nn.step"),
        "nn.sgd_samples": tracer.counts.get("nn.sgd_samples", 0),
        "nn.step_s": step_s,
        "nn.step_us_p50": percentile(steps_us, 50.0) if steps_us else 0.0,
        "nn.step_us_tail": percentile(steps_us, step_tail) if steps_us else 0.0,
        "nn.step_gflop": gflop,
        "nn.step_gflop_per_s": gflop / step_s if step_s else 0.0,
        "nn.train_calls": calls("nn.train"),
        "nn.train_s": total("nn.train"),
        "nn.train_self_s": own("nn.train"),
        "nn.evaluate_calls": calls("nn.evaluate"),
        "nn.evaluate_rows": tracer.counts.get("nn.evaluate_rows", 0),
        "nn.evaluate_s": total("nn.evaluate"),
        "nn.aggregate_calls": calls("nn.aggregate"),
        "nn.aggregate_deltas": tracer.counts.get("nn.aggregate_deltas", 0),
        "nn.aggregate_s": total("nn.aggregate"),
        "nn.save_s": total("nn.save"),
        "datasets.build_s": total("datasets.build"),
        "datasets.holdout_s": total("datasets.holdout"),
        "datasets.partition_s": total("datasets.partition"),
        "datasets.feature_bytes_gathered":
            tracer.counts.get("datasets.feature_bytes_gathered", 0),
        "contracts.solve_s": per_call_median("contracts.solve"),
        "contracts.verify_s": per_call_median("contracts.verify"),
        "experiment.prepare_s": total("experiment.prepare"),
        "experiment.write_s": total("experiment.write"),
        "rounds.init_s": (tracer.starts[rounds[0]] - tracer.ends[prepare[0]]
                          if rounds and prepare else 0.0),
        "rounds.round_s": total("rounds.round"),
        "rounds.round_self_s": own("rounds.round"),
        "process.import_s": total("process.import"),
        "trace.coverage": covered / wall_s,
        "_step_tail_percentile": step_tail,
        "_spans": len(tracer.names),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args()
    t_spawn = args.spawned_at

    sys.path.insert(0, _HERE)
    from tracing import Tracer
    from workloads import WORKLOADS

    from contractfl import baselines, config, contracts, experiment, nn, simulation
    t_import = time.perf_counter()

    wl = WORKLOADS[args.workload]
    cfg = config.resolve_config(
        wl.preset, None, [*wl.overrides, *args.set, f"seed={args.seed}"])

    if args.mode == "setup":
        experiment.prepare(cfg, solve_menu=wl.pipeline == "async")
        print(json.dumps({"setup_s": time.perf_counter() - t_spawn}))
        return 0

    tracer = Tracer(args.run_id)
    tracer.close(tracer.open("process.import", t_spawn), t_import)
    tracer.wrap(experiment, "prepare", "experiment.prepare")
    tracer.wrap(simulation.AsyncSimulation, "run_round", "rounds.round")
    tracer.wrap(baselines, "fedavg_round", "rounds.round")
    if args.trace:
        _trace_layers(tracer, (baselines, contracts, experiment, nn, simulation))

    run_span = tracer.open("experiment.run")
    if wl.pipeline == "async":
        result = experiment.run_async_experiment(cfg, out_dir=args.out)
    else:
        result = experiment.run_baseline_experiment(cfg, "fedavg", out_dir=args.out)
    tracer.close(run_span)
    t_end = time.perf_counter()
    wall_s = t_end - t_spawn
    usage = resource.getrusage(resource.RUSAGE_SELF)

    # the contract this workload's market is priced with must verify, also
    # for FedAvg, which never solves one; outside the timed run
    check_span = tracer.open("check")
    market, curve = cfg.market.to_market(), cfg.curve.to_params()
    contract_ok = contracts.verify_contract(
        contracts.solve_contract(market, curve), market).ok
    tracer.close(check_span)

    history = [list(row) for row in result["history"]]
    round_ends = [tracer.ends[i] - t_spawn
                  for i, n in enumerate(tracer.names) if n == "rounds.round"]
    out = {
        "run_id": args.run_id,
        "wall_s": wall_s,
        "setup_s": tracer.ends[tracer.names.index("experiment.prepare")] - t_spawn,
        "round_ms": [d * 1e3 for d in tracer.durations("rounds.round")],
        "round_end_s": round_ends,
        "history": history,
        "final_test_accuracy": history[-1][2],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "contract_ok": bool(contract_ok),
    }
    if args.trace:
        out["layers"] = _layer_metrics(tracer, t_spawn, wall_s)
        tracer.write(os.path.join(args.out, "spans.csv.gz"), t_spawn)

    import numpy
    import platform
    import scipy

    out["provenance"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": getattr(numpy.__config__, "CONFIG", {}).get(
            "Build Dependencies", {}).get("blas", {}).get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        **_blas_info(),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
