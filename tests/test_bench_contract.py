"""What the benchmark in bench/ relies on, checked without running it.

The benchmark resolves each workload's config through `config.resolve_config`,
calls the experiment entry points directly and wraps the program's functions
by attribute name. A config check that rejects a workload, a signature the
worker's calls no longer bind to, a rename that leaves a wrap pointing at
nothing, or a caller that bypasses a wrap fails here instead of in the
benchmark.
"""

import csv
import importlib.util
import inspect
import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest

from common import make_view, tiny_config
from contractfl import baselines, config, contracts, experiment, nn, simulation

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_workload_config_resolves(name, seed):
    wl = WORKLOADS[name]
    cfg = config.resolve_config(wl.preset, None, [*wl.overrides, f"seed={seed}"])
    assert cfg.seed == seed
    assert wl.pipeline in ("async", "fedavg")


class _StubTracer:
    """Records what the benchmark would wrap and count, and wraps nothing."""

    def __init__(self):
        self.wraps = []
        self.counts = {}

    def wrap(self, owner, attr, name, count=None, phase=False):
        self.wraps.append((owner, attr, name, count))

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


def test_traced_layers_wrap_functions_that_exist():
    tracer = _StubTracer()
    _load("worker")._trace_layers(
        tracer, (baselines, contracts, experiment, nn, simulation))
    assert tracer.wraps
    # the arguments a count hook may read, by the parameter name it reads
    model = nn.init_model((1, 3, 3, 2), seed=0)
    known = {"data": make_view(np.zeros((5, 1)), [0, 1, 0, 1, 1], 2),
             "epochs": 2, "model": model, "deltas": [model.params] * 3}
    for owner, attr, name, count in tracer.wraps:
        target = getattr(owner, attr, None)
        assert callable(target), f"{name}: {owner.__name__}.{attr} is gone"
        if count is not None:
            params = inspect.signature(target).parameters
            count({p: known.get(p) for p in params})
    assert tracer.counts["nn.sgd_samples"] == 2 * 5
    assert tracer.counts["nn.evaluate_rows"] == 5
    assert tracer.counts["nn.aggregate_deltas"] == 3


def test_worker_calls_bind_to_current_signatures():
    # the calls bench/worker.py makes, argument for argument
    cfg = tiny_config()
    inspect.signature(experiment.run_async_experiment).bind(cfg, out_dir="out")
    inspect.signature(experiment.run_baseline_experiment).bind(cfg, "fedavg",
                                                               out_dir="out")
    inspect.signature(experiment.prepare).bind(cfg, solve_menu=True)


def test_fedavg_rounds_go_through_the_wrapped_attribute(monkeypatch):
    # the benchmark times each FedAvg round by wrapping baselines.fedavg_round;
    # a driver that imported the name, or looped elsewhere, would escape it
    callers = []
    real = baselines.fedavg_round

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "fedavg_round", counting)
    experiment.run_baseline_experiment(tiny_config(rounds=2), "fedavg")
    assert callers == ["run_baseline_experiment"] * 2


def test_sgd_steps_match_what_the_artifacts_imply(monkeypatch, tmp_path):
    # the identity bench/run.py checks on traced runs: every client trains
    # one cycle per upload plus the one still in flight at the horizon, each
    # tau * ceil(d_k / batch_size) steps, read back from the artifacts
    steps = []
    real = nn.loss_and_gradient

    def counting(*args, **kwargs):
        steps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nn, "loss_and_gradient", counting)
    experiment.run_async_experiment(tiny_config(rounds=6), out_dir=tmp_path)
    with open(tmp_path / "config-echo.json") as fh:
        batch = json.load(fh)["training"]["batch_size"]
    with open(tmp_path / "partition.csv", newline="") as fh:
        part = list(csv.DictReader(fh))
    with open(tmp_path / "ledger.csv", newline="") as fh:
        uploads = Counter(int(r["client_id"]) for r in csv.DictReader(fh))
    assert sum(uploads.values()) > 0
    assert len(steps) == sum(
        (uploads[int(r["client_id"])] + 1) * int(r["tau"])
        * math.ceil(int(r["d_k"]) / batch) for r in part)
