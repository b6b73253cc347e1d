"""The benchmark's workloads: config patches on presets, each run by a pipeline.

A workload names a preset, the dotted overrides applied on top of it (the
seed is added by the benchmark from its --seed argument) and the public
entry point that runs it. Runs are a closed loop: one experiment at a time,
each in a fresh interpreter.

Measured property shares at seed 0 (2 cores, OpenBLAS 0.3.31, 1 BLAS thread):

    workload     useful_step_ratio  cohort_step_ratio  uploaders/round
    desk-async   0.949              1.12 (p50)         12.5
    desk-fedavg  1.0 (all cycles)   20.2 (d_k spread)  20 (every client)
    paper-synth  0.497              261 (p50)          48.2

`useful_step_ratio` is the share of SGD steps whose cycle was uploaded before
the horizon; `cohort_step_ratio` is max/min SGD steps among the clients that
start a cycle together in one round.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: tuple[str, ...]
    # "async" runs experiment.run_async_experiment; "fedavg" runs
    # experiment.run_baseline_experiment(cfg, "fedavg")
    pipeline: str
    # test accuracy whose first crossing is timed (time_to_target_s)
    target: float
    # a run whose final test accuracy is below this fails its check; set
    # well under the lowest accuracy seen (0.88 on desk over seeds 0-12,
    # 0.40 on paper-synth over seeds 0-4) so that only a broken pipeline
    # trips it
    floor: float
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk-async",
            preset="desk",
            overrides=(),
            pipeline="async",
            target=0.95,
            floor=0.70,
            why=("desk preset through the async pipeline: tiny 64-64-32-10 "
                 "matmuls, so per-step Python overhead dominates; "
                 "useful_step_ratio 0.949, cohort_step_ratio 1.12"),
        ),
        Workload(
            name="desk-fedavg",
            preset="desk",
            overrides=(),
            pipeline="fedavg",
            target=0.95,
            floor=0.70,
            why=("same population through synchronous FedAvg: same SGD kernel, "
                 "no gate, no contract, every client every round; "
                 "useful_step_ratio 1.0, cohort_step_ratio 20.2"),
        ),
        Workload(
            name="paper-synth",
            preset="paper-noattack",
            overrides=("dataset.kind=synthetic", "dataset.dim=784",
                       "dataset.train_count=20000", "dataset.test_count=2000",
                       "rounds=30"),
            pipeline="async",
            target=0.65,
            floor=0.20,
            why=("paper-noattack with 784-dim synthetic blobs for MNIST, 100 "
                 "clients: wide inputs; useful_step_ratio 0.497 (cycles past "
                 "the horizon), cohort_step_ratio 261"),
        ),
    )
}
