"""contractfl benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload desk-async --seed 0 --seconds 40 --trace 0

Run it from the repository root or anywhere else; it finds the sources in
../src relative to this file. Workloads are defined in bench/workloads.py.

Every run of the workload is a fresh interpreter (bench/worker.py) with BLAS
threads set to 1, one run at a time (a closed loop). With --trace 0 the
benchmark first sets up the workload SETUP_RUNS times, then runs it
untraced until --seconds have passed (at least twice, for the determinism
check), and reports the end-to-end metrics. With --trace 1 it runs the
workload once untraced and then traced until --seconds have passed, and
reports the per-layer metrics; trace.overhead_s is the traced wall minus the
untraced wall.

Checks, each of which fails the run it concerns: the worker exits cleanly;
the contract solved for the workload's market verifies (and so does the one
in contracts.json); the final test accuracy is at or above the workload's
floor; the deterministic artifacts of every run are byte-identical to the
first run's; in traced runs, the counted SGD steps equal
sum(tau * ceil(d_k / B)) over the training cycles the artifacts record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds provenance, checks
and details, which are also saved to .bench_out/<workload>-seed<N>-trace<T>/
result.json with each run's artifacts (and spans.csv.gz for traced runs).
The details also carry round_ms_p50, round_ms_tail, time_to_target_s,
final_test_accuracy and failed_ratio. They are not among the metrics because
they depend on the seed far more than any regression bound could allow.
Exit status is 2 for bad arguments or a missing source tree, 1 when no run
of the workload succeeded, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".bench_out"
SETUP_RUNS = 3
# the whole command must end well within 180 s
CHILD_BUDGET_S = 165.0

ASYNC_ARTIFACTS = ("config-echo.json", "contracts.json", "partition.csv",
                   "rounds.csv", "ledger.csv", "settlement.json", "model.bin")
FEDAVG_ARTIFACTS = ("config-echo.json", "partition.csv", "rounds.csv",
                    "summary.json", "model.bin")

CHECKS = ("worker exits cleanly", "contract verifies", "accuracy floor",
          "artifacts byte-identical across runs",
          "counted SGD steps match the artifacts (traced runs)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "nn.sgd_steps": "count",
    "nn.sgd_samples": "count",
    "nn.step_s": "s",
    "nn.step_us_p50": "us",
    "nn.step_us_tail": "us",
    "nn.step_gflop": "GFLOP",
    "nn.step_gflop_per_s": "GFLOP/s",
    "nn.train_calls": "count",
    "nn.train_s": "s",
    "nn.train_self_s": "s",
    "nn.evaluate_calls": "count",
    "nn.evaluate_rows": "count",
    "nn.evaluate_s": "s",
    "nn.aggregate_calls": "count",
    "nn.aggregate_deltas": "count",
    "nn.aggregate_s": "s",
    "nn.save_s": "s",
    "datasets.build_s": "s",
    "datasets.holdout_s": "s",
    "datasets.partition_s": "s",
    "datasets.feature_bytes_gathered": "bytes",
    "contracts.solve_s": "s",
    "contracts.verify_s": "s",
    "contracts.levels": "count",
    "experiment.prepare_s": "s",
    "experiment.write_s": "s",
    "experiment.artifact_bytes": "bytes",
    "rounds.count": "count",
    "rounds.init_s": "s",
    "rounds.round_s": "s",
    "rounds.round_self_s": "s",
    "simulation.useful_step_ratio": "ratio",
    "simulation.cohort_size_mean": "count",
    "simulation.cohort_step_ratio_p50": "ratio",
    "simulation.uploads": "count",
    "simulation.admitted": "count",
    "simulation.admitted_ratio": "ratio",
    "simulation.no_op_rounds": "count",
    "baselines.clients_per_round": "count",
    "baselines.cohort_step_ratio": "ratio",
    "process.import_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class RunFailed(Exception):
    """A worker run that exited badly or failed a correctness check."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # compile every run's sources alike and leave no caches in the tree
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, run_id: str, out_dir: Path,
          trace: bool, overrides, deadline: float) -> dict:
    """Start one worker interpreter and return its JSON report."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RunFailed("no time left for another run")
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--run-id", run_id,
           "--out", str(out_dir)]
    cmd += [arg for item in overrides for arg in ("--set", item)]
    if trace:
        cmd.append("--trace")
    spawned_at = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{run_id} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RunFailed(f"{run_id} exited {proc.returncode}: " + " | ".join(tail))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunFailed(f"{run_id} printed no JSON report") from exc


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def artifact_facts(run_dir: Path, pipeline: str) -> dict:
    """Counts a run's artifacts determine: cycles, steps, uploads, cohorts."""
    with open(run_dir / "config-echo.json") as fh:
        cfg = json.load(fh)
    batch = cfg["training"]["batch_size"]
    part = {int(r["client_id"]): r for r in _read_csv(run_dir / "partition.csv")}
    rounds = _read_csv(run_dir / "rounds.csv")
    facts = {
        "rounds.count": len(rounds),
        "contracts.levels": cfg["market"]["levels"],
        "experiment.artifact_bytes": sum(
            p.stat().st_size for p in run_dir.iterdir()
            if p.is_file() and p.name != "spans.csv.gz"),
        "simulation.useful_step_ratio": 1.0,
        "simulation.cohort_size_mean": 0.0,
        "simulation.cohort_step_ratio_p50": 0.0,
        "simulation.uploads": 0,
        "simulation.admitted": 0,
        "simulation.admitted_ratio": 0.0,
        "simulation.no_op_rounds": 0,
        "baselines.clients_per_round": 0.0,
        "baselines.cohort_step_ratio": 0.0,
    }
    if pipeline == "async":
        with open(run_dir / "contracts.json") as fh:
            facts["contract_ok"] = bool(json.load(fh)["verification"]["ok"])
        steps = {cid: int(r["tau"]) * math.ceil(int(r["d_k"]) / batch)
                 for cid, r in part.items()}
        samples = {cid: int(r["tau"]) * int(r["d_k"]) for cid, r in part.items()}
        ledger = _read_csv(run_dir / "ledger.csv")
        uploads = Counter(int(r["client_id"]) for r in ledger)
        by_round = defaultdict(list)
        for r in ledger:
            by_round[int(r["round"])].append(steps[int(r["client_id"])])
        # each client trains one cycle at start and one after each upload;
        # the last is still in flight at the horizon and is never used
        useful = sum(uploads[c] * steps[c] for c in part)
        trained = sum((uploads[c] + 1) * steps[c] for c in part)
        admitted = sum(int(r["admitted"]) for r in ledger)
        facts.update({
            "trained_steps": trained,
            "useful_samples": sum(uploads[c] * samples[c] for c in part),
            "simulation.useful_step_ratio": useful / trained,
            "simulation.cohort_size_mean": len(ledger) / len(rounds),
            "simulation.cohort_step_ratio_p50": percentile(
                [max(s) / min(s) for s in by_round.values()], 50.0)
            if by_round else 0.0,
            "simulation.uploads": len(ledger),
            "simulation.admitted": admitted,
            "simulation.admitted_ratio": admitted / len(ledger) if ledger else 0.0,
            "simulation.no_op_rounds": sum(
                int(r["admitted_count"]) == 0 for r in rounds),
        })
    else:
        epochs = cfg["baseline"]["local_epochs"]
        steps = [epochs * math.ceil(int(r["d_k"]) / batch) for r in part.values()]
        facts.update({
            "contract_ok": True,
            "trained_steps": len(rounds) * sum(steps),
            "useful_samples": len(rounds) * sum(
                epochs * int(r["d_k"]) for r in part.values()),
            "baselines.clients_per_round": statistics.fmean(
                int(r["participants"]) for r in rounds),
            "baselines.cohort_step_ratio": max(steps) / min(steps),
        })
    return facts


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_to_target(report: dict, target: float) -> tuple[float, bool]:
    """Seconds from spawn to the end of the first round reaching target;
    censored at the run's wall time when no round does."""
    for (_, _, acc, _), end_s in zip(report["history"], report["round_end_s"]):
        if acc >= target:
            return end_s, True
    return report["wall_s"], False


def measure(workload: str, seed: int, seconds: float, trace: bool,
            overrides=(), check_floor: bool = True) -> tuple[dict, dict]:
    """Run one benchmark invocation; return (result line, details).

    overrides are extra config overrides (the self-test shortens runs with
    them); check_floor=False skips the accuracy floor for such short runs.
    """
    wl = WORKLOADS[workload]
    start = time.perf_counter()
    deadline = start + CHILD_BUDGET_S
    out = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    names = ASYNC_ARTIFACTS if wl.pipeline == "async" else FEDAVG_ARTIFACTS

    attempted = 0
    failures: list[str] = []
    setups: list[float] = []
    good: list[dict] = []  # reports of full runs that passed every check

    def attempt(mode: str, k: int, traced: bool):
        nonlocal attempted
        attempted += 1
        run_id = f"{workload}-s{seed}-{mode}{k}{'-traced' if traced else ''}"
        run_dir = out / run_id
        try:
            report = spawn(mode, workload, seed, run_id, run_dir, traced,
                           overrides, deadline)
            if mode == "run":
                report.update(check_run(report, run_dir))
        except RunFailed as exc:
            failures.append(str(exc))
            return None
        report["traced"] = traced
        return report

    def check_run(report: dict, run_dir: Path) -> dict:
        try:
            facts = artifact_facts(run_dir, wl.pipeline)
        except (OSError, KeyError, ValueError) as exc:
            raise RunFailed(f"{run_dir.name}: unreadable artifacts: {exc!r}") from exc
        if not (report["contract_ok"] and facts["contract_ok"]):
            raise RunFailed(f"{run_dir.name}: contract failed verification")
        if check_floor and report["final_test_accuracy"] < wl.floor:
            raise RunFailed(f"{run_dir.name}: final test accuracy "
                            f"{report['final_test_accuracy']} below {wl.floor}")
        if good:
            first = out / good[0]["run_id"]
            differ = [n for n in names
                      if not filecmp.cmp(first / n, run_dir / n, shallow=False)]
            if differ:
                raise RunFailed(f"{run_dir.name}: artifacts differ from "
                                f"{first.name}: {', '.join(differ)}")
        counted = report.get("layers", {}).get("nn.sgd_steps")
        if counted is not None and counted != facts["trained_steps"]:
            raise RunFailed(
                f"{run_dir.name}: counted {counted} SGD steps, artifacts "
                f"imply {facts['trained_steps']}")
        return {"facts": facts}

    def keep_running(done: int, at_least: int, since: float) -> bool:
        elapsed = time.perf_counter() - since
        if time.perf_counter() + elapsed / max(done, 1) > deadline:
            return False
        return done < at_least or elapsed + elapsed / done <= seconds

    if not trace:
        for k in range(SETUP_RUNS):
            report = attempt("setup", k, False)
            if report is not None:
                setups.append(report["setup_s"])
        t0 = time.perf_counter()
        k = 0
        while keep_running(k, 2, t0):
            report = attempt("run", k, False)
            if report is not None:
                good.append(report)
            k += 1
    else:
        t0 = time.perf_counter()
        report = attempt("run", 0, False)
        if report is not None:
            good.append(report)
        k = 1
        while keep_running(k, 2, t0):
            report = attempt("run", k, True)
            if report is not None:
                good.append(report)
            k += 1

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not (traced if trace else untraced):
        raise RunFailed("no run of the workload succeeded: " + "; ".join(failures))

    facts = good[0]["facts"]
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "seed": seed,
            **good[0]["provenance"],
        },
        "checks": list(CHECKS),
        "failures": failures,
        "failed_ratio": {"value": len(failures) / attempted,
                         "failed": len(failures), "attempted": attempted},
        "seconds_elapsed": time.perf_counter() - start,
    }
    if not trace:
        rounds_ms = [ms for r in untraced for ms in r["round_ms"]]
        # fixed from the fewest rounds an invocation pools (two runs), so the
        # percentile a workload reports does not change with the run count
        tail_p = tail_percentile(2 * len(untraced[0]["round_ms"]))
        ttt = [time_to_target(r, wl.target) for r in untraced]
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "samples_per_s": statistics.median(
                r["facts"]["useful_samples"] / r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
        details.update({
            "runs": len(untraced),
            "setup_samples": len(setups) + len(untraced),
            # reported, not bounded: a round's work is set by which clients
            # upload in it, which the seed decides; over seeds 1-5 the p50
            # spread (IQR / median) was 0.58 on paper-synth
            "round_ms_p50": {"value": percentile(rounds_ms, 50.0), "unit": "ms",
                             "samples": len(rounds_ms)},
            "round_ms_tail": {"value": percentile(rounds_ms, tail_p), "unit": "ms",
                              "percentile": tail_p, "samples": len(rounds_ms)},
            "time_to_target_s": {
                "value": statistics.median(t for t, _ in ttt), "unit": "s",
                "target": wl.target, "reached_in_runs": sum(ok for _, ok in ttt),
                "runs": len(ttt)},
            "wall_s_runs": [r["wall_s"] for r in untraced],
            # checked against the floor, not a bounded metric: on paper-synth
            # it depends on which classes the uploaders hold, 0.40-0.70 over
            # seeds 0-4
            "final_test_accuracy": {"value": untraced[0]["final_test_accuracy"],
                                    "floor": wl.floor},
        })
    else:
        # counts repeat exactly from run to run; median_low keeps them whole
        metrics = {name: (statistics.median_low if PER_LAYER_UNITS[name] in
                          ("count", "bytes") else statistics.median)(
                              r["layers"][name] for r in traced)
                   for name in PER_LAYER_UNITS if name in traced[0]["layers"]}
        metrics.update({name: facts[name] for name in PER_LAYER_UNITS
                        if name in facts})
        metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - untraced[0]["wall_s"] if untraced else 0.0)
        units = PER_LAYER_UNITS
        details.update({
            "runs": len(traced),
            "step_us_tail_percentile": traced[0]["layers"]["_step_tail_percentile"],
            "spans_per_run": traced[0]["layers"]["_spans"],
            "spans": [str(out / r["run_id"] / "spans.csv.gz") for r in traced],
        })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(out / "result.json", "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=2)
        fh.write("\n")
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "contractfl" / "__init__.py").is_file():
        print(f"bench: no contractfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
