"""Self-test of the benchmark: a short run of each workload, in both modes.

    python3 bench/selftest.py

Each workload runs for three rounds (its accuracy floor is not applied, since
three rounds do not train a model). The self-test checks that:
- BENCHMARK.json names exactly the workloads in bench/workloads.py;
- every end-to-end metric of BENCHMARK.json is printed with its unit with
  --trace 0, and every per-layer metric with --trace 1, and no others;
- every correctness check passes;
- spans nest: each child lies inside its parent and shares its run id;
- the spans directly under the run cover at least 90% of the traced wall;
- the benchmark exits non-zero without a result in a directory that holds
  only BENCHMARK.json and bench/.
It prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT = ("rounds=3",)


def spans_nest(path: str) -> str | None:
    """None if every span lies inside its parent; else the first offender."""
    with gzip.open(path, "rt", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if float(row["end_s"]) < float(row["start_s"]):
            return f"span {row['span']} ({row['name']}) ends before it starts"
        parent = int(row["parent"])
        if parent < 0:
            continue
        up = rows[parent]
        if (up["run_id"] != row["run_id"]
                or float(row["start_s"]) < float(up["start_s"])
                or float(row["end_s"]) > float(up["end_s"])):
            return (f"span {row['span']} ({row['name']}) is not inside its "
                    f"parent {parent} ({up['name']})")
    return None


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the workloads of bench/workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, details = run.measure(name, 0, 1, bool(trace), SHORT,
                                          check_floor=False)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == wanted[trace],
                  f"{name} --trace {trace}: metrics and units match BENCHMARK.json")
            check(result["correct"] and not details["failures"],
                  f"{name} --trace {trace}: correctness checks pass "
                  f"{details['failures'] or ''}")
            if trace:
                for path in details["spans"]:
                    bad = spans_nest(path)
                    check(bad is None, f"{name}: spans nest {bad or ''}")
                coverage = result["metrics"]["trace.coverage"]["value"]
                check(coverage >= 0.9,
                      f"{name}: spans under the run cover {coverage:.3f} of wall")

    bare = run.OUT_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-async", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "refuses to run without the sources")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
