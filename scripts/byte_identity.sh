#!/usr/bin/env bash
# Run the standard byte-identity runs of this checkout, all at seed 0 with
# one BLAS thread, into OUT.
#
# Usage: scripts/byte_identity.sh OUT
#
# The runs: desk simulate clean and attacked, a desk simulate whose
# validation split spans two evaluation chunks, desk baseline fedavg,
# fedprox and local-sgd, desk partition-stats, desk contract, fit on noiseless
# accuracy-curve samples written into OUT/fit-samples.csv, the benchmark's
# paper-synth workload, and three MNIST-preset runs on IDX files generated
# into OUT/mnist.
#
# Each run writes its artifacts to OUT/<run>/, and its stdout and stderr to
# OUT/<run>.stdout and OUT/<run>.stderr with the output path masked as "OUT",
# so that two checkouts' outputs compare byte for byte. To show that a change
# moves no byte, run this in a checkout of the parent commit and in one of
# the change, then compare the two: diff -r OUT_PARENT OUT_CHANGE
# The script exits 1 if any run exits non-zero.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1
failed=0

run() {  # run NAME ARGS...: contractfl ARGS --seed 0 --out OUT/NAME
    local name=$1 rc=0
    shift
    python3 -m contractfl.cli "$@" --seed 0 --out "$OUT/$name" \
        >"$OUT/$name.stdout" 2>"$OUT/$name.stderr" || rc=$?
    sed -i "s#$OUT#OUT#g" "$OUT/$name.stdout" "$OUT/$name.stderr"
    if [ "$rc" -ne 0 ]; then
        echo "$name: exit $rc" >&2
        failed=1
    fi
}

# the benchmark's paper-synth workload: its preset and overrides, which hold
# no spaces, as command-line arguments
synth=$(python3 - "$ROOT/bench" <<'PY'
import sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
w = WORKLOADS["paper-synth"]
print(" ".join([f"--preset {w.preset}", *(f"--set {o}" for o in w.overrides)]))
PY
)

run simulate-clean simulate --preset desk
run simulate-attacked simulate --preset desk --attackers 6 --flip-fraction 1.0
# 46,000 rows hold out 4,600 for validation: more than one 4,096-row chunk
run simulate-val-chunks simulate --preset desk \
    --set dataset.train_count=46000 --rounds 2
for algorithm in fedavg fedprox local-sgd; do
    run "baseline-$algorithm" baseline "$algorithm" --preset desk
done
run partition-stats partition-stats --preset desk
run contract contract --preset desk

# noiseless accuracy-curve points on an 8 x 10 effort-quality grid
python3 - "$OUT/fit-samples.csv" <<'PY'
import sys
import numpy as np
from contractfl.contracts import AccuracyCurveParams, accuracy_curve
rows = ["effort,theta,accuracy"]
for e in np.linspace(50.0, 15000.0, 8):
    for theta in np.arange(1, 11) / 10.0:
        acc = accuracy_curve(e, theta, AccuracyCurveParams())
        rows.append(f"{float(e)!r},{float(theta)!r},{float(acc)!r}")
with open(sys.argv[1], "w") as fh:
    fh.write("\n".join(rows) + "\n")
PY
run fit fit "$OUT/fit-samples.csv" --model accuracy_curve
run paper-synth simulate $synth

# the MNIST presets on generated IDX files (tests/common.py writes them),
# cut down to run in seconds: the loader, subset, holdout and partition path
# that real MNIST takes
python3 "$ROOT/tests/common.py" "$OUT/mnist"
export MNIST_DIR="$OUT/mnist"
run mnist-attack30 simulate --preset paper-attack30 \
    --set partition.num_clients=10 --set attack.count=3 --rounds 2
subset="--set dataset.subset=1000 --set dataset.test_subset=200"
run mnist-subset simulate --preset paper-noattack $subset --rounds 30
run mnist-local-sgd baseline local-sgd --preset paper-noattack $subset --rounds 3
exit "$failed"
