#!/usr/bin/env bash
# Run the standard byte-identity runs of this checkout, all at seed 0 with
# one BLAS thread, into OUT. Every config value is set through --preset and
# --set, the one route into a run's config.
#
# Usage: scripts/byte_identity.sh OUT
#
# The runs, each named by its outputs under OUT; this is the one list of them:
#   simulate-clean            desk simulate
#   simulate-attacked         desk simulate, 6 attackers flipping every label
#   simulate-gate             the attacked run at a gate far from its defaults
#   simulate-val-chunks       desk simulate whose validation and test splits
#                             each span two evaluation chunks
#   simulate-one-row-batch    desk simulate whose clients end their epochs on
#                             one-row batches
#   baseline-fedavg, baseline-fedprox, baseline-local-sgd
#                             desk baselines, and each again attacked as
#                             baseline-<algorithm>-attacked (the synchronous
#                             arms of the attacked comparison; attacked FedProx
#                             also carries mu through the training call)
#   partition-stats, contract desk partition-stats and contract
#   fit                       fit on noiseless accuracy-curve samples written
#                             into OUT/fit-samples.csv
#   fit-quality               fit on noiseless data-quality samples
#                             (z, data_quality(z, 0.0)) written into
#                             OUT/fit-quality-samples.csv
#   paper-synth               the benchmark's paper-synth workload
#   demo-01, demo-02, demo-05 the three fast demos under demos/; demo 01 prices
#                             every payoff through MarketModel.utility, and
#                             demo 05 calls fitting.predict
#   mnist-attack30, mnist-subset, mnist-local-sgd
#                             MNIST-preset runs on IDX files generated into
#                             OUT/mnist
#   mnist-gz-attack30         mnist-attack30 on gzipped copies of those files
#                             in OUT/mnist-gz (the streamed gzip read of whole
#                             files)
#   mnist-test-chunks         an MNIST-preset run whose 5,000-image test file,
#                             generated into OUT/mnist-test-chunks-data, spans
#                             two 4,096-row evaluation chunks
# Every simulate and baseline run stores its rows as 8-bit pixels and trains
# in float32.
#
# Each run writes its stdout and stderr to OUT/<run>.stdout and
# OUT/<run>.stderr with the output path masked as "OUT", and each CLI run
# its artifacts to OUT/<run>/, so that two checkouts' outputs compare byte
# for byte. To show that a change moves no byte, run this in a checkout of
# the parent commit and in one of the change, then compare the two:
# diff -r OUT_PARENT OUT_CHANGE (scripts/byte_diff.sh does all of this).
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

run_py() {  # run_py NAME ARGS...: python3 ARGS, output kept as OUT/NAME.std*
    local name=$1 rc=0
    shift
    python3 "$@" >"$OUT/$name.stdout" 2>"$OUT/$name.stderr" || rc=$?
    sed -i "s#$OUT#OUT#g" "$OUT/$name.stdout" "$OUT/$name.stderr"
    if [ "$rc" -ne 0 ]; then
        echo "$name: exit $rc" >&2
        failed=1
    fi
}

run_cli() {  # run_cli NAME ARGS...: contractfl ARGS --out OUT/NAME
    local name=$1
    shift
    run_py "$name" -m contractfl.cli "$@" --out "$OUT/$name"
}

run() {  # run NAME ARGS...: contractfl ARGS --set seed=0 --out OUT/NAME
    run_cli "$@" --set seed=0
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
attacked="--set attack.count=6 --set attack.flip_fraction=1.0"
run simulate-attacked simulate --preset desk $attacked
# every gate field off its default, so a simulator that ignored cfg.gate differs
run simulate-gate simulate --preset desk $attacked \
    --set gate.a=0.1 --set gate.epsilon=1.0 --set gate.phi=1.0
# 46,000 rows hold out 4,600 for validation and the test split holds 5,000:
# each is more than one 4,096-row chunk
run simulate-val-chunks simulate --preset desk \
    --set dataset.train_count=46000 --set dataset.test_count=5000 --set rounds=2
# batches of 11 end every epoch on one row for clients 8, 9, 14 and 17 (111,
# 100, 67 and 56 rows in partition.csv), all of which upload: the kernel's
# one-row step, whose products have a vector operand
run simulate-one-row-batch simulate --preset desk --set training.batch_size=11
for algorithm in fedavg fedprox local-sgd; do
    run "baseline-$algorithm" baseline "$algorithm" --preset desk
done
for algorithm in fedavg fedprox local-sgd; do
    run "baseline-$algorithm-attacked" baseline "$algorithm" --preset desk $attacked
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
# fit takes no config; its --seed seeds the restart jitter
run_cli fit fit "$OUT/fit-samples.csv" --model accuracy_curve --seed 0

# noiseless quality points (z, data_quality(z, 0.0)) on a geometric z-grid
# above the 0.01 floor, which data_quality reaches below z = 6
python3 - "$OUT/fit-quality-samples.csv" <<'PY'
import sys
import numpy as np
from contractfl.contracts import data_quality
rows = ["effective_quantity,theta"]
for z in np.geomspace(10.0, 20000.0, 24):
    rows.append(f"{float(z)!r},{data_quality(float(z), 0.0)!r}")
with open(sys.argv[1], "w") as fh:
    fh.write("\n".join(rows) + "\n")
PY
run_cli fit-quality fit "$OUT/fit-quality-samples.csv" --model data_quality --seed 0
run paper-synth simulate $synth
for demo in 01_contract_menu 02_partition_and_quality 05_curve_fitting; do
    run_py "demo-${demo%%_*}" "$ROOT/demos/$demo.py"
done

# the MNIST presets on generated IDX files (tests/common.py writes them),
# cut down to run in seconds: the loader, subset, holdout and partition path
# that real MNIST takes
python3 "$ROOT/tests/common.py" "$OUT/mnist"
export MNIST_DIR="$OUT/mnist"
run mnist-attack30 simulate --preset paper-attack30 \
    --set partition.num_clients=10 --set attack.count=3 --set rounds=2
subset="--set dataset.subset=1000 --set dataset.test_subset=200"
run mnist-subset simulate --preset paper-noattack $subset --set rounds=30
run mnist-local-sgd baseline local-sgd --preset paper-noattack $subset --set rounds=3
# the same files gzipped (no name, no timestamp): the loader reads each whole
mkdir -p "$OUT/mnist-gz"
for f in "$OUT"/mnist/*; do
    gzip -n -c "$f" >"$OUT/mnist-gz/$(basename "$f").gz"
done
export MNIST_DIR="$OUT/mnist-gz"
run mnist-gz-attack30 simulate --preset paper-attack30 \
    --set partition.num_clients=10 --set attack.count=3 --set rounds=2
# every test evaluation decodes the test file's pixels in two chunks
python3 "$ROOT/tests/common.py" "$OUT/mnist-test-chunks-data" 1500 5000
export MNIST_DIR="$OUT/mnist-test-chunks-data"
run mnist-test-chunks simulate --preset paper-noattack --set rounds=2
exit "$failed"
