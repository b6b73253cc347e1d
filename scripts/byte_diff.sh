#!/usr/bin/env bash
# Show that the working tree moves no artifact byte against a revision.
#
# Usage: scripts/byte_diff.sh REV OUT
#
# Exports REV with `git archive` into OUT/parent-tree (no worktree, nothing
# under .git is touched), copies this tree's scripts/byte_identity.sh over the
# exported copy so both sides run the same runs, runs it in both trees into
# OUT/parent and OUT/change, then compares the two with `diff -r`, prints
# one summary line (the number of files compared, the number that differ or
# exist on one side only) and exits 0 when every artifact and every masked
# stdout and stderr is identical. A byte_identity.sh run that fails (say,
# the parent rejects a config field that the change adds) is named on
# stderr and still compared, so the diff shows which runs it affects; the
# script then exits 1.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 REV OUT" >&2
    exit 2
fi
REV=$1
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
OUT=$(cd "$2" && pwd)

rm -rf "$OUT/parent-tree" "$OUT/parent" "$OUT/change"
mkdir "$OUT/parent-tree"
git -C "$ROOT" archive "$REV" | tar -x -C "$OUT/parent-tree"
mkdir -p "$OUT/parent-tree/scripts"
cp "$ROOT/scripts/byte_identity.sh" "$OUT/parent-tree/scripts/byte_identity.sh"

status=0
bash "$OUT/parent-tree/scripts/byte_identity.sh" "$OUT/parent" \
    || { echo "byte_diff: a parent run failed" >&2; status=1; }
bash "$ROOT/scripts/byte_identity.sh" "$OUT/change" \
    || { echo "byte_diff: a change run failed" >&2; status=1; }
diff -r "$OUT/parent" "$OUT/change" || status=1
compared=$(for side in parent change; do (cd "$OUT/$side" && find . -type f); done \
    | sort -u | wc -l)
differ=$(diff -rq "$OUT/parent" "$OUT/change" | wc -l || true)
echo "byte_diff: $compared files compared, $differ differ"
exit "$status"
