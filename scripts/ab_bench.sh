#!/bin/sh
# A/B benchmark of revision REV against the working tree on one workload.
# REV's committed src/ is extracted into a temporary directory with
# `git archive`, next to a copy of this tree's bench/, so both sides run
# the same harness. Then PAIRS pairs of `bench/run.py --trace 0` runs of
# SECONDS seconds each: pair i runs both sides at seed i, REV first when i
# is odd and the tree first when i is even. Each run prints one line
#
#     rev|tree PAIR RESULT_JSON
#
# RESULT_JSON being the run's last line of standard output (correctness,
# operation counts and end-to-end metrics). Three lines come first:
#
#     machine {"cores": ..., "python": ..., "numpy": ..., "platform": ...}
#     revisions {"parent": SHA, "change": SHA, "change_dirty": true|false}
#     run {"workload": "WORKLOAD", "pairs": PAIRS, "seconds": "SECONDS"}
#
# the change being this tree's HEAD, dirty when its src/ or bench/ differ
# from HEAD or hold untracked files. A failing run prints its standard
# error and stops the script. The temporary directory is removed on exit.
# Runs take SECONDS plus a few seconds of checks and set-up each.
#
# Usage: sh scripts/ab_bench.sh REV WORKLOAD PAIRS SECONDS
set -eu
[ $# -eq 4 ] || { echo "usage: $0 REV WORKLOAD PAIRS SECONDS" >&2; exit 2; }
rev=$1 workload=$2 pairs=$3 seconds=$4
case $pairs in '' | *[!0-9]*) echo "$0: PAIRS must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -ge 1 ] || { echo "$0: PAIRS must be a positive integer" >&2; exit 2; }
here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev"
git -C "$here" archive "$rev" -- src | tar -x -C "$tmp/rev"
cp -R "$here/bench" "$tmp/rev/bench"
rm -rf "$tmp/rev/bench/out"

python3 -c 'import json, os, platform, numpy
print("machine", json.dumps({"cores": os.cpu_count(), "python": platform.python_version(),
                             "numpy": numpy.__version__, "platform": platform.platform()}))'
dirty=false
[ -z "$(git -C "$here" status --porcelain -- src bench)" ] || dirty=true
printf 'revisions {"parent": "%s", "change": "%s", "change_dirty": %s}\n' \
    "$(git -C "$here" rev-parse "$rev")" "$(git -C "$here" rev-parse HEAD)" "$dirty"
printf 'run {"workload": "%s", "pairs": %s, "seconds": "%s"}\n' "$workload" "$pairs" "$seconds"

run() {  # run SIDE PAIR
    case $1 in rev) root=$tmp/rev ;; tree) root=$here ;; esac
    if ! out=$(python3 "$root/bench/run.py" --workload "$workload" --seed "$2" \
            --seconds "$seconds" --trace 0 2>"$tmp/stderr"); then
        echo "$0: $1 run of pair $2 failed:" >&2
        cat "$tmp/stderr" >&2
        exit 1
    fi
    echo "$1 $2 $(printf '%s\n' "$out" | tail -n 1)"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run rev "$i"
        run tree "$i"
    else
        run tree "$i"
        run rev "$i"
    fi
    i=$((i + 1))
done
