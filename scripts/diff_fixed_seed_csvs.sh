#!/bin/sh
# Compare the fixed-seed CSVs and lookup-table files of revision REV with
# those of the working tree. REV's committed src/ is extracted into a
# temporary directory with `git archive`, both sides write their files
# with this tree's fixed_seed_csvs.sh, and `diff -r` compares them. Exits
# 0 when all files are byte-identical and non-zero on any difference; the
# temporary directory is removed either way. About two minutes on two cores.
#
# Usage: sh scripts/diff_fixed_seed_csvs.sh REV
set -eu
[ $# -eq 1 ] || { echo "usage: $0 REV" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev/scripts"
git -C "$here/.." archive "$1" -- src | tar -x -C "$tmp/rev"
cp "$here/fixed_seed_csvs.sh" "$tmp/rev/scripts/"
sh "$tmp/rev/scripts/fixed_seed_csvs.sh" "$tmp/rev_csvs"
sh "$here/fixed_seed_csvs.sh" "$tmp/tree_csvs"
diff -r "$tmp/rev_csvs" "$tmp/tree_csvs"
echo "$(ls "$tmp/tree_csvs" | wc -l) files (CSVs and LUTs) byte-identical to $1"
