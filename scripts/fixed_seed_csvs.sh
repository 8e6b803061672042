#!/bin/sh
# Write the fixed-seed CSVs of the erasurelab CLI into OUTDIR: `simulate`
# on RS(16;15,7) in every Monte-Carlo mode and strategy with each
# unreliability method, in gmd mode with five-frame points (blocks whose
# GMD rounds decode fewer than rs.ROW_DECODE_MIN_WORDS trials), and
# adaptively with the seed 2**130 + 5, five 32-bit words, more than
# SeedSequence's pool of four, which sim seeds its streams from, and
# semi-simulatively with each method (1500 vectors, 22 500 points, so that
# a boundary of the sampler's UNRELIABILITY_CHUNK falls inside a vector);
# on RS(256;255,144) in the four Monte-Carlo modes, adaptively and in gmd
# mode with one-frame points (the one-row frame block) and
# semi-simulatively with each method; and `predict` on both codes,
# RS(256;255,144) also at 18-20 dB, where P(tau) lies far below 1e-16.
# That is 35 CSVs. `lut` then writes two lookup-table text files, 256-QAM
# at 8 bits and 16-QAM at 6 bits: 37 files.
#
# Usage: sh scripts/fixed_seed_csvs.sh OUTDIR
#
# Every file is written from inside OUTDIR under a bare name, so that its
# `# out=` manifest line is the same wherever OUTDIR is. Two runs, or runs
# of two revisions, compare with `diff -r`. The lab is imported from the
# src/ next to this script. About a minute on two cores.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
src=$(cd "$(dirname "$0")/../src" && pwd)
mkdir -p "$1"
cd "$1"

lab() {
    PYTHONPATH="$src" python3 -c 'import sys; from erasurelab.cli import main; sys.exit(main())' "$@" > /dev/null
}

short="--m 4 --n 15 --k 7 --ebn0-grid 7,9 --frames 1000 --seed 1"
for u in exact nn lut; do
    lab simulate $short --unreliability $u --mode errors_only --out rs15_errors_only_$u.csv
    lab simulate $short --unreliability $u --mode fixed_tau --fixed-tau 2 --out rs15_fixed_tau_$u.csv
    for s in exact hoeffding eps0; do
        lab simulate $short --unreliability $u --mode adaptive --strategy $s --out rs15_adaptive_${s}_$u.csv
    done
    lab simulate $short --unreliability $u --mode gmd --out rs15_gmd_$u.csv
done
lab simulate --m 4 --n 15 --k 7 --ebn0-grid 7,9 --frames 5 --seed 1 --unreliability exact \
    --mode gmd --out rs15_gmd_short_blocks.csv
lab simulate --m 4 --n 15 --k 7 --ebn0-grid 7,9 --frames 300 \
    --seed 1361129467683753853853498429727072845829 --unreliability exact \
    --mode adaptive --strategy exact --out rs15_adaptive_big_seed.csv
for u in exact lut nn; do
    lab simulate --m 4 --n 15 --k 7 --ebn0-grid 7,9 --mode semi_simulative --samples 1500 --seed 1 \
        --unreliability $u --out rs15_semi_$u.csv
done

long="--ebn0-grid 16.5,17 --frames 100 --seed 1 --unreliability exact"
lab simulate $long --mode errors_only --out rs255_errors_only.csv
lab simulate $long --mode fixed_tau --fixed-tau 20 --out rs255_fixed_tau.csv
lab simulate $long --mode adaptive --strategy exact --out rs255_adaptive.csv
lab simulate $long --mode gmd --out rs255_gmd.csv
lab simulate --ebn0-grid 16,16.5,17 --frames 1 --seed 1 --unreliability exact \
    --mode adaptive --strategy exact --out rs255_adaptive_one_frame.csv
lab simulate --ebn0-grid 16,16.5,17 --frames 1 --seed 1 --unreliability exact \
    --mode gmd --out rs255_gmd_one_frame.csv
for u in exact lut nn; do
    lab simulate --ebn0-grid 16,16.5,17 --mode semi_simulative --samples 1000 --seed 1 \
        --unreliability $u --out rs255_semi_$u.csv
done

lab predict --m 4 --n 15 --k 7 --ebn0-grid 6,8,10,12,14 --samples 2000 --seed 1 \
    --unreliability exact --out rs15_predict.csv
lab predict --ebn0-grid 15,16,17 --samples 500 --seed 1 --unreliability exact --out rs255_predict.csv
lab predict --ebn0-grid 18,19,20 --samples 500 --seed 1 --unreliability exact --out rs255_predict_high.csv

lab lut --qam 256 --bits 8 --ebn0 18 --n 255 --k 144 --out lut256_8bit.txt
lab lut --qam 16 --bits 6 --ebn0 9 --n 15 --k 7 --out lut16_6bit.txt
