"""Steadiness check: run workloads k times with k seeds and report spreads.

    python3 bench/steady.py --workload mc_short --runs 10
    python3 bench/steady.py --runs 10 --against bench/out/steady_<earlier>.json

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json. With --against it also prints how far each
median moved from an earlier set, in the metric's worse direction. Runs go
one after another, each in its own process; raw results are saved under
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if out.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse_by(new: float, old: float, better: str) -> float:
    """Share by which new is worse than old (negative when better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seeds are seed0 .. seed0+runs-1")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--against", type=Path, help="earlier steady_*.json to compare medians with")
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("need --runs >= 4 for quartiles")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text())["results"] if args.against else {}

    results = {}
    for wl in args.workload or names:
        runs = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            t0 = time.perf_counter()
            runs.append(run_once(wl, seed, args.seconds))
            print(f"steady: {wl} seed {seed} done in {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr, flush=True)
        results[wl] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        ok = all(r["correct"] for r in runs)
        print(f"\n{wl}: {args.runs} runs, correct={ok}, failed shares {shares}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6} {'/bound':>6}" + ("  vs earlier" if earlier else ""))
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            line = (f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.4f} "
                    f"{spec['bound']:6.3f} {spread / spec['bound']:6.2f}")
            if wl in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[wl])
                moved = worse_by(med, old, spec["better"])
                line += f"  {moved:+.4f}{' WORSE' if moved > spec['bound'] else ''}"
            print(line, flush=True)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady_{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": args.seconds, "seed0": args.seed0, "results": results}))
    print(f"\nsteady: raw results in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
