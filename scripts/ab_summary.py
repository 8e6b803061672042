"""Summarise the pairs of scripts/ab_bench.sh.

    sh scripts/ab_bench.sh REV WORKLOAD PAIRS SECONDS | python3 scripts/ab_summary.py
    python3 scripts/ab_summary.py --json < pairs.txt

Reads the `rev|tree PAIR RESULT_JSON` lines of one workload's pairs on
standard input, and the `machine JSON` and `revisions JSON` lines that
ab_bench.sh prints first; other lines are ignored. For each end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles
(statistics.quantiles, n=4, as bench/steady.py computes them), the
change/parent ratio of the medians, `rev` being the parent and `tree` the
change, and in how many of the pairs that have both values the change
did better in the metric's direction. With --json it prints the same
figures as one JSON object, in the layout of a BENCH_*.json workload
entry, with the machine and the revisions as ab_bench.sh recorded them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = {"rev": "parent", "tree": "change"}
#: the lines that ab_bench.sh prints before the pairs, each a JSON object
FACTS = ("machine", "revisions")


def read_pairs(lines) -> tuple[dict, dict]:
    """{pair: {side: result}} from the `rev|tree PAIR RESULT_JSON` lines,
    and {kind: facts} from the `machine|revisions JSON` lines."""
    pairs: dict = {}
    facts: dict = {}
    for line in lines:
        side, _, rest = line.strip().partition(" ")
        if side in FACTS:
            facts[side] = json.loads(rest)
        elif side in SIDES:
            pair, _, result = rest.partition(" ")
            pairs.setdefault(int(pair), {})[side] = json.loads(result)
    return pairs, facts


def spread(values: list) -> dict:
    """Median, quartiles and the values, in pair order."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarise(pairs: dict, metrics: list) -> dict:
    """Per side the runs and the spread of each metric; then per metric
    the change/parent ratio of the medians and the change's wins."""
    order = sorted(pairs)
    out: dict = {}
    for side, label in SIDES.items():
        runs = [pairs[p][side] for p in order if side in pairs[p]]
        out[label] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {},
        }
    out["change_over_parent_median"] = {}
    out["change_wins_of_pairs"] = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        both = []
        for p in order:
            values = [pairs[p].get(side, {}).get("metrics", {}).get(name, {}).get("value") for side in SIDES]
            if None not in values:
                both.append(values)
        if not both:
            continue
        parent, change = (spread([v[i] for v in both]) for i in (0, 1))
        out["parent"]["metrics"][name] = parent
        out["change"]["metrics"][name] = change
        out["change_over_parent_median"][name] = change["median"] / parent["median"]
        out["change_wins_of_pairs"][name] = sum((c > r) if higher else (c < r) for r, c in both)
    out["pairs"] = len(order)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = ap.parse_args(argv)
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    pairs, facts = read_pairs(sys.stdin)
    summary = summarise(pairs, metrics)
    if args.json:
        print(json.dumps({**summary, **{kind: facts.get(kind) for kind in FACTS}}, indent=1))
        return 0
    parent, change = summary["parent"], summary["change"]
    if "revisions" in facts:
        revisions = facts["revisions"]
        print(f"parent {revisions['parent']}, change {revisions['change']}"
              + (" with uncommitted changes" if revisions["change_dirty"] else ""))
    print(f"{summary['pairs']} pairs; parent: {parent['runs']} runs, {parent['failed']} failed; "
          f"change: {change['runs']} runs, {change['failed']} failed")
    print(f"{'metric':26} {'parent q1':>11} {'median':>11} {'q3':>11} "
          f"{'change q1':>11} {'median':>11} {'q3':>11} {'ratio':>7} {'wins':>5}")
    for name, ratio in summary["change_over_parent_median"].items():
        p, c = parent["metrics"][name], change["metrics"][name]
        pairs = len(p["values"])
        print(f"{name:26} {p['q1']:11.4g} {p['median']:11.4g} {p['q3']:11.4g} "
              f"{c['q1']:11.4g} {c['median']:11.4g} {c['q3']:11.4g} {ratio:7.3f} "
              f"{summary['change_wins_of_pairs'][name]:>2}/{pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
