"""Summarise the pairs of scripts/ab_bench.sh.

    sh scripts/ab_bench.sh REV WORKLOAD PAIRS SECONDS | python3 scripts/ab_summary.py
    python3 scripts/ab_summary.py --json < pairs.txt
    python3 scripts/ab_summary.py --bench BENCH_N.json [--claim METRIC@WORKLOAD]
        [--extra EXTRA.json] PAIRS_FILE...

Reads the `rev|tree PAIR RESULT_JSON` lines of one workload's pairs on
standard input, and the `machine JSON`, `revisions JSON` and `run JSON`
lines that ab_bench.sh prints first; other lines are ignored. For each
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles (statistics.quantiles, n=4, as bench/steady.py computes them),
the change/parent ratio of the medians, `rev` being the parent and `tree`
the change, and in how many of the pairs that have both values the change
did better in the metric's direction. With --json it prints the same
figures as one JSON object, in the layout of a BENCH_*.json workload
entry, with the machine, the revisions and the run as ab_bench.sh
recorded them.

--bench writes a whole BENCH_*.json from one pairs file per workload, each
naming its workload in its `run` line, in the order given: the command,
the machine, per side the revision and each workload's runs and metrics,
then per workload the pair count, the ratios and the wins. Every file must
come from the same machine and the same two revisions; the change is
dirty if it was in any of them. --claim names the
claimed metric and adds its verdict: the wins, and whether the medians
differ by more than the parent's interquartile range in the metric's
direction. --extra merges the top-level keys of a JSON object (profiles,
Tier-1 counts, notes) after those; it may not replace one of them.
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
FACTS = ("machine", "revisions", "run")


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


def bench_file(entries: list, metrics: list, claim: str | None = None, extra: dict | None = None) -> dict:
    """The BENCH_*.json object of the (summary, facts) entries, one per
    workload; a ValueError if they disagree on the machine or the
    revisions, lack a run line, repeat a workload, or if the claim or the
    extra keys do not fit."""
    if any(facts.get(kind) is None for _, facts in entries for kind in ("revisions", "run")):
        raise ValueError("a pairs file has no `revisions` line or no `run` line naming its workload")

    def source(facts):
        return facts.get("machine"), facts["revisions"]["parent"], facts["revisions"]["change"]

    first = entries[0][1]
    for _, facts in entries:
        if source(facts) != source(first):
            raise ValueError(f"the pairs files disagree on the machine or the revisions: "
                             f"{source(first)} against {source(facts)}")
    names = [facts["run"]["workload"] for _, facts in entries]
    if len(set(names)) < len(names):
        raise ValueError(f"a workload appears twice: {names}")
    revisions, run = first["revisions"], first["run"]
    # the tree may have been edited between workloads: dirty if any was
    dirty = any(facts["revisions"]["change_dirty"] for _, facts in entries)
    out: dict = {
        "command": f"sh scripts/ab_bench.sh {revisions['parent'][:7]} W {run['pairs']} {run['seconds']}"
                   " > W.txt, for W = " + ", ".join(names) + " in that order, then python3"
                   " scripts/ab_summary.py --bench on the files: python3 bench/run.py --workload W"
                   f" --seed i --seconds {run['seconds']} --trace 0; pair i runs the parent first"
                   " when i is odd and the change first when i is even, both at seed i, both"
                   " under this tree's bench/",
    }
    if claim is not None:
        out["claimed_metric"] = claim
    out["machine"] = first["machine"]
    for side, revision in (("parent", revisions["parent"]), ("change", revisions["change"])):
        out[side] = {"revision": revision}
        if side == "change":
            out[side]["dirty"] = dirty
        out[side]["workloads"] = {name: s[side] for name, (s, _) in zip(names, entries)}
    for key in ("pairs", "change_over_parent_median", "change_wins_of_pairs"):
        out[key] = {name: s[key] for name, (s, _) in zip(names, entries)}
    if claim is not None:
        out["claim"] = claim_verdict(out, claim, metrics)
    for key, value in (extra or {}).items():
        if key in out:
            raise ValueError(f"--extra may not replace the key {key!r}")
        out[key] = value
    return out


def claim_verdict(bench: dict, claim: str, metrics: list) -> dict:
    """The claimed METRIC@WORKLOAD's wins, ratio and parent quartiles, and
    whether the change's median beats the parent's by more than the
    parent's interquartile range in the metric's direction."""
    name, _, workload = (part.strip() for part in claim.partition("@"))
    better = {m["name"]: m["better"] for m in metrics}
    try:
        parent = bench["parent"]["workloads"][workload]["metrics"][name]
        change = bench["change"]["workloads"][workload]["metrics"][name]
    except KeyError:
        raise ValueError(f"--claim {claim!r}: no such metric and workload in the pairs") from None
    gain = change["median"] - parent["median"]
    if better[name] != "higher":
        gain = -gain
    return {
        "wins": bench["change_wins_of_pairs"][workload][name],
        "pairs": len(parent["values"]),
        "change_over_parent_median": bench["change_over_parent_median"][workload][name],
        "parent_q1": parent["q1"],
        "parent_q3": parent["q3"],
        "median_gain_exceeds_parent_iqr": gain > parent["q3"] - parent["q1"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", action="store_true", help="print the summary as JSON")
    ap.add_argument("--bench", metavar="OUT", help="write a whole BENCH_*.json from the pairs files")
    ap.add_argument("--claim", metavar="METRIC@WORKLOAD", help="the claimed metric (with --bench)")
    ap.add_argument("--extra", metavar="JSON", help="a JSON object of further top-level keys (with --bench)")
    ap.add_argument("files", nargs="*", metavar="PAIRS_FILE", help="one pairs file per workload (with --bench)")
    args = ap.parse_args(argv)
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    if args.bench is not None:
        if not args.files:
            ap.error("--bench needs at least one pairs file")
        entries = []
        for path in args.files:
            with open(path) as fh:
                pairs, facts = read_pairs(fh)
            entries.append((summarise(pairs, metrics), facts))
        extra = json.loads(Path(args.extra).read_text()) if args.extra else None
        try:
            bench = bench_file(entries, metrics, args.claim, extra)
        except ValueError as exc:
            ap.error(str(exc))
        Path(args.bench).write_text(json.dumps(bench, indent=1) + "\n")
        return 0
    if args.files or args.claim or args.extra:
        ap.error("pairs files, --claim and --extra go with --bench")
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
