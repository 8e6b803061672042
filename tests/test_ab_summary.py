import json
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_summary.py"


def result(fps: float, rss: float, failed: int = 0) -> str:
    return json.dumps({"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
        "frames_per_s.adaptive": {"value": fps, "unit": "frames/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "vectors_per_s.nn": {"value": None, "unit": "vectors/s"},
    }})


MACHINE = {"cores": 2, "python": "3.11.7", "numpy": "2.4.6", "platform": "Linux-x86_64"}
REVISIONS = {"parent": "a" * 40, "change": "b" * 40, "change_dirty": True}

#: the machine and revisions lines, then four pairs, each side first in
#: turn as ab_bench.sh runs them, and a line that is not a pair
CANNED = [
    f"machine {json.dumps(MACHINE)}",
    f"revisions {json.dumps(REVISIONS)}",
    f"rev 1 {result(100.0, 50.0)}",
    f"tree 1 {result(150.0, 51.0)}",
    f"tree 2 {result(160.0, 49.0)}",
    f"rev 2 {result(110.0, 50.0)}",
    "scripts/ab_bench.sh: a note",
    f"rev 3 {result(90.0, 50.0)}",
    f"tree 3 {result(80.0, 52.0, failed=1)}",
    f"tree 4 {result(170.0, 48.0)}",
    f"rev 4 {result(120.0, 50.0)}",
]


def summary(*args, lines=CANNED):
    out = subprocess.run([sys.executable, str(SCRIPT), *args], input="\n".join(lines) + "\n",
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_ab_summary_json():
    """Per side the runs, failures and each metric's median and quartiles
    in pair order; the change/parent ratio of the medians; and the wins
    in each metric's direction: higher frames/s, lower peak RSS. A metric
    with no value in any pair is left out."""
    s = json.loads(summary("--json"))
    assert s["pairs"] == 4
    assert (s["parent"]["runs"], s["parent"]["failed"], s["parent"]["correct"]) == (4, 0, True)
    assert (s["change"]["runs"], s["change"]["failed"], s["change"]["correct"]) == (4, 1, False)
    fps = s["change"]["metrics"]["frames_per_s.adaptive"]
    assert fps["values"] == [150.0, 160.0, 80.0, 170.0]
    assert fps["median"] == 155.0
    assert [fps["q1"], fps["q3"]] == statistics.quantiles(fps["values"], n=4)[::2]
    assert s["parent"]["metrics"]["frames_per_s.adaptive"]["median"] == 105.0
    assert s["change_over_parent_median"]["frames_per_s.adaptive"] == 155.0 / 105.0
    assert s["change_wins_of_pairs"] == {"frames_per_s.adaptive": 3, "peak_rss_mb": 2}
    assert "vectors_per_s.nn" not in s["change_over_parent_median"]
    assert s["machine"] == MACHINE and s["revisions"] == REVISIONS


def test_ab_summary_without_facts():
    """Pairs without the machine and revisions lines summarise the same,
    the facts null."""
    s = json.loads(summary("--json", lines=CANNED[2:]))
    assert s["machine"] is None and s["revisions"] is None
    assert s["change_wins_of_pairs"] == json.loads(summary("--json"))["change_wins_of_pairs"]


def test_ab_summary_table():
    """The text form prints one row per metric with the ratio and the
    wins out of the pairs."""
    lines = summary().splitlines()
    assert lines[0] == f"parent {'a' * 40}, change {'b' * 40} with uncommitted changes"
    assert lines[1].startswith("4 pairs;")
    row = next(line for line in lines if line.startswith("frames_per_s.adaptive"))
    assert row.split()[-2:] == ["1.476", "3/4"]
    assert any(line.startswith("peak_rss_mb") and line.endswith(" 2/4") for line in lines)


def pairs_file(tmp_path, workload: str, revisions=REVISIONS, run=True) -> str:
    """CANNED with a `run` line naming the workload, as a file."""
    run_line = f"run {json.dumps({'workload': workload, 'pairs': 4, 'seconds': '30'})}"
    lines = [CANNED[0], f"revisions {json.dumps(revisions)}", *([run_line] if run else []), *CANNED[2:]]
    path = tmp_path / f"{workload}.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_ab_summary_bench_file(tmp_path):
    """--bench writes one BENCH_*.json from one pairs file per workload:
    per side the revision and each workload's entry as --json gives it,
    per workload the pairs, ratios and wins, in the order given; the claim
    with its verdict, and the extra keys after."""
    # the tree was edited between the two workloads' pairs: the change is dirty
    files = [pairs_file(tmp_path, "semi_long", {**REVISIONS, "change_dirty": False}), pairs_file(tmp_path, "mc_short")]
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"tier1": {"change": "1 passed"}}))
    out = tmp_path / "BENCH_9.json"
    summary("--bench", str(out), "--claim", "frames_per_s.adaptive @ semi_long", "--extra", str(extra), *files)
    bench = json.loads(out.read_text())
    entry = json.loads(summary("--json"))
    assert list(bench)[:3] == ["command", "claimed_metric", "machine"]
    assert bench["command"].startswith(f"sh scripts/ab_bench.sh {'a' * 7} W 4 30 ")
    assert "W = semi_long, mc_short in that order" in bench["command"]
    assert bench["machine"] == MACHINE
    assert bench["parent"]["revision"] == "a" * 40
    assert (bench["change"]["revision"], bench["change"]["dirty"]) == ("b" * 40, True)
    for side in ("parent", "change"):
        assert list(bench[side]["workloads"]) == ["semi_long", "mc_short"]
        assert bench[side]["workloads"]["mc_short"] == entry[side]
    assert bench["pairs"] == {"semi_long": 4, "mc_short": 4}
    assert bench["change_wins_of_pairs"]["semi_long"] == entry["change_wins_of_pairs"]
    assert bench["change_over_parent_median"]["mc_short"] == entry["change_over_parent_median"]
    # parent adaptive 100, 110, 90, 120: median 105 and quartiles 92.5 and
    # 117.5; the change's median 155 beats 105 by more than 25
    assert bench["claim"] == {
        "wins": 3, "pairs": 4, "change_over_parent_median": 155.0 / 105.0,
        "parent_q1": 92.5, "parent_q3": 117.5, "median_gain_exceeds_parent_iqr": True,
    }
    assert bench["tier1"] == {"change": "1 passed"}
    # lower is better: peak RSS medians 50 and 50 differ by no more than the IQR
    summary("--bench", str(out), "--claim", "peak_rss_mb@mc_short", *files)
    verdict = json.loads(out.read_text())["claim"]
    assert (verdict["wins"], verdict["median_gain_exceeds_parent_iqr"]) == (2, False)


def test_ab_summary_bench_rejects_mixed_files(tmp_path):
    """Pairs files of different revisions, a file without its run line, a
    workload given twice, an unknown claim or an extra key that would
    replace a written one stop --bench with a message and write nothing."""
    other = {**REVISIONS, "change": "c" * 40}
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"pairs": 1}))
    cases = [
        ([pairs_file(tmp_path, "semi_long"), pairs_file(tmp_path, "mc_long", other)], "disagree on the machine or the revisions"),
        ([pairs_file(tmp_path, "mc_short", run=False)], "no `run` line"),
        ([pairs_file(tmp_path, "semi_long")] * 2, "appears twice"),
        ([pairs_file(tmp_path, "semi_long"), "--claim", "frames_per_s.gmd@semi_long"], "no such metric"),
        ([pairs_file(tmp_path, "semi_long"), "--extra", str(extra)], "may not replace"),
    ]
    out = tmp_path / "BENCH_9.json"
    for args, message in cases:
        run = subprocess.run([sys.executable, str(SCRIPT), "--bench", str(out), *args],
                             capture_output=True, text=True)
        assert run.returncode == 2 and message in run.stderr, (message, run.stderr)
        assert not out.exists()
