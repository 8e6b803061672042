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
