"""The benchmark's result line: well formed, correct, and carrying every
metric BENCHMARK.json declares as a number.

bench/run.py writes its per-run files next to itself, so it runs from a
copy of bench/ and src/ in a temporary directory; the checkout is only
read.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "bench", root / "bench", ignore=skip)
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_mc_short_result_line(bench_copy, trace, section):
    proc = subprocess.run(
        [sys.executable, str(bench_copy / "bench" / "run.py"), "--workload", "mc_short",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in DECLARED[section]}
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
