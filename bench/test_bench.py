"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Each workload runs for one second on tiny inputs, untraced and traced;
the result line must carry exactly the metrics BENCHMARK.json names for
that mode, each with its unit, and every output must check out.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from run import tail  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    printed = {tuple(line.split()[::2]) for line in proc.stdout.splitlines()[1:-1]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]), name
        assert (name, metric["unit"]) in printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_leaves_ten_samples_beyond():
    assert tail([5.0, 1.0, 3.0]) == (100.0, 5.0)
    assert tail([float(k) for k in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(k) for k in range(1, 1001)]) == (99.0, 990.0)
