"""The benchmark's own tests: the harness runs end to end (not a timing gate).

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        mapped = [m["metric"] for m in json.load(fh)["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0 + i / 10 for i in range(10)], [10.5] * 10, "no worse"),
    ([10.0 + i / 100 for i in range(10)], [12.0] * 10, "improved"),
    ([10.0] * 9, [12.0] * 9, "no worse"),          # too few pairs to claim
    ([10.0] * 10, [7.0] * 10, "regressed"),
    ([5.0, 15.0, 5.0, 15.0], [10.0] * 4, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    # env_steps_per_s-like metric: higher is better, bound 0.1
    assert compare.verdict(parent, change, "higher", 0.1)[0] == expected
