"""Smoke test of the benchmark: every workload end to end at a small size.

Each run must answer every query correctly and print, in its final JSON
line, exactly the metrics ``BENCHMARK.json`` declares for its mode, each
with the declared unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "0.02"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        # Each metric is also printed by name with its unit, and
        # failed_ops_frac (always 0 here) only in the readable lines.
        for m in declared + [{"name": "failed_ops_frac", "unit": "frac"}]:
            assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                       for line in lines[:-1]), m["name"]
