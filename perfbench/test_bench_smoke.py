"""Smoke tests of the benchmark: every workload, untraced and traced.

They run ``run.py --smoke``: small rounds, a fixed count, one set-up
process.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def note(proc, key):
    return re.search(rf"^  {key}: (.*)$", proc.stdout, re.M).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    """All end-to-end metrics, a correct verdict, same-seed digests."""
    first, second = bench(workload, 0), bench(workload, 0)
    out = result(first)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {m: v["unit"] for m, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert note(first, "round0_digest") == note(second, "round0_digest")
    if workload == "closed_form":
        assert note(first, "threads_1_vs_nproc_digest") == "True"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    """All per-layer metrics, and child self times fit inside each round."""
    proc = bench(workload, 1)
    out = result(proc)
    assert out["correct"] and out["failed"] == 0
    assert {m: v["unit"] for m, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert note(proc, "child_self_time_within_round") == "True"
    assert out["metrics"][
        "geometry2d.inverse_sector_area.max_residual"]["value"] <= 1e-12


def test_all_workloads_in_one_command():
    """--workload all reports every end-to-end metric of every workload."""
    out = result(bench("all", 0))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                   for m in SPEC["end_to_end"]}


def test_fails_without_sources(tmp_path):
    """A directory holding only the benchmark gives no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sandwich", 0, cwd=tmp_path,
                 script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
