"""Smoke test of the benchmark itself: a shortened pass of every workload.

    python3 -m pytest perfbench/test_smoke.py

Each case runs ``run.py --smoke`` (fewer seeds, trials, epochs and Monte
Carlo draws; no stored reference, no paper gates) and checks that every
metric named in BENCHMARK.json prints with its unit, that the layer counts
come out exact, and that the repository's ``git status`` is unchanged.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# exact per-layer counts of one shortened pass
SMOKE_COUNTS = {
    "planar-gd": {"cli.main.calls": 4, "optimizer.runs": 4, "optimizer.steps": 1200,
                  "optimizer.checkpoint_records": 12, "data.load_tabular.calls": 4},
    "credit-sweep": {"cli.main.calls": 2, "optimizer.runs": 4, "optimizer.steps": 144,
                     "optimizer.checkpoint_records": 24,
                     "harness.write_trajectory_csv.calls": 4,
                     "harness.read_trajectory_csv.calls": 4},
    "verify-full": {"cli.main.calls": 1, "suite.properties": 11, "suite.failed": 0,
                    "verify.check_location_concentration.calls": 2,
                    "optimizer.steps": 0, "model.loss_batch.calls": 0},
}


def git_status():
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortened_pass_prints_every_metric(workload, trace):
    before = git_status()
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"{m['name']} = ") and f" {m['unit']} (" in line
            for line in lines
        ), m["name"]
    if trace:
        for name, count in SMOKE_COUNTS[workload].items():
            assert result["metrics"][name]["value"] == count, name
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert git_status() == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "verify-full", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
