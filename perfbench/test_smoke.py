"""Smoke test of the benchmark: every workload at tiny size, every declared metric printed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3",
                           "--seconds", "0.2", "--smoke", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def results(stdout: str) -> list[str]:
    """Split output into per-run blocks, each ending with its JSON result line."""
    blocks, lines = [], []
    for line in stdout.splitlines():
        lines.append(line)
        if line.startswith("{"):
            blocks.append("\n".join(lines))
            lines = []
    return blocks


def check_printed(block: str, metrics: list[dict]) -> dict:
    result = json.loads(block.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "attempted=" in block and " failed=" in block
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        line = next(ln for ln in block.splitlines() if ln.startswith(m["name"] + " = "))
        assert line.endswith(" " + m["unit"])
    return result


def test_all_workloads_print_every_end_to_end_metric():
    proc = bench("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *blocks, summary = results(proc.stdout)
    assert [b.split()[0] for b in blocks] == [f"workload={w['name']}" for w in SPEC["workloads"]]
    for block in blocks:
        check_printed(block, SPEC["end_to_end"])
    summary = json.loads(summary)
    assert summary["correct"] is True and summary["failed"] == 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = check_printed(proc.stdout, SPEC["per_layer"])
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
