"""The scripts under ``scripts/`` and README's Quick start still run against this ``src/``."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_readme_quick_start_runs():
    """The first Python block under README's Quick start runs as written."""
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "forward(" in code
    run_python("-c", code)


def test_pipeline_demo_reports_every_policy():
    lines = run_script("run_pipeline_demo.py", "--samples", "100")
    assert lines[0] == "100 samples, 3 policy layers"
    names = ["master (8,8,8)", "mixed (8,4,8)", "all-4", "controller"]
    assert [line.split(":")[0].strip() for line in lines[1:]] == names
    for line in lines[1:]:
        assert "oracle agreement" in line and "accuracy" in line and "policies" in line


def test_cost_comparison_prints_one_row_per_policy():
    lines = run_script("cost_comparison.py", "--arch", "cnn")
    assert lines[0].split()[0] == "policy" and set(lines[1]) == {"-"}
    rows = lines[2:]
    assert [row.split(")")[0].strip() + ")" for row in rows] == \
        [str(bits) for bits in itertools.product((4, 8), repeat=3)]
    # the master-width policy moves no element below n
    assert rows[-1].split(")")[1].split()[1:3] == ["0", "0"]
