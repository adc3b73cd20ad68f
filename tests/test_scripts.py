"""The scripts under ``scripts/`` and README's Quick start and Command line
blocks still run against this ``src/``."""

import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import ab_bench  # noqa: E402


def run_python(*args, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
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


def test_readme_command_line_runs(tmp_path):
    """Each line of the shell block under README's Command line exits 0, run in
    order in an empty directory with ``nestq`` as ``python -m nestq.cli``."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("\n```", 1)[0].splitlines()
    assert len(lines) == 6
    for line in lines:
        command, *args = shlex.split(line, comments=True)
        assert command == "nestq", line
        run_python("-m", "nestq.cli", *args, cwd=tmp_path)
    assert (tmp_path / "report.txt").exists() and (tmp_path / "verify.txt").exists()


def test_each_module_imports_on_its_own():
    """Each ``nestq.<module>`` imports first in a fresh interpreter, so no two
    modules import each other in a circle; and the package binds no name over
    a submodule's."""
    modules = sorted(p.stem for p in (ROOT / "src" / "nestq").glob("*.py") if p.stem != "__init__")
    assert len(modules) == 11
    for name in modules:
        run_python("-c", f"import nestq.{name}")
    run_python("-c", "import types, nestq.quantize as m; assert isinstance(m, types.ModuleType)")


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


@pytest.mark.parametrize("parent, change, better, want", [
    ([10.0] * 10, [10.0] * 10, "higher", "same"),
    ([10.0] * 10, [7.0] * 10, "higher", "worse"),  # 30% below, bound 25%
    ([10.0] * 10, [13.0] * 10, "lower", "worse"),
    ([1.0, 10.0] * 5, [1.0, 10.0] * 5, "higher", "unresolved"),  # IQR 9 over median 5.5
    ([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], "higher", "gain"),  # wide, but every run ahead
    ([10.0, 11.0] * 5, [12.0, 13.0] * 5, "higher", "gain"),
    ([10.0, 11.0] * 5, [11.0, 12.0] * 5, "higher", "same"),  # 10 of 10, but within the IQR
    ([10.0, 11.0] * 5, [10.5] * 10, "lower", "same"),  # wins 5 of 10
])
def test_ab_bench_verdict(parent, change, better, want):
    """Each verdict by its rule, at a bound of 25%; identical runs never read worse."""
    assert ab_bench.compare({"parent": parent, "change": change}, better, 0.25)["verdict"] == want
    for side in (parent, change):
        assert ab_bench.compare({"parent": side, "change": side}, better, 0.25)["verdict"] \
            in ("same", "unresolved")


def test_ab_bench_smoke_on_two_copies(tmp_path):
    """Two copies of the benchmark, both on this src/, in two alternating pairs."""
    for side in ("parent", "change"):
        root = tmp_path / side
        shutil.copytree(ROOT / "perfbench", root / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", root)
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    out = tmp_path / "ab.json"
    lines = run_script("ab_bench.py", "--parent", str(tmp_path / "parent"),
                       "--change", str(tmp_path / "change"), "--workload", "mlp_switch",
                       "--pairs", "2", "--seed", "3", "--seconds", "0.2", "--smoke",
                       "--out", str(out))
    # the parent runs first in pair 0, the change in pair 1
    assert [line.split(":")[0] for line in lines] == [
        "pair 0 mlp_switch parent", "pair 0 mlp_switch change",
        "pair 1 mlp_switch change", "pair 1 mlp_switch parent"]
    report = json.loads(out.read_text())
    assert report["pairs"] == 2 and report["machine"]["nproc"] >= 1
    w = report["workloads"]["mlp_switch"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(w["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in w["metrics"].values():
        assert m["change_wins"] + m["parent_wins"] + m["ties"] == 2
        for side in ("parent", "change"):
            s = m[side]
            assert len(s["runs"]) == 2 and s["q1"] <= s["median"] <= s["q3"]
        r = m["pair_ratio"]
        assert r is None or (len(r["runs"]) <= 2 and r["q1"] <= r["median"] <= r["q3"])
        assert m["verdict"] in ab_bench.VERDICTS
    # One src/ on both sides. The metrics a 0.2 s run does not time cannot
    # read worse; two pairs of such short timings can, by chance alone.
    for name in ("oracle_agreement", "peak_rss_mb"):
        assert w["metrics"][name]["verdict"] != "worse"
    assert len(w["metrics"]["items_per_s"]["pair_ratio"]["runs"]) == 2
    # one src/ on both sides: the same code and the same outputs
    assert w["digests"]["parent"] == w["digests"]["change"] != []
    assert w["src_sha256"]["parent"] == w["src_sha256"]["change"]
    assert w["src_lines"]["parent"] == w["src_lines"]["change"] > 0
    assert 0 < w["code_lines"]["parent"] == w["code_lines"]["change"] < w["src_lines"]["parent"]
    for side in ("parent", "change"):
        by_module = w["code_lines_by_module"][side]
        assert "blobio" in by_module and sum(by_module.values()) == w["code_lines"][side]
    assert w["correct"] == {"parent": True, "change": True}
    assert w["failed"] == {"parent": 0, "change": 0}
