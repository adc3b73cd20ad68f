"""The benchmark still runs against this ``src/``.

``perfbench/tracing.py`` swaps named module attributes for timing wrappers and
restores them on exit; a renamed or deleted attribute breaks it at entry.
``perfbench/workloads.py`` calls nestq by name, so a deleted name breaks a
workload. These tests run the benchmark from a copy and never write under
``perfbench/``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nestq import layers
from nestq.layers import BitPolicy

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def nestq_attributes():
    """Every (module, attribute) value of the loaded nestq modules."""
    mods = [m for name, m in sys.modules.items()
            if name == "nestq" or name.startswith("nestq.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_patched_attribute_exists_and_is_restored(tracing, mlp, blob_data):
    before = nestq_attributes()
    tracer = tracing.Tracer()
    with tracer.patched():
        inside = nestq_attributes()
        layers.forward(mlp, blob_data[0][:2], BitPolicy.uniform(4, 3))
    patched = {key for key, value in before.items() if inside[key] is not value}
    # The names layers binds only so the tracer can patch them are among those patched.
    assert {("nestq.layers", n) for n in ("int_add", "int_dot", "int_dot_pact")} <= patched
    after = nestq_attributes()
    assert all(after[key] is before[key] for key in before)
    # The hooks fired: the forward and each of its layers left a span.
    spans = tracer.aggregate(tracing.WORK)
    assert spans["layers.forward"][0] == 1
    assert {"layers.run_layer." + l.kind for l in mlp.layers} <= set(spans)
    assert tracer.counts["quantize.shift_down.elems"] > 0
    # One sample below n: the tracer sees every element the trace charges a shift.
    single = tracing.Tracer()
    with single.patched():
        _, trace = layers.forward(mlp, blob_data[0][0], BitPolicy.uniform(4, 3))
    assert single.counts["quantize.shift_down.elems"] == trace.counters.shifts > 0


def test_restored_when_the_traced_code_raises(tracing):
    before = nestq_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            raise RuntimeError("stop")
    after = nestq_attributes()
    assert all(after[key] is before[key] for key in before)


def test_smoke_pass_of_every_workload(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", "3", "--seconds", "0.2",
         "--workload", "all", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
