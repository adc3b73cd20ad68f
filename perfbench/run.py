#!/usr/bin/env python3
"""nestq benchmark: per-input switching, batch conv inference, the shift transition.

    python3 perfbench/run.py --workload mlp_switch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; nestq is imported from ``src/`` beside this
directory. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``--workload all``
runs every workload in its own process. Results and span files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = nproc()
        os.environ[var] = str(min(int(current), cap) if current.isdigit() and int(current) > 0
                              else cap)


def import_nestq():
    """Import nestq from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "nestq" / "__init__.py").is_file():
        print(f"error: no nestq package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import nestq
    if Path(nestq.__file__).resolve().parent != (src / "nestq").resolve():
        print(f"error: imported nestq from {nestq.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def machine() -> dict:
    """The machine and code measured: CPUs, caches, versions, commit."""
    import numpy as np
    info = {"nproc": nproc(), "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (idx / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    info["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or info["commit"]
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()  # identifies the measured code where git cannot
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = src.hexdigest()
    return info


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def run_one(args, spec: dict) -> int:
    import workloads
    OUT.mkdir(parents=True, exist_ok=True)
    run, trace = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as tmp:
        opts = workloads.Options(args.seed, args.seconds, args.smoke, Path(tmp))
        result = (trace if args.trace else run)(opts)
    tracer = result.pop("tracer", None)
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              f"{SPEC.name}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.npz")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine(),
            "attempted": attempted, "succeeded": attempted - failed, "failed": failed,
            "failed_share": failed / attempted if attempted else 1.0,
            "correct": result["correct"], **result["info"]}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**info, "metrics": metrics}, indent=1, sort_keys=True, default=str) + "\n")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    m = info["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} caches={m['caches']} "
          f"python={m['python']} numpy={m['numpy']} commit={m['commit']} "
          f"src_sha256={m['src_sha256'][:16]}")
    print(f"attempted={attempted} succeeded={attempted - failed} failed={failed} "
          f"failed_share={info['failed_share']:.6g} correct={result['correct']}")
    for key, value in sorted(result["info"].items()):
        if key == "digests":
            value = f"{len(value)} passes, {len(set(value))} distinct, sha256 {value[0]}"
        if key not in ("self_s", "setup_self_s"):
            print(f"  {key}: {value}")
    for name in declared:
        print(f"{name} = {float(metrics[name])!r} {declared[name]}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {n: {"value": float(metrics[n]), "unit": declared[n]}
                                  for n in declared}}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after the other."""
    summary, status = {}, 0
    for name in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if status:
        return status
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "metrics": {f"{w}.{n}": v for w, r in summary.items()
                                  for n, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload != "all" and args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(spec['workloads'])} or all")
    limit_threads()
    import_nestq()
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
