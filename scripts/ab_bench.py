#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 scripts/ab_bench.py --parent ../parent --change . --workload mlp_switch \\
        --pairs 10 --seed 1 --seconds 20 --out BENCH.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, from its root, the parent first in even
pairs and the change first in odd ones, so slow spells of a shared host fall
on both sides alike. ``--workload all`` runs every workload of the parent's
``BENCHMARK.json`` in each pair, one after the other. Each run's metrics come
from the last line it prints; its digests and machine from the result file
it writes under ``perfbench/out/``. Nothing under ``perfbench/`` is changed.

The output file holds, per workload and end-to-end metric: each side's
per-run values, median and quartiles, the pairs each side won (ties count
for neither side), with which direction is better from ``BENCHMARK.json``,
and the median and quartiles of the per-pair change/parent ratio
(``pair_ratio``, over the pairs whose parent value is not 0), which a drift
of the host over the run moves less than either side's quartiles, and its
``verdict`` (see :func:`verdict`); then each side's output digests, its
``src/`` hash, the line count of its ``src/nestq/*.py``, their code lines
(docstrings, comments and blank lines excluded) in total and per module, and
the machine. A run that
fails stops the script with its exit code and standard error.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
VERDICTS = ("worse", "unresolved", "gain", "same")
# tokens that hold no code: a line holding only these is blank or a comment
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def run_once(root: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One benchmark run in checkout ``root``: its metrics, digests and machine."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (root / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {name: m["value"] for name, m in last["metrics"].items()},
            "correct": last["correct"], "failed": last["failed"],
            "attempted": last["attempted"],
            "digests": sorted(set(result.get("digests", []))), "machine": result["machine"]}


def src_lines(root: Path) -> int:
    """Lines of the ``src/nestq/*.py`` files in checkout ``root``."""
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "nestq").glob("*.py"))


def code_lines_by_module(root: Path) -> dict[str, int]:
    """Per ``src/nestq/<module>.py`` file in checkout ``root``, its lines that
    hold code: no docstring, comment or blank line counts."""
    counts = {}
    for path in sorted((root / "src" / "nestq").glob("*.py")):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            first = node.body[0] if isinstance(node, DOC_OWNERS) and node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
        rows = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NOT_CODE:
                rows.update(range(tok.start[0], tok.end[0] + 1))
        counts[path.stem] = len(rows - docs)
    return counts


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"runs": values, "median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def verdict(m: dict, bound: float) -> str:
    """What a review reads from one metric's comparison ``m``, given its
    relative ``bound`` from BENCHMARK.json: the first of these that holds.

    - worse: the change's median is worse than the parent's by more than the
      bound.
    - unresolved: the IQR over the median of the side where that is larger
      exceeds the bound, and not every change run beats every parent run.
    - gain: the change wins at least 9 in 10 pairs, and its median is better
      than the parent's by more than the parent's IQR.
    - same: none of the above.
    """
    sign = 1 if m["better"] == "higher" else -1
    parent, change = m["parent"], m["change"]
    if sign * (parent["median"] - change["median"]) > bound * abs(parent["median"]):
        return "worse"
    spread = max(s["iqr"] / abs(s["median"]) if s["median"] else (math.inf if s["iqr"] else 0.0)
                 for s in (parent, change))
    beats_all = all(sign * (c - p) > 0 for c in change["runs"] for p in parent["runs"])
    if spread > bound and not beats_all:
        return "unresolved"
    if m["change_wins"] >= 0.9 * len(parent["runs"]) \
            and sign * (change["median"] - parent["median"]) > parent["iqr"]:
        return "gain"
    return "same"


def compare(runs: dict, better: str, bound: float) -> dict:
    """Both sides of one metric over the pairs: summaries, wins and verdict."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(runs["parent"], runs["change"]))
    out = {"better": better, **{side: summary(runs[side]) for side in SIDES}}
    out["change_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
    out["parent_wins"] = sum(sign * (p - c) > 0 for p, c in pairs)
    out["ties"] = len(pairs) - out["change_wins"] - out["parent_wins"]
    out["median_ratio"] = out["change"]["median"] / out["parent"]["median"] \
        if out["parent"]["median"] else None
    ratios = [c / p for p, c in pairs if p]
    out["pair_ratio"] = summary(ratios) if ratios else None
    out["verdict"] = verdict(out, bound)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout measured as the base")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to every run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines = {side: src_lines(roots[side]) for side in SIDES}
    by_module = {side: code_lines_by_module(roots[side]) for side in SIDES}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" \
        else [args.workload]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                r = run_once(roots[side], w, args.seed, args.seconds, args.smoke)
                runs[w][side].append(r)
                print(f"pair {pair} {w} {side}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in r["metrics"].items()), flush=True)
    report = {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "order": "parent first in even pairs, change first in odd",
              "machine": runs[workloads[0]]["parent"][0]["machine"], "workloads": {}}
    for w in workloads:
        side_runs = runs[w]
        report["workloads"][w] = {
            "metrics": {m["name"]: compare({side: [r["metrics"][m["name"]] for r in side_runs[side]]
                                            for side in SIDES}, m["better"], m["bound"])
                        for m in spec["end_to_end"]},
            "digests": {side: sorted({d for r in side_runs[side] for d in r["digests"]})
                        for side in SIDES},
            "failed": {side: sum(r["failed"] for r in side_runs[side]) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in side_runs[side]) for side in SIDES},
            "correct": {side: all(r["correct"] for r in side_runs[side]) for side in SIDES},
            "src_sha256": {side: sorted({r["machine"]["src_sha256"] for r in side_runs[side]})
                           for side in SIDES},
            "src_lines": lines,
            "code_lines": {side: sum(by_module[side].values()) for side in SIDES},
            "code_lines_by_module": by_module,
        }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
