"""Command-line front end: build/calibrate models, run inference, report costs.

Every command is a pure function of its flags and seeds and writes diffable
key=value reports (plus a JSON twin) atomically, built from the records the
library returns. Exit codes (``EXIT_CODES``): 0 success, 2 usage error (a
malformed NESTQ_SEED too), 3 unreadable or ill-formed manifest/blob, 4 shape
mismatch, 5 unknown policy source, 6 bound violation in verify, 1 anything else
(such as a layer refused because its accumulator would overflow).

Seed precedence: an explicit --seed flag wins; otherwise the NESTQ_SEED
environment variable; otherwise the command's built-in default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import blobio
from .analysis import OP_KINDS, empirical_verify
from .blobio import ManifestError
from .calibration import DEFAULT_EMA_MOMENTUM, calibrate, quantize_weights
from .controller import (
    ControllerSpec,
    controller_forward,
    range_heuristic_policy,
    select_argmax,
)
from .cost import cost_report
from .intops import AccumulatorOverflowError
from .layers import BitPolicy, ShapeMismatchError, forward
from .models import build_toy_cnn, build_toy_mlp, make_blob_dataset
from .quantize import MAX_BITWIDTH, MIN_BITWIDTH

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MANIFEST = 3
EXIT_SHAPE = 4
EXIT_POLICY_SOURCE = 5
EXIT_BOUND_VIOLATION = 6

SEED_ENV_VAR = "NESTQ_SEED"
# Samples per batched forward in `infer`: bounds the conv im2col buffers.
INFER_CHUNK = 256
VERIFY_SUITES = ("bounds", *OP_KINDS)
TOY_BUILDERS = {"mlp": build_toy_mlp, "cnn": build_toy_cnn}


class UsageError(ValueError):
    """A command-line value argparse does not see, such as a malformed NESTQ_SEED."""


class PolicySourceError(ValueError):
    """The --policy string names no known policy source."""


class BoundViolationError(RuntimeError):
    """A verification suite observed an error above its analytic bound."""


def resolve_seed(flag_value: int | None, default: int) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer") from exc
    return default


def policy_source(text: str, model, seed: int = 0) -> Callable[[np.ndarray], dict]:
    """Resolve a policy-source string once, against ``model``, into a grouper.

    Forms: ``static:N`` (uniform), ``fixed:8,4,8`` (explicit list),
    ``heuristic:4,5,6`` (range heuristic over a candidate set),
    ``controller:4,5,6`` (seeded controller, argmax per input),
    ``controller-file:PATH`` (stored controller weights). A controller is
    seeded or loaded here, once; only its forward pass runs per input.

    The source is checked against the model before any sample runs: an
    unknown or malformed source (PolicySourceError), a policy or controller
    of the wrong length (ShapeMismatchError), an unreadable controller
    (ManifestError), then a bit-width or candidate outside
    [MIN_BITWIDTH, n] and a controller pooling to more features than the
    input holds (ValueError).

    The grouper maps a batch ``xs`` (samples on axis 0) to each policy's
    sample indices, ascending, with the policies in first-seen order. A
    fixed source (static, fixed, heuristic) is one group, picked once.
    """
    kind, _, arg = text.partition(":")
    length, n = model.num_policy_layers, model.master_bitwidth
    spec = None
    if kind == "static":
        try:
            widths = (int(arg),) * length
        except ValueError as exc:
            raise PolicySourceError(f"static policy needs an integer, got {arg!r}") from exc
        policy = BitPolicy(widths)
    elif kind == "fixed":
        try:
            widths = tuple(int(v) for v in arg.split(","))
        except ValueError as exc:
            raise PolicySourceError(f"bad fixed policy {arg!r}") from exc
        if len(widths) != length:
            raise ShapeMismatchError(
                f"fixed policy has {len(widths)} entries, model has {length} MAC layers")
        policy = BitPolicy(widths)
    elif kind == "heuristic":
        widths = _parse_candidates(arg)
        policy = range_heuristic_policy(model, widths)
    elif kind == "controller":
        widths = _parse_candidates(arg)
        spec = ControllerSpec(num_layers=length, candidates=widths, seed=seed)
    elif kind == "controller-file":
        spec = blobio.load_controller(Path(arg))
        if spec.num_layers != length:
            raise ShapeMismatchError(
                f"controller covers {spec.num_layers} layers, model has {length}")
        widths = spec.candidates
    else:
        raise PolicySourceError(f"unknown policy source {kind!r}")
    bad = [b for b in widths if not MIN_BITWIDTH <= b <= n]
    if bad:
        raise ValueError(f"policy bit-widths {bad} outside [{MIN_BITWIDTH}, {n}]")
    if spec is None:
        return lambda xs: {policy: list(range(len(xs)))} if len(xs) else {}
    size = int(np.prod(model.input_shape))
    if spec.feature_dim > size:
        raise ValueError(f"input with {size} values cannot pool to {spec.feature_dim}")

    def groups(xs: np.ndarray) -> dict[BitPolicy, list[int]]:
        out: dict[BitPolicy, list[int]] = {}
        for i, x in enumerate(xs):
            out.setdefault(select_argmax(controller_forward(spec, x), widths), []).append(i)
        return out
    return groups


def parse_policy(text: str, model, x=None, seed: int = 0) -> BitPolicy:
    """The BitPolicy that ``text`` gives input ``x``: :func:`policy_source`'s
    one group for a batch of one. A controller sees an all-zero input when
    ``x`` is None, as ``nestq cost`` runs it.
    """
    xs = np.zeros((1, *model.input_shape)) if x is None else np.asarray(x)[None]
    return next(iter(policy_source(text, model, seed)(xs)))


def _parse_candidates(arg: str) -> tuple[int, ...]:
    """A candidate set, sorted and without repeats; empty means 4,5,6."""
    try:
        return tuple(sorted({int(v) for v in (arg or "4,5,6").split(",")}))
    except ValueError as exc:
        raise PolicySourceError(f"bad candidate set {arg!r}") from exc


def cmd_quantize(args) -> int:
    seed = resolve_seed(args.seed, 7)
    model = TOY_BUILDERS[args.arch](seed=seed, n=args.bits)
    for layer in model.layers:
        if layer.has_weights:
            quantize_weights(layer, model.master_bitwidth)
    path = blobio.save_model(model, Path(args.out), provenance={
        "seed": seed, "command": f"quantize --arch {args.arch} --bits {args.bits}"})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model = blobio.load_for_calibration(Path(args.model))
    data = blobio.read_blob(Path(args.data)).astype(np.float64)
    if data.shape[1:] != tuple(model.input_shape):
        raise ShapeMismatchError(
            f"data samples shaped {data.shape[1:]}, model expects {model.input_shape}")
    batches = [data[i:i + args.batch_size] for i in range(0, len(data), args.batch_size)]
    provenance = {"command": f"calibrate --momentum {args.momentum} "
                             f"--batch-size {args.batch_size}",
                  "from": blobio.read_provenance(Path(args.model))}
    calibrate(model, batches, momentum=args.momentum)
    # --model names the model directory or its manifest; write back to that directory.
    model_dir = Path(args.model) if Path(args.model).is_dir() else Path(args.model).parent
    out = Path(args.out) if args.out else model_dir
    path = blobio.save_model(model, out, provenance=provenance)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_infer(args) -> int:
    seed = resolve_seed(args.seed, 0)
    model = blobio.load_model(Path(args.model))
    if not model.is_calibrated:
        raise ManifestError("model manifest has no calibrated grids; run calibrate first")
    data = blobio.read_blob(Path(args.input))
    if data.shape[1:] != tuple(model.input_shape):
        raise ShapeMismatchError(
            f"input samples shaped {data.shape[1:]}, model expects {model.input_shape}")
    data = data[:args.limit].astype(np.float64)
    # Resolve the source once, then run each distinct policy as batches.
    groups = policy_source(args.policy, model, seed=seed)(data)
    report = {"command": "infer", "policy_source": args.policy, "seed": seed,
              "samples_run": len(data), "master_bitwidth": model.master_bitwidth}
    # Both files sort the keys: pad the index so they sort in input order.
    width = max(4, len(str(len(data) - 1)))
    for policy, members in groups.items():
        for lo in range(0, len(members), INFER_CHUNK):
            chunk = members[lo:lo + INFER_CHUNK]
            ys, trace = forward(model, data[chunk], policy)
            shared = {"policy": list(policy.bits),
                      "fp_tensor_ops": trace.fp_tensor_ops,
                      **asdict(trace.counters)}
            for i, y in zip(chunk, ys):
                report[f"sample{i:0{width}d}"] = {
                    "argmax": int(np.argmax(y)),
                    "output": [repr(float(v)) for v in y.reshape(-1)],
                    **shared,
                }
    blobio.write_report(Path(args.out), report)
    print(f"wrote {args.out} ({len(data)} samples)")
    return EXIT_OK


def cmd_cost(args) -> int:
    model = blobio.load_model(Path(args.model))
    policy = parse_policy(args.policy, model, seed=resolve_seed(args.seed, 0))
    report = {"command": "cost", "policy": list(policy.bits),
              **asdict(cost_report(model, policy, mode=args.mode))}
    blobio.write_report(Path(args.out), report)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = resolve_seed(args.seed, 0)
    ops = OP_KINDS if args.suite == "bounds" else (args.suite,)
    report = {"command": "verify", "suite": args.suite, "seed": seed}
    total_violations = 0
    for op in ops:
        r = empirical_verify(op, samples=args.samples, seed=seed)
        total_violations += len(r.violations)
        report[op] = {"cases": r.cases, "violations": len(r.violations),
                      "max_observed": repr(r.max_observed), "max_bound": repr(r.max_bound),
                      "mean_signed_error": repr(r.mean_signed_error)}
    report["total_violations"] = total_violations
    blobio.write_report(Path(args.out), report)
    print(f"wrote {args.out} ({total_violations} violations)")
    if total_violations:
        raise BoundViolationError(f"{total_violations} bound violations")
    return EXIT_OK


def cmd_make_dataset(args) -> int:
    seed = resolve_seed(args.seed, 0)
    x, labels, means = make_blob_dataset(
        seed, classes=args.classes, samples=args.samples, dims=args.dims)
    if args.image_shape:
        try:
            shape = tuple(int(v) for v in args.image_shape.split(","))
            x = x.reshape((len(x),) + shape)
        except ValueError as exc:
            raise ShapeMismatchError(
                f"cannot reshape dim-{args.dims} samples to {args.image_shape}") from exc
    out = Path(args.out)
    blobio.write_blob(out / "x.nqtb", x.astype(np.float32))
    blobio.write_blob(out / "labels.nqtb", labels.astype(np.int64))
    blobio.write_blob(out / "means.nqtb", means.astype(np.float32))
    print(f"wrote {out}/(x,labels,means).nqtb: {args.samples} samples, seed {seed}")
    return EXIT_OK


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= low; anything else is a usage error (exit 2)."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _float_in(low: float, high: float) -> Callable[[str], float]:
    """argparse type: a float in [low, high]; NaN or anything else is a usage error (exit 2)."""
    def parse(text: str) -> float:
        if not low <= float(text) <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}], got {text}")
        return float(text)
    parse.__name__ = "float"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nestq",
        description="Integer-only nested-quantization inference toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Options that several commands share, each declared once: every command
    # but calibrate takes --seed and writes the required --out.
    seed_out = argparse.ArgumentParser(add_help=False)
    seed_out.add_argument("--seed", type=int, default=None)
    seed_out.add_argument("--out", required=True)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)

    p = sub.add_parser("quantize", parents=[seed_out],
                       help="build a toy model and quantize its weights")
    p.add_argument("--arch", choices=TOY_BUILDERS, default="mlp")
    p.add_argument("--bits", type=int, choices=range(MIN_BITWIDTH, MAX_BITWIDTH + 1),
                   default=8, metavar="N", help="master bit-width n")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("calibrate", parents=[model],
                       help="freeze grids from data and quantize weights")
    p.add_argument("--data", required=True, help="input blob, samples on axis 0")
    p.add_argument("--momentum", type=_float_in(0.0, 1.0), default=DEFAULT_EMA_MOMENTUM,
                   help="EMA weight g of the running range, in [0, 1]")
    p.add_argument("--batch-size", type=_int_at_least(1), default=64)
    p.add_argument("--out", default=None, help="defaults to updating --model in place")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("infer", parents=[model, seed_out],
                       help="integer inference under a bit-width policy")
    p.add_argument("--input", required=True, help="input blob, samples on axis 0")
    p.add_argument("--policy", default="static:8",
                   help="static:N | fixed:8,4,8 | heuristic:4,5,6 | "
                        "controller:4,5,6 | controller-file:PATH")
    p.add_argument("--limit", type=_int_at_least(0), default=None, help="max samples to run")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("cost", parents=[model, seed_out], help="cost accounting for one policy")
    p.add_argument("--policy", default="static:8")
    p.add_argument("--mode", choices=("dqt", "standard"), default="dqt")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("verify", parents=[seed_out],
                       help="check integer operators against their bounds")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="bounds")
    p.add_argument("--samples", type=_int_at_least(1), default=100_000,
                   help="cases per add, mul or dot suite; each sampled operator "
                        "runs at the F inference fits for it")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("make-dataset", parents=[seed_out],
                       help="deterministic Gaussian-blob dataset")
    p.add_argument("--classes", type=_int_at_least(1), default=4)
    p.add_argument("--samples", type=_int_at_least(0), default=1000)
    p.add_argument("--dims", type=_int_at_least(1), default=16)
    p.add_argument("--image-shape", default=None, help="e.g. 1,8,8 to emit images")
    p.set_defaults(fn=cmd_make_dataset)
    return parser


# Each error a command may raise and its exit code, matched in order: a subclass
# comes before its base. One class per entry, as ``main`` catches their tuple.
EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (ManifestError, EXIT_MANIFEST),
    (ShapeMismatchError, EXIT_SHAPE),
    (PolicySourceError, EXIT_POLICY_SOURCE),
    (BoundViolationError, EXIT_BOUND_VIOLATION),
    (ValueError, 1),
    (OSError, 1),
    (AccumulatorOverflowError, 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
