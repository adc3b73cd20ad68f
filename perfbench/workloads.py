"""The three benchmark workloads: set-up, timed loop, output check, traced run.

Every workload drives nestq only through public calls and through the module
attributes ``tracing.Tracer.patched`` replaces, so a traced run times the same
code paths an untraced run does. The model, calibration data and controller of
a workload are fixed by the constants below; ``--seed`` makes the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import traceback
from dataclasses import dataclass, replace
from importlib import import_module
from pathlib import Path
from time import perf_counter

import numpy as np

from nestq import blobio, calibration, cli, controller, cost, layers, models
from nestq.layers import BitPolicy, LayerSpec, ModelGraph
from nestq.reference import exact_nested_shift, fake_quant_forward

from tracing import SETUP, WORK, Tracer

# The package re-exports the quantize() function under the submodule's name.
quantize_mod = import_module("nestq.quantize")

SETUP_REPS = 15         # set-ups per run; setup_s is their median
TRACE_REPS = 2          # alternating untraced/traced passes in a traced run

MLP_BITS = 12
MLP_CANDIDATES = (4, 8, 12)
MLP_MODEL_SEED = 7
MLP_DATA_SEED = 3
MLP_CALIBRATION = 400
MLP_POOL = 8192
MLP_TRACE_SAMPLES = 512
MLP_CHUNK = 16          # samples per timed unit
CONTROLLER_SEED = 11
CONTROLLER_HIDDEN = 16

RESNET_BITS = 8
RESNET_POLICY = "static:8"
RESNET_SHAPE = (1, 16, 16)
RESNET_MODEL_SEED = 5
RESNET_DATA_SEED = 4
RESNET_CALIBRATION = 128
RESNET_POOL = 64
RESNET_BLOB = 2         # samples per `nestq infer` invocation, the timed unit
RESNET_TRACE_SAMPLES = 16

TRANSITION_PAIRS = ((8, 4), (8, 6), (12, 6), (12, 10), (16, 8), (16, 14))
TRANSITION_SIZES = (1 << 10, 1 << 14, 1 << 18, 1 << 22)
TRANSITION_BUDGET = 1 << 22  # elements per (n, b) pair and size class per round
TRANSITION_RANGE = (-1.0, 3.0)
TRANSITION_SPOT_CHECKS = 64

SPAN_SHARES = (  # (span name, phase, report calls too)
    ("quantize.shift_down", WORK, True),
    ("quantize.quantize", WORK, True),
    ("intops.dot_constants", WORK, True),
    ("intops.add_constants", WORK, True),
    ("intops.int_dot", WORK, True),
    ("intops.int_dot_pact", WORK, True),
    ("intops.int_add", WORK, True),
    ("layers.run_layer.fc", WORK, False),
    ("layers.run_layer.conv2d", WORK, False),
    ("layers.run_layer.residual_add", WORK, False),
    ("layers.run_layer.relu_pact", WORK, False),
    ("layers.run_layer.avgpool", WORK, False),
    ("layers.run_layer.flatten", WORK, False),
    ("layers.forward", WORK, False),
    ("controller.select", WORK, True),
    ("calibration.calibrate", SETUP, False),
    ("calibration.float_forward", SETUP, False),
    ("blobio.load_model", WORK, False),
    ("blobio.read_blob", WORK, False),
    ("blobio.write_report", WORK, False),
    ("cli.parse_policy", WORK, True),
    ("cli.main", WORK, False),
)


@dataclass
class Options:
    seed: int
    seconds: float
    smoke: bool      # tiny input pools, for the smoke test
    work_dir: Path   # scratch space inside the checkout, removed after the run


# ----------------------------------------------------------------- helpers

class CpuRotation:
    """Run successive timed units on successive CPUs of this process's CPU set.

    On a shared host, other tenants slow one CPU or both by up to 2x for
    seconds to minutes at a time. Timed metrics are therefore the best of many
    short units (min-of-k), and the units take turns on every CPU this process
    may use, so that a run sees each CPU's quiet moments. Only this process's
    own affinity changes; it is restored on exit.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._unit = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.cpus)

    def next(self) -> None:
        """Move to the CPU of the next timed unit."""
        self._unit += 1
        os.sched_setaffinity(0, {self.cpus[self._unit % len(self.cpus)]})


def timed_setups(setup):
    """Run ``setup`` SETUP_REPS times; return its last result and the median time."""
    times, result = [], None
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        result = setup()
        times.append(perf_counter() - t0)
    return result, statistics.median(times)


def grid_ints(y, params) -> tuple[np.ndarray, bool]:
    """Recover grid indices from dequantized outputs; False if any is off the grid."""
    q = (np.asarray(y, dtype=np.float64) - params.offset) / params.scale
    r = np.rint(q)
    tol = 1e-6 * (params.qmax + abs(params.offset) / params.scale + 1.0)
    ok = bool(np.all(np.abs(q - r) <= tol) and r.min() >= 0 and r.max() <= params.qmax)
    return r.astype(np.int64), ok


def digest(rows) -> str:
    """sha256 over integer outputs in order; None marks a failed item."""
    h = hashlib.sha256()
    for row in rows:
        h.update(b"failed" if row is None else np.asarray(row, dtype="<i8").tobytes())
    return h.hexdigest()


def tail(latencies) -> dict:
    """Median and p99 with the sample count and the number of samples beyond p99."""
    lat = np.asarray(latencies, dtype=np.float64)
    p99 = float(np.quantile(lat, 0.99))
    return {"samples": len(lat), "p50_ms": float(np.median(lat)) * 1e3,
            "p99_ms": p99 * 1e3, "beyond_p99": int((lat > p99).sum())}


def oracle_agreement(model, xs, ints, policies):
    """Share of outputs whose argmax matches fake_quant_forward's, and the largest
    |int - oracle| in output-grid steps; the oracle runs batched per distinct policy."""
    params = model.layers[-1].output_params
    groups: dict[BitPolicy, list[int]] = {}
    for i, p in enumerate(policies):
        if ints[i] is not None:
            groups.setdefault(p, []).append(i)
    matches, max_dev, checked = 0, 0, 0
    for policy, idx in groups.items():
        oracle, _ = grid_ints(fake_quant_forward(model, xs[idx], policy), params)
        got = np.array([ints[i] for i in idx])
        matches += int(np.sum(got.argmax(axis=1) == oracle.argmax(axis=1)))
        max_dev = max(max_dev, int(np.abs(got - oracle).max()))
        checked += len(idx)
    return (matches / checked if checked else 0.0), max_dev


def blob_inputs(means: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Samples around fixed blob-class means; only the draw depends on the seed."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(means), size=count)
    x = means[labels] + rng.normal(0.0, models.BLOB_SIGMA, size=(count, means.shape[1]))
    return np.clip(x, 0.0, None)


def layer_metrics(tracer: Tracer, work_wall: float, setup_wall: float,
                  untraced_wall: float, passes: int, extra: dict) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    ``*.self_share`` is a span's self time over the traced wall time of its
    phase (set-up for calibration, the timed work otherwise); ``*.calls`` and
    other counts are per traced pass; ``layers.*`` counts are per sample.
    """
    work = tracer.aggregate(WORK)
    setup = tracer.aggregate(SETUP)
    m = {}
    for name, phase, with_calls in SPAN_SHARES:
        calls, secs = (setup if phase == SETUP else work).get(name, (0, 0.0))
        wall = setup_wall if phase == SETUP else work_wall
        m[name + ".self_share"] = secs / wall if wall > 0 else 0.0
        if with_calls:
            m[name + ".calls"] = calls / passes
    c = tracer.counts
    shift_calls = work.get("quantize.shift_down", (0, 0.0))[0]
    m["quantize.shift_down.elems"] = c["quantize.shift_down.elems"] / passes
    m["quantize.shift_down.noop_share"] = (
        c["quantize.shift_down.noop"] / shift_calls if shift_calls else 0.0)
    m["intops.constants.distinct_share"] = (
        len(tracer.constant_keys) / tracer.constant_calls if tracer.constant_calls else 0.0)
    m["intops.overflow_errors"] = c["intops.overflow_errors"] / passes
    samples = c["layers.samples"]
    for k in ("macs", "mults", "adds", "shifts"):
        m["layers." + k] = c["layers." + k] / samples if samples else 0.0
    m["blobio.report_bytes"] = c["blobio.report_bytes"] / passes
    m["trace.overhead"] = work_wall / untraced_wall
    m["trace.accounted_share"] = tracer.root_seconds(WORK) / work_wall
    for size in TRANSITION_SIZES:
        for key in ("quantize.shift_down.elems_per_s", "quantize.roundtrip.elems_per_s",
                    "quantize.shift_speedup"):
            m[f"{key}.{size}"] = 0.0
    m["controller.switch_share"] = 0.0
    m["oracle.max_dev_steps"] = 0.0
    m.update(extra)
    return m


def switch_share(policies) -> float:
    """Share of inputs whose policy differs from the previous input's."""
    if len(policies) < 2:
        return 0.0
    return sum(a != b for a, b in zip(policies, policies[1:])) / (len(policies) - 1)


# --------------------------------------------------------------- mlp_switch

def build_controller(model: ModelGraph, x_cal: np.ndarray) -> controller.ControllerSpec:
    """Seeded controller centred on the calibration set's pooled features.

    Each logit is standardised over the calibration set, so the per-layer
    argmax spreads over all candidates and the policy changes from input to
    input; the library's seeded default picks one policy for every input.
    """
    rng = np.random.default_rng(CONTROLLER_SEED)
    dims = x_cal.shape[1]
    feats = np.array([controller.pool_features(x, dims) for x in x_cal])
    w1 = rng.standard_normal((CONTROLLER_HIDDEN, dims))
    b1 = -w1 @ feats.mean(axis=0)
    hidden = np.maximum(feats @ w1.T + b1, 0.0)
    rows = model.num_policy_layers * len(MLP_CANDIDATES)
    w2 = rng.standard_normal((rows, CONTROLLER_HIDDEN))
    logits = hidden @ w2.T
    scale = 1.0 / logits.std(axis=0)
    return controller.ControllerSpec(
        num_layers=model.num_policy_layers, candidates=MLP_CANDIDATES,
        feature_dim=dims, hidden=CONTROLLER_HIDDEN, source="loaded",
        seed=CONTROLLER_SEED, w1=w1, b1=b1, w2=w2 * scale[:, None],
        b2=-logits.mean(axis=0) * scale)


def select_policy(spec, x) -> BitPolicy:
    return controller.select_argmax(controller.controller_forward(spec, x), spec.candidates)


def mlp_setup(opts: Options, x_cal, means, warm_x):
    """Build, calibrate, save and reload the model, build the controller, warm up."""
    model = models.build_toy_mlp(seed=MLP_MODEL_SEED, n=MLP_BITS, means=means)
    calibration.calibrate(model, [x_cal[i:i + 100] for i in range(0, len(x_cal), 100)])
    blobio.save_model(model, opts.work_dir / "mlp")
    model = blobio.load_model(opts.work_dir / "mlp")
    spec = build_controller(model, x_cal)
    layers.forward(model, warm_x, select_policy(spec, warm_x))
    return model, spec


def mlp_pass(model, spec, xs, select=select_policy, tracer=None):
    """One closed-loop pass: one caller, one sample per forward call."""
    outs, policies, lat, errors = [], [], [], []
    for i, x in enumerate(xs):
        if tracer is not None:
            tracer.sample_id = i
        y = policy = None
        t0 = perf_counter()
        try:
            policy = select(spec, x)
            y, _ = layers.forward(model, x, policy)
        except Exception:  # counted as a failed sample; the run goes on
            errors.append(traceback.format_exc())
        lat.append(perf_counter() - t0)
        outs.append(y)
        policies.append(policy)
    return outs, policies, lat, errors


def mlp_ints(model, outs):
    """Integer outputs of one pass; None where a sample raised or left the grid."""
    params = model.layers[-1].output_params
    ints = []
    for y in outs:
        q, ok = grid_ints(y, params) if y is not None else (None, False)
        ints.append(q if ok else None)
    return ints


def mlp_inputs(opts: Options):
    x_cal, _, means = models.make_blob_dataset(MLP_DATA_SEED, samples=MLP_CALIBRATION)
    pool = blob_inputs(means, 64 if opts.smoke else MLP_POOL, opts.seed)
    return x_cal, means, pool


def run_mlp_switch(opts: Options) -> dict:
    x_cal, means, pool = mlp_inputs(opts)
    (model, spec), setup_s = timed_setups(lambda: mlp_setup(opts, x_cal, means, pool[0]))
    digests, failed, errors, chunks, first = [], 0, [], [], None
    with CpuRotation() as cpus:
        start = perf_counter()
        while len(digests) < 2 or perf_counter() - start < opts.seconds:
            outs, policies = [], []
            for c in range(0, len(pool), MLP_CHUNK):
                cpus.next()
                chunk_outs, chunk_policies, lat, errs = mlp_pass(model, spec,
                                                                 pool[c:c + MLP_CHUNK])
                outs += chunk_outs
                policies += chunk_policies
                errors += errs
                chunks.append(lat)
            ints = mlp_ints(model, outs)
            failed += sum(q is None for q in ints)
            digests.append(digest(ints))
            first = first or (ints, policies)
    ints, policies = first
    agree, max_dev = oracle_agreement(model, pool, ints, policies)
    t = tail([x for lat in chunks for x in lat])
    return {
        "attempted": t["samples"], "failed": failed,
        "correct": failed == 0 and len(set(digests)) == 1,
        "metrics": {
            "items_per_s": max(len(lat) / sum(lat) for lat in chunks),
            "latency_ms": min(statistics.median(lat) for lat in chunks) * 1e3,
            "setup_s": setup_s,
            "oracle_agreement": agree,
        },
        "info": {"latency_all_samples": t, "timed_units": len(chunks),
                 "passes": len(digests), "pool": len(pool),
                 "digests": digests, "oracle_max_dev_steps": max_dev,
                 "controller_switch_share": switch_share(policies),
                 "distinct_policies": len(set(policies)),
                 "first_error": errors[0] if errors else None},
    }


def trace_mlp_switch(opts: Options) -> dict:
    x_cal, means, pool = mlp_inputs(opts)
    xs = pool[:32 if opts.smoke else MLP_TRACE_SAMPLES]
    tracer = Tracer()
    tracer.current_phase = SETUP
    untraced, traced, digests, failed, policies, errors = [], [], [], 0, None, []
    with tracer.patched():
        t0 = perf_counter()
        model, spec = mlp_setup(opts, x_cal, means, pool[0])
        setup_wall = perf_counter() - t0
    tracer.current_phase = WORK
    for _ in range(TRACE_REPS):
        t0 = perf_counter()
        outs, _, _, errs = mlp_pass(model, spec, xs)
        untraced.append(perf_counter() - t0)
        ints = mlp_ints(model, outs)
        failed += sum(q is None for q in ints)
        digests.append(digest(ints))
        with tracer.patched():
            select = tracer.wrap("controller.select", select_policy)
            t0 = perf_counter()
            outs, policies, _, errs2 = mlp_pass(model, spec, xs, select=select, tracer=tracer)
            traced.append(perf_counter() - t0)
        errors += errs + errs2
        ints = mlp_ints(model, outs)
        _, max_dev = oracle_agreement(model, xs, ints, policies)
        failed += sum(q is None for q in ints)
        digests.append(digest(ints))
    extra = {"controller.switch_share": switch_share(policies),
             "oracle.max_dev_steps": float(max_dev)}
    return _traced_result(tracer, traced, untraced, setup_wall, extra, failed,
                          2 * TRACE_REPS * len(xs), digests, errors)


def _traced_result(tracer, traced, untraced, setup_wall, extra, failed, attempted, digests,
                   errors):
    metrics = layer_metrics(tracer, sum(traced), setup_wall, sum(untraced),
                            TRACE_REPS, extra)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and len(set(digests)) == 1,
            "metrics": metrics, "tracer": tracer,
            "info": {"traced_wall_s": traced, "untraced_wall_s": untraced,
                     "setup_wall_s": setup_wall, "digests": digests,
                     "spans": len(tracer.name),
                     "self_sum_over_untraced": tracer.root_seconds(WORK) / sum(untraced),
                     "self_s": {k: v[1] / TRACE_REPS for k, v in tracer.aggregate(WORK).items()},
                     "setup_self_s": {k: v[1] for k, v in tracer.aggregate(SETUP).items()},
                     "first_error": errors[0] if errors else None}}


# ------------------------------------------------------------- resnet_batch

def build_resnet() -> ModelGraph:
    """Residual conv net over 1x16x16 images with seeded float weights."""
    rng = np.random.default_rng(RESNET_MODEL_SEED)

    def conv(name, cin, cout, stride=1):
        return LayerSpec(kind="conv2d", name=name, in_channels=cin, out_channels=cout,
                         kernel=3, stride=stride, padding=1,
                         weight=rng.normal(0.0, 1.0 / np.sqrt(9 * cin), size=(cout, cin, 3, 3)),
                         bias=rng.normal(0.0, 0.05, size=cout))

    graph = [
        conv("conv1", 1, 8),
        LayerSpec(kind="relu_pact", name="act1"),
        conv("conv2", 8, 8),
        LayerSpec(kind="relu_pact", name="act2"),
        LayerSpec(kind="residual_add", name="res", source=1),
        LayerSpec(kind="avgpool", name="pool", pool=2),
        conv("conv3", 8, 16, stride=2),
        LayerSpec(kind="relu_pact", name="act3"),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=256, out_features=4,
                  weight=rng.normal(0.0, 1.0 / 16, size=(4, 256)),
                  bias=np.zeros(4)),
    ]
    return ModelGraph(layers=graph, input_shape=RESNET_SHAPE, master_bitwidth=RESNET_BITS)


def resnet_inputs(opts: Options):
    """Write the calibration blob and the input blobs; return the pool."""
    dims = int(np.prod(RESNET_SHAPE))
    x_cal, _, means = models.make_blob_dataset(RESNET_DATA_SEED, samples=RESNET_CALIBRATION,
                                               dims=dims)
    pool_n = 4 if opts.smoke else RESNET_POOL
    blob_n = 2 if opts.smoke else RESNET_BLOB
    pool = blob_inputs(means, pool_n, opts.seed).reshape((pool_n,) + RESNET_SHAPE)
    calib = opts.work_dir / "calib.nqtb"
    blobio.write_blob(calib, x_cal.reshape((-1,) + RESNET_SHAPE).astype(np.float32))
    blobs = []
    for j in range(0, pool_n, blob_n):
        path = opts.work_dir / f"input{j // blob_n}.nqtb"
        blobio.write_blob(path, pool[j:j + blob_n].astype(np.float32))
        blobs.append(path)
    # The CLI reads float32 blobs; the oracle sees exactly what the CLI sees.
    return calib, blobs, pool.astype(np.float32).astype(np.float64), blob_n


def resnet_setup(opts: Options, calib: Path, warm_x):
    """Build, save, calibrate through the CLI with a model directory, reload, warm up."""
    model_dir = opts.work_dir / "resnet"
    blobio.save_model(build_resnet(), model_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["calibrate", "--model", str(model_dir), "--data", str(calib)])
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"nestq calibrate exited with {rc}")
    model = blobio.load_model(model_dir)
    layers.forward(model, warm_x, BitPolicy.uniform(RESNET_BITS, model.num_policy_layers))
    return model, model_dir


def resnet_pass(model_dir: Path, blobs, errors: list, cpus=None, run_main=None):
    """One `nestq infer` invocation per input blob; returns reports and latencies."""
    run_main = run_main or cli.main
    reports, lat = [], []
    for j, blob in enumerate(blobs):
        if cpus is not None:
            cpus.next()
        out = blob.with_name(f"report{j}.txt")
        argv = ["infer", "--model", str(model_dir), "--input", str(blob),
                "--policy", RESNET_POLICY, "--out", str(out)]
        rc = None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                rc = run_main(argv)
            except Exception:  # counted as failed samples; the run goes on
                errors.append(traceback.format_exc())
            lat.append(perf_counter() - t0)
        reports.append(json.loads(Path(str(out) + ".json").read_text())
                       if rc == cli.EXIT_OK else None)
    return reports, lat


def resnet_ints(model, reports, blob_n: int):
    """Integer outputs per sample from the JSON reports; None where a sample failed."""
    params = model.layers[-1].output_params
    ints = []
    for rep in reports:
        for i in range(blob_n):
            entry = (rep or {}).get(f"sample{i:04d}")
            if entry is None:
                ints.append(None)
                continue
            q, ok = grid_ints(np.array([float(v) for v in entry["output"]]), params)
            ints.append(q if ok and int(q.argmax()) == entry["argmax"] else None)
    return ints


def run_resnet_batch(opts: Options) -> dict:
    calib, blobs, pool, blob_n = resnet_inputs(opts)
    (model, model_dir), setup_s = timed_setups(lambda: resnet_setup(opts, calib, pool[0]))
    passes, errors = [], []
    with CpuRotation() as cpus:
        start = perf_counter()
        while len(passes) < 2 or perf_counter() - start < opts.seconds:
            passes.append(resnet_pass(model_dir, blobs, errors, cpus))
    static = BitPolicy.uniform(RESNET_BITS, model.num_policy_layers)

    digests, failed, agree, max_dev = [], 0, None, None
    for reports, _ in passes:
        ints = resnet_ints(model, reports, blob_n)
        if agree is None:
            agree, max_dev = oracle_agreement(model, pool, ints, [static] * len(ints))
        failed += sum(q is None for q in ints)
        digests.append(digest(ints))
    lat = [t for p in passes for t in p[1]]
    report_bytes = sum(p.stat().st_size for p in opts.work_dir.glob("report*"))
    return {
        "attempted": len(lat) * blob_n, "failed": failed,
        "correct": failed == 0 and len(set(digests)) == 1,
        "metrics": {
            "items_per_s": blob_n / min(lat),
            "latency_ms": min(lat) * 1e3,
            "setup_s": setup_s,
            "oracle_agreement": agree,
        },
        "info": {"invocations": len(lat), "samples_per_invocation": blob_n,
                 "median_invocation_ms": statistics.median(lat) * 1e3,
                 "passes": len(passes), "digests": digests,
                 "oracle_max_dev_steps": max_dev, "report_bytes": report_bytes,
                 "first_error": errors[0] if errors else None},
    }


def trace_resnet_batch(opts: Options) -> dict:
    calib, blobs, pool, blob_n = resnet_inputs(opts)
    blobs = blobs[:max(1, RESNET_TRACE_SAMPLES // blob_n)]
    tracer = Tracer()
    tracer.current_phase = SETUP
    untraced, traced, digests, failed, max_dev, errors = [], [], [], 0, 0, []
    with tracer.patched():
        t0 = perf_counter()
        model, model_dir = resnet_setup(opts, calib, pool[0])
        setup_wall = perf_counter() - t0
    static = BitPolicy.uniform(RESNET_BITS, model.num_policy_layers)
    tracer.current_phase = WORK
    for _ in range(TRACE_REPS):
        reports, lat = resnet_pass(model_dir, blobs, errors)
        untraced.append(sum(lat))
        ints = resnet_ints(model, reports, blob_n)
        failed += sum(q is None for q in ints)
        digests.append(digest(ints))
        with tracer.patched():
            reports, lat = resnet_pass(model_dir, blobs, errors,
                                       run_main=tracer.wrap("cli.main", cli.main))
            traced.append(sum(lat))
        ints = resnet_ints(model, reports, blob_n)
        _, max_dev = oracle_agreement(model, pool, ints, [static] * len(ints))
        failed += sum(q is None for q in ints)
        digests.append(digest(ints))
    return _traced_result(tracer, traced, untraced, setup_wall,
                          {"oracle.max_dev_steps": float(max_dev)}, failed,
                          2 * TRACE_REPS * blob_n * len(blobs), digests, errors)


# --------------------------------------------------------------- transition

def transition_setup(opts: Options) -> dict:
    """Master-width int64 tensors, one per n, validated as NestedTensors."""
    rng = np.random.default_rng(opts.seed)
    return {n: quantize_mod.NestedTensor(
                data=rng.integers(0, 1 << n, size=TRANSITION_BUDGET, dtype=np.int64),
                params=quantize_mod.make_master_params(*TRANSITION_RANGE, n))
            for n in sorted({n for n, _ in TRANSITION_PAIRS})}


def exact_shifts(bases: dict, seed: int) -> dict:
    """The exact nested shift of every input, computed without shift_down.

    Uses float floor(q / 2^s + 1/2), exact for these magnitudes, and spot-checks
    it against the exact-rational oracle.
    """
    rng = np.random.default_rng(seed)
    expected = {}
    for n, b in TRANSITION_PAIRS:
        q = bases[n].data
        e = np.minimum(np.floor(q / float(1 << (n - b)) + 0.5), (1 << b) - 1)
        for i in rng.integers(0, len(q), size=TRANSITION_SPOT_CHECKS):
            if int(e[i]) != exact_nested_shift(int(q[i]), n, b):
                raise AssertionError(f"float shift oracle disagrees at n={n} b={b}")
        expected[(n, b)] = e.astype(np.uint16)
    return expected


def transition_round(bases, expected, errors: list, hasher=None, cpus=None):
    """shift_down over every (n, b) pair and size class with equal element budgets.

    Returns (calls, failed calls, seconds per (n, b, size) block, latencies of
    the largest calls).
    """
    secs = {}
    big, calls, failed = [], 0, 0
    for n, b in TRANSITION_PAIRS:
        q_all, e_all = bases[n].data, expected[(n, b)]
        for size in TRANSITION_SIZES:
            if cpus is not None:
                cpus.next()
            secs[(n, b, size)] = 0.0
            for k in range(0, TRANSITION_BUDGET, size):
                q = q_all[k:k + size]
                out = None
                t0 = perf_counter()
                try:
                    out = quantize_mod.shift_down(q, n, b)
                except Exception:  # counted as a failed call; the run goes on
                    errors.append(traceback.format_exc())
                dt = perf_counter() - t0
                secs[(n, b, size)] += dt
                if size == TRANSITION_SIZES[-1]:
                    big.append(dt)
                calls += 1
                ok = out is not None and out.shape == q.shape \
                    and np.issubdtype(out.dtype, np.integer) \
                    and np.array_equal(out, e_all[k:k + size])
                failed += not ok
                if hasher is not None:
                    hasher.update(b"failed" if out is None
                                  else np.asarray(out, dtype="<i8").tobytes())
    return calls, failed, secs, big


def per_size(blocks: dict) -> dict:
    """Seconds per size class, summed over the (n, b) pairs."""
    return {size: sum(t for (_, _, s), t in blocks.items() if s == size)
            for size in TRANSITION_SIZES}


def roundtrip_round(bases):
    """The float dequantize/requantize detour over the same inputs; seconds per size."""
    secs = dict.fromkeys(TRANSITION_SIZES, 0.0)
    for n, b in TRANSITION_PAIRS:
        master = bases[n].params
        target = quantize_mod.derive_params(master, b)
        q_all = bases[n].data
        for size in TRANSITION_SIZES:
            for k in range(0, TRANSITION_BUDGET, size):
                t0 = perf_counter()
                quantize_mod.dequant_requant_reference(q_all[k:k + size], master, target)
                secs[size] += perf_counter() - t0
    return secs


def round_elements() -> int:
    return len(TRANSITION_PAIRS) * len(TRANSITION_SIZES) * TRANSITION_BUDGET


def run_transition(opts: Options) -> dict:
    bases, setup_s = timed_setups(lambda: transition_setup(opts))
    expected = exact_shifts(bases, opts.seed)
    rounds, digests, errors = [], [], []
    with CpuRotation() as cpus:
        start = perf_counter()
        while len(rounds) < 2 or perf_counter() - start < opts.seconds:
            hasher = hashlib.sha256() if len(rounds) < 2 else None
            rounds.append(transition_round(bases, expected, errors, hasher, cpus))
            if hasher is not None:
                digests.append(hasher.hexdigest())
    attempted = sum(r[0] for r in rounds)
    failed = sum(r[1] for r in rounds)
    best = {key: min(r[2][key] for r in rounds) for key in rounds[0][2]}
    block_elems = len(TRANSITION_PAIRS) * TRANSITION_BUDGET
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and len(set(digests)) == 1,
        "metrics": {
            "items_per_s": round_elements() / sum(best.values()),
            "latency_ms": min(t for r in rounds for t in r[3]) * 1e3,
            "setup_s": setup_s,
            "oracle_agreement": 1.0 - failed / attempted,
        },
        "info": {"rounds": len(rounds), "elements_per_round": round_elements(),
                 "digests": digests,
                 "best_shift_ns_per_elem": {size: t / block_elems * 1e9
                                            for size, t in per_size(best).items()},
                 **cycle_model(),
                 "first_error": errors[0] if errors else None},
    }


def cycle_model() -> dict:
    """The cost model's round-trip-over-shift cycle ratio: a model, not a measurement."""
    standard = cost.CostReport(bitops=0, macs_per_layer=[], transition_elements=1,
                               mode="standard", transition_shift_ops=0,
                               transition_fp_primitives=0, inloop_mults=0, inloop_adds=0)
    lo, hi = cost.cycle_estimate(standard)
    shift_lo, shift_hi = cost.cycle_estimate(replace(standard, mode="dqt"))
    return {"cycle_ratio_model_low": lo / shift_hi, "cycle_ratio_model_high": hi / shift_lo}


def trace_transition(opts: Options) -> dict:
    bases = transition_setup(opts)
    expected = exact_shifts(bases, opts.seed)
    tracer = Tracer()
    untraced, traced, digests, failed, attempted, errors = [], [], [], 0, 0, []
    shift_s = dict.fromkeys(TRANSITION_SIZES, 0.0)
    trip_s = dict.fromkeys(TRANSITION_SIZES, 0.0)
    # Phase walls sum the timed calls only, leaving out the output checks.
    for _ in range(TRACE_REPS):
        hasher = hashlib.sha256()
        calls, bad, secs, _ = transition_round(bases, expected, errors, hasher)
        trip = roundtrip_round(bases)
        untraced.append(sum(secs.values()) + sum(trip.values()))
        for size, t in per_size(secs).items():
            shift_s[size] += t
            trip_s[size] += trip[size]
        digests.append(hasher.hexdigest())
        with tracer.patched():
            hasher = hashlib.sha256()
            calls2, bad2, secs, _ = transition_round(bases, expected, errors, hasher)
            trip = roundtrip_round(bases)
            traced.append(sum(secs.values()) + sum(trip.values()))
        digests.append(hasher.hexdigest())
        failed += bad + bad2
        attempted += calls + calls2
    elems = TRACE_REPS * len(TRANSITION_PAIRS) * TRANSITION_BUDGET
    extra = {}
    for size in TRANSITION_SIZES:
        extra[f"quantize.shift_down.elems_per_s.{size}"] = elems / shift_s[size]
        extra[f"quantize.roundtrip.elems_per_s.{size}"] = elems / trip_s[size]
        extra[f"quantize.shift_speedup.{size}"] = trip_s[size] / shift_s[size]
    result = _traced_result(tracer, traced, untraced, 0.0, extra, failed, attempted, digests,
                            errors)
    result["info"].update(cycle_model())
    result["info"]["ns_per_elem"] = {
        size: {"shift": shift_s[size] / elems * 1e9, "roundtrip": trip_s[size] / elems * 1e9}
        for size in TRANSITION_SIZES}
    return result


WORKLOADS = {
    "mlp_switch": (run_mlp_switch, trace_mlp_switch),
    "resnet_batch": (run_resnet_batch, trace_resnet_batch),
    "transition": (run_transition, trace_transition),
}
