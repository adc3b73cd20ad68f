"""Integer-only execution of layer graphs under a per-layer bit-width policy.

What this module holds, and where each rule is written:

- :class:`LayerSpec`, :class:`ModelGraph`: layers, shapes, residual edges,
  the master widths a model may have and the graphs a clamp cannot ride on.
- :func:`forward`: a sample or a batch through every layer, one policy.
- :func:`run_layer`: one layer on a batch, and the order of its refusals.
- :class:`LayerStep`: a policy layer's per-b cache and its one expression.
- :func:`build_plan`: that expression's constants and F, or a refusal.
- :func:`exact_sum_dtype`: the type a fc or conv sums its products in.
- :func:`_requant`: the one rounding onto a policy layer's output grid.
- :func:`_run_elementwise`: the clamp, the average pool and the flatten.
- :func:`layer_counters`: the counting rule the trace and ``cost`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import is_

import numpy as np

from .intops import (
    ADD_PRIMITIVES,
    BIAS_PRIMITIVES,
    AccumulatorOverflowError,
    IntOpConstants,
    MAC_PRIMITIVES,
    OpCounters,
    add_constants,
    dot_constants,
    mac_loop,
)
# Not called here; perfbench/tracing.py patches these names on this module.
from .intops import int_add, int_dot, int_dot_pact  # noqa: F401
from .quantize import (
    MAX_BITWIDTH,
    MIN_BITWIDTH,
    NestedTensor,
    QuantParams,
    _read_only,
    derive_params,
    dequantize,
    quantize,
    shift_down,
    storage_dtype,
)

# Layer kinds that consume a policy bit-width (they move tensors below n).
POLICY_KINDS = ("fc", "conv2d", "residual_add")
LAYER_KINDS = POLICY_KINDS + ("relu_pact", "avgpool", "flatten")


class ShapeMismatchError(ValueError):
    pass


@dataclass
class LayerSpec:
    """One layer: kind, shape metadata, float parameters, the grids it owns.

    Calibration quantizes float ``weight``/``bias`` into ``weight_q``/``bias_q``,
    each carrying its grid (``blobio.load_model`` reads only these). Only a
    policy layer holds a grid of its own, ``output_params``. ``steps`` holds the
    compiled steps, one per bit-width; replace a tensor or grid, never write into it.
    """

    kind: str
    name: str = ""
    # fc
    in_features: int = 0
    out_features: int = 0
    # conv2d
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    # avgpool
    pool: int = 0
    # residual_add: index of the earlier layer whose output joins here
    source: int = -1
    # activation clamp bound
    alpha: float | None = None

    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    weight_q: NestedTensor | None = None
    bias_q: NestedTensor | None = None

    output_params: QuantParams | None = None  # policy layers only

    input_shape: tuple[int, ...] = ()
    output_shape: tuple[int, ...] = ()
    range_flagged: bool = False  # degenerate calibrated range was widened
    steps: dict[int, LayerStep] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    @property
    def has_weights(self) -> bool:
        return self.kind in ("fc", "conv2d")

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """A fc's (out, in) or a conv's (out, in, kernel, kernel), its bias
        (out,); (0,) for a layer without weights."""
        if self.kind == "fc":
            return (self.out_features, self.in_features)
        if self.kind == "conv2d":
            return (self.out_channels, self.in_channels, self.kernel, self.kernel)
        return (0,)

    def weight_elements(self) -> int:
        return math.prod(self.weight_shape)

    def input_elements(self) -> int:
        n = math.prod(self.input_shape) if self.input_shape else 0
        if self.kind == "residual_add":
            return 2 * n  # both operands enter at the policy bit-width
        return n

    def mac_count(self) -> int:
        """Each weight once per output pixel; a fc has one."""
        return self.weight_elements() * math.prod(self.output_shape[1:])


@dataclass
class ModelGraph:
    """Ordered layers with explicit residual edges and the model input grid.

    Refuses (ValueError) a ``master_bitwidth`` that is not an int in
    [MIN_BITWIDTH, MAX_BITWIDTH] before it checks the layers.
    """

    layers: list[LayerSpec]
    input_shape: tuple[int, ...]
    input_params: QuantParams | None = None
    master_bitwidth: int = 8

    def __post_init__(self):
        n = self.master_bitwidth
        if not (isinstance(n, int) and MIN_BITWIDTH <= n <= MAX_BITWIDTH):
            raise ValueError(f"master bit-width {n!r} outside [{MIN_BITWIDTH}, {MAX_BITWIDTH}]")
        self._infer_shapes()
        self._policy_slots = tuple(i for i, l in enumerate(self.layers) if l.kind in POLICY_KINDS)
        # A clamp is its producer's output grid: it must follow a policy layer,
        # and no residual edge may read the producer, unclamped in float.
        for i, layer in enumerate(self.layers):
            if layer.kind == "relu_pact" and (
                    i == 0 or self.layers[i - 1].kind not in POLICY_KINDS):
                raise ValueError(f"clamp at layer {i} must directly follow one of {POLICY_KINDS}")
            if layer.kind == "residual_add":
                if not 0 <= layer.source < i:
                    raise ValueError(f"residual edge at layer {i} must point backwards")
                if self.layers[layer.source + 1].kind == "relu_pact":
                    raise ValueError(
                        f"residual edge {layer.source}->{i} reads a clamp's producer; "
                        f"point it at the clamp, layer {layer.source + 1}")
                if self.layers[layer.source].output_shape != layer.input_shape:
                    raise ShapeMismatchError(
                        f"residual edge {layer.source}->{i} joins different shapes"
                    )

    def _infer_shapes(self):
        shape = tuple(self.input_shape)
        for layer in self.layers:
            layer.input_shape = shape
            if layer.kind == "fc":
                if int(np.prod(shape)) != layer.in_features:
                    raise ShapeMismatchError(
                        f"fc {layer.name!r} expects {layer.in_features} inputs, got {shape}"
                    )
                shape = (layer.out_features,)
            elif layer.kind == "conv2d":
                c, h, w = shape
                if c != layer.in_channels:
                    raise ShapeMismatchError(
                        f"conv {layer.name!r} expects {layer.in_channels} channels, got {c}"
                    )
                if layer.kernel < 1 or layer.stride < 1 or layer.padding < 0:
                    raise ValueError(f"conv {layer.name!r} needs kernel, stride >= 1, padding >= 0")
                oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
                ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
                shape = (layer.out_channels, oh, ow)
            elif layer.kind == "avgpool":
                c, h, w = shape
                if layer.pool < 1:
                    raise ValueError(f"avgpool {layer.name!r} needs pool >= 1, got {layer.pool}")
                shape = (c, h // layer.pool, w // layer.pool)
            elif layer.kind == "flatten":
                shape = (int(np.prod(shape)),)
            if any(d < 1 for d in shape):
                raise ShapeMismatchError(
                    f"{layer.kind} {layer.name!r} leaves an empty output {shape}")
            layer.output_shape = shape
        self.output_shape = shape

    @property
    def policy_indices(self) -> list[int]:
        return list(self._policy_slots)

    @property
    def num_policy_layers(self) -> int:
        return len(self._policy_slots)

    @property
    def is_calibrated(self) -> bool:
        return self.input_params is not None and all(
            self.layers[i].output_params is not None for i in self._policy_slots)

    def grid_owner(self, i: int) -> int:
        """The policy layer whose output grid layer i's output is on; -1: the input's.

        A clamp, pool or flatten keeps the grid it reads."""
        while i >= 0 and self.layers[i].kind not in POLICY_KINDS:
            i -= 1
        return i

    def output_grid(self, i: int) -> QuantParams | None:
        """Layer i's output grid, so layer i + 1's input grid; i = -1 is the model input."""
        i = self.grid_owner(i)
        return self.layers[i].output_params if i >= 0 else self.input_params

    def layer_bitwidths(self, policy: "BitPolicy") -> list[int]:
        """Each layer's bit-width: its policy entry for a policy layer, else n.

        Refuses a policy whose length is not the number of policy layers, or
        that holds a bit-width outside [MIN_BITWIDTH, n].
        """
        n = self.master_bitwidth
        if len(policy.bits) != len(self._policy_slots):
            raise ValueError(
                f"policy length {len(policy)} != {self.num_policy_layers} MAC layers"
            )
        bits = [n] * len(self.layers)
        for i, b in zip(self._policy_slots, policy.bits):
            if not MIN_BITWIDTH <= b <= n:
                bad = [b for b in policy.bits if not MIN_BITWIDTH <= b <= n]
                raise ValueError(f"policy bit-widths {bad} outside [{MIN_BITWIDTH}, {n}]")
            bits[i] = b
        return bits


@dataclass(frozen=True)
class BitPolicy:
    """One bit-width per policy layer, in layer order: the policy is its bits.

    ``ModelGraph.layer_bitwidths`` checks them against a model.
    """

    bits: tuple[int, ...]

    def __len__(self):
        return len(self.bits)

    @classmethod
    def uniform(cls, b: int, length: int) -> "BitPolicy":
        return cls((b,) * length)


@dataclass(slots=True)
class LayerRecord:
    """One layer's part of a trace. ``frac_bits`` is a policy layer's F, its
    int64 headroom, ``degenerate`` whether a nonzero constant of its plan
    rounded to 0 even at that F, and ``sum_dtype`` the type a fc or conv sums
    its products in, all from its step; None where the layer has none.
    ``range_flagged`` is the layer's flag, at the call, that calibration
    widened a degenerate range."""

    index: int
    kind: str
    bitwidth: int
    counters: OpCounters
    sum_dtype: np.dtype | None = None
    frac_bits: int | None = None
    degenerate: bool | None = None
    range_flagged: bool = False


@dataclass
class ExecutionTrace:
    """What one inference did: per-layer precisions and op tallies.

    ``counters`` is the records' sum, taken when it is read, so it cannot
    disagree with them; ``counters.shifts`` is the transition count, one
    shift per element moved below the master width."""

    records: list[LayerRecord] = field(default_factory=list)
    # non-integer tensors between entry quantize and exit dequantize
    fp_tensor_ops: int = field(default=0, kw_only=True)

    @property
    def counters(self) -> OpCounters:
        return OpCounters.total(r.counters for r in self.records)

    def bitwidths(self) -> list[int]:
        return [r.bitwidth for r in self.records]


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int,
            pad_value: int, dtype: np.dtype) -> np.ndarray:
    """Unfold (B, C, H, W) into columns of receptive fields in ``dtype``.

    One column per output pixel, sample-major, then pixel-major; a column
    holds its field as a (C, k, k) weight flattens. Only H and W are padded.
    Each of the k^2 kernel offsets copies one strided slice of the input
    into its rows of the result, casting it to ``dtype``: the fields are
    unfolded and cast in one copy, and each slice lands as a contiguous block.
    """
    bsz, c, h, w = x.shape
    if padding:
        # np.full and a slice assignment: np.pad's wrapper costs five times as much
        padded = np.full((bsz, c, h + 2 * padding, w + 2 * padding), pad_value, dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    x = x.transpose(1, 0, 2, 3)  # (C, B, H, W)
    fields = np.empty((c, kernel, kernel, bsz, oh, ow), dtype)
    for i in range(kernel):
        for j in range(kernel):
            fields[:, i, j] = x[:, :, i:i + stride * (oh - 1) + 1:stride,
                                j:j + stride * (ow - 1) + 1:stride]
    return fields.reshape(c * kernel * kernel, bsz * oh * ow)


def exact_sum_dtype(bound: int) -> np.dtype:
    """The narrowest dtype in which non-negative integers summing to at most
    ``bound`` sum exactly.

    float32 holds every integer up to 2^24 and float64 every integer up to
    2^53. A sum of non-negative terms never has a partial sum above its
    total, so every partial sum, in any order and with or without a fused
    multiply-add, is such an integer, and no step rounds. Past 2^53, int64.
    A fc or conv's grid indices are non-negative, so a float GEMM is how the
    host evaluates their integer dot fast, not float quantization math.
    """
    if bound <= 1 << 24:
        return np.dtype(np.float32)
    if bound <= 1 << 53:
        return np.dtype(np.float64)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class LayerStep:
    """A policy layer's values at one bit-width b: everything a call needs but its shifts.

    A step is a cache, checked by identity. A policy layer builds its step at
    b on its first call at b and keeps it in ``LayerSpec.steps``, so it goes
    with the model. ``sources`` are the objects it was built from: the input
    grid, the branch grid (None without a branch), ``weight_q``, ``bias_q``
    and the output grid. A call takes the step only while its own objects
    are these very ones, else builds it anew; ``calibrate`` and
    ``load_model`` replace them all, and a NestedTensor's data is read-only,
    so a step is never stale. It caches no tensor: weights and activations
    are shifted down to b on every call, and the trace charges every such
    shift, since that shift is the transition the scheme prices.

    A call evaluates ``k . S + const`` over int64 sum rows S, the last row
    added to each of the others, with one weight per row in ``k``. A fc or
    conv's rows come from one GEMM against its b-bit weights with a row of
    ones appended: the product sum ``S1 = rows @ w_b.T`` of each output,
    weighted ``k1``, and the input's sum ``S2``, weighted ``k2``. A residual
    add's two rows are its two shifted operands, so its ``k`` is ``[[k1],
    [k2]]``. ``const`` is the additive constant c' with the rounding half
    2^(F-1) folded in: one int64 per output of a fc or conv, ``k3*sum_j
    w_b[o, j] + k4*q_b[o] + k5 + 2^(F-1)``, and the int ``k3 + 2^(F-1)`` of a
    residual add. That is the :func:`build_plan` expression reassociated.
    Every partial sum stays within the plan's ``linear_bound``, which counts
    the half, so the int64 expression is exact wherever the plan's proof
    holds, and that proof is its only guard.

    ``sum_dtype`` is the type a fc or conv sums its products in,
    :func:`exact_sum_dtype` of the dot's bound ``length * qmax_x * qmax_w``
    at b; a residual add runs no GEMM (None). ``pad`` is a padded conv's
    b-bit index of 0.0, else 0. ``shift`` is F, ``qmax`` and ``out_dtype``
    the output grid's qmax and storage dtype; ``k``, ``shift`` and ``qmax``
    are read-only int64 arrays (``quantize._read_only``). ``split`` = (rows,
    -1, columns) splits the rounded rows by sample and ``out_shape`` = (-1,)
    + the output shape shapes the batch. ``record`` is what the step computed
    for the call's :class:`LayerRecord`: :func:`layer_counters`,
    ``sum_dtype``, and the plan's F and ``degenerate`` flag.
    """

    sources: tuple
    const: np.ndarray | int
    pad: int
    sum_dtype: np.dtype | None
    k: np.ndarray
    shift: np.ndarray
    qmax: np.ndarray
    out_dtype: np.dtype
    split: tuple[int, int, int]
    out_shape: tuple[int, ...]
    record: tuple


@lru_cache(maxsize=1024)
def build_plan(kind: str, name: str, b: int, x_grid: QuantParams, other_grid: QuantParams,
               bias_grid: QuantParams | None, out_grid: QuantParams,
               length: int) -> IntOpConstants:
    """The constants of a policy layer's one expression at bit-width b, or a refusal.

    ``other_grid`` is the weight grid, or the residual branch's grid;
    ``bias_grid`` is None for a bias-free layer; ``length`` is the dot length.
    The result is what ``intops.add_constants`` or ``intops.dot_constants``
    returns on the b-bit grids, at the largest F its int64 proof allows.
    Refuses grids at different master widths (ValueError), since the layer
    would shift one operand from the wrong n, and names the layer in every
    refusal. Cached by value, so a recalibrated or reloaded model never reads
    a stale plan; a refusal is not cached.
    """
    widths = {g.master_bitwidth for g in (x_grid, other_grid, bias_grid, out_grid)
              if g is not None}
    if len(widths) > 1:
        raise ValueError(f"layer {name!r}: its grids are at master widths {sorted(widths)}")
    px, po = derive_params(x_grid, b), derive_params(other_grid, b)
    try:
        if kind == "residual_add":
            return add_constants(px, po, out_grid)
        return dot_constants(px, po, out_grid, length, bias_grid)
    except AccumulatorOverflowError as exc:
        raise AccumulatorOverflowError(f"layer {name!r}: {exc}") from None


@lru_cache(maxsize=1024)
def _pad_index(x_grid: QuantParams, b: int) -> int:
    """The b-bit index of 0.0 on master grid ``x_grid``: a padded conv's padding."""
    return int(quantize(np.float64(0.0), derive_params(x_grid, b)))


_NO_OPS = OpCounters()


def layer_counters(layer: LayerSpec, b: int, n: int, x_grid: QuantParams | None) -> OpCounters:
    """Primitives one call of ``layer`` at bit-width b under master width n runs.

    The one counting rule, from the layer's shapes, bias and input grid
    alone: ``run_layer`` charges it to the trace and ``cost.cost_report``
    sums it, so the two cannot disagree. A fc/conv runs its MAC loop per MAC
    (``intops.mac_loop`` of its input grid ``x_grid``) and, if biased, the
    bias term per output; a residual add runs the integer add per output and
    an average pool one add per input element it sums, the rows and columns
    its windows crop excluded. Below n a policy layer shifts each weight and
    input once.
    """
    if layer.kind == "avgpool":
        c, h, w = layer.input_shape
        p = layer.pool
        return OpCounters(adds=c * (h - h % p) * (w - w % p))
    if layer.kind not in POLICY_KINDS:
        return _NO_OPS
    outputs = math.prod(layer.output_shape)
    if layer.kind == "residual_add":
        ops = [(ADD_PRIMITIVES, outputs)]
    else:
        ops = [(MAC_PRIMITIVES[mac_loop(x_grid)], layer.mac_count())]
        if layer.bias_q is not None or layer.bias is not None:
            ops.append((BIAS_PRIMITIVES, outputs))
    return OpCounters(mults=sum(t["mul"] * c for t, c in ops),
                      adds=sum(t["add"] * c for t, c in ops),
                      shifts=layer.weight_elements() + layer.input_elements() if b < n else 0)


_ZERO = _read_only(0, np.int64)


def _requant(raw: np.ndarray, frac_bits, qmax, dtype: np.dtype) -> np.ndarray:
    """Floor shift by F, clipped onto an output grid's [0, qmax] in place.

    ``raw`` is a fresh int64 array, or a view of one, that already holds the
    rounding half 2^(F-1) (the step's ``const``) and may be overwritten; the
    result is a C-ordered array in ``dtype``, the grid's storage dtype.
    ``(v + 2^(F-1)) >> F`` stands in for ``rounding_right_shift(v, F)``
    (halves away from zero), and after the clip the two cannot differ: for
    v >= 0 they are the same expression, and for v < 0 both land at <= 0
    (v + 2^(F-1) < 2^F floors to <= 0), which the clip at 0 maps to 0. F
    and qmax may be read-only int64 arrays (a step's ``shift`` and ``qmax``).
    """
    if frac_bits:
        raw >>= frac_bits
    np.maximum(raw, _ZERO, out=raw)
    np.minimum(raw, qmax, out=raw)
    return raw.astype(dtype, order="C")


def _build_step(layer: LayerSpec, b: int, x_grid: QuantParams, branch: QuantParams | None,
                w: np.ndarray | None = None) -> LayerStep:
    """Compile the policy layer's step at b from this call's objects and keep it.

    ``branch`` is the grid of the call's branch, a residual add's other
    operand (None without one); ``w`` is a fc or conv layer's weights as
    this call shifted them to b, one row per output, from which the step
    takes its additive constant.
    """
    other_grid = branch if layer.kind == "residual_add" else layer.weight_q.params
    length = layer.weight_elements() // layer.output_shape[0]  # 0 for an add
    plan = build_plan(
        layer.kind, layer.name, b, x_grid, other_grid,
        layer.bias_q.params if layer.bias_q is not None else None, layer.output_params,
        length)
    k, half = plan.k, (1 << plan.frac_bits) >> 1
    if w is None:  # a residual add: one row of outputs
        const, dtype, rows = k[2] + half, None, 1
    else:
        bias = 0 if layer.bias_q is None else layer.bias_q.data.astype(np.int64)
        const = (k[2] * w.sum(axis=1, dtype=np.int64) + k[3] * bias + (k[4] + half))[:, None]
        top = (1 << b) - 1  # the qmax of both b-bit grids
        dtype, rows = exact_sum_dtype(length * top * top), len(w)
    pad = _pad_index(x_grid, b) if layer.kind == "conv2d" and layer.padding else 0
    step = LayerStep(
        (x_grid, branch, layer.weight_q, layer.bias_q, layer.output_params), const, pad, dtype,
        *(_read_only(v, np.int64) for v in (
            [[k[0]]] * rows + [[k[1]]], plan.frac_bits, layer.output_params.qmax)),
        storage_dtype(layer.output_params.bitwidth),
        (rows, -1, math.prod(layer.output_shape) // rows), (-1,) + layer.output_shape,
        (layer_counters(layer, b, x_grid.master_bitwidth, x_grid), dtype, plan.frac_bits,
         plan.degenerate))
    layer.steps[b] = step
    return step


def _run_elementwise(layer: LayerSpec, x: NestedTensor, n: int) -> NestedTensor:
    """A clamp, flatten or average pool of a batch, on ``x``'s grid.

    A clamp (``relu_pact``) runs no code and returns ``x`` itself: calibration
    gives the policy layer before it the clamp's [0, alpha] grid, whose clip
    is the clamp, ReLU included, and ``ModelGraph`` refuses graphs where that
    cannot hold. A flatten reshapes ``x``.
    """
    if layer.kind == "relu_pact":
        return x
    if layer.kind == "flatten":
        return NestedTensor.trusted(x.data.reshape((x.shape[0],) + layer.output_shape), x.params)
    # Same-grid integer mean per window, exact under a shared affine
    # grid: the p^2 strided slices of the windows sum into int64 that
    # starts at the rounding half, then one floor division.
    c, h, w = layer.input_shape
    p = layer.pool
    area = p * p
    sums = np.full((x.shape[0], c, h // p, w // p), area // 2, np.int64)
    for i in range(p):
        for j in range(p):
            sums += x.data[:, :, i:h - h % p:p, j:w - w % p:p]
    sums //= area
    return NestedTensor.trusted(sums.astype(storage_dtype(n)), x.params)


def run_layer(layer: LayerSpec, x: NestedTensor, b: int,
              aux: NestedTensor | None = None) -> tuple[NestedTensor, LayerRecord]:
    """Execute one layer at bit-width b on a batch, returning a master-width batch.

    ``x`` is a batch of samples shaped ``layer.input_shape`` on a leading
    axis, ``aux`` a residual add's other operand, shaped like ``x``. A policy
    layer shifts its weights and operands down to b, once for the whole
    batch, evaluates its step's expression (:class:`LayerStep`), the array
    form of ``intops.int_dot`` with its bias term or of ``intops.int_add``,
    and rounds it once onto its output grid. Any other layer runs on ``x``'s
    grid (:func:`_run_elementwise`). The record counts one sample's work; its
    kind, b and ``range_flagged`` are the call's, the rest its step's.

    Every call refuses, in this order: b above the master width, a batch of
    another shape (ShapeMismatchError); then, for a policy layer, an
    uncalibrated layer, a fc or conv without ``weight_q``, a residual add
    without its branch or with one of another shape (ShapeMismatchError).
    Only then is the step looked up, and built if it is missing or stale,
    which refuses what :func:`build_plan` refuses.
    """
    n = x.params.master_bitwidth
    if b > n:
        raise ValueError(f"policy bit-width {b} above master width {n}")
    if x.data.shape[1:] != layer.input_shape:
        raise ShapeMismatchError(
            f"layer {layer.name!r} expects a batch of {layer.input_shape}, got {x.shape}")
    if layer.kind not in POLICY_KINDS:
        return _run_elementwise(layer, x, n), LayerRecord(
            -1, layer.kind, b, layer_counters(layer, b, n, x.params),
            range_flagged=layer.range_flagged)
    if layer.output_params is None:
        raise ValueError(f"layer {layer.name!r} is not calibrated")
    if layer.kind == "residual_add":
        if aux is None:
            raise ValueError("residual_add needs the stored branch output")
        if aux.data.shape != x.data.shape:
            raise ShapeMismatchError(
                f"residual add {layer.name!r} joins {x.shape} and {aux.shape}")
    elif layer.weight_q is None:  # a fc or conv
        raise ValueError(f"layer {layer.name!r} has no quantized weights")
    branch = None if aux is None else aux.params
    step = layer.steps.get(b)
    if step is not None and not all(map(is_, step.sources, (
            x.params, branch, layer.weight_q, layer.bias_q, layer.output_params))):
        step = None
    # Tensors are stored as uint8/uint16, where the products would wrap, so
    # every sum row is int64 before a constant meets it: a residual add's
    # operands widen as they are copied into their rows, a GEMM's sums after
    # it runs in the step's sum_dtype; a conv input widens as it unfolds.
    xs = shift_down(x, n, b)
    if layer.kind == "residual_add":
        if step is None:
            step = _build_step(layer, b, x.params, branch)
        sums = np.empty((2, xs.size), np.int64)
        sums[0] = xs.reshape(-1)
        sums[1] = shift_down(aux, n, b).reshape(-1)
    else:
        # One row of weights per output feature or channel, then a row of
        # ones for the input's sum; the input unfolds into one column per
        # sample (fc) or per sample and output pixel (conv).
        w = shift_down(layer.weight_q, n, b).reshape(layer.output_shape[0], -1)
        if step is None:
            step = _build_step(layer, b, x.params, branch, w)
        w_ones = np.empty((len(w) + 1, w.shape[1]), step.sum_dtype)
        w_ones[:-1] = w
        w_ones[-1] = 1
        # the padding index is a b-bit index, so it fits the narrow dtype;
        # a fc's input widens inside the matmul
        fields = xs.reshape(-1, w.shape[1]).T if layer.kind == "fc" else _im2col(
            xs, layer.kernel, layer.stride, layer.padding, step.pad, step.sum_dtype)
        # exact in sum_dtype: integer sums within the step's proven bound
        sums = (w_ones @ fields).astype(np.int64, copy=False)
    sums *= step.k
    raw = sums[:-1]
    raw += sums[-1]
    raw += step.const
    # (rows, samples * columns) to (samples, rows, columns): a fc has one
    # column per sample, a residual add one row
    raw = raw.reshape(step.split).transpose(1, 0, 2)
    out = _requant(raw, step.shift, step.qmax, step.out_dtype).reshape(step.out_shape)
    return NestedTensor.trusted(out, layer.output_params), LayerRecord(
        -1, layer.kind, b, *step.record, layer.range_flagged)


def forward(model: ModelGraph, x: np.ndarray,
            policy: BitPolicy) -> tuple[np.ndarray, ExecutionTrace]:
    """Full inference: quantize once at the master width, run every layer,
    dequantize once.

    ``x`` is one sample shaped ``model.input_shape`` or a batch of them on a
    leading axis; the output has the same form. A single sample runs as a
    batch of one, so both forms run the same code, and a batch runs under
    one policy. Policy layers run at their policy bit-width; the others stay
    at the master width. The trace is one sample's inference, the same for
    every sample of a batch, and equals ``cost.cost_report`` for the policy:
    per-layer records of bit-widths and primitive-op tallies, shifts
    included, and the number of non-integer tensors seen at layer
    boundaries (``fp_tensor_ops``).
    """
    if not model.is_calibrated:
        raise ValueError("model is not calibrated")
    bits = model.layer_bitwidths(policy)
    x = np.asarray(x)
    single = x.shape == tuple(model.input_shape)
    # quantize clips onto its grid, so its result needs no range check
    t = NestedTensor.trusted(quantize(x[None] if single else x, model.input_params),
                             model.input_params)
    fp_tensor_ops = int(t.data.dtype.kind not in "iu")
    outputs: list[NestedTensor] = []
    records: list[LayerRecord] = []
    for i, (layer, b) in enumerate(zip(model.layers, bits)):
        t, record = run_layer(
            layer, t, b, outputs[layer.source] if layer.kind == "residual_add" else None)
        fp_tensor_ops += t.data.dtype.kind not in "iu"
        record.index = i
        records.append(record)
        outputs.append(t)
    if single:
        # squeezed before the dequantize, so the result owns its memory
        # rather than being a view that keeps a batch-of-one array alive
        t = NestedTensor.trusted(t.data[0], t.params)
    return dequantize(t, t.params), ExecutionTrace(records, fp_tensor_ops=fp_tensor_ops)
