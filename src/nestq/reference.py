"""Independent oracles: exact-rational requantization and fake-quant forward.

Nothing here shares code with the integer execution path; these routines exist
so the integer kernels can be checked against an implementation that computes
the "right answer" a different way.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from .calibration import float_layer
from .layers import POLICY_KINDS, BitPolicy, ModelGraph
from .quantize import QuantParams, derive_params, round_half_away, round_half_away_int


def exact_requantize(q: int, from_params: QuantParams, to_params: QuantParams) -> int:
    """Grid change in exact rational arithmetic: dequantize, requantize, clip."""
    x = Fraction(int(q)) * Fraction(from_params.scale) + Fraction(from_params.offset)
    idx = (x - Fraction(to_params.offset)) / Fraction(to_params.scale)
    return min(max(round_half_away_int(idx), 0), to_params.qmax)


def exact_nested_shift(q_n: int, n: int, b: int) -> int:
    """clip(round(q / 2^(n-b))) computed with exact rationals."""
    v = round_half_away_int(Fraction(int(q_n), 1 << (n - b)))
    return min(max(v, 0), (1 << b) - 1)


def _index(t: np.ndarray, grid: QuantParams) -> np.ndarray:
    """Each value's index on ``grid`` in float, rounded half away and clipped."""
    return np.clip(round_half_away((t - grid.offset) / grid.scale), 0, grid.qmax)


def fake_quantize(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize-dequantize round trip in float: the QAT precision simulation."""
    return _index(x, params) * params.scale + params.offset


def nested_move(t: np.ndarray, grid: QuantParams, b: int) -> np.ndarray:
    """Values on master grid ``grid`` moved to its nested grid at b, in float.

    Recovers each master index q (rounding half away, clipping), then takes
    floor(q / 2^(n-b) + 1/2) clipped at 2^b - 1: the division by a power of two
    is exact, so a tie rounds up, where requantizing the value would divide by
    the derived step and could land just below it.
    """
    q = _index(t, grid)
    q_b = np.minimum(np.floor(q / float(1 << (grid.master_bitwidth - b)) + 0.5), (1 << b) - 1)
    derived = derive_params(grid, b)
    return q_b * derived.scale + derived.offset


def fake_quant_forward(model: ModelGraph, x: np.ndarray,
                       policy: BitPolicy) -> np.ndarray:
    """Float forward with per-tensor fake quantization at the policy bit-widths.

    Mirrors the integer pipeline's structure (weights and activations at the
    policy width, outputs on the calibrated master grid) while computing
    everything in float; an average pool's mean rounds onto its input's grid,
    as the integer pool's does. Batch on the leading axis.
    """
    bits = model.layer_bitwidths(policy)
    t = fake_quantize(np.asarray(x, dtype=np.float64), model.input_params)
    # Hold only the outputs a later residual edge reads; batches can be large.
    sources = {l.source for l in model.layers if l.kind == "residual_add"}
    outputs = {}
    for i, (layer, b) in enumerate(zip(model.layers, bits)):
        if layer.kind in POLICY_KINDS:  # the input enters at b
            t = nested_move(t, model.output_grid(i - 1), b)
        if layer.kind in ("fc", "conv2d"):
            pw = layer.weight_q.params
            w_master = np.asarray(layer.weight_q.data, dtype=np.float64) * pw.scale + pw.offset
            shadow = replace(layer, weight=nested_move(w_master, pw, b))
            if layer.bias_q is not None:
                pb = layer.bias_q.params
                shadow.bias = np.asarray(layer.bias_q.data, dtype=np.float64) \
                    * pb.scale + pb.offset
            t = fake_quantize(float_layer(shadow, t), layer.output_params)
        elif layer.kind == "residual_add":
            aux = nested_move(outputs[layer.source], model.output_grid(layer.source), b)
            t = fake_quantize(t + aux, layer.output_params)
        elif layer.kind == "avgpool":
            # the window mean of the input's indices, rounded half up onto that
            # grid as the integer pool rounds it: floor(mean + 1/2) equals
            # (sum + area // 2) // area for every integer window sum
            grid = model.output_grid(i - 1)
            t = np.floor(float_layer(layer, _index(t, grid)) + 0.5) * grid.scale + grid.offset
        else:
            t = float_layer(layer, t)
        if i in sources:
            outputs[i] = t
    return t


def enumerate_macs(model: ModelGraph) -> list[int]:
    """Brute-force MAC enumeration: walk every output element of every layer.

    Deliberately structured as an element walk rather than a closed-form
    product so it can serve as the oracle for the cost model.
    """
    counts = []
    for idx in model.policy_indices:
        layer = model.layers[idx]
        total = 0
        if layer.kind == "fc":
            for _ in range(layer.out_features):
                total += layer.in_features
        elif layer.kind == "conv2d":
            _, oh, ow = layer.output_shape
            for _ in range(layer.out_channels):
                for _ in range(oh):
                    for _ in range(ow):
                        total += layer.kernel * layer.kernel * layer.in_channels
        counts.append(total)
    return counts
