"""Range calibration: weight min/max, activation clamp bounds, EMA output ranges.

Calibration runs the float model over a dataset, tracks every layer's output
range with an exponential moving average, picks each activation clamp from a
high percentile of observed values, and then freezes all master grids and
quantizes the weights. A MAC layer's bias has its own grid but its result does
not: the integer path adds the bias inside the dot and rounds once, onto the
output grid. Each grid is set once, where it is stored: a fc, conv2d or
residual_add's output grid is the [0, alpha] grid of a clamp after it, else its
widened EMA range; other layers keep their input grid and store none. The
clamp is that grid alone and runs no code. A padded conv pads with 0.0, so
every grid one reads, the model input's or a policy layer's, holds 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .layers import POLICY_KINDS, LayerSpec, ModelGraph
from .quantize import DegenerateRangeError, NestedTensor, QuantParams, make_master_params, quantize

DEFAULT_EMA_MOMENTUM = 0.9
ALPHA_PERCENTILE = 99.9

# Widening applied to a zero-width range: relative to the larger bound, floored.
DEGENERATE_REL_EPS = 2.0 ** -10
DEGENERATE_ABS_EPS = 1e-6


@dataclass(frozen=True)
class RangeState:
    """Running min/max of one layer's output under EMA tracking."""

    y_min: float = 0.0
    y_max: float = 0.0
    momentum: float = DEFAULT_EMA_MOMENTUM
    steps: int = 0


def ema_update(state: RangeState, batch_min: float, batch_max: float) -> RangeState:
    """Blend a batch's extrema into the running range; first batch initializes."""
    if batch_min > batch_max:
        raise ValueError(f"batch_min {batch_min} > batch_max {batch_max}")
    if state.steps == 0:
        return replace(state, y_min=batch_min, y_max=batch_max, steps=1)
    g = state.momentum
    return replace(
        state,
        y_min=g * state.y_min + (1 - g) * batch_min,
        y_max=g * state.y_max + (1 - g) * batch_max,
        steps=state.steps + 1,
    )


def _widened(lo: float, hi: float, zero: bool = False) -> tuple[float, float, bool]:
    """[lo, hi], extended to 0.0 if ``zero``, widened if empty; and whether widened."""
    if zero:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    if hi > lo:
        return lo, hi, False
    eps = max(DEGENERATE_REL_EPS * max(abs(lo), abs(hi)), DEGENERATE_ABS_EPS)
    return lo - eps, hi + eps, True


def quantize_weights(layer: LayerSpec, n: int) -> bool:
    """Quantize a MAC layer's weight and bias onto grids fixed by their min/max.

    Each grid is stored only on its tensor, which is read-only, as every
    NestedTensor is: a layer's compiled steps hold constants derived from it.
    Returns True if either range was degenerate and had to be widened.
    """
    flagged = False
    for attr in ("weight", "bias"):
        t = getattr(layer, attr)
        if t is None:
            continue
        lo, hi, widened = _widened(float(t.min()), float(t.max()))
        params = make_master_params(lo, hi, n)
        setattr(layer, attr + "_q", NestedTensor(data=quantize(t, params), params=params))
        flagged |= widened
    return flagged


def clamp_grid(clamp: LayerSpec, n: int) -> QuantParams | None:
    """A clamp's [0, alpha] grid, its producer's output grid; None while alpha is unset."""
    return None if clamp.alpha is None else make_master_params(0.0, clamp.alpha, n)


def float_layer(layer: LayerSpec, x: np.ndarray,
                aux: np.ndarray | None = None) -> np.ndarray:
    """Reference float evaluation of one layer on a batch (leading batch axis)."""
    if layer.kind == "fc":
        w = layer.weight.reshape(layer.out_features, layer.in_features)
        y = x.reshape(x.shape[0], -1) @ w.T
        if layer.bias is not None:
            y = y + layer.bias
        return y
    if layer.kind == "conv2d":
        k, s, p = layer.kernel, layer.stride, layer.padding
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        _, c, h, w_ = x.shape
        oh = (h - k) // s + 1
        ow = (w_ - k) // s + 1
        out = np.empty((x.shape[0], layer.out_channels, oh, ow))
        wmat = layer.weight.reshape(layer.out_channels, -1)
        for i in range(oh):
            for j in range(ow):
                patch = x[:, :, i * s:i * s + k, j * s:j * s + k].reshape(x.shape[0], -1)
                out[:, :, i, j] = patch @ wmat.T
        if layer.bias is not None:
            out += layer.bias.reshape(1, -1, 1, 1)
        return out
    if layer.kind == "relu_pact":
        return np.clip(x, 0.0, layer.alpha)
    if layer.kind == "residual_add":
        return x + aux
    if layer.kind == "avgpool":
        p = layer.pool
        b, c, h, w_ = x.shape
        return x[:, :, :h - h % p, :w_ - w_ % p] \
            .reshape(b, c, h // p, p, w_ // p, p).mean(axis=(3, 5))
    return x.reshape(x.shape[0], -1)  # flatten


def float_forward(model: ModelGraph, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer float outputs for a batch; used by calibration and oracles."""
    outputs = []
    t = x
    for layer in model.layers:
        t = float_layer(layer, t, outputs[layer.source] if layer.kind == "residual_add" else None)
        outputs.append(t)
    return outputs


def calibrate(model: ModelGraph, batches: list[np.ndarray],
              momentum: float = DEFAULT_EMA_MOMENTUM) -> ModelGraph:
    """Freeze all master grids from data and quantize the weights.

    Weight and bias grids come from exact tensor min/max. Activation clamps are
    set to the observed high percentile of pre-clamp values, giving each
    activation a zero-offset [0, alpha] grid. Output grids come from the final
    EMA range; a fc, conv2d or residual_add feeding a clamp adopts the clamp's
    grid so its own clipping realizes the clamp. An input or EMA range that a
    padded conv reads is extended to hold 0.0, its padding. Recalibrating
    discards the clamps and range flags of any earlier calibration.

    Every batch is one EMA step, in order; to make k passes over the data,
    pass ``batches * k``. Before it changes the model, refuses no sample or
    an empty batch (ValueError), and a batch, or a fc or conv's float weight
    or bias, holding NaN or ±inf (DegenerateRangeError).
    """
    if not batches or min(map(np.size, batches)) == 0:
        raise ValueError("no calibration samples: every batch needs at least one")
    floats = [(f"calibration batch {i}", batch) for i, batch in enumerate(batches)]
    floats += [(f"{layer.kind} {layer.name!r} {attr}", getattr(layer, attr))
               for layer in model.layers if layer.has_weights for attr in ("weight", "bias")]
    for what, t in floats:
        if t is not None and not np.isfinite(t).all():
            raise DegenerateRangeError(f"{what} holds NaN or ±inf")
    n = model.master_bitwidth
    padded = {model.grid_owner(i - 1) for i, layer in enumerate(model.layers)
              if layer.kind == "conv2d" and layer.padding}  # the grids padded convs read
    states = [RangeState(momentum=momentum) for _ in model.layers]
    act_values: list[list[np.ndarray]] = [[] for _ in model.layers]
    # The float pass clamps at any alpha already set, so reset before it runs.
    for layer in model.layers:
        layer.range_flagged = False
        if layer.kind == "relu_pact":
            layer.alpha = None

    for batch in batches:
        # alpha is unset, so a clamp's output is the ReLU of its input
        for i, y in enumerate(float_forward(model, batch)):
            if model.layers[i].kind == "relu_pact":
                act_values[i].append(y.reshape(-1))
            states[i] = ema_update(states[i], float(y.min()), float(y.max()))

    # Non-negative data gets a zero-offset input grid; the factored MAC loop
    # needs m = 0 on activations.
    data_min = min(float(batch.min()) for batch in batches)
    data_max = max(float(batch.max()) for batch in batches)
    lo, hi, _ = _widened(min(0.0, data_min), data_max, -1 in padded)
    model.input_params = make_master_params(lo, hi, n)

    for i, layer in enumerate(model.layers):
        if layer.has_weights:
            layer.range_flagged |= quantize_weights(layer, n)
        nxt = model.layers[i + 1] if i + 1 < len(model.layers) else None
        if nxt is not None and nxt.kind == "relu_pact":
            # ModelGraph puts every clamp right after a policy layer, so each gets its bound here.
            alpha = float(np.percentile(np.concatenate(act_values[i + 1]), ALPHA_PERCENTILE))
            nxt.alpha = alpha if alpha > 0 else DEGENERATE_ABS_EPS
            layer.output_params = clamp_grid(nxt, n)
        elif layer.kind in POLICY_KINDS:
            lo, hi, f = _widened(states[i].y_min, states[i].y_max, i in padded)
            layer.range_flagged |= f
            layer.output_params = make_master_params(lo, hi, n)
    return model
