"""Every policy layer against an exact-rational oracle, at every master width.

Fed the engine's own integer input at b, the oracle takes each output's
exact value on its output grid from the layer's plan (``exact_value``, the
unrounded ratios) and the bound on the engine's deviation from it
(``op_error_bound`` at the output's own terms). Wherever the exact value lies
farther than that bound from a rounding tie, the engine's output must be the
exact value rounded half up and clipped: this checks each layer on its own,
where the fake-quant oracle's one-step sweep checks the whole model.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import DATA_SEED, MLP_SEED, build_block
from nestq.analysis import exact_value, op_error_bound
from nestq.calibration import calibrate
from nestq.intops import raw
from nestq.layers import POLICY_KINDS, BitPolicy, build_plan, run_layer
from nestq.models import build_toy_cnn, build_toy_mlp, cnn_dataset, make_blob_dataset
from nestq.quantize import (
    MAX_BITWIDTH, MIN_BITWIDTH, NestedTensor, derive_params, quantize, shift_down,
)

SAMPLES = 3
HALF = Fraction(1, 2)


def model_at(arch: str, n: int):
    """``arch`` at master width n, calibrated, and a few samples it has not seen."""
    if arch == "mlp":
        x, _, means = make_blob_dataset(DATA_SEED, samples=400)
        model = build_toy_mlp(seed=MLP_SEED, n=n, means=means)
    else:
        x, _ = cnn_dataset(5, samples=100)
        model = build_toy_cnn(seed=11, n=n) if arch == "cnn" else build_block(n)
    calibrate(model, [x[:-SAMPLES]])
    return model, x[-SAMPLES:]


def layer_terms(layer, x_grid, xs: np.ndarray, aux: np.ndarray | None, b: int):
    """Per output, sample-major, the Python-int terms of ``layer``'s plan at b,
    from its b-bit input ``xs`` on master grid ``x_grid`` (and its branch
    ``aux``), computed apart from the engine."""
    n = x_grid.master_bitwidth
    if layer.kind == "residual_add":
        return list(zip(xs.reshape(-1).tolist(), aux.reshape(-1).tolist()))
    w = shift_down(layer.weight_q, n, b).astype(np.int64).reshape(layer.output_shape[0], -1)
    bias = [0] * len(w) if layer.bias_q is None else layer.bias_q.data.tolist()
    if layer.kind == "fc":
        fields = xs.reshape(len(xs), 1, -1)  # (samples, pixels, length)
    else:
        pad = layer.padding
        zero = int(quantize(np.float64(0.0), derive_params(x_grid, b)))
        xp = np.pad(xs, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=zero)
        win = sliding_window_view(xp, (layer.kernel, layer.kernel), axis=(2, 3))
        win = win[:, :, ::layer.stride, ::layer.stride]  # (s, C, OH, OW, k, k)
        fields = win.transpose(0, 2, 3, 1, 4, 5).reshape(len(xs), -1, w.shape[1])
    fields = fields.astype(np.int64)
    s_xw = np.einsum("spl,ol->sop", fields, w)  # outputs in (channel, pixel) order
    s_x = np.broadcast_to(fields.sum(axis=2)[:, None, :], s_xw.shape)
    s_w = np.broadcast_to(w.sum(axis=1)[None, :, None], s_xw.shape)
    q_b = np.broadcast_to(np.array(bias, np.int64)[None, :, None], s_xw.shape)
    return list(zip(*(a.reshape(-1).tolist() for a in (s_xw, s_x, s_w, q_b))))


def check_layers(arch: str, n: int, rng) -> tuple[int, int, Fraction]:
    """Run ``arch`` at n under a seeded policy and check every policy layer on
    its own input: (outputs checked, outputs near a tie, largest deviation in
    output steps of the engine's pre-rounding value from the exact one).
    Asserts each deviation within its bound, as well."""
    model, x = model_at(arch, n)
    bits = model.layer_bitwidths(BitPolicy(tuple(
        int(b) for b in rng.integers(MIN_BITWIDTH, n + 1, model.num_policy_layers))))
    t = NestedTensor.trusted(quantize(x, model.input_params), model.input_params)
    outputs, checked, near, worst = [], 0, 0, Fraction(0)
    for i, (layer, b) in enumerate(zip(model.layers, bits)):
        aux = outputs[layer.source] if layer.kind == "residual_add" else None
        y, _ = run_layer(layer, t, b, aux)
        if layer.kind in POLICY_KINDS:
            x_grid, out = t.params, layer.output_params
            other = aux.params if aux is not None else layer.weight_q.params
            bias = layer.bias_q.params if layer.bias_q is not None else None
            plan = build_plan(layer.kind, layer.name, b, x_grid, other, bias, out,
                              layer.weight_elements() // layer.output_shape[0])
            xs = shift_down(t, n, b).astype(np.int64)
            branch = None if aux is None else shift_down(aux, n, b).astype(np.int64)
            got = y.data.reshape(-1).tolist()
            for q, terms in zip(got, layer_terms(layer, x_grid, xs, branch, b), strict=True):
                exact = exact_value(plan, terms)
                bound = op_error_bound(plan, terms).bound
                deviation = abs(Fraction(raw(plan, terms), 1 << plan.frac_bits) - exact)
                assert deviation <= bound, (arch, n, bits, layer.name, terms)
                worst = max(worst, deviation)
                checked += 1
                # floor(v + 1/2) steps at the ties v = m + 1/2
                above = exact - HALF - math.floor(exact - HALF)
                if min(above, 1 - above) <= bound:
                    near += 1
                    continue
                want = min(max(math.floor(exact + HALF), 0), out.qmax)
                assert q == want, (arch, n, bits, layer.name, terms)
        outputs.append(y)
        t = y
    return checked, near, worst


@pytest.mark.parametrize("arch", ["mlp", "cnn", "block"])
def test_every_policy_layer_matches_its_exact_oracle(arch):
    """Every n in 2..16, each under its own seeded policy; every output is
    checked or counted near a tie, and the engine stays within the bound."""
    rng = np.random.default_rng(2024)
    for n in range(MIN_BITWIDTH, MAX_BITWIDTH + 1):
        checked, near, _ = check_layers(arch, n, rng)
        assert checked > 0 and near <= checked // 100, (arch, n, near, checked)
