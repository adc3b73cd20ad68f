"""Layer execution: integer dataflow, traces, clamps."""

import itertools
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import constants_at
from nestq import layers
from nestq.calibration import calibrate, float_forward, quantize_weights
from nestq.cost import cost_report
from nestq.intops import (
    INT64_MAX,
    AccumulatorOverflowError,
    OpCounters,
    add_constants,
    dot_constants,
    int_add,
    int_dot,
    int_dot_pact,
    linear_bound,
)
from nestq.layers import (
    POLICY_KINDS,
    BitPolicy,
    ExecutionTrace,
    LayerRecord,
    LayerSpec,
    ModelGraph,
    ShapeMismatchError,
    build_plan,
    forward,
    run_layer,
)
from nestq.models import build_toy_cnn, build_toy_mlp
from nestq.quantize import (
    NestedTensor,
    QuantParams,
    dequantize,
    derive_params,
    make_master_params,
    quantize,
    rounding_right_shift,
    shift_down,
    storage_dtype,
)


def unit_params(n=8):
    return QuantParams(scale=1.0, offset=0.0, bitwidth=n, master_bitwidth=n)


def identity_fc(out_grid=None):
    p = unit_params()
    layer = LayerSpec(kind="fc", name="id", in_features=1, out_features=1,
                      weight=np.array([[1.0]]))
    layer.weight_q = NestedTensor(data=np.array([[1]]), params=p)
    layer.output_params = out_grid or p
    layer.input_shape = (1,)
    layer.output_shape = (1,)
    return layer


class TestRunLayer:
    def test_identity_fc_full_width(self):
        layer = identity_fc()
        x = NestedTensor(data=np.array([[123]]), params=unit_params())
        out, record = run_layer(layer, x, 8)
        assert out.data[0, 0] == 123
        assert record.counters.shifts == 0

    def test_two_input_sum_exact(self):
        p = unit_params()
        layer = LayerSpec(kind="fc", name="sum", in_features=2, out_features=1,
                          weight=np.array([[1.0, 1.0]]))
        layer.weight_q = NestedTensor(data=np.array([[1, 1]]), params=p)
        layer.output_params = p
        layer.input_shape = (2,)
        layer.output_shape = (1,)
        x = NestedTensor(data=np.array([[1, 2]]), params=p)
        out, _ = run_layer(layer, x, 8)
        assert dequantize(out.data, p)[0, 0] == 3.0

    def test_low_bitwidth_shifts_weights_and_input(self):
        layer = identity_fc()
        x = NestedTensor(data=np.array([[123]]), params=unit_params())
        _, record = run_layer(layer, x, 4)
        assert record.counters.shifts == 2  # one weight + one input element

    def test_rejects_policy_above_master(self):
        layer = identity_fc()
        x = NestedTensor(data=np.array([[1]]), params=unit_params())
        with pytest.raises(ValueError):
            run_layer(layer, x, 9)

    def test_rejects_shape_mismatch(self):
        layer = identity_fc()
        x = NestedTensor(data=np.array([[1, 2]]), params=unit_params())
        with pytest.raises(ShapeMismatchError):
            run_layer(layer, x, 8)

    def test_uncalibrated_layer_rejected(self):
        layer = LayerSpec(kind="fc", in_features=1, out_features=1)
        layer.input_shape = (1,)
        x = NestedTensor(data=np.array([[1]]), params=unit_params())
        with pytest.raises(ValueError):
            run_layer(layer, x, 8)

    @pytest.mark.parametrize("kind, match", [
        ("fc", "has no quantized weights"),
        ("conv2d", "has no quantized weights"),
        ("residual_add", "needs the stored branch output"),
    ])
    def test_calibrated_layer_without_its_operand_rejected(self, kind, match):
        layer = LayerSpec(kind=kind, name="l", in_features=1, out_features=1,
                          in_channels=1, out_channels=1, kernel=1, source=0)
        layer.input_shape = layer.output_shape = (1, 1, 1) if kind == "conv2d" else (1,)
        layer.output_params = unit_params()
        x = NestedTensor(data=np.ones((1,) + layer.input_shape, np.uint8), params=unit_params())
        with pytest.raises(ValueError, match=match):
            run_layer(layer, x, 8)


def sum_fc(n=8):
    """A fc summing two inputs on unit grids at master width n."""
    p = unit_params(n)
    layer = LayerSpec(kind="fc", name="sum", in_features=2, out_features=1,
                      weight=np.ones((1, 2)))
    layer.weight_q = NestedTensor(data=np.array([[1, 1]]), params=p)
    layer.output_params = p
    layer.input_shape, layer.output_shape = (2,), (1,)
    return layer


def unit_skip():
    """A residual add of two 2-vectors on unit grids."""
    layer = LayerSpec(kind="residual_add", name="skip", source=0)
    layer.input_shape = layer.output_shape = (2,)
    layer.output_params = unit_params()
    return layer


def ones(n=8, shape=(1, 2)):
    """A batch of ones on a new unit grid at master width n."""
    return NestedTensor(data=np.ones(shape, np.uint8), params=unit_params(n))


# Each refusal run_layer makes: the layer, the bit-width, a call that builds
# its step there, what then changes, the refused call and its error.
REFUSALS = {
    "b above n": (lambda: sum_fc(12), 9, lambda l: run_layer(l, ones(12), 9),
                  lambda l: None, lambda l: run_layer(l, ones(8), 9), ValueError),
    "uncalibrated": (sum_fc, 8, lambda l: run_layer(l, ones(), 8),
                     lambda l: setattr(l, "output_params", None),
                     lambda l: run_layer(l, ones(), 8), ValueError),
    "no weight_q": (sum_fc, 8, lambda l: run_layer(l, ones(), 8),
                    lambda l: setattr(l, "weight_q", None),
                    lambda l: run_layer(l, ones(), 8), ValueError),
    "mixed master widths": (sum_fc, 8, lambda l: run_layer(l, ones(), 8),
                            lambda l: setattr(l, "weight_q", NestedTensor(
                                data=np.array([[1, 1]]), params=unit_params(12))),
                            lambda l: run_layer(l, ones(), 8), ValueError),
    "no branch": (unit_skip, 8, lambda l: run_layer(l, ones(), 8, aux=ones()),
                  lambda l: None, lambda l: run_layer(l, ones(), 8), ValueError),
    "misshapen branch": (unit_skip, 8, lambda l: run_layer(l, ones(), 8, aux=ones()),
                         lambda l: None,
                         lambda l: run_layer(l, ones(), 8, aux=ones(shape=(1, 3))),
                         ShapeMismatchError),
    "misshapen batch": (sum_fc, 8, lambda l: run_layer(l, ones(), 8), lambda l: None,
                        lambda l: run_layer(l, ones(shape=(1, 3)), 8), ShapeMismatchError),
}


# Two refusals at once: the layer, what then changes, the refused call, and
# the error type and message of the one that comes first in run_layer's order.
REFUSAL_ORDER = {
    "b above n, misshapen batch": (sum_fc, lambda l: None,
                                   lambda l: run_layer(l, ones(shape=(1, 3)), 9),
                                   ValueError, "above master width"),
    "uncalibrated, no branch": (unit_skip, lambda l: setattr(l, "output_params", None),
                                lambda l: run_layer(l, ones(), 8), ValueError,
                                "is not calibrated"),
    "misshapen batch, no weight_q": (sum_fc, lambda l: setattr(l, "weight_q", None),
                                     lambda l: run_layer(l, ones(shape=(1, 3)), 8),
                                     ShapeMismatchError, "expects a batch"),
}


class TestWarmCallContract:
    """A step is a cache: every call runs every refusal, in one order, whether
    or not its layer holds a step, and a step built from other objects is
    never taken."""

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_cold_and_after_a_step_from_other_objects(self, case):
        make, b, build, change, refused, error = REFUSALS[case]
        cold = make()
        change(cold)
        with pytest.raises(error):
            refused(cold)
        assert b not in cold.steps
        warm = make()
        build(warm)
        step = warm.steps[b]
        change(warm)
        for _ in range(2):
            with pytest.raises(error):
                refused(warm)
        assert warm.steps[b] is step  # a refused call builds no step

    @pytest.mark.parametrize("prior", [None, 4])
    @pytest.mark.parametrize("case", REFUSAL_ORDER)
    def test_first_refusal_in_order_wins(self, case, prior):
        """On a fresh layer, and on one holding a step at another b."""
        make, change, refused, error, match = REFUSAL_ORDER[case]
        layer = make()
        if prior is not None:
            run_layer(layer, ones(), prior, aux=ones() if layer.kind == "residual_add" else None)
            assert list(layer.steps) == [prior]
        change(layer)
        with pytest.raises(ValueError, match=match) as info:
            refused(layer)
        assert info.type is error

    def test_warm_call_with_a_misshapen_batch_refused(self):
        layer, x = sum_fc(), ones()
        run_layer(layer, x, 4)
        step = layer.steps[4]
        wide = NestedTensor.trusted(np.ones((1, 3), np.uint8), x.params)
        with pytest.raises(ShapeMismatchError):
            run_layer(layer, wide, 4)
        skip, aux = unit_skip(), ones()
        run_layer(skip, x, 4, aux=aux)
        with pytest.raises(ShapeMismatchError):
            run_layer(skip, x, 4, aux=NestedTensor.trusted(np.ones((2, 2), np.uint8), aux.params))
        assert layer.steps[4] is step
        # the same objects and shapes again: warm, and the same result
        assert run_layer(layer, x, 4)[0].data.tolist() == [[0]]  # at b = 4 each 1 shifts to 0

    def test_clamp_returns_its_input_object(self, mlp, blob_data):
        policy = BitPolicy((8, 4, 6))
        x = NestedTensor(data=quantize(blob_data[0][:3], mlp.input_params),
                         params=mlp.input_params)
        y, _ = run_layer(mlp.layers[0], x, 8)
        z, record = run_layer(mlp.layers[1], y, 8)
        assert z is y
        assert (record.kind, record.bitwidth, record.counters) == ("relu_pact", 8, OpCounters())
        _, trace = forward(mlp, blob_data[0][0], policy)
        assert [r.kind for r in trace.records] == [l.kind for l in mlp.layers]
        assert [r.index for r in trace.records] == list(range(len(mlp.layers)))


class TestRangeFlaggedRecord:
    def test_a_flagged_layer_is_recorded(self):
        """Constant weights: calibration widens their range and flags the layer;
        its record says so, and the unflagged layers' say not."""
        layers_ = [LayerSpec(kind="fc", name="flat", in_features=2, out_features=2,
                             weight=np.full((2, 2), 0.5)),
                   LayerSpec(kind="relu_pact", name="act"),
                   LayerSpec(kind="fc", name="head", in_features=2, out_features=2,
                             weight=np.array([[1.0, -1.0], [0.5, 2.0]]))]
        model = ModelGraph(layers=layers_, input_shape=(2,))
        calibrate(model, [np.random.default_rng(0).uniform(0, 1, (32, 2))])
        assert [l.range_flagged for l in model.layers] == [True, False, False]
        for policy in (BitPolicy((8, 8)), BitPolicy((4, 6))):
            _, trace = forward(model, np.array([0.2, 0.7]), policy)
            assert [r.range_flagged for r in trace.records] == [True, False, False]
            assert trace.records[0].range_flagged is True
        # recalibration clears the flag, and the next call's records read it
        model.layers[0].weight = np.array([[0.5, 1.0], [0.0, 0.25]])
        calibrate(model, [np.random.default_rng(0).uniform(0, 1, (32, 2))])
        _, trace = forward(model, np.array([0.2, 0.7]), BitPolicy((8, 8)))
        assert [r.range_flagged for r in trace.records] == [False, False, False]

    def test_the_record_reads_the_flag_at_the_call(self, make_block):
        """A flag set on a layer that already holds a step shows in the next
        record, a policy layer's as any other's: a record takes the flag from
        the call, never from when the step was built."""
        model = make_block()
        x, policy = np.zeros(model.input_shape), BitPolicy.uniform(4, model.num_policy_layers)
        forward(model, x, policy)
        steps = [layer.steps.get(4) for layer in model.layers]
        for layer in model.layers:
            layer.range_flagged = True
        _, trace = forward(model, x, policy)
        assert [r.range_flagged for r in trace.records] == [True] * len(model.layers)
        # the warm steps ran: the flag rebuilt none of them
        assert [layer.steps.get(4) for layer in model.layers] == steps


class TestModelGraph:
    def test_shape_inference_and_policy_indices(self, cnn):
        assert cnn.layers[0].output_shape == (4, 8, 8)
        assert cnn.layers[2].output_shape == (8, 4, 4)
        assert cnn.policy_indices == [0, 2, 5]

    def test_fc_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ModelGraph(layers=[LayerSpec(kind="fc", in_features=5, out_features=2)],
                       input_shape=(4,))

    def test_residual_edge_must_point_backwards(self):
        with pytest.raises(ValueError):
            ModelGraph(layers=[LayerSpec(kind="residual_add", source=0)],
                       input_shape=(4,))

    def test_residual_shape_checked(self):
        layers = [
            LayerSpec(kind="fc", in_features=4, out_features=3),
            LayerSpec(kind="residual_add", source=0),
        ]
        g = ModelGraph(layers=layers, input_shape=(4,))
        assert g.layers[1].output_shape == (3,)
        bad = [
            LayerSpec(kind="fc", in_features=4, out_features=3),
            LayerSpec(kind="fc", in_features=3, out_features=2),
            LayerSpec(kind="residual_add", source=0),
        ]
        with pytest.raises(ShapeMismatchError):
            ModelGraph(layers=bad, input_shape=(4,))

    @pytest.mark.parametrize("n", [0, 1, 17, 40, 8.0])
    def test_master_width_outside_2_to_16_or_not_an_int_refused(self, n):
        from conftest import build_block
        builders = [lambda: ModelGraph(layers=[LayerSpec(kind="fc", in_features=4,
                                                         out_features=2)],
                                       input_shape=(4,), master_bitwidth=n),
                    lambda: build_toy_mlp(n=n), lambda: build_toy_cnn(n=n),
                    lambda: build_block(n)]
        for build in builders:
            with pytest.raises(ValueError, match=rf"^master bit-width {n!r} outside \[2, 16\]$"):
                build()

    @pytest.mark.parametrize("n", range(2, 17))
    def test_every_supported_master_width_builds(self, n):
        from conftest import build_block
        for build in (build_toy_mlp, build_toy_cnn, build_block):
            assert build(n=n).master_bitwidth == n


def conv_spec(cin=1, cout=2, **kw):
    return LayerSpec(kind="conv2d", in_channels=cin, out_channels=cout,
                     **{"kernel": 3, "padding": 1, **kw})


class TestGraphRefusals:
    """Graphs the integer path cannot run as written are refused when built."""

    @pytest.mark.parametrize("before", [
        [],
        [LayerSpec(kind="avgpool", pool=2)],
        [LayerSpec(kind="flatten")],
        [LayerSpec(kind="conv2d", in_channels=1, out_channels=1, kernel=1),
         LayerSpec(kind="relu_pact")],
    ], ids=["first", "after-pool", "after-flatten", "after-clamp"])
    def test_clamp_must_follow_a_policy_layer(self, before):
        with pytest.raises(ValueError, match="clamp at layer"):
            ModelGraph(layers=before + [LayerSpec(kind="relu_pact")], input_shape=(1, 4, 4))

    def test_clamp_after_each_policy_kind_accepted(self):
        g = ModelGraph(layers=[
            LayerSpec(kind="fc", in_features=4, out_features=4),
            LayerSpec(kind="relu_pact"),
            LayerSpec(kind="fc", in_features=4, out_features=4),
            LayerSpec(kind="residual_add", source=1),
            LayerSpec(kind="relu_pact"),
        ], input_shape=(4,))
        assert g.layers[4].output_shape == (4,)
        ModelGraph(layers=[conv_spec(), LayerSpec(kind="relu_pact")], input_shape=(1, 4, 4))

    def test_residual_edge_from_a_clamps_producer_refused(self):
        layers = [
            conv_spec(),
            LayerSpec(kind="relu_pact"),
            conv_spec(2, 2),
            LayerSpec(kind="residual_add", source=0),
        ]
        with pytest.raises(ValueError, match="clamp's producer"):
            ModelGraph(layers=layers, input_shape=(1, 4, 4))
        layers[3] = LayerSpec(kind="residual_add", source=1)  # the clamp itself
        ModelGraph(layers=layers, input_shape=(1, 4, 4))

    @pytest.mark.parametrize("layer", [
        conv_spec(kernel=0), conv_spec(stride=0), conv_spec(stride=-1),
        conv_spec(padding=-1), LayerSpec(kind="avgpool", pool=0),
    ], ids=["kernel-0", "stride-0", "stride-neg", "padding-neg", "pool-0"])
    def test_impossible_geometry_refused(self, layer):
        with pytest.raises(ValueError, match=">= "):
            ModelGraph(layers=[layer], input_shape=(1, 4, 4))

    @pytest.mark.parametrize("layer", [
        conv_spec(kernel=9), conv_spec(kernel=7, padding=0),
        LayerSpec(kind="avgpool", pool=8), LayerSpec(kind="avgpool", pool=5),
    ], ids=["kernel-9", "kernel-7", "pool-8", "pool-5"])
    def test_empty_output_refused(self, layer):
        with pytest.raises(ShapeMismatchError, match="empty output"):
            ModelGraph(layers=[layer], input_shape=(1, 4, 4))

    def test_largest_fitting_geometry_accepted(self):
        g = ModelGraph(layers=[conv_spec(kernel=4, padding=0)], input_shape=(1, 4, 4))
        assert g.output_shape == (2, 1, 1)
        g = ModelGraph(layers=[LayerSpec(kind="avgpool", pool=4)], input_shape=(1, 4, 4))
        assert g.output_shape == (1, 1, 1)


class TestClampRunsNoCode:
    def test_clamp_passes_its_input_through(self, mlp, blob_data):
        fc1, act1 = mlp.layers[0], mlp.layers[1]
        x = NestedTensor(data=quantize(blob_data[0][:5], mlp.input_params),
                         params=mlp.input_params)
        y, _ = run_layer(fc1, x, 8)
        z, record = run_layer(act1, y, 8)
        assert np.array_equal(z.data, y.data)
        assert z.data.dtype == y.data.dtype and z.params == y.params
        assert record.counters == OpCounters()

    def test_residual_add_then_clamp_is_relu_on_the_add(self, make_block, cnn_data):
        block = make_block(8)
        x = cnn_data[0][:50]
        # The float add goes negative, so a clamp at 0 is not vacuous.
        assert float_forward(block, x)[3].min() < 0
        ys = []
        t = NestedTensor(data=quantize(x, block.input_params), params=block.input_params)
        for layer in block.layers[:5]:
            aux = ys[layer.source] if layer.kind == "residual_add" else None
            t, _ = run_layer(layer, t, 8, aux=aux)
            ys.append(t)
        conv2, act1, act2 = (dequantize(y.data, y.params) for y in (ys[2], ys[1], ys[4]))
        want = np.clip(conv2 + act1, 0.0, block.layers[4].alpha)
        assert np.abs(act2 - want).max() <= ys[4].params.scale


class TestBitPolicy:
    def test_uniform(self):
        p = BitPolicy.uniform(8, 3)
        assert p.bits == (8, 8, 8) and len(p) == 3


class TestForward:
    def test_uncalibrated_model_refused(self, blob_data):
        model = build_toy_mlp(seed=7, means=blob_data[2])
        with pytest.raises(ValueError, match="model is not calibrated"):
            forward(model, blob_data[0][:2], BitPolicy.uniform(8, 3))

    def test_all_master_policy_no_shifts(self, mlp, blob_data):
        x = blob_data[0]
        _, trace = forward(mlp, x[0], BitPolicy.uniform(8, 3))
        assert trace.counters.shifts == 0
        assert trace.bitwidths() == [8, 8, 8, 8, 8]

    def test_no_float_tensor_ops_between_quant_and_dequant(self, mlp, cnn,
                                                           blob_data, cnn_data):
        _, t1 = forward(mlp, blob_data[0][0], BitPolicy((8, 4, 8)))
        _, t2 = forward(cnn, cnn_data[0][0], BitPolicy.uniform(6, 3))
        assert t1.fp_tensor_ops == 0
        assert t2.fp_tensor_ops == 0

    def test_shifted_elements_counting_contract(self, mlp, blob_data):
        policy = BitPolicy((8, 4, 6))
        _, trace = forward(mlp, blob_data[0][0], policy)
        expected = 0
        for b, idx in zip(policy.bits, mlp.policy_indices):
            if b < mlp.master_bitwidth:
                layer = mlp.layers[idx]
                expected += layer.weight_elements() + layer.input_elements()
        assert trace.counters.shifts == expected

    @pytest.mark.parametrize("batch", [1, 5], ids=["single", "batch"])
    def test_trace_totals_are_the_records_sum(self, make_block, cnn_data, batch):
        """A trace sums its records when its totals are read: after a
        mixed-policy forward they equal that sum and the cost model's, one
        sample's work, for a single sample and for a batch alike."""
        model = make_block(8)
        policy = BitPolicy((4, 6, 5, 8))
        x = cnn_data[0][0] if batch == 1 else cnn_data[0][:batch]
        _, trace = forward(model, x, policy)
        rep = cost_report(model, policy)
        assert trace.counters == OpCounters.total(r.counters for r in trace.records)
        assert (trace.counters.mults, trace.counters.adds, trace.counters.shifts) == \
            (rep.inloop_mults, rep.inloop_adds, rep.transition_elements)
        assert trace.counters.shifts > 0

    def test_trace_takes_no_total(self):
        with pytest.raises(TypeError):
            ExecutionTrace([], OpCounters(1, 2, 3))
        with pytest.raises(TypeError):
            ExecutionTrace([], counters=OpCounters(1, 2, 3))
        record = LayerRecord(0, "fc", 8, OpCounters(1, 2, 3))
        trace = ExecutionTrace([record, record])
        with pytest.raises(AttributeError):
            trace.counters = OpCounters()
        assert trace.counters == OpCounters(2, 4, 6)

    def test_single_sample_output_owns_its_memory(self, mlp, blob_data):
        # a view would keep the batch-of-one array alive with every kept output
        y, _ = forward(mlp, blob_data[0][0], BitPolicy.uniform(4, 3))
        assert y.shape == mlp.output_shape and y.base is None

    def test_policy_length_checked(self, mlp, blob_data):
        with pytest.raises(ValueError):
            forward(mlp, blob_data[0][0], BitPolicy.uniform(8, 2))

    def test_deterministic(self, mlp, blob_data):
        x = blob_data[0][1]
        y1, _ = forward(mlp, x, BitPolicy.uniform(8, 3))
        y2, _ = forward(mlp, x, BitPolicy.uniform(8, 3))
        assert np.array_equal(y1, y2)

    def test_full_width_output_close_to_float(self, mlp, blob_data):
        x = blob_data[0][:20]
        y_float = float_forward(mlp, x)[-1]
        for i in range(20):
            y, _ = forward(mlp, x[i], BitPolicy.uniform(8, 3))
            # a handful of master steps of slack across three layers
            tol = 6 * mlp.layers[-1].output_params.scale
            assert np.max(np.abs(y - y_float[i])) <= tol

    def test_residual_add_path(self):
        rng = np.random.default_rng(9)
        layers = [
            LayerSpec(kind="fc", name="a", in_features=4, out_features=4,
                      weight=np.eye(4) + rng.normal(0, 0.05, (4, 4)),
                      bias=np.zeros(4)),
            LayerSpec(kind="residual_add", name="skip", source=0),
        ]
        model = ModelGraph(layers=layers, input_shape=(4,))
        data = rng.uniform(0, 4, size=(64, 4))
        calibrate(model, [data])
        x = data[0]
        y, trace = forward(model, x, BitPolicy((8, 8)))
        want = float_forward(model, x[None])[-1][0]
        assert np.max(np.abs(y - want)) <= 4 * model.layers[1].output_params.scale
        _, trace4 = forward(model, x, BitPolicy((4, 4)))
        # residual add shifts both operands: 2 * 4 elements, plus the fc's 16+4
        assert trace4.records[1].counters.shifts == 8
        assert trace4.counters.shifts == 16 + 4 + 8


class TestAvgPoolFlatten:
    def test_avgpool_integer_mean(self):
        p = unit_params()
        layer = LayerSpec(kind="avgpool", pool=2)
        layer.input_shape = (1, 2, 2)
        layer.output_shape = (1, 1, 1)
        x = NestedTensor(data=np.array([[[[1, 2], [3, 4]]]]), params=p)
        out, _ = run_layer(layer, x, 8)
        assert out.data[0, 0, 0, 0] == 3  # round(10/4) half away
        assert out.params is p

    @pytest.mark.parametrize("batch", [0, 1, 5])
    @pytest.mark.parametrize("pool", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 16])
    def test_avgpool_equals_float_window_means(self, n, pool, batch):
        """Every window's mean rounded half up, on 7 x 10 inputs that no pool
        but 1 divides: the rows and columns past the last window are dropped."""
        layer = LayerSpec(kind="avgpool", pool=pool)
        ModelGraph(layers=[layer], input_shape=(3, 7, 10))
        dtype = storage_dtype(n)
        rng = np.random.default_rng(100 * n + 10 * pool + batch)
        q = rng.integers(0, 1 << n, size=(batch, 3, 7, 10)).astype(dtype)
        out, _ = run_layer(layer, NestedTensor(data=q, params=unit_params(n)), n)
        windows = sliding_window_view(q.astype(np.float64), (pool, pool), axis=(2, 3))
        means = windows[:, :, ::pool, ::pool].mean(axis=(-2, -1))
        assert out.data.dtype == dtype and out.shape == (batch,) + layer.output_shape
        assert np.array_equal(out.data, np.floor(means + 0.5))

    def test_flatten_preserves_grid(self):
        p = unit_params()
        layer = LayerSpec(kind="flatten")
        layer.input_shape = (1, 2, 2)
        layer.output_shape = (4,)
        x = NestedTensor(data=np.arange(4).reshape(1, 1, 2, 2), params=p)
        out, _ = run_layer(layer, x, 8)
        assert out.data.shape == (1, 4)
        assert out.params == p


def recorded_plans(monkeypatch):
    """Route ``layers.build_plan`` through a recorder of (arguments, plan) pairs."""
    plans = []
    build = layers.build_plan

    def record(*args):
        plans.append((args, build(*args)))
        return plans[-1][1]

    monkeypatch.setattr(layers, "build_plan", record)
    return plans


def oracle_layer(layer, x, b, aux=None):
    """One MAC or residual layer evaluated output by output with the scalar operators.

    Constants come from the builders, at the F inference fits; a MAC layer's
    bias enters its dot.
    Charges the per-element counts the layer engine reports: the factored loop
    1 mult + 2 adds per MAC, the general loop 3 + 2, the bias term 1 + 1 and a
    residual add 2 + 2 per output, and one shift per element moved below n.
    """
    n = x.params.master_bitwidth
    py = layer.output_params
    if layer.kind == "residual_add":
        c = add_constants(derive_params(x.params, b), derive_params(aux.params, b), py)
        q1 = shift_down(x.data, n, b).reshape(-1)
        q2 = shift_down(aux.data, n, b).reshape(-1)
        out = np.array([int_add(int(a), int(bb), c, py) for a, bb in zip(q1, q2)])
        return out.reshape(layer.output_shape), OpCounters(
            mults=2 * out.size, adds=2 * out.size, shifts=2 * out.size if b < n else 0)
    px = derive_params(x.params, b)
    xq = shift_down(x.data, n, b)
    wq = shift_down(layer.weight_q.data, n, b)
    wq = wq.reshape(wq.shape[0], -1)
    if layer.kind == "fc":
        rows = [xq.reshape(-1)]
    else:
        k, s, p = layer.kernel, layer.stride, layer.padding
        xp = np.pad(xq, ((0, 0), (p, p), (p, p)),
                    constant_values=int(quantize(np.float64(0.0), px)))
        _, oh, ow = layer.output_shape
        rows = [xp[:, i * s:i * s + k, j * s:j * s + k].reshape(-1)
                for i in range(oh) for j in range(ow)]
    length = rows[0].size
    pb = layer.bias_q.params if layer.bias_q is not None else None
    c_dot = dot_constants(px, derive_params(layer.weight_q.params, b), py, length, pb)
    out = np.empty((len(rows), len(wq)), dtype=np.int64)
    tallies = []  # one per output, and the shifts
    for o, wrow in enumerate(wq):
        qb = int(layer.bias_q.data[o]) if pb is not None else 0
        for r, xrow in enumerate(rows):
            if x.params.offset == 0:
                y, loop = int_dot_pact(xrow, wrow, c_dot, py, qb)
                tallies.append(loop)
            else:
                y = int_dot(xrow, wrow, c_dot, py, qb)
                tallies.append(OpCounters(mults=3 * length, adds=2 * length))
            if pb is not None:
                tallies.append(OpCounters(mults=1, adds=1))
            out[r, o] = y
    if b < n:
        tallies.append(OpCounters(shifts=layer.weight_elements() + layer.input_elements()))
    data = out.reshape(layer.output_shape) if layer.kind == "fc" else \
        out.T.reshape(layer.output_shape)
    return data, OpCounters.total(tallies)


def small_resnet():
    rng = np.random.default_rng(21)
    layers = [
        LayerSpec(kind="conv2d", name="c1", in_channels=1, out_channels=3, kernel=3,
                  padding=1, weight=rng.normal(0, 0.4, (3, 1, 3, 3)),
                  bias=rng.normal(0, 0.1, 3)),
        LayerSpec(kind="relu_pact", name="a1"),
        LayerSpec(kind="conv2d", name="c2", in_channels=3, out_channels=3, kernel=3,
                  stride=2, padding=1, weight=rng.normal(0, 0.3, (3, 3, 3, 3)),
                  bias=rng.normal(0, 0.1, 3)),
        LayerSpec(kind="conv2d", name="c3", in_channels=3, out_channels=3, kernel=1,
                  weight=rng.normal(0, 0.5, (3, 3, 1, 1)), bias=rng.normal(0, 0.1, 3)),
        LayerSpec(kind="residual_add", name="skip", source=2),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=48, out_features=4,
                  weight=rng.normal(0, 0.2, (4, 48))),
    ]
    model = ModelGraph(layers=layers, input_shape=(1, 8, 8))
    data = rng.uniform(-0.5, 2.0, size=(40, 1, 8, 8))  # negative: general first loop
    calibrate(model, [data[:20], data[20:]])
    return model, data


class TestArrayPathMatchesScalarOracles:
    def check(self, model, xs, policies):
        """A batch through each layer, each sample of each policy layer against
        its scalar oracle; then a warm batched ``forward`` against the chain,
        outputs and trace."""
        def sample(t, j):
            return None if t is None else NestedTensor.trusted(t.data[j], t.params)

        for policy in policies:
            t = NestedTensor(data=quantize(xs, model.input_params), params=model.input_params)
            outputs, chain, bits = [], [], iter(policy.bits)
            for i, layer in enumerate(model.layers):
                b = next(bits) if layer.kind in POLICY_KINDS else model.master_bitwidth
                aux = outputs[layer.source] if layer.kind == "residual_add" else None
                out, record = run_layer(layer, t, b, aux=aux)
                for j in range(len(xs) if layer.kind in POLICY_KINDS else 0):
                    want, counters = oracle_layer(layer, sample(t, j), b, sample(aux, j))
                    assert np.array_equal(out.data[j], want), (layer.name, policy)
                    assert record.counters == counters, (layer.name, policy)
                record.index = i
                chain.append(record)
                outputs.append(out)
                t = out
            ys, trace = forward(model, xs, policy)  # every step already compiled
            assert np.array_equal(ys, dequantize(t.data, t.params)), policy
            assert trace.records == chain, policy
            assert trace.counters == OpCounters.total(r.counters for r in chain), policy

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_mlp(self, n, blob_data):
        x, _, means = blob_data
        rng = np.random.default_rng(n)
        for data in (x[:200], x[:200] - 1.0):  # zero-offset and offset input grids
            model = build_toy_mlp(seed=7, n=n, means=means)
            calibrate(model, [data[:100], data[100:]])
            cands = tuple(range(2, n + 1))
            policies = [BitPolicy.uniform(n, 3)] + [
                BitPolicy(tuple(int(b) for b in rng.choice(cands, 3))) for _ in range(3)]
            self.check(model, data[:3], policies)

    def test_cnn(self, cnn, cnn_data):
        policies = [BitPolicy.uniform(8, 3), BitPolicy((6, 4, 8)), BitPolicy((3, 8, 5))]
        self.check(cnn, cnn_data[0][:2], policies)

    def test_residual_net(self):
        model, data = small_resnet()
        policies = [BitPolicy.uniform(8, 5), BitPolicy((4, 8, 6, 3, 8)),
                    BitPolicy((8, 3, 4, 6, 4))]
        self.check(model, data[:2], policies)


def plan_proof(args, plan, extra=0):
    """Int64 bound of a plan's one expression, with its constants at F + extra.

    Restates the proof over the expression ``run_layer`` evaluates: the dot's
    k[0] times the exact product sum plus the bias term, or the residual add.
    """
    kind, _, b, x_grid, other_grid, bias_grid, out_grid, length = args[:8]
    px, po = derive_params(x_grid, b), derive_params(other_grid, b)
    f = plan.frac_bits + extra
    if kind == "residual_add":
        k = constants_at(add_constants(px, po, out_grid), f).k
        magnitudes = (px.qmax, po.qmax)
    else:
        k = constants_at(dot_constants(px, po, out_grid, length, bias_grid), f).k
        magnitudes = (length * px.qmax * po.qmax, length * px.qmax, length * po.qmax,
                      bias_grid.qmax if bias_grid is not None else 0)
    if extra == 0:
        assert plan.k == k
    return linear_bound(k, magnitudes, f)


class TestPlanPrecision:
    """Each plan runs at the largest F whose int64 proof holds."""

    def check(self, plans, kind):
        checked = 0
        for args, plan in plans:
            if args[0] != kind:
                continue
            assert plan_proof(args, plan) <= INT64_MAX
            assert plan_proof(args, plan, extra=1) > INT64_MAX
            checked += 1
        assert checked

    def test_fc(self, blob_data, monkeypatch):
        x, _, means = blob_data
        model = build_toy_mlp(seed=7, n=12, means=means)
        calibrate(model, [x[:200]])
        plans = recorded_plans(monkeypatch)
        for bits in ((12, 12, 12), (12, 6, 4), (3, 9, 12)):
            forward(model, x[0], BitPolicy(bits))
        self.check(plans, "fc")

    def test_conv(self, cnn, cnn_data, monkeypatch):
        for layer in cnn.layers:  # the shared model may hold these steps already
            layer.steps.clear()
        plans = recorded_plans(monkeypatch)
        forward(cnn, cnn_data[0][0], BitPolicy((6, 4, 8)))
        self.check(plans, "conv2d")

    def test_residual(self, monkeypatch):
        model, data = small_resnet()
        plans = recorded_plans(monkeypatch)
        forward(model, data[0], BitPolicy((4, 8, 6, 3, 8)))
        self.check(plans, "residual_add")


def edge_model(kind, tiny):
    """A fc or conv layer alone, or two fc layers and the residual add of their
    outputs, at n = 16, each with its plan's int64 bound within 2x of INT64_MAX.

    The fc dot is 2,048 long and the conv dot 288. Inputs, weights and biases
    are positive, so every term of a dot has one sign, and the first output's
    weights all sit at the top of their grid: an input at the top of its grid
    then drives that output's sum close to its plan's bound. At ``tiny`` = 0
    the output grids are the calibrated ones and the plans fit F of about 40.
    Otherwise each output grid is [0, 2^-tiny of the calibrated range], which
    cuts F to a few bits and leaves no negative constant to offset the sum.
    Returns the model and four inputs, the first at the top of the input grid.
    """
    rng = np.random.default_rng(41)

    def weights(*shape):
        w = rng.uniform(0.1, 0.5, shape)
        w[0] = 0.5
        return w

    if kind == "conv2d":
        shape = (32, 5, 5)
        specs = [LayerSpec(kind="conv2d", name="c0", in_channels=32, out_channels=4,
                           kernel=3, padding=1, weight=weights(4, 32, 3, 3),
                           bias=rng.uniform(0.1, 1.0, 4))]
    else:
        shape = (2048,)
        specs = [LayerSpec(kind="fc", name="fc0", in_features=2048, out_features=8,
                           weight=weights(8, 2048), bias=rng.uniform(0.1, 1.0, 8))]
    if kind == "residual_add":
        specs += [LayerSpec(kind="fc", name="fc1", in_features=8, out_features=8,
                            weight=weights(8, 8), bias=rng.uniform(0.1, 1.0, 8)),
                  LayerSpec(kind="residual_add", name="add", source=0)]
    model = ModelGraph(layers=specs, input_shape=shape, master_bitwidth=16)
    data = rng.uniform(0.5, 2.0, size=(16,) + shape)
    calibrate(model, [data])
    if tiny:
        for layer in model.layers:
            layer.output_params = QuantParams(scale=layer.output_params.scale / 2.0 ** tiny,
                                              offset=0.0, bitwidth=16, master_bitwidth=16)
    return model, np.concatenate([np.full((1,) + shape, 2.0), np.full((1,) + shape, 0.5),
                                  data[:2]])


class TestInt64Edge:
    """The int64 expression at plans whose int64 bound is within 2x of INT64_MAX.

    Its product and input sums come from the step's exact GEMM: float64 for
    every fc here and for the conv at b >= 10, float32 for the conv at b = 7
    and the residual case's 8-long fc at b <= 10."""

    @pytest.mark.parametrize("tiny", [0, 30])
    @pytest.mark.parametrize("kind", ["fc", "conv2d", "residual_add"])
    def test_forward_equals_the_scalar_oracles(self, kind, tiny, monkeypatch):
        model, xs = edge_model(kind, tiny)
        plans = recorded_plans(monkeypatch)
        build_plan.cache_clear()
        for b in (16, 13, 10, 7):
            policy = BitPolicy.uniform(b, model.num_policy_layers)
            ys, _ = forward(model, xs, policy)
            for x, y in zip(xs, ys):
                t = NestedTensor(data=quantize(x, model.input_params),
                                 params=model.input_params)
                outputs = []
                for layer in model.layers:
                    aux = outputs[layer.source] if layer.kind == "residual_add" else None
                    want, _ = oracle_layer(layer, t, b, aux)
                    t = NestedTensor(data=want, params=layer.output_params)
                    outputs.append(t)
                assert np.array_equal(y, dequantize(t.data, t.params)), (kind, tiny, b)
        assert kind in {args[0] for args, _ in plans}
        for args, plan in plans:
            assert INT64_MAX // 2 < plan_proof(args, plan) <= INT64_MAX, args[:3]


class TestIntegerRange:
    def test_constants_past_int64_refused(self):
        # A tiny output step makes k = step_x * step_w / step_y * 2^F about 2^76.
        tiny = QuantParams(scale=2.0 ** -60, offset=0.0, bitwidth=8, master_bitwidth=8)
        x = NestedTensor(data=np.array([[200]]), params=unit_params())
        with pytest.raises(AccumulatorOverflowError):
            run_layer(identity_fc(out_grid=tiny), x, 8)
        layer = LayerSpec(kind="residual_add", name="skip", source=0)
        layer.input_shape = layer.output_shape = (1,)
        layer.output_params = tiny
        with pytest.raises(AccumulatorOverflowError):
            run_layer(layer, x, 8, aux=x)

    def test_narrow_bias_dtype_does_not_wrap(self, monkeypatch):
        # The bias constant is 2^-9 / 2^-20 * 2^F = 2^(11+F): 255 times it overflows int32.
        plans = recorded_plans(monkeypatch)
        outs = []
        for dtype in (np.int32, np.int64):
            layer = identity_fc(out_grid=QuantParams(scale=2.0 ** -20, offset=0.0,
                                                     bitwidth=8, master_bitwidth=8))
            layer.bias_q = NestedTensor(data=np.array([255], dtype=dtype), params=QuantParams(
                scale=2.0 ** -9, offset=0.0, bitwidth=8, master_bitwidth=8))
            x = NestedTensor(data=np.array([[0]]), params=unit_params())
            outs.append(run_layer(layer, x, 8)[0].data[0, 0])
        assert outs == [255, 255]
        assert plans[0][1].k[3] * 255 > np.iinfo(np.int32).max


    def test_product_sums_past_int64_refused_by_name(self):
        p16 = make_master_params(-1.0, 1.0, 16)
        with pytest.raises(AccumulatorOverflowError,
                           match=r"layer 'big'.*product sums exceed int64"):
            build_plan("fc", "big", 16, p16, p16, None, p16, 2 ** 32)


class TestOneMasterWidth:
    def test_plan_refuses_grids_at_two_master_widths(self):
        p8, p12 = unit_params(8), unit_params(12)
        for kind, grids in [("fc", (p12, p8, None, p12)), ("fc", (p12, p12, p8, p12)),
                            ("fc", (p12, p12, None, p8)), ("residual_add", (p12, p8, None, p12))]:
            with pytest.raises(ValueError, match=r"layer 'f'.*master widths \[8, 12\]"):
                build_plan(kind, "f", 8, *grids, 4)

    def test_weights_requantized_at_another_width_refused(self, blob_data):
        # Shifted from the activations' n=12, 8-bit weights would run 16x too large.
        x, _, means = blob_data
        model = build_toy_mlp(seed=7, n=12, means=means)
        calibrate(model, [x[:200]])
        quantize_weights(model.layers[2], 8)
        for b in (12, 8, 4):
            with pytest.raises(ValueError, match="layer 'fc2'"):
                forward(model, x[:3], BitPolicy.uniform(b, 3))


class TestLayerPlan:
    def test_second_forward_builds_no_constants(self, monkeypatch):
        model, data = small_resnet()
        build_plan.cache_clear()
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(layers, "dot_constants", counted(layers.dot_constants))
        monkeypatch.setattr(layers, "add_constants", counted(layers.add_constants))
        policy = BitPolicy((4, 8, 6, 3, 8))
        forward(model, data[0], policy)
        # three biased convs and the bias-free head; the residual add
        assert sorted(calls) == ["add_constants"] + ["dot_constants"] * 4
        calls.clear()
        forward(model, data[1], policy)
        assert calls == []

    def test_recalibration_matches_fresh_model(self, blob_data):
        x, _, means = blob_data
        policy = BitPolicy((8, 4, 6))
        model = build_toy_mlp(seed=7, means=means)
        calibrate(model, [x[:200]])
        first_grid = model.input_params
        for sample in x[:3]:
            forward(model, sample, policy)
        shifted = x[200:400] - 1.0  # an offset input grid and new ranges everywhere
        calibrate(model, [shifted])
        assert model.input_params != first_grid
        fresh = build_toy_mlp(seed=7, means=means)
        calibrate(fresh, [shifted])
        for sample in shifted[:5]:
            assert np.array_equal(forward(model, sample, policy)[0],
                                  forward(fresh, sample, policy)[0])
        # A replaced weight_q rebuilds the steps that hold its constants.
        fc = model.layers[2]
        flipped = NestedTensor(data=fc.weight_q.params.qmax - fc.weight_q.data,
                               params=fc.weight_q.params)
        fc.weight_q = fresh.layers[2].weight_q = flipped
        fresh_again = build_toy_mlp(seed=7, means=means)
        calibrate(fresh_again, [shifted])
        fresh_again.layers[2].weight_q = flipped
        for sample in shifted[:5]:
            got = forward(model, sample, policy)[0]
            assert np.array_equal(got, forward(fresh_again, sample, policy)[0])
            assert np.array_equal(got, forward(fresh, sample, policy)[0])

    def test_calibrated_weights_are_read_only(self, mlp):
        for layer in mlp.layers:
            for t in (layer.weight_q, layer.bias_q):
                if t is not None:
                    with pytest.raises(ValueError):
                        t.data[0] = 0

    def test_steps_live_on_their_layers(self, mlp, blob_data):
        policy = BitPolicy((8, 4, 6))
        _, trace = forward(mlp, blob_data[0][:2], policy)
        for i, b in zip(mlp.policy_indices, policy.bits):
            assert b in mlp.layers[i].steps
            assert trace.records[i].counters == layers.layer_counters(mlp.layers[i], b, 8,
                                                                      mlp.output_grid(i - 1))
        assert all(not l.steps for l in mlp.layers if l.kind not in POLICY_KINDS)

    def test_refused_layer_raises_on_every_call(self):
        # The refusal is not cached: each call rebuilds the plan and raises again.
        x = NestedTensor(data=np.array([[200]]), params=unit_params())
        tiny = QuantParams(scale=2.0 ** -60, offset=0.0, bitwidth=8, master_bitwidth=8)
        build_plan.cache_clear()
        layer = identity_fc(out_grid=tiny)
        for calls in range(1, 4):
            with pytest.raises(AccumulatorOverflowError, match="layer 'id'"):
                run_layer(layer, x, 8)
            assert build_plan.cache_info().misses == calls
            assert not layer.steps

    def test_record_counters_are_immutable(self, mlp, blob_data):
        """A record shares its step's tally, which no caller can change, so a
        trace cannot alter a later one."""
        policy = BitPolicy((8, 4, 6))
        x = blob_data[0][0]
        _, first = forward(mlp, x, policy)
        want = [replace(r.counters) for r in first.records]
        for r in first.records:
            with pytest.raises(FrozenInstanceError):
                r.counters.mults += 1000
        _, second = forward(mlp, x, policy)
        assert [r.counters for r in second.records] == want


def pooled_resnet(n):
    """conv, clamp, conv, residual add, average pool, flatten, fc on 1x9x9 inputs.

    The odd size makes the pool crop a row and a column.
    """
    rng = np.random.default_rng(31)
    layers = [
        LayerSpec(kind="conv2d", name="c1", in_channels=1, out_channels=3, kernel=3,
                  padding=1, weight=rng.normal(0, 0.4, (3, 1, 3, 3)),
                  bias=rng.normal(0, 0.1, 3)),
        LayerSpec(kind="relu_pact", name="a1"),
        LayerSpec(kind="conv2d", name="c2", in_channels=3, out_channels=3, kernel=3,
                  padding=1, weight=rng.normal(0, 0.3, (3, 3, 3, 3)),
                  bias=rng.normal(0, 0.1, 3)),
        LayerSpec(kind="residual_add", name="skip", source=1),
        LayerSpec(kind="avgpool", name="pool", pool=2),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=48, out_features=4,
                  weight=rng.normal(0, 0.2, (4, 48)), bias=rng.normal(0, 0.1, 4)),
    ]
    model = ModelGraph(layers=layers, input_shape=(1, 9, 9), master_bitwidth=n)
    data = rng.uniform(-0.5, 2.0, size=(24, 1, 9, 9))
    calibrate(model, [data[:12], data[12:]])
    return model, data


def outcome(model, x, policy):
    """forward's (outputs, trace), or the type and message of the error it raised."""
    try:
        return forward(model, x, policy)
    except (ValueError, AccumulatorOverflowError) as exc:
        return type(exc), str(exc)


def random_policies(model, rng, count=4):
    n, length = model.master_bitwidth, model.num_policy_layers
    cands = tuple(range(2, n + 1))
    return [BitPolicy.uniform(n, length)] + [
        BitPolicy(tuple(int(b) for b in rng.choice(cands, length)))
        for _ in range(count)]


class TestBatchedEngine:
    """A batch through ``forward`` is bit-identical to its samples run one by one."""

    def check(self, model, xs, policies):
        for policy in policies:
            batch = outcome(model, xs, policy)
            singles = [outcome(model, x, policy) for x in xs]
            if isinstance(batch[0], type):  # refused: every sample raised the same
                assert all(s == batch for s in singles), policy
                continue
            ys, trace = batch
            assert ys.shape == (len(xs),) + model.output_shape
            for y, (y1, trace1) in zip(ys, singles):
                assert np.array_equal(y, y1), policy
                assert trace1 == trace, policy

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_mlp(self, n, blob_data):
        x, _, means = blob_data
        rng = np.random.default_rng(n)
        for data in (x[:200], x[:200] - 1.0):  # zero-offset and offset input grids
            model = build_toy_mlp(seed=7, n=n, means=means)
            calibrate(model, [data[:100], data[100:]])
            self.check(model, data[:6], random_policies(model, rng))

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_cnn(self, n, cnn_data):
        x = cnn_data[0]
        rng = np.random.default_rng(100 + n)
        for data in (x, x - 0.5):
            model = build_toy_cnn(seed=11, n=n)
            calibrate(model, [data[:50], data[50:]])
            self.check(model, data[:4], random_policies(model, rng, 3))

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_conv_residual_pool_fc(self, n):
        model, data = pooled_resnet(n)
        self.check(model, data[:4], random_policies(model, np.random.default_rng(200 + n)))

    @pytest.mark.parametrize("n", range(4, 17))
    def test_conv_unfolds_narrow_as_it_did_wide(self, n, cnn_data, make_block, monkeypatch):
        """A conv unfolds its shifted input from its storage dtype, widening it
        as it copies: bit-identical to unfolding the input widened to int64 first."""
        x = cnn_data[0][:4]
        cnn = build_toy_cnn(seed=11, n=n)
        calibrate(cnn, [cnn_data[0][:50], cnn_data[0][50:]])
        im2col, dtypes = layers._im2col, []

        def widened_first(xs, *args):
            dtypes.append(xs.dtype)
            return im2col(xs.astype(np.int64), *args)

        for model in (cnn, make_block(n)):
            for policy in random_policies(model, np.random.default_rng(300 + n), 3):
                dtypes.clear()
                want = outcome(model, x, policy)
                with monkeypatch.context() as m:
                    m.setattr(layers, "_im2col", widened_first)
                    got = outcome(model, x, policy)
                assert dtypes and all(d == storage_dtype(n) for d in dtypes)
                if isinstance(want[0], type):
                    assert want == got, policy
                else:
                    assert np.array_equal(want[0], got[0]) and want[1] == got[1], policy

    def test_refused_layer_raises_the_same_error_batched(self, cnn_data):
        x = cnn_data[0]
        model = build_toy_cnn(seed=11, n=16)
        calibrate(model, [x[:50]])
        # A 2^-60 output step puts the head's constants past int64 even at F = 0.
        model.layers[-1].output_params = QuantParams(
            scale=2.0 ** -60, offset=0.0, bitwidth=16, master_bitwidth=16)
        policy = BitPolicy.uniform(16, 3)
        single, batch = outcome(model, x[0], policy), outcome(model, x[:5], policy)
        assert single[0] is AccumulatorOverflowError
        assert batch == single

    def test_empty_batch(self):
        model, data = pooled_resnet(8)
        ys, trace = forward(model, data[:0], BitPolicy.uniform(8, 4))
        assert ys.shape == (0,) + model.output_shape
        assert trace == forward(model, data[0], BitPolicy.uniform(8, 4))[1]

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (1, 1, 1), (), (1,)])
    def test_run_layer_rejects_other_shapes(self, shape):
        x = NestedTensor(data=np.ones(shape, dtype=np.int64), params=unit_params())
        with pytest.raises(ShapeMismatchError):
            run_layer(identity_fc(), x, 8)

    def test_residual_operands_must_share_the_batch(self):
        model, data = pooled_resnet(8)
        layer = model.layers[3]
        x = NestedTensor(data=np.zeros((2,) + layer.input_shape, dtype=np.uint8),
                         params=model.output_grid(2))
        aux = NestedTensor(data=np.zeros((3,) + layer.input_shape, dtype=np.uint8),
                           params=model.output_grid(1))
        with pytest.raises(ShapeMismatchError):
            run_layer(layer, x, 8, aux=aux)


class TestRoundingShift:
    def test_half_up_equals_rounding_right_shift_after_the_clip(self):
        """The folded rounding: with 2^(s-1) added ahead (in a step's ``const``),
        a floor shift and the clip equal the clipped half-away-from-zero shift."""
        rng = np.random.default_rng(5)
        v = np.concatenate([rng.integers(-(1 << 40), 1 << 40, size=4000),
                            np.arange(-70, 70), [0, 1, -1, 1 << 50, -(1 << 50)]])
        py = unit_params(16)
        for s in (0, 1, 2, 3, 7, 16, 33, 45):
            half = (1 << s) >> 1
            folded = (v + half) >> s
            want = np.array([rounding_right_shift(int(a), s) for a in v])
            assert np.array_equal(np.maximum(folded, 0), np.maximum(want, 0)), s
            # on non-negative values no clip is needed
            assert np.array_equal(folded[v >= 0], want[v >= 0]), s
            got = layers._requant(v + half, s, py.qmax, storage_dtype(16))
            assert np.array_equal(got, np.clip(want, 0, py.qmax)), s


class TestFloatTensorCount:
    def test_counts_a_non_integer_layer_output(self, mlp, blob_data, monkeypatch):
        policy = BitPolicy((8, 4, 6))
        x = blob_data[0][:2]
        want, clean = forward(mlp, x, policy)
        assert clean.fp_tensor_ops == 0
        run = layers.run_layer

        def float_head(layer, t, b, aux=None):
            out, record = run(layer, t, b, aux=aux)
            if layer is mlp.layers[-1]:
                out = NestedTensor.trusted(out.data.astype(np.float64), out.params)
            return out, record

        monkeypatch.setattr(layers, "run_layer", float_head)
        monkeypatch.setattr(layers, "dequantize", lambda q, p: q.data * p.scale + p.offset)
        got, trace = forward(mlp, x, policy)
        assert trace.fp_tensor_ops == 1
        assert np.array_equal(got, want)


class TestClampIndex:
    def test_forward_quantizes_only_its_input(self, mlp, blob_data, monkeypatch):
        policy = BitPolicy((8, 4, 6))
        forward(mlp, blob_data[0][:3], policy)  # warm the plan cache
        calls = []

        def counted(*args):
            calls.append(args)
            return quantize(*args)

        monkeypatch.setattr(layers, "quantize", counted)
        forward(mlp, blob_data[0][:3], policy)
        forward(mlp, blob_data[0][5], policy)
        assert len(calls) == 2  # the entry quantize of each call


def top_fc(length: int) -> tuple[LayerSpec, NestedTensor]:
    """A fc at n = 8 on unit grids and a batch of one input, whose ``length``
    weights and inputs all sit at index 255, so its product sum is its bound,
    length * 255^2. Its output grid starts 100 steps below that sum: the exact
    output is index 100, and a sum off by one is an output off by one."""
    p = unit_params()
    total = length * 255 * 255
    layer = LayerSpec(kind="fc", name="top", in_features=length, out_features=1,
                      weight=np.ones((1, length)))
    layer.weight_q = NestedTensor(data=np.full((1, length), 255), params=p)
    layer.output_params = QuantParams(scale=1.0, offset=float(total - 100), bitwidth=8,
                                      master_bitwidth=8)
    layer.input_shape = (length,)
    layer.output_shape = (1,)
    return layer, NestedTensor(data=np.full((1, length), 255), params=p)


class TestExactSumDtype:
    @pytest.mark.parametrize("length, dtype", [(258, np.float32), (259, np.float64)])
    def test_the_rule_at_the_float32_edge(self, length, dtype):
        """258 * 255^2 = 16,776,450 <= 2^24 sums in float32; one more term does
        not, and sums in float64. Both equal the scalar oracle."""
        layer, x = top_fc(length)
        out, record = run_layer(layer, x, 8)
        assert record.sum_dtype == dtype
        want, _ = oracle_layer(layer, x, 8)
        assert out.data[0, 0] == want[0] == 100

    def test_float32_past_its_edge_is_wrong(self, monkeypatch):
        # 259 * 255^2 is odd and above 2^24, so no float32 holds it
        layer, x = top_fc(259)
        monkeypatch.setattr(layers, "exact_sum_dtype", lambda bound: np.dtype(np.float32))
        out, record = run_layer(layer, x, 8)
        assert record.sum_dtype == np.float32
        assert out.data[0, 0] != 100

    def test_past_float64_falls_back_to_int64(self):
        # n = 16: a dot of 2^21 terms stays within 2^53; the rule is called
        # with the bound alone, so no tensor of that length is built
        q = (1 << 16) - 1
        assert layers.exact_sum_dtype((1 << 21) * q * q) == np.float64
        first = (1 << 53) // (q * q) + 1
        assert first > 1 << 21
        assert layers.exact_sum_dtype(first * q * q) == np.int64
        assert [layers.exact_sum_dtype(v) for v in (1 << 24, (1 << 24) + 1, 1 << 53,
                                                    (1 << 53) + 1)] == \
            [np.float32, np.float64, np.float64, np.int64]

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_records_carry_the_narrowest_type_and_f(self, n, blob_data, make_block):
        """A fc or conv's record holds its step's sum type, the narrowest its
        bound L * (2^b - 1)^2 allows, and every policy layer's its plan's F."""
        mlp = build_toy_mlp(seed=7, n=n, means=blob_data[2])
        calibrate(mlp, [blob_data[0][:100]])
        seen = set()
        for model, x in ((mlp, blob_data[0][:2]), (make_block(n), None)):
            k = model.num_policy_layers
            x = np.zeros((2,) + model.input_shape) if x is None else x
            for b in sorted({n, max(2, n // 2), 2}):
                _, trace = forward(model, x, BitPolicy.uniform(b, k))
                for r in trace.records:
                    layer = model.layers[r.index]
                    if layer.kind not in POLICY_KINDS:
                        assert (r.sum_dtype, r.frac_bits) == (None, None)
                        continue
                    step = layer.steps[b]
                    assert r.frac_bits == step.shift
                    if layer.kind == "residual_add":
                        assert r.sum_dtype is None
                        continue
                    bound = layer.weight_elements() // layer.output_shape[0] \
                        * ((1 << b) - 1) ** 2
                    want = np.float32 if bound <= 1 << 24 else \
                        np.float64 if bound <= 1 << 53 else np.int64
                    assert r.sum_dtype == want == step.sum_dtype, (layer.name, b)
                    seen.add(np.dtype(want).name)
        assert "float32" in seen

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_int64_sums_change_no_bit(self, n, cnn_data, make_block, monkeypatch):
        """Forced to sum in int64, every fc and conv gives the same outputs."""
        x = cnn_data[0][:6]
        model = make_block(n)
        policies = random_policies(model, np.random.default_rng(500 + n), 3)
        want = [forward(model, x, policy)[0] for policy in policies]
        monkeypatch.setattr(layers, "exact_sum_dtype", lambda bound: np.dtype(np.int64))
        model = make_block(n)
        for policy, y in zip(policies, want):
            got, trace = forward(model, x, policy)
            assert np.array_equal(got, y), policy
            assert {r.sum_dtype for r in trace.records if r.kind != "residual_add"} \
                <= {np.dtype(np.int64), None}


class TestDegenerateRecord:
    def test_false_on_every_toy_layer(self, mlp, blob_data, cnn, cnn_data, make_block):
        """No toy model's plan loses a term; a layer without a plan records None."""
        for model, x in ((mlp, blob_data[0][:2]), (cnn, cnn_data[0][:2]),
                         (make_block(8), cnn_data[0][:2])):
            k = model.num_policy_layers
            for policy in (BitPolicy.uniform(8, k), BitPolicy.uniform(4, k)):
                _, trace = forward(model, x, policy)
                for r in trace.records:
                    want = False if r.kind in POLICY_KINDS else None
                    assert r.degenerate is want, (r.kind, r.index)

    def test_true_where_a_branch_term_rounds_away(self):
        """A branch grid 10^-30 of the output grid's step: k2 = 10^-30 * 2^F
        rounds to 0 at the fitted F, and the add drops the branch."""
        layer = LayerSpec(kind="residual_add", name="skip", source=0)
        layer.input_shape = layer.output_shape = (4,)
        layer.output_params = unit_params()
        x = NestedTensor(data=np.array([[1, 2, 3, 4]]), params=unit_params())
        aux = NestedTensor(data=np.full((1, 4), 255), params=QuantParams(1e-30, 0.0, 8, 8))
        out, record = run_layer(layer, x, 8, aux=aux)
        assert record.degenerate is True and layer.steps[8].k[1, 0] == 0
        assert out.data.tolist() == [[1, 2, 3, 4]]


def im2col_reference(x, kernel, stride, padding, pad_value):
    """The unfold by ``sliding_window_view``: (C*k*k, B*OH*OW), one field per column."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=pad_value)
    windows = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    bsz, c, oh, ow = windows.shape[:4]
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kernel * kernel, bsz * oh * ow)


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [0, 1, 5])
    def test_equals_the_sliding_window_unfold(self, dtype, bsz):
        """H != W, sizes not multiples of the stride, a padding index not 0."""
        rng = np.random.default_rng(bsz)
        for source in (np.uint8, np.uint16):
            x = rng.integers(0, 256, size=(bsz, 3, 7, 10)).astype(source)
            for kernel, stride, padding in itertools.product((1, 3, 5), (1, 2, 3), (0, 1, 2)):
                got = layers._im2col(x, kernel, stride, padding, 7, np.dtype(dtype))
                want = im2col_reference(x, kernel, stride, padding, 7)
                assert got.dtype == dtype
                assert got.shape == want.shape and np.array_equal(got, want), \
                    (source, kernel, stride, padding)
