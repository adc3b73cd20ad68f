"""EMA range tracking, clamp-bound selection, grid freezing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_padded_chain
from nestq.calibration import RangeState, calibrate, ema_update
from nestq.layers import POLICY_KINDS, BitPolicy, LayerSpec, ModelGraph, forward
from nestq.quantize import (
    MAX_BITWIDTH, MIN_BITWIDTH, DegenerateRangeError, make_master_params,
)
from nestq.reference import fake_quant_forward


class TestEmaUpdate:
    def test_first_batch_initializes(self):
        s = ema_update(RangeState(momentum=0.9), -3.0, 5.0)
        assert s.y_min == -3.0 and s.y_max == 5.0 and s.steps == 1

    def test_zero_momentum_takes_batch_extrema(self):
        s = ema_update(RangeState(momentum=0.0), 0.0, 1.0)
        s = ema_update(s, -7.0, 7.0)
        assert s.y_min == -7.0 and s.y_max == 7.0

    def test_unit_momentum_freezes_state(self):
        s = ema_update(RangeState(momentum=1.0), 0.0, 1.0)
        s = ema_update(s, -100.0, 100.0)
        assert s.y_min == 0.0 and s.y_max == 1.0

    def test_blend_arithmetic(self):
        s = ema_update(RangeState(momentum=0.9), 0.0, 1.0)
        s = ema_update(s, 0.0, 2.0)
        assert s.y_max == pytest.approx(1.1)

    def test_rejects_inverted_batch(self):
        with pytest.raises(ValueError):
            ema_update(RangeState(), 2.0, 1.0)

    @given(st.floats(0, 1), st.floats(-50, 50), st.floats(-50, 50),
           st.floats(-50, 50), st.floats(-50, 50))
    def test_convex_combination(self, g, pmin, pmax, bmin, bmax):
        pmin, pmax = min(pmin, pmax), max(pmin, pmax)
        bmin, bmax = min(bmin, bmax), max(bmin, bmax)
        s = ema_update(RangeState(momentum=g), pmin, pmax)
        s2 = ema_update(s, bmin, bmax)
        assert min(pmax, bmax) - 1e-9 <= s2.y_max <= max(pmax, bmax) + 1e-9
        assert min(pmin, bmin) - 1e-9 <= s2.y_min <= max(pmin, bmin) + 1e-9

    def test_repeated_data_converges_toward_extrema(self):
        s = ema_update(RangeState(momentum=0.9), 0.0, 1.0)
        gaps = []
        for _ in range(20):
            s = ema_update(s, 0.0, 2.0)
            gaps.append(2.0 - s.y_max)
        assert all(a > b >= 0 for a, b in zip(gaps, gaps[1:]))


def single_fc_model():
    layer = LayerSpec(kind="fc", name="lin", in_features=1, out_features=1,
                      weight=np.array([[1.0]]))
    return ModelGraph(layers=[layer], input_shape=(1,))


class TestCalibrate:
    def test_known_output_range(self):
        model = single_fc_model()
        data = np.linspace(0.0, 10.0, 101).reshape(-1, 1)
        calibrate(model, [data], momentum=0.0)
        assert model.layers[0].output_params.scale == pytest.approx(10 / 255)

    def test_constant_weights_flagged_and_widened(self):
        layer = LayerSpec(kind="fc", name="c", in_features=2, out_features=2,
                          weight=np.full((2, 2), 0.5))
        model = ModelGraph(layers=[layer], input_shape=(2,))
        calibrate(model, [np.random.default_rng(0).uniform(0, 1, (32, 2))])
        assert model.layers[0].range_flagged
        assert model.layers[0].weight_q.params.scale > 0

    def test_two_passes_deterministic(self, blob_data):
        from nestq.models import build_toy_mlp
        x = blob_data[0][:200]
        batches = [x[i:i + 50] for i in range(0, 200, 50)] * 2
        m1 = calibrate(build_toy_mlp(means=blob_data[2]), batches)
        m2 = calibrate(build_toy_mlp(means=blob_data[2]), batches)
        for a, b in zip(m1.layers, m2.layers):
            assert a.output_params == b.output_params

    def test_activation_grids_have_zero_offset(self, mlp):
        for i, layer in enumerate(mlp.layers):
            if layer.kind == "relu_pact":
                assert layer.alpha > 0
                assert mlp.output_grid(i).offset == 0.0

    def test_all_grids_satisfy_core_invariants(self, mlp, cnn):
        for model in (mlp, cnn):
            assert model.is_calibrated
            for i, layer in enumerate(model.layers):
                assert (layer.output_params is None) == (layer.kind not in POLICY_KINDS)
                tensors = [t for t in (layer.weight_q, layer.bias_q) if t is not None]
                assert len(tensors) == (layer.weight is not None) + (layer.bias is not None)
                for p in (model.output_grid(i - 1), model.output_grid(i),
                          *(t.params for t in tensors)):
                    if p is not None:
                        assert p.scale > 0
                        assert MIN_BITWIDTH <= p.bitwidth <= p.master_bitwidth \
                            <= MAX_BITWIDTH

    def test_recalibration_resets_clamps_and_flags(self, blob_data):
        from nestq.models import build_toy_mlp
        x, _, means = blob_data
        model = calibrate(build_toy_mlp(means=means), [x[:200]])
        model.layers[0].range_flagged = True
        calibrate(model, [2 * x[:200]])
        fresh = calibrate(build_toy_mlp(means=means), [2 * x[:200]])
        for a, b in zip(model.layers, fresh.layers):
            assert (a.alpha, a.range_flagged, a.output_params) == \
                (b.alpha, b.range_flagged, b.output_params)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_padded_conv_reads_a_grid_holding_its_padding(self, n):
        # Unextended, the first conv's grid starts near 5.0 and the second
        # conv pads with that grid's bottom: 107-109 output steps off at n = 8.
        model, x = build_padded_chain(n)
        calibrate(model, [x])
        assert model.layers[0].output_params.offset <= 0.0
        step = model.layers[1].output_params.scale
        for b in (n, n // 2):
            policy = BitPolicy((n, b))
            got, _ = forward(model, x, policy)
            assert np.max(np.abs(got - fake_quant_forward(model, x, policy))) <= step * (1 + 1e-9)

    def test_only_a_padded_input_grid_is_extended(self):
        # All-negative data: a padded conv's input grid tops out at 0.0, a fc's at the data.
        model, x = build_padded_chain()
        calibrate(model, [x - 2.0])
        top = model.input_params.offset + model.input_params.scale * 255
        assert top == pytest.approx(0.0, abs=1e-12)
        fc = calibrate(single_fc_model(), [np.linspace(-2.0, -1.0, 8).reshape(-1, 1)])
        assert fc.input_params.offset + fc.input_params.scale * 255 == pytest.approx(-1.0)

    @pytest.mark.parametrize("batches", [[], [np.ones((2, 1)), np.ones((0, 1))]])
    def test_no_samples_refused(self, batches):
        with pytest.raises(ValueError, match="no calibration samples"):
            calibrate(single_fc_model(), batches)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_infinite_data_refused_at_its_input_grid(self, value):
        data = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
        data[3] = value
        model = single_fc_model()
        with pytest.raises(DegenerateRangeError, match="calibration batch 0 holds NaN or ±inf"):
            calibrate(model, [data])
        assert model.input_params is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_leaves_a_calibrated_model_unchanged(self, blob_data,
                                                                 monkeypatch, value):
        """The refusal comes before the reset and the float passes, so every
        grid, clamp and flag, and the integer outputs, are those of before."""
        from nestq import calibration
        from nestq.models import build_toy_mlp
        x, _, means = blob_data
        model = calibrate(build_toy_mlp(means=means), [x[:100], x[100:200]])
        state = lambda: [(l.alpha, l.range_flagged, l.output_params, id(l.weight_q),
                          id(l.bias_q)) for l in model.layers] + [model.input_params]
        before, policy = state(), BitPolicy.uniform(8, len(model.policy_indices))
        want, _ = forward(model, x[:50], policy)
        bad = x[100:200].copy()
        bad[7, 3] = value

        def no_float_pass(*_):
            raise AssertionError("float_forward ran on data it refuses")
        monkeypatch.setattr(calibration, "float_forward", no_float_pass)
        with pytest.raises(DegenerateRangeError, match="calibration batch 1 holds NaN or ±inf"):
            calibrate(model, [x[:100], bad])
        assert state() == before
        assert np.array_equal(forward(model, x[:50], policy)[0], want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("attr", ["weight", "bias"])
    @pytest.mark.parametrize("arch", ["mlp", "block"])
    def test_non_finite_float_tensor_leaves_a_calibrated_model_unchanged(
            self, blob_data, cnn_data, monkeypatch, arch, attr, value):
        """The last MAC layer's float tensors are checked with the data, so a
        bad one is refused before the reset, the float passes and the earlier
        layers' new grids: the model and its integer outputs are those of before."""
        from conftest import build_block
        from nestq import calibration
        from nestq.models import build_toy_mlp
        x = blob_data[0] if arch == "mlp" else cnn_data[0]
        batches = [x[:50], x[50:100]]
        model = calibrate(build_toy_mlp(means=blob_data[2]) if arch == "mlp"
                          else build_block(), batches)
        layer = model.layers[-1]
        bad = getattr(layer, attr).copy()
        bad.flat[1] = value
        setattr(layer, attr, bad)
        tensors = lambda l: [None if t is None else (id(t), t.params, t.data.tobytes())
                             for t in (l.weight_q, l.bias_q)]
        state = lambda: [(l.alpha, l.range_flagged, l.output_params, tensors(l))
                         for l in model.layers] + [model.input_params]
        before, policy = state(), BitPolicy.uniform(8, len(model.policy_indices))
        want, _ = forward(model, x[:20], policy)

        def no_float_pass(*_):
            raise AssertionError("float_forward ran on a model it refuses")
        monkeypatch.setattr(calibration, "float_forward", no_float_pass)
        with pytest.raises(DegenerateRangeError,
                           match=f"^fc 'head' {attr} holds NaN or ±inf$"):
            calibrate(model, batches)
        assert state() == before
        assert np.array_equal(forward(model, x[:20], policy)[0], want)

    def test_mac_layer_feeding_clamp_adopts_clamp_grid(self, mlp):
        fc1, act1 = mlp.layers[0], mlp.layers[1]
        assert fc1.output_params.offset == 0.0
        top = fc1.output_params.scale * fc1.output_params.qmax
        assert top == pytest.approx(act1.alpha)

    @pytest.mark.parametrize("kind", ["fc", "conv2d", "residual_add"])
    def test_clamp_producer_carries_exactly_the_clamp_grid(self, mlp, cnn, make_block, kind):
        producers = 0
        for model in (mlp, cnn, make_block(8)):
            n = model.master_bitwidth
            for i, (layer, nxt) in enumerate(zip(model.layers, model.layers[1:])):
                if nxt.kind == "relu_pact" and layer.kind == kind:
                    assert layer.output_params == make_master_params(0.0, nxt.alpha, n)
                    assert model.output_grid(i + 1) is layer.output_params
                    producers += 1
        assert producers
