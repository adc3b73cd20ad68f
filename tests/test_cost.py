"""Cost model: BitOPs, transition accounting, cycle intervals."""

import numpy as np
import pytest

from nestq.cost import (
    CostReport,
    bitops,
    cost_report,
    cycle_estimate,
    transition_elements,
)
from nestq.calibration import calibrate
from nestq.intops import MAC_PRIMITIVES, mac_primitive_counts
from nestq.layers import BitPolicy, LayerSpec, ModelGraph, forward
from nestq.models import build_toy_cnn, build_toy_mlp
from nestq.quantize import MIN_BITWIDTH
from nestq.reference import enumerate_macs


def fc_model(n_in=10, n_out=10):
    layer = LayerSpec(kind="fc", in_features=n_in, out_features=n_out)
    return ModelGraph(layers=[layer], input_shape=(n_in,))


def residual_pool_net():
    """conv + residual_add + avgpool + fc over 1x8x8 inputs."""
    rng = np.random.default_rng(21)
    layers = [
        LayerSpec(kind="conv2d", name="c1", in_channels=1, out_channels=4, kernel=3,
                  padding=1, weight=rng.normal(0, 0.4, (4, 1, 3, 3)),
                  bias=rng.normal(0, 0.1, 4)),
        LayerSpec(kind="relu_pact", name="a1"),
        LayerSpec(kind="conv2d", name="c2", in_channels=4, out_channels=4, kernel=3,
                  padding=1, weight=rng.normal(0, 0.3, (4, 4, 3, 3))),
        LayerSpec(kind="relu_pact", name="a2"),
        LayerSpec(kind="residual_add", name="skip", source=1),
        LayerSpec(kind="avgpool", name="pool", pool=2),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=64, out_features=3,
                  weight=rng.normal(0, 0.2, (3, 64)), bias=rng.normal(0, 0.1, 3)),
    ]
    return ModelGraph(layers=layers, input_shape=(1, 8, 8))


class TestBitops:
    def test_empty_model(self):
        model = ModelGraph(layers=[], input_shape=(4,))
        assert bitops(model, BitPolicy(())) == 0

    def test_single_fc_at_four_bits(self):
        model = fc_model()
        assert bitops(model, BitPolicy.uniform(4, 1)) == 1600

    def test_doubling_bits_quadruples(self):
        model = fc_model()
        assert bitops(model, BitPolicy.uniform(8, 1)) == \
            4 * bitops(model, BitPolicy.uniform(4, 1))

    def test_matches_enumerator_on_toys(self, mlp, cnn):
        rng = np.random.default_rng(0)
        for model in (mlp, cnn):
            macs = enumerate_macs(model)
            for _ in range(10):
                bits = tuple(int(b) for b in
                             rng.choice([2, 4, 5, 6, 8], model.num_policy_layers))
                policy = BitPolicy(bits)
                assert bitops(model, policy) == sum(m * b * b
                                                    for m, b in zip(macs, bits))


class TestTransitionCost:
    def test_all_master_policy_costs_zero(self, mlp):
        policy = BitPolicy.uniform(8, 3)
        assert transition_elements(mlp, policy) == 0
        assert cost_report(mlp, policy, "dqt").transition_shift_ops == 0
        assert cost_report(mlp, policy, "standard").transition_fp_primitives == 0

    def test_all_layers_below_master(self, mlp):
        policy = BitPolicy.uniform(4, 3)
        expected = sum(mlp.layers[i].weight_elements() + mlp.layers[i].input_elements()
                       for i in mlp.policy_indices)
        assert transition_elements(mlp, policy) == expected
        assert cost_report(mlp, policy, "dqt").transition_shift_ops == expected

    def test_standard_primitives_are_seven_per_element(self, mlp):
        policy = BitPolicy((8, 4, 8))
        rep_std = cost_report(mlp, policy, "standard")
        rep_dqt = cost_report(mlp, policy, "dqt")
        e = transition_elements(mlp, policy)
        assert rep_std.transition_fp_primitives == 7 * e
        assert rep_dqt.transition_shift_ops == e
        assert rep_std.transition_fp_primitives == 7 * rep_dqt.transition_shift_ops

    def test_unknown_mode_rejected(self, mlp):
        with pytest.raises(ValueError):
            cost_report(mlp, BitPolicy.uniform(8, 3), "gpu")

    def test_matches_execution_trace(self, mlp, blob_data):
        policy = BitPolicy((4, 6, 8))
        _, trace = forward(mlp, blob_data[0][0], policy)
        assert transition_elements(mlp, policy) == trace.counters.shifts


class TestMacPrimitives:
    def test_table(self):
        assert mac_primitive_counts("standard") == {"mul": 1, "add": 3}
        assert mac_primitive_counts("dqt_pact") == {"mul": 1, "add": 2}
        assert mac_primitive_counts("dqt_general") == {"mul": 3, "add": 2}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mac_primitive_counts("fused")

    def test_matches_instrumented_counters(self):
        from nestq.intops import dot_constants, int_dot_pact, standard_mac_dot
        from nestq.quantize import make_master_params

        px = make_master_params(0.0, 1.0, 8)
        pw = make_master_params(-1.0, 1.0, 8)
        py = make_master_params(-5.0, 5.0, 8)
        c = dot_constants(px, pw, py, 100)
        xq = np.ones(100, dtype=int)
        _, pact = int_dot_pact(xq, xq, c, py)
        _, std = standard_mac_dot(xq, xq, 0, 128)
        t = MAC_PRIMITIVES
        assert (pact.mults, pact.adds) == (100 * t["dqt_pact"]["mul"],
                                           100 * t["dqt_pact"]["add"])
        assert (std.mults, std.adds) == (100 * t["standard"]["mul"],
                                         100 * t["standard"]["add"])


class TestCycleEstimate:
    def base_report(self, e, mode):
        return CostReport(bitops=0, macs_per_layer=[], transition_elements=e,
                          mode=mode, transition_shift_ops=0,
                          transition_fp_primitives=0, inloop_mults=0, inloop_adds=0)

    def test_standard_interval(self):
        lo, hi = cycle_estimate(self.base_report(1_250_000, "standard"))
        assert (lo, hi) == (25_000_000, 68_750_000)

    def test_shift_pipeline_one_cycle_per_element(self):
        assert cycle_estimate(self.base_report(1_250_000, "dqt")) == \
            (1_250_000, 1_250_000)

    def test_zero_elements(self):
        assert cycle_estimate(self.base_report(0, "standard")) == (0, 0)


class TestCostReport:
    def test_pure_function_of_inputs(self, cnn):
        policy = BitPolicy.uniform(5, 3)
        a = cost_report(cnn, policy, "dqt")
        b = cost_report(cnn, policy, "dqt")
        assert a == b

    def test_inloop_counts_follow_optimized_mac(self, mlp):
        # The factored loop per MAC plus the fused bias term per biased output.
        rep = cost_report(mlp, BitPolicy.uniform(8, 3), "dqt")
        total = sum(rep.macs_per_layer)
        biased = sum(l.out_features for l in mlp.layers if l.bias_q is not None)
        assert (total, biased) == (1088, 52)
        assert (rep.inloop_mults, rep.inloop_adds) == (total + biased, 2 * total + biased)

    def test_inloop_counts_follow_general_mac_on_offset_inputs(self):
        rng = np.random.default_rng(4)
        layer = LayerSpec(kind="fc", name="fc", in_features=6, out_features=3,
                          weight=rng.normal(size=(3, 6)))
        model = ModelGraph(layers=[layer], input_shape=(6,))
        data = rng.normal(size=(50, 6))  # negative inputs: nonzero input offset
        calibrate(model, [data])
        policy = BitPolicy.uniform(8, 1)
        rep = cost_report(model, policy, "dqt")
        total = sum(rep.macs_per_layer)
        assert (rep.inloop_mults, rep.inloop_adds) == (3 * total, 2 * total)
        _, trace = forward(model, data[0], policy)  # no bias: only the MAC loop
        assert (trace.counters.mults, trace.counters.adds) == \
            (rep.inloop_mults, rep.inloop_adds)

    def test_model_without_grids_charged_factored_loop(self):
        rep = cost_report(fc_model(), BitPolicy.uniform(8, 1), "dqt")
        assert (rep.inloop_mults, rep.inloop_adds) == (100, 200)

    def test_toy_cnn_counts(self, cnn, cnn_data):
        policy = BitPolicy.uniform(4, 3)
        rep = cost_report(cnn, policy)
        _, trace = forward(cnn, cnn_data[0][0], policy)
        assert (rep.inloop_mults, rep.inloop_adds, rep.transition_elements) == \
            (7812, 15236, 1284)
        assert (trace.counters.mults, trace.counters.adds, trace.counters.shifts) == \
            (7812, 15236, 1284)

    def test_residual_pool_counts(self):
        rep = cost_report(residual_pool_net(), BitPolicy.uniform(8, 4))
        # c1: 256 outputs x 9 MACs + bias; c2: 256 x 36 MACs; skip: 256 adds of
        # 2 + 2; pool: one add per each of 256 inputs; head: 3 x 64 MACs + bias.
        assert rep.inloop_mults == (2304 + 256) + 9216 + 2 * 256 + (192 + 3)
        assert rep.inloop_adds == (2 * 2304 + 256) + 2 * 9216 + 2 * 256 + 256 + (2 * 192 + 3)

    def test_pool_charges_only_the_elements_it_sums(self):
        # A 2x2 pool over 5x5 sums the top-left 4x4 block; the last row and
        # column are cropped, so it runs 16 adds, not 25.
        rng = np.random.default_rng(4)
        model = ModelGraph(layers=[
            LayerSpec(kind="avgpool", name="pool", pool=2),
            LayerSpec(kind="flatten", name="flat"),
            LayerSpec(kind="fc", name="head", in_features=4, out_features=2,
                      weight=rng.normal(size=(2, 4))),
        ], input_shape=(1, 5, 5))
        data = rng.uniform(0, 1, (20, 1, 5, 5))
        calibrate(model, [data])
        policy = BitPolicy.uniform(8, 1)
        _, trace = forward(model, data[0], policy)
        assert trace.records[0].counters.adds == 16
        rep = cost_report(model, policy)
        assert (rep.inloop_mults, rep.inloop_adds) == (8, 16 + 2 * 8)
        assert (trace.counters.mults, trace.counters.adds) == (rep.inloop_mults, rep.inloop_adds)


class TestPolicyRefused:
    """Cost refuses every policy that inference refuses."""

    @pytest.mark.parametrize("bits", [(8, 8), (8, 8, 8, 8), (8, 9, 8), (8, 1, 8)],
                             ids=["too-short", "too-long", "above-n", "below-min"])
    def test_cost_report_refuses(self, mlp, blob_data, bits):
        policy = BitPolicy(bits)
        for fn in (cost_report, bitops, transition_elements,
                   lambda m, p: forward(m, blob_data[0][0], p)):
            with pytest.raises(ValueError):
                fn(mlp, policy)

    def test_bitwidths_per_layer(self, mlp):
        policy = BitPolicy((4, MIN_BITWIDTH, 8))
        assert mlp.layer_bitwidths(policy) == [4, 8, MIN_BITWIDTH, 8, 8]


class TestReportEqualsTrace:
    """``cost_report`` sums exactly what ``forward`` charges to its trace."""

    @pytest.fixture(params=["mlp", "cnn", "residual"])
    def net(self, request, blob_data, cnn_data):
        if request.param == "mlp":
            x, _, means = blob_data
            return (lambda: build_toy_mlp(seed=7, means=means)), x[:200]
        if request.param == "cnn":
            return (lambda: build_toy_cnn(seed=11)), cnn_data[0]
        return residual_pool_net, np.random.default_rng(2).uniform(0, 2, (60, 1, 8, 8))

    def policies(self, model, seed):
        rng = np.random.default_rng(seed)
        cands = tuple(range(MIN_BITWIDTH, model.master_bitwidth + 1))
        return [BitPolicy(tuple(int(b) for b in rng.choice(cands, model.num_policy_layers)))
                for _ in range(12)]

    def check(self, models, x, policies):
        for policy in policies:
            _, trace = forward(models[0], x, policy)
            c = trace.counters
            want = (c.mults, c.adds, c.shifts)
            for model in models:
                rep = cost_report(model, policy)
                assert (rep.inloop_mults, rep.inloop_adds, rep.transition_elements) == want

    def test_calibrated_and_shape_only(self, net):
        build, data = net
        model = build()
        calibrate(model, [data[:50]])
        # Every policy layer reads a zero-offset grid, so a model without
        # grids (charged the factored loop) is counted the same.
        assert all(model.output_grid(i - 1).offset == 0 for i in model.policy_indices)
        self.check([model, build()], data[50], self.policies(model, 0))

    def test_offset_inputs(self, net):
        build, data = net
        model = build()
        shifted = data - data.max()  # negative inputs: the first layer runs the general loop
        calibrate(model, [shifted[:50]])
        assert model.output_grid(-1).offset != 0
        self.check([model], shifted[50], self.policies(model, 1))
