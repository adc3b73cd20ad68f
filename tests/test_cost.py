"""Cost model: BitOPs, transition accounting, cycle intervals."""

import numpy as np
import pytest

from nestq.cost import (
    CostReport,
    MAC_PRIMITIVES,
    bitops,
    cost_report,
    cycle_estimate,
    mac_primitive_counts,
    transition_elements,
)
from nestq.calibration import calibrate
from nestq.layers import BitPolicy, LayerSpec, ModelGraph, forward
from nestq.reference import enumerate_macs


def fc_model(n_in=10, n_out=10):
    layer = LayerSpec(kind="fc", in_features=n_in, out_features=n_out)
    return ModelGraph(layers=[layer], input_shape=(n_in,))


class TestBitops:
    def test_empty_model(self):
        model = ModelGraph(layers=[], input_shape=(4,))
        assert bitops(model, BitPolicy(bits=(), candidates=(8,))) == 0

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
                policy = BitPolicy(bits=bits, candidates=(2, 4, 5, 6, 8))
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
        policy = BitPolicy(bits=(8, 4, 8), candidates=(4, 8))
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
        policy = BitPolicy(bits=(4, 6, 8), candidates=(4, 6, 8))
        _, trace = forward(mlp, blob_data[0][0], policy)
        assert transition_elements(mlp, policy) == trace.shifted_elements


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
        policy = BitPolicy.uniform(5, 3, (5,))
        a = cost_report(cnn, policy, "dqt")
        b = cost_report(cnn, policy, "dqt")
        assert a == b

    def test_inloop_counts_follow_optimized_mac(self, mlp):
        rep = cost_report(mlp, BitPolicy.uniform(8, 3), "dqt")
        total = sum(rep.macs_per_layer)
        assert rep.inloop_mults == total and rep.inloop_adds == 2 * total

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
