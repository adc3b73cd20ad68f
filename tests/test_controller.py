"""Bit-width controller: forward shape, argmax selection, sampling, cost term."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestq.controller import (
    ControllerSpec,
    controller_forward,
    gumbel_softmax_sample,
    j_cost,
    pool_features,
    range_heuristic_policy,
    select_argmax,
)
from nestq.layers import BitPolicy


class TestControllerForward:
    def test_logit_shape(self):
        spec = ControllerSpec(num_layers=3, candidates=(4, 5, 6), seed=0)
        logits = controller_forward(spec, np.ones(16))
        assert logits.shape == (3, 3)

    def test_zero_weights_zero_logits(self):
        spec = ControllerSpec(num_layers=2, candidates=(4, 8), seed=0)
        spec.w1 = np.zeros_like(spec.w1)
        spec.w2 = np.zeros_like(spec.w2)
        assert np.all(controller_forward(spec, np.ones(16)) == 0)

    def test_seeded_reproducibility(self):
        a = ControllerSpec(num_layers=2, candidates=(4, 8), seed=11)
        b = ControllerSpec(num_layers=2, candidates=(4, 8), seed=11)
        x = np.arange(16.0)
        assert np.array_equal(controller_forward(a, x), controller_forward(b, x))

    @pytest.mark.parametrize("kwargs", [{"feature_dim": 0}, {"feature_dim": -2},
                                        {"candidates": ()}],
                             ids=["feature_dim-0", "feature_dim-negative", "no-candidates"])
    def test_unusable_spec_refused(self, kwargs):
        with pytest.raises(ValueError, match="feature_dim >= 1 and a candidate"):
            ControllerSpec(**{"num_layers": 3, "candidates": (4, 8), "seed": 0, **kwargs})

    def test_input_too_small_rejected(self):
        spec = ControllerSpec(num_layers=1, candidates=(4, 8), feature_dim=16, seed=0)
        with pytest.raises(ValueError):
            controller_forward(spec, np.ones(4))

    def test_pooling_segments_average(self):
        feats = pool_features(np.array([1.0, 3.0, 5.0, 7.0]), 2)
        assert np.allclose(feats, [2.0, 6.0])


def segment_means(x, feature_dim):
    """Reference: the mean of each of feature_dim linspace segments, one at a time."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    bounds = np.linspace(0, flat.size, feature_dim + 1).astype(int)
    return np.array([flat[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])


class TestPoolFeatures:
    @pytest.mark.parametrize("feature_dim", [1, 2, 3, 7, 16])
    def test_even_split_bit_identical_to_segment_loop(self, feature_dim):
        rng = np.random.default_rng(feature_dim)
        for per_segment in (1, 2, 3, 5, 8, 9, 16, 33, 64, 100, 257):
            for scale in (1e-3, 1.0, 1e6):
                x = rng.standard_normal(feature_dim * per_segment) * scale
                assert np.array_equal(pool_features(x, feature_dim),
                                      segment_means(x, feature_dim))

    def test_image_input_pools_its_flattened_values(self):
        x = np.random.default_rng(1).uniform(-1, 3, size=(1, 16, 16))
        assert np.array_equal(pool_features(x, 16), segment_means(x, 16))

    @pytest.mark.parametrize("size,feature_dim", [(17, 4), (10, 3), (255, 16), (7, 6)])
    def test_uneven_split_keeps_the_segment_loop(self, size, feature_dim):
        x = np.random.default_rng(size).standard_normal(size)
        assert size % feature_dim
        assert np.array_equal(pool_features(x, feature_dim), segment_means(x, feature_dim))


class TestSelectArgmax:
    def test_one_hot_rows(self):
        logits = np.array([[0, 10, 0], [10, 0, 0]])
        assert select_argmax(logits, (2, 4, 8)).bits == (4, 2)

    def test_all_equal_row_takes_smallest(self):
        assert select_argmax(np.zeros((1, 3)), (2, 4, 8)).bits == (2,)

    def test_plain_argmax(self):
        assert select_argmax(np.array([[0.1, 0.9, 0.3]]), (2, 4, 8)).bits == (4,)

    def test_returns_the_policy_of_its_bits(self):
        # equal to, and hashed as, the policy a caller builds from the bits alone
        policy = select_argmax(np.array([[0, 10, 0], [10, 0, 0]]), (8, 2, 4))
        assert policy == BitPolicy((4, 2)) and hash(policy) == hash(BitPolicy((4, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            select_argmax(np.array([[np.nan, 0.0]]), (4, 8))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejects_non_finite_anywhere(self, value):
        logits = np.random.default_rng(3).normal(size=(4, 3))
        for at in np.ndindex(logits.shape):
            bad = logits.copy()
            bad[at] = value
            with pytest.raises(ValueError, match="logits must be finite"):
                select_argmax(bad, (2, 4, 8))

    def test_no_layers_no_bits(self):
        assert select_argmax(np.empty((0, 3)), (2, 4, 8)) == BitPolicy(())

    # logits on a coarse grid: exact ties stay exact under shift and scale,
    # and non-ties stay far above float rounding noise
    @given(st.lists(st.lists(st.integers(-100, 100).map(lambda v: v / 4),
                             min_size=3, max_size=3),
                    min_size=1, max_size=4),
           st.integers(-20, 20).map(lambda v: v / 4),
           st.integers(1, 40).map(lambda v: v / 4))
    @settings(max_examples=200)
    def test_invariance_to_shift_and_positive_scale(self, rows, c, s):
        logits = np.array(rows)
        base = select_argmax(logits, (2, 4, 8))
        assert select_argmax(logits + c, (2, 4, 8)).bits == base.bits
        assert select_argmax(logits * s, (2, 4, 8)).bits == base.bits


class TestPoliciesUnchanged:
    """The controller's arithmetic may get faster, never change a bit."""

    def test_seeded_pool(self):
        rng = np.random.default_rng(23)
        spec = ControllerSpec(num_layers=3, candidates=(4, 8, 12), feature_dim=8, hidden=16,
                              source="loaded", w1=rng.standard_normal((16, 8)),
                              b1=rng.standard_normal(16), w2=rng.standard_normal((9, 16)),
                              b2=rng.standard_normal(9))
        pool = rng.uniform(0.0, 2.0, size=(1024, 32))
        bits = []
        for x in pool:
            logits = controller_forward(spec, x)
            feats = x.reshape(8, -1).mean(axis=1)
            plain = spec.w2 @ np.maximum(spec.w1 @ feats + spec.b1, 0.0) + spec.b2
            assert np.array_equal(logits, plain.reshape(3, 3))
            bits.append(select_argmax(logits, spec.candidates).bits)
            assert bits[-1] == tuple(spec.candidates[int(np.argmax(r))] for r in logits)
        assert len(set(bits)) > 1
        digest = hashlib.sha256(np.array(bits, dtype="<i8").tobytes()).hexdigest()
        assert digest == "1c3dcd369eb9c51c2ae2a65c15570670f0d4f098a4b09c70a9f697b5b5ae0798"


class TestGumbelSoftmax:
    def test_rows_sum_to_one(self):
        probs, hard = gumbel_softmax_sample(np.random.default_rng(0)
                                            .normal(size=(5, 3)), 1.0, seed=1)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(hard.sum(axis=1) == 1.0)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            gumbel_softmax_sample(np.zeros((1, 2)), 0.0)

    def test_seeded_reproducibility(self):
        logits = np.ones((2, 3))
        p1, h1 = gumbel_softmax_sample(logits, 0.5, seed=9)
        p2, h2 = gumbel_softmax_sample(logits, 0.5, seed=9)
        assert np.array_equal(p1, p2) and np.array_equal(h1, h2)

    def test_low_temperature_concentrates_on_argmax(self):
        logits = np.array([[0.0, 5.0, 0.0]])
        probs, hard = gumbel_softmax_sample(logits, 1e-3, seed=3)
        assert hard[0, 1] == 1.0 and probs[0, 1] > 0.999

    def test_uniform_logits_frequencies_within_three_sigma(self):
        k, draws = 3, 10_000
        counts = np.zeros(k)
        logits = np.zeros((1, k))
        for seed in range(draws):
            _, hard = gumbel_softmax_sample(logits, 1.0, seed=seed)
            counts += hard[0]
        expected = draws / k
        sigma = np.sqrt(draws * (1 / k) * (1 - 1 / k))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_hard_sample_is_valid_policy(self):
        cands = (4, 5, 6)
        _, hard = gumbel_softmax_sample(np.random.default_rng(4).normal(size=(3, 3)),
                                        1.0, seed=4)
        policy = select_argmax(hard, cands)
        assert all(b in cands for b in policy.bits)


class TestJCost:
    def test_one_hot_at_four(self):
        p = np.zeros((3, 3))
        p[:, 1] = 1.0
        assert j_cost(p, (2, 4, 8)) == 4.0

    def test_uniform_rows(self):
        p = np.full((5, 3), 1 / 3)
        assert j_cost(p, (2, 4, 8)) == pytest.approx(14 / 3)

    def test_two_rows_mixed(self):
        p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert j_cost(p, (2, 4, 8)) == 5.0

    def test_rejects_malformed_distribution(self):
        with pytest.raises(ValueError):
            j_cost(np.array([[0.5, 0.2, 0.2]]), (2, 4, 8))
        with pytest.raises(ValueError):
            j_cost(np.array([[0.5, 0.5]]), (2, 4, 8))

    @given(st.lists(st.lists(st.floats(0.01, 1), min_size=3, max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_bounded_by_candidate_extremes(self, rows):
        p = np.array(rows)
        p /= p.sum(axis=1, keepdims=True)
        v = j_cost(p, (2, 4, 8))
        assert 2.0 - 1e-9 <= v <= 8.0 + 1e-9


class TestRangeHeuristic:
    def test_policy_valid_and_deterministic(self, mlp):
        cands = (4, 5, 6)
        p1 = range_heuristic_policy(mlp, cands)
        p2 = range_heuristic_policy(mlp, cands)
        assert p1.bits == p2.bits
        assert all(b in cands for b in p1.bits)
        assert len(p1) == mlp.num_policy_layers

    def test_returns_the_policy_of_its_bits(self, mlp):
        policy = range_heuristic_policy(mlp, (6, 4, 5))
        assert policy == BitPolicy(policy.bits) and hash(policy) == hash(BitPolicy(policy.bits))

    def test_wider_range_gets_more_bits(self, mlp):
        policy = range_heuristic_policy(mlp, (4, 5, 6))
        spans = [mlp.layers[i].output_params.scale * mlp.layers[i].output_params.qmax
                 for i in mlp.policy_indices]
        widest = int(np.argmax(spans))
        narrowest = int(np.argmin(spans))
        assert policy.bits[widest] >= policy.bits[narrowest]

    @pytest.mark.parametrize("cands, want", [
        ((2, 4, 6, 8), (2, 4, 8)), ((4, 5, 6, 7, 8), (4, 6, 8)), ((4, 5, 6), (4, 5, 6)),
    ])
    def test_widest_range_gets_the_top_candidate(self, mlp, cands, want):
        # This MLP's range ranks are [0, 1, 2]: the head is widest.
        assert range_heuristic_policy(mlp, cands).bits == want

    def test_as_many_layers_as_candidates_or_more_unchanged(self, mlp, cnn, make_block):
        """Every candidate set no larger than the policy gets rank r's bin r·k // m."""
        for model in (mlp, cnn, make_block(8)):
            spans = [model.layers[i].output_params.scale * model.layers[i].output_params.qmax
                     for i in model.policy_indices]
            order, m = np.argsort(np.argsort(spans)), len(spans)
            for k in range(1, m + 1):
                for cands in itertools.combinations(range(2, 9), k):
                    old = tuple(cands[min(int(b), k - 1)] for b in (order * k) // m)
                    assert range_heuristic_policy(model, cands).bits == old
