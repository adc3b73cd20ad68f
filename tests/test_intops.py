"""Integer operators: constants, fixed-point encoding, the int64 proof."""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constants_at
from nestq.analysis import _check, _random_params, exact_value, op_error_bound
from nestq.intops import (
    INT64_MAX,
    AccumulatorOverflowError,
    OpCounters,
    add_constants,
    dot_constants,
    fit_frac_bits,
    int_add,
    int_dot,
    int_dot_pact,
    int_mul,
    linear_bound,
    mul_constants,
    raw,
    standard_mac_dot,
    terms,
)
from nestq.quantize import QuantParams, make_master_params, round_half_away_int


def params(scale, offset, b=8, n=8):
    return QuantParams(scale=scale, offset=offset, bitwidth=b, master_bitwidth=n)


UNIT = params(1.0, 0.0)


class TestTerms:
    def test_add_and_dot_weight_operands_as_given(self):
        assert terms("add", (3, 4)) == (3, 4)
        assert terms("dot", (10, 3, 4, 7)) == (10, 3, 4, 7)

    def test_mul_weights_product_and_factors(self):
        assert terms("mul", (3, 4)) == (12, 3, 4)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            terms("shift", (1,))

    def test_uint8_operands_do_not_wrap(self):
        assert terms("mul", (np.uint8(200), np.uint8(200)))[0] == 40_000
        c = mul_constants(UNIT, UNIT, params(1.0, 0.0, 16, 16))
        assert raw(c, (np.uint8(200), np.uint8(200))) == 40_000 << c.frac_bits

    def test_raw_refuses_wrong_operand_count(self):
        with pytest.raises(ValueError):
            raw(add_constants(UNIT, UNIT, UNIT), (1, 2, 3))


class TestAddConstants:
    def test_unit_ratios(self):
        c = add_constants(UNIT, UNIT, UNIT)
        one = 1 << c.frac_bits
        assert c.k == (one, one, 0) and not c.degenerate

    def test_mixed_scales_and_offsets(self):
        c = constants_at(add_constants(params(0.5, 1.0), params(0.25, 0.5),
                                       params(0.25, 0.0)), 0)
        assert c.k == (2, 1, 6)

    def test_fractional_encoding(self):
        c = constants_at(add_constants(params(0.3, 0.0), UNIT, UNIT), 4)
        assert c.k[0] == 5  # round(0.3 * 16)

    def test_degeneracy_flag(self):
        # tiny nonzero ratio collapses to zero at F=0, not at 16 or the fitted F
        fitted = add_constants(params(1e-4, 0.0), UNIT, UNIT)
        assert constants_at(fitted, 0).degenerate
        assert not constants_at(fitted, 16).degenerate
        assert not fitted.degenerate

    @given(st.integers(0, 20))
    @settings(max_examples=30)
    def test_encoding_error_bound(self, f):
        c = constants_at(add_constants(params(0.37, 0.11), params(0.91, -0.2),
                                       params(0.53, 0.0)), f)
        for d in c.deltas():
            assert abs(d) <= Fraction(1, 2 ** (f + 1))

    def test_refinement_monotone(self):
        fitted = add_constants(params(0.37, 0.11), params(0.91, -0.2), params(0.53, 0.0))
        prev = None
        for f in range(0, 24):
            worst = max(abs(d) for d in constants_at(fitted, f).deltas())
            if prev is not None:
                assert worst <= prev
            prev = worst


class TestIntAdd:
    def test_plain_addition(self):
        c = add_constants(UNIT, UNIT, UNIT)
        assert int_add(3, 4, c, UNIT) == 7

    def test_worked_example_matches_float_oracle(self):
        p1, p2, py = params(0.5, 1.0), params(0.25, 0.5), params(0.25, 0.0)
        c = add_constants(p1, p2, py)
        # x1 = 1 + 0.5*3 = 2.5, x2 = 0.5 + 0.25*4 = 1.5, (2.5+1.5)/0.25 = 16
        assert int_add(3, 4, c, py) == 16

    def test_saturates_at_qmax(self):
        c = add_constants(UNIT, UNIT, UNIT)
        assert int_add(200, 200, c, UNIT) == 255

    def test_clips_below_zero(self):
        py = params(1.0, 10.0)
        c = add_constants(UNIT, UNIT, py)  # k3 = -10 * 2^F
        assert int_add(1, 2, c, py) == 0

    def test_role_checked(self):
        c = mul_constants(UNIT, UNIT, UNIT)
        with pytest.raises(ValueError):
            int_add(1, 1, c, UNIT)

    def test_high_precision_matches_oracle_within_one_step(self):
        p1 = make_master_params(-1.0, 2.0, 8)
        p2 = make_master_params(0.0, 3.5, 8)
        py = make_master_params(-1.0, 5.5, 8)
        c = add_constants(p1, p2, py)
        for q1, q2 in product(range(0, 256, 5), range(0, 256, 5)):
            exact = exact_value(c, (q1, q2))
            got = int_add(q1, q2, c, py)
            want = min(max(round(exact), 0), 255)
            assert abs(got - int(want)) <= 1


class TestMulConstants:
    def test_all_unit(self):
        c = mul_constants(UNIT, UNIT, UNIT)
        assert c.k == (1 << c.frac_bits, 0, 0, 0)

    def test_product_of_scales(self):
        c = mul_constants(params(0.5, 0.0), params(0.5, 0.0), params(0.25, 0.0))
        assert c.k == (1 << c.frac_bits, 0, 0, 0)

    def test_zero_offset_kills_k3(self):
        c = mul_constants(params(0.5, 0.0), params(0.5, 2.0), params(0.25, 0.0))
        assert c.exact[2] == 0 and c.k[2] == 0


class TestIntMul:
    def test_plain_product(self):
        c = mul_constants(UNIT, UNIT, UNIT)
        assert int_mul(2, 3, c, UNIT) == 6

    def test_worked_example(self):
        p = params(0.5, 0.0)
        py = params(0.25, 0.0)
        c = mul_constants(p, p, py)
        # x1 = 1.0, x2 = 1.5, product 1.5 -> 1.5/0.25 = 6
        assert int_mul(2, 3, c, py) == 6

    def test_all_zero_constants(self):
        c = constants_at(mul_constants(params(1e-9, 0.0), params(1e-9, 0.0), UNIT), 0)
        assert c.degenerate
        assert int_mul(10, 20, c, UNIT) == 0

    def test_high_precision_matches_oracle_within_one_step(self):
        p1 = make_master_params(-0.5, 0.7, 8)
        p2 = make_master_params(-0.9, 1.1, 8)
        py = make_master_params(-1.0, 1.0, 8)
        c = mul_constants(p1, p2, py)
        for q1, q2 in product(range(0, 256, 5), range(0, 256, 5)):
            exact = exact_value(c, (q1, q2))
            want = min(max(round(exact), 0), 255)
            assert abs(int_mul(q1, q2, c, py) - int(want)) <= 1


class TestIntDot:
    def test_single_element_reduces_to_mul(self):
        p1, p2 = params(0.5, 0.25), params(0.25, 0.5)
        py = params(0.125, 0.0)
        c_dot = dot_constants(p1, p2, py, length=1)
        c_mul = mul_constants(p1, p2, py)
        assert c_dot.k[3] == 0  # no bias grid, no bias term
        assert c_dot.k[:3] + c_dot.k[4:] == c_mul.k
        for q1, q2 in product(range(0, 256, 17), repeat=2):
            assert int_dot([q1], [q2], c_dot, py) == int_mul(q1, q2, c_mul, py)

    def test_all_zero_x_leaves_offset_terms(self):
        px, pw = params(1.0, 0.0), params(1.0, 2.0)
        py = params(1.0, 0.0)
        c = constants_at(dot_constants(px, pw, py, length=4), 0)
        wq = np.array([1, 2, 3, 4])
        # S1 = S2 = 0: result is clip(round_shift(k3*S3 + k5))
        assert int_dot(np.zeros(4, dtype=int), wq, c, py) == \
            min(max(c.k[2] * 10 + c.k[4], 0), 255)

    def test_length_mismatch_rejected(self):
        c = dot_constants(UNIT, UNIT, UNIT, 3)
        with pytest.raises(ValueError):
            int_dot([1, 2], [1, 2, 3], c, UNIT)

    def test_random_zero_offset_within_bound_of_oracle(self):
        rng = np.random.default_rng(42)
        px = make_master_params(0.0, 4.0, 8)
        pw = make_master_params(0.0, 2.0, 8)
        py = make_master_params(0.0, 600.0, 8)
        pb = make_master_params(-50.0, 30.0, 8)
        for bias_grid in (None, pb):
            c = dot_constants(px, pw, py, 64, bias_grid)
            for _ in range(50):
                xq = rng.integers(0, 256, 64)
                wq = rng.integers(0, 256, 64)
                qb = int(rng.integers(0, 256)) if bias_grid is not None else 0
                b_hat = qb * pb.scale + pb.offset if bias_grid is not None else 0.0
                x_hat = xq * px.scale + px.offset
                w_hat = wq * pw.scale + pw.offset
                want = np.clip(round((float(x_hat @ w_hat) + b_hat - py.offset) / py.scale),
                               0, 255)
                s1 = int(xq @ wq)
                bound = op_error_bound(c, (s1, int(xq.sum()), int(wq.sum()), qb)).bound
                # the final rounding of both sides can add one more step
                assert abs(int_dot(xq, wq, c, py, qb=qb) - want) <= float(bound) + 1


class TestPactDot:
    def test_equals_general_dot_exhaustive_small(self):
        px = make_master_params(0.0, 3.0, 6)  # zero offset
        pw = make_master_params(-1.0, 2.0, 6)
        py = make_master_params(-2.0, 8.0, 6)
        for n_len in range(1, 5):
            c = dot_constants(px, pw, py, n_len)
            for xq in product(range(0, 64, 21), repeat=n_len):
                for wq in product(range(0, 64, 21), repeat=n_len):
                    got, _ = int_dot_pact(np.array(xq), np.array(wq), c, py)
                    assert got == int_dot(np.array(xq), np.array(wq), c, py)

    def test_equals_general_dot_random_large(self):
        rng = np.random.default_rng(7)
        px = make_master_params(0.0, 5.0, 8)
        pw = make_master_params(-2.0, 2.0, 8)
        py = make_master_params(-10.0, 50.0, 8)
        for _ in range(200):
            n_len = int(rng.integers(5, 200))
            c = dot_constants(px, pw, py, n_len)
            xq = rng.integers(0, 256, n_len)
            wq = rng.integers(0, 256, n_len)
            got, _ = int_dot_pact(xq, wq, c, py)
            assert got == int_dot(xq, wq, c, py)

    def test_role_checked_first(self):
        # mul constants with a nonzero exact[2] are refused for their role
        c = mul_constants(make_master_params(-1.0, 1.0, 8), UNIT, UNIT)
        with pytest.raises(ValueError, match="role"):
            int_dot_pact([1], [1], c, UNIT)

    def test_rejects_nonzero_activation_offset(self):
        px = make_master_params(-1.0, 1.0, 8)
        c = dot_constants(px, UNIT, UNIT, 4)
        with pytest.raises(ValueError):
            int_dot_pact([1, 2, 3, 4], [1, 1, 1, 1], c, UNIT)

    def test_inloop_counters_one_mul_two_adds_per_element(self):
        px = make_master_params(0.0, 1.0, 8)
        c = dot_constants(px, UNIT, UNIT, 100)
        _, counters = int_dot_pact(np.ones(100, dtype=int), np.ones(100, dtype=int),
                                   c, UNIT)
        assert counters.mults == 100 and counters.adds == 200

    def test_empty_vector(self):
        px = make_master_params(0.0, 1.0, 8)
        py = params(1.0, -3.0)
        c = constants_at(dot_constants(px, UNIT, py, 0), 0)
        got, counters = int_dot_pact(np.empty(0, dtype=int), np.empty(0, dtype=int),
                                     c, py)
        assert got == min(max(c.k[4], 0), 255)
        assert counters.mults == 0 and counters.adds == 0


class TestStandardMacBaseline:
    def test_inloop_counters_one_mul_three_adds_per_element(self):
        acc, counters = standard_mac_dot(np.ones(100, dtype=int),
                                         np.ones(100, dtype=int), 0, 0)
        assert counters.mults == 100 and counters.adds == 300

    def test_accumulates_zero_point_corrected_products(self):
        xq = np.array([5, 6, 7])
        wq = np.array([1, 2, 3])
        acc, _ = standard_mac_dot(xq, wq, 4, 1)
        assert acc == int((xq - 4) @ (wq - 1))


class TestOpCounters:
    def test_total_is_a_new_value(self):
        a = OpCounters(mults=1, adds=2, shifts=3)
        total = OpCounters.total([a, OpCounters(mults=4, adds=5, shifts=6)])
        assert total == OpCounters(mults=5, adds=7, shifts=9)
        assert a == OpCounters(mults=1, adds=2, shifts=3)
        assert OpCounters.total([]) == OpCounters()
        with pytest.raises(FrozenInstanceError):
            a.mults = 0


class TestFitFracBits:
    @staticmethod
    def proof_holds(ratios, magnitudes, f):
        k = [round_half_away_int(r * (1 << f)) for r in ratios]
        return linear_bound(k, magnitudes, f) <= INT64_MAX

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            terms = int(rng.integers(1, 4))
            ratios = [Fraction(int(rng.integers(-1000, 1001)), 1 << int(rng.integers(0, 40)))
                      * (1 << int(rng.integers(0, 30))) for _ in range(terms + 1)]
            mags = [int(rng.integers(1, 1 << int(rng.integers(1, 40)))) for _ in range(terms)]
            passing = [f for f in range(63) if self.proof_holds(ratios, mags, f)]
            if passing:
                assert fit_frac_bits(ratios, mags) == max(passing)
            else:
                with pytest.raises(AccumulatorOverflowError):
                    fit_frac_bits(ratios, mags)

    def test_small_operator_capped_at_62(self):
        assert fit_frac_bits([Fraction(1), Fraction(0)], [1]) == 62

    def test_refused_when_integer_constants_overflow(self):
        with pytest.raises(AccumulatorOverflowError):
            fit_frac_bits([Fraction(1 << 60), Fraction(0)], [255])

    def test_rescaled_magnitude_covers_shifted_constant(self):
        # k0 << 5 times a sum of at most 1000 has the bound of k0 times 1000 << 5.
        f = fit_frac_bits([Fraction(3, 7), Fraction(0)], [1000 << 5])
        k0 = round_half_away_int(Fraction(3, 7) * (1 << f))
        assert linear_bound([k0 << 5, 0], [1000], f) <= INT64_MAX
        k0 = round_half_away_int(Fraction(3, 7) * (1 << (f + 1)))
        assert linear_bound([k0 << 5, 0], [1000], f + 1) > INT64_MAX


class TestBuildersFitTheirOwnPrecision:
    """Each builder encodes at the largest F its int64 proof allows."""

    @staticmethod
    def cases(n, rng):
        """(constants, operand magnitudes) per builder at master width n."""
        p1, p2, py, pb = (_random_params(rng, n) for _ in range(4))
        length = int(rng.integers(1, 1000))
        yield add_constants(p1, p2, py), (p1.qmax, p2.qmax)
        yield mul_constants(p1, p2, py), (p1.qmax * p2.qmax, p1.qmax, p2.qmax)
        for bias in (None, pb):
            yield dot_constants(p1, p2, py, length, bias), (
                length * p1.qmax * p2.qmax, length * p1.qmax, length * p2.qmax,
                bias.qmax if bias is not None else 0)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_default_is_the_largest_proven_f(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            for c, mags in self.cases(n, rng):
                f = c.frac_bits
                assert c == constants_at(c, f)
                assert linear_bound(c.k, mags, f) <= INT64_MAX
                if f < 62:
                    assert linear_bound(constants_at(c, f + 1).k, mags, f + 1) > INT64_MAX

    @pytest.mark.parametrize("n", range(2, 17))
    def test_mul_fits_as_the_bias_free_unit_dot(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            grids = [_random_params(rng, n) for _ in range(3)]
            assert mul_constants(*grids).frac_bits == dot_constants(*grids, 1).frac_bits

    @pytest.mark.parametrize("n", range(2, 17))
    def test_explicit_f_is_kept(self, n):
        # Constants rounded by hand at another F, as the probes of other
        # precisions build them, are evaluated and bounded at that F: the
        # checker reads a constant's own F and fits none.
        rng = np.random.default_rng(300 + n)
        p1, p2, py = (_random_params(rng, n) for _ in range(3))
        cases = list(product((0, p1.qmax // 3, p1.qmax), (0, p2.qmax // 2, p2.qmax)))
        for fitted in (add_constants(p1, p2, py), mul_constants(p1, p2, py)):
            for f in (0, 7, 16, 30):
                c = constants_at(fitted, f)
                report = _check(c.role, [((p1, p2, py), c, cases)])
                assert report.passed and report.cases == len(cases)
                assert report.max_bound == float(max(op_error_bound(c, q).bound
                                                     for q in cases))

    def test_product_sums_past_int64_refused(self):
        p16 = make_master_params(-1.0, 1.0, 16)
        with pytest.raises(AccumulatorOverflowError, match="product sums exceed int64"):
            dot_constants(p16, p16, p16, 2 ** 32)
