"""Analytic error bounds and their oracle-backed verification."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import constants_at
from nestq import analysis
from nestq.analysis import (
    empirical_verify,
    exact_value,
    exhaustive_verify_binary,
    op_error_bound,
    shift_error,
)
from nestq.intops import IntOpConstants, add_constants, dot_constants, mul_constants, raw
from nestq.quantize import MAX_BITWIDTH, MIN_BITWIDTH, QuantParams, make_master_params


def params(scale, offset, b=8, n=8):
    return QuantParams(scale=scale, offset=offset, bitwidth=b, master_bitwidth=n)


UNIT = params(1.0, 0.0)

# Each operator's pre-shift integer with one term dropped: the constant, the q2
# term, the bias term.
BROKEN_RAW = {
    "add": lambda c, q: c.k[0] * q[0] + c.k[1] * q[1],
    "mul": lambda c, q: c.k[0] * q[0] * q[1] + c.k[1] * q[0] + c.k[3],
    "dot": lambda c, s: c.k[0] * s[0] + c.k[1] * s[1] + c.k[2] * s[2] + c.k[4],
}


def report_numbers(r):
    return r.cases, len(r.violations), r.max_observed, r.max_bound, r.mean_signed_error


class TestOpErrorBound:
    def test_exact_constants_give_zero_bound(self):
        c = add_constants(UNIT, UNIT, UNIT)
        assert op_error_bound(c, (255, 255)).bound == 0

    def test_linear_formula_for_add(self):
        c = IntOpConstants(role="add", k=(0, 0, 0),
                           exact=(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                           frac_bits=0)
        assert op_error_bound(c, (10, 10)).bound == Fraction(21, 2)

    def test_mul_formula(self):
        c = IntOpConstants(role="mul", k=(0, 0, 0, 0),
                           exact=tuple(Fraction(1, 4) for _ in range(4)), frac_bits=0)
        # |d1| q1 q2 + |d2| q1 + |d3| q2 + |d4| = 12.5 + 2.5 + 1.25 + 0.25
        assert op_error_bound(c, (10, 5)).bound == Fraction(33, 2)

    def test_unknown_role_rejected(self):
        c = IntOpConstants(role="shift", k=(), exact=(), frac_bits=0)
        with pytest.raises(ValueError):
            op_error_bound(c, ())

    def test_bound_monotone_in_frac_bits(self):
        fitted = add_constants(params(0.37, 0.11), params(0.91, -0.2), params(0.53, 0.0))
        prev = None
        for f in range(0, 20):
            b = op_error_bound(constants_at(fitted, f), (255, 255)).bound
            if prev is not None:
                assert b <= prev
            prev = b


class TestShiftError:
    def test_exact_multiple_is_zero(self):
        assert shift_error(96, 8, 4) == 0

    def test_quarter_residual(self):
        assert shift_error(100, 8, 4) == Fraction(1, 4)

    def test_exhaustive_max_is_half_at_odd_half_points(self):
        worst = Fraction(0)
        for b in range(2, 8):
            s = 8 - b
            for q in range(256):
                e = abs(shift_error(q, 8, b))
                worst = max(worst, e)
                if e == Fraction(1, 2):
                    assert (q % (1 << s)) * 2 == (1 << s)  # exact half-point
        assert worst == Fraction(1, 2)

    def test_rejects_upshift(self):
        with pytest.raises(ValueError):
            shift_error(1, 4, 8)


class TestEmpiricalVerify:
    def test_add_random_no_violations(self):
        report = empirical_verify("add", samples=2000, seed=1)
        assert report.passed and report.cases == 2000
        assert report.max_observed <= report.max_bound

    def test_mul_random_no_violations(self):
        report = empirical_verify("mul", samples=2000, seed=2)
        assert report.passed

    def test_dot_random_no_violations(self):
        report = empirical_verify("dot", samples=500, seed=3)
        assert report.passed

    @pytest.mark.parametrize("op", ["add", "mul", "dot"])
    def test_fitted_precision_no_violations(self, op):
        # Each sampled operator at the F its int64 proof allows, as in inference.
        fitted = empirical_verify(op, samples=500, seed=6)
        assert fitted.passed and fitted.cases == 500
        assert fitted.max_observed <= fitted.max_bound

    @pytest.mark.parametrize("op", sorted(BROKEN_RAW))
    def test_catches_a_broken_operator(self, monkeypatch, op):
        # The verifier evaluates the operator code, so an operator that drops
        # a term (the constant, the q2 term, the bias) fails its own bound.
        monkeypatch.setattr(analysis, "raw", BROKEN_RAW[op])
        report = empirical_verify(op, samples=500, seed=5)
        assert not report.passed

    # Reports recorded before the sampled and exhaustive verifiers shared one
    # checker: (cases, violations, max_observed, max_bound, mean_signed_error).
    PINNED = {
        "add": (2000, 0, 1.4563933571462573e-09, 1.4563933571462573e-09,
                -1.725872120778383e-11),
        "mul": (2000, 0, 0.0002609047953835704, 0.00026091117587859187,
                -2.727994709240012e-06),
        "dot": (2000, 0, 0.15448171310671077, 0.15449244253939348,
                0.0014619083402038317),
    }

    @pytest.mark.parametrize("op", sorted(PINNED))
    def test_fitted_reports_pinned(self, op):
        report = empirical_verify(op, samples=2000, seed=2)
        assert report_numbers(report) == self.PINNED[op]

    def test_samples_every_supported_width(self, monkeypatch):
        widths = set()
        draw = analysis._random_params

        def recorded(rng, n):
            widths.add(n)
            return draw(rng, n)

        monkeypatch.setattr(analysis, "_random_params", recorded)
        empirical_verify("add", samples=300 * analysis.CASES_PER_TUPLE, seed=0)
        assert widths == set(range(MIN_BITWIDTH, MAX_BITWIDTH + 1))

    def test_shift_exhaustive_max_exactly_half(self):
        report = empirical_verify("shift")
        assert report.passed
        assert report.max_observed == 0.5

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            empirical_verify("conv")

    def test_violations_carry_reproduction_data(self, monkeypatch):
        # Force violations: an operator one output step off, which no bound
        # allows. Each violation's params (an add's or mul's grids, a dot's
        # grids and length) and operands rebuild its constants, its observed
        # error and its bound.
        for op, build, arity in (("add", add_constants, (3, 2)), ("mul", mul_constants, (3, 2)),
                                 ("dot", dot_constants, (5, 4))):
            assert empirical_verify(op, samples=200, seed=4).violations == []
            with monkeypatch.context() as m:
                m.setattr(analysis, "raw", lambda c, q: raw(c, q) + (1 << c.frac_bits))
                report = empirical_verify(op, samples=200, seed=4)
            assert len(report.violations) == report.cases == 200
            for v in report.violations:
                assert v.op_kind == op and (len(v.params), len(v.inputs)) == arity
                if op == "dot":
                    assert v.params[3] == 64  # the length empirical_verify draws
                c = build(*v.params)
                step = 1 << c.frac_bits
                observed = Fraction(raw(c, v.inputs) + step, step) - exact_value(c, v.inputs)
                assert v.observed == float(observed)
                assert v.bound == float(op_error_bound(c, v.inputs).bound) < abs(v.observed)

    def test_offset_term_contributions_average_out(self):
        # Across random symmetric-weight instances the constant rounding errors
        # on the two offset terms have no preferred sign, so their summed
        # contribution is statistically centered on zero.
        rng = np.random.default_rng(5)
        contributions = []
        for _ in range(2000):
            px = make_master_params(0.0, rng.uniform(1, 4), 8)
            hi = rng.uniform(0.5, 2.0)
            pw = make_master_params(-hi, hi, 8)
            py = make_master_params(-rng.uniform(1, 8), rng.uniform(1, 8), 8)
            c = dot_constants(px, pw, py, 64)
            deltas = c.deltas()
            assert deltas[2] == 0  # zero activation offset kills the third term
            s2 = int(rng.integers(0, 256, 64).sum())
            s3 = int(rng.integers(0, 256, 64).sum())
            contributions.append(float(deltas[1] * s2 + deltas[2] * s3))
        mean = np.mean(contributions)
        stderr = np.std(contributions) / np.sqrt(len(contributions))
        assert abs(mean) <= 3 * stderr


ADD_TUPLES = [
    (make_master_params(-1.0, 2.0, 6), make_master_params(0.0, 3.0, 6),
     make_master_params(-1.0, 5.0, 6)),
    (make_master_params(0.0, 1.0, 6), make_master_params(0.0, 1.0, 6),
     make_master_params(0.0, 2.0, 6)),
]
MUL_TUPLES = [(make_master_params(-0.5, 0.5, 4), make_master_params(-1.0, 1.0, 4),
               make_master_params(-0.5, 0.5, 4))]


class TestExhaustiveVerify:
    def test_add_exhaustive_small_width(self):
        report = exhaustive_verify_binary("add", 6, ADD_TUPLES)
        assert report.passed and report.cases == 2 * 64 * 64

    def test_mul_exhaustive_small_width(self):
        report = exhaustive_verify_binary("mul", 4, MUL_TUPLES)
        assert report.passed and report.cases == 256

    def test_report_pinned(self):
        # Recorded when this verifier moved to the fitted F. The add tuples'
        # ratios are 1/2, 1/2 and 0, exact at any F >= 1, so no case errs; the
        # mul's additive constant is not dyadic, and rounds.
        report = exhaustive_verify_binary("add", 6, ADD_TUPLES)
        assert report_numbers(report) == (8192, 0, 0.0, 0.0, 0.0)
        report = exhaustive_verify_binary("mul", 4, MUL_TUPLES)
        assert report_numbers(report) == (256, 0, 2.8888949165808538e-33,
                                          2.8888949165808538e-33, -2.8888949165808538e-33)

    def test_mean_signed_error_is_the_mean_case_error(self):
        report = exhaustive_verify_binary("mul", 4, MUL_TUPLES)
        c = mul_constants(*MUL_TUPLES[0])
        errors = [Fraction(raw(c, q), 1 << c.frac_bits) - exact_value(c, q)
                  for q in product(range(16), repeat=2)]
        assert report.mean_signed_error == float(sum(errors) / len(errors)) != 0

    def test_rejects_other_op_kinds(self):
        for op in ("dot", "shift", "conv"):
            with pytest.raises(ValueError):
                exhaustive_verify_binary(op, 2, MUL_TUPLES)

    @pytest.mark.parametrize("op, n, tuples", [
        # k3 = (m1 + m2 - m_y) / step_y = -12.6 at F = 0: the constant matters
        ("add", 6, [(make_master_params(-1.0, 2.0, 6), make_master_params(0.0, 3.0, 6),
                     make_master_params(0.0, 5.0, 6))]),
        ("mul", 4, MUL_TUPLES),  # k3 = step_w * m_x / step_y = -1: the q2 term matters
    ], ids=["add", "mul"])
    def test_catches_a_broken_operator(self, monkeypatch, op, n, tuples):
        assert exhaustive_verify_binary(op, n, tuples).passed
        monkeypatch.setattr(analysis, "raw", BROKEN_RAW[op])
        assert not exhaustive_verify_binary(op, n, tuples).passed


class TestExactValues:
    def test_exact_add_value_matches_hand_computation(self):
        c = add_constants(params(0.5, 1.0), params(0.25, 0.5), params(0.25, 0.0))
        assert exact_value(c, (3, 4)) == Fraction(16)
