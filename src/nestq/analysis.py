"""Analytic error bounds for the integer operators and their verification.

Every operator's deviation from the exact quantized value is a linear
combination of the constant rounding errors delta_i = k_real - k / 2^F, scaled
by the integer inputs (``intops.terms``). The oracles here use exact rational
arithmetic, so bound checks are never confounded by float rounding; the
sampled and the exhaustive verifier check every case through one checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .intops import (
    IntOpConstants,
    add_constants,
    dot_constants,
    linear_form,
    mul_constants,
    raw,
    terms,
)
from .quantize import (
    MAX_BITWIDTH,
    MIN_BITWIDTH,
    QuantParams,
    make_master_params,
    round_half_away_int,
    shift_down,
)
from .reference import exact_nested_shift

OP_KINDS = ("add", "mul", "dot", "shift")


@dataclass(frozen=True)
class ErrorBound:
    """Composed worst-case error for one operator instance."""

    op_kind: str
    deltas: tuple[Fraction, ...]
    bound: Fraction
    magnitudes: tuple[int, ...]


def op_error_bound(consts: IntOpConstants, magnitudes) -> ErrorBound:
    """Worst-case |integer op - exact quantized value| from the deltas.

    ``magnitudes`` are per-operand maxima: (q1, q2) for add/mul; for dot,
    bounds on the three accumulator sums and on the bias integer q_b. The
    constants do not know their operands' ranges, so the caller supplies them,
    usually the full quantized range.
    """
    deltas = consts.deltas()
    mags = tuple(int(m) for m in magnitudes)
    bound = linear_form([abs(d) for d in deltas], terms(consts.role, mags))
    return ErrorBound(op_kind=consts.role, deltas=deltas, bound=bound, magnitudes=mags)


def shift_error(q_n: int, n: int, b: int) -> Fraction:
    """Exact residual of the rounded shift: q / 2^(n-b) minus its rounding."""
    if b > n:
        raise ValueError(f"b={b} > n={n}")
    exact = Fraction(int(q_n), 1 << (n - b))
    return exact - round_half_away_int(exact)


def exact_value(c: IntOpConstants, operands) -> Fraction:
    """The operator's value on the output grid with its exact, unrounded constants."""
    return linear_form(c.exact, terms(c.role, operands))


@dataclass
class Violation:
    """One case outside its bound, with what rebuilds it.

    ``params`` are the arguments that rebuild the operator's constants: an
    add's or mul's three grids, (x, y, out), a dot's
    ``dot_constants`` arguments, (x, w, out, length, bias grid), and a
    shift's (n, b). ``inputs`` are the case's operands.
    """

    op_kind: str
    params: tuple
    inputs: tuple
    observed: float
    bound: float


@dataclass
class VerificationReport:
    """Outcome of an empirical bound-verification run."""

    op_kind: str
    cases: int
    max_observed: float
    max_bound: float
    violations: list[Violation] = field(default_factory=list)
    mean_signed_error: float = 0.0
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations


def _random_params(rng, n: int) -> QuantParams:
    lo = rng.uniform(-4.0, 2.0)
    hi = lo + rng.uniform(0.25, 8.0)
    return make_master_params(lo, hi, n)


# Random-instance verification draws several input cases per parameter tuple
# so the exact-rational constants are amortized; the case count is what the
# sample budget controls.
CASES_PER_TUPLE = 50


def _common_denominator_terms(c: IntOpConstants):
    """Exact ratios and deltas of one constant set over one shared denominator.

    Returns (m, numerators, delta_numerators) such that exact ratio i equals
    numerators[i] / m and delta i equals delta_numerators[i] / m. With a shared
    denominator the per-case bound check reduces to integer arithmetic.
    """
    two_f = 1 << c.frac_bits
    d = 1
    for r in c.exact:
        d = d * r.denominator // math.gcd(d, r.denominator)
    m = d * two_f
    nums = tuple(r.numerator * (d // r.denominator) * two_f for r in c.exact)
    delta_nums = tuple(n - k * d for n, k in zip(nums, c.k))
    return m, nums, delta_nums


def _check(op_kind: str, instances, seed: int | None = None) -> VerificationReport:
    """Check every case of every operator instance against its bound, exactly.

    ``instances`` yields (args, constants, cases): the arguments the constants
    were built from, which a violation keeps as its ``params``, and operand
    tuples of the constants' role. A case's error is the operator's own pre-shift
    integer (``raw``, the code inference runs) over 2^F minus its exact value.
    Error and bound are linear forms in the case's terms over the constant
    set's shared denominator m, so the check is integer arithmetic.
    """
    report = VerificationReport(op_kind=op_kind, cases=0, max_observed=0.0,
                                max_bound=0.0, seed=seed)
    signed_sum = Fraction(0)
    for args, c, cases in instances:
        m, nums, deltas = _common_denominator_terms(c)
        m_over_f = m >> c.frac_bits
        ad = tuple(abs(d) for d in deltas)
        tuple_signed = worst_err = worst_bound = 0
        for operands in cases:
            # Compare at pre-shift resolution so the final output rounding does
            # not enter: (raw / 2^F) - exact is the delta combination exactly.
            t = terms(c.role, operands)
            bound_num = linear_form(ad, t)
            err_num = raw(c, operands) * m_over_f - linear_form(nums, t)
            report.cases += 1
            tuple_signed += err_num
            worst_err = max(worst_err, abs(err_num))
            worst_bound = max(worst_bound, bound_num)
            if abs(err_num) > bound_num:
                report.violations.append(Violation(
                    op_kind, args, tuple(operands),
                    float(Fraction(err_num, m)), float(Fraction(bound_num, m))))
        signed_sum += Fraction(tuple_signed, m)
        report.max_observed = max(report.max_observed, float(Fraction(worst_err, m)))
        report.max_bound = max(report.max_bound, float(Fraction(worst_bound, m)))
    report.mean_signed_error = float(signed_sum / max(report.cases, 1))
    return report


def _sampled_operator(op_kind: str, rng, length: int):
    """Draw one operator instance: its constants' arguments (its grids, and a
    dot's length), the constants and CASES_PER_TUPLE cases.

    The cases are operand tuples: (q1, q2) for add and mul, and for the
    length-N dot the sums of x*w, x and w plus the integer of a bias on a drawn
    bias grid, as in a biased layer. Constants are at the F inference fits.
    """
    n = int(rng.integers(MIN_BITWIDTH, MAX_BITWIDTH + 1))
    p1, p2, py = (_random_params(rng, n) for _ in range(3))

    def draw(p: QuantParams, *shape):
        return rng.integers(0, p.qmax + 1, size=(CASES_PER_TUPLE,) + shape)

    if op_kind == "dot":
        args = (p1, p2, py, length, _random_params(rng, n))
        c = dot_constants(*args)
        xqs, wqs = draw(p1, length), draw(p2, length)
        cols = (np.einsum("ij,ij->i", xqs, wqs), xqs.sum(axis=1), wqs.sum(axis=1), draw(args[-1]))
    else:
        args = (p1, p2, py)
        c = (add_constants if op_kind == "add" else mul_constants)(*args)
        cols = (draw(p1), draw(p2))
    return args, c, zip(*(col.tolist() for col in cols))


def _verify_shift() -> VerificationReport:
    """Every index at every n in 2..8 and every b <= n, against a half step.

    Also checks ``shift_down``, the shift inference runs, against the exact
    nested index; a mismatch is a violation whose observed error is the
    index difference, against a bound of 0.
    """
    report = VerificationReport(op_kind="shift", cases=0, max_observed=0.0,
                                max_bound=0.5)
    half = Fraction(1, 2)
    signed_sum = Fraction(0)
    for n in range(2, 9):
        for b in range(2, n + 1):
            shifted = shift_down(np.arange(1 << n), n, b).tolist()
            for q in range(1 << n):
                eps = shift_error(q, n, b)
                report.cases += 1
                signed_sum += eps
                report.max_observed = max(report.max_observed, abs(float(eps)))
                if abs(eps) > half:
                    report.violations.append(Violation(
                        "shift", (n, b), (q,), float(eps), 0.5))
                miss = shifted[q] - exact_nested_shift(q, n, b)
                if miss:
                    report.violations.append(Violation(
                        "shift", (n, b), (q,), float(miss), 0.0))
    report.mean_signed_error = float(signed_sum / max(report.cases, 1))
    return report


def empirical_verify(op_kind: str, samples: int = 100_000, seed: int = 0) -> VerificationReport:
    """Sample operator instances and check every one against its bound.

    Each instance's grids share a master width drawn from every supported one,
    MIN_BITWIDTH..MAX_BITWIDTH, and its constants are at the F inference fits.
    A passing report has zero violations; any violation carries the full tuple
    needed to reproduce it.
    """
    if op_kind not in OP_KINDS:
        raise ValueError(f"unknown op kind {op_kind!r}")
    if op_kind == "shift":
        return _verify_shift()
    rng = np.random.default_rng(seed)
    draws = -(-samples // CASES_PER_TUPLE)
    return _check(op_kind, (_sampled_operator(op_kind, rng, 64) for _ in range(draws)), seed)


def exhaustive_verify_binary(op_kind: str, n: int, param_tuples) -> VerificationReport:
    """Check every (q1, q2) pair for each given parameter triple, at the F inference fits.

    Refuses (ValueError) an op kind other than add or mul.
    """
    if op_kind not in ("add", "mul"):
        raise ValueError(f"no exhaustive check for op kind {op_kind!r}")
    make_consts = add_constants if op_kind == "add" else mul_constants
    qs = range(1 << n)
    return _check(op_kind, ((grids, make_consts(*grids), product(qs, qs))
                            for grids in param_tuples))
