"""Analytic error bounds for the integer operators and their verification.

Every operator's deviation from the exact quantized value is a linear
combination of the constant rounding errors delta_i = k_real - k / 2^F, scaled
by the integer inputs. The oracles here use exact rational arithmetic, so
bound checks are never confounded by float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .intops import (
    IntOpConstants,
    add_constants,
    add_frac_bits,
    add_raw,
    dot_constants,
    dot_frac_bits,
    dot_raw,
    mul_constants,
    mul_raw,
)
from .quantize import (
    MAX_BITWIDTH,
    MIN_BITWIDTH,
    QuantParams,
    make_master_params,
    round_half_away_int,
)

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
    if consts.role == "mul":
        q1, q2 = mags
        terms = (q1 * q2, q1, q2)
    elif consts.role in ("add", "dot"):
        terms = mags
    else:
        raise ValueError(f"no bound formula for role {consts.role!r}")
    if len(terms) != len(deltas) - 1:
        raise ValueError(f"{consts.role} needs {len(deltas) - 1} magnitudes, got {mags}")
    bound = sum(abs(d) * t for d, t in zip(deltas, terms)) + abs(deltas[-1])
    return ErrorBound(op_kind=consts.role, deltas=deltas, bound=bound, magnitudes=mags)


def shift_error(q_n: int, n: int, b: int) -> Fraction:
    """Exact residual of the rounded shift: q / 2^(n-b) minus its rounding."""
    if b > n:
        raise ValueError(f"b={b} > n={n}")
    exact = Fraction(int(q_n), 1 << (n - b))
    return exact - round_half_away_int(exact)


def exact_add_value(q1: int, q2: int, c: IntOpConstants) -> Fraction:
    """(x1 + x2 - m_y) / step_y with exact real-valued constants."""
    r = c.exact
    return r[0] * q1 + r[1] * q2 + r[2]


def exact_mul_value(q1: int, q2: int, c: IntOpConstants) -> Fraction:
    r = c.exact
    return r[0] * q1 * q2 + r[1] * q1 + r[2] * q2 + r[3]


@dataclass
class Violation:
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


def _sampled_operator(op_kind: str, rng, frac_bits: int | None, length: int):
    """Draw one operator instance: its grids, constants and CASES_PER_TUPLE cases.

    Every operator's value is sum(r_i * t_i) + r_last over its terms t, returned
    as one column per term: (q1, q2) for add, (q1*q2, q1, q2) for mul, and for
    the length-N dot the sums of x*w, x and w plus the integer of a bias on a
    drawn bias grid, as in a biased layer. ``raw`` maps a case's terms to the
    operator's own pre-shift integer (``add_raw``, ``mul_raw``, ``dot_raw``),
    so the check covers the code inference runs. Constants are at F, or at the
    operator's fitted F if F is None, the precision inference runs at.
    """
    n = int(rng.integers(MIN_BITWIDTH, MAX_BITWIDTH + 1))
    p1, p2, py = (_random_params(rng, n) for _ in range(3))

    def draw(p: QuantParams, *shape):
        return rng.integers(0, p.qmax + 1, size=(CASES_PER_TUPLE,) + shape)

    if op_kind == "dot":
        pb = _random_params(rng, n)
        f = frac_bits if frac_bits is not None else dot_frac_bits(p1, p2, py, length, pb)
        c = dot_constants(p1, p2, py, length, pb, f)
        xqs, wqs = draw(p1, length), draw(p2, length)
        cols = (np.einsum("ij,ij->i", xqs, wqs), xqs.sum(axis=1), wqs.sum(axis=1), draw(pb))
        return (p1, p2, py, pb), c, cols, lambda t: dot_raw(c.k, *t)
    q1s, q2s = draw(p1), draw(p2)
    if op_kind == "add":
        f = frac_bits if frac_bits is not None else add_frac_bits(p1, p2, py)
        c = add_constants(p1, p2, py, f)
        return (p1, p2, py), c, (q1s, q2s), lambda t: add_raw(t[0], t[1], c)
    f = frac_bits if frac_bits is not None else dot_frac_bits(p1, p2, py, 1)
    c = mul_constants(p1, p2, py, f)
    return (p1, p2, py), c, (q1s * q2s, q1s, q2s), lambda t: mul_raw(t[1], t[2], c)


def _verify_linear(op_kind: str, samples: int, seed: int,
                   frac_bits: int | None, length: int = 64) -> VerificationReport:
    rng = np.random.default_rng(seed)
    report = VerificationReport(op_kind=op_kind, cases=0, max_observed=0.0,
                                max_bound=0.0, seed=seed)
    signed_sum = Fraction(0)
    while report.cases < samples:
        grids, c, cols, raw_fn = _sampled_operator(op_kind, rng, frac_bits, length)
        m, nums, deltas = _common_denominator_terms(c)
        m_over_f = m >> c.frac_bits
        ad = tuple(abs(d) for d in deltas)
        tuple_signed = 0
        worst_err = 0
        worst_bound = 0
        for terms in zip(*(col.tolist() for col in cols)):
            # Compare at pre-shift resolution so the final output rounding does
            # not enter: (raw / 2^F) - exact is the delta combination exactly.
            # All quantities are over the tuple's shared denominator m.
            exact_num = sum(v * t for v, t in zip(nums, terms)) + nums[-1]
            bound_num = sum(a * t for a, t in zip(ad, terms)) + ad[-1]
            err_num = raw_fn(terms) * m_over_f - exact_num
            report.cases += 1
            tuple_signed += err_num
            worst_err = max(worst_err, abs(err_num))
            worst_bound = max(worst_bound, bound_num)
            if abs(err_num) > bound_num:
                report.violations.append(Violation(
                    op_kind, grids, terms,
                    float(Fraction(err_num, m)), float(Fraction(bound_num, m))))
        signed_sum += Fraction(tuple_signed, m)
        report.max_observed = max(report.max_observed, float(Fraction(worst_err, m)))
        report.max_bound = max(report.max_bound, float(Fraction(worst_bound, m)))
    report.mean_signed_error = float(signed_sum / max(report.cases, 1))
    return report


def _verify_shift() -> VerificationReport:
    """Every index at every n in 2..8 and every b <= n, against a half step."""
    report = VerificationReport(op_kind="shift", cases=0, max_observed=0.0,
                                max_bound=0.5)
    half = Fraction(1, 2)
    signed_sum = Fraction(0)
    for n in range(2, 9):
        for b in range(2, n + 1):
            for q in range(1 << n):
                eps = shift_error(q, n, b)
                report.cases += 1
                signed_sum += eps
                report.max_observed = max(report.max_observed, abs(float(eps)))
                if abs(eps) > half:
                    report.violations.append(Violation(
                        "shift", (n, b), (q,), float(eps), 0.5))
    report.mean_signed_error = float(signed_sum / max(report.cases, 1))
    return report


def empirical_verify(op_kind: str, samples: int = 100_000, seed: int = 0,
                     frac_bits: int | None = 0) -> VerificationReport:
    """Sample operator instances and check every one against its bound.

    Each instance's grids share a master width drawn from every supported one,
    MIN_BITWIDTH..MAX_BITWIDTH. Constants use ``frac_bits`` fractional bits,
    or with None each operator's own fitted F, the precision inference runs at. A
    passing report has zero violations; any violation carries the full tuple
    needed to reproduce it.
    """
    if op_kind not in OP_KINDS:
        raise ValueError(f"unknown op kind {op_kind!r}")
    if op_kind == "shift":
        return _verify_shift()
    return _verify_linear(op_kind, samples, seed, frac_bits)


def exhaustive_verify_binary(op_kind: str, n: int, param_tuples) -> VerificationReport:
    """Check every (q1, q2) pair for each given parameter triple, at F = 0."""
    make_consts = add_constants if op_kind == "add" else mul_constants
    raw_fn = add_raw if op_kind == "add" else mul_raw
    exact_fn = exact_add_value if op_kind == "add" else exact_mul_value
    report = VerificationReport(op_kind=op_kind, cases=0, max_observed=0.0,
                                max_bound=0.0)
    qmax = (1 << n) - 1
    for p1, p2, py in param_tuples:
        c = make_consts(p1, p2, py, 0)
        for q1 in range(qmax + 1):
            for q2 in range(qmax + 1):
                err = raw_fn(q1, q2, c) - exact_fn(q1, q2, c)
                bound = op_error_bound(c, (q1, q2)).bound
                report.cases += 1
                report.max_observed = max(report.max_observed, abs(float(err)))
                report.max_bound = max(report.max_bound, float(bound))
                if abs(err) > bound:
                    report.violations.append(Violation(
                        op_kind, (p1, p2, py), (q1, q2), float(err), float(bound)))
    return report
