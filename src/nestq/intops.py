"""Integer-only add, multiply, and dot-product constants and reference operators.

Each operator replaces a float computation on dequantized values with one
linear form of its integer inputs, k . terms + k_last, shifted right by F onto
the output grid. What this module holds, and where each rule is written:

- :func:`terms`: which integers an operator's constants weight.
- :func:`add_constants`, :func:`mul_constants`, :func:`dot_constants`: the
  constants k and their exact ratios, at the F fitted to their own grids.
- :func:`fit_frac_bits` and :func:`linear_bound`: the int64 proof.
- :func:`raw`, :func:`int_add`, :func:`int_mul`, :func:`int_dot`,
  :func:`int_dot_pact`: scalar reference operators for tests and error
  analysis; ``layers.LayerStep`` runs the same expressions on arrays.
- ``MAC_PRIMITIVES``, :func:`mac_loop`: what one MAC costs, and which loop runs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .quantize import QuantParams, round_half_away_int, rounding_right_shift

INT64_MAX = np.iinfo(np.int64).max

# Per-element primitive ops of each inner MAC loop formulation. The factored
# loop ("dqt_pact") applies when activations have zero offset.
MAC_PRIMITIVES = {
    "standard": {"mul": 1, "add": 3},
    "dqt_general": {"mul": 3, "add": 2},
    "dqt_pact": {"mul": 1, "add": 2},
}
# Per-output primitive ops of an integer add: k1*q1 + k2*q2 + k3.
ADD_PRIMITIVES = {"mul": 2, "add": 2}
# Per-output primitive ops of the bias term a MAC layer adds to its dot: k4*q_b.
BIAS_PRIMITIVES = {"mul": 1, "add": 1}


def mac_primitive_counts(mode: str) -> dict[str, int]:
    """Per-element primitive ops of the inner MAC loop for each formulation."""
    if mode not in MAC_PRIMITIVES:
        raise ValueError(f"unknown MAC mode {mode!r}")
    return dict(MAC_PRIMITIVES[mode])


class AccumulatorOverflowError(OverflowError):
    """An integer accumulator or expression would exceed int64."""


def mac_loop(input_grid: QuantParams | None) -> str:
    """The MAC loop a layer runs: factored unless its input grid has an offset.

    A layer without an input grid, as in an uncalibrated model, is charged
    the factored loop.
    """
    return "dqt_general" if input_grid is not None and input_grid.offset != 0 else "dqt_pact"


@dataclass(frozen=True)
class OpCounters:
    """Primitive-operation tallies for one call or one inference: a value,
    which any number of records may share; a sum is a new one."""

    mults: int = 0
    adds: int = 0
    shifts: int = 0

    @staticmethod
    def total(parts) -> "OpCounters":
        """The sum of an iterable of tallies, made once."""
        mults = adds = shifts = 0
        for c in parts:
            mults += c.mults
            adds += c.adds
            shifts += c.shifts
        return OpCounters(mults, adds, shifts)


@dataclass(frozen=True)
class IntOpConstants:
    """Fixed-point multipliers for one operator instance.

    ``k`` holds the rounded signed integers, ``exact`` the exact rational ratios
    they approximate (kept for error analysis), ``frac_bits`` the fixed-point
    precision F. ``degenerate`` flags any nonzero exact ratio that rounded to
    zero, which annihilates that term's contribution entirely.
    """

    role: str  # add | mul | dot
    k: tuple[int, ...]
    exact: tuple[Fraction, ...]
    frac_bits: int
    degenerate: bool = False

    def deltas(self) -> tuple[Fraction, ...]:
        """Per-constant rounding errors: exact ratio minus k / 2^F."""
        two_f = Fraction(1 << self.frac_bits)
        return tuple(r - Fraction(ki) / two_f for ki, r in zip(self.k, self.exact))


def _round(ratios, frac_bits: int) -> tuple[int, ...]:
    """``ratios`` rounded to F fractional bits."""
    return tuple(round_half_away_int(r * (1 << frac_bits)) for r in ratios)


def _encode(ratios: list[Fraction], role: str, magnitudes) -> IntOpConstants:
    """``ratios`` rounded at the F fitted to operands of ``magnitudes``."""
    frac_bits = fit_frac_bits(ratios, magnitudes)
    k = _round(ratios, frac_bits)
    degenerate = any(r != 0 and ki == 0 for r, ki in zip(ratios, k))
    return IntOpConstants(role=role, k=k, exact=tuple(ratios),
                          frac_bits=frac_bits, degenerate=degenerate)


def add_constants(p1: QuantParams, p2: QuantParams, py: QuantParams) -> IntOpConstants:
    """Constants of q1 (+) q2 = k1*q1 + k2*q2 + k3 on the output grid, at the F
    fitted to operands of qmax each."""
    d1, d2, dy = Fraction(p1.scale), Fraction(p2.scale), Fraction(py.scale)
    m1, m2, my = Fraction(p1.offset), Fraction(p2.offset), Fraction(py.offset)
    return _encode([d1 / dy, d2 / dy, (m1 + m2 - my) / dy], "add", (p1.qmax, p2.qmax))


def mul_constants(p1: QuantParams, p2: QuantParams, py: QuantParams) -> IntOpConstants:
    """Constants of q1 (*) q2 = k1*q1*q2 + k2*q1 + k3*q2 + k4: the bias-free
    length-1 dot's, at its F, without its bias constant (always 0)."""
    c = dot_constants(p1, p2, py, 1)
    return replace(c, role="mul", k=c.k[:3] + c.k[4:], exact=c.exact[:3] + c.exact[4:])


def dot_constants(px: QuantParams, pw: QuantParams, py: QuantParams, length: int,
                  pb: QuantParams | None = None) -> IntOpConstants:
    """Constants of k1*S_xw + k2*S_x + k3*S_w + k4*q_b + k5 on the output grid.

    The S are the length-N sums of x*w, x and w; q_b is a bias on grid ``pb``.
    k5 absorbs N*m_x*m_w and the bias offset m_b; with no bias grid k4 = 0.
    The bias is one more term of the dot, so a layer rounds once, onto its
    output grid, as Jacob et al. (2018) add the bias in the integer
    accumulator. The F is fitted to the maxima of S and q_b. Refuses
    (AccumulatorOverflowError) a product sum beyond int64, which no F fixes.
    """
    s1_max = length * px.qmax * pw.qmax
    if s1_max > INT64_MAX:
        raise AccumulatorOverflowError("product sums exceed int64")
    dx, dw, dy = Fraction(px.scale), Fraction(pw.scale), Fraction(py.scale)
    mx, mw, my = Fraction(px.offset), Fraction(pw.offset), Fraction(py.offset)
    db, mb = (Fraction(pb.scale), Fraction(pb.offset)) if pb is not None else (0, 0)
    ratios = [dx * dw / dy, dx * mw / dy, dw * mx / dy, db / dy,
              (length * mx * mw + mb - my) / dy]
    return _encode(ratios, "dot", (
        s1_max, length * px.qmax, length * pw.qmax, pb.qmax if pb is not None else 0))


def terms(role: str, operands) -> tuple[int, ...]:
    """The integers an operator's constants weight, before its additive constant.

    add (q1, q2) and dot (S_xw, S_x, S_w, q_b) weight their operands as given;
    mul (q1, q2) weights (q1*q2, q1, q2). Python ints, so no product wraps.
    ``raw``, the scalar operators and ``nestq.analysis`` all take it from here.
    """
    ints = tuple(map(int, operands))
    if role == "mul":
        q1, q2 = ints
        return (q1 * q2, q1, q2)
    if role in ("add", "dot"):
        return ints
    raise ValueError(f"no linear form for role {role!r}")


def linear_form(weights, values):
    """sum(w_i * v_i) + w_last; refuses (ValueError) a value count that does not fit."""
    if len(values) != len(weights) - 1:
        raise ValueError(f"{len(weights)} weights need {len(weights) - 1} values, "
                         f"got {len(values)}")
    return sum(map(operator.mul, weights, values)) + weights[-1]


def linear_bound(k, magnitudes, frac_bits: int) -> int:
    """Bound on |sum(k_i * v_i) + k_last| plus the rounding half, for |v_i| <= magnitudes_i."""
    return linear_form([abs(ki) for ki in k], magnitudes) + ((1 << frac_bits) >> 1)


def fit_frac_bits(ratios, magnitudes) -> int:
    """Largest F in [0, 62] with ``linear_bound`` of the rounded ratios within int64.

    Each constant is its exact ratio rounded to F fractional bits, so a larger
    F keeps a small ratio from collapsing to 0. |v_i| <= magnitudes_i bounds
    the operands. As |k_i| >= |r_i| * 2^F - 1/2, the
    bound is at least 2^F * slope - slack, so the search starts at the largest
    F where that fits. Raises AccumulatorOverflowError if F=0 fails.
    """
    slope = linear_form([abs(r) for r in ratios], magnitudes) + Fraction(1, 2)
    slack = Fraction(sum(magnitudes) + 2, 2)
    start = min(62, int((INT64_MAX + slack) / slope).bit_length() - 1)
    for frac_bits in range(start, -1, -1):
        if linear_bound(_round(ratios, frac_bits), magnitudes, frac_bits) <= INT64_MAX:
            return frac_bits
    raise AccumulatorOverflowError("intermediates exceed int64 even at F=0")


def raw(c: IntOpConstants, operands) -> int:
    """Pre-shift, pre-clip integer value k . terms + k_last; exposed for error analysis."""
    return linear_form(c.k, terms(c.role, operands))


def _apply(c: IntOpConstants, role: str, operands, py: QuantParams) -> int:
    if c.role != role:
        raise ValueError(f"constants have role {c.role!r}, need {role!r}")
    return min(max(rounding_right_shift(raw(c, operands), c.frac_bits), 0), py.qmax)


def int_add(q1: int, q2: int, c: IntOpConstants, py: QuantParams) -> int:
    return _apply(c, "add", (q1, q2), py)


def int_mul(q1: int, q2: int, c: IntOpConstants, py: QuantParams) -> int:
    return _apply(c, "mul", (q1, q2), py)


def _dot_sums(xq, wq) -> tuple[int, int, int]:
    """S_xw, S_x and S_w in int64, which ``dot_constants`` refuses to let overflow."""
    xq = np.asarray(xq, dtype=np.int64)
    wq = np.asarray(wq, dtype=np.int64)
    if xq.shape != wq.shape or xq.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {xq.shape} and {wq.shape}")
    s1 = int(np.dot(xq, wq))
    return s1, int(xq.sum()), int(wq.sum())


def int_dot(xq, wq, c: IntOpConstants, py: QuantParams, qb: int = 0) -> int:
    """General integer dot product plus bias ``qb``; handles offsets on both operands."""
    return _apply(c, "dot", (*_dot_sums(xq, wq), qb), py)


def int_dot_pact(xq, wq, c: IntOpConstants, py: QuantParams,
                 qb: int = 0) -> tuple[int, OpCounters]:
    """Optimized dot product plus bias ``qb`` for zero-offset activations.

    With m_x = 0 the k3 term vanishes and k1, k2 factor out of the loop, so the
    inner loop accumulates only sum(x*w) and sum(x): one multiply and two adds
    per element. Returns the result and the in-loop primitive counts.
    """
    if c.role == "dot" and c.exact[2] != 0:  # other roles are refused by _apply
        raise ValueError("int_dot_pact requires zero-offset activations (m_x = 0)")
    s1, s2, _ = _dot_sums(xq, wq)
    n_elems = np.size(xq)
    loop = MAC_PRIMITIVES["dqt_pact"]
    counters = OpCounters(mults=loop["mul"] * n_elems, adds=loop["add"] * n_elems)
    return _apply(c, "dot", (s1, s2, 0, qb), py), counters


def standard_mac_dot(xq, wq, zero_x: int, zero_w: int) -> tuple[int, OpCounters]:
    """Conventional zero-point MAC loop: sum((x - z_x) * (w - z_w)).

    The baseline against which the optimized loop is compared: one multiply and
    three add/subtracts per element, with scaling deferred to a post-loop
    requantization that is not part of this accumulator.
    """
    acc, _, _ = _dot_sums(np.asarray(xq, dtype=np.int64) - zero_x,
                          np.asarray(wq, dtype=np.int64) - zero_w)
    loop = MAC_PRIMITIVES["standard"]
    return acc, OpCounters(mults=loop["mul"] * np.size(xq), adds=loop["add"] * np.size(xq))
