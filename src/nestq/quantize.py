"""Uniform quantization with a nested power-of-two scale scheme.

All grids are unsigned: a real x maps to q = clip(round((x - m) / step), 0, 2^b - 1)
with m the range minimum. Signedness lives entirely in m. A master bit-width n
defines the storage precision; every lower precision b shares the same m and uses
step_b = step_n * 2^(n - b), so dropping from n to b bits is a rounded right shift.
Rounding is half-away-from-zero everywhere.

What this module holds, and where each rule is written: a grid
(:class:`QuantParams`, :func:`make_master_params`, :func:`derive_params`), its
storage dtype (:func:`storage_dtype`), the range check (:func:`check_grid_ints`)
and the range proof (:class:`NestedTensor`), a real's index and back
(:func:`quantize`, :func:`dequantize`), the shift (:func:`shift_down`) and the
float round trip it replaces (:func:`dequant_requant_reference`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

MIN_BITWIDTH = 2
MAX_BITWIDTH = 16


class DegenerateRangeError(ValueError):
    """Raised when a quantization range has zero or negative width."""


def storage_dtype(n: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every n-bit grid index, n <= 16."""
    return np.dtype(np.uint8) if n <= 8 else np.dtype(np.uint16)


def _read_only(v, dtype) -> np.ndarray:
    """``v`` as a read-only array of ``dtype``: a call's constant, built once.

    A ufunc takes a 0-d array as it is, where it converts a Python or NumPy
    scalar on every call (about 0.2 us each on a small tensor).
    """
    a = np.array(v, dtype=dtype)
    a.flags.writeable = False
    return a


_HALF, _FLOAT_ZERO = _read_only(0.5, np.float64), _read_only(0.0, np.float64)


@lru_cache(maxsize=None)
def _range_reduction(dtype: np.dtype, qmax: int):
    """How to check an array of ``dtype`` against [0, qmax] in one reduction.

    None if the dtype bounds the range already. Else ("max", view): the max of
    the array, viewed as ``view`` unless that is None, exceeds qmax iff an
    element is out of range. An unsigned array is reduced as it is; a signed
    one is viewed as its unsigned twin, in which a negative element reads as a
    value above the signed maximum. If the signed maximum is itself within
    qmax, that view cannot tell -1 from a valid index, and only negatives can
    be out of range: ("min", None).
    """
    top = int(np.iinfo(dtype).max)
    if dtype.kind == "u":
        return None if top <= qmax else ("max", None)
    if top <= qmax:
        return ("min", None)
    return ("max", np.dtype(dtype.str.replace("i", "u")))


def _integer_dtype(dtype: np.dtype) -> None:
    """Refuse (TypeError) a dtype that is not an integer one; bool is not."""
    if dtype.kind not in "iu":
        raise TypeError(f"grid indices must be integers, got {dtype}")


def _check_range(q: np.ndarray, rule, qmax: int) -> None:
    """Refuse (ValueError) an integer array with an element outside [0, qmax],
    by ``rule``, its dtype's :func:`_range_reduction` for qmax."""
    if rule is not None and q.size:
        # The ufunc reductions skip ndarray.min/max's Python wrapper, which
        # costs as much as the reduction itself on a 1k-element tensor.
        how, view = rule
        if np.minimum.reduce(q, None) < 0 if how == "min" \
                else np.maximum.reduce(q if view is None else q.view(view), None) > qmax:
            raise ValueError(f"grid indices outside [0, {qmax}]")


def check_grid_ints(q, qmax: int) -> np.ndarray:
    """``q`` as an integer array, refused unless every element is in [0, qmax].

    A :class:`NestedTensor` was checked when it was made and cannot change:
    its data comes back as it is, unless its grid is wider than [0, qmax]
    (ValueError). A raw array raises TypeError for a non-integer (or bool)
    dtype and ValueError for an element out of range; costs one reduction at
    most.
    """
    if isinstance(q, NestedTensor):
        if q.params.qmax > qmax:
            raise ValueError(f"a {q.params.bitwidth}-bit tensor is not within [0, {qmax}]")
        return q.data
    q = np.asarray(q)
    _integer_dtype(q.dtype)
    _check_range(q, _range_reduction(q.dtype, qmax), qmax)
    return q


def round_half_away(x):
    """Round to nearest integer, halves away from zero. Works on floats and arrays."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def round_half_away_int(x: int | Fraction) -> int:
    """Exact half-away-from-zero rounding of a rational to an int."""
    f = Fraction(x)
    if f < 0:
        return -round_half_away_int(-f)
    # floor(f + 1/2) for non-negative f
    return (f.numerator * 2 + f.denominator) // (2 * f.denominator)


def rounding_right_shift(v: int, s: int) -> int:
    """Divide integer v by 2^s rounding half away from zero."""
    if s == 0:
        return int(v)
    v = int(v)
    if v >= 0:
        return (v + (1 << (s - 1))) >> s
    return -((-v + (1 << (s - 1))) >> s)


@dataclass(frozen=True)
class QuantParams:
    """Affine grid for one tensor role: step size, range minimum, bit-width.

    ``bitwidth`` is the precision this grid addresses; ``master_bitwidth`` is the
    precision it was derived from (equal for a master grid).
    """

    scale: float
    offset: float
    bitwidth: int
    master_bitwidth: int

    def __post_init__(self):
        if not self.scale > 0:
            raise DegenerateRangeError(f"scale must be positive, got {self.scale}")
        if not math.isfinite(self.scale) or not math.isfinite(self.offset):
            raise DegenerateRangeError(
                f"a grid needs a finite scale and offset, got {self.scale} and {self.offset}")
        if not (MIN_BITWIDTH <= self.bitwidth <= self.master_bitwidth <= MAX_BITWIDTH):
            raise ValueError(
                f"need {MIN_BITWIDTH} <= b={self.bitwidth} <= n={self.master_bitwidth} <= {MAX_BITWIDTH}"
            )

    @property
    def qmax(self) -> int:
        return (1 << self.bitwidth) - 1

    @property
    def is_master(self) -> bool:
        return self.bitwidth == self.master_bitwidth


@lru_cache(maxsize=1024)
def _grid_arrays(offset: float, scale: float, bitwidth: int):
    """A grid's ``offset``, ``scale`` and ``qmax`` as read-only 0-d float64
    arrays, and its storage dtype: what ``quantize`` and ``dequantize`` take.
    Made once per grid value, so a reloaded model's grids find them made."""
    return (*(_read_only(v, np.float64) for v in (offset, scale, (1 << bitwidth) - 1)),
            storage_dtype(bitwidth))


@dataclass(frozen=True)
class NestedTensor:
    """Integer tensor stored at the master bit-width of its params: a range proof.

    Integers are range-checked once, where a NestedTensor admits them. The
    checked constructor, which every tensor ``load_model`` reads goes
    through, refuses ``data`` with an element off the grid before it is
    narrowed, so the cast never wraps one, and holds its own read-only copy
    in ``storage_dtype(n)``: the caller's array is never aliased or changed,
    and a write to ``data`` raises. So the data stays in [0, qmax] for the
    tensor's life, and :func:`check_grid_ints`, :func:`shift_down` and
    :func:`dequantize` take the tensor itself as the proof, for one width
    compare; the engine wraps its own bounded results with :meth:`trusted`,
    so a ``forward`` makes no range reduction at all. Lower-precision views
    are produced with :func:`shift_down`; they are never stored back into a
    NestedTensor.
    """

    data: np.ndarray
    params: QuantParams

    def __post_init__(self):
        if not self.params.is_master:
            raise ValueError("NestedTensor params must be at master bit-width")
        data = check_grid_ints(self.data, self.params.qmax).astype(
            storage_dtype(self.params.bitwidth))
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def trusted(cls, data: np.ndarray, params: QuantParams) -> "NestedTensor":
        """Wrap indices already bounded on ``params``, without a check.

        For the engine's own results (or views of them) only: ``quantize``'s
        clip, ``_requant``'s clip or an average pool's mean of grid indices
        keeps ``data`` in [0, qmax] of ``params``, a master grid, and it is
        already in ``storage_dtype``. ``data`` is made read-only in place.
        Data from anywhere else goes through the checked constructor.
        """
        data.setflags(write=False)  # half the cost of data.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "data", data)
        object.__setattr__(t, "params", params)
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size


def make_master_params(range_min: float, range_max: float, n: int) -> QuantParams:
    """Master grid over [range_min, range_max] at bit-width n."""
    if not range_max > range_min:
        raise DegenerateRangeError(f"range [{range_min}, {range_max}] has no width")
    if not (MIN_BITWIDTH <= n <= MAX_BITWIDTH):
        raise ValueError(f"master bit-width {n} outside [{MIN_BITWIDTH}, {MAX_BITWIDTH}]")
    scale = (range_max - range_min) / ((1 << n) - 1)
    return QuantParams(scale=scale, offset=range_min, bitwidth=n, master_bitwidth=n)


def derive_params(master: QuantParams, b: int) -> QuantParams:
    """Grid at bit-width b nested inside a master grid: step doubles per dropped bit.

    The offset is shared with the master; multiplying by an exact power of two
    keeps the derived step exactly representable.
    """
    if not master.is_master:
        raise ValueError("derive_params needs a master-grid argument")
    if b > master.master_bitwidth:
        raise ValueError(f"cannot derive b={b} from n={master.master_bitwidth}")
    if b == master.master_bitwidth:
        return master
    return QuantParams(
        scale=master.scale * float(1 << (master.master_bitwidth - b)),
        offset=master.offset,
        bitwidth=b,
        master_bitwidth=master.master_bitwidth,
    )


def quantize(x, params: QuantParams) -> np.ndarray:
    """Map real values onto the integer grid; out-of-range inputs, ±inf too, clip.

    The indices come back in ``storage_dtype`` of the grid's bit-width.
    Rounds with floor(v + 1/2), which equals ``round_half_away`` here: for
    v >= 0 the two are the same expression, and for v < 0 both give at most
    0, which the clip sends to 0. A NaN has no grid index and is refused
    (ValueError): the clipped values are finite unless one is NaN, which
    ``maximum`` and ``minimum`` propagate and ``argmax`` finds first.
    """
    offset, scale, qmax, dtype = _grid_arrays(params.offset, params.scale, params.bitwidth)
    # one fresh array (0-d included), then in place: no further temporaries
    q = np.asarray(np.subtract(x, offset, dtype=np.float64))
    q /= scale
    q += _HALF
    np.floor(q, out=q)
    # in-place maximum/minimum: np.clip's wrapper costs more than the clip itself on small tensors
    np.maximum(q, _FLOAT_ZERO, out=q)
    np.minimum(q, qmax, out=q)
    if q.size and math.isnan(q.item(q.argmax())):
        raise ValueError("quantize: the input holds NaN, which has no grid index")
    return q.astype(dtype)


def dequantize(q, params: QuantParams) -> np.ndarray:
    """Reconstruct real values from grid indices (an array or a NestedTensor).

    Refuses any index off the grid.
    """
    offset, scale, _, _ = _grid_arrays(params.offset, params.scale, params.bitwidth)
    y = np.multiply(check_grid_ints(q, params.qmax), scale, dtype=np.float64)
    y += offset
    return y


@lru_cache(maxsize=None)
def _shift_plan(dtype: np.dtype, n: int, b: int):
    """How ``shift_down`` takes a ``dtype`` input from n to b bits, or a refusal.

    Refuses b > n, then other widths outside 2 <= b <= n <= 16 (ValueError),
    then a non-integer dtype (TypeError); a refusal is not cached. Else (rule,
    work, cap, half, s): ``rule`` is the :func:`_range_reduction` that checks
    a raw array against [0, 2^n - 1], and the rest the shift, all None at
    b = n, where there is none.

    With s = n - b and h = 2^(s-1), the shift is (min(q, cap) + h) >> s with
    cap = 2^n - 1 - h. For q <= cap that is (q + h) >> s, at most 2^b - 1.
    Every q above cap would round to 2^b and be clipped to 2^b - 1, which is
    what cap itself maps to. So the largest intermediate is 2^n - 1, and one
    form serves every b in every dtype that holds 2^n - 1, as every storage
    dtype does. The dtypes that do not (int8 at n = 8, int16 at n = 16,
    uint8 at n >= 9) run in ``work`` = ``storage_dtype(n)`` instead: the
    range check has passed, so the cast there is exact, and the result, at
    most the input, casts back exactly. Decided once per (dtype, n, b), as
    ``np.iinfo`` costs about a microsecond a call. cap, h and s are read-only
    0-d arrays of the work dtype.
    """
    if not MIN_BITWIDTH <= b <= n <= MAX_BITWIDTH:
        raise ValueError(f"cannot shift up: b={b} > n={n}" if b > n else
                         f"need {MIN_BITWIDTH} <= b={b} <= n={n} <= {MAX_BITWIDTH}")
    _integer_dtype(dtype)
    rule = _range_reduction(dtype, (1 << n) - 1)
    if b == n:
        return rule, dtype, None, None, None
    s = n - b
    work = dtype if np.iinfo(dtype).max >= (1 << n) - 1 else storage_dtype(n)
    half = 1 << (s - 1)
    return (rule, work, *(_read_only(v, work) for v in ((1 << n) - 1 - half, half, s)))


def shift_down(q_n, n: int, b: int) -> np.ndarray:
    """Reduce master-width integers to b bits with one rounded right shift.

    Equals clip(round(q / 2^(n-b)), 0, 2^b - 1) in the input's dtype, in
    three passes over one fresh array: clamp at cap = 2^n - 1 - 2^(s-1), add
    2^(s-1), shift right by s = n - b. Clamping first makes the add exact: no
    intermediate exceeds 2^n - 1, and the clamped values all map to 2^b - 1,
    where the rounding would have clipped them (see ``_shift_plan``). At b = n
    there is nothing to do and the (range-checked) input itself is returned.
    ``q_n`` is a raw array, range-checked by one reduction at most, or a
    NestedTensor, which costs one width compare: it refuses a grid wider than
    n bits. Refuses b > n, widths outside 2 <= b <= n <= 16 and an element
    outside [0, 2^n - 1] (ValueError) and a non-integer input (TypeError).
    One cached plan per (dtype, n, b) holds the range rule and the constants.

    The clamp takes a same-shape operand: the output is filled with cap, then
    clamped in place against the input. NumPy 2.4 runs a uint8 or uint16
    ``np.minimum`` against a broadcast scalar in a loop that is not
    vectorized: 0.50-0.59 ns per element at 2^18 elements (2-CPU Xeon),
    three quarters of the whole shift. Against an array it takes 0.04-0.08
    ns, as the fill, the add and the shift by a scalar take. So a shift of a
    uint8 or uint16 master at 2^18 elements costs 0.17-0.26 ns per element,
    against 0.63-1.03 ns with the scalar clamp. A call on a NestedTensor of
    16 to 2^10 elements takes 1.7-2.3 us, where the fill costs less than the
    0-d constants (see ``_shift_plan``) save. An int64 array, whose scalar
    clamp is vectorized already, pays for the fill (7-19% more per call); no
    storage dtype is int64.
    """
    if isinstance(q_n, NestedTensor):
        if q_n.params.bitwidth > n:
            raise ValueError(f"a {q_n.params.bitwidth}-bit tensor is not within "
                             f"[0, {(1 << n) - 1}]")
        q_n = q_n.data
        rule, work, cap, half, s = _shift_plan(q_n.dtype, n, b)
    else:
        q_n = np.asarray(q_n)
        rule, work, cap, half, s = _shift_plan(q_n.dtype, n, b)
        _check_range(q_n, rule, (1 << n) - 1)
    if s is None:
        return q_n
    out = np.empty(q_n.shape, work)
    out.fill(cap)
    # unsafe only in name: q_n has passed the range check, so work holds it
    np.minimum(q_n, out, out=out, casting="unsafe")
    out += half
    out >>= s
    return out if work is q_n.dtype else out.astype(q_n.dtype)


def dequant_requant_reference(q, from_params: QuantParams,
                              to_params: QuantParams) -> np.ndarray:
    """Change grids the conventional way: float round-trip per element.

    This is the baseline the shift transition replaces; it exists as an oracle
    and as the cost reference (``cost.STANDARD_PRIMITIVES_PER_ELEMENT``).
    """
    return quantize(dequantize(q, from_params), to_params)
