"""Quantization grids, nested derivation, and the shift transition."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestq.quantize as quantize_mod
from nestq import blobio
from nestq.blobio import write_blob
from nestq.layers import BitPolicy, forward, run_layer
from nestq.quantize import (
    DegenerateRangeError,
    NestedTensor,
    QuantParams,
    dequant_requant_reference,
    dequantize,
    derive_params,
    make_master_params,
    quantize,
    round_half_away,
    round_half_away_int,
    shift_down,
    storage_dtype,
)
from nestq.reference import exact_nested_shift, exact_requantize


def unit8():
    return QuantParams(scale=1.0, offset=0.0, bitwidth=8, master_bitwidth=8)


class TestMasterParams:
    def test_byte_range(self):
        p = make_master_params(0.0, 255.0, 8)
        assert p.scale == 1.0 and p.offset == 0.0

    def test_two_bit_symmetric(self):
        p = make_master_params(-1.0, 1.0, 2)
        assert p.scale == pytest.approx(2 / 3) and p.offset == -1.0

    def test_unit_interval(self):
        p = make_master_params(0.0, 1.0, 8)
        assert p.scale == pytest.approx(1 / 255)

    def test_degenerate_range_rejected(self):
        with pytest.raises(DegenerateRangeError):
            make_master_params(1.0, 1.0, 8)
        with pytest.raises(DegenerateRangeError):
            make_master_params(2.0, 1.0, 8)

    def test_bitwidth_limits(self):
        with pytest.raises(ValueError):
            make_master_params(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            make_master_params(0.0, 1.0, 17)

    @pytest.mark.parametrize("scale, offset, b, n, error", [
        (0.0, 0.0, 8, 8, DegenerateRangeError),
        (-0.5, 0.0, 8, 8, DegenerateRangeError),
        (float("nan"), 0.0, 8, 8, DegenerateRangeError),
        (float("inf"), 0.0, 8, 8, DegenerateRangeError),
        (1.0, float("nan"), 8, 8, DegenerateRangeError),
        (1.0, float("-inf"), 8, 8, DegenerateRangeError),
        (1.0, 0.0, 1, 8, ValueError),  # b below MIN_BITWIDTH
        (1.0, 0.0, 9, 8, ValueError),  # b above its master width
        (1.0, 0.0, 16, 17, ValueError),  # n above MAX_BITWIDTH
    ], ids=["scale-0", "scale-neg", "scale-nan", "scale-inf", "offset-nan", "offset-inf",
            "b-1", "b-above-n", "n-17"])
    def test_grid_refused(self, scale, offset, b, n, error):
        with pytest.raises(error):
            QuantParams(scale=scale, offset=offset, bitwidth=b, master_bitwidth=n)


class TestDeriveParams:
    def test_step_doubles_per_dropped_bit(self):
        p = derive_params(unit8(), 4)
        assert p.scale == 16.0 and p.bitwidth == 4 and p.master_bitwidth == 8

    def test_same_width_is_identity(self):
        p = unit8()
        assert derive_params(p, 8) is p

    def test_unit_interval_to_two_bits(self):
        master = make_master_params(0.0, 1.0, 8)
        p = derive_params(master, 2)
        assert p.scale == pytest.approx(64 / 255)
        assert Fraction(p.scale) == Fraction(master.scale) * 64

    def test_offset_shared(self):
        master = make_master_params(-3.0, 5.0, 8)
        assert derive_params(master, 3).offset == master.offset

    def test_cannot_derive_upward(self):
        with pytest.raises(ValueError):
            derive_params(derive_params(unit8(), 4), 8)
        with pytest.raises(ValueError):
            derive_params(unit8(), 9)


class TestQuantizeDequantize:
    def test_offset_maps_to_zero(self):
        p = make_master_params(-4.0, 4.0, 8)
        assert quantize(np.array(-4.0), p) == 0

    def test_range_top_maps_to_qmax(self):
        p = unit8()
        assert quantize(np.array(255.0), p) == 255

    def test_round_half_away(self):
        assert quantize(np.array(100.4), unit8()) == 100
        assert quantize(np.array(100.5), unit8()) == 101

    def test_clipping(self):
        p = unit8()
        assert quantize(np.array(-10.0), p) == 0
        assert quantize(np.array(999.0), p) == 255

    @pytest.mark.parametrize("x", [np.array([0.5, np.nan]), np.array(np.nan),
                                   np.full((2, 3), np.nan)], ids=["one", "0-d", "all"])
    def test_nan_refused(self, x):
        with pytest.raises(ValueError, match="NaN"):
            quantize(x, make_master_params(0.0, 1.0, 12))

    def test_infinities_clip(self):
        p = make_master_params(0.0, 1.0, 12)
        assert quantize(np.array([np.inf, -np.inf, 0.5]), p).tolist() == [4095, 0, 2048]

    @pytest.mark.parametrize("shape", [(7,), (3, 5)], ids=["1-d", "batch"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_nan_refused_anywhere_among_infinities(self, shape, where):
        """One NaN is refused wherever it sits; without it, the same values,
        ±inf among them, clip."""
        p = make_master_params(0.0, 1.0, 12)
        x = np.linspace(-0.5, 1.5, np.prod(shape)).reshape(shape)
        at = {"first": 0, "middle": x.size // 2, "last": x.size - 1}[where]
        plus, minus = [i for i in (0, 1, x.size - 1, x.size - 2) if i != at][:2]
        x.flat[plus], x.flat[minus] = np.inf, -np.inf
        clean = x.copy()
        x.flat[at] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            quantize(x, p)
        q = quantize(clean, p)
        assert q.shape == shape and (q.flat[plus], q.flat[minus]) == (4095, 0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input_accepted(self, shape):
        q = quantize(np.empty(shape), unit8())
        assert q.shape == shape and q.dtype == np.uint8

    def test_dequantize_zero_is_offset(self):
        p = make_master_params(-2.0, 6.0, 4)
        assert dequantize(np.array(0), p) == -2.0

    def test_dequantize_identity_scale(self):
        assert dequantize(np.array(100), unit8()) == 100.0

    def test_dequantize_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dequantize(np.array(256), unit8())
        with pytest.raises(ValueError):
            dequantize(np.array([-1], dtype=np.int8), unit8())

    def test_dequantize_rejects_non_integer(self):
        with pytest.raises(TypeError):
            dequantize(np.array([1.5]), unit8())

    @pytest.mark.parametrize("n", [2, 8, 9, 16])
    def test_indices_in_storage_dtype(self, n):
        p = make_master_params(-1.0, 1.0, n)
        q = quantize(np.linspace(-2.0, 2.0, 9), p)
        assert q.dtype == storage_dtype(n)
        assert q.min() == 0 and q.max() == p.qmax

    @pytest.mark.parametrize("n", [2, 8, 12, 16])
    def test_matches_half_away_rounding(self, n):
        """floor(v + 1/2) then clip equals the clipped half-away rounding of v.

        On a grid with a power-of-two step every x below is exact, so the
        ±k.5 ties are exact ties: below zero, inside the grid, above 2^n - 1.
        """
        p = QuantParams(scale=0.25, offset=-3.0, bitwidth=n, master_bitwidth=n)
        k = np.concatenate([np.arange(-6, 7), np.arange(p.qmax - 6, p.qmax + 7)])
        v = np.concatenate([k, k + 0.5, k - 0.5, k + 0.49, k - 0.49, [-1e9, 1e9, -0.0]])
        x = np.concatenate([p.offset + v * p.scale,
                            np.random.default_rng(n).uniform(-5.0, p.qmax * 0.3, 1000)])

        def old(x, p):
            q = round_half_away((x - p.offset) / p.scale)
            return np.clip(q, 0, p.qmax).astype(storage_dtype(p.bitwidth))

        for grid in (p, make_master_params(-1.3, 2.7, n)):
            got = quantize(x, grid)
            assert got.dtype == storage_dtype(n) and np.array_equal(got, old(x, grid))
            for xi in x[:len(v)]:
                got = quantize(np.array(xi), grid)
                assert isinstance(got, np.ndarray) and got.shape == () \
                    and got.dtype == storage_dtype(n) and got == old(xi, grid), xi

    @given(st.floats(-1.0, 1.0), st.integers(2, 10))
    def test_round_trip_within_half_step(self, x, n):
        p = make_master_params(-1.0, 1.0, n)
        assert abs(dequantize(quantize(np.array(x), p), p) - x) <= p.scale / 2 + 1e-12

    @given(st.integers(0, 255))
    def test_integer_round_trip_exact(self, q):
        p = make_master_params(-1.0, 1.0, 8)
        assert quantize(dequantize(np.array(q), p), p) == q


class TestShiftDown:
    def test_100_down_to_4_bits(self):
        assert shift_down(np.array(100), 8, 4) == 6

    def test_zero_shift_identity(self):
        q = np.arange(256)
        assert np.array_equal(shift_down(q, 8, 8), q)

    def test_saturating_case(self):
        # round(255/64) = 4, above the 2-bit maximum of 3
        assert shift_down(np.array(255), 8, 2) == 3

    def test_rejects_upshift(self):
        with pytest.raises(ValueError):
            shift_down(np.array(1), 4, 8)

    @pytest.mark.parametrize("n,b", [(8, 1), (8, 0), (8, -1), (1, 1), (17, 1), (17, 16)])
    def test_rejects_widths_outside_the_domain(self, n, b):
        # the rule QuantParams states: 2 <= b <= n <= 16
        q = np.arange(256, dtype=np.uint8) if n == 8 else np.arange(2)
        with pytest.raises(ValueError, match=f"need 2 <= b={b} <= n={n} <= 16"):
            shift_down(q, n, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shift_down(np.array(300), 8, 4)

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=50)
    def test_monotone(self, n, data):
        b = data.draw(st.integers(2, n))
        q = np.arange(1 << n)
        out = shift_down(q, n, b)
        assert np.all(np.diff(out) >= 0)

    def test_pre_clip_error_bounded_half(self):
        for n in range(2, 11):
            for b in range(2, n + 1):
                q = np.arange(1 << n, dtype=np.int64)
                s = n - b
                unclipped = (q + (1 << (s - 1))) >> s if s else q
                assert np.max(np.abs(unclipped - q / (1 << s))) <= 0.5

    def test_exact_rational_oracle_exhaustive(self):
        """Every q < 2^n, n = 2..16, every b <= n, in every NumPy integer dtype.

        A dtype gets the indices it can hold, and its own dtype back. That
        includes the ones that cannot hold 2^n - 1 (int8 at n = 8, int16 at
        n = 16, uint8 at n >= 9), which shift in ``storage_dtype(n)``. The
        largest index a dtype holds is also shifted as a 0-d array, which
        must come back 0-d. The oracle runs once per shift s over all 2^16
        indices, at n = 16. For n < 16 no q < 2^n reaches that clip at
        2^(16-s) - 1, so the n-bit oracle is the same rounding clipped at
        2^b - 1.
        """
        q = np.arange(1 << 16)
        dtypes = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
        for s in range(0, 15):
            rounded = np.array([exact_nested_shift(v, 16, 16 - s) for v in range(1 << 16)])
            for n in range(max(2, s + 2), 17):
                b = n - s
                want = np.minimum(rounded, (1 << b) - 1)
                for dtype in dtypes:
                    size = min(1 << n, int(np.iinfo(dtype).max) + 1)
                    got = shift_down(q[:size].astype(dtype), n, b)
                    assert got.dtype == dtype and np.array_equal(got, want[:size]), \
                        (n, b, dtype)
                    got = shift_down(np.array(size - 1, dtype=dtype), n, b)
                    assert isinstance(got, np.ndarray) and got.shape == () \
                        and got.dtype == dtype and got == want[size - 1], (n, b, dtype)

    @staticmethod
    def _layout(v: np.ndarray, layout: str):
        """``v`` laid out as ``layout``, and the same values as a fresh array."""
        if layout == "stride-2":
            base = np.zeros(2 * v.size, dtype=v.dtype)
            base[::2] = v
            return base[::2], v
        if layout == "reversed":
            return v[::-1].copy()[::-1], v
        if layout == "transposed":
            v = v[: v.size // 2 * 2].reshape(-1, 2)
            return v.T, v.T.copy()
        if layout == "read-only":
            v = v.copy()
            v.flags.writeable = False
            return v, v.copy()
        return np.array(v[-1]), np.array(v[-1])  # 0-d: the largest index

    @pytest.mark.parametrize("layout", ["stride-2", "reversed", "transposed",
                                        "read-only", "0-d"])
    def test_every_input_layout(self, layout):
        """Every 2 <= b < n <= 16 on a seeded sample, in every integer dtype.

        The sample holds the top 2^(n-b) indices, which the clamp sends to
        2^b - 1, and some below 128, so that every dtype, int8 at n = 16 too,
        gets some of the sampled indices: those it can hold. The result has
        the input's dtype and shape, equals the exact-rational oracle, shares
        no memory with the input and leaves it unchanged.
        """
        rng = np.random.default_rng(18)
        dtypes = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
        for n in range(3, 17):
            for b in range(2, n):
                top = np.arange((1 << n) - (1 << (n - b)), 1 << n)
                sample = np.sort(np.concatenate([rng.integers(0, 1 << n, size=64),
                                                 rng.integers(0, min(1 << n, 128), size=16), top]))
                want = np.array([exact_nested_shift(v, n, b) for v in sample])
                for dtype in dtypes:
                    held = sample <= np.iinfo(dtype).max
                    q, before = self._layout(sample[held].astype(dtype), layout)
                    expect = self._layout(want[held], layout)[1]
                    got = shift_down(q, n, b)
                    assert got.dtype == dtype and got.shape == q.shape, (n, b, dtype)
                    assert np.array_equal(got, expect), (n, b, dtype)
                    assert np.array_equal(q, before), (n, b, dtype)
                    assert not np.shares_memory(got, q), (n, b, dtype)

    def test_no_widened_temporaries(self):
        """A master shifts with no buffer beyond its output.

        Peak traced memory stays within 1.1x the output, where one int64
        intermediate would add 8 bytes an element, or a second buffer of the
        output's dtype (say, a filled cap beside the output) 1 to 2. Checked
        at n = 12 in uint16 and at n = 8 and n = 16, where the dtype is full.
        """
        rng = np.random.default_rng(0)
        for n, b, dtype in ((8, 4, np.uint8), (12, 8, np.uint16), (16, 8, np.uint16)):
            q = rng.integers(0, 1 << n, size=1 << 20, dtype=dtype)
            tracemalloc.start()
            try:
                out = shift_down(q, n, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.dtype == dtype
            assert peak <= 1.1 * out.nbytes, (n, peak, out.nbytes)

    def test_computes_in_the_input_dtype(self):
        q = np.array([0, 1, 2, 3], dtype=np.int32)
        assert shift_down(q, 8, 4).dtype == np.int32
        assert shift_down(q, 8, 8) is q

    @pytest.mark.parametrize("q", [np.array([3.7, 200.9]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_rejects_non_integer_input(self, q):
        for b in (4, 8):
            with pytest.raises(TypeError):
                shift_down(q, 8, b)


class TestDequantRequantReference:
    def test_identity_on_same_params(self):
        p = make_master_params(-2.0, 2.0, 8)
        q = np.arange(256)
        assert np.array_equal(dequant_requant_reference(q, p, p), q)

    def test_halving_scale(self):
        p1 = unit8()
        p2 = QuantParams(scale=2.0, offset=0.0, bitwidth=8, master_bitwidth=8)
        assert dequant_requant_reference(np.array(7), p1, p2) == 4

    def test_within_one_step_of_shift(self):
        master = make_master_params(-1.3, 2.7, 8)
        q = np.arange(256)
        for b in range(2, 8):
            ref = dequant_requant_reference(q, master, derive_params(master, b))
            assert np.max(np.abs(ref - shift_down(q, 8, b))) <= 1

    def test_matches_exact_rational_requantize(self):
        src = make_master_params(-1.0, 3.0, 6)
        dst = make_master_params(-0.5, 2.0, 6)
        for q in range(64):
            assert dequant_requant_reference(np.array(q), src, dst) == \
                exact_requantize(q, src, dst)


class TestNestedTensor:
    def test_rejects_float_data(self):
        with pytest.raises(TypeError):
            NestedTensor(data=np.zeros(3), params=unit8())

    def test_rejects_non_master_params(self):
        with pytest.raises(ValueError):
            NestedTensor(data=np.zeros(3, dtype=np.int64),
                         params=derive_params(unit8(), 4))

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(ValueError):
            NestedTensor(data=np.array([256]), params=unit8())

    @pytest.mark.parametrize("n", [2, 4, 8, 9, 12, 16])
    def test_storage_dtype_per_width(self, n):
        t = NestedTensor(data=np.arange(1 << n, dtype=np.int64),
                         params=make_master_params(0.0, 1.0, n))
        assert t.data.dtype == (np.uint8 if n <= 8 else np.uint16)
        assert np.array_equal(t.data, np.arange(1 << n))

    def test_caller_array_never_mutated(self):
        data = np.array([[0, 7], [255, 3]], dtype=np.int64)
        before = data.copy()
        t = NestedTensor(data=data, params=unit8())
        with pytest.raises(ValueError):
            t.data[0, 0] = 9
        assert data.dtype == np.int64 and np.array_equal(data, before)

    def test_a_wider_grid_is_refused(self):
        t = NestedTensor(data=np.array([4095]), params=make_master_params(0.0, 1.0, 12))
        with pytest.raises(ValueError):
            shift_down(t, 8, 4)
        with pytest.raises(ValueError):
            dequantize(t, unit8())
        assert shift_down(t, 12, 4) == 15
        assert shift_down(t, 16, 4) == 1  # a narrower grid is within range

    def test_storage_dtype_array_kept(self):
        # kept equal, as the tensor's own read-only copy: the caller's array is never aliased
        data = np.arange(4, dtype=np.uint8)
        t = NestedTensor(data=data, params=unit8())
        assert t.data.dtype == np.uint8 and np.array_equal(t.data, data)
        assert not t.data.flags.writeable
        assert not np.shares_memory(t.data, data)


# Out-of-range elements per master width: below zero, one past 2^n - 1, the
# int64 minimum, and values that a narrowing cast would wrap into range.
OUT_OF_RANGE = [
    (n, np.array([v], dtype=dtype))
    for n in (2, 8, 12, 16)
    for v, dtype in ((-1, np.int64), (1 << n, np.int64), (-(1 << 63), np.int64),
                     ((1 << 16) + 5, np.int64), ((1 << 8) + (1 << n) - 1, np.int64),
                     (-1, np.int32), (-1, np.int16), (-1, np.int8))
    if v >= 1 << n or v < 0
] + [(12, np.array([4096], dtype=np.uint16)), (4, np.array([16], dtype=np.uint8))]


@pytest.mark.parametrize("n,q", OUT_OF_RANGE,
                         ids=[f"n{n}-{q.dtype}-{q[0]}" for n, q in OUT_OF_RANGE])
def test_out_of_range_refused(n, q):
    with pytest.raises(ValueError):
        NestedTensor(data=q, params=make_master_params(0.0, 1.0, n))
    for b in (n, max(2, n - 3)):
        with pytest.raises(ValueError):
            shift_down(q, n, b)


# An index off the grid for each dtype's range rule: read as it is (uint8,
# uint16), as its unsigned twin (int8 at n = 4, int64) or by its minimum
# (int8 at n = 8, where the dtype's own maximum is on the grid).
BAD_INDEX = [(np.uint8, 4, 16), (np.uint16, 12, 4096), (np.int8, 4, 16), (np.int8, 4, -1),
             (np.int8, 8, -1), (np.int64, 12, 4096), (np.int64, 12, -1)]


def _layouts(dtype, bad):
    """Arrays holding one ``bad`` element: first, last, inside a transposed
    view and inside a strided view."""
    def base(at):
        v = np.arange(12, dtype=dtype) % 4
        v[at] = bad
        return v
    return [base(0), base(-1), base(7).reshape(3, 4).T, base(6)[::2]]


@pytest.mark.parametrize("dtype,n,bad", BAD_INDEX,
                         ids=[f"{np.dtype(d)}-n{n}-{v}" for d, n, v in BAD_INDEX])
def test_index_off_the_grid_refused_in_every_layout(dtype, n, bad):
    """The range check finds an index off the grid wherever it sits, in a
    contiguous array or a view."""
    for q in _layouts(dtype, bad):
        with pytest.raises(ValueError, match="outside"):
            quantize_mod.check_grid_ints(q, (1 << n) - 1)
        for b in (2, n):
            with pytest.raises(ValueError, match="outside"):
                shift_down(q, n, b)
    # a strided view that skips the bad element holds none
    skip = np.arange(12, dtype=dtype) % 4
    skip[5] = bad
    assert np.array_equal(quantize_mod.check_grid_ints(skip[::2], (1 << n) - 1), skip[::2])
    assert np.array_equal(shift_down(skip[::2], n, n), skip[::2])


@pytest.mark.parametrize("dtype,n", [(np.uint8, 4), (np.int8, 8), (np.int64, 12)])
def test_empty_index_arrays_accepted(dtype, n):
    q = np.empty((0, 3), dtype)
    assert quantize_mod.check_grid_ints(q, (1 << n) - 1) is q
    assert shift_down(q, n, 2).shape == (0, 3)


@pytest.mark.parametrize("entry", ["NestedTensor", "load_model", "shift_down", "dequantize"])
@pytest.mark.parametrize("q", [np.array([1.5]), np.array([256])], ids=["float", "out_of_range"])
def test_external_entries_still_refuse(entry, q, tmp_path, mlp):
    """Layer outputs skip the range check; every way in from outside keeps it."""
    error = TypeError if q.dtype.kind == "f" else ValueError
    if entry == "NestedTensor":
        call = lambda: NestedTensor(data=q, params=unit8())
    elif entry == "shift_down":
        call = lambda: shift_down(q, 8, 4)
    elif entry == "dequantize":
        call = lambda: dequantize(q, unit8())
    else:
        blobio.save_model(mlp, tmp_path / "m")
        write_blob(tmp_path / "m" / "blobs" / "layer0_weight_q.nqtb",
                   np.broadcast_to(q, mlp.layers[0].weight_q.shape))
        call, error = (lambda: blobio.load_model(tmp_path / "m")), blobio.ManifestError
    with pytest.raises(error):
        call()


def test_layer_outputs_skip_the_range_check(mlp, blob_data, monkeypatch):
    raw, checked = [], []
    check, reduce = quantize_mod.check_grid_ints, quantize_mod._check_range

    def counted(q, qmax):
        if not isinstance(q, NestedTensor):
            raw.append(q)
        return check(q, qmax)

    def reduced(q, rule, qmax):
        checked.append(q)
        return reduce(q, rule, qmax)

    monkeypatch.setattr(quantize_mod, "check_grid_ints", counted)
    monkeypatch.setattr(quantize_mod, "_check_range", reduced)
    for policy in (BitPolicy.uniform(8, 3), BitPolicy((4, 6, 8))):
        forward(mlp, blob_data[0][:2], policy)
    # Every shift and the exit dequantize take a NestedTensor, its own proof:
    # no range reduction runs, in shift_down or anywhere else.
    assert len(raw) == 0 and len(checked) == 0
    shift_down(np.array([3]), 8, 4)  # a raw array is checked
    assert len(checked) == 1


def test_tensors_are_immutable(mlp, blob_data, tmp_path):
    checked = NestedTensor(data=quantize(blob_data[0][:2], mlp.input_params),
                           params=mlp.input_params)
    out, _ = run_layer(mlp.layers[0], checked, 4)
    blobio.save_model(mlp, tmp_path / "m")
    loaded = blobio.load_model(tmp_path / "m").layers[0].weight_q
    for t in (checked, out, loaded):
        with pytest.raises(ValueError):
            t.data.flat[0] = 0


class TestRounding:
    @given(st.fractions())
    def test_int_rounding_half_away(self, f):
        r = round_half_away_int(f)
        assert abs(Fraction(r) - f) <= Fraction(1, 2)
        if f - int(f) == Fraction(1, 2):
            assert r == int(f) + 1
        if f - int(f) == Fraction(-1, 2):
            assert r == int(f) - 1

    def test_array_rounding_matches_int_rounding(self):
        xs = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 0.49, -0.49])
        want = [-3, -2, -1, 1, 2, 3, 0, 0]
        assert np.array_equal(round_half_away(xs), want)
