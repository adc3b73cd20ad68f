"""Self-checks for the oracles and the toy model family."""

import hashlib

import numpy as np
import pytest

from nestq import models
from nestq.calibration import float_forward
from nestq.layers import BitPolicy
from nestq.models import BLOB_SIGMA, cnn_dataset, make_blob_dataset
from nestq.quantize import derive_params, make_master_params
from nestq.reference import (
    enumerate_macs,
    exact_nested_shift,
    exact_requantize,
    fake_quant_forward,
    fake_quantize,
    nested_move,
)


class TestDataset:
    def test_deterministic(self):
        a = make_blob_dataset(13, samples=50)
        b = make_blob_dataset(13, samples=50)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_non_negative_and_separated(self):
        x, _, means = make_blob_dataset(1, samples=200)
        assert x.min() >= 0.0
        d = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 4.0 * 0.5

    def test_float_linear_model_accuracy_floor(self):
        # nearest-mean in float exceeds 95% on well-separated blobs
        x, labels, means = make_blob_dataset(2, samples=1000)
        scores = x @ means.T - 0.5 * (means ** 2).sum(axis=1)
        acc = np.mean(np.argmax(scores, axis=1) == labels)
        assert acc > 0.95

    def test_empty_dataset(self):
        x, labels, means = make_blob_dataset(0, samples=0)
        assert x.shape == (0, 16) and labels.shape == (0,)

    def test_image_variant(self):
        x, labels = cnn_dataset(4, samples=10)
        assert x.shape == (10, 1, 8, 8)

    def test_layout_that_cannot_separate_raises(self, monkeypatch):
        # in one dim, four or more means 2 apart cannot fit in [2, 8] but by
        # chance zero: refused before a generator is built
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was built for a layout that cannot separate")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for classes in (4, 5, 20):
            with pytest.raises(ValueError, match=f"classes={classes} means in dims=1 did not "
                                                 "separate in 100000 draws"):
                make_blob_dataset(0, classes=classes, dims=1)
        # beyond one dim the draws decide
        monkeypatch.undo()
        monkeypatch.setattr(models, "MAX_MEAN_DRAWS", 10)
        with pytest.raises(ValueError, match="classes=20 means in dims=2 did not separate "
                                             "in 10 draws"):
            make_blob_dataset(0, classes=20, dims=2)

    @pytest.mark.parametrize("seed, digest", [(0, "c7bd9d468b268dc0"), (7, "d8b41caf8be55124")])
    def test_default_dataset_pinned(self, seed, digest):
        # sha256 of X, labels (as <i8) and means of the default 16-dim dataset
        h = hashlib.sha256()
        for a in make_blob_dataset(seed):
            h.update(np.asarray(a, dtype="<f8" if a.dtype.kind == "f" else "<i8").tobytes())
        assert h.hexdigest()[:16] == digest

    # (3, 1) and (8, 2) need tens and thousands of draws of the means.
    @pytest.mark.parametrize("seed, classes, dims", [
        (3, 4, 16), (0, 1, 1), (0, 3, 1), (1, 8, 2), (5, 20, 16)])
    def test_bounded_draws_give_the_unbounded_arrays(self, seed, classes, dims):
        rng = np.random.default_rng(seed)
        while True:  # the resampling loop, unbounded
            means = rng.uniform(2.0, 8.0, size=(classes, dims))
            dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
            np.fill_diagonal(dists, np.inf)
            if dists.min() >= 4.0 * BLOB_SIGMA:
                break
        labels = rng.integers(0, classes, size=40)
        x = np.clip(means[labels] + rng.normal(0.0, BLOB_SIGMA, size=(40, dims)), 0.0, None)
        got = make_blob_dataset(seed, classes=classes, samples=40, dims=dims)
        for a, b in zip(got, (x, labels, means)):
            assert np.array_equal(a, b)


class TestFakeQuant:
    def test_idempotent(self):
        p = make_master_params(-1.0, 1.0, 8)
        x = np.linspace(-1, 1, 33)
        once = fake_quantize(x, p)
        assert np.array_equal(fake_quantize(once, p), once)

    def test_error_within_half_step(self):
        p = make_master_params(-1.0, 1.0, 8)
        x = np.linspace(-1, 1, 1001)
        assert np.max(np.abs(fake_quantize(x, p) - x)) <= p.scale / 2 + 1e-12

    def test_forward_close_to_float_at_full_width(self, mlp, blob_data):
        x = blob_data[0][:50]
        y_float = float_forward(mlp, x)[-1]
        y_fake = fake_quant_forward(mlp, x, BitPolicy.uniform(8, 3))
        step = mlp.layers[-1].output_params.scale
        assert np.max(np.abs(y_fake - y_float)) <= 6 * step

    def test_toy_mlp_classifies_via_oracle(self, mlp, blob_data):
        x, labels, _ = blob_data
        y = fake_quant_forward(mlp, x[:200], BitPolicy.uniform(8, 3))
        assert np.mean(np.argmax(y, axis=1) == labels[:200]) > 0.95


class TestExactOracles:
    def test_requantize_identity(self):
        p = make_master_params(0.0, 2.0, 8)
        assert all(exact_requantize(q, p, p) == q for q in range(256))

    def test_nested_shift_known_values(self):
        assert exact_nested_shift(100, 8, 4) == 6
        assert exact_nested_shift(255, 8, 2) == 3

    @pytest.mark.parametrize("lo, hi, n, stride", [
        (-3.0, 5.0, 8, 1), (0.37, 11.1, 12, 1), (-0.9, 1.3, 16, 7)])
    def test_nested_move_is_the_exact_shift(self, lo, hi, n, stride):
        # Every tie q = 2^(s-1) mod 2^s included: the float move rounds it up.
        grid = make_master_params(lo, hi, n)
        q = np.arange(0, 1 << n, stride)
        for b in range(2, n + 1):
            derived = derive_params(grid, b)
            want = np.array([exact_nested_shift(int(v), n, b) for v in q])
            got = nested_move(q * grid.scale + grid.offset, grid, b)
            assert np.array_equal(got, want * derived.scale + derived.offset), b


class TestMacEnumerator:
    def test_mlp_counts(self, mlp):
        assert enumerate_macs(mlp) == [16 * 32, 32 * 16, 16 * 4]

    def test_cnn_counts(self, cnn):
        # conv1: 8*8 outputs x 4 ch x 9 taps; conv2: 4*4 x 8 x 36; fc: 128*4
        assert enumerate_macs(cnn) == [64 * 4 * 9, 16 * 8 * 36, 128 * 4]
