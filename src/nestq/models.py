"""Desk-scale toy models and the deterministic synthetic dataset.

The MLP (16 -> 32 -> 16 -> 4) is built as a nearest-mean template classifier:
the first two layers pass features through a split-sign identity, the final
layer scores against the class means. That gives confident, well-separated
logits without any training. The CNN (2 conv + 1 fc) uses small seeded-random
weights and exists to exercise the convolution path.
"""

from __future__ import annotations

import numpy as np

from .layers import LayerSpec, ModelGraph

MLP_DIMS = (16, 32, 16, 4)
CNN_INPUT = (1, 8, 8)
DEFAULT_CLASSES = 4
BLOB_SIGMA = 0.5
BLOB_MIN_SEPARATION = 4.0  # in units of sigma
BLOB_MEAN_RANGE = (2.0, 8.0)  # each coordinate of a class mean is uniform on it
# Draws of the class means before giving up: a layout whose means separate
# with chance p per draw fails with chance (1 - p)^MAX_MEAN_DRAWS.
MAX_MEAN_DRAWS = 100_000


def make_blob_dataset(seed: int, classes: int = DEFAULT_CLASSES,
                      samples: int = 1000, dims: int = 16
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian-blob classification data in the positive quadrant.

    Returns (X, labels, means). Class means are resampled until pairwise
    distances reach BLOB_MIN_SEPARATION sigmas; data is clipped at zero so the
    input grid can use a zero offset. Refuses (ValueError) a layout whose means
    do not separate within MAX_MEAN_DRAWS draws, as too many classes in too
    few dims never do. In one dim that is known before any draw: the means
    separate only if (classes - 1) gaps of the minimum distance fit strictly
    inside BLOB_MEAN_RANGE, as a tight fit has chance zero.
    """
    min_dist = BLOB_MIN_SEPARATION * BLOB_SIGMA
    refusal = (f"classes={classes} means in dims={dims} did not separate "
               f"in {MAX_MEAN_DRAWS} draws; use fewer classes or more dims")
    lo, hi = BLOB_MEAN_RANGE
    if dims == 1 and (classes - 1) * min_dist >= hi - lo:
        raise ValueError(refusal)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_MEAN_DRAWS):
        means = rng.uniform(lo, hi, size=(classes, dims))
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= min_dist:
            break
    else:
        raise ValueError(refusal)
    labels = rng.integers(0, classes, size=samples)
    x = means[labels] + rng.normal(0.0, BLOB_SIGMA, size=(samples, dims))
    return np.clip(x, 0.0, None), labels, means


def build_toy_mlp(seed: int = 7, n: int = 8,
                  means: np.ndarray | None = None) -> ModelGraph:
    """The fixed MLP over blob features; pass the dataset means for templates."""
    d_in, d_h1, d_h2, d_out = MLP_DIMS
    assert d_h1 == 2 * d_in and d_h2 == d_in
    rng = np.random.default_rng(seed)
    if means is None:
        _, _, means = make_blob_dataset(seed, classes=d_out, dims=d_in)

    eye = np.eye(d_in)
    w1 = np.vstack([eye, -eye]) + rng.normal(0, 1e-2, size=(d_h1, d_in))
    w2 = np.hstack([eye, -eye]) + rng.normal(0, 1e-2, size=(d_h2, d_h1))
    w3 = means.copy()
    b3 = -0.5 * (means ** 2).sum(axis=1)

    layers = [
        LayerSpec(kind="fc", name="fc1", in_features=d_in, out_features=d_h1,
                  weight=w1, bias=np.zeros(d_h1)),
        LayerSpec(kind="relu_pact", name="act1"),
        LayerSpec(kind="fc", name="fc2", in_features=d_h1, out_features=d_h2,
                  weight=w2, bias=np.zeros(d_h2)),
        LayerSpec(kind="relu_pact", name="act2"),
        LayerSpec(kind="fc", name="head", in_features=d_h2, out_features=d_out,
                  weight=w3, bias=b3),
    ]
    return ModelGraph(layers=layers, input_shape=(d_in,), master_bitwidth=n)


def build_toy_cnn(seed: int = 11, n: int = 8) -> ModelGraph:
    """Two convolutions and a classifier head over 1x8x8 inputs."""
    rng = np.random.default_rng(seed)
    c, h, w = CNN_INPUT
    w1 = rng.normal(0, 0.4, size=(4, c, 3, 3))
    w2 = rng.normal(0, 0.25, size=(8, 4, 3, 3))
    fc_in = 8 * (h // 2) * (w // 2)
    w3 = rng.normal(0, 0.2, size=(DEFAULT_CLASSES, fc_in))
    layers = [
        LayerSpec(kind="conv2d", name="conv1", in_channels=c, out_channels=4,
                  kernel=3, stride=1, padding=1, weight=w1, bias=np.zeros(4)),
        LayerSpec(kind="relu_pact", name="act1"),
        LayerSpec(kind="conv2d", name="conv2", in_channels=4, out_channels=8,
                  kernel=3, stride=2, padding=1, weight=w2, bias=np.zeros(8)),
        LayerSpec(kind="relu_pact", name="act2"),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=fc_in, out_features=DEFAULT_CLASSES,
                  weight=w3, bias=np.zeros(DEFAULT_CLASSES)),
    ]
    return ModelGraph(layers=layers, input_shape=CNN_INPUT, master_bitwidth=n)


def cnn_dataset(seed: int, samples: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Blob data reshaped into 1x8x8 images for the CNN."""
    c, h, w = CNN_INPUT
    x, labels, _ = make_blob_dataset(seed, samples=samples, dims=c * h * w)
    return x.reshape(samples, c, h, w), labels
