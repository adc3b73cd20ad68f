"""Shared fixtures and helpers: calibrated toy models, their datasets, and
constants rounded at a chosen F."""

import numpy as np
import pytest

from nestq.calibration import calibrate
from nestq.intops import IntOpConstants
from nestq.layers import LayerSpec, ModelGraph
from nestq.models import (
    CNN_INPUT,
    DEFAULT_CLASSES,
    build_toy_cnn,
    build_toy_mlp,
    cnn_dataset,
    make_blob_dataset,
)
from nestq.quantize import round_half_away_int

MLP_SEED = 7
DATA_SEED = 3


def constants_at(c: IntOpConstants, frac_bits: int) -> IntOpConstants:
    """``c``'s exact ratios rounded at another F, which no builder makes: the
    worked examples at F = 0 and the probes one F past a proof."""
    k = tuple(round_half_away_int(r * (1 << frac_bits)) for r in c.exact)
    return IntOpConstants(role=c.role, k=k, exact=c.exact, frac_bits=frac_bits,
                          degenerate=any(r != 0 and ki == 0 for r, ki in zip(c.exact, k)))


@pytest.fixture(scope="session")
def blob_data():
    x, labels, means = make_blob_dataset(DATA_SEED, samples=1000)
    return x, labels, means


@pytest.fixture(scope="session")
def mlp(blob_data):
    x, _, means = blob_data
    model = build_toy_mlp(seed=MLP_SEED, means=means)
    calibrate(model, [x[i:i + 100] for i in range(0, 400, 100)])
    return model


@pytest.fixture(scope="session")
def cnn_data():
    return cnn_dataset(5, samples=100)


@pytest.fixture(scope="session")
def cnn(cnn_data):
    x, _ = cnn_data
    model = build_toy_cnn(seed=11)
    calibrate(model, [x[i:i + 25] for i in range(0, 100, 25)])
    return model


def build_block(n: int = 8, seed: int = 11, width: int = 8) -> ModelGraph:
    """One ResNet basic block over 1x8x8 inputs, its second clamp after the add:
    conv -> clamp -> conv -> residual_add -> clamp -> avgpool -> flatten -> fc."""
    rng = np.random.default_rng(seed)
    c, h, w = CNN_INPUT
    fc_in = width * (h // 2) * (w // 2)
    layers = [
        LayerSpec(kind="conv2d", name="conv1", in_channels=c, out_channels=width,
                  kernel=3, padding=1, weight=rng.normal(0, 0.4, size=(width, c, 3, 3)),
                  bias=np.zeros(width)),
        LayerSpec(kind="relu_pact", name="act1"),
        LayerSpec(kind="conv2d", name="conv2", in_channels=width, out_channels=width,
                  kernel=3, padding=1, weight=rng.normal(0, 0.25, size=(width, width, 3, 3)),
                  bias=np.zeros(width)),
        LayerSpec(kind="residual_add", name="res", source=1),
        LayerSpec(kind="relu_pact", name="act2"),
        LayerSpec(kind="avgpool", name="pool", pool=2),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=fc_in, out_features=DEFAULT_CLASSES,
                  weight=rng.normal(0, 0.2, size=(DEFAULT_CLASSES, fc_in)),
                  bias=np.zeros(DEFAULT_CLASSES)),
    ]
    return ModelGraph(layers=layers, input_shape=CNN_INPUT, master_bitwidth=n)


def build_padded_chain(n: int = 8, seed: int = 0) -> tuple[ModelGraph, np.ndarray]:
    """conv -> conv -> flatten over 1x6x6 inputs in [0, 1], both convs padded and
    unclamped, and 64 inputs to calibrate on. The first conv's weights are
    non-negative and its bias 5.0, so its outputs, the second conv's inputs,
    are all well above 0.0, the second conv's padding."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec(kind="conv2d", name="conv1", in_channels=1, out_channels=2, kernel=3,
                  padding=1, weight=np.abs(rng.normal(0, 0.5, size=(2, 1, 3, 3))),
                  bias=np.full(2, 5.0)),
        LayerSpec(kind="conv2d", name="conv2", in_channels=2, out_channels=2, kernel=3,
                  padding=1, weight=rng.normal(0, 0.5, size=(2, 2, 3, 3))),
        LayerSpec(kind="flatten", name="flat"),
    ]
    model = ModelGraph(layers=layers, input_shape=(1, 6, 6), master_bitwidth=n)
    return model, rng.uniform(0.0, 1.0, size=(64, 1, 6, 6))


@pytest.fixture(scope="session")
def make_block(cnn_data):
    """Builds the residual block at master width n, calibrated on the CNN data."""
    x, _ = cnn_data

    def make(n: int = 8) -> ModelGraph:
        return calibrate(build_block(n), [x[i:i + 25] for i in range(0, 100, 25)])
    return make
