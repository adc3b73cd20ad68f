"""Per-input bit-width selection: a small MLP over pooled features.

The controller emits one row of K logits per MAC layer. At inference the
policy is the row-wise argmax (ties resolved toward the smaller bit-width);
for training-time simulation a Gumbel-Softmax sample is provided. No training
loop ships here: weights are loaded or seeded-random, and a range heuristic
gives a deterministic policy without any weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import BitPolicy, ModelGraph

DEFAULT_HIDDEN = 64
DEFAULT_FEATURES = 16


@dataclass
class ControllerSpec:
    """Two-layer MLP emitting num_layers x K bit-width logits.

    ``feature_dim`` is the pooled input length: the flattened input is averaged
    into that many equal segments (global average pooling when feature_dim=1).
    Refuses (ValueError) a ``feature_dim`` below 1 and an empty candidate set.
    """

    num_layers: int
    candidates: tuple[int, ...]
    feature_dim: int = DEFAULT_FEATURES
    hidden: int = DEFAULT_HIDDEN
    source: str = "seeded-random"  # loaded | seeded-random
    seed: int | None = None
    w1: np.ndarray | None = None
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        self.candidates = tuple(sorted(self.candidates))
        if self.feature_dim < 1 or not self.candidates:
            raise ValueError(f"controller needs feature_dim >= 1 and a candidate, "
                             f"got {self.feature_dim} and {self.candidates}")
        if self.source == "seeded-random" and self.w1 is None:
            rng = np.random.default_rng(self.seed)
            k = len(self.candidates)
            self.w1 = rng.standard_normal((self.hidden, self.feature_dim)) / np.sqrt(self.feature_dim)
            self.b1 = np.zeros(self.hidden)
            self.w2 = rng.standard_normal((self.num_layers * k, self.hidden)) / np.sqrt(self.hidden)
            self.b2 = np.zeros(self.num_layers * k)


def pool_features(x: np.ndarray, feature_dim: int) -> np.ndarray:
    """Average the flattened input into feature_dim equal-ish segments."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    if flat.size < feature_dim:
        raise ValueError(f"input with {flat.size} values cannot pool to {feature_dim}")
    if flat.size == feature_dim:
        # One element per segment: the sum below adds it to 0.0, which only
        # turns -0.0 into 0.0, and divides it by 1. Bit-identical, and fresh.
        return flat + 0.0
    if flat.size % feature_dim == 0:
        # Equal segments: the same pairwise sums as the loop's, so bit-identical;
        # it is the sum and division that mean runs behind a Python wrapper.
        segment = flat.size // feature_dim
        return np.add.reduce(flat.reshape(feature_dim, segment), axis=1) / segment
    bounds = np.linspace(0, flat.size, feature_dim + 1).astype(int)
    return np.array([flat[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])


def controller_forward(spec: ControllerSpec, x: np.ndarray) -> np.ndarray:
    """Logits of shape (num_layers, K) for one input."""
    k = len(spec.candidates)
    feats = pool_features(x, spec.feature_dim)
    hidden = spec.w1 @ feats
    hidden += spec.b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = spec.w2 @ hidden
    logits += spec.b2
    return logits.reshape(spec.num_layers, k)


def select_argmax(logits: np.ndarray, candidates) -> BitPolicy:
    """Greedy per-layer selection; ties break toward the smaller bit-width."""
    logits = np.asarray(logits)
    if not np.isfinite(logits).all():  # the array method: np.all's wrapper costs more
        raise ValueError("logits must be finite")
    cands = tuple(sorted(candidates))
    # argmax returns the first maximum, which is the smallest candidate
    bits = tuple(cands[i] for i in logits.argmax(axis=1).tolist())
    return BitPolicy(bits)


def gumbel_softmax_sample(logits: np.ndarray, temperature: float,
                          seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Gumbel-Softmax: soft probabilities and the hard one-hot sample."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    rng = np.random.default_rng(seed)
    u = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=logits.shape)
    noise = -np.log(-np.log(u))
    z = (logits + noise) / temperature
    z -= z.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=-1, keepdims=True)
    hard = np.zeros_like(probs)
    hard[np.arange(probs.shape[0]), probs.argmax(axis=-1)] = 1.0
    return probs, hard


def j_cost(probabilities: np.ndarray, candidates) -> float:
    """Expected bit-width averaged over layers: the cost-regularizer term."""
    p = np.asarray(probabilities, dtype=np.float64)
    cands = np.asarray(sorted(candidates), dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != cands.size:
        raise ValueError(f"expected (num_layers, {cands.size}) probabilities, got {p.shape}")
    if np.any(p < -1e-12) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("probability rows must be non-negative and sum to 1")
    return float((p @ cands).mean())


def range_heuristic_policy(model: ModelGraph, candidates) -> BitPolicy:
    """Deterministic fallback policy: wider calibrated output range, more bits.

    With k sorted candidates and m policy layers, the layer whose range ranks
    r (0 = narrowest) takes candidate max(r·k // m, r·(k-1) // max(m-1, 1)):
    the ranks spread evenly over the candidates, and with m > 1 the widest
    range gets the top one. Lets the dynamic path be exercised without
    trained controller weights.
    """
    cands = tuple(sorted(candidates))
    spans = []
    for i in model.policy_indices:
        p = model.layers[i].output_params
        spans.append(p.scale * p.qmax if p is not None else 0.0)
    order = np.argsort(np.argsort(spans))  # rank of each layer's span
    k, m = len(cands), len(spans)
    bins = np.maximum(order * k // max(m, 1), order * (k - 1) // max(m - 1, 1))
    bits = tuple(cands[int(b)] for b in bins)
    return BitPolicy(bits)
