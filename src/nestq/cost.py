"""Cost accounting: BitOPs, bit-width transition overhead, cycle estimates.

BitOPs weight each MAC by the product of its operand bit-widths. Transition
cost counts the elements moved below the master width per inference; in the
shift pipeline each costs one logical shift, in the conventional pipeline each
costs a seven-primitive float round-trip (two conversions, multiply, divide,
add, subtract, round).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intops import MAC_PRIMITIVES, mac_loop
from .layers import BitPolicy, ModelGraph

STANDARD_PRIMITIVES_PER_ELEMENT = 7
STANDARD_CYCLES_PER_ELEMENT = (20, 55)
SHIFT_CYCLES_PER_ELEMENT = 1


@dataclass
class CostReport:
    """Cost tallies for one (model, policy, mode) combination."""

    bitops: int
    macs_per_layer: list[int]
    transition_elements: int
    mode: str  # dqt | standard
    transition_shift_ops: int
    transition_fp_primitives: int
    inloop_mults: int
    inloop_adds: int
    cycle_low: int = 0
    cycle_high: int = 0


def bitops(model: ModelGraph, policy: BitPolicy) -> int:
    """Sum over MAC layers of MACs * weight bits * activation bits.

    Weights and activations share the layer's policy bit-width, since both are
    shifted to it before the MAC loop.
    """
    total = 0
    for b, idx in zip(policy.bits, model.policy_indices):
        total += model.layers[idx].mac_count() * b * b
    return total


def transition_elements(model: ModelGraph, policy: BitPolicy) -> int:
    """Elements reduced below the master width in one inference."""
    n = model.master_bitwidth
    total = 0
    for b, idx in zip(policy.bits, model.policy_indices):
        if b < n:
            layer = model.layers[idx]
            total += layer.weight_elements() + layer.input_elements()
    return total


def mac_primitive_counts(mode: str) -> dict[str, int]:
    """Per-element primitive ops of the inner MAC loop for each formulation."""
    if mode not in MAC_PRIMITIVES:
        raise ValueError(f"unknown MAC mode {mode!r}")
    return dict(MAC_PRIMITIVES[mode])


def cycle_estimate(report: CostReport) -> tuple[int, int]:
    """Cycle interval for the transition work. A model, not a measurement."""
    e = report.transition_elements
    if report.mode == "standard":
        lo, hi = STANDARD_CYCLES_PER_ELEMENT
        return e * lo, e * hi
    return e * SHIFT_CYCLES_PER_ELEMENT, e * SHIFT_CYCLES_PER_ELEMENT


def cost_report(model: ModelGraph, policy: BitPolicy, mode: str = "dqt") -> CostReport:
    """Full cost accounting for one inference; in-loop counts follow each layer's MAC loop."""
    if mode not in ("dqt", "standard"):
        raise ValueError(f"unknown transition mode {mode!r}")
    e = transition_elements(model, policy)
    layers = [model.layers[i] for i in model.policy_indices]
    macs = [layer.mac_count() for layer in layers]
    loops = [MAC_PRIMITIVES[mac_loop(layer.input_params)] for layer in layers]
    report = CostReport(
        bitops=bitops(model, policy),
        macs_per_layer=macs,
        transition_elements=e,
        mode=mode,
        transition_shift_ops=e if mode == "dqt" else 0,
        transition_fp_primitives=STANDARD_PRIMITIVES_PER_ELEMENT * e if mode == "standard" else 0,
        inloop_mults=sum(loop["mul"] * m for loop, m in zip(loops, macs)),
        inloop_adds=sum(loop["add"] * m for loop, m in zip(loops, macs)),
    )
    report.cycle_low, report.cycle_high = cycle_estimate(report)
    return report
