"""Cost accounting: BitOPs, bit-width transition overhead, cycle estimates.

BitOPs weight each MAC by the product of its operand bit-widths. Transition
cost counts the elements moved below the master width per inference; in the
shift pipeline each costs one logical shift, in the conventional pipeline each
costs the primitives of the float round trip,
``quantize.dequant_requant_reference``.

The in-loop counts are every arithmetic primitive of one inference as the
trace charges them, by ``layers.layer_counters``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intops import OpCounters
from .layers import BitPolicy, ModelGraph, layer_counters

# One element's float round trip: two int/float conversions and five float
# ops (mul, div, add, sub, round).
STANDARD_PRIMITIVES_PER_ELEMENT = 7
# A model, not a measurement: README's "Cost model" table gives the measured
# per-element ratio of the float round trip to the shift, which grows with
# tensor size, since small calls are dominated by per-call overhead.
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
    # Every mult/add of one inference, as the trace charges them: MAC loops,
    # fused bias terms, residual adds and pooling adds (names kept for compatibility).
    inloop_mults: int
    inloop_adds: int
    cycle_low: int = 0
    cycle_high: int = 0


def bitops(model: ModelGraph, policy: BitPolicy) -> int:
    """Sum over MAC layers of MACs * weight bits * activation bits.

    Weights and activations share the layer's policy bit-width, since both are
    shifted to it before the MAC loop.
    """
    bits = model.layer_bitwidths(policy)
    return sum(layer.mac_count() * b * b for layer, b in zip(model.layers, bits))


def transition_elements(model: ModelGraph, policy: BitPolicy) -> int:
    """Elements reduced below the master width in one inference."""
    return cost_report(model, policy).transition_elements


def cycle_estimate(report: CostReport) -> tuple[int, int]:
    """Cycle interval for the transition work. A model, not a measurement."""
    e = report.transition_elements
    if report.mode == "standard":
        lo, hi = STANDARD_CYCLES_PER_ELEMENT
        return e * lo, e * hi
    return e * SHIFT_CYCLES_PER_ELEMENT, e * SHIFT_CYCLES_PER_ELEMENT


def cost_report(model: ModelGraph, policy: BitPolicy, mode: str = "dqt") -> CostReport:
    """Full cost accounting for one inference; the counts equal its trace's.

    Sums ``layers.layer_counters`` over the layers, each at the input grid
    ``ModelGraph.output_grid`` resolves for it.
    """
    if mode not in ("dqt", "standard"):
        raise ValueError(f"unknown transition mode {mode!r}")
    counters = OpCounters.total(
        layer_counters(layer, b, model.master_bitwidth, model.output_grid(i - 1))
        for i, (layer, b) in enumerate(zip(model.layers, model.layer_bitwidths(policy))))
    e = counters.shifts
    report = CostReport(
        bitops=bitops(model, policy),
        macs_per_layer=[model.layers[i].mac_count() for i in model.policy_indices],
        transition_elements=e,
        mode=mode,
        transition_shift_ops=e if mode == "dqt" else 0,
        transition_fp_primitives=STANDARD_PRIMITIVES_PER_ELEMENT * e if mode == "standard" else 0,
        inloop_mults=counters.mults,
        inloop_adds=counters.adds,
    )
    report.cycle_low, report.cycle_high = cycle_estimate(report)
    return report
