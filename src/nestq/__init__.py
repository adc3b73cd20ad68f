"""Integer-only inference with nested quantization grids.

Tensors are stored once at a master bit-width; any lower precision is reached
with a single rounded right shift instead of a float dequantize-requantize
round trip. The package provides the quantization grids, integer operators
with precomputed fixed-point constants, a layer execution engine with
per-layer dynamic precision, calibration, a bit-width controller, analytic
error bounds with oracle-backed verification, a cost model, and a CLI.
"""

from .analysis import (
    ErrorBound,
    VerificationReport,
    empirical_verify,
    op_error_bound,
    shift_error,
)
from .calibration import RangeState, calibrate, ema_update
from .controller import (
    ControllerSpec,
    controller_forward,
    gumbel_softmax_sample,
    j_cost,
    range_heuristic_policy,
    select_argmax,
)
from .cost import CostReport, bitops, cost_report, cycle_estimate, transition_elements
from .intops import (
    AccumulatorOverflowError,
    IntOpConstants,
    OpCounters,
    add_constants,
    dot_constants,
    fit_frac_bits,
    int_add,
    int_dot,
    int_dot_pact,
    int_mul,
    mul_constants,
    standard_mac_dot,
)
from .layers import (
    BitPolicy,
    ExecutionTrace,
    LayerSpec,
    ModelGraph,
    ShapeMismatchError,
    forward,
    run_layer,
)
from .quantize import (
    DegenerateRangeError,
    NestedTensor,
    QuantParams,
    dequant_requant_reference,
    dequantize,
    derive_params,
    make_master_params,
    quantize,
    shift_down,
)

__version__ = "0.1.0"

__all__ = [
    "AccumulatorOverflowError",
    "BitPolicy",
    "ControllerSpec",
    "CostReport",
    "DegenerateRangeError",
    "ErrorBound",
    "ExecutionTrace",
    "IntOpConstants",
    "LayerSpec",
    "ModelGraph",
    "NestedTensor",
    "OpCounters",
    "QuantParams",
    "RangeState",
    "ShapeMismatchError",
    "VerificationReport",
    "add_constants",
    "bitops",
    "calibrate",
    "controller_forward",
    "cost_report",
    "cycle_estimate",
    "dequant_requant_reference",
    "dequantize",
    "derive_params",
    "dot_constants",
    "ema_update",
    "empirical_verify",
    "fit_frac_bits",
    "forward",
    "gumbel_softmax_sample",
    "int_add",
    "int_dot",
    "int_dot_pact",
    "int_mul",
    "j_cost",
    "make_master_params",
    "mul_constants",
    "op_error_bound",
    "quantize",
    "range_heuristic_policy",
    "run_layer",
    "select_argmax",
    "shift_down",
    "shift_error",
    "standard_mac_dot",
    "transition_elements",
]
