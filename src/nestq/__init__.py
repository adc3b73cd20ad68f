"""Integer-only inference with nested quantization grids.

Tensors are stored once at a master bit-width; a lower precision is one
rounded right shift away, not a float round trip. Each name is imported from
the module that defines it (``from nestq.layers import forward``):

- ``quantize``: grids, storage dtypes, the shift and the float round trip.
- ``intops``: integer operator constants, the int64 proof, scalar operators.
- ``layers``: layer graphs, ``forward``, ``run_layer`` and the trace's counts.
- ``calibration``: the float pass that freezes every grid, and the weights.
- ``controller``: per-input bit-width selection and its training helpers.
- ``cost``: BitOPs, transition elements and cycle estimates.
- ``analysis``: each operator's error bound and its verifiers.
- ``reference``: independent oracles, exact-rational and fake-quant.
- ``models``: desk-scale toy models and seeded synthetic datasets.
- ``blobio``: tensor blobs, model manifests and reports on disk.
- ``cli``: the ``nestq`` command line and its exit codes.
"""

__version__ = "0.1.0"
