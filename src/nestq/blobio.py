"""On-disk formats: binary tensor blobs and the JSON model manifest.

Blob layout: 4 magic bytes, one dtype code byte, one rank byte, rank little-
endian uint32 dims, then the little-endian row-major payload. Manifests are a
JSON tree referencing blobs by relative path. All writes go through a temp
file plus rename so partially written files are never observed; every JSON
file goes through :func:`write_json`.

A MAC layer's manifest entry names up to four blobs: the float ``weight`` and
``bias`` it was calibrated from and their master-width integers ``weight_q``
and ``bias_q``, at their storage width, with their grids. The only other
grids stored are the model's and the output grid of each policy layer that
no clamp follows; a clamp's producer is on the clamp's [0, alpha] grid,
which is stored as the clamp's ``alpha``. Each JSON file is read through
one checked path, as is each blob a layer or controller names, so an
ill-formed file is a ManifestError. :func:`load_model` reads a model to run,
which needs only the integers: it reads a float tensor only where its
quantized twin is absent.
:func:`load_for_calibration` reads every blob, since calibration starts from
the floats. :func:`save_model` refuses a layer that lost its floats that way,
so every manifest it writes can be recalibrated.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .calibration import clamp_grid
from .controller import ControllerSpec
from .layers import POLICY_KINDS, LayerSpec, ModelGraph, ShapeMismatchError
from .quantize import NestedTensor, QuantParams

BLOB_MAGIC = b"NQTB"
MANIFEST_VERSION = 1

_DTYPES = {code: np.dtype(s) for code, s in
           {0: "<f4", 1: "u1", 2: "<u2", 3: "<i4", 4: "<i8"}.items()}
_DTYPE_CODES = {dtype.name: code for code, dtype in _DTYPES.items()}


class ManifestError(ValueError):
    """Unreadable or ill-formed manifest or blob."""


def atomic_write_bytes(path: Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Path, tree) -> None:
    atomic_write_bytes(path, (json.dumps(tree, indent=2, sort_keys=True) + "\n").encode())


def write_blob(path: Path, array: np.ndarray) -> None:
    array = np.asarray(array)
    name = array.dtype.name
    if name == "float64":
        array = array.astype(np.float32)
        name = "float32"
    if name not in _DTYPE_CODES:
        raise ManifestError(f"dtype {name} not supported by the blob format")
    code = _DTYPE_CODES[name]
    header = BLOB_MAGIC + struct.pack("<BB", code, array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    payload = np.ascontiguousarray(array.astype(_DTYPES[code])).tobytes()
    atomic_write_bytes(path, header + payload)


def read_blob(path: Path) -> np.ndarray:
    """The tensor a blob file holds, as a read-only view of the file's bytes.

    Copy it to write to it: ``astype`` and the ``NestedTensor`` constructor
    do. A missing or unreadable file, a bad magic or dtype code, a header cut
    short and a payload of the wrong length are each a ManifestError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read blob {path}: {exc}") from exc
    if raw[:4] != BLOB_MAGIC:
        raise ManifestError(f"{path}: bad blob magic")
    try:
        code, rank = struct.unpack_from("<BB", raw, 4)
        dims = struct.unpack_from(f"<{rank}I", raw, 6)
    except struct.error as exc:
        raise ManifestError(f"{path}: blob header cut short at {len(raw)} bytes") from exc
    dtype = _DTYPES.get(code)
    if dtype is None:
        raise ManifestError(f"{path}: unknown dtype code {code}")
    offset = 6 + 4 * rank
    count = math.prod(dims)
    if len(raw) - offset != count * dtype.itemsize:
        raise ManifestError(
            f"{path}: payload length {len(raw) - offset} != {count * dtype.itemsize}")
    return np.frombuffer(raw, dtype, count, offset).reshape(dims)


def _params_to_json(p: QuantParams | None):
    return None if p is None else asdict(p)


def _params_from_json(d) -> QuantParams | None:
    return None if d is None else QuantParams(**d)


_LAYER_SCALARS = ("kind", "name", "in_features", "out_features", "in_channels",
                  "out_channels", "kernel", "stride", "padding", "pool",
                  "source", "alpha")


def save_model(model: ModelGraph, directory: Path, provenance: dict | None = None) -> Path:
    """Write the manifest plus one blob per stored tensor; returns manifest path.

    Refuses (ValueError), before it writes anything, a layer that holds a
    quantized tensor without the float tensor it was quantized from, as a
    model read by :func:`load_model` does: its manifest could not be
    recalibrated.
    """
    for layer in model.layers:
        for attr in ("weight", "bias"):
            if getattr(layer, attr + "_q") is not None and getattr(layer, attr) is None:
                raise ValueError(
                    f"layer {layer.name!r} holds {attr}_q without its float {attr}; "
                    f"read a model to save with load_for_calibration, not load_model")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    clamped = {i - 1 for i, layer in enumerate(model.layers) if layer.kind == "relu_pact"}
    layers_json = []
    for i, layer in enumerate(model.layers):
        entry = {k: getattr(layer, k) for k in _LAYER_SCALARS}
        entry["range_flagged"] = layer.range_flagged
        if layer.kind in POLICY_KINDS and i not in clamped:
            entry["output_params"] = _params_to_json(layer.output_params)
        for attr in ("weight", "bias"):
            t = getattr(layer, attr)
            if t is not None:
                ref = f"blobs/layer{i}_{attr}.nqtb"
                write_blob(directory / ref, np.asarray(t))
                entry[attr] = ref
            qt = getattr(layer, attr + "_q")
            if qt is not None:
                ref = f"blobs/layer{i}_{attr}_q.nqtb"
                write_blob(directory / ref, qt.data)
                entry[attr + "_q"] = ref
                entry[attr + "_params"] = _params_to_json(qt.params)
        layers_json.append(entry)
    manifest = {
        "version": MANIFEST_VERSION,
        "input_shape": list(model.input_shape),
        "input_params": _params_to_json(model.input_params),
        "quantization": {"master_bitwidth": model.master_bitwidth},
        "layers": layers_json,
        "provenance": provenance or {},
    }
    path = directory / "manifest.json"
    write_json(path, manifest)
    return path


def _typed(tree: dict, key: str, typ: type, default):
    """``tree[key]``, or ``default`` when absent; a value of another type is an error."""
    value = tree.get(key, default)
    if not isinstance(value, typ):
        raise TypeError(f"{key!r} must be {typ.__name__}, got {value!r}")
    return value


def _read_tree(path: Path, name: str, build):
    """``build(tree, path)`` of the JSON tree in ``path``, or in ``path / name``
    for a directory. An unreadable file, and every error an ill-formed tree
    raises in ``build`` (AttributeError, KeyError, TypeError, ValueError), is
    a ManifestError; a ShapeMismatchError stays one."""
    path = Path(path)
    if path.is_dir():
        path = path / name
    try:
        tree = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    try:
        return build(tree, path)
    except (ManifestError, ShapeMismatchError):
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: a tree that is not an object, or a quantized tensor whose grid is null
        raise ManifestError(f"ill-formed {path}: {exc!r}") from exc


def _blob(path, shape: tuple, owner: str) -> np.ndarray:
    """The blob in ``path``, refused (ManifestError) unless its shape is the
    ``shape`` that ``owner`` needs."""
    t = read_blob(path)
    if t.shape != shape:
        raise ManifestError(f"{path}: shape {t.shape}, {owner} needs {shape}")
    return t


def load_model(manifest_path: Path) -> ModelGraph:
    """Read a model to run; any missing or ill-typed entry is a ManifestError.

    Reads each layer's quantized ``weight_q``/``bias_q`` blobs and skips the
    float ``weight``/``bias`` blob of every tensor that has them, since only
    the integers run; a float tensor without a quantized twin is still read,
    so an uncalibrated manifest loads whole. Such a model cannot be saved
    (see :func:`save_model`). A weight or bias blob whose shape is not its
    layer's is refused, here and in :func:`load_for_calibration`.

    A stored grid that is not a master grid at the manifest's n is refused: the
    layers shift from their grids' n, the trace and ``cost_report`` from the model's.
    So is a padded conv whose input grid does not hold 0.0, its padding,
    within half a step: recalibrate it (``nestq calibrate`` reads it with
    :func:`load_for_calibration`). An uncalibrated manifest loads as it is,
    and so does a calibrated one whose clamp has no alpha, as uncalibrated.
    """
    model = _load(manifest_path, floats=False)
    n = model.master_bitwidth
    tensors = [t for l in model.layers for t in (l.weight_q, l.bias_q) if t is not None]
    for g in (model.input_params, *(l.output_params for l in model.layers),
              *(t.params for t in tensors)):
        if g is not None and not g.bitwidth == g.master_bitwidth == n:
            raise ManifestError(f"{manifest_path}: {g} is not a master grid at the model's n={n}")
    for i, layer in enumerate(model.layers):
        grid = model.output_grid(i - 1) if layer.kind == "conv2d" and layer.padding else None
        if grid is not None and not -0.5 <= -grid.offset / grid.scale <= grid.qmax + 0.5:
            raise ManifestError(
                f"{manifest_path}: conv {layer.name!r} pads with 0.0, which its input "
                f"grid {grid} does not hold; recalibrate the model")
    return model


def load_for_calibration(manifest_path: Path) -> ModelGraph:
    """Read a manifest and every blob it names; any missing or ill-typed entry is a ManifestError.

    Calibration starts from the float weights and biases, so this reads them
    as well as their quantized twins. Its grids are not checked, since
    ``calibrate`` replaces them all; run a model through :func:`load_model`.
    Keys added after version 1 (``range_flagged``) are optional and default to
    the values a model had before they were saved. Keys older manifests carry
    are ignored: ``quantization.frac_bits``, as each layer plan fits its own
    fixed-point precision; ``quantization.working_bits`` and
    ``quantization.rescale``, as a dot's product sum accumulates exactly in
    int64; a MAC layer's pre-bias grid, as the layer adds its bias inside
    the dot and rounds once onto its output grid; each layer's input grid
    and a clamp's, pool's or flatten's output grid, as each is its producer's;
    and the output grid of a clamp's producer, as it is the clamp's [0, alpha]
    grid. Older int64 ``weight_q``/``bias_q`` blobs load narrowed to their
    storage width. :func:`load_model` ignores and narrows the same.
    """
    return _load(manifest_path, floats=True)


def _load(manifest_path: Path, floats: bool) -> ModelGraph:
    """The model a manifest describes; float tensors with a quantized twin only if ``floats``."""
    return _read_tree(manifest_path, "manifest.json",
                      lambda manifest, path: _model_from_manifest(manifest, path.parent, floats))


def read_provenance(path: Path) -> dict:
    """The provenance a manifest records, read as :func:`load_model` reads the manifest."""
    return _read_tree(path, "manifest.json", lambda tree, _: tree.get("provenance", {}))


def _layer_blob(base: Path, ref: str, layer: LayerSpec, attr: str) -> np.ndarray:
    """The ``weight`` or ``bias`` blob of a fc or conv, refused (ManifestError)
    unless its shape is the layer's (``LayerSpec.weight_shape``), which
    ``run_layer`` would not notice: it reshapes the weights by their output
    count, and the bias broadcasts."""
    path = base / ref
    if not layer.has_weights:
        raise ManifestError(f"{path}: {layer.kind} {layer.name!r} takes no {attr}")
    return _blob(path, layer.weight_shape if attr == "weight" else layer.weight_shape[:1],
                 f"layer {layer.name!r}")


def _model_from_manifest(manifest: dict, base: Path, floats: bool) -> ModelGraph:
    """The graph from the layers' scalars, then each layer's grids and blobs."""
    if manifest.get("version") != MANIFEST_VERSION:
        raise ManifestError(f"unrecognized manifest version {manifest.get('version')!r}")
    entries = manifest["layers"]
    model = ModelGraph(
        layers=[LayerSpec(**{k: entry[k] for k in _LAYER_SCALARS}) for entry in entries],
        input_shape=tuple(manifest["input_shape"]),
        input_params=_params_from_json(manifest.get("input_params")),
        master_bitwidth=manifest["quantization"]["master_bitwidth"],
    )
    for i, (layer, entry) in enumerate(zip(model.layers, entries)):
        layer.range_flagged = _typed(entry, "range_flagged", bool, False)
        if layer.kind in POLICY_KINDS:
            layer.output_params = _params_from_json(entry.get("output_params"))
        elif layer.kind == "relu_pact":  # ModelGraph puts a clamp right after its producer
            model.layers[i - 1].output_params = clamp_grid(layer, model.master_bitwidth)
        for attr in ("weight", "bias"):
            quantized = attr + "_q" in entry
            if quantized:
                setattr(layer, attr + "_q", NestedTensor(
                    data=_layer_blob(base, entry[attr + "_q"], layer, attr),
                    params=_params_from_json(entry.get(attr + "_params"))))
            if attr in entry and (floats or not quantized):
                setattr(layer, attr,
                        _layer_blob(base, entry[attr], layer, attr).astype(np.float64))
    return model


def save_controller(spec: ControllerSpec, directory: Path) -> Path:
    """Write ``controller.json`` and the four weight blobs, or refuse (ValueError),
    before writing anything, a spec that lacks one of them."""
    names = ("w1", "b1", "w2", "b2")
    missing = [name for name in names if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"controller has no {', '.join(missing)}; nothing to save")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        write_blob(directory / f"{name}.nqtb", np.asarray(getattr(spec, name), dtype=np.float64))
    meta = {
        "num_layers": spec.num_layers,
        "candidates": list(spec.candidates),
        "feature_dim": spec.feature_dim,
        "hidden": spec.hidden,
        "seed": spec.seed,
    }
    path = directory / "controller.json"
    write_json(path, meta)
    return path


def load_controller(path: Path) -> ControllerSpec:
    """Read a saved controller and its four weight blobs.

    An unreadable file, a missing or ill-typed key, a value ``ControllerSpec``
    refuses, a missing blob and a blob whose shape is not the one
    ``controller.json`` implies are each a ManifestError.
    """
    return _read_tree(path, "controller.json", _controller_from_meta)


def _controller_from_meta(meta: dict, path: Path) -> ControllerSpec:
    """The controller ``controller.json`` at ``path`` describes, with its blobs."""
    candidates = _typed(meta, "candidates", list, None)
    if not all(type(c) is int for c in candidates):
        raise TypeError(f"'candidates' must be integers, got {candidates!r}")
    spec = ControllerSpec(
        num_layers=_typed(meta, "num_layers", int, None),
        candidates=tuple(candidates),
        feature_dim=_typed(meta, "feature_dim", int, None),
        hidden=_typed(meta, "hidden", int, None),
        source="loaded",
        seed=meta.get("seed"),
    )
    logits = spec.num_layers * len(spec.candidates)
    for name, shape in (("w1", (spec.hidden, spec.feature_dim)), ("b1", (spec.hidden,)),
                        ("w2", (logits, spec.hidden)), ("b2", (logits,))):
        blob = _blob(path.parent / f"{name}.nqtb", shape, path.name)
        setattr(spec, name, blob.astype(np.float64))
    return spec


def _report_lines(tree: dict, prefix: str = "") -> list[str]:
    """``key=value`` per leaf in sorted key order; a nested dict's keys join with dots."""
    lines = []
    for key in sorted(tree):
        value = tree[key]
        if isinstance(value, dict):
            lines += _report_lines(value, f"{prefix}{key}.")
        else:
            if isinstance(value, (list, tuple)):
                value = ",".join(map(str, value))
            lines.append(f"{prefix}{key}={value}")
    return lines


def write_report(path: Path, tree: dict) -> None:
    """Write a report as key=value lines plus a JSON twin next to it."""
    path = Path(path)
    atomic_write_bytes(path, ("\n".join(_report_lines(tree)) + "\n").encode())
    write_json(path.with_suffix(path.suffix + ".json"), tree)
