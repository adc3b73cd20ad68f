"""On-disk formats and the command-line front end."""

import argparse
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import build_padded_chain
from nestq import analysis, blobio
from nestq.analysis import empirical_verify
from nestq.blobio import ManifestError, read_blob, write_blob
from nestq import cli
from nestq.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_CODES,
    EXIT_MANIFEST,
    EXIT_OK,
    EXIT_POLICY_SOURCE,
    EXIT_SHAPE,
    EXIT_USAGE,
    BoundViolationError,
    PolicySourceError,
    UsageError,
    main,
    parse_policy,
    policy_source,
    resolve_seed,
)
from nestq.calibration import calibrate, quantize_weights
from nestq.controller import ControllerSpec
from nestq.cost import CostReport, cost_report
from nestq.intops import AccumulatorOverflowError
from nestq.layers import BitPolicy, LayerSpec, ModelGraph, ShapeMismatchError, forward
from nestq.models import build_toy_mlp
from nestq.quantize import derive_params


class TestTensorBlob:
    @pytest.mark.parametrize("array", [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(8, dtype=np.uint8),
        np.arange(6, dtype=np.uint16).reshape(2, 3),
        np.arange(4, dtype=np.int32),
        np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    ])
    def test_round_trip(self, tmp_path, array):
        p = tmp_path / "t.nqtb"
        write_blob(p, array)
        got = read_blob(p)
        assert got.dtype == array.dtype and np.array_equal(got, array)

    def test_empty_tensor(self, tmp_path):
        p = tmp_path / "e.nqtb"
        write_blob(p, np.empty((0, 4), dtype=np.float32))
        assert read_blob(p).shape == (0, 4)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.nqtb"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ManifestError):
            read_blob(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "t.nqtb"
        write_blob(p, np.arange(8, dtype=np.int64))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ManifestError):
            read_blob(p)

    @pytest.mark.parametrize("array", [
        np.arange(6, dtype=np.uint16).reshape(2, 3),
        np.empty((0, 4), dtype=np.float32),
        np.array(7, dtype=np.int64),
    ], ids=["2x3", "empty", "0-d"])
    def test_every_prefix_rejected(self, tmp_path, array):
        p = tmp_path / "t.nqtb"
        write_blob(p, array)
        raw = p.read_bytes()
        assert np.array_equal(read_blob(p), array) and read_blob(p).shape == array.shape
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(ManifestError):
                read_blob(p)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        p = tmp_path / "t.nqtb"
        write_blob(p, np.arange(4, dtype=np.int64))
        raw = bytearray(p.read_bytes())
        raw[4] = 9  # codes 0..4 name a dtype
        p.write_bytes(bytes(raw))
        with pytest.raises(ManifestError, match="unknown dtype code 9"):
            read_blob(p)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # os.replace cannot put a file over a non-empty directory
        target = tmp_path / "out"
        (target / "inside").mkdir(parents=True)
        with pytest.raises(OSError):
            blobio.atomic_write_bytes(target, b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_missing_or_unreadable_file_rejected(self, tmp_path):
        for p in (tmp_path / "missing.nqtb", tmp_path):
            with pytest.raises(ManifestError, match="cannot read blob"):
                read_blob(p)

    def test_result_is_a_read_only_view(self, tmp_path):
        p = tmp_path / "t.nqtb"
        write_blob(p, np.arange(4, dtype=np.int32))
        got = read_blob(p)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 9

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            write_blob(tmp_path / "c.nqtb", np.array([1 + 2j]))

    def test_payload_little_endian_row_major(self, tmp_path):
        p = tmp_path / "le.nqtb"
        write_blob(p, np.array([[1, 2], [3, 4]], dtype=np.uint16))
        raw = p.read_bytes()
        assert raw[:4] == b"NQTB"
        assert raw[-8:] == b"\x01\x00\x02\x00\x03\x00\x04\x00"


class TestManifest:
    def test_model_round_trip(self, tmp_path, mlp):
        blobio.save_model(mlp, tmp_path / "m")
        loaded = blobio.load_model(tmp_path / "m")
        assert loaded.master_bitwidth == mlp.master_bitwidth
        assert loaded.input_params == mlp.input_params
        assert len(loaded.layers) == len(mlp.layers)
        for i, (a, b) in enumerate(zip(loaded.layers, mlp.layers)):
            assert a.kind == b.kind and a.name == b.name
            assert a.alpha == b.alpha
            assert a.output_params == b.output_params
            assert loaded.output_grid(i) == mlp.output_grid(i)
            for qa, qb in ((a.weight_q, b.weight_q), (a.bias_q, b.bias_q)):
                assert (qa is None) == (qb is None)
                if qb is not None:
                    assert qa.params == qb.params
                    assert np.array_equal(qa.data, qb.data)

    @pytest.mark.parametrize("n, dtype", [(4, np.uint8), (8, np.uint8), (12, np.uint16),
                                          (16, np.uint16)])
    def test_quantized_blobs_at_storage_width_on_disk(self, tmp_path, blob_data, n, dtype):
        x, _, means = blob_data
        model = calibrate(build_toy_mlp(seed=7, n=n, means=means), [x[:200]])
        path = blobio.save_model(model, tmp_path / "m")
        loaded = blobio.load_model(path)
        for i, entry in enumerate(json.loads(path.read_text())["layers"]):
            for attr in ("weight_q", "bias_q"):
                if attr in entry:
                    on_disk = read_blob(tmp_path / "m" / entry[attr])
                    assert on_disk.dtype == dtype == getattr(loaded.layers[i], attr).data.dtype
                    assert np.array_equal(on_disk, getattr(model.layers[i], attr).data)

    @pytest.mark.parametrize("blob", [np.array([[1.5]]), np.array([[256]])],
                             ids=["float", "out_of_range"])
    def test_bad_quantized_blob_rejected(self, tmp_path, mlp, blob):
        blobio.save_model(mlp, tmp_path / "m")
        weight_q = mlp.layers[0].weight_q.data
        write_blob(tmp_path / "m" / "blobs" / "layer0_weight_q.nqtb",
                   np.broadcast_to(blob, weight_q.shape))
        with pytest.raises(ManifestError):
            blobio.load_model(tmp_path / "m")

    def test_loaded_weights_are_read_only(self, tmp_path, mlp):
        blobio.save_model(mlp, tmp_path / "m")
        loaded = blobio.load_model(tmp_path / "m")
        for layer in loaded.layers:
            for t in (layer.weight_q, layer.bias_q):
                if t is not None:
                    with pytest.raises(ValueError):
                        t.data[0] = 0

    def test_loaded_and_run_model_is_collected(self, tmp_path, mlp, blob_data):
        blobio.save_model(mlp, tmp_path / "m")
        model = blobio.load_model(tmp_path / "m")
        forward(model, blob_data[0][:3], BitPolicy((8, 4, 6)))
        # the model, a layer and a compiled step it holds all go with the model
        refs = [weakref.ref(model), weakref.ref(model.layers[0]),
                weakref.ref(model.layers[0].steps[8])]
        del model
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_unknown_version_rejected(self, tmp_path, mlp):
        path = blobio.save_model(mlp, tmp_path / "m")
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            blobio.load_model(path)

    def test_garbage_manifest_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError):
            blobio.load_model(p)

    def test_accumulator_policy_and_range_flags_survive_round_trip(self, tmp_path):
        from nestq.calibration import calibrate
        from nestq.models import build_toy_cnn, cnn_dataset

        x, _ = cnn_dataset(5, samples=20)
        model = build_toy_cnn(seed=11, n=16)
        calibrate(model, [x])
        flags = [True, False, True, False, False, True]
        for layer, flag in zip(model.layers, flags):
            layer.range_flagged = flag
        loaded = blobio.load_model(blobio.save_model(model, tmp_path / "m"))
        assert [layer.range_flagged for layer in loaded.layers] == flags

    def test_manifest_without_policy_keys_loads_defaults(self, tmp_path, mlp):
        path = blobio.save_model(mlp, tmp_path / "m")
        doc = json.loads(path.read_text())
        for entry in doc["layers"]:
            del entry["range_flagged"]
        path.write_text(json.dumps(doc))
        loaded = blobio.load_model(path)
        assert not any(layer.range_flagged for layer in loaded.layers)

    @pytest.mark.parametrize("edit", [
        lambda doc: {"version": 1, "input_shape": [4]},
        lambda doc: {**doc, "layers": 5},
        lambda doc: {**doc, "layers": [{**doc["layers"][0], "kind": "lstm"}]},
        lambda doc: {**doc, "layers": [{**doc["layers"][0], "weight_params": None},
                                       *doc["layers"][1:]]},
    ], ids=["missing_layers", "layers_not_a_list", "unknown_kind", "quantized_without_grid"])
    def test_missing_or_mistyped_entries_rejected(self, tmp_path, mlp, edit):
        path = blobio.save_model(mlp, tmp_path / "m")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ManifestError):
            blobio.load_model(path)

    def test_precision_key_not_written(self, tmp_path, mlp):
        doc = json.loads(blobio.save_model(mlp, tmp_path / "m").read_text())
        assert doc["quantization"] == {"master_bitwidth": mlp.master_bitwidth}

    def test_legacy_precision_key_ignored(self, tmp_path, mlp, blob_data):
        from nestq.layers import BitPolicy, forward
        policy = BitPolicy((8, 4, 6))
        # frac_bits, and the accumulator policy's working width and rescale flag
        for key, value in (("frac_bits", 16), ("working_bits", 24), ("rescale", False)):
            path = blobio.save_model(mlp, tmp_path / key)
            doc = json.loads(path.read_text())
            doc["quantization"][key] = value
            path.write_text(json.dumps(doc))
            loaded = blobio.load_model(path)
            for x in blob_data[0][:3]:
                assert np.array_equal(forward(loaded, x, policy)[0],
                                      forward(mlp, x, policy)[0]), key

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
    def test_block_round_trip_keeps_clamp_grids(self, tmp_path, make_block, cnn_data, n):
        from nestq.layers import BitPolicy, forward
        model = make_block(n)
        loaded = blobio.load_model(blobio.save_model(model, tmp_path / "m"))
        policy = BitPolicy.uniform(n, model.num_policy_layers)
        x = cnn_data[0][:5]
        assert np.array_equal(forward(loaded, x, policy)[0], forward(model, x, policy)[0])

    def test_stale_clamp_grid_ignored(self, tmp_path, make_block, cnn_data, capsys):
        # Saved before a clamp became its producer's grid, the residual add
        # (layer 3) before the block's second clamp kept its own range grid.
        # A clamp's grid is its alpha's, so that grid is ignored and the ReLU runs.
        model = make_block(8)
        path = blobio.save_model(model, tmp_path / "m")
        doc = json.loads(path.read_text())
        assert "output_params" not in doc["layers"][3]
        stale = {**blobio._params_to_json(model.layers[3].output_params), "offset": -1.5}
        doc["layers"][3]["output_params"] = stale
        path.write_text(json.dumps(doc))
        loaded = blobio.load_model(path)
        assert loaded.layers[3].output_params == model.layers[3].output_params
        x = cnn_data[0][:8]
        policy = BitPolicy((8, 4, 4, 8))
        (want, want_trace), (got, got_trace) = forward(model, x, policy), forward(loaded, x, policy)
        assert np.array_equal(got, want) and got_trace == want_trace
        write_blob(tmp_path / "x.nqtb", x.astype(np.float32))
        assert main(["infer", "--model", str(tmp_path / "m"),
                     "--input", str(tmp_path / "x.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_OK

    def test_calibrated_clamp_without_alpha_loads_uncalibrated(self, tmp_path, mlp, capsys):
        # Without alpha the clamp has no [0, alpha] grid, so fc1 has no output grid.
        path = blobio.save_model(mlp, tmp_path / "m")
        doc = json.loads(path.read_text())
        assert doc["layers"][1]["kind"] == "relu_pact"
        doc["layers"][1]["alpha"] = None
        path.write_text(json.dumps(doc))
        loaded = blobio.load_model(path)
        assert loaded.layers[0].output_params is None and not loaded.is_calibrated
        write_blob(tmp_path / "x.nqtb", np.ones((2, *mlp.input_shape), dtype=np.float32))
        capsys.readouterr()
        assert main(["infer", "--model", str(tmp_path / "m"),
                     "--input", str(tmp_path / "x.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST
        assert "no calibrated grids" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    def test_padding_off_its_conv_input_grid_refused(self, tmp_path, capsys):
        # A grid from before calibrate held 0.0 for padded convs: the first
        # conv's outputs, all near 5.0, on a grid from 5.0 up.
        model, x = build_padded_chain()
        path = blobio.save_model(calibrate(model, [x]), tmp_path / "m")
        doc = json.loads(path.read_text())
        doc["layers"][0]["output_params"]["offset"] = 5.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="conv 'conv2' pads with 0.0.*recalibrate"):
            blobio.load_model(path)
        write_blob(tmp_path / "x.nqtb", x[:4].astype(np.float32))
        capsys.readouterr()
        assert main(["infer", "--model", str(tmp_path / "m"),
                     "--input", str(tmp_path / "x.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST
        assert "recalibrate" in capsys.readouterr().err

    def test_legacy_prebias_grid_ignored(self, tmp_path, mlp, blob_data):
        from nestq.layers import BitPolicy, forward
        path = blobio.save_model(mlp, tmp_path / "m")
        doc = json.loads(path.read_text())
        assert not any("prebias_params" in entry for entry in doc["layers"])
        for entry in doc["layers"]:
            if "bias_q" in entry:
                entry["prebias_params"] = {"scale": 0.05, "offset": -3.0,
                                           "bitwidth": 8, "master_bitwidth": 8}
        path.write_text(json.dumps(doc))
        legacy = blobio.load_model(path)
        fresh = blobio.load_model(blobio.save_model(mlp, tmp_path / "fresh"))
        policy = BitPolicy((8, 4, 6))
        for x in blob_data[0][:3]:
            assert np.array_equal(forward(legacy, x, policy)[0], forward(fresh, x, policy)[0])

    def test_controller_round_trip(self, tmp_path):
        spec = ControllerSpec(num_layers=3, candidates=(4, 5, 6), seed=2)
        blobio.save_controller(spec, tmp_path / "c")
        loaded = blobio.load_controller(tmp_path / "c")
        assert loaded.num_layers == 3 and loaded.candidates == (4, 5, 6)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.allclose(getattr(loaded, name),
                               getattr(spec, name).astype(np.float32))

    @pytest.mark.parametrize("edit", [
        lambda meta: {k: v for k, v in meta.items() if k != "hidden"},
        lambda meta: {**meta, "num_layers": "3"},
        lambda meta: {**meta, "candidates": [4, "5"]},
        lambda meta: [meta],
    ], ids=["missing_hidden", "num_layers_not_int", "candidate_not_int", "not_an_object"])
    def test_controller_missing_or_mistyped_keys_rejected(self, tmp_path, edit):
        path = blobio.save_controller(ControllerSpec(num_layers=3, candidates=(4, 6)),
                                      tmp_path / "c")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ManifestError):
            blobio.load_controller(path)

    @pytest.mark.parametrize("key, value", [("feature_dim", 0), ("candidates", [])],
                             ids=["feature_dim-0", "no-candidates"])
    def test_unusable_controller_refused(self, workspace, tmp_path, capsys, key, value):
        spec = ControllerSpec(num_layers=3, candidates=(4, 8), seed=1)
        path = blobio.save_controller(spec, tmp_path / "c")
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        # every blob in the shape the edited file implies, so only the value is bad
        shapes = {"w1": (spec.hidden, 0)} if key == "feature_dim" else \
            {"w2": (0, spec.hidden), "b2": (0,)}
        for name, shape in shapes.items():
            write_blob(tmp_path / "c" / f"{name}.nqtb", np.zeros(shape))
        with pytest.raises(ManifestError, match="feature_dim >= 1 and a candidate"):
            blobio.load_controller(path)
        capsys.readouterr()
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"),
                     "--policy", f"controller-file:{tmp_path / 'c'}",
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "o.txt").exists()

    def test_loaded_controller_weights_are_writable_float64(self, tmp_path):
        blobio.save_controller(ControllerSpec(num_layers=3, candidates=(4, 6), seed=1),
                               tmp_path / "c")
        loaded = blobio.load_controller(tmp_path / "c")
        for name in ("w1", "b1", "w2", "b2"):
            w = getattr(loaded, name)
            assert w.dtype == np.float64 and w.flags.writeable
            w[...] = 0.0

    def test_unreadable_controller_rejected(self, tmp_path):
        (tmp_path / "controller.json").write_text("{not json")
        with pytest.raises(ManifestError):
            blobio.load_controller(tmp_path)

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    def test_controller_missing_blob_rejected(self, workspace, tmp_path, name):
        path = blobio.save_controller(ControllerSpec(num_layers=3, candidates=(4, 8), seed=1),
                                      tmp_path / "c")
        (tmp_path / "c" / f"{name}.nqtb").unlink()
        with pytest.raises(ManifestError, match=f"{name}.nqtb"):
            blobio.load_controller(path)
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"),
                     "--policy", f"controller-file:{tmp_path / 'c'}",
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST

    @pytest.mark.parametrize("name, misshape", [
        ("w1", lambda w: w.T),  # (feature_dim, hidden) for (hidden, feature_dim)
        ("w2", lambda w: w[:4]),  # logits for two of the three layers
    ])
    def test_controller_misshapen_blob_rejected(self, workspace, tmp_path, name, misshape):
        spec = ControllerSpec(num_layers=3, candidates=(4, 8), seed=1)
        path = blobio.save_controller(spec, tmp_path / "c")
        write_blob(tmp_path / "c" / f"{name}.nqtb", misshape(getattr(spec, name)))
        with pytest.raises(ManifestError, match=f"{name}.nqtb: shape"):
            blobio.load_controller(path)
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"),
                     "--policy", f"controller-file:{tmp_path / 'c'}",
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST

    @pytest.mark.parametrize("arch, index, attr, misshape", [
        ("mlp", 4, "weight_q", lambda w: w.T),  # the head's (16, 4) for (4, 16)
        ("mlp", 4, "bias_q", lambda b: b[:1]),  # one bias for four outputs
        ("mlp", 0, "weight", lambda w: w[:, :-1]),  # one input feature short
        ("cnn", 2, "weight_q", lambda w: w.reshape(len(w), -1)),  # (8, 36) for (8, 4, 3, 3)
    ], ids=["fc-weight-transposed", "fc-bias-cut", "fc-float-weight-cut", "conv-weight-flat"])
    def test_misshapen_layer_blob_rejected(self, request, tmp_path, capsys,
                                           arch, index, attr, misshape):
        # Reshaped by its output count, a transposed weight would run; the
        # bias would broadcast. Either way the outputs would change silently.
        model = request.getfixturevalue(arch)
        x = request.getfixturevalue("blob_data" if arch == "mlp" else "cnn_data")[0]
        path = blobio.save_model(model, tmp_path / "m")
        entry = json.loads(path.read_text())["layers"][index]
        blob = tmp_path / "m" / entry[attr]
        write_blob(blob, misshape(read_blob(blob)))
        load = blobio.load_for_calibration if attr == "weight" else blobio.load_model
        with pytest.raises(ManifestError, match=f"{blob.name}: shape .* needs"):
            load(path)
        write_blob(tmp_path / "x.nqtb", x[:4].astype(np.float32))
        capsys.readouterr()
        command = ["calibrate", "--data"] if attr == "weight" else ["infer", "--input"]
        assert main([command[0], "--model", str(tmp_path / "m"),
                     command[1], str(tmp_path / "x.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST
        assert blob.name in capsys.readouterr().err

    def test_weight_blob_on_a_layer_without_weights_rejected(self, tmp_path, mlp):
        path = blobio.save_model(mlp, tmp_path / "m")
        doc = json.loads(path.read_text())
        doc["layers"][1]["bias_q"] = doc["layers"][0]["bias_q"]  # onto the clamp
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="relu_pact 'act1' takes no bias"):
            blobio.load_model(path)

    def test_controller_without_weights_not_saved(self, tmp_path):
        spec = ControllerSpec(num_layers=3, candidates=(4, 8), source="loaded")
        with pytest.raises(ValueError, match="w1, b1, w2, b2"):
            blobio.save_controller(spec, tmp_path / "c")
        spec = ControllerSpec(num_layers=3, candidates=(4, 8), seed=1)
        spec.b2 = None
        with pytest.raises(ValueError, match="no b2;"):
            blobio.save_controller(spec, tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("edit", ["manifest-n", "weights-at-8", "derived-output-grid"])
    def test_grid_at_another_master_width_refused(self, tmp_path, blob_data, capsys, edit):
        # Loaded, a 12-bit grid under an 8-bit manifest would be shifted where
        # cost_report charges no shift, and 8-bit weights among 12-bit grids
        # would run thousands of output steps off the oracle.
        x, _, means = blob_data
        model = build_toy_mlp(seed=7, n=12, means=means)
        calibrate(model, [x[:200]])
        if edit == "weights-at-8":
            quantize_weights(model.layers[2], 8)
        path = blobio.save_model(model, tmp_path / "m")
        manifest = json.loads(path.read_text())
        if edit == "manifest-n":
            manifest["quantization"]["master_bitwidth"] = 8
        elif edit == "derived-output-grid":  # the head's; a clamp's producer stores none
            grid = derive_params(model.layers[4].output_params, 8)
            manifest["layers"][4]["output_params"] = blobio._params_to_json(grid)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match="is not a master grid at the model's n="):
            blobio.load_model(path)
        write_blob(tmp_path / "x.nqtb", x[:2].astype(np.float32))
        capsys.readouterr()
        assert main(["infer", "--model", str(tmp_path / "m"), "--input", str(tmp_path / "x.nqtb"),
                     "--policy", "static:8", "--out", str(tmp_path / "r.txt")]) == EXIT_MANIFEST
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("key, value", [("scale", "Infinity"), ("offset", "NaN")])
    def test_non_finite_grid_refused(self, tmp_path, mlp, blob_data, capsys, key, value):
        # JSON's Infinity and NaN load as floats, so the grid must refuse them
        path = blobio.save_model(mlp, tmp_path / "m")
        manifest = json.loads(path.read_text())
        manifest["input_params"][key] = float(value)
        path.write_text(json.dumps(manifest))  # written as JSON's Infinity or NaN
        assert value in path.read_text()
        write_blob(tmp_path / "x.nqtb", blob_data[0][:2])
        capsys.readouterr()
        for command in (["infer", "--input", str(tmp_path / "x.nqtb")], ["cost"]):
            assert main([command[0], "--model", str(tmp_path / "m"), *command[1:],
                         "--policy", "static:4", "--out", str(tmp_path / "r.txt")]) \
                == EXIT_MANIFEST
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "finite" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "r.txt").exists()

    def test_controller_without_policy_layers_round_trips(self, tmp_path):
        spec = ControllerSpec(num_layers=0, candidates=(4, 8), seed=1)
        loaded = blobio.load_controller(blobio.save_controller(spec, tmp_path / "c"))
        assert loaded.w2.shape == (0, spec.hidden) and loaded.b2.shape == (0,)


class TestSeedResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("NESTQ_SEED", "99")
        assert resolve_seed(5, 0) == 5

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("NESTQ_SEED", "99")
        assert resolve_seed(None, 0) == 99

    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("NESTQ_SEED", raising=False)
        assert resolve_seed(None, 42) == 42

    def test_malformed_env_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NESTQ_SEED", "abc")
        with pytest.raises(UsageError):
            resolve_seed(None, 0)
        assert resolve_seed(5, 0) == 5  # an explicit flag never reads the variable
        capsys.readouterr()
        assert main(["make-dataset", "--out", str(tmp_path / "d")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: NESTQ_SEED='abc' is not an integer\n"
        assert not (tmp_path / "d").exists()
        assert main(["make-dataset", "--seed", "3", "--samples", "4",
                     "--out", str(tmp_path / "d")]) == EXIT_OK

    def test_malformed_env_exits_2_without_a_traceback(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "NESTQ_SEED": "abc"}
        proc = subprocess.run([sys.executable, "-m", "nestq.cli", "make-dataset",
                               "--out", str(tmp_path / "d")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: NESTQ_SEED='abc' is not an integer\n"
        assert "Traceback" not in proc.stderr


class TestParsePolicy:
    def test_static(self, mlp):
        assert parse_policy("static:6", mlp).bits == (6, 6, 6)

    def test_fixed(self, mlp):
        assert parse_policy("fixed:8,4,8", mlp).bits == (8, 4, 8)

    def test_fixed_is_the_policy_of_its_bits(self, mlp):
        # the grouping in `infer` keys on the policy, so it must be the bits alone
        assert parse_policy("fixed:8,4,8", mlp) == BitPolicy((8, 4, 8))
        assert hash(parse_policy("fixed:8,4,8", mlp)) == hash(BitPolicy((8, 4, 8)))

    def test_fixed_length_checked(self, mlp):
        from nestq.layers import ShapeMismatchError
        with pytest.raises(ShapeMismatchError):
            parse_policy("fixed:8,4", mlp)

    def test_heuristic_and_controller(self, mlp, blob_data):
        p1 = parse_policy("heuristic:4,5,6", mlp)
        p2 = parse_policy("controller:4,5,6", mlp, x=blob_data[0][0], seed=1)
        for p in (p1, p2):
            assert len(p) == 3 and all(b in (4, 5, 6) for b in p.bits)

    @pytest.mark.parametrize("source, want", [
        ("heuristic:2,4,6,8", (4, 2, 8)), ("heuristic:4,5,6,7,8", (6, 4, 8)),
        ("heuristic:4,5,6", (5, 4, 6)),
    ])
    def test_heuristic_spreads_ranks_over_every_candidate(self, workspace, source, want):
        # The CLI-calibrated MLP's range ranks are [1, 0, 2]: the head is widest.
        assert parse_policy(source, blobio.load_model(workspace / "model")).bits == want

    def test_unknown_source_rejected(self, mlp):
        from nestq.cli import PolicySourceError
        with pytest.raises(PolicySourceError):
            parse_policy("oracle:8", mlp)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset and calibrated model built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["make-dataset", "--seed", "3", "--samples", "64",
                 "--out", str(root / "data")]) == EXIT_OK
    assert main(["quantize", "--arch", "mlp", "--seed", "7",
                 "--out", str(root / "model")]) == EXIT_OK
    assert main(["calibrate", "--model", str(root / "model"),
                 "--data", str(root / "data/x.nqtb")]) == EXIT_OK
    return root


class TestCommands:
    def test_make_dataset_deterministic(self, tmp_path):
        for d in ("a", "b"):
            assert main(["make-dataset", "--seed", "11", "--samples", "32",
                         "--out", str(tmp_path / d)]) == EXIT_OK
        for name in ("x", "labels", "means"):
            assert (tmp_path / f"a/{name}.nqtb").read_bytes() == \
                (tmp_path / f"b/{name}.nqtb").read_bytes()

    def test_make_dataset_empty_is_valid(self, tmp_path):
        assert main(["make-dataset", "--samples", "0",
                     "--out", str(tmp_path / "d")]) == EXIT_OK
        assert read_blob(tmp_path / "d/x.nqtb").shape == (0, 16)

    def test_infer_runs_and_is_deterministic(self, workspace, tmp_path):
        for name in ("r1.txt", "r2.txt"):
            assert main(["infer", "--model", str(workspace / "model"),
                         "--input", str(workspace / "data/x.nqtb"),
                         "--policy", "fixed:8,4,8", "--limit", "4",
                         "--out", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        assert (tmp_path / "r1.txt.json").exists()

    def test_cost_matches_library(self, workspace, tmp_path):
        from nestq.cost import cost_report
        from nestq.layers import BitPolicy
        assert main(["cost", "--model", str(workspace / "model"),
                     "--policy", "static:4",
                     "--out", str(tmp_path / "c.txt")]) == EXIT_OK
        doc = json.loads((tmp_path / "c.txt.json").read_text())
        model = blobio.load_model(workspace / "model")
        rep = cost_report(model, BitPolicy.uniform(4, 3), "dqt")
        assert doc["bitops"] == rep.bitops
        assert doc["transition_elements"] == rep.transition_elements

    def test_cost_report_is_the_library_record(self, workspace, tmp_path):
        assert main(["cost", "--model", str(workspace / "model"),
                     "--out", str(tmp_path / "c.txt")]) == EXIT_OK
        doc = json.loads((tmp_path / "c.txt.json").read_text())
        assert set(doc) == {f.name for f in fields(CostReport)} | {"command", "policy"}

    def test_cost_counts_equal_infer_trace(self, workspace, tmp_path):
        args = ["--model", str(workspace / "model"), "--policy", "static:4"]
        assert main(["cost", *args, "--out", str(tmp_path / "c.txt")]) == EXIT_OK
        assert main(["infer", *args, "--input", str(workspace / "data/x.nqtb"),
                     "--limit", "2", "--out", str(tmp_path / "i.txt")]) == EXIT_OK
        cost = json.loads((tmp_path / "c.txt.json").read_text())
        infer = json.loads((tmp_path / "i.txt.json").read_text())
        want = (cost["inloop_mults"], cost["inloop_adds"], cost["transition_elements"])
        for name in ("sample0000", "sample0001"):
            sample = infer[name]
            assert (sample["mults"], sample["adds"], sample["shifts"]) == want

    @pytest.mark.parametrize("source", ["fixed:8,4,6", "controller:3,5,8"])
    def test_infer_sample_records_name_each_count_once(self, workspace, tmp_path, source):
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"), "--policy", source,
                     "--limit", "8", "--out", str(tmp_path / "i.txt")]) == EXIT_OK
        doc = json.loads((tmp_path / "i.txt.json").read_text())
        model = blobio.load_model(workspace / "model")
        for i in range(8):
            sample = doc[f"sample{i:04d}"]
            assert set(sample) == {"argmax", "output", "policy", "fp_tensor_ops",
                                   "mults", "adds", "shifts"}
            policy = BitPolicy(tuple(sample["policy"]))
            assert sample["shifts"] == cost_report(model, policy).transition_elements

    def test_cost_refuses_policy_above_master(self, workspace, tmp_path, capsys):
        n = blobio.load_model(workspace / "model").master_bitwidth
        capsys.readouterr()
        assert main(["cost", "--model", str(workspace / "model"),
                     "--policy", f"static:{n + 1}",
                     "--out", str(tmp_path / "c.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "c.txt").exists()

    def test_calibrate_in_place_from_manifest_path(self, workspace, tmp_path):
        model_dir = tmp_path / "m"
        assert main(["quantize", "--arch", "mlp", "--seed", "7",
                     "--out", str(model_dir)]) == EXIT_OK
        assert main(["calibrate", "--model", str(model_dir / "manifest.json"),
                     "--data", str(workspace / "data/x.nqtb")]) == EXIT_OK
        assert blobio.load_model(model_dir).is_calibrated

    def test_calibrate_records_batch_size_and_keeps_quantize_provenance(self, workspace, tmp_path):
        # --batch-size moves every output grid taken from an EMA range.
        assert main(["quantize", "--arch", "mlp", "--seed", "7",
                     "--out", str(tmp_path / "q")]) == EXIT_OK
        provenance = []
        for size in (16, 64):
            assert main(["calibrate", "--model", str(tmp_path / "q"), "--batch-size", str(size),
                         "--data", str(workspace / "data/x.nqtb"),
                         "--out", str(tmp_path / str(size))]) == EXIT_OK
            provenance.append(json.loads((tmp_path / f"{size}/manifest.json").read_text())
                              ["provenance"])
        assert provenance[0] != provenance[1]
        assert [p["command"].split("--batch-size ")[1] for p in provenance] == ["16", "64"]
        assert all(p["from"]["seed"] == 7 for p in provenance)

    def test_verify_default_checks_fitted_precision(self, tmp_path):
        assert main(["verify", "--suite", "dot", "--samples", "500",
                     "--out", str(tmp_path / "v.txt")]) == EXIT_OK
        doc = json.loads((tmp_path / "v.txt.json").read_text())
        fitted = empirical_verify("dot", samples=500, seed=0)
        assert doc["dot"]["max_observed"] == repr(fitted.max_observed)

    def test_verify_report_pinned(self, tmp_path):
        # sha256 prefixes of the report and its twin: every constant the
        # builders fit and every figure the verifier derives from them.
        out = tmp_path / "v.txt"
        assert main(["verify", "--suite", "bounds", "--samples", "2000", "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                   for p in (out, tmp_path / "v.txt.json")]
        assert digests == ["daf4a09c404ea7c8", "203effaff95ad395"]

    def test_calibrate_without_samples_refused(self, workspace, tmp_path, capsys):
        assert main(["quantize", "--arch", "mlp", "--out", str(tmp_path / "m")]) == EXIT_OK
        x = read_blob(workspace / "data/x.nqtb")
        write_blob(tmp_path / "x.nqtb", x[:0])
        capsys.readouterr()
        assert main(["calibrate", "--model", str(tmp_path / "m"),
                     "--data", str(tmp_path / "x.nqtb")]) == 1
        assert "no calibration samples" in capsys.readouterr().err

    def test_verify_passes(self, tmp_path):
        assert main(["verify", "--suite", "shift",
                     "--out", str(tmp_path / "v.txt")]) == EXIT_OK
        doc = json.loads((tmp_path / "v.txt.json").read_text())
        assert doc["total_violations"] == 0
        assert doc["shift"]["max_observed"] == "0.5"

    def test_verify_shift_checks_the_shift_inference_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "shift_down", floor_shift)
        report = empirical_verify("shift")
        assert len(report.violations) == 1164  # every index whose remainder is >= half a step
        assert report.max_observed == 0.5
        assert main(["verify", "--suite", "shift",
                     "--out", str(tmp_path / "v.txt")]) == EXIT_BOUND_VIOLATION
        assert json.loads((tmp_path / "v.txt.json").read_text())["total_violations"] == 1164

    def test_missing_manifest_exit_code(self, tmp_path):
        assert main(["infer", "--model", str(tmp_path / "nope"),
                     "--input", str(tmp_path / "nope.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST

    def test_manifest_missing_key_exit_code(self, tmp_path):
        (tmp_path / "m").mkdir()
        (tmp_path / "m/manifest.json").write_text('{"version": 1, "input_shape": [4]}')
        assert main(["cost", "--model", str(tmp_path / "m"),
                     "--out", str(tmp_path / "c.txt")]) == EXIT_MANIFEST

    def test_controller_missing_key_exit_code(self, workspace, tmp_path):
        path = blobio.save_controller(ControllerSpec(num_layers=3, candidates=(4, 8)),
                                      tmp_path / "c")
        meta = json.loads(path.read_text())
        del meta["hidden"]
        path.write_text(json.dumps(meta))
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"),
                     "--policy", f"controller-file:{path}",
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST

    def test_refused_layer_exit_code(self, tmp_path, capsys):
        from nestq.calibration import calibrate
        from nestq.models import build_toy_cnn, cnn_dataset
        from nestq.quantize import QuantParams

        x, _ = cnn_dataset(5, samples=4)
        model = build_toy_cnn(seed=11, n=16)
        calibrate(model, [x])
        # A 2^-60 output step puts the head's constants past int64 even at F = 0.
        model.layers[-1].output_params = QuantParams(
            scale=2.0 ** -60, offset=0.0, bitwidth=16, master_bitwidth=16)
        blobio.save_model(model, tmp_path / "m")
        write_blob(tmp_path / "x.nqtb", x.astype(np.float32))
        capsys.readouterr()
        assert main(["infer", "--model", str(tmp_path / "m"),
                     "--input", str(tmp_path / "x.nqtb"), "--policy", "static:16",
                     "--out", str(tmp_path / "o.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "int64" in err and "'head'" in err
        assert len(err.splitlines()) == 1

    def test_shape_mismatch_exit_code(self, workspace, tmp_path):
        write_blob(tmp_path / "bad.nqtb", np.zeros((2, 7), dtype=np.float32))
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(tmp_path / "bad.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_SHAPE

    def test_bad_input_blob_exit_code(self, workspace, tmp_path, capsys):
        cut = tmp_path / "cut.nqtb"
        cut.write_bytes(b"NQTB\x00\x02\x05\x00")  # a rank-2 header cut inside its dims
        for blob in (cut, tmp_path / "missing.nqtb"):
            capsys.readouterr()
            assert main(["infer", "--model", str(workspace / "model"),
                         "--input", str(blob), "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(blob) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o.txt").exists()

    def test_missing_quantized_blob_exit_code(self, workspace, tmp_path):
        shutil.copytree(workspace / "model", tmp_path / "m")
        (tmp_path / "m/blobs/layer0_bias_q.nqtb").unlink()
        assert main(["infer", "--model", str(tmp_path / "m"),
                     "--input", str(workspace / "data/x.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == EXIT_MANIFEST

    def test_nan_input_exit_code(self, workspace, tmp_path, capsys):
        x = read_blob(workspace / "data/x.nqtb")[:3].copy()
        x[1, 2] = np.nan
        write_blob(tmp_path / "nan.nqtb", x)
        capsys.readouterr()
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(tmp_path / "nan.nqtb"),
                     "--out", str(tmp_path / "o.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NaN" in err and len(err.splitlines()) == 1

    def test_non_finite_calibration_data_exit_code(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "model", tmp_path / "m")
        manifest = (tmp_path / "m/manifest.json").read_bytes()
        x = read_blob(workspace / "data/x.nqtb").copy()
        x[40, 2] = np.inf
        write_blob(tmp_path / "inf.nqtb", x)
        capsys.readouterr()
        assert main(["calibrate", "--model", str(tmp_path / "m"), "--data",
                     str(tmp_path / "inf.nqtb"), "--batch-size", "16"]) == 1
        assert capsys.readouterr().err == "error: calibration batch 2 holds NaN or ±inf\n"
        assert (tmp_path / "m/manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("n", [0, 1, 17, 40, 8.0])
    def test_master_width_outside_2_to_16_exit_code(self, workspace, tmp_path, capsys, n):
        shutil.copytree(workspace / "model", tmp_path / "m")
        path = tmp_path / "m/manifest.json"
        manifest = json.loads(path.read_text())
        manifest["quantization"]["master_bitwidth"] = n
        path.write_text(json.dumps(manifest))
        edited = path.read_bytes()
        data = str(workspace / "data/x.nqtb")
        capsys.readouterr()
        for argv in (["infer", "--input", data, "--out", str(tmp_path / "r.txt")],
                     ["cost", "--out", str(tmp_path / "r.txt")],
                     ["calibrate", "--data", data, "--out", str(tmp_path / "c")]):
            assert main([argv[0], "--model", str(tmp_path / "m"), *argv[1:]]) == EXIT_MANIFEST
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert f"master bit-width {n!r} outside [2, 16]" in err
        assert not (tmp_path / "r.txt").exists() and not (tmp_path / "c").exists()
        assert path.read_bytes() == edited

    def test_non_finite_float_weight_exit_code(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "model", tmp_path / "m")
        manifest = (tmp_path / "m/manifest.json").read_bytes()
        entry = next(e for e in json.loads(manifest)["layers"] if e["name"] == "fc2")
        w = read_blob(tmp_path / "m" / entry["weight"]).copy()
        w[3, 5] = np.nan
        write_blob(tmp_path / "m" / entry["weight"], w)
        capsys.readouterr()
        assert main(["calibrate", "--model", str(tmp_path / "m"),
                     "--data", str(workspace / "data/x.nqtb")]) == 1
        assert capsys.readouterr().err == "error: fc 'fc2' weight holds NaN or ±inf\n"
        assert (tmp_path / "m/manifest.json").read_bytes() == manifest

    def test_image_dataset_feeds_the_cnn(self, tmp_path):
        assert main(["make-dataset", "--dims", "64", "--image-shape", "1,8,8",
                     "--samples", "40", "--out", str(tmp_path / "d")]) == EXIT_OK
        x = read_blob(tmp_path / "d/x.nqtb")
        assert x.shape == (40, 1, 8, 8)
        assert main(["quantize", "--arch", "cnn", "--out", str(tmp_path / "m")]) == EXIT_OK
        assert main(["calibrate", "--model", str(tmp_path / "m"),
                     "--data", str(tmp_path / "d/x.nqtb")]) == EXIT_OK
        assert main(["infer", "--model", str(tmp_path / "m"), "--input",
                     str(tmp_path / "d/x.nqtb"), "--policy", "fixed:8,4,8",
                     "--out", str(tmp_path / "r.txt")]) == EXIT_OK
        doc = json.loads((tmp_path / "r.txt.json").read_text())
        assert doc["samples_run"] == 40
        samples = sorted(k for k in doc if k.startswith("sample") and k != "samples_run")
        assert samples == [f"sample{i:04d}" for i in range(40)]
        ys, _ = forward(blobio.load_model(tmp_path / "m"), x.astype(np.float64),
                        BitPolicy((8, 4, 8)))
        for key, y in zip(samples, ys):
            assert doc[key]["policy"] == [8, 4, 8]
            assert doc[key]["output"] == [repr(float(v)) for v in y]

    @pytest.mark.parametrize("shape", ["3,3", "a,b"])
    def test_image_shape_that_does_not_fit_exit_code(self, tmp_path, capsys, shape):
        capsys.readouterr()
        assert main(["make-dataset", "--dims", "16", "--image-shape", shape,
                     "--out", str(tmp_path / "d")]) == EXIT_SHAPE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()

    def test_unknown_policy_source_exit_code(self, workspace, tmp_path):
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"),
                     "--policy", "magic:3",
                     "--out", str(tmp_path / "o.txt")]) == EXIT_POLICY_SOURCE

    def test_env_seed_changes_controller_policy(self, workspace, tmp_path,
                                                monkeypatch, capsys):
        outs = []
        for seed in ("0", "1"):
            monkeypatch.setenv("NESTQ_SEED", seed)
            out = tmp_path / f"ctrl{seed}.txt"
            assert main(["infer", "--model", str(workspace / "model"),
                         "--input", str(workspace / "data/x.nqtb"),
                         "--policy", "controller:2,4,6,8", "--limit", "2",
                         "--out", str(out)]) == EXIT_OK
            outs.append(json.loads(out.with_suffix(".txt.json").read_text()))
        assert outs[0]["seed"] == 0 and outs[1]["seed"] == 1


def floor_shift(q, n, b):
    """A truncating shift: the nested index rounded down, not to nearest."""
    return np.asarray(q) >> (n - b)


def refuse_int64(*args, **kwargs):
    raise AccumulatorOverflowError("layer 'head': accumulator exceeds int64")


# One command per EXIT_CODES entry: (class, argv, setup), where setup patches
# in the fault a command cannot otherwise reach.
EXIT_CODE_CASES = [
    (UsageError, lambda ws, tmp: ["make-dataset", "--out", str(tmp / "d")],
     lambda mp: mp.setenv("NESTQ_SEED", "abc")),
    (ManifestError, lambda ws, tmp: ["infer", "--model", str(tmp / "nope"),
                                     "--input", str(ws / "data/x.nqtb"),
                                     "--out", str(tmp / "o.txt")], None),
    (ShapeMismatchError, lambda ws, tmp: ["infer", "--model", str(ws / "model"),
                                          "--input", str(tmp / "wide.nqtb"),
                                          "--out", str(tmp / "o.txt")], None),
    (PolicySourceError, lambda ws, tmp: ["infer", "--model", str(ws / "model"),
                                         "--input", str(ws / "data/x.nqtb"),
                                         "--policy", "magic:3", "--out", str(tmp / "o.txt")],
     None),
    (BoundViolationError, lambda ws, tmp: ["verify", "--suite", "shift",
                                           "--out", str(tmp / "v.txt")],
     lambda mp: mp.setattr(analysis, "shift_down", floor_shift)),
    (ValueError, lambda ws, tmp: ["cost", "--model", str(ws / "model"), "--policy", "static:9",
                                  "--out", str(tmp / "c.txt")], None),
    (OSError, lambda ws, tmp: ["infer", "--model", str(ws / "model"),
                               "--input", str(ws / "data/x.nqtb"), "--limit", "1",
                               "--out", str(ws / "data/x.nqtb/o.txt")], None),
    (AccumulatorOverflowError, lambda ws, tmp: ["infer", "--model", str(ws / "model"),
                                                "--input", str(ws / "data/x.nqtb"),
                                                "--out", str(tmp / "o.txt")],
     lambda mp: mp.setattr(cli, "forward", refuse_int64)),
]


class TestExitCodes:
    def test_one_case_per_entry(self):
        assert [cls for cls, _, _ in EXIT_CODE_CASES] == [cls for cls, _ in EXIT_CODES]

    @pytest.mark.parametrize("cls, argv, setup", EXIT_CODE_CASES,
                             ids=[cls.__name__ for cls, _, _ in EXIT_CODE_CASES])
    def test_each_entry_reached(self, workspace, tmp_path, monkeypatch, capsys,
                                cls, argv, setup):
        write_blob(tmp_path / "wide.nqtb", np.zeros((2, 7), dtype=np.float32))
        if setup:
            setup(monkeypatch)
        capsys.readouterr()
        assert main(argv(workspace, tmp_path)) == dict(EXIT_CODES)[cls]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_subclass_before_base(self):
        for i, (cls, _) in enumerate(EXIT_CODES):
            assert not any(issubclass(cls, base) for base, _ in EXIT_CODES[:i])


def reference_infer(model_dir, blob, policy_text, seed, out):
    """The `infer` report written by a per-sample loop: one policy parse and one
    single-sample forward per sample."""
    model = blobio.load_model(model_dir)
    data = read_blob(blob).astype(np.float64)
    report = {"command": "infer", "policy_source": policy_text, "seed": seed,
              "samples_run": len(data), "master_bitwidth": model.master_bitwidth}
    for i, x in enumerate(data):
        policy = parse_policy(policy_text, model, x=x, seed=seed)
        y, trace = forward(model, x, policy)
        c = trace.counters
        report[f"sample{i:04d}"] = {
            "policy": list(policy.bits),
            "argmax": int(np.argmax(y)),
            "output": [repr(float(v)) for v in y.reshape(-1)],
            "fp_tensor_ops": trace.fp_tensor_ops,
            "mults": c.mults,
            "adds": c.adds,
            "shifts": c.shifts,
        }
    blobio.write_report(out, report)
    return report


def same_report(a, b):
    return a.read_bytes() == b.read_bytes() and \
        a.with_suffix(".txt.json").read_bytes() == b.with_suffix(".txt.json").read_bytes()


class TestGroupedInfer:
    def test_mixed_policies_past_the_chunk_size_match_a_per_sample_loop(self, tmp_path):
        assert main(["make-dataset", "--seed", "3", "--samples", "600",
                     "--out", str(tmp_path / "d")]) == EXIT_OK
        assert main(["quantize", "--arch", "mlp", "--seed", "7",
                     "--out", str(tmp_path / "m")]) == EXIT_OK
        assert main(["calibrate", "--model", str(tmp_path / "m"),
                     "--data", str(tmp_path / "d/x.nqtb")]) == EXIT_OK
        policy = "controller:2,4,6,8"
        assert main(["infer", "--model", str(tmp_path / "m"),
                     "--input", str(tmp_path / "d/x.nqtb"), "--policy", policy,
                     "--seed", "1", "--out", str(tmp_path / "got.txt")]) == EXIT_OK
        want = reference_infer(tmp_path / "m", tmp_path / "d/x.nqtb", policy, 1,
                               tmp_path / "want.txt")
        assert same_report(tmp_path / "got.txt", tmp_path / "want.txt")
        groups = {}
        for i in range(600):
            groups.setdefault(tuple(want[f"sample{i:04d}"]["policy"]), []).append(i)
        assert len(groups) > 2  # mixed, interleaved policies
        assert max(map(len, groups.values())) > cli.INFER_CHUNK  # a group runs in chunks

    def test_controller_file_loaded_once(self, workspace, tmp_path, monkeypatch):
        x = read_blob(workspace / "data/x.nqtb")[:16]
        write_blob(tmp_path / "x16.nqtb", x)
        path = blobio.save_controller(
            ControllerSpec(num_layers=3, candidates=(3, 5, 8), seed=4), tmp_path / "c")
        policy = f"controller-file:{path}"
        want = reference_infer(workspace / "model", tmp_path / "x16.nqtb", policy, 0,
                               tmp_path / "want.txt")
        assert len({tuple(want[f"sample{i:04d}"]["policy"]) for i in range(16)}) > 1
        loads = []
        load = blobio.load_controller
        monkeypatch.setattr(blobio, "load_controller",
                            lambda p: loads.append(p) or load(p))
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(tmp_path / "x16.nqtb"), "--policy", policy,
                     "--out", str(tmp_path / "got.txt")]) == EXIT_OK
        assert len(loads) == 1
        assert same_report(tmp_path / "got.txt", tmp_path / "want.txt")

    def test_samples_past_9999_listed_in_input_order(self, workspace, tmp_path):
        assert main(["make-dataset", "--seed", "3", "--samples", "10001",
                     "--out", str(tmp_path / "d")]) == EXIT_OK
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(tmp_path / "d/x.nqtb"),
                     "--out", str(tmp_path / "r.txt")]) == EXIT_OK
        order = []
        for line in (tmp_path / "r.txt").read_text().splitlines():
            key = line.split(".", 1)[0]
            if key.startswith("sample") and key[6:].isdigit() and key not in order[-1:]:
                order.append(key)
        assert order == [f"sample{i:05d}" for i in range(10001)]
        doc = json.loads((tmp_path / "r.txt.json").read_text())
        assert [k for k in doc if k[6:].isdigit()] == order

    def test_bad_policy_source_refused_on_an_empty_run(self, workspace, tmp_path):
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"), "--limit", "0",
                     "--policy", "magic:3",
                     "--out", str(tmp_path / "o.txt")]) == EXIT_POLICY_SOURCE


def per_sample_groups(text, model, xs, seed):
    """Each policy's sample indices, grouped from one `parse_policy` per sample."""
    groups = {}
    for i, x in enumerate(xs):
        groups.setdefault(parse_policy(text, model, x=x, seed=seed), []).append(i)
    return groups


@pytest.fixture(scope="module")
def saved_controller(tmp_path_factory):
    spec = ControllerSpec(num_layers=3, candidates=(3, 5, 8), seed=4)
    return blobio.save_controller(spec, tmp_path_factory.mktemp("ctrl") / "c")


class TestPolicySourceGroups:
    @pytest.mark.parametrize("count", [0, 1, 7, 300])
    @pytest.mark.parametrize("text, seed", [
        ("static:6", 0), ("fixed:8,4,8", 0), ("heuristic:4,5,6", 0),
        ("controller:2,4,6,8", 1), ("controller:2,4,6,8", 2), ("controller-file", 0)])
    def test_equals_a_per_sample_loop(self, mlp, blob_data, saved_controller,
                                      text, seed, count):
        if text == "controller-file":
            text = f"controller-file:{saved_controller}"
        xs = blob_data[0][:count]
        got = policy_source(text, mlp, seed)(xs)
        want = per_sample_groups(text, mlp, xs, seed)
        assert list(got) == list(want)  # the same policies, in first-seen order
        assert got == want
        assert sorted(i for members in got.values() for i in members) == list(range(count))
        assert all(members == sorted(members) for members in got.values())
        if text.startswith("controller") and count == 300:
            assert len(got) > 2  # the controller mixes its picks

    def test_a_fixed_source_picks_once(self, mlp, blob_data, monkeypatch):
        calls = []
        heuristic = cli.range_heuristic_policy
        monkeypatch.setattr(cli, "range_heuristic_policy",
                            lambda *a: calls.append(a) or heuristic(*a))
        groups = policy_source("heuristic:4,5,6", mlp)(blob_data[0][:300])
        assert len(calls) == 1 and list(groups.values()) == [list(range(300))]


# Sources that name a policy the toy MLP (n = 8, 16 input values) cannot run,
# and the one `error:` line each is refused with.
UNFIT_SOURCES = [
    ("static:99", "policy bit-widths [99, 99, 99] outside [2, 8]"),
    ("fixed:8,99,8", "policy bit-widths [99] outside [2, 8]"),
    ("heuristic:4,99", "policy bit-widths [99] outside [2, 8]"),
    ("controller:4,99", "policy bit-widths [99] outside [2, 8]"),
    ("controller-file", "input with 16 values cannot pool to 32"),
]


class TestPolicyCheckedWhenResolved:
    @pytest.mark.parametrize("argv", [["infer", "--limit", "0"], ["infer", "--limit", "3"],
                                      ["cost"]], ids=["empty-infer", "infer", "cost"])
    @pytest.mark.parametrize("source, message", UNFIT_SOURCES,
                             ids=[s for s, _ in UNFIT_SOURCES])
    def test_refused_whatever_the_data(self, workspace, tmp_path, capsys,
                                       source, message, argv):
        if source == "controller-file":
            spec = ControllerSpec(num_layers=3, candidates=(4, 8), feature_dim=32, seed=0)
            source = f"controller-file:{blobio.save_controller(spec, tmp_path / 'c')}"
        if argv[0] == "infer":
            argv = argv + ["--input", str(workspace / "data/x.nqtb")]
        capsys.readouterr()
        assert main(argv + ["--model", str(workspace / "model"), "--policy", source,
                            "--seed", "0", "--out", str(tmp_path / "o.txt")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.txt").exists() and not (tmp_path / "o.txt.json").exists()

    def test_default_candidates_refused_below_n_6(self):
        with pytest.raises(ValueError, match=r"^policy bit-widths \[5, 6\] outside \[2, 4\]$"):
            policy_source("controller:", build_toy_mlp(n=4))

    @pytest.mark.parametrize("source, code", [
        ("static:x", EXIT_POLICY_SOURCE), ("fixed:99,99", EXIT_SHAPE),
        ("controller-file:nowhere", EXIT_MANIFEST)])
    def test_earlier_refusals_keep_their_code(self, workspace, tmp_path, source, code):
        assert main(["cost", "--model", str(workspace / "model"), "--policy", source,
                     "--out", str(tmp_path / "o.txt")]) == code


class TestImpossibleGraphExitCodes:
    @pytest.mark.parametrize("edit, code", [
        (lambda layers: layers[0].update(stride=0), EXIT_MANIFEST),
        (lambda layers: layers[0].update(kernel=0), EXIT_MANIFEST),
        (lambda layers: layers[0].update(kernel=11), EXIT_SHAPE),
        (lambda layers: layers.insert(0, dict(layers[1])), EXIT_MANIFEST),
    ], ids=["stride-0", "kernel-0", "empty-output", "clamp-first"])
    def test_edited_manifest(self, tmp_path, capsys, edit, code):
        assert main(["quantize", "--arch", "cnn", "--out", str(tmp_path / "m")]) == EXIT_OK
        path = tmp_path / "m/manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["layers"])
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["cost", "--model", str(tmp_path / "m"),
                     "--out", str(tmp_path / "c.txt")]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestNumericFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("infer", "--limit", "-1"),
        ("calibrate", "--batch-size", "0"),
        ("calibrate", "--momentum", "7"),
        ("calibrate", "--momentum", "-3"),
        ("calibrate", "--momentum", "nan"),
    ])
    def test_out_of_range_is_a_usage_error(self, workspace, tmp_path, capsys,
                                           command, flag, value):
        data = "--input" if command == "infer" else "--data"
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", str(workspace / "model"),
                  data, str(workspace / "data/x.nqtb"), flag, value,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_calibrate_has_no_pass_count(self, workspace, tmp_path, capsys):
        # k passes over the data are the batches repeated k times
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--model", str(workspace / "model"), "--data",
                  str(workspace / "data/x.nqtb"), "--passes", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --passes 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_verify_without_samples_is_a_usage_error(self, tmp_path, capsys, value):
        # zero cases would write a passing report that no bound violation could fail
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", value, "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["make-dataset", "--dims", "0"],
        ["make-dataset", "--classes", "0"],
        ["make-dataset", "--samples", "-1"],
        ["quantize", "--bits", "1"],
        ["quantize", "--bits", "17"],
        ["verify", "--frac-bits", "0"],
    ], ids=["dims-0", "classes-0", "samples-neg", "bits-1", "bits-17", "frac-bits"])
    def test_refused_before_any_work(self, tmp_path, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == EXIT_USAGE
        assert argv[1] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unseparable_dataset_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # four means at least 2 apart in [2, 8] is a tight fit: no draw can find one
        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was built for a layout that cannot separate")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert main(["make-dataset", "--dims", "1", "--out", str(tmp_path / "o")]) == 1
        assert "classes=4 means in dims=1 did not separate" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_numeric_flag_is_range_checked(self):
        # --seed takes any integer; every other number has its range checked at the parser.
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if not action.option_strings or action.dest in ("help", "seed"):
                    continue
                numeric = action.type in (int, float) or type(action.default) in (int, float)
                checked = action.choices is not None or getattr(
                    action.type, "__qualname__", "").startswith(("_int_at_least.", "_float_in."))
                assert checked or not numeric, f"{command} {action.option_strings[0]}"

    def test_lowest_allowed_values_run(self, workspace, tmp_path):
        assert main(["infer", "--model", str(workspace / "model"),
                     "--input", str(workspace / "data/x.nqtb"), "--limit", "0",
                     "--out", str(tmp_path / "r.txt")]) == EXIT_OK
        assert "samples_run=0" in (tmp_path / "r.txt").read_text()
        assert main(["calibrate", "--model", str(workspace / "model"),
                     "--data", str(workspace / "data/x.nqtb"), "--batch-size", "1",
                     "--out", str(tmp_path / "m")]) == EXIT_OK
        for momentum in ("0", "1"):
            assert main(["calibrate", "--model", str(workspace / "model"),
                         "--data", str(workspace / "data/x.nqtb"), "--momentum", momentum,
                         "--out", str(tmp_path / f"m{momentum}")]) == EXIT_OK
        assert main(["verify", "--samples", "1", "--out", str(tmp_path / "v.txt")]) == EXIT_OK
        assert "total_violations=0" in (tmp_path / "v.txt").read_text()
        assert main(["make-dataset", "--classes", "1", "--dims", "1", "--samples", "3",
                     "--out", str(tmp_path / "d")]) == EXIT_OK
        assert read_blob(tmp_path / "d/x.nqtb").shape == (3, 1)
        for bits in ("2", "16"):
            assert main(["quantize", "--bits", bits, "--out", str(tmp_path / bits)]) == EXIT_OK
            assert blobio.load_model(tmp_path / bits).master_bitwidth == int(bits)


class TestParserBuiltOnce:
    def test_each_call_gets_its_own_arguments_and_defaults(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        runs = [["quantize", "--arch", "cnn", "--bits", "6", "--seed", "2"],
                ["make-dataset", "--samples", "7", "--classes", "3", "--dims", "5"],
                ["quantize"],
                ["make-dataset", "--samples", "9"]]
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / str(i))]) == EXIT_OK
        cnn = blobio.load_model(tmp_path / "0")
        mlp = blobio.load_model(tmp_path / "2")
        assert cnn.master_bitwidth == 6 and cnn.layers[0].kind == "conv2d"
        assert mlp.master_bitwidth == 8 and mlp.layers[0].kind == "fc"
        seeds = [json.loads((tmp_path / f"{i}/manifest.json").read_text())["provenance"]["seed"]
                 for i in (0, 2)]
        assert seeds == [2, 7]  # the second quantize falls back to the default seed
        assert read_blob(tmp_path / "1/x.nqtb").shape == (7, 5)
        assert read_blob(tmp_path / "1/means.nqtb").shape[0] == 3
        assert read_blob(tmp_path / "3/x.nqtb").shape == (9, 16)
        assert read_blob(tmp_path / "3/means.nqtb").shape[0] == 4


def residual_cnn(seed: int = 5):
    """A residual conv net over 1x16x16 inputs with four biased MAC layers,
    calibrated on seeded data; returns the model and further inputs."""
    rng = np.random.default_rng(seed)

    def conv(name, cin, cout, stride=1):
        return LayerSpec(kind="conv2d", name=name, in_channels=cin, out_channels=cout,
                         kernel=3, stride=stride, padding=1,
                         weight=rng.normal(0.0, 1.0 / np.sqrt(9 * cin), (cout, cin, 3, 3)),
                         bias=rng.normal(0.0, 0.05, cout))

    model = ModelGraph(layers=[
        conv("conv1", 1, 8),
        LayerSpec(kind="relu_pact", name="act1"),
        conv("conv2", 8, 8),
        LayerSpec(kind="relu_pact", name="act2"),
        LayerSpec(kind="residual_add", name="res", source=1),
        LayerSpec(kind="avgpool", name="pool", pool=2),
        conv("conv3", 8, 16, stride=2),
        LayerSpec(kind="relu_pact", name="act3"),
        LayerSpec(kind="flatten", name="flat"),
        LayerSpec(kind="fc", name="head", in_features=256, out_features=4,
                  weight=rng.normal(0.0, 1.0 / 16, (4, 256)), bias=rng.normal(0.0, 0.05, 4)),
    ], input_shape=(1, 16, 16), master_bitwidth=8)
    x = rng.normal(0.0, 1.0, (40, 1, 16, 16))
    calibrate(model, [x[:16], x[16:32]])
    return model, x[32:]


@pytest.fixture
def saved_resnet(tmp_path):
    """The residual CNN saved to ``tmp_path/m`` and its inputs in ``tmp_path/x.nqtb``."""
    model, x = residual_cnn()
    blobio.save_model(model, tmp_path / "m")
    write_blob(tmp_path / "x.nqtb", x.astype(np.float32))
    return model, tmp_path / "m", tmp_path / "x.nqtb"


QUANTIZED_BLOBS = sorted(f"layer{i}_{t}_q.nqtb" for i in (0, 2, 6, 9) for t in ("weight", "bias"))


class TestRunLoader:
    """``load_model`` reads the quantized tensors only; calibration reads them all."""

    def test_reads_each_quantized_tensor_once_and_no_float(self, saved_resnet, monkeypatch):
        _, model_dir, _ = saved_resnet
        reads = []
        read = blobio.read_blob
        monkeypatch.setattr(blobio, "read_blob",
                            lambda path: reads.append(os.path.basename(path)) or read(path))
        loaded = blobio.load_model(model_dir)
        assert len(reads) == 8 and sorted(reads) == QUANTIZED_BLOBS
        assert all(l.weight is None and l.bias is None for l in loaded.layers)
        reads.clear()
        for_calibration = blobio.load_for_calibration(model_dir)
        assert len(reads) == 16 and len(set(reads)) == 16
        assert all(l.weight is not None for l in for_calibration.layers if l.has_weights)

    def test_uncalibrated_manifest_loads_its_floats(self, tmp_path):
        from nestq.models import build_toy_cnn
        blobio.save_model(build_toy_cnn(seed=11), tmp_path / "m")
        loaded = blobio.load_model(tmp_path / "m")
        assert all(l.weight is not None for l in loaded.layers if l.has_weights)
        assert not loaded.is_calibrated

    def test_runs_without_its_float_blobs(self, saved_resnet, tmp_path):
        model, model_dir, x_blob = saved_resnet
        x = read_blob(x_blob).astype(np.float64)

        def infer(out):
            return main(["infer", "--model", str(model_dir), "--input", str(x_blob),
                         "--policy", "fixed:8,4,6,3,5", "--out", str(tmp_path / out)])

        assert infer("with.txt") == EXIT_OK
        for blob in (model_dir / "blobs").iterdir():
            if not blob.stem.endswith("_q"):
                blob.unlink()
        assert sorted(p.name for p in (model_dir / "blobs").iterdir()) == QUANTIZED_BLOBS
        loaded = blobio.load_model(model_dir)
        for policy in (BitPolicy.uniform(8, 5), BitPolicy((8, 4, 6, 3, 5))):
            (want, want_trace), (got, got_trace) = forward(model, x, policy), \
                forward(loaded, x, policy)
            assert np.array_equal(got, want) and got_trace == want_trace
        assert infer("without.txt") == EXIT_OK
        assert same_report(tmp_path / "with.txt", tmp_path / "without.txt")
        assert main(["calibrate", "--model", str(model_dir),
                     "--data", str(x_blob)]) == EXIT_MANIFEST

    def test_a_model_loaded_to_run_is_not_saved(self, saved_resnet, tmp_path):
        _, model_dir, _ = saved_resnet
        with pytest.raises(ValueError, match="load_for_calibration") as exc:
            blobio.save_model(blobio.load_model(model_dir), tmp_path / "out")
        assert "'conv1'" in str(exc.value)
        assert not (tmp_path / "out").exists()
        # Read for calibration, it saves back byte for byte.
        blobio.save_model(blobio.load_for_calibration(model_dir), tmp_path / "again")
        saved = sorted(p.relative_to(model_dir) for p in model_dir.rglob("*") if p.is_file())
        assert saved == sorted(p.relative_to(tmp_path / "again")
                               for p in (tmp_path / "again").rglob("*") if p.is_file())
        for rel in saved:
            assert (model_dir / rel).read_bytes() == (tmp_path / "again" / rel).read_bytes()


class TestEachGridStoredOnce:
    """A manifest stores each grid once; a copy an older manifest carries is ignored."""

    def check_edit_ignored(self, model, path, edit, x, policies):
        from nestq.cost import cost_report
        from nestq.reference import fake_quant_forward
        doc = json.loads(path.read_text())
        edit(doc["layers"])
        path.write_text(json.dumps(doc))
        edited = blobio.load_model(path)
        for policy in policies:
            (want, want_trace), (got, got_trace) = forward(model, x, policy), \
                forward(edited, x, policy)
            assert np.array_equal(got, want) and got_trace == want_trace
            assert cost_report(edited, policy) == cost_report(model, policy)
            assert np.array_equal(fake_quant_forward(edited, x, policy),
                                  fake_quant_forward(model, x, policy))

    def test_input_grid_copy_ignored(self, tmp_path, mlp, blob_data):
        # fc2's input is fc1's zero-offset grid; a copy at offset -3 would
        # charge it the general MAC loop and move the oracle.
        def edit(layers):
            layers[2]["input_params"] = {**blobio._params_to_json(mlp.output_grid(1)),
                                         "offset": -3.0}
        self.check_edit_ignored(
            mlp, blobio.save_model(mlp, tmp_path / "m"), edit, blob_data[0][:20],
            [BitPolicy.uniform(8, 3), BitPolicy((8, 4, 6))])

    def test_pool_grid_copy_ignored(self, saved_resnet):
        model, model_dir, x_blob = saved_resnet
        assert model.layers[5].kind == "avgpool"

        def edit(layers):
            grid = layers[4]["output_params"]
            layers[5]["output_params"] = {**grid, "offset": grid["offset"] + 1.0}
        self.check_edit_ignored(
            model, model_dir / "manifest.json", edit, read_blob(x_blob).astype(np.float64),
            [BitPolicy.uniform(8, 5), BitPolicy((8, 4, 6, 3, 5))])

    def test_saved_manifest_stores_each_grid_once(self, tmp_path, mlp, cnn, make_block):
        from nestq.layers import POLICY_KINDS
        for k, model in enumerate((mlp, cnn, make_block(8), residual_cnn()[0])):
            doc = json.loads(blobio.save_model(model, tmp_path / str(k)).read_text())
            kinds = [entry["kind"] for entry in doc["layers"]]
            for entry, nxt in zip(doc["layers"], kinds[1:] + [None]):
                assert "input_params" not in entry
                # a clamp's producer is on the clamp's grid, stored as its alpha
                assert ("output_params" in entry) == (
                    entry["kind"] in POLICY_KINDS and nxt != "relu_pact")
                for attr in ("weight", "bias"):
                    assert (attr + "_params" in entry) == (attr + "_q" in entry)

    @pytest.mark.parametrize("arch", ["mlp", "cnn", "block"])
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_earlier_format_loads_as_the_fresh_save(self, tmp_path, blob_data, cnn_data,
                                                    make_block, arch, n):
        # As earlier versions wrote a model: int64 quantized blobs, each clamp's
        # producer with the clamp's grid stored, and a stale range grid on the
        # residual add before the block's second clamp.
        from nestq.models import build_toy_cnn
        if arch == "block":
            model, x = make_block(n), cnn_data[0][:20]
        elif arch == "cnn":
            model, x = calibrate(build_toy_cnn(seed=11, n=n), [cnn_data[0]]), cnn_data[0][:20]
        else:
            x = blob_data[0][:200]
            model = calibrate(build_toy_mlp(seed=7, n=n, means=blob_data[2]), [x])
        fresh = blobio.load_model(blobio.save_model(model, tmp_path / "fresh"))
        path = blobio.save_model(model, tmp_path / "old")
        doc = json.loads(path.read_text())
        for i, (entry, layer) in enumerate(zip(doc["layers"], model.layers)):
            for ref in (entry.get("weight_q"), entry.get("bias_q")):
                if ref is not None:
                    write_blob(path.parent / ref, read_blob(path.parent / ref).astype(np.int64))
            if layer.kind == "relu_pact":
                grid = blobio._params_to_json(model.layers[i - 1].output_params)
                if model.layers[i - 1].kind == "residual_add":
                    grid["offset"] = -1.5
                doc["layers"][i - 1]["output_params"] = grid
        path.write_text(json.dumps(doc))
        old = blobio.load_model(path)
        assert old.input_params == fresh.input_params == model.input_params
        for a, b, want in zip(old.layers, fresh.layers, model.layers):
            assert a.output_params == b.output_params == want.output_params
            for attr in ("weight_q", "bias_q"):
                ta, tb = getattr(a, attr), getattr(b, attr)
                assert (ta is None) == (tb is None) == (getattr(want, attr) is None)
                if tb is not None:
                    assert ta.params == tb.params and ta.data.dtype == tb.data.dtype
                    assert np.array_equal(ta.data, tb.data)
        size = model.num_policy_layers
        for policy in (BitPolicy.uniform(n, size),
                       BitPolicy(tuple(max(2, n // 2) if k % 2 else n for k in range(size)))):
            (want, want_trace), (got, got_trace) = forward(fresh, x, policy), \
                forward(old, x, policy)
            assert np.array_equal(got, want) and got_trace == want_trace

    def test_legacy_grid_copies_ignored(self, tmp_path, mlp, make_block, blob_data, cnn_data):
        from nestq.layers import POLICY_KINDS
        for model, x in ((mlp, blob_data[0][:5]), (make_block(8), cnn_data[0][:5])):
            path = blobio.save_model(model, tmp_path / str(len(model.layers)))
            doc = json.loads(path.read_text())
            # every grid as a manifest carried it before each was stored once
            for i, (entry, layer) in enumerate(zip(doc["layers"], model.layers)):
                entry["input_params"] = blobio._params_to_json(model.output_grid(i - 1))
                entry["output_params"] = blobio._params_to_json(model.output_grid(i))
                for attr in ("weight", "bias"):
                    t = getattr(layer, attr + "_q")
                    entry[attr + "_params"] = blobio._params_to_json(t and t.params)
            path.write_text(json.dumps(doc))
            loaded = blobio.load_model(path)
            assert all(l.output_params is None for l in loaded.layers
                       if l.kind not in POLICY_KINDS)
            policy = BitPolicy.uniform(8, model.num_policy_layers)
            (want, want_trace), (got, got_trace) = forward(model, x, policy), \
                forward(loaded, x, policy)
            assert np.array_equal(got, want) and got_trace == want_trace
