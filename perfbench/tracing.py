"""Spans recorded from outside nestq, around the calls into each layer.

nestq modules call each other's public functions through names bound at
import time (``layers`` binds ``dot_constants``, ``cli`` binds ``forward``,
and so on). ``Tracer.patched`` swaps those module attributes for timing
wrappers inside this process only and restores them on exit; nothing under
``src/`` changes. Spans live in flat in-memory arrays and are written out once,
at the end of a run.
"""

from __future__ import annotations

import contextlib
import os
from array import array
from collections import Counter
from importlib import import_module
from pathlib import Path
from time import perf_counter

import numpy as np

from nestq import blobio, calibration, cli, layers
from nestq.intops import AccumulatorOverflowError

# The package re-exports the quantize() function under the submodule's name.
quantize_mod = import_module("nestq.quantize")

SETUP, WORK = 0, 1


class Tracer:
    """In-memory span store: name, start, end, parent span, sample id, phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.sample = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.sample_id = -1
        self.current_phase = WORK
        self.counts: Counter = Counter()
        self.constant_keys: set = set()
        self.constant_calls = 0

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.sample.append(self.sample_id)
        self.phase.append(self.current_phase)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def wrap(self, name, fn, observe=None):
        """Timing wrapper around ``fn``; ``name`` may be a function of the args."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name(args) if callable(name) else name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except AccumulatorOverflowError:
                tracer.counts["intops.overflow_errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if observe is not None and tracer.current_phase == WORK:
                observe(args, kwargs, result)
            return result

        return traced

    # Counts taken at the same boundaries as the spans, in the work phase only.
    def _shift_seen(self, args, kwargs, result):
        q_n, n, b = args
        self.counts["quantize.shift_down.elems"] += int(np.size(q_n))
        self.counts["quantize.shift_down.noop"] += int(b == n)

    def _constants_seen(self, args, kwargs, result):
        self.constant_calls += 1
        self.constant_keys.add((result.role, args, tuple(sorted(kwargs.items()))))

    def _forward_seen(self, args, kwargs, result):
        model = args[0]
        _, trace = result
        self.counts["layers.samples"] += 1
        self.counts["layers.macs"] += sum(model.layers[r.index].mac_count()
                                          for r in trace.records)
        self.counts["layers.mults"] += trace.counters.mults
        self.counts["layers.adds"] += trace.counters.adds
        self.counts["layers.shifts"] += trace.counters.shifts

    def _report_seen(self, args, kwargs, result):
        path = Path(args[0])
        twin = path.with_suffix(path.suffix + ".json")
        self.counts["blobio.report_bytes"] += path.stat().st_size + twin.stat().st_size

    @contextlib.contextmanager
    def patched(self):
        """Route every public call between nestq modules through a span."""
        table = [
            (quantize_mod, "shift_down", "quantize.shift_down", self._shift_seen),
            (quantize_mod, "quantize", "quantize.quantize", None),
            (quantize_mod, "dequant_requant_reference", "quantize.roundtrip", None),
            (layers, "shift_down", "quantize.shift_down", self._shift_seen),
            (layers, "quantize", "quantize.quantize", None),
            (layers, "dot_constants", "intops.dot_constants", self._constants_seen),
            (layers, "add_constants", "intops.add_constants", self._constants_seen),
            (layers, "int_dot", "intops.int_dot", None),
            (layers, "int_dot_pact", "intops.int_dot_pact", None),
            (layers, "int_add", "intops.int_add", None),
            (layers, "run_layer", lambda a: "layers.run_layer." + a[0].kind, None),
            (layers, "forward", "layers.forward", self._forward_seen),
            (cli, "forward", "layers.forward", self._forward_seen),
            (cli, "calibrate", "calibration.calibrate", None),
            (cli, "parse_policy", "cli.parse_policy", None),
            (calibration, "calibrate", "calibration.calibrate", None),
            (calibration, "float_forward", "calibration.float_forward", None),
            (blobio, "load_model", "blobio.load_model", None),
            (blobio, "save_model", "blobio.save_model", None),
            (blobio, "read_blob", "blobio.read_blob", None),
            (blobio, "write_report", "blobio.write_report", self._report_seen),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
        try:
            for mod, attr, name, observe in table:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), observe))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def aggregate(self, phase: int) -> dict[str, tuple[int, float]]:
        """Per span name in one phase: (calls, self seconds).

        Self time is a span's duration minus the durations of its children.
        """
        if not len(self.name):
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        names = np.frombuffer(self.name, dtype=np.int32)
        mask = np.frombuffer(self.phase, dtype=np.int8) == phase
        calls = np.bincount(names[mask], minlength=len(self.names))
        secs = np.bincount(names[mask], weights=self_s[mask], minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def root_seconds(self, phase: int) -> float:
        """Summed duration of top-level spans: all time the spans account for."""
        if not len(self.name):
            return 0.0
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        mask = (np.frombuffer(self.parent, dtype=np.int32) < 0) \
            & (np.frombuffer(self.phase, dtype=np.int8) == phase)
        return float(dur[mask].sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     name=np.frombuffer(self.name, dtype=np.int32),
                     parent=np.frombuffer(self.parent, dtype=np.int32),
                     sample=np.frombuffer(self.sample, dtype=np.int32),
                     phase=np.frombuffer(self.phase, dtype=np.int8),
                     start=np.frombuffer(self.start, dtype=np.float64),
                     end=np.frombuffer(self.end, dtype=np.float64))
        os.replace(tmp, path)
