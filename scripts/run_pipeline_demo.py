#!/usr/bin/env python3
"""End-to-end demo: build a toy model, calibrate it, and compare the
integer pipeline's predictions against the float fake-quantization oracle
under several bit-width policies, each resolved from its `nestq infer
--policy` string. `policy_source` groups the samples by the policy they get,
and each group runs as one batch through both paths."""

import argparse

import numpy as np

from nestq.calibration import calibrate
from nestq.cli import policy_source
from nestq.layers import forward
from nestq.models import build_toy_mlp, make_blob_dataset
from nestq.reference import fake_quant_forward


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--candidates", default="2,4,6,8")
    args = ap.parse_args()

    x, labels, means = make_blob_dataset(args.seed, samples=args.samples)
    model = build_toy_mlp(seed=7, means=means)
    calibrate(model, [x[i:i + 100] for i in range(0, min(400, len(x)), 100)])
    policies = {
        "master (8,8,8)": "static:8",
        "mixed (8,4,8)": "fixed:8,4,8",
        "all-4": "static:4",
        "controller": f"controller:{args.candidates}",
    }

    print(f"{args.samples} samples, {model.num_policy_layers} policy layers")
    for name, source in policies.items():
        groups = policy_source(source, model, seed=args.seed)(x)
        agree = correct = shifted = 0
        for policy, members in groups.items():
            y, trace = forward(model, x[members], policy)
            oracle = fake_quant_forward(model, x[members], policy)
            agree += int(np.sum(np.argmax(y, axis=1) == np.argmax(oracle, axis=1)))
            correct += int(np.sum(np.argmax(y, axis=1) == labels[members]))
            shifted += trace.counters.shifts * len(members)  # the trace is per sample
        print(f"{name:>16}: oracle agreement {agree / len(x):6.1%}  "
              f"accuracy {correct / len(x):6.1%}  "
              f"shifts/sample {shifted / len(x):8.1f}  policies {len(groups)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
