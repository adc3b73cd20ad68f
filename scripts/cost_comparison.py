#!/usr/bin/env python3
"""Compare the transition cost of the shift pipeline against the conventional
dequantize/requantize pipeline over a sweep of bit-width policies."""

import argparse
import itertools

from nestq.calibration import calibrate
from nestq.cost import cost_report, cycle_estimate
from nestq.layers import BitPolicy
from nestq.models import build_toy_cnn, build_toy_mlp, cnn_dataset, make_blob_dataset


def build(arch: str):
    if arch == "mlp":
        x, _, means = make_blob_dataset(3, samples=400)
        model = build_toy_mlp(seed=7, means=means)
        calibrate(model, [x[i:i + 100] for i in range(0, 400, 100)])
    else:
        x, _ = cnn_dataset(5, samples=100)
        model = build_toy_cnn(seed=11)
        calibrate(model, [x[i:i + 25] for i in range(0, 100, 25)])
    return model


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--arch", choices=("mlp", "cnn"), default="mlp")
    ap.add_argument("--candidates", default="4,8")
    args = ap.parse_args()

    model = build(args.arch)
    cands = tuple(int(b) for b in args.candidates.split(","))
    header = f"{'policy':>14} {'bitops':>10} {'elements':>9} " \
             f"{'shift cyc':>10} {'float cyc (lo..hi)':>22}"
    print(header)
    print("-" * len(header))
    for bits in itertools.product(cands, repeat=model.num_policy_layers):
        policy = BitPolicy(bits)
        dqt = cost_report(model, policy, "dqt")
        std = cost_report(model, policy, "standard")
        lo, hi = cycle_estimate(std)
        print(f"{str(bits):>14} {dqt.bitops:>10} {dqt.transition_elements:>9} "
              f"{dqt.cycle_low:>10} {lo:>10} .. {hi}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
