#!/usr/bin/env python3
"""Reproduce the component ablation: four flag variants on the default task.

Trains baseline (mean pooling, no bottleneck), cross-attention only,
bottleneck only, and the full model with the default training recipe —
variant i seeded master + i — then tabulates per-category accuracy, overall
accuracy, and average accuracy on the held-out split.  Artifacts (all via
the standard CLI):

    <out>/dataset.jsonl               the shared dataset
    <out>/ablation.txt                fixed-width results table
    <out>/ablation.json               the same rows, machine-readable
    <out>/<variant>.ckpt              one checkpoint per variant

Reruns with the same master seed reproduce every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import os

from mibvqa.cli import main


def run() -> int:
    parser = argparse.ArgumentParser(
        description="four-variant ablation on the default dataset")
    parser.add_argument("--out", default="runs/ablation",
                        help="output directory (default: runs/ablation)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the training default)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the default epoch budget (for quick runs)")
    parser.add_argument("--data", default=None,
                        help="reuse an existing dataset file instead of "
                             "generating one")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    if args.data is None:
        data_path = os.path.join(args.out, "dataset.jsonl")
        code = main(["gen-data", "--out", data_path])
        if code:
            return code
    else:
        data_path = args.data

    argv = ["ablate", "--data", data_path, "--out", args.out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.epochs is not None:
        argv += ["--epochs", str(args.epochs)]
    return main(argv)


if __name__ == "__main__":
    raise SystemExit(run())
