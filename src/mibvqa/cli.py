"""Command-line interface: gen-data, train, eval, ablate.

Exit codes: 0 success, 2 usage error (argparse), 3 data or format error,
4 numerical divergence during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config_io import ConfigError, build_dataset_config, build_train_setup, read_config_file
from .data import (
    Dataset, DatasetFormatError, export_dataset, generate_dataset, import_dataset,
)
from .encoders import VocabularyError
from .training import (
    CheckpointError, DivergenceError, Metrics, TrainConfig, ablate, evaluate,
    load_checkpoint, model_config_for, save_checkpoint, train,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _metrics_text(metrics: Metrics, split: str) -> str:
    lines = [f"split {split}  samples {metrics.n_samples}"]
    lines.append(f"{'category':<16}{'accuracy':>10}")
    for cat, acc in metrics.per_category_accuracy.items():
        lines.append(f"{cat:<16}{acc:>10.4f}")
    lines.append(f"{'overall_accuracy':<16}{metrics.overall_accuracy:>10.4f}")
    lines.append(f"{'average_accuracy':<16}{metrics.average_accuracy:>10.4f}")
    return "\n".join(lines)


def _load_dataset(path) -> Dataset:
    if not os.path.exists(path):
        raise DatasetFormatError(f"dataset file not found: {path}")
    return import_dataset(path)


def _cmd_gen_data(args) -> int:
    kv = read_config_file(args.config) if args.config else {}
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = build_dataset_config(kv, overrides)
    dataset = generate_dataset(config)
    export_dataset(dataset, args.out)
    counts = {}
    for s in dataset.samples:
        counts[s.split] = counts.get(s.split, 0) + 1
    split_text = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"wrote {len(dataset.samples)} samples ({split_text}) to {args.out}")
    return EXIT_OK


def _build_train_config(args) -> tuple:
    kv = read_config_file(args.config) if args.config else {}
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.lam is not None:
        overrides["lam"] = args.lam
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.lr is not None:
        overrides["learning_rate"] = args.lr
    if args.no_cross_attention:
        overrides["enable_cross_attention"] = False
    if args.no_infomax:
        overrides["enable_infomax"] = False
    train_fields, widths = build_train_setup(kv, overrides)
    try:
        config = TrainConfig(**train_fields)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return config, widths


def _model_config(dataset: Dataset, train_config: TrainConfig, widths: dict):
    base = model_config_for(dataset, train_config)
    if widths:
        base = dataclasses.replace(base, **widths)
    return base


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data)
    config, widths = _build_train_config(args)
    mc = _model_config(dataset, config, widths)
    result = train(config, dataset, model_config=mc)
    for record in result.epoch_records:
        print(f"epoch {record['epoch']:>4}  ce {record['mean_ce']:.6f}  "
              f"final {record['mean_final']:.6f}")
    save_checkpoint(result.checkpoint, args.out)
    print(f"saved checkpoint to {args.out}")
    for split, metrics in result.checkpoint.metrics.items():
        print(f"{split}: OA {metrics['overall_accuracy']:.4f}  "
              f"AA {metrics['average_accuracy']:.4f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.ckpt)
    dataset = _load_dataset(args.data)
    metrics = evaluate(checkpoint, dataset, args.split)
    print(_metrics_text(metrics, args.split))
    if args.json_out:
        record = {"split": args.split, **metrics.to_dict()}
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(record, f, sort_keys=True, indent=2)
            f.write("\n")
        print(f"wrote metrics record to {args.json_out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    dataset = _load_dataset(args.data)
    config, widths = _build_train_config(args)
    mc = _model_config(dataset, config, widths)
    master = args.seed if args.seed is not None else config.seed
    result = ablate(dataset, config, master_seed=master, split=args.split,
                    model_config=mc)
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "ablation.txt")
    with open(table_path, "w", encoding="utf-8") as f:
        f.write(result.table)
    json_path = os.path.join(args.out, "ablation.json")
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(result.to_dict(), f, sort_keys=True, indent=2)
        f.write("\n")
    for name, checkpoint in result.checkpoints.items():
        save_checkpoint(checkpoint, os.path.join(args.out, f"{name}.ckpt"))
    print(result.table, end="")
    print(f"wrote {table_path}, {json_path}, and 4 checkpoints")
    return EXIT_OK


def _add_train_flags(parser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--no-cross-attention", action="store_true",
                        help="replace both attention blocks with masked mean pooling")
    parser.add_argument("--no-infomax", action="store_true",
                        help="drop the information-bottleneck loss and parameters")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="weight of the bottleneck loss term")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None,
                        help="Adam learning rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mibvqa",
        description="Desk-scale VQA with attention and an information bottleneck.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output dataset path (JSON lines)")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True, help="checkpoint path from train")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--split", default="test", help="split name (default: test)")
    p.add_argument("--json-out", default=None,
                   help="also write a machine-readable metrics record")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="train and tabulate the four flag variants")
    p.add_argument("--data", required=True, help="dataset path from gen-data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default="test", help="split to tabulate")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, CheckpointError, VocabularyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
