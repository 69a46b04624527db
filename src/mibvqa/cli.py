"""Command-line interface: gen-data, train, eval, ablate.

Exit codes: 0 success, 2 usage error (argparse), 3 data or format error
(out of memory included), 4 numerical divergence during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config_io import ConfigError, build_dataset_config, build_train_setup, read_config_file
from .data import DatasetFormatError, export_dataset, generate_dataset, import_dataset
from .training import (
    ABLATION_VARIANTS, CheckpointError, DivergenceError, Metrics, ablate, evaluate,
    load_checkpoint, save_checkpoint, train,
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


# The flags that name a command's input files.
INPUT_FLAGS = ("data", "ckpt", "config")


def _same_file(path, other) -> bool:
    """Whether both paths exist and name one file."""
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


def _check_not_an_input(path, args) -> None:
    """Raise OSError if path is one of the command's input files, which
    writing it would overwrite."""
    for flag in INPUT_FLAGS:
        source = getattr(args, flag, None)
        if source is not None and _same_file(path, source):
            raise OSError(f"output path {path!r} is the --{flag} input {source!r}")


def _check_output_file(path, args) -> None:
    """Raise OSError unless a file can be written at path: its directory
    exists and is writable, path is not a directory, and it is none of the
    command's input files."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise OSError(f"output path {path!r} names a directory, not a file")
    _check_not_an_input(path, args)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise OSError(f"output directory {parent} does not exist "
                      f"or is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise OSError(f"output directory {parent} is not writable")


def _check_output_dir(path) -> None:
    """Raise OSError unless os.makedirs(path) can make or reuse a directory
    there: the nearest existing path at or above it is a writable directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise OSError(f"output path {path} is not under a directory: "
                      f"{existing} is a file")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(f"output directory {existing} is not writable")


def _cmd_gen_data(args) -> int:
    _check_output_file(args.out, args)
    kv = read_config_file(args.config) if args.config else {}
    config = build_dataset_config(kv, vars(args))
    dataset = generate_dataset(config)
    export_dataset(dataset, args.out)
    counts = {}
    for s in dataset.samples:
        counts[s.split] = counts.get(s.split, 0) + 1
    split_text = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"wrote {len(dataset.samples)} samples ({split_text}) to {args.out}")
    return EXIT_OK


# The ModelConfig fields ablate sets per variant, so it takes neither as
# a flag nor as a config key.
ABLATION_FLAGS = ("enable_cross_attention", "enable_infomax")


def _train_setup(args, fixed=()) -> tuple:
    """(TrainConfig, ModelConfig) from --config and the flags that override
    it; a config key among fixed, which the command sets per variant, fails."""
    kv = read_config_file(args.config) if args.config else {}
    given = [key for key in fixed if key in kv]
    if given:
        raise ConfigError(f"{args.command} sets {', '.join(given)} per variant; "
                          f"remove it from the config file {args.config}")
    return build_train_setup(kv, vars(args))


def _print_epoch(epoch: int, model, record: dict) -> None:
    """train's epoch_callback: one line per epoch, printed as it ends, with
    every mean loss term of the epoch record."""
    terms = "  ".join(f"{key[len('mean_'):]} {value:.6f}"
                      for key, value in record.items() if key.startswith("mean_"))
    print(f"epoch {epoch:>4}  {terms}", flush=True)


def _cmd_train(args) -> int:
    _check_output_file(args.out, args)
    config, mc = _train_setup(args)
    dataset = import_dataset(args.data)
    result = train(config, dataset, model_config=mc, epoch_callback=_print_epoch)
    save_checkpoint(result.checkpoint, args.out)
    print(f"saved checkpoint to {args.out}")
    for split, metrics in result.checkpoint.metrics.items():
        print(f"{split}: OA {metrics['overall_accuracy']:.4f}  "
              f"AA {metrics['average_accuracy']:.4f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.json_out:
        _check_output_file(args.json_out, args)
    checkpoint = load_checkpoint(args.ckpt)
    dataset = import_dataset(args.data)
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
    _check_output_dir(args.out)
    table_path = os.path.join(args.out, "ablation.txt")
    json_path = os.path.join(args.out, "ablation.json")
    ckpt_paths = {name: os.path.join(args.out, f"{name}.ckpt")
                  for name, _, _ in ABLATION_VARIANTS}
    for path in (table_path, json_path, *ckpt_paths.values()):
        _check_not_an_input(path, args)
    config, mc = _train_setup(args, fixed=ABLATION_FLAGS)
    dataset = import_dataset(args.data)
    result = ablate(dataset, config, split=args.split, model_config=mc)
    os.makedirs(args.out, exist_ok=True)
    with open(table_path, "w", encoding="utf-8") as f:
        f.write(result.table)
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(result.to_dict(), f, sort_keys=True, indent=2)
        f.write("\n")
    for name, checkpoint in result.checkpoints.items():
        save_checkpoint(checkpoint, ckpt_paths[name])
    print(result.table, end="")
    print(f"wrote {table_path}, {json_path}, and 4 checkpoints")
    return EXIT_OK


def _add_train_flags(parser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="the bottleneck's beta: weight of the KL between "
                             "its latent and the standard normal prior")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                        default=None, help="Adam learning rate")


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
    p.add_argument("--no-cross-attention", dest="enable_cross_attention",
                   action="store_false", default=None,
                   help="replace both attention blocks with masked mean pooling")
    p.add_argument("--no-infomax", dest="enable_infomax",
                   action="store_false", default=None,
                   help="drop the information bottleneck: the classifier "
                        "reads the fused vector, and the loss is the "
                        "cross-entropy alone")
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
    except (ConfigError, DatasetFormatError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
