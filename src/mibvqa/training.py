"""Training loop, evaluation metrics, ablation harness, checkpointing.

Determinism contract: (seed, config, dataset) pins the initial weights, the
shuffle order, the reparameterization noise, and therefore the entire loss
trajectory and all downstream metrics. The model is initialized from
SeedSequence([seed]) and the loop stream from SeedSequence([seed, 1]): each
epoch draws its shuffle from it, and each step hands it to
VQAModel.loss_batch, which draws the bottleneck's noise. Evaluation reads
the bottleneck's mean and draws nothing.
"""

from __future__ import annotations

import base64
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Adam, NonFiniteGradientError, backward
from .data import (
    ANSWERS, CATEGORIES, Dataset, DatasetFormatError, check_field_types,
    check_keys, config_from_json, query_tokens, scene_features,
)
from .encoders import ImageObjectFeatures, QueryTokens
from .model import ModelConfig, VQAModel


class DivergenceError(RuntimeError):
    """A loss term or a gradient became non-finite during training.

    term names the loss term or, for a gradient, the parameter. Pickles
    with its fields, so it can cross a process boundary.
    """

    def __init__(self, term: str, value: float, step: int,
                 kind: str = "loss term"):
        self.term = term
        self.value = value
        self.step = step
        self.kind = kind
        super().__init__(
            f"non-finite {kind} {term!r} ({value}) at optimizer step {step}")

    def __reduce__(self):
        return type(self), (self.term, self.value, self.step, self.kind)


class CheckpointError(ValueError):
    """A checkpoint file failed to parse or validate."""


@dataclass(frozen=True)
class TrainConfig:
    """The optimization recipe; the architecture is the ModelConfig's.

    The defaults are the recipe that learns the synthetic benchmark task:
    trained with them, the full model passes 85% held-out overall accuracy
    on the default dataset within the 60 epochs (acceptance criterion 4).
    """
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 5e-3
    lam: float = 0.01
    seed: int = 42

    def __post_init__(self):
        check_field_types(self)
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # comparisons with nan are False, so each bound also rejects nan
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Alias of TrainConfig(**overrides); bench/workloads.py still calls it."""
        return cls(**overrides)


@dataclass(frozen=True)
class Metrics:
    """Accuracy summary of one split.

    per_category_accuracy maps question category to its accuracy; AA is the
    unweighted mean over the categories present; confusion is sparse
    true-answer-index -> predicted-answer-index -> count.
    """
    overall_accuracy: float
    average_accuracy: float
    per_category_accuracy: dict
    confusion: dict
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "average_accuracy": self.average_accuracy,
            "per_category_accuracy": dict(self.per_category_accuracy),
            "confusion": {str(t): {str(p): c for p, c in row.items()}
                          for t, row in self.confusion.items()},
            "n_samples": self.n_samples,
        }


@dataclass(frozen=True)
class Checkpoint:
    """Everything needed to rebuild and evaluate a trained model. The data
    format fixes its input and output sizes; answers echoes the answer
    space it was trained with."""
    model_config: ModelConfig
    train_config: TrainConfig
    parameters: dict                 # name -> np.ndarray, allocation order
    step_count: int
    metrics: dict                    # split -> Metrics.to_dict()
    answers: tuple                   # answer space echo


@dataclass(frozen=True)
class TrainResult:
    checkpoint: Checkpoint
    step_records: list               # per optimizer step: loss terms
    epoch_records: list              # per epoch: mean loss terms
    model: VQAModel


@dataclass(frozen=True)
class PreparedSplit:
    """One dataset split as model inputs, built once and reused every epoch.

    features: matrix [N, t, d_raw] and object_mask [N, t]; tokens:
    token_ids and token_mask [N, k]; labels: answer indices [N]; categories:
    question category per sample. t is the split's largest object count and
    k its longest question, so every slot is real in at least one sample.
    """
    features: ImageObjectFeatures
    tokens: QueryTokens
    labels: np.ndarray
    categories: tuple

    def __len__(self) -> int:
        return len(self.labels)

    def batch(self, idx) -> tuple:
        """(features, tokens, labels) of the samples at idx, an index array
        or a slice."""
        return (ImageObjectFeatures(self.features.matrix[idx],
                                    self.features.object_mask[idx]),
                QueryTokens(self.tokens.token_ids[idx], self.tokens.token_mask[idx]),
                self.labels[idx])


def prepare_split(dataset: Dataset, split: str) -> PreparedSplit:
    """The model inputs of one split, cut to its largest scene and longest
    question: padding is a suffix on both axes and the model reads t and k
    from the batch shape, so the cut changes shapes only."""
    samples = dataset.split(split)
    if not samples:
        raise DatasetFormatError(f"dataset has no samples in split {split!r}")
    scenes = [s.scene for s in samples]
    return PreparedSplit(
        features=scene_features(scenes, max(len(sc.objects) for sc in scenes)),
        tokens=query_tokens(samples, max(s.n_tokens for s in samples)),
        labels=np.fromiter((s.answer_index for s in samples), dtype=np.int64,
                           count=len(samples)),
        categories=tuple(s.category for s in samples))


def train(config: TrainConfig, dataset: Dataset,
          model_config: ModelConfig = ModelConfig(),
          epoch_callback: Optional[Callable] = None) -> TrainResult:
    """Run the full optimization and return checkpoint plus loss history.

    The loop itself never stops early (no early stopping, no schedule);
    epoch_callback(epoch_index, model, epoch_record) may return True to make
    the surrounding harness cut the run short after a completed epoch.
    Raises DivergenceError as soon as any loss term or gradient goes
    non-finite, before the optimizer step that would use it. Every split
    is prepared before the first step, so one without samples raises
    DatasetFormatError before any training.
    """
    prepared = {split: prepare_split(dataset, split)
                for split in dataset.config.splits()}
    model = VQAModel(model_config, seed=config.seed)
    samples = prepared["train"]
    loop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    optimizer = Adam(model.parameters(), lr=config.learning_rate)

    step_records: list = []
    epoch_records: list = []
    n = len(samples)
    for epoch in range(config.epochs):
        order = loop_rng.permutation(n)
        sums: dict = {}
        steps_this_epoch = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            features, tokens, labels = samples.batch(idx)
            breakdown = model.loss_batch(features, tokens, labels, config.lam,
                                         loop_rng)
            values = breakdown.values()
            for term, value in values.items():
                if not np.isfinite(value):
                    raise DivergenceError(term, value, optimizer.t + 1)
            optimizer.zero_grad()
            backward(breakdown.final)
            try:
                optimizer.step()
            except NonFiniteGradientError as e:
                raise DivergenceError(e.name, e.value, optimizer.t + 1,
                                      kind="gradient of parameter") from None
            record = {"epoch": epoch, "step": optimizer.t, **values}
            step_records.append(record)
            steps_this_epoch += 1
            for term, value in values.items():
                sums[term] = sums.get(term, 0.0) + value
        epoch_record = {"epoch": epoch,
                        **{f"mean_{t}": s / steps_this_epoch
                           for t, s in sums.items()}}
        epoch_records.append(epoch_record)
        if epoch_callback is not None and epoch_callback(epoch, model, epoch_record):
            break

    metrics = {split: _evaluate_prepared(model, split_samples, dataset, split).to_dict()
               for split, split_samples in prepared.items()}
    checkpoint = Checkpoint(
        model_config=model_config, train_config=config,
        parameters={name: p.data.copy() for name, p in model.parameters().items()},
        step_count=optimizer.t, metrics=metrics,
        answers=ANSWERS)
    return TrainResult(checkpoint=checkpoint, step_records=step_records,
                       epoch_records=epoch_records, model=model)


# ---------------------------------------------------------------------------
# evaluation


def compute_metrics(labels: Sequence[int], predictions: Sequence[int],
                    categories: Sequence[str]) -> Metrics:
    """Pure accuracy computation: OA pooled, AA unweighted over categories."""
    labels = list(labels)
    predictions = list(predictions)
    categories = list(categories)
    if not (len(labels) == len(predictions) == len(categories)) or not labels:
        raise ValueError("labels, predictions, categories must be equal nonempty")
    per_cat_total: dict = {}
    per_cat_correct: dict = {}
    confusion: dict = {}
    correct = 0
    for y, p, c in zip(labels, predictions, categories):
        per_cat_total[c] = per_cat_total.get(c, 0) + 1
        if y == p:
            correct += 1
            per_cat_correct[c] = per_cat_correct.get(c, 0) + 1
        confusion.setdefault(y, {})
        confusion[y][p] = confusion[y].get(p, 0) + 1
    per_category = {c: per_cat_correct.get(c, 0) / per_cat_total[c]
                    for c in sorted(per_cat_total)}
    oa = correct / len(labels)
    aa = sum(per_category.values()) / len(per_category)
    return Metrics(overall_accuracy=oa, average_accuracy=aa,
                   per_category_accuracy=per_category, confusion=confusion,
                   n_samples=len(labels))


# Samples per forward pass in evaluation. Prediction records no graph, but
# a pass still holds several [chunk * t, d] intermediates at once, so
# memory grows with the chunk. Median time of one pass over the 500-sample
# test split after one epoch of the default recipe (40 interleaved
# repetitions, 2-core x86-64, NumPy 2.4, one BLAS thread; the second row
# in a slower phase of the host):
#   chunk   32      64      128     256     512
#   ms      3.78    2.83    2.82    4.16    5.17
#   ms      6.29    4.73    4.30    6.33    6.77
# Past 128 a pass's intermediates no longer fit in the memory the allocator
# kept from the last pass, and every pass maps fresh pages: a pass over
# 2,000 samples takes no minor page fault at chunk 128, about 4,100 at 256
# and 4,800 at 512 (getrusage ru_minflt), and each fault costs more than
# the per-call overhead the larger chunk saves. The benchmark's eval_split
# peaks at 47.6 MB with 128.
EVAL_CHUNK = 128


def evaluate_model(model: VQAModel, dataset: Dataset, split: str) -> Metrics:
    """Deterministic evaluation: predictions come from logits alone.

    Categories configured for the dataset but absent from the split are
    omitted from AA with a warning.
    """
    return _evaluate_prepared(model, prepare_split(dataset, split), dataset, split)


def _evaluate_prepared(model: VQAModel, samples: PreparedSplit,
                       dataset: Dataset, split: str) -> Metrics:
    """evaluate_model on a split already prepared from dataset."""
    predictions = []
    for start in range(0, len(samples), EVAL_CHUNK):
        features, tokens, _ = samples.batch(slice(start, start + EVAL_CHUNK))
        predictions.extend(model.predict(features, tokens).tolist())
    categories = samples.categories
    expected = set(dataset.config.mix())
    present = set(categories)
    for missing in sorted(expected - present):
        warnings.warn(f"category {missing!r} absent from split {split!r}; "
                      f"omitted from average accuracy")
    return compute_metrics(samples.labels.tolist(), predictions, categories)


def evaluate(checkpoint: Checkpoint, dataset: Dataset, split: str) -> Metrics:
    """Evaluate a stored model on a dataset split."""
    if checkpoint.answers != ANSWERS:
        raise CheckpointError("checkpoint answer space does not match dataset")
    return evaluate_model(build_model(checkpoint), dataset, split)


def build_model(checkpoint: Checkpoint) -> VQAModel:
    """Instantiate the model and overwrite every parameter from the checkpoint."""
    model = VQAModel(checkpoint.model_config, seed=checkpoint.train_config.seed)
    params = model.parameters()
    if set(params) != set(checkpoint.parameters):
        extra = set(checkpoint.parameters) - set(params)
        missing = set(params) - set(checkpoint.parameters)
        raise CheckpointError(
            f"parameter names do not match config: extra={sorted(extra)}, "
            f"missing={sorted(missing)}")
    for name, array in checkpoint.parameters.items():
        if params[name].shape != array.shape:
            raise CheckpointError(
                f"shape mismatch for parameter {name!r}: config expects "
                f"{params[name].shape}, checkpoint has {array.shape}")
        params[name].data = array.copy()
    return model


# ---------------------------------------------------------------------------
# ablation


ABLATION_VARIANTS = (
    ("baseline", False, False),
    ("cross-attention", True, False),
    ("infomax", False, True),
    ("cross-attention+infomax", True, True),
)


@dataclass(frozen=True)
class AblationResult:
    master_seed: int
    rows: list            # one dict per variant
    table: str            # formatted text, byte-stable for a given input
    checkpoints: dict     # variant name -> Checkpoint

    def to_dict(self) -> dict:
        return {"master_seed": self.master_seed, "variants": self.rows}


def ablate(dataset: Dataset, base_config: TrainConfig, split: str = "test",
           model_config: ModelConfig = ModelConfig()) -> AblationResult:
    """Train the four flag combinations and tabulate per-category, OA, AA.

    Each variant is model_config with its two flags set. Variant i trains
    with seed base_config.seed + i, so the four runs are independently
    seeded yet fully reproducible from that master seed. Each row is the
    metrics train() computed on split.
    """
    if split not in dataset.config.splits():
        raise DatasetFormatError(
            f"dataset has no split {split!r} "
            f"(splits: {', '.join(dataset.config.splits())})")
    rows = []
    checkpoints = {}
    for index, (name, cross, infomax) in enumerate(ABLATION_VARIANTS):
        cfg = replace(base_config, seed=base_config.seed + index)
        mc = replace(model_config, enable_cross_attention=cross,
                     enable_infomax=infomax)
        result = train(cfg, dataset, model_config=mc)
        metrics = result.checkpoint.metrics[split]
        rows.append({
            "name": name,
            "seed": cfg.seed,
            "enable_cross_attention": cross,
            "enable_infomax": infomax,
            "per_category_accuracy": dict(metrics["per_category_accuracy"]),
            "overall_accuracy": metrics["overall_accuracy"],
            "average_accuracy": metrics["average_accuracy"],
        })
        checkpoints[name] = result.checkpoint
    table = format_ablation_table(rows)
    return AblationResult(master_seed=base_config.seed, rows=rows, table=table,
                          checkpoints=checkpoints)


def format_ablation_table(rows: list) -> str:
    """Fixed-width text table: variant, per-category accuracies, OA, AA."""
    categories = sorted({c for r in rows for c in r["per_category_accuracy"]},
                        key=lambda c: CATEGORIES.index(c) if c in CATEGORIES else 99)
    name_w = max(len("variant"), max(len(r["name"]) for r in rows))
    headers = ["variant".ljust(name_w)] + [f"{c:>12}" for c in categories]
    headers += [f"{'OA':>8}", f"{'AA':>8}"]
    lines = ["  ".join(headers)]
    for r in rows:
        cells = [r["name"].ljust(name_w)]
        for c in categories:
            acc = r["per_category_accuracy"].get(c)
            cells.append(f"{acc:>12.4f}" if acc is not None else f"{'-':>12}")
        cells.append(f"{r['overall_accuracy']:>8.4f}")
        cells.append(f"{r['average_accuracy']:>8.4f}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkpoint persistence


CKPT_MAGIC = "ckpt"
CKPT_VERSION = 6
CKPT_DTYPE = "<f8"


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Plain-text format, bit-exact under round-trip.

    Header `ckpt v6 <n_tensors>`: the count of parameter tensors.
    `meta`/`config`/`metrics`/`answers` lines carry JSON payloads (`config
    model` holds the ModelConfig: seven widths and two flags; `config train`
    the recipe, seed included); each `tensor <name> <dims...>` line (no dims
    for a scalar) is followed by exactly one line, the base64 of the
    tensor's little-endian float64 bytes in C order.
    """
    lines = [f"{CKPT_MAGIC} v{CKPT_VERSION} {len(checkpoint.parameters)}"]
    lines.append(f"meta step_count {checkpoint.step_count}")
    lines.append("config model " + json.dumps(asdict(checkpoint.model_config),
                                              sort_keys=True))
    lines.append("config train " + json.dumps(asdict(checkpoint.train_config),
                                              sort_keys=True))
    lines.append("metrics " + json.dumps(checkpoint.metrics, sort_keys=True))
    lines.append("answers " + json.dumps(list(checkpoint.answers)))
    for name, array in checkpoint.parameters.items():
        lines.append(" ".join(["tensor", name, *map(str, array.shape)]))
        raw = np.ascontiguousarray(array, dtype=CKPT_DTYPE).tobytes()
        lines.append(base64.b64encode(raw).decode("ascii"))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _step_count(payload: str) -> int:
    step_count = int(payload)
    if step_count < 0:
        raise ValueError(f"negative step count {step_count}")
    return step_count


def _metrics(payload: str) -> dict:
    """Each split's Metrics.to_dict(): exactly the Metrics fields."""
    metrics = json.loads(payload)
    if not isinstance(metrics, dict):
        raise ValueError("expected an object mapping splits to objects")
    names = [f.name for f in fields(Metrics)]
    for split, split_metrics in metrics.items():
        check_keys(split_metrics, names, f"metrics of split {split!r}")
    return metrics


# The lines save_checkpoint writes after the header, in order: prefix, parser.
_CKPT_LINES = (
    ("meta step_count ", _step_count),
    ("config model ", lambda p: config_from_json(ModelConfig, json.loads(p))),
    ("config train ", lambda p: config_from_json(TrainConfig, json.loads(p))),
    ("metrics ", _metrics),
    ("answers ", lambda p: tuple(json.loads(p))),
)


def _parse_line(lines: list, index: int, prefix: str, parse: Callable):
    """parse(the text after prefix on lines[index]); a missing line, another
    prefix or a payload parse rejects (bad number, bad JSON, missing or
    unknown config key, out-of-range value) is a CheckpointError naming the
    line."""
    if index == len(lines) or not lines[index].startswith(prefix):
        found = repr(lines[index][:60]) if index < len(lines) else "the end of the file"
        raise CheckpointError(f"line {index + 1} should be the {prefix.strip()!r} "
                              f"line, found {found}")
    try:
        return parse(lines[index][len(prefix):])
    except (TypeError, ValueError) as e:
        raise CheckpointError(
            f"malformed {prefix.strip()!r} payload on line {index + 1}: {e}") from None


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate in the order save_checkpoint writes; errors name
    the offending parameter or line. The version is checked first, so a
    file of another version fails with its version whatever its layout."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise CheckpointError(f"checkpoint file {path} is not UTF-8 text") from None
    if not lines or not lines[0].startswith(CKPT_MAGIC + " "):
        raise CheckpointError("not a checkpoint file (bad magic)")
    head = lines[0].split()
    version = head[1] if len(head) > 1 else ""
    if version != f"v{CKPT_VERSION}":
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    try:
        (n_tensors,) = (int(field) for field in head[2:])
    except ValueError:  # not one integer after the version
        raise CheckpointError(f"malformed header line: {lines[0]!r}") from None
    if n_tensors < 0:
        raise CheckpointError(f"negative tensor count in header line: {lines[0]!r}")

    step_count, model_config, train_config, metrics, answers = (
        _parse_line(lines, index, prefix, parse)
        for index, (prefix, parse) in enumerate(_CKPT_LINES, start=1))
    parameters: dict = {}
    end = len(_CKPT_LINES) + 1 + 2 * n_tensors
    for index in range(len(_CKPT_LINES) + 1, end, 2):
        tokens = _parse_line(lines, index, "tensor ", str.split)
        name = tokens[0] if tokens else ""
        if name in parameters:
            raise CheckpointError(f"parameter {name!r} repeated on line {index + 1}")
        try:
            dims = tuple(int(d) for d in tokens[1:])
        except ValueError:
            raise CheckpointError(
                f"malformed shape line for parameter {name!r}: {lines[index]!r}") from None
        if any(d <= 0 for d in dims):
            raise CheckpointError(f"nonpositive dim in shape of parameter {name!r}")
        if index + 1 == len(lines):
            raise CheckpointError(f"truncated file: no values line for parameter {name!r}")
        try:
            raw = base64.b64decode(lines[index + 1], validate=True)
        except ValueError as e:
            raise CheckpointError(
                f"malformed values line for parameter {name!r}: {e}") from None
        size = math.prod(dims)
        if len(raw) != 8 * size:
            raise CheckpointError(
                f"values line for parameter {name!r} holds {len(raw)} bytes, "
                f"expected {8 * size} ({size} float64 values)")
        values = np.frombuffer(raw, dtype=CKPT_DTYPE).reshape(dims)
        if not np.isfinite(values).all():
            raise CheckpointError(f"non-finite value in parameter {name!r}")
        parameters[name] = values.astype(np.float64)  # a native, writable copy
    if len(lines) > end:
        raise CheckpointError(f"line {end + 1} follows the header's last tensor: "
                              f"{lines[end][:60]!r}")
    return Checkpoint(model_config=model_config,
                      train_config=train_config, parameters=parameters,
                      step_count=step_count, metrics=metrics, answers=answers)
