"""Training loop, evaluation metrics, ablation harness, checkpointing.

Determinism contract: (seed, config, dataset) pins the initial weights, the
shuffle order, the reparameterization noise, and therefore the entire loss
trajectory and all downstream metrics. The model is initialized from
SeedSequence([seed]) and the loop stream from SeedSequence([seed, 1]).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Adam, backward
from .data import (
    CATEGORIES, OBJECT_CLASSES, VOCABULARY, Dataset, query_tokens, scene_features,
)
from .encoders import ImageObjectFeatures, QueryTokens
from .model import ModelConfig, VQAModel


class DivergenceError(RuntimeError):
    """A loss term became non-finite during training."""

    def __init__(self, term: str, value: float, step: int):
        self.term = term
        self.value = value
        self.step = step
        super().__init__(
            f"non-finite loss term {term!r} ({value}) at optimizer step {step}")


class CheckpointError(ValueError):
    """A checkpoint file failed to parse or validate."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs plus the two architecture flags.

    The dataclass defaults mirror the reference protocol (150 epochs,
    batch 280, Adam at 1e-5). The desk() preset is the tuned recipe for
    the synthetic benchmark task, sized to converge in minutes on one core.
    """
    epochs: int = 150
    batch_size: int = 280
    learning_rate: float = 1e-5
    lam: float = 1.0
    seed: int = 42
    enable_cross_attention: bool = True
    enable_infomax: bool = True

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Recipe for the synthetic desk-scale task (minutes on one core)."""
        return cls(**{"epochs": 60, "batch_size": 32, "learning_rate": 5e-3,
                      **overrides})


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
    """Everything needed to rebuild and evaluate a trained model."""
    version: int
    seed: int
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

    features: matrix [N, t_max, d_raw] and object_mask [N, t_max];
    tokens: token_ids and token_mask [N, k_max]; labels: answer indices
    [N]; categories: question category per sample.
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
    samples = dataset.split(split)
    if not samples:
        raise ValueError(f"dataset has no samples in split {split!r}")
    return PreparedSplit(
        features=scene_features([s.scene for s in samples], dataset.config.t_max),
        tokens=query_tokens(samples, dataset.config.k_max),
        labels=np.array([s.answer_index for s in samples], dtype=np.int64),
        categories=tuple(s.category for s in samples))


def model_config_for(dataset: Dataset, train_config: TrainConfig,
                     base: Optional[ModelConfig] = None) -> ModelConfig:
    """Model widths for a dataset; architecture flags come from train_config."""
    if base is None:
        base = ModelConfig(t_max=dataset.config.t_max, k_max=dataset.config.k_max,
                           vocab_size=len(VOCABULARY),
                           d_raw=len(OBJECT_CLASSES) + 3,
                           n_classes=len(dataset.answer_space))
    return base.with_flags(train_config.enable_cross_attention,
                           train_config.enable_infomax)


def train(config: TrainConfig, dataset: Dataset,
          model_config: Optional[ModelConfig] = None,
          epoch_callback: Optional[Callable] = None) -> TrainResult:
    """Run the full optimization and return checkpoint plus loss history.

    The loop itself never stops early (no early stopping, no schedule);
    epoch_callback(epoch_index, model, epoch_record) may return True to make
    the surrounding harness cut the run short after a completed epoch.
    Raises DivergenceError as soon as any loss term goes non-finite.
    """
    mc = model_config_for(dataset, config, model_config)
    model = VQAModel(mc, seed=config.seed)
    samples = prepare_split(dataset, "train")
    loop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    lam = config.lam if config.enable_infomax else 0.0

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
            if mc.enable_infomax:
                noise_q = loop_rng.standard_normal((len(idx), mc.d_z))
                noise_h = loop_rng.standard_normal((len(idx), mc.d_z))
            else:
                noise_q = noise_h = None
            breakdown = model.loss_batch(features, tokens, labels, lam=lam,
                                         noise_q=noise_q, noise_h=noise_h)
            values = breakdown.values()
            for term, value in values.items():
                if not np.isfinite(value):
                    raise DivergenceError(term, value, optimizer.t + 1)
            optimizer.zero_grad()
            backward(breakdown.final)
            optimizer.step()
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

    metrics = {}
    for split in dataset.config.splits():
        m = evaluate_model(model, dataset, split)
        metrics[split] = m.to_dict()
    checkpoint = Checkpoint(
        version=1, seed=config.seed, model_config=mc, train_config=config,
        parameters={p.name: p.tensor.data.copy() for p in model.parameters()},
        step_count=optimizer.t, metrics=metrics,
        answers=dataset.answer_space.answers)
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


# Samples per forward graph in evaluation. A graph holds every activation
# of its samples at once, about 50 kB per sample, so one graph over a split
# raises peak memory with the split size; chunks of 32 to 128 evaluate at
# the same speed and keep the peak within a few MB.
EVAL_CHUNK = 64


def evaluate_model(model: VQAModel, dataset: Dataset, split: str) -> Metrics:
    """Deterministic evaluation: predictions come from logits alone.

    Categories configured for the dataset but absent from the split are
    omitted from AA with a warning.
    """
    samples = prepare_split(dataset, split)
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
    if checkpoint.answers != dataset.answer_space.answers:
        raise CheckpointError("checkpoint answer space does not match dataset")
    return evaluate_model(build_model(checkpoint), dataset, split)


def build_model(checkpoint: Checkpoint) -> VQAModel:
    """Instantiate the model and overwrite every parameter from the checkpoint."""
    model = VQAModel(checkpoint.model_config, seed=checkpoint.seed)
    params = model.parameter_map()
    if set(params) != set(checkpoint.parameters):
        extra = set(checkpoint.parameters) - set(params)
        missing = set(params) - set(checkpoint.parameters)
        raise CheckpointError(
            f"parameter names do not match config: extra={sorted(extra)}, "
            f"missing={sorted(missing)}")
    for name, array in checkpoint.parameters.items():
        if params[name].tensor.shape != array.shape:
            raise CheckpointError(
                f"shape mismatch for parameter {name!r}: config expects "
                f"{params[name].tensor.shape}, checkpoint has {array.shape}")
        params[name].tensor.data = array.copy()
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


def ablate(dataset: Dataset, base_config: TrainConfig,
           master_seed: Optional[int] = None, split: str = "test",
           model_config: Optional[ModelConfig] = None) -> AblationResult:
    """Train the four flag combinations and tabulate per-category, OA, AA.

    Variant i trains with seed master_seed + i, so the four runs are
    independently seeded yet fully reproducible from the master seed.
    """
    master = base_config.seed if master_seed is None else master_seed
    rows = []
    checkpoints = {}
    for index, (name, cross, infomax) in enumerate(ABLATION_VARIANTS):
        cfg = replace(base_config, seed=master + index,
                      enable_cross_attention=cross, enable_infomax=infomax)
        result = train(cfg, dataset, model_config=model_config)
        metrics = evaluate(result.checkpoint, dataset, split)
        rows.append({
            "name": name,
            "seed": cfg.seed,
            "enable_cross_attention": cross,
            "enable_infomax": infomax,
            "per_category_accuracy": dict(metrics.per_category_accuracy),
            "overall_accuracy": metrics.overall_accuracy,
            "average_accuracy": metrics.average_accuracy,
        })
        checkpoints[name] = result.checkpoint
    table = format_ablation_table(rows)
    return AblationResult(master_seed=master, rows=rows, table=table,
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
CKPT_VERSION = 1
FLOATS_PER_LINE = 8


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Plain-text format, bit-exact under round-trip.

    Header `ckpt v1 <seed> <n_params>` where n_params counts parameter
    tensors; `meta`/`config`/`metrics`/`answers` lines carry JSON payloads;
    each `tensor <name> <rank> <dims...>` line is followed by its values as
    whitespace-separated floats with 17 significant digits.
    """
    lines = [f"{CKPT_MAGIC} v{checkpoint.version} {checkpoint.seed} "
             f"{len(checkpoint.parameters)}"]
    lines.append(f"meta step_count {checkpoint.step_count}")
    lines.append("config model " + json.dumps(asdict(checkpoint.model_config),
                                              sort_keys=True))
    lines.append("config train " + json.dumps(asdict(checkpoint.train_config),
                                              sort_keys=True))
    lines.append("metrics " + json.dumps(checkpoint.metrics, sort_keys=True))
    lines.append("answers " + json.dumps(list(checkpoint.answers)))
    for name, array in checkpoint.parameters.items():
        dims = " ".join(str(d) for d in array.shape)
        lines.append(f"tensor {name} {array.ndim}{' ' + dims if dims else ''}")
        flat = array.ravel()
        for start in range(0, flat.size, FLOATS_PER_LINE):
            chunk = flat[start:start + FLOATS_PER_LINE]
            lines.append(" ".join(f"{x:.17g}" for x in chunk))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate; errors name the offending parameter."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(CKPT_MAGIC + " "):
        raise CheckpointError("not a checkpoint file (bad magic)")
    head = lines[0].split()
    if len(head) != 4:
        raise CheckpointError(f"malformed header line: {lines[0]!r}")
    if head[1] != f"v{CKPT_VERSION}":
        raise CheckpointError(f"unsupported checkpoint version {head[1]!r}")
    try:
        seed = int(head[2])
        n_tensors = int(head[3])
    except ValueError:
        raise CheckpointError(f"malformed header line: {lines[0]!r}") from None

    step_count = 0
    model_config = None
    train_config = None
    metrics: dict = {}
    answers: tuple = ()
    parameters: dict = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.startswith("meta step_count "):
            step_count = int(line.split()[-1])
            i += 1
        elif line.startswith("config model "):
            model_config = ModelConfig(**json.loads(line[len("config model "):]))
            i += 1
        elif line.startswith("config train "):
            train_config = TrainConfig(**json.loads(line[len("config train "):]))
            i += 1
        elif line.startswith("metrics "):
            metrics = json.loads(line[len("metrics "):])
            i += 1
        elif line.startswith("answers "):
            answers = tuple(json.loads(line[len("answers "):]))
            i += 1
        elif line.startswith("tensor "):
            fields = line.split()
            name = fields[1]
            try:
                rank = int(fields[2])
                dims = tuple(int(d) for d in fields[3:])
            except ValueError:
                raise CheckpointError(
                    f"malformed shape line for parameter {name!r}: {line!r}") from None
            if len(dims) != rank:
                raise CheckpointError(
                    f"shape line for parameter {name!r} declares rank {rank} "
                    f"but {len(dims)} dims")
            size = 1
            for d in dims:
                if d <= 0:
                    raise CheckpointError(
                        f"nonpositive dim in shape of parameter {name!r}")
                size *= d
            values: list = []
            i += 1
            while len(values) < size:
                if i >= len(lines):
                    raise CheckpointError(
                        f"truncated values for parameter {name!r}: expected "
                        f"{size}, found {len(values)}")
                for token in lines[i].split():
                    try:
                        values.append(float(token))
                    except ValueError:
                        raise CheckpointError(
                            f"malformed float {token!r} in parameter {name!r}") from None
                i += 1
            if len(values) != size:
                raise CheckpointError(
                    f"too many values for parameter {name!r}: expected {size}, "
                    f"found {len(values)}")
            parameters[name] = np.array(values).reshape(dims)
        elif not line.strip():
            i += 1
        else:
            raise CheckpointError(f"unrecognized line {i + 1}: {line!r}")
    if len(parameters) != n_tensors:
        raise CheckpointError(
            f"header declares {n_tensors} tensors, file has {len(parameters)}")
    if model_config is None or train_config is None:
        raise CheckpointError("checkpoint missing config lines")
    return Checkpoint(version=CKPT_VERSION, seed=seed, model_config=model_config,
                      train_config=train_config, parameters=parameters,
                      step_count=step_count, metrics=metrics, answers=answers)
