"""Deterministic synthetic grid-scene VQA dataset.

A scene is a symbolic list of objects (class, grid cell, size) on a small
grid; questions are templated token sequences over a fixed vocabulary with
question categories count / presence / comparison / rural_urban / area.
Sample i is a pure function of (seed, i), so generation is reproducible
and order-independent; categories and split tags are interleaved by a
Webster/Sainte-Lague apportionment schedule so every split carries every
category in the configured proportions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoders import EmbeddingConfig, ImageObjectFeatures, QueryTokens
from .fusion import AnswerSpace


class TemplateError(ValueError):
    """A template emitted an invalid token sequence."""


class DatasetFormatError(ValueError):
    """A dataset file failed to parse or validate."""


OBJECT_CLASSES = ("building", "road", "water", "tree", "field")
SIZES = ("small", "large")
SIZE_FEATURE = {"small": 0.5, "large": 1.0}
# size-weighted footprint in grid cells, used by area questions
SIZE_CELLS = {"small": 1, "large": 4}

# Quartile edges of the size-weighted class-area distribution under the
# default generator (10 objects, uniform classes, 50/50 sizes): quantiles
# at 0.25/0.5/0.75 fall at 2, 5 and 8 cells, giving bins with probability
# 0.24 / 0.24 / 0.25 / 0.27. Frozen for reproducibility.
AREA_BIN_EDGES = (2, 5, 8)
AREA_BIN_LABELS = ("0-1", "2-4", "5-7", "8+")

COUNT_LABELS = tuple(str(i) for i in range(10)) + ("10+",)

CATEGORIES = ("count", "presence", "comparison", "rural_urban", "area")

PAD_TOKEN = "<pad>"
VOCABULARY = (
    PAD_TOKEN,
    "how", "many", "objects", "are", "in", "the", "scene",
    "is", "there", "any", "a", "more", "than", "this", "area",
    "rural", "or", "urban", "what", "total", "of",
    "small", "large",
    "building", "road", "water", "tree", "field",
)
TOKEN_IDS = {w: i for i, w in enumerate(VOCABULARY)}


def build_answer_space() -> AnswerSpace:
    """Single answer space covering all five categories."""
    answers = ("no", "yes") + COUNT_LABELS + ("rural", "urban") + AREA_BIN_LABELS
    per_category = {
        "count": COUNT_LABELS,
        "presence": ("no", "yes"),
        "comparison": ("no", "yes"),
        "rural_urban": ("rural", "urban"),
        "area": AREA_BIN_LABELS,
    }
    return AnswerSpace(answers=answers, category_answers=per_category)


@dataclass(frozen=True)
class SceneObject:
    cls: str
    row: int
    col: int
    size: str


@dataclass(frozen=True)
class Scene:
    """Symbolic grid scene; zone_label is derived from building density."""
    grid_size: int
    objects: tuple
    zone_label: str


def zone_of(objects: Iterable[SceneObject], urban_threshold: int) -> str:
    buildings = sum(1 for o in objects if o.cls == "building")
    return "urban" if buildings >= urban_threshold else "rural"


def count_class(scene: Scene, cls: str, size: str | None = None) -> int:
    return sum(1 for o in scene.objects
               if o.cls == cls and (size is None or o.size == size))


def class_area(scene: Scene, cls: str) -> int:
    return sum(SIZE_CELLS[o.size] for o in scene.objects if o.cls == cls)


def count_label(n: int) -> str:
    return COUNT_LABELS[n] if n < 10 else "10+"


def area_label(cells: int) -> str:
    for edge, label in zip(AREA_BIN_EDGES, AREA_BIN_LABELS):
        if cells < edge:
            return label
    return AREA_BIN_LABELS[-1]


# ---------------------------------------------------------------------------
# question templates


@dataclass(frozen=True)
class QueryTemplate:
    """Token pattern with named slots plus the ground-truth answer rule."""
    template_id: int
    category: str
    pattern: tuple
    slot_names: tuple

    def render(self, slots: tuple) -> tuple:
        values = dict(zip(self.slot_names, slots))
        return tuple(values.get(tok[1:-1], tok) if tok.startswith("{") else tok
                     for tok in self.pattern)


TEMPLATES = {
    0: QueryTemplate(0, "count",
                     ("how", "many", "{cls}", "objects", "are", "in", "the", "scene"),
                     ("cls",)),
    1: QueryTemplate(1, "presence",
                     ("is", "there", "any", "{cls}", "in", "the", "scene"),
                     ("cls",)),
    2: QueryTemplate(2, "presence",
                     ("is", "there", "a", "{size}", "{cls}", "in", "the", "scene"),
                     ("size", "cls")),
    3: QueryTemplate(3, "comparison",
                     ("are", "there", "more", "{cls_a}", "objects", "than",
                      "{cls_b}", "objects"),
                     ("cls_a", "cls_b")),
    4: QueryTemplate(4, "rural_urban",
                     ("is", "this", "area", "rural", "or", "urban"),
                     ()),
    5: QueryTemplate(5, "area",
                     ("what", "is", "the", "total", "area", "of", "{cls}"),
                     ("cls",)),
}


def answer_oracle(scene: Scene, template: QueryTemplate, slots: tuple) -> str:
    """Ground-truth answer string for a rendered question about a scene.

    Comparison uses strict "more than" semantics: ties answer "no".
    """
    values = dict(zip(template.slot_names, slots))
    if template.category == "count":
        return count_label(count_class(scene, values["cls"]))
    if template.category == "presence":
        size = values.get("size")
        return "yes" if count_class(scene, values["cls"], size) > 0 else "no"
    if template.category == "comparison":
        more = count_class(scene, values["cls_a"]) > count_class(scene, values["cls_b"])
        return "yes" if more else "no"
    if template.category == "rural_urban":
        return scene.zone_label
    if template.category == "area":
        return area_label(class_area(scene, values["cls"]))
    raise TemplateError(f"unknown category {template.category!r}")


# ---------------------------------------------------------------------------
# configuration and samples


VARIANT_CATEGORIES = {
    "lr_like": ("count", "presence", "comparison", "rural_urban"),
    "hr_like": ("count", "presence", "comparison", "area"),
}


@dataclass(frozen=True)
class DatasetConfig:
    """Generator knobs. The defaults are the desk-scale benchmark task.

    Object count is fixed (min == max) by default: with a known total,
    absolute class counts are decodable from convex attention pooling,
    which keeps count / rural_urban questions learnable by design.
    """
    n_samples: int = 2500
    grid_size: int = 8
    t_max: int = 16
    k_max: int = 12
    seed: int = 42
    variant: str = "lr_like"
    min_objects: int = 10
    max_objects: int = 10
    urban_threshold: int = 3
    train_fraction: float = 0.8
    test_fraction: float = 0.2
    test2_fraction: float = 0.0
    category_mix: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.variant not in VARIANT_CATEGORIES:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 1 <= self.min_objects <= self.max_objects <= self.t_max:
            raise ValueError("need 1 <= min_objects <= max_objects <= t_max")
        if self.max_objects > self.grid_size * self.grid_size:
            raise ValueError("more objects than grid cells")
        fr = self.train_fraction + self.test_fraction + self.test2_fraction
        if abs(fr - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {fr}, expected 1")
        mix = self.mix()
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise ValueError(f"category mix sums to {sum(mix.values())}, expected 1")
        for cat in mix:
            if cat not in VARIANT_CATEGORIES[self.variant]:
                raise ValueError(f"category {cat!r} not in variant {self.variant!r}")

    def mix(self) -> dict:
        if self.category_mix:
            return dict(self.category_mix)
        cats = VARIANT_CATEGORIES[self.variant]
        return {c: 1.0 / len(cats) for c in cats}

    def splits(self) -> dict:
        out = {"train": self.train_fraction, "test": self.test_fraction}
        if self.test2_fraction > 0:
            out["test2"] = self.test2_fraction
        return out

    def embedding_config(self, d_h: int = 32, d_q: int = 32) -> EmbeddingConfig:
        return EmbeddingConfig(d_h=d_h, d_q=d_q, t_max=self.t_max, k_max=self.k_max,
                               vocab_size=len(VOCABULARY),
                               d_raw=len(OBJECT_CLASSES) + 3)


@dataclass(frozen=True)
class VQASample:
    scene: Scene
    category: str
    template_id: int
    slots: tuple
    token_ids: tuple
    n_tokens: int
    answer_index: int
    split: str


@dataclass(frozen=True)
class Dataset:
    config: DatasetConfig
    samples: tuple
    answer_space: AnswerSpace = field(default_factory=build_answer_space)

    def split(self, name: str) -> tuple:
        return tuple(s for s in self.samples if s.split == name)


def scene_features(scenes: Sequence[Scene], t_max: int) -> ImageObjectFeatures:
    """Raw descriptor rows of a batch of scenes, filled into one preallocated
    [B, t_max, d_raw] array: one-hot class, x, y in [0,1], size in (0,1]."""
    n_cls = len(OBJECT_CLASSES)
    mat = np.zeros((len(scenes), t_max, n_cls + 3))
    for i, scene in enumerate(scenes):
        denom = max(scene.grid_size - 1, 1)
        for j, obj in enumerate(scene.objects):
            mat[i, j, OBJECT_CLASSES.index(obj.cls)] = 1.0
            mat[i, j, n_cls:] = (obj.col / denom, obj.row / denom,
                                 SIZE_FEATURE[obj.size])
    counts = np.array([len(scene.objects) for scene in scenes])
    mask = np.arange(t_max) < counts.reshape(-1, 1)
    return ImageObjectFeatures(matrix=mat, object_mask=mask)


def query_tokens(samples: Sequence[VQASample], k_max: int) -> QueryTokens:
    """Token ids [B, k_max] of a batch of samples and the mask of their real
    (non-padding) prefix."""
    ids = np.array([s.token_ids for s in samples], dtype=np.int64)
    n_tokens = np.array([s.n_tokens for s in samples])
    mask = np.arange(k_max) < n_tokens.reshape(-1, 1)
    return QueryTokens(token_ids=ids, token_mask=mask)


def tokenize(words: tuple, k_max: int) -> tuple:
    """Map words to padded id tuple; raises TemplateError if too long."""
    if len(words) > k_max:
        raise TemplateError(f"question of {len(words)} tokens exceeds k_max={k_max}")
    try:
        ids = [TOKEN_IDS[w] for w in words]
    except KeyError as e:
        raise TemplateError(f"word {e.args[0]!r} not in vocabulary") from None
    ids += [TOKEN_IDS[PAD_TOKEN]] * (k_max - len(words))
    return tuple(ids), len(words)


# ---------------------------------------------------------------------------
# generation


def apportion(weights: dict, n: int) -> list:
    """Deterministic interleaved schedule of n labels matching the weights.

    Webster/Sainte-Lague style: position i gets the label maximizing
    weight * (i_assigned + 1) deficit; final counts are within 1 of
    weight * n. Keys are processed in insertion order for tie stability.
    """
    labels = list(weights)
    counts = {k: 0 for k in labels}
    out = []
    for i in range(n):
        best = max(labels, key=lambda k: (weights[k] * (i + 1) - counts[k]))
        counts[best] += 1
        out.append(best)
    return out


def _sample_scene(rng: np.random.Generator, config: DatasetConfig) -> Scene:
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    cells = rng.choice(config.grid_size * config.grid_size, size=n_obj, replace=False)
    classes = rng.choice(len(OBJECT_CLASSES), size=n_obj)
    sizes = rng.choice(2, size=n_obj)
    objects = tuple(
        SceneObject(cls=OBJECT_CLASSES[classes[i]],
                    row=int(cells[i]) // config.grid_size,
                    col=int(cells[i]) % config.grid_size,
                    size=SIZES[sizes[i]])
        for i in range(n_obj))
    return Scene(grid_size=config.grid_size, objects=objects,
                 zone_label=zone_of(objects, config.urban_threshold))


def _pick_balanced(rng, candidates_yes, candidates_no):
    """Choose a question slot aiming at a 50/50 yes/no answer balance."""
    want_yes = rng.random() < 0.5
    pool = candidates_yes if want_yes else candidates_no
    if not pool:
        pool = candidates_no if want_yes else candidates_yes
    return pool[int(rng.integers(len(pool)))]


def _sample_question(rng: np.random.Generator, scene: Scene, category: str):
    """Pick a template and slots for the category; returns (template, slots)."""
    if category == "count":
        cls = OBJECT_CLASSES[int(rng.integers(len(OBJECT_CLASSES)))]
        return TEMPLATES[0], (cls,)
    if category == "presence":
        if rng.random() < 0.5:
            present = sorted({o.cls for o in scene.objects})
            absent = sorted(set(OBJECT_CLASSES) - set(present))
            cls = _pick_balanced(rng, present, absent)
            return TEMPLATES[1], (cls,)
        pairs = [(s, c) for s in SIZES for c in OBJECT_CLASSES]
        have = {(o.size, o.cls) for o in scene.objects}
        yes = [p for p in pairs if p in have]
        no = [p for p in pairs if p not in have]
        return TEMPLATES[2], tuple(_pick_balanced(rng, yes, no))
    if category == "comparison":
        a, b = rng.choice(len(OBJECT_CLASSES), size=2, replace=False)
        return TEMPLATES[3], (OBJECT_CLASSES[a], OBJECT_CLASSES[b])
    if category == "rural_urban":
        return TEMPLATES[4], ()
    if category == "area":
        cls = OBJECT_CLASSES[int(rng.integers(len(OBJECT_CLASSES)))]
        return TEMPLATES[5], (cls,)
    raise TemplateError(f"unknown category {category!r}")


def make_sample(config: DatasetConfig, index: int, category: str,
                split: str, answer_space: AnswerSpace) -> VQASample:
    """Sample content is a pure function of (seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
    scene = _sample_scene(rng, config)
    template, slots = _sample_question(rng, scene, category)
    words = template.render(slots)
    token_ids, n_tokens = tokenize(words, config.k_max)
    answer = answer_oracle(scene, template, slots)
    return VQASample(scene=scene, category=category,
                     template_id=template.template_id, slots=slots,
                     token_ids=token_ids, n_tokens=n_tokens,
                     answer_index=answer_space.index_of(answer), split=split)


def generate_dataset(config: DatasetConfig) -> Dataset:
    """Seeded, reproducible dataset with interleaved category/split schedules."""
    answer_space = build_answer_space()
    categories = apportion(config.mix(), config.n_samples)
    splits = apportion(config.splits(), config.n_samples)
    samples = tuple(
        make_sample(config, i, categories[i], splits[i], answer_space)
        for i in range(config.n_samples))
    return Dataset(config=config, samples=samples, answer_space=answer_space)


def audit_dataset(dataset: Dataset) -> int:
    """Recompute every answer and validate structural bounds; returns mismatches."""
    mismatches = 0
    for s in dataset.samples:
        template = TEMPLATES[s.template_id]
        expected = dataset.answer_space.index_of(
            answer_oracle(s.scene, template, s.slots))
        if expected != s.answer_index:
            mismatches += 1
        if s.n_tokens > dataset.config.k_max or len(s.token_ids) != dataset.config.k_max:
            mismatches += 1
        if not 1 <= len(s.scene.objects) <= dataset.config.t_max:
            mismatches += 1
        if any(t >= len(VOCABULARY) for t in s.token_ids):
            mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# persistence: line-delimited JSON, bit-exact round trip


FORMAT_NAME = "mibvqa-dataset"
FORMAT_VERSION = 1


def _sample_record(s: VQASample) -> dict:
    return {
        "scene": {
            "grid_size": s.scene.grid_size,
            "objects": [[o.cls, o.row, o.col, o.size] for o in s.scene.objects],
            "zone_label": s.scene.zone_label,
        },
        "category": s.category,
        "template_id": s.template_id,
        "slots": list(s.slots),
        "token_ids": list(s.token_ids),
        "n_tokens": s.n_tokens,
        "answer_index": s.answer_index,
        "split": s.split,
    }


def _sample_from_record(rec: dict, line_no: int) -> VQASample:
    try:
        sc = rec["scene"]
        objects = tuple(SceneObject(cls=o[0], row=int(o[1]), col=int(o[2]), size=o[3])
                        for o in sc["objects"])
        scene = Scene(grid_size=int(sc["grid_size"]), objects=objects,
                      zone_label=sc["zone_label"])
        return VQASample(scene=scene, category=rec["category"],
                         template_id=int(rec["template_id"]),
                         slots=tuple(rec["slots"]),
                         token_ids=tuple(int(t) for t in rec["token_ids"]),
                         n_tokens=int(rec["n_tokens"]),
                         answer_index=int(rec["answer_index"]),
                         split=rec["split"])
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise DatasetFormatError(f"malformed sample record at line {line_no}: {e}") from None


def export_dataset(dataset: Dataset, path) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": dataset.config.seed,
        "n_samples": len(dataset.samples),
        "config": asdict(dataset.config),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for s in dataset.samples:
            f.write(json.dumps(_sample_record(s), sort_keys=True) + "\n")


def import_dataset(path) -> Dataset:
    """Parse an exported dataset; raises DatasetFormatError, never a partial result."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"malformed header line: {e}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DatasetFormatError("not a dataset file (bad format marker)")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {header.get('version')}")
    try:
        cfg_dict = dict(header["config"])
        cfg_dict["category_mix"] = dict(cfg_dict.get("category_mix") or {})
        config = DatasetConfig(**cfg_dict)
    except (KeyError, TypeError, ValueError) as e:
        raise DatasetFormatError(f"bad config echo in header: {e}") from None
    expected = int(header.get("n_samples", -1))
    if expected != len(lines) - 1:
        raise DatasetFormatError(
            f"truncated dataset: header says {expected} samples, file has {len(lines) - 1}")
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"malformed record at line {i}: {e}") from None
        samples.append(_sample_from_record(rec, i))
    return Dataset(config=config, samples=tuple(samples))
