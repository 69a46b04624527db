"""Deterministic synthetic grid-scene VQA dataset.

A scene is a symbolic list of objects (class, grid cell, size) on a small
grid; questions are templated token sequences over a fixed vocabulary with
question categories count / presence / comparison / rural_urban / area.
Every draw comes from one PCG64 stream seeded with the dataset seed, and
sample i reads its own fixed block of that stream's raw outputs, so it is a
pure function of (seed, i) and generation is reproducible. A chunk of
samples is one read of the stream, and its scene draws are array
operations over fixed columns of the blocks (see "sample streams").
Categories are interleaved by a Webster/Sainte-Lague apportionment
schedule, and split tags by one such schedule within each category's
samples, so every split carries every category in the configured
proportions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence, get_type_hints

import numpy as np

from .encoders import ImageObjectFeatures, QueryTokens


class DatasetFormatError(ValueError):
    """A dataset file failed to parse or validate."""


OBJECT_CLASSES = ("building", "road", "water", "tree", "field")
_CLASS_INDEX = {c: i for i, c in enumerate(OBJECT_CLASSES)}
SIZES = ("small", "large")
_SIZE_INDEX = {s: i for i, s in enumerate(SIZES)}
SIZE_FEATURE = {"small": 0.5, "large": 1.0}
# An object's descriptor row: one-hot class, then x, y and size.
FEATURE_WIDTH = len(OBJECT_CLASSES) + 3
# size-weighted footprint in grid cells, used by area questions
SIZE_CELLS = {"small": 1, "large": 4}

# Quartile edges of the size-weighted class-area distribution under the
# default generator (10 objects, uniform classes, 50/50 sizes): quantiles
# at 0.25/0.5/0.75 fall at 2, 5 and 8 cells, giving bins with probability
# 0.24 / 0.24 / 0.25 / 0.27. Frozen for reproducibility.
AREA_BIN_EDGES = (2, 5, 8)
AREA_BIN_LABELS = ("0-1", "2-4", "5-7", "8+")

COUNT_LABELS = tuple(str(i) for i in range(10)) + ("10+",)
ZONE_LABELS = ("rural", "urban")
# The one answer space of every category; a label is an index into it.
ANSWERS = ("no", "yes") + COUNT_LABELS + ZONE_LABELS + AREA_BIN_LABELS
ANSWER_INDEX = {a: i for i, a in enumerate(ANSWERS)}

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


@dataclass(frozen=True)
class SceneObject:
    """One object of a scene. Its two renderings are computed once per
    instance from its four fields and kept in its __dict__, outside the
    fields that ==, hash and repr read; equal objects are one instance (see
    _CodedObjects), so each distinct object is rendered once."""
    cls: str
    row: int
    col: int
    size: str

    @functools.cached_property
    def json_fragment(self) -> str:
        """The object as a dataset record lists it: ["road", 3, 4, "small"]."""
        return json.dumps([self.cls, self.row, self.col, self.size])

    @functools.cached_property
    def feature_row(self) -> bytes:
        """The float64 bytes of its descriptor row before the grid scaling:
        one-hot class, col, row, size feature."""
        row = np.zeros(FEATURE_WIDTH)
        row[_CLASS_INDEX[self.cls]] = 1.0
        row[len(OBJECT_CLASSES):] = self.col, self.row, SIZE_FEATURE[self.size]
        return row.tobytes()


class _CodedObjects(dict):
    """The canonical SceneObjects of one grid by the code generation draws
    them as, (cell * 5 + class) * 2 + size with cell = row * grid_size + col:
    one int per object, at most 10 * grid_size**2 of them. Generation and
    import take every object from this table, so equal objects are one
    shared instance; a code seen for the first time makes its object."""

    def __init__(self, grid_size: int):
        super().__init__()
        self.grid_size = grid_size

    def __missing__(self, code: int) -> SceneObject:
        cell, kind = divmod(code, len(OBJECT_CLASSES) * len(SIZES))
        c, z = divmod(kind, len(SIZES))
        obj = self[code] = SceneObject(OBJECT_CLASSES[c], *divmod(cell, self.grid_size),
                                       SIZES[z])
        return obj


_objects_by_code = functools.cache(_CodedObjects)


class _FragmentObjects(dict):
    """The objects of one grid's code table by their json_fragment's text
    between its outer brackets ('"road", 3, 4, "small"'), as a record line
    exactly as export writes it lists them. A text seen for the first time
    is decoded and checked once through _record_object, and kept only if it
    is the object's own rendering; a text that is not raises KeyError."""

    def __init__(self, grid_size: int):
        super().__init__()
        self.grid_size = grid_size

    def __missing__(self, body: str) -> SceneObject:
        fragment = "[" + body + "]"
        try:
            obj = _record_object(self.grid_size, *decode_json(fragment))
        except (TypeError, ValueError):
            raise KeyError(body) from None
        if obj.json_fragment != fragment:
            raise KeyError(body)
        self[body] = obj
        return obj


_objects_by_fragment = functools.cache(_FragmentObjects)


@dataclass(frozen=True)
class Scene:
    """Symbolic grid scene; zone_label is derived from building density."""
    grid_size: int
    objects: tuple
    zone_label: str


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
    category: str
    pattern: tuple
    slot_names: tuple

    def render(self, slots: tuple) -> tuple:
        values = dict(zip(self.slot_names, slots))
        return tuple(values.get(tok[1:-1], tok) if tok.startswith("{") else tok
                     for tok in self.pattern)


# A template's id is its index.
TEMPLATES = (
    QueryTemplate("count",
                  ("how", "many", "{cls}", "objects", "are", "in", "the", "scene"),
                  ("cls",)),
    QueryTemplate("presence",
                  ("is", "there", "any", "{cls}", "in", "the", "scene"),
                  ("cls",)),
    QueryTemplate("presence",
                  ("is", "there", "a", "{size}", "{cls}", "in", "the", "scene"),
                  ("size", "cls")),
    QueryTemplate("comparison",
                  ("are", "there", "more", "{cls_a}", "objects", "than",
                   "{cls_b}", "objects"),
                  ("cls_a", "cls_b")),
    QueryTemplate("rural_urban",
                  ("is", "this", "area", "rural", "or", "urban"),
                  ()),
    QueryTemplate("area",
                  ("what", "is", "the", "total", "area", "of", "{cls}"),
                  ("cls",)),
)

# The values generation draws for each slot name.
SLOT_VALUES = {"cls": OBJECT_CLASSES, "cls_a": OBJECT_CLASSES,
               "cls_b": OBJECT_CLASSES, "size": SIZES}

# The question categories, in the order of their first template.
CATEGORIES = tuple(dict.fromkeys(t.category for t in TEMPLATES))

# Each slot renders to one token, so a question has its pattern's length.
MAX_QUESTION_TOKENS = max(len(t.pattern) for t in TEMPLATES)


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
    return area_label(class_area(scene, values["cls"]))


# ---------------------------------------------------------------------------
# configuration and samples


VARIANT_CATEGORIES = {
    "lr_like": ("count", "presence", "comparison", "rural_urban"),
    "hr_like": ("count", "presence", "comparison", "area"),
}


# The one reader of a config dataclass's field annotations. get_type_hints
# evaluates every annotation string on each call (about 0.1 ms for
# ModelConfig, paid by every checkpoint load), so once per class.
field_types = functools.cache(get_type_hints)


def check_field_types(config) -> None:
    """Raise ValueError unless every field of the dataclass config holds
    exactly its annotated type, or an int in a float field. type(), not
    isinstance: a bool is an int, but never a count, a seed or a rate."""
    for name, kind in field_types(type(config)).items():
        value = getattr(config, name)
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ValueError(f"{type(config).__name__}.{name} must be "
                             f"{kind.__name__}, got {value!r}")


def check_keys(value, keys: Sequence, what: str) -> None:
    """Raise ValueError unless value is a JSON object with exactly these
    keys: a reader never skips a key it does not read, nor fills in one."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    if len(value) != len(keys) or not all(map(value.__contains__, keys)):
        missing = [key for key in keys if key not in value]
        unknown = sorted(set(value) - set(keys))
        raise ValueError(f"{what} keys: missing {missing}, unknown {unknown}")


def _object_once(pairs: list) -> dict:
    """A JSON object's dict; raises ValueError naming a key it gives twice."""
    value = dict(pairs)
    if len(value) != len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for at, key in enumerate(keys) if key in keys[:at])
        raise ValueError(f"key {twice!r} given twice")
    return value


def decode_json(text: str):
    """json.loads(text), but every failure is a ValueError: an object that
    names a key twice, whose last value json.loads would keep, fails naming
    the key (a reader never skips a key it does not read), and JSON nested
    past the recursion limit fails with RecursionError's message."""
    try:
        return json.loads(text, object_pairs_hook=_object_once)
    except RecursionError as e:
        raise ValueError(str(e)) from None


def config_from_json(config_class, value):
    """config_class from the JSON object a file echoes it as. Its keys must
    be exactly the class's fields: a reader never fills in a default."""
    check_keys(value, [f.name for f in fields(config_class)], config_class.__name__)
    return config_class(**value)


# The most samples a config may ask for: more than a dataset held in memory
# can have, and 2**32 blocks stay far inside PCG64's period of 2**128 outputs.
MAX_SAMPLES = 1 << 32
# The largest grid: its cells, grid_size**2, must fit one 32-bit draw.
MAX_GRID_SIZE = 1 << 16
# The widest model layer: a weight of two such widths has 2**32 values, far
# inside NumPy's size limit, so an oversized config fails here, not in NumPy.
MAX_WIDTH = 1 << 16


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
        check_field_types(self)
        if not 0 < self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"n_samples must be 1 to {MAX_SAMPLES}, "
                             f"got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.variant not in VARIANT_CATEGORIES:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k_max < MAX_QUESTION_TOKENS:
            raise ValueError(f"k_max must be at least {MAX_QUESTION_TOKENS}, "
                             f"the longest question's token count; got {self.k_max}")
        if not 1 <= self.min_objects <= self.max_objects <= self.t_max:
            raise ValueError("need 1 <= min_objects <= max_objects <= t_max")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be positive, got {self.grid_size}")
        if self.grid_size > MAX_GRID_SIZE:
            raise ValueError(f"grid_size must be at most {MAX_GRID_SIZE}, whose "
                             f"{MAX_GRID_SIZE ** 2} cells a 32-bit draw covers; "
                             f"got {self.grid_size}")
        if self.max_objects > self.grid_size * self.grid_size:
            raise ValueError("more objects than grid cells")
        # outside this range every scene gets the same zone
        if not 1 <= self.urban_threshold <= self.max_objects:
            raise ValueError(f"urban_threshold must be 1 to max_objects="
                             f"{self.max_objects}, got {self.urban_threshold}")
        # comparisons with nan are False, so each bound also rejects nan
        if not (0 < self.train_fraction < math.inf
                and 0 < self.test_fraction < math.inf
                and 0 <= self.test2_fraction < math.inf):
            raise ValueError(
                f"split fractions must be finite, train and test > 0, test2 >= 0; "
                f"got {self.train_fraction}, {self.test_fraction}, "
                f"{self.test2_fraction}")
        fr = self.train_fraction + self.test_fraction + self.test2_fraction
        if abs(fr - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {fr}, expected 1")
        mix = self.mix()
        for cat, share in mix.items():
            if cat not in VARIANT_CATEGORIES[self.variant]:
                raise ValueError(f"category {cat!r} not in variant {self.variant!r}")
            if type(share) not in (int, float) or not 0 < share < math.inf:
                raise ValueError(f"category {cat!r} share must be a finite "
                                 f"number > 0, got {share!r}")
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise ValueError(f"category mix sums to {sum(mix.values())}, expected 1")

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

    def split(self, name: str) -> tuple:
        return tuple(s for s in self.samples if s.split == name)


# Scenes per fill pass of scene_features: bounds the pass's joined rows
# and index arrays to a few hundred kB, so the peak memory of preparing a
# split is the result array alone, whatever the split's size.
FEATURE_CHUNK = 256


def scene_features(scenes: Sequence[Scene], t_max: int) -> ImageObjectFeatures:
    """Raw descriptor rows of a batch of scenes, filled into one preallocated
    [B, t_max, FEATURE_WIDTH] array: one-hot class, x, y in [0,1], size in
    (0,1].
    t_max is at least the batch's largest object count; rows past a scene's
    objects are padding. Scenes may lie on grids of different sizes.

    Each pass joins the cached feature_row bytes of the objects of
    FEATURE_CHUNK scenes into one array, divides its x and y columns by each
    object's grid denominator max(grid_size - 1, 1) in float64, as NumPy's
    true division of ints does, and scatters it through the mask.
    """
    n_cls = len(OBJECT_CLASSES)
    counts = np.fromiter((len(scene.objects) for scene in scenes),
                         dtype=np.int64, count=len(scenes))
    mask = np.arange(t_max) < counts.reshape(-1, 1)
    mat = np.zeros((len(scenes), t_max, FEATURE_WIDTH))
    for start in range(0, len(scenes), FEATURE_CHUNK):
        part = slice(start, start + FEATURE_CHUNK)
        rows = np.frombuffer(bytearray().join(
            obj.feature_row for scene in scenes[part] for obj in scene.objects))
        rows = rows.reshape(-1, FEATURE_WIDTH)
        denom = np.repeat([float(max(scene.grid_size - 1, 1)) for scene in scenes[part]],
                          counts[part])
        rows[:, n_cls:n_cls + 2] /= denom.reshape(-1, 1)
        mat[part][mask[part]] = rows
    return ImageObjectFeatures(matrix=mat, object_mask=mask)


def query_tokens(samples: Sequence[VQASample], k_max: int) -> QueryTokens:
    """Token ids [B, k_max] of a batch of samples, their first k_max slots,
    and the mask of their real (non-padding) prefix. k_max is at least the
    batch's longest question and at most its samples' id count, which is
    the same for every sample."""
    width = len(samples[0].token_ids)
    ids = np.fromiter(itertools.chain.from_iterable(s.token_ids for s in samples),
                      dtype=np.int64, count=len(samples) * width)
    # a copy of the kept columns: no view holds the full-width array alive
    ids = np.ascontiguousarray(ids.reshape(-1, width)[:, :k_max])
    n_tokens = np.fromiter((s.n_tokens for s in samples), dtype=np.int64,
                           count=len(samples))
    mask = np.arange(k_max) < n_tokens.reshape(-1, 1)
    return QueryTokens(token_ids=ids, token_mask=mask)


# ---------------------------------------------------------------------------
# generation


def apportion(weights: dict, n: int) -> list:
    """Deterministic interleaved schedule of n labels matching the weights.

    Webster/Sainte-Lague style: position i (from 1) goes to the label with
    the largest deficit weight * i - (its count so far), the first such
    label in insertion order on a tie; final counts are within 1 of
    weight * n.
    """
    labels = list(weights)
    shares = list(weights.values())
    counts = [0] * len(labels)
    others = range(1, len(labels))
    out = []
    for i in range(1, n + 1):
        best, top = 0, shares[0] * i - counts[0]
        for k in others:
            deficit = shares[k] * i - counts[k]
            if deficit > top:
                best, top = k, deficit
        counts[best] += 1
        out.append(labels[best])
    return out


def _scene(config: DatasetConfig, objects: tuple) -> Scene:
    """The scene of drawn objects: urban from urban_threshold buildings on."""
    buildings = sum(1 for o in objects if o.cls == "building")
    zone = "urban" if buildings >= config.urban_threshold else "rural"
    return Scene(grid_size=config.grid_size, objects=objects, zone_label=zone)


# ---------------------------------------------------------------------------
# sample streams
#
# Every draw comes from one stream, np.random.PCG64(seed), which PCG64 seeds
# through SeedSequence(seed). NEP 19 keeps a bit generator's raw outputs
# fixed across NumPy versions, so a dataset's bytes do not depend on the
# NumPy that made it. Sample i owns the raw outputs [i*W, (i+1)*W), read as
# 2*W little-endian 32-bit words (each output's low half, then its high
# half) at fixed columns, with M = max_objects:
#   0                the object count, on [min_objects, max_objects];
#   1 ... M          the cells, Floyd's algorithm over the n grid cells:
#                    word 1+f draws t on [0, j] for j = n - count + f, and
#                    the pick is t, or j if t was picked before;
#   M+1 ... 2M       the classes;
#   2M+1 ... 3M      the sizes;
#   3M+1 ... 3M+3    the question's words (_sample_question).
# A scene of fewer than M objects leaves the words of its missing objects
# unused, so every sample reads the same block and sample i is a pure
# function of (seed, i). The picks stay in draw order, unshuffled: the
# model pools over a scene's objects.
# A draw on [0, n), n up to 2**32, is multiply-shift without rejection,
# (w * n) >> 32 (Lemire 2019, arXiv 1805.10941). Each value takes the floor
# or the ceiling of 2**32 / n of the words, so its probability is off from
# 1/n by a relative error below n / 2**32 (below 2e-8 on the default 64
# cells). A coin is w < 2**31. A chunk of samples is one random_raw call,
# its words reshaped to [chunk, 2W], and each scene draw one array
# operation over a column of them.

# Samples per raw read: bounds the chunk's arrays and per-sample lists.
STREAM_CHUNK = 512
# The question's words per sample: a presence question takes all three.
QUESTION_WORDS = 3


def _outputs_per_sample(config: DatasetConfig) -> int:
    """W, the raw outputs of a sample's block: two 32-bit words each."""
    return -(-(1 + 3 * config.max_objects + QUESTION_WORDS) // 2)


def _below(words, n):
    """Draws on [0, n) for n up to 2**32 from 32-bit words: (w * n) >> 32,
    on Python ints or on uint64 arrays (and a uint64 n)."""
    return words * n >> 32


def _coin(word: int) -> bool:
    """A fair coin from a 32-bit word: heads on the lower half of its range."""
    return word < 1 << 31


def _chunk_words(stream: np.random.PCG64, chunk: int, width: int) -> np.ndarray:
    """The next chunk blocks of the stream as [chunk, 2 * width] uint32
    words: each raw output's low half, then its high half."""
    words = stream.random_raw(chunk * width).astype("<u8", copy=False).view("<u4")
    return words.reshape(chunk, 2 * width)


def _draw_objects(words: np.ndarray, config: DatasetConfig) -> tuple:
    """Each sample's object count and [chunk, max_objects] object codes,
    (cell * 5 + class) * 2 + size, from a chunk's [chunk, 2W] words; the
    first count of each row are the scene's objects."""
    m = config.max_objects
    w = words[:, :1 + 3 * m].astype(np.uint64)
    span = np.uint64(m - config.min_objects + 1)
    count = config.min_objects + _below(w[:, 0], span).astype(np.int64)
    n = config.grid_size ** 2
    cells = np.zeros((len(w), m), dtype=np.int64)
    for f in range(m):
        j = n - count + f
        # a row past its count draws on [0, 0]; the pick is never read
        bound = np.where(f < count, j + 1, 1).astype(np.uint64)
        drawn = _below(w[:, 1 + f], bound).astype(np.int64)
        seen = (cells[:, :f] == drawn[:, None]).any(axis=1)
        cells[:, f] = np.where(seen, j, drawn)
    classes = _below(w[:, 1 + m:1 + 2 * m], np.uint64(len(OBJECT_CLASSES)))
    sizes = _below(w[:, 1 + 2 * m:], np.uint64(len(SIZES)))
    return count, ((cells * len(OBJECT_CLASSES) + classes.astype(np.int64)) * len(SIZES)
                   + sizes.astype(np.int64))


def _pick_balanced(want_word: int, pick_word: int, candidates_yes, candidates_no):
    """Choose a question slot aiming at a 50/50 yes/no answer balance: a
    coin for the wanted answer, then a draw among its candidates."""
    want_yes = _coin(want_word)
    pool = candidates_yes if want_yes else candidates_no
    if not pool:
        pool = candidates_no if want_yes else candidates_yes
    return pool[_below(pick_word, len(pool))]


def _sample_question(words, scene: Scene, category: str):
    """Pick a template and slots for the category from the sample's
    QUESTION_WORDS words, each read at most once; returns (template_id, slots)."""
    first, second, third = words
    if category == "count":
        return 0, (OBJECT_CLASSES[_below(first, len(OBJECT_CLASSES))],)
    if category == "presence":
        if _coin(first):
            present = sorted({o.cls for o in scene.objects})
            absent = sorted(set(OBJECT_CLASSES) - set(present))
            return 1, (_pick_balanced(second, third, present, absent),)
        pairs = [(s, c) for s in SIZES for c in OBJECT_CLASSES]
        have = {(o.size, o.cls) for o in scene.objects}
        yes = [p for p in pairs if p in have]
        no = [p for p in pairs if p not in have]
        return 2, tuple(_pick_balanced(second, third, yes, no))
    if category == "comparison":
        # two distinct classes: b among the four that are not a
        a = _below(first, len(OBJECT_CLASSES))
        b = _below(second, len(OBJECT_CLASSES) - 1)
        b += b >= a
        return 3, (OBJECT_CLASSES[a], OBJECT_CLASSES[b])
    if category == "rural_urban":
        return 4, ()
    return 5, (OBJECT_CLASSES[_below(first, len(OBJECT_CLASSES))],)


# Per k_max there are 46 (template, slots) questions: 5 count,
# 5 + 10 presence, 20 comparison, 1 rural_urban and 5 area.
@functools.cache
def _questions(k_max: int) -> dict:
    """The token ids, padded to k_max, and the token count of the rendered
    question, by (template_id, slots), of every question generation can
    give: each a known template with a value of its kind in every slot, and
    a comparison two classes. Every word is in VOCABULARY and DatasetConfig
    keeps k_max at least MAX_QUESTION_TOKENS."""
    table = {}
    for template_id, template in enumerate(TEMPLATES):
        for slots in itertools.product(*map(SLOT_VALUES.get, template.slot_names)):
            if template.category != "comparison" or slots[0] != slots[1]:
                ids = [TOKEN_IDS[word] for word in template.render(slots)]
                padding = [TOKEN_IDS[PAD_TOKEN]] * (k_max - len(ids))
                table[template_id, slots] = tuple(ids + padding), len(ids)
    return table


def _sample(config: DatasetConfig, scene: Scene, template_id: int, slots: tuple,
            split: str) -> VQASample:
    """Every sample, generated or imported, is built here from its drawn parts."""
    template = TEMPLATES[template_id]
    token_ids, n_tokens = _questions(config.k_max)[template_id, slots]
    return VQASample(scene=scene, category=template.category,
                     template_id=template_id, slots=slots,
                     token_ids=token_ids, n_tokens=n_tokens,
                     answer_index=ANSWER_INDEX[answer_oracle(scene, template, slots)],
                     split=split)


def generate_dataset(config: DatasetConfig) -> Dataset:
    """Seeded, reproducible dataset: each sample drawn from its own block
    of one stream (see "sample streams"), its category from an interleaved
    schedule, and its split from one schedule within each category."""
    categories = apportion(config.mix(), config.n_samples)
    per_category = {category: iter(apportion(config.splits(), categories.count(category)))
                    for category in config.mix()}
    splits = [next(per_category[category]) for category in categories]
    width = _outputs_per_sample(config)
    questions_at = 1 + 3 * config.max_objects
    stream = np.random.PCG64(config.seed)
    objects = _objects_by_code(config.grid_size)
    samples = []
    for start in range(0, config.n_samples, STREAM_CHUNK):
        part = slice(start, min(start + STREAM_CHUNK, config.n_samples))
        words = _chunk_words(stream, part.stop - start, width)
        count, codes = _draw_objects(words, config)
        question_words = words[:, questions_at:questions_at + QUESTION_WORDS].tolist()
        for n_obj, row, question, category, split in zip(
                count.tolist(), codes.tolist(), question_words,
                categories[part], splits[part]):
            scene = _scene(config, tuple(map(objects.__getitem__, row[:n_obj])))
            samples.append(_sample(config, scene,
                                   *_sample_question(question, scene, category), split))
    return Dataset(config=config, samples=tuple(samples))


def audit_dataset(dataset: Dataset) -> int:
    """Recompute every answer and validate structural bounds; returns mismatches."""
    config = dataset.config
    vocabulary_ids = frozenset(range(len(VOCABULARY)))
    mismatches = 0
    for s in dataset.samples:
        template = TEMPLATES[s.template_id]
        expected = ANSWER_INDEX.get(answer_oracle(s.scene, template, s.slots))
        if expected != s.answer_index:
            mismatches += 1
        if s.n_tokens > config.k_max or len(s.token_ids) != config.k_max:
            mismatches += 1
        if not config.min_objects <= len(s.scene.objects) <= config.max_objects:
            mismatches += 1
        if not vocabulary_ids.issuperset(s.token_ids):
            mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# persistence: line-delimited JSON, bit-exact round trip


FORMAT_NAME = "mibvqa-dataset"
FORMAT_VERSION = 2

# The keys of each kind of JSON object in a dataset file, stated once:
# export writes exactly these, sorted, and import reads them in this order
# and rejects an object with a key missing or one more.
HEADER_KEYS = ("config", "format", "version")
RECORD_KEYS = ("scene", "category", "template_id", "slots", "token_ids",
               "n_tokens", "answer_index", "split")
SCENE_KEYS = ("objects", "zone_label")


def _json_pattern(keys: tuple, nested: dict) -> str:
    """The %-format pattern of a JSON object with these keys as
    json.dumps(sort_keys=True) writes it: a %s for each key's value, or
    nested[key], the pattern of a nested object, in its place."""
    return "{" + ", ".join(f"{json.dumps(key)}: {nested.get(key, '%s')}"
                           for key in sorted(keys)) + "}"


# A record line, and the sample attribute each of its %s stands for, in
# the pattern's order: the record keys', with the scene keys' in the
# scene's place. The objects list is rendered from the objects' own
# fragments, every other value by _json_value.
_RECORD_LINE = _json_pattern(RECORD_KEYS, {"scene": _json_pattern(SCENE_KEYS, {})}) + "\n"
_RECORD_PATHS = [path for key in sorted(RECORD_KEYS) for path in (
    [f"scene.{k}" for k in sorted(SCENE_KEYS)] if key == "scene" else [key])]
_OBJECTS_AT = _RECORD_PATHS.index("scene.objects")
_record_values = operator.attrgetter(*_RECORD_PATHS[:_OBJECTS_AT],
                                     *_RECORD_PATHS[_OBJECTS_AT + 1:])

# The same line as a regex, without its newline: a group for each %s, in
# _RECORD_PATHS order. Each value export writes there is a list with no
# list inside, or a scalar with no comma or bracket; the objects list opens
# with "[[" and closes with "]]", and its group holds the objects' fragments
# without their outer brackets, joined by "], [". _record_texts takes the
# groups in the order _sample_from_text reads them: the question's last, the
# key of its table.
_QUESTION_PATHS = ("category", "n_tokens", "slots", "template_id", "token_ids")
_RECORD_TEXT = re.compile("".join(
    re.escape(literal) + group for literal, group in zip(
        _RECORD_LINE.rstrip("\n").split("%s"),
        [r"\[\[([^{}]*)\]\]" if at == _OBJECTS_AT else r"(\[[^\]]*\]|[^,\[]*)"
         for at in range(len(_RECORD_PATHS))] + [""])))
_record_texts = operator.itemgetter(*map(_RECORD_PATHS.index, (
    "scene.objects", "scene.zone_label", "answer_index", "split", *_QUESTION_PATHS)))


# A dataset repeats few distinct values per field: under 50 questions' slots
# and token ids per k_max, and a handful of categories, zones, splits and
# small ints. typed: json.dumps(True) is "true", where 1's is "1".
@functools.lru_cache(maxsize=1024, typed=True)
def _json_value(value) -> str:
    """json.dumps(value) of a hashable value, a tuple written as a list."""
    return json.dumps(value)


def _values(value: dict, keys: tuple, what: str) -> list:
    """The values of keys in the JSON object value, which has exactly these."""
    check_keys(value, keys, what)
    return list(map(value.__getitem__, keys))


def _record_object(grid_size: int, cls, row, col, size) -> SceneObject:
    """The canonical object of one record entry: the checks of its class,
    its size and its cell on the grid give its code in _objects_by_code."""
    if type(row) is not int or type(col) is not int:
        raise ValueError(f"object row {row!r}, col {col!r}: expected integers")
    c = _CLASS_INDEX.get(cls)
    if c is None:
        raise ValueError(f"unknown object class {cls!r}")
    z = _SIZE_INDEX.get(size)
    if z is None:
        raise ValueError(f"unknown object size {size!r}")
    if not (0 <= row < grid_size and 0 <= col < grid_size):
        raise ValueError(f"object at row {row}, col {col} is off the "
                         f"{grid_size}x{grid_size} grid")
    cell = row * grid_size + col
    return _objects_by_code(grid_size)[(cell * len(OBJECT_CLASSES) + c) * len(SIZES) + z]


def _same(value, expected) -> bool:
    """value == expected, with the same type item by item: to ==, JSON true
    is 1 and 1.0 is 1."""
    return value == expected and (
        list(map(type, value)) == list(map(type, expected))
        if type(value) is list else type(value) is type(expected))


def _record_scene(config: DatasetConfig, objects: tuple) -> Scene:
    """The scene of a record's objects, as both readers build it: a count
    generation draws, min_objects to max_objects, each object on its own
    cell; raises ValueError otherwise."""
    if not config.min_objects <= len(objects) <= config.max_objects:
        raise ValueError(f"{len(objects)} objects, expected min_objects="
                         f"{config.min_objects} to max_objects={config.max_objects}")
    cells = {(o.row, o.col) for o in objects}
    if len(cells) != len(objects):
        raise ValueError(f"{len(objects)} objects on {len(cells)} grid "
                         f"cells: generation puts each on its own cell")
    return _scene(config, objects)


def _sample_from_record(rec: dict, line_no: int, config: DatasetConfig) -> VQASample:
    """The sample of one decoded record, rebuilt from its objects, template,
    slots and split as generation builds it, on the grid of the config echo:
    a record states no grid of its own. import_dataset calls it for every
    line _sample_from_text does not read, so it is the one reader of any
    other JSON spelling of a record and the one source of record errors.

    A drawn field generation cannot give (an object off that grid or
    unknown, the object or slot count, the template, the split) or a stored
    derived field other than the rebuilt one is a DatasetFormatError, and so
    is a value of another JSON type than the one export writes, or a record
    or scene object with other keys than export writes. Each object must sit
    on its own cell, each slot hold a value of its kind, and a comparison
    two classes."""
    try:
        (scene, category, template_id, slots, token_ids, n_tokens, answer_index,
         split) = _values(rec, RECORD_KEYS, "record")
        entries, zone_label = _values(scene, SCENE_KEYS, "scene")
        scene = _record_scene(config, tuple(
            _record_object(config.grid_size, cls, row, col, size)
            for cls, row, col, size in entries))
        if type(template_id) is not int or not 0 <= template_id < len(TEMPLATES):
            raise ValueError(f"unknown template_id {template_id!r}")
        template = TEMPLATES[template_id]
        if type(slots) is not list:
            raise ValueError(f"slots {slots!r} is not a list")
        if len(slots) != len(template.slot_names):
            raise ValueError(f"{len(slots)} slots for template {template_id}")
        slots = tuple(slots)
        for name, value in zip(template.slot_names, slots):
            if value not in SLOT_VALUES[name]:
                raise ValueError(f"slot {name} {value!r} is not one of "
                                 f"{', '.join(SLOT_VALUES[name])}")
        if template.category == "comparison" and slots[0] == slots[1]:
            raise ValueError(f"comparison of {slots[0]!r} with itself")
        if split not in config.splits():
            raise ValueError(f"split {split!r} is not among the header's splits")
        sample = _sample(config, scene, template_id, slots, split)
        for name, value, expected in (
                ("zone_label", zone_label, sample.scene.zone_label),
                ("category", category, sample.category),
                ("token_ids", token_ids, list(sample.token_ids)),
                ("n_tokens", n_tokens, sample.n_tokens),
                ("answer_index", answer_index, sample.answer_index)):
            if not _same(value, expected):
                raise ValueError(f"{name} {value!r} is not the rebuilt sample's "
                                 f"{expected!r}")
        return sample
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(f"malformed sample record at line {line_no}: {e}") from None


@functools.cache
def _question_table(k_max: int) -> dict:
    """The keys of _questions(k_max), the questions _sample_from_record
    accepts, by the texts export writes for their _QUESTION_PATHS fields."""
    table = {}
    for (template_id, slots), (token_ids, n_tokens) in _questions(k_max).items():
        values = {"category": TEMPLATES[template_id].category, "n_tokens": n_tokens,
                  "slots": slots, "template_id": template_id, "token_ids": token_ids}
        table[tuple(_json_value(values[path]) for path in _QUESTION_PATHS)] = (
            template_id, slots)
    return table


def _sample_from_text(line: str, config: DatasetConfig, objects: _FragmentObjects,
                      questions: dict, splits: dict) -> VQASample | None:
    """The sample of a record line exactly as export writes it, read by its
    text: objects, question and split are looked up among their canonical
    renderings (objects, the _question_table of config.k_max, splits by
    their JSON text), the objects must make a scene _record_scene accepts,
    and the rebuilt sample's zone and answer must render to the line's.
    None for any other line, which _sample_from_record then reads: another
    spelling of the same record, or one that fails a check.

    A line read here is _RECORD_LINE filled with the renderings of the
    sample it gives, so its JSON value is a record _sample_from_record
    accepts and rebuilds into an equal sample."""
    match = _RECORD_TEXT.fullmatch(line)
    if match is None:
        return None
    bodies, zone, answer, split, *question = _record_texts(match.groups())
    question = questions.get(tuple(question))
    split = splits.get(split)
    if question is None or split is None:
        return None
    try:
        scene = _record_scene(config, tuple(map(objects.__getitem__,
                                                bodies.split("], ["))))
    except (KeyError, ValueError):
        return None
    sample = _sample(config, scene, *question, split)
    if (_json_value(sample.scene.zone_label) != zone
            or _json_value(sample.answer_index) != answer):
        return None
    return sample


def export_dataset(dataset: Dataset, path) -> None:
    """One header line, then one record per sample. The header holds the
    format name, its version and the config echo, whose n_samples is the
    record count.

    Each line is what json.dumps(sort_keys=True) writes, assembled from
    cached fragments (SceneObject.json_fragment and _json_value) and written
    as it is built: the file is never held whole in memory."""
    header = dict(zip(HEADER_KEYS, (asdict(dataset.config), FORMAT_NAME,
                                    FORMAT_VERSION), strict=True))
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for s in dataset.samples:
            values = list(map(_json_value, _record_values(s)))
            values.insert(_OBJECTS_AT, "[" + ", ".join(
                [obj.json_fragment for obj in s.scene.objects]) + "]")
            f.write(_RECORD_LINE % tuple(values))


def import_dataset(path) -> Dataset:
    """Parse an exported dataset; raises DatasetFormatError, never a partial result.

    A record line exactly as export writes it is read by its text
    (_sample_from_text), without a JSON decode once its objects are known;
    any other line is decoded with decode_json and read by
    _sample_from_record, which gives the same sample for any JSON spelling
    of the same record and raises every record error."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise DatasetFormatError(f"dataset file {path} is not UTF-8 text") from None
    if not lines:
        raise DatasetFormatError("empty dataset file")
    try:
        header = decode_json(lines[0])
    except ValueError as e:
        raise DatasetFormatError(f"malformed header line: {e}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DatasetFormatError("not a dataset file (bad format marker)")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version!r}")
    try:
        config_echo, _, _ = _values(header, HEADER_KEYS, "header")
    except ValueError as e:
        raise DatasetFormatError(f"malformed header line: {e}") from None
    try:
        config = config_from_json(DatasetConfig, config_echo)
    except ValueError as e:
        raise DatasetFormatError(f"bad config echo in header: {e}") from None
    if config.n_samples != len(lines) - 1:
        problem = ("truncated dataset" if config.n_samples > len(lines) - 1
                   else "dataset has extra lines")
        raise DatasetFormatError(f"{problem}: config echo says "
                                 f"{config.n_samples} samples, file has {len(lines) - 1}")
    objects = _objects_by_fragment(config.grid_size)
    questions = _question_table(config.k_max)
    splits = {_json_value(name): name for name in config.splits()}
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        sample = _sample_from_text(line, config, objects, questions, splits)
        if sample is None:
            try:
                rec = decode_json(line)
            except ValueError as e:
                raise DatasetFormatError(f"malformed record at line {i}: {e}") from None
            sample = _sample_from_record(rec, i, config)
        samples.append(sample)
    return Dataset(config=config, samples=tuple(samples))
