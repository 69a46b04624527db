"""Deterministic synthetic grid-scene VQA dataset.

A scene is a symbolic list of objects (class, grid cell, size) on a small
grid; questions are templated token sequences over a fixed vocabulary with
question categories count / presence / comparison / rural_urban / area.
Every draw comes from one PCG64 stream seeded with the dataset seed, and
sample i reads its own fixed block of that stream's raw outputs, so it is a
pure function of (seed, i) and generation is reproducible. A chunk of
samples is one read of the stream, and its scene and question draws are
array operations over fixed columns of the blocks (see "sample streams").
Categories are interleaved by a Webster/Sainte-Lague apportionment
schedule, and split tags by one such schedule within each category's
samples, so every split carries every category in the configured
proportions.

Generation and import build samples a chunk of STREAM_CHUNK at a time
through one builder, _chunk_samples (see "chunk builder"). It takes the
chunk's object codes, one int per object as generation draws them or
import reads them from a record's text, and one array tally of each
scene's objects of each (class, size) gives every zone and every answer.
audit_dataset checks them independently, walking each scene's objects.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from .encoders import ImageObjectFeatures, QueryTokens


class DatasetFormatError(ValueError):
    """A dataset file failed to parse or validate."""


OBJECT_CLASSES = ("building", "road", "water", "tree", "field")
_CLASS_INDEX = {c: i for i, c in enumerate(OBJECT_CLASSES)}
SIZES = ("small", "large")
_SIZE_INDEX = {s: i for i, s in enumerate(SIZES)}
# The kinds of object, class * 2 + size: an object's code modulo KINDS.
KINDS = len(OBJECT_CLASSES) * len(SIZES)
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
    them as, cell * KINDS + class * 2 + size with cell = row * grid_size +
    col: one int per object, at most 10 * grid_size**2 of them. Generation
    and import build every scene from codes through this table, so equal
    objects are one shared instance; a code seen for the first time makes
    its object."""

    def __init__(self, grid_size: int):
        super().__init__()
        self.grid_size = grid_size

    def __missing__(self, code: int) -> SceneObject:
        cell, kind = divmod(code, KINDS)
        c, z = divmod(kind, len(SIZES))
        obj = self[code] = SceneObject(OBJECT_CLASSES[c], *divmod(cell, self.grid_size),
                                       SIZES[z])
        return obj


_objects_by_code = functools.cache(_CodedObjects)


class _FragmentCodes(dict):
    """The codes of one grid's objects by their json_fragment's text between
    its outer brackets ('"road", 3, 4, "small"'), as a record line exactly
    as export writes it lists them. A text seen for the first time is
    decoded and checked once through _record_code, and kept only if it is
    its object's own rendering; a text that is not raises KeyError."""

    def __init__(self, grid_size: int):
        super().__init__()
        self.grid_size = grid_size

    def __missing__(self, body: str) -> int:
        fragment = "[" + body + "]"
        try:
            code = _record_code(self.grid_size, *decode_json(fragment))
        except (TypeError, ValueError):
            raise KeyError(body) from None
        if _objects_by_code(self.grid_size)[code].json_fragment != fragment:
            raise KeyError(body)
        self[body] = code
        return code


_codes_by_fragment = functools.cache(_FragmentCodes)


class Scene(NamedTuple):
    """Symbolic grid scene; zone_label is derived from building density.
    A NamedTuple, as VQASample: immutable, compared, hashed and shown field
    by field, and built at a fraction of a frozen dataclass's cost."""
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
    # a dict, so outside the hash: a config hashes by its other fields, a
    # subset of those == compares, and equal configs hash equal
    category_mix: dict = field(default_factory=dict, hash=False)

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


class VQASample(NamedTuple):
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
#   3M+1 ... 3M+3    the question's words (_draw_questions).
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
# operation over a column of them. The chunk's object codes, cell * KINDS +
# class * 2 + size, give its tally (_tally); the question words and the
# tally give each sample's question (_draw_questions); and codes, tally and
# questions go to _chunk_samples, which builds the chunk's samples.

# Samples per raw read, and record lines per import chunk: bounds the
# chunk's arrays and per-sample lists.
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


def _coin(words: np.ndarray) -> np.ndarray:
    """Fair coins from 32-bit words: heads on the lower half of their range."""
    return words < 1 << 31


def _chunk_words(stream: np.random.PCG64, chunk: int, width: int) -> np.ndarray:
    """The next chunk blocks of the stream as [chunk, 2 * width] uint32
    words: each raw output's low half, then its high half."""
    words = stream.random_raw(chunk * width).astype("<u8", copy=False).view("<u4")
    return words.reshape(chunk, 2 * width)


def _draw_objects(words: np.ndarray, config: DatasetConfig) -> tuple:
    """Each sample's object count and [chunk, max_objects] object codes,
    cell * KINDS + class * 2 + size, from a chunk's [chunk, 2W] words; the
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


def _pick_balanced(want: np.ndarray, pick: np.ndarray, has: np.ndarray) -> np.ndarray:
    """Each row's pick among its candidates, the columns of its row of the
    [n, k] booleans has (True where the candidate's answer is yes), aiming
    at a 50/50 yes/no answer balance: a coin of its want word for the
    wanted answer, then a draw of its pick word among the candidates that
    give it, or among all of them where none does."""
    pool = has == _coin(want).reshape(-1, 1)
    size = pool.sum(axis=1)
    pool |= (size == 0).reshape(-1, 1)
    size = np.where(size == 0, has.shape[1], size)
    at = _below(pick, size.astype(np.uint64)).astype(np.int64)
    return (np.cumsum(pool, axis=1) > at.reshape(-1, 1)).argmax(axis=1)


# Presence pools list classes by name: the class index of each name in order.
_BY_NAME = np.argsort(OBJECT_CLASSES)


def _draw_questions(words: np.ndarray, tally: np.ndarray,
                    categories: Sequence[str]) -> np.ndarray:
    """Each row's question, an index into _QUESTIONS, for its category from
    its QUESTION_WORDS of the [n, QUESTION_WORDS] words, each read at most
    once, and its row of the tally (see _tally). A presence question asks
    of a class, its candidates the classes by name, on a coin of its first
    word, or else of a (size, class) pair, its candidates by size, then
    class."""
    first, second, third = words.astype(np.uint64).T
    cls = _below(first, np.uint64(len(OBJECT_CLASSES))).astype(np.int64)
    # two distinct classes: b among the four that are not a
    other = _below(second, np.uint64(len(OBJECT_CLASSES) - 1)).astype(np.int64)
    other += other >= cls
    present = tally.sum(axis=2)[:, _BY_NAME] > 0
    pairs = tally.transpose(0, 2, 1).reshape(len(tally), -1) > 0
    count, presence, sized, comparison, rural_urban, area = _QUESTION_GRIDS
    candidates = {
        "count": count[cls],
        "presence": np.where(_coin(first),
                             presence[_BY_NAME[_pick_balanced(second, third, present)]],
                             sized.ravel()[_pick_balanced(second, third, pairs)]),
        "comparison": comparison[cls, other],
        "rural_urban": rural_urban,
        "area": area[cls]}
    drawn = np.array(categories)
    return np.select([drawn == category for category in candidates],
                     list(candidates.values()))


def generate_dataset(config: DatasetConfig) -> Dataset:
    """Seeded, reproducible dataset: each sample drawn from its own block
    of one stream (see "sample streams"), its category from an interleaved
    schedule, and its split from one schedule within each category. Each
    chunk's drawn codes and questions go to _chunk_samples."""
    categories = apportion(config.mix(), config.n_samples)
    per_category = {category: iter(apportion(config.splits(), categories.count(category)))
                    for category in config.mix()}
    splits = [next(per_category[category]) for category in categories]
    width = _outputs_per_sample(config)
    questions_at = 1 + 3 * config.max_objects
    stream = np.random.PCG64(config.seed)
    samples = []
    for start in range(0, config.n_samples, STREAM_CHUNK):
        part = slice(start, min(start + STREAM_CHUNK, config.n_samples))
        words = _chunk_words(stream, part.stop - start, width)
        count, codes = _draw_objects(words, config)
        tally = _tally(count, codes)
        questions = _draw_questions(words[:, questions_at:questions_at + QUESTION_WORDS],
                                    tally, categories[part])
        samples += _chunk_samples(config, count, codes, tally, questions.tolist(),
                                  splits[part])
    return Dataset(config=config, samples=tuple(samples))


# ---------------------------------------------------------------------------
# chunk builder
#
# Every sample, generated or imported, is built by _chunk_samples from its
# chunk's [n, width] object codes: row i's first count[i] codes are its
# scene's objects, in order, and width is at least the largest count. One
# array pass over the codes, _tally, counts each scene's objects of each
# kind (code % KINDS is class * 2 + size). A scene is urban from
# urban_threshold buildings on, and each of the _QUESTIONS answers by its
# category's rule applied to one readout of the scene's tally row, a
# weighted sum of its counts (_readout, _answers). Import's check of one
# object per cell sorts each row's cells (code // KINDS, _distinct_cells).
# answer_oracle, which walks a scene's objects, stays the independent
# check of both (audit_dataset and the tests).

# Every question generation can give, (template_id, slots): each a known
# template with a value of its kind in every slot, and a comparison two
# classes. 46 of them: 5 count, 5 + 10 presence, 20 comparison, 1
# rural_urban and 5 area.
_QUESTIONS = tuple(
    (template_id, slots) for template_id, template in enumerate(TEMPLATES)
    for slots in itertools.product(*map(SLOT_VALUES.get, template.slot_names))
    if template.category != "comparison" or slots[0] != slots[1])
_QUESTION_INDEX = {question: q for q, question in enumerate(_QUESTIONS)}


def _question_grid(template_id: int) -> np.ndarray:
    """The index in _QUESTIONS of each question of a template, over the
    indices of its slots' values in SLOT_VALUES; -1 where there is none."""
    names = TEMPLATES[template_id].slot_names
    grid = np.full([len(SLOT_VALUES[name]) for name in names], -1)
    for at in np.ndindex(grid.shape):
        slots = tuple(SLOT_VALUES[name][i] for name, i in zip(names, at))
        grid[at] = _QUESTION_INDEX.get((template_id, slots), -1)
    return grid


_QUESTION_GRIDS = tuple(map(_question_grid, range(len(TEMPLATES))))


@functools.cache
def _questions(k_max: int) -> tuple:
    """The one question table: the VQASample fields each of the _QUESTIONS
    fills, by its index, as (category, template_id, slots, token_ids padded
    to k_max, n_tokens). Every word is in VOCABULARY and DatasetConfig
    keeps k_max at least MAX_QUESTION_TOKENS."""
    table = []
    for template_id, slots in _QUESTIONS:
        template = TEMPLATES[template_id]
        ids = [TOKEN_IDS[word] for word in template.render(slots)]
        padding = [TOKEN_IDS[PAD_TOKEN]] * (k_max - len(ids))
        table.append((template.category, template_id, slots, tuple(ids + padding), len(ids)))
    return tuple(table)


def _readout(template_id: int, slots: tuple) -> np.ndarray:
    """The [classes, sizes] weights of the tally counts whose sum a
    question's rule reads: the objects of its class (count, presence), of
    its size and class (sized presence), of cls_a less those of cls_b
    (comparison), the buildings (rural_urban), or its class's cells (area)."""
    template = TEMPLATES[template_id]
    values = dict(zip(template.slot_names, slots))
    weights = np.zeros((len(OBJECT_CLASSES), len(SIZES)), dtype=np.int64)
    if template.category == "rural_urban":
        weights[_CLASS_INDEX["building"]] = 1
    elif template.category == "comparison":
        weights[_CLASS_INDEX[values["cls_a"]]] = 1
        weights[_CLASS_INDEX[values["cls_b"]]] = -1
    elif template.category == "area":
        weights[_CLASS_INDEX[values["cls"]]] = [SIZE_CELLS[size] for size in SIZES]
    elif "size" in values:
        weights[_CLASS_INDEX[values["cls"]], _SIZE_INDEX[values["size"]]] = 1
    else:
        weights[_CLASS_INDEX[values["cls"]]] = 1
    return weights


# Each category's rule, an index into the choices of _answers: the count's
# label, "yes" on a positive readout, the zone, the area bin.
_RULE_OF = {"count": 0, "presence": 1, "comparison": 1, "rural_urban": 2, "area": 3}
_READOUTS = np.array([_readout(*question) for question in _QUESTIONS])
_RULES = np.array([_RULE_OF[TEMPLATES[template_id].category]
                   for template_id, _ in _QUESTIONS])


def _tally(count: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """[n, classes, sizes]: each row's objects of each kind, counted over
    the first count[i] codes of row i of [n, width] codes as a sum of
    boolean one-hot rows; padding is kind KINDS, which none matches."""
    objects = np.arange(codes.shape[1]) < count.reshape(-1, 1)
    kinds = np.where(objects, codes % KINDS, KINDS)
    one_hot = kinds[:, :, None] == np.arange(KINDS)
    return one_hot.sum(axis=1).reshape(-1, len(OBJECT_CLASSES), len(SIZES))


def _answers(tally: np.ndarray, questions, urban_threshold: int) -> np.ndarray:
    """The answer index of each row's question, an index into _QUESTIONS,
    by its rule on its readout of the row's tally."""
    questions = np.asarray(questions, dtype=np.int64)
    readout = (tally * _READOUTS[questions]).sum(axis=(1, 2))
    return np.choose(_RULES[questions], (
        ANSWER_INDEX[COUNT_LABELS[0]] + np.minimum(readout, len(COUNT_LABELS) - 1),
        ANSWER_INDEX["no"] + (readout > 0),
        ANSWER_INDEX[ZONE_LABELS[0]] + (readout >= urban_threshold),
        ANSWER_INDEX[AREA_BIN_LABELS[0]] + np.searchsorted(AREA_BIN_EDGES, readout,
                                                           side="right")))


def _distinct_cells(count: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The number of distinct grid cells among each row's objects, the
    first count[i] codes of row i, from the row's sorted cells; padding
    sorts first as cell -1."""
    objects = np.arange(codes.shape[1]) < count.reshape(-1, 1)
    cells = np.sort(np.where(objects, codes // KINDS, -1), axis=1)
    repeats = (cells[:, 1:] == cells[:, :-1]) & (cells[:, 1:] >= 0)
    return count - repeats.sum(axis=1)


def _chunk_samples(config: DatasetConfig, count: np.ndarray, codes: np.ndarray,
                   tally: np.ndarray, questions, splits: Sequence[str]) -> list:
    """The samples of a chunk, generated or imported: row i's scene holds
    the objects of the first count[i] of its [n, width] codes on config's
    grid, its question is _QUESTIONS[questions[i]] and its split splits[i];
    tally is _tally(count, codes), which gives every zone and answer. The
    builder checks nothing: the reader of the codes does."""
    urban = tally[:, _CLASS_INDEX["building"]].sum(axis=1) >= config.urban_threshold
    answers = _answers(tally, questions, config.urban_threshold)
    object_of = _objects_by_code(config.grid_size).__getitem__
    fields_of = _questions(config.k_max)
    samples = []
    for n, row, zone, question, answer, split in zip(
            count.tolist(), codes.tolist(), urban.tolist(), questions,
            answers.tolist(), splits):
        scene = Scene(config.grid_size, tuple(map(object_of, row[:n])), ZONE_LABELS[zone])
        samples.append(VQASample(scene, *fields_of[question], answer, split))
    return samples


def audit_dataset(dataset: Dataset) -> int:
    """The number of failed checks over every sample, each recomputed from
    the sample's own drawn fields by walking its scene's objects in Python:
    the independent check of the array path that built them. A sample
    fails a check when its zone is not the one its buildings give, its
    question is not one of _QUESTIONS or its category, token ids and count
    are not its template's and that question's, its answer is not
    answer_oracle's on its scene with the recomputed zone, or its object
    count is one generation cannot draw."""
    config = dataset.config
    questions = _questions(config.k_max)
    mismatches = 0
    for s in dataset.samples:
        scene = s.scene
        buildings = count_class(scene, "building")
        zone = ZONE_LABELS[buildings >= config.urban_threshold]
        if zone != scene.zone_label:
            mismatches += 1
            scene = scene._replace(zone_label=zone)
        question = _QUESTION_INDEX.get((s.template_id, s.slots))
        if question is None:
            mismatches += 1
        else:
            if (s.category, s.template_id, s.slots, s.token_ids,
                    s.n_tokens) != questions[question]:
                mismatches += 1
            template = TEMPLATES[s.template_id]
            if ANSWER_INDEX[answer_oracle(scene, template, s.slots)] != s.answer_index:
                mismatches += 1
        if not config.min_objects <= len(scene.objects) <= config.max_objects:
            mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# persistence: line-delimited JSON, bit-exact round trip


FORMAT_NAME = "mibvqa-dataset"
FORMAT_VERSION = 3

# The keys of each kind of JSON object in a dataset file, stated once and
# sorted: export writes exactly these, and import reads them in this order
# and rejects an object with a key missing or one more. A record holds what
# generation draws for its sample; import derives the rest (_chunk_samples).
HEADER_KEYS = ("config", "format", "version")
RECORD_KEYS = ("objects", "slots", "split", "template_id")


def _json_pattern(keys: tuple) -> str:
    """The %-format pattern of a JSON object with these keys as
    json.dumps(sort_keys=True) writes it, a %s for each key's value."""
    return "{" + ", ".join(f"{json.dumps(key)}: %s" for key in sorted(keys)) + "}"


# A record line cut inside its objects list, its first value: the head,
# through the list's "[", is the same on every line, and the tail, from the
# "]" that closes the list to the line's end, is one of a few per dataset,
# one for each question and split (_record_tails). Each object's own
# fragment fills the list between them.
_HEAD, _TAIL = _json_pattern(RECORD_KEYS).replace("%s", "[%s]", 1).split("%s", 1)
_tail_values = operator.attrgetter(*RECORD_KEYS[1:])
# import cuts a line after the "[" that opens its first object, and at the
# first tail's start after that
_OBJECTS_OPEN = _HEAD + "["
_OBJECTS_CLOSE = _TAIL.split("%s")[0]

# The most tails _tail keeps: a dataset has 46 questions times its splits.
_RENDERED_MAX = 1024
_tails = {}


def _tail(values: tuple) -> str:
    """_TAIL with each %s filled by json.dumps of its value, a tuple written
    as a list, memoized by value. A kept text is reused only for the very
    objects it was rendered from: an equal value of another JSON spelling
    (True or 1.0 where 1 was, or -0.0 where 0 was) is rendered anew. Every
    sample generation or import builds shares its question's slots tuple
    and its config's split string, so export renders each distinct tail
    once."""
    kept = _tails.get(values)
    if kept is not None and all(map(operator.is_, kept[0], values)):
        return kept[1]
    if len(_tails) >= _RENDERED_MAX:
        _tails.clear()
    text = _TAIL % tuple(map(json.dumps, values))
    _tails[values] = values, text
    return text


def _values(value: dict, keys: tuple, what: str) -> list:
    """The values of keys in the JSON object value, which has exactly these."""
    check_keys(value, keys, what)
    return list(map(value.__getitem__, keys))


def _record_code(grid_size: int, cls, row, col, size) -> int:
    """The code of one record entry, its object's key in _objects_by_code,
    from the checks of its class, its size and its cell on the grid."""
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
    return (row * grid_size + col) * KINDS + c * len(SIZES) + z


def _sample_from_record(rec: dict, line_no: int, config: DatasetConfig) -> VQASample:
    """The sample of one decoded record, built from its objects, template,
    slots and split by _chunk_samples as a one-row chunk, on the grid of the
    config echo: a record states no grid of its own. import_dataset calls it
    for every line of a chunk _chunk_from_text does not read, so it is the
    one reader of any other JSON spelling of a record and the one source of
    record errors.

    A field generation cannot give (an object off that grid or unknown, the
    object or slot count, the template, the split) is a DatasetFormatError,
    and so is a value of another JSON type than the one export writes, or a
    record with other keys than export writes. Each object must sit on its
    own cell, each slot hold a value of its kind, and a comparison two
    classes."""
    try:
        entries, slots, split, template_id = _values(rec, RECORD_KEYS, "record")
        codes = [_record_code(config.grid_size, cls, row, col, size)
                 for cls, row, col, size in entries]
        if not config.min_objects <= len(codes) <= config.max_objects:
            raise ValueError(f"{len(codes)} objects, expected min_objects="
                             f"{config.min_objects} to max_objects={config.max_objects}")
        count, codes = np.array([len(codes)]), np.array([codes], dtype=np.int64)
        cells = _distinct_cells(count, codes).item()
        if cells != count.item():
            raise ValueError(f"{count.item()} objects on {cells} grid "
                             f"cells: generation puts each on its own cell")
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
        # the config's own string, as every other builder's split is, so
        # that export's memo of record tails knows it (_tail)
        split = next(name for name in config.splits() if name == split)
        sample, = _chunk_samples(config, count, codes, _tally(count, codes),
                                 [_QUESTION_INDEX[template_id, slots]], [split])
        return sample
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as e:
        raise DatasetFormatError(f"malformed sample record at line {line_no}: {e}") from None


@functools.cache
def _record_tails(splits: tuple) -> dict:
    """Every tail export writes for a dataset of these splits, by its text,
    rendered by _tail: each gives its question's index in _QUESTIONS and
    its split."""
    return {_tail((slots, split, template_id)): (question, split)
            for question, (template_id, slots) in enumerate(_QUESTIONS)
            for split in splits}


def _chunk_from_text(lines: list, config: DatasetConfig) -> list | None:
    """The samples of a chunk of record lines, each exactly as export
    writes it, read by their text and built by one _chunk_samples call; None
    unless the whole chunk can be vouched for, and _read_chunk then reads
    every line of it as JSON.

    Each line must open with _OBJECTS_OPEN, and is cut there and at the
    first tail's start after that. Its tail must be among the _record_tails
    of config's splits; its objects, joined as export joins them, must each
    be the json_fragment of an object on config's grid (_codes_by_fragment);
    its object count must be one generation draws, and its objects must lie
    on distinct cells.

    Such a line is the head, objects and tail export writes for the sample
    it gives, so its JSON value is a record _sample_from_record accepts and
    builds into an equal sample."""
    tails = _record_tails(tuple(config.splits()))
    fragment_codes = _codes_by_fragment(config.grid_size)
    start = len(_OBJECTS_OPEN)
    line_tails, counts, bodies = [], [], []
    try:
        for line in lines:
            # a line without the cut at the tail gives a tail text that no
            # line export writes has
            stop = line.find(_OBJECTS_CLOSE, start)
            if not line.startswith(_OBJECTS_OPEN) or line[stop - 1] != "]":
                return None
            line_tails.append(tails[line[stop:]])
            objects = line[start:stop - 1].split("], [")
            counts.append(len(objects))
            bodies += objects
        flat = list(map(fragment_codes.__getitem__, bodies))
    except KeyError:
        return None
    count = np.array(counts, dtype=np.int64)
    if count.min() < config.min_objects or count.max() > config.max_objects:
        return None
    codes = np.zeros((len(lines), config.max_objects), dtype=np.int64)
    codes[np.arange(config.max_objects) < count.reshape(-1, 1)] = flat
    if (_distinct_cells(count, codes) != count).any():
        return None
    questions, splits = zip(*line_tails)
    return _chunk_samples(config, count, codes, _tally(count, codes), questions, splits)


def _read_chunk(lines: list, line_no: int, config: DatasetConfig) -> list:
    """The samples of a chunk of record lines, the first at line_no: the
    chunk read by its text, or else every line of it decoded and read by
    _sample_from_record, in file order, so the first bad line raises."""
    samples = _chunk_from_text(lines, config)
    if samples is not None:
        return samples
    samples = []
    for at, line in enumerate(lines, start=line_no):
        try:
            rec = decode_json(line)
        except ValueError as e:
            raise DatasetFormatError(f"malformed record at line {at}: {e}") from None
        samples.append(_sample_from_record(rec, at, config))
    return samples


def export_dataset(dataset: Dataset, path) -> None:
    """One header line, then one record per sample. The header holds the
    format name, its version and the config echo, whose n_samples is the
    record count; a record holds the sample's objects, template, slots and
    split, from which import derives the rest.

    Each line is what json.dumps(sort_keys=True) writes, assembled from the
    constant _HEAD, its objects' cached json_fragments and its cached tail
    (_tail), and each STREAM_CHUNK lines are written at once: the file is
    never held whole in memory."""
    header = dict(zip(HEADER_KEYS, (asdict(dataset.config), FORMAT_NAME,
                                    FORMAT_VERSION), strict=True))
    samples = dataset.samples
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(samples), STREAM_CHUNK):
            f.write("\n".join([
                _HEAD + ", ".join([obj.json_fragment for obj in s.scene.objects])
                + _tail(_tail_values(s)) for s in samples[start:start + STREAM_CHUNK]]) + "\n")


def import_dataset(path) -> Dataset:
    """Parse an exported dataset; raises DatasetFormatError, never a partial result.

    Lines end at a newline only, as in JSON Lines, not at a lone carriage
    return or the other line boundaries str.splitlines knows; a carriage
    return before a newline is JSON whitespace at the end of its line,
    dropped before any line is read, and the newline that ends the last
    line ends no line after it. The records are read STREAM_CHUNK lines at
    a time (_read_chunk). A chunk whose every line is exactly as export
    writes it is read by the texts of each line's objects and tail
    (_chunk_from_text), without a JSON decode once its objects are known,
    and built by one _chunk_samples call; every line of any other chunk is
    decoded with decode_json and read by _sample_from_record, which gives
    the same sample for any JSON spelling of the same record and raises
    every record error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            lines = f.read().replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError:
        raise DatasetFormatError(f"dataset file {path} is not UTF-8 text") from None
    if lines[-1] == "":
        lines.pop()
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
    samples = []
    for start in range(1, len(lines), STREAM_CHUNK):
        samples += _read_chunk(lines[start:start + STREAM_CHUNK], start + 1, config)
    return Dataset(config=config, samples=tuple(samples))
