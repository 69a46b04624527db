"""Deterministic synthetic grid-scene VQA dataset.

A scene is a symbolic list of objects (class, grid cell, size) on a small
grid; questions are templated token sequences over a fixed vocabulary with
question categories count / presence / comparison / rural_urban / area.
Sample i is a pure function of (seed, i): it draws from PCG64 seeded by
SeedSequence([seed, i]), as default_rng would seed it, so generation is
reproducible and order-independent. Generation derives the PCG64 states
of a chunk of indices in one vectorized pass, reads each stream's first
raw outputs, and makes a whole chunk's scene draws with array operations,
value for value as NumPy's Generator makes them (see "sample streams").
Categories and split tags are interleaved by a Webster/Sainte-Lague
apportionment schedule so every split carries every category in the
configured proportions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence, get_type_hints

import numpy as np

from .encoders import ImageObjectFeatures, QueryTokens


class TemplateError(ValueError):
    """A template emitted an invalid token sequence."""


class DatasetFormatError(ValueError):
    """A dataset file failed to parse or validate."""


OBJECT_CLASSES = ("building", "road", "water", "tree", "field")
_CLASS_INDEX = {c: i for i, c in enumerate(OBJECT_CLASSES)}
SIZES = ("small", "large")
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


@dataclass(frozen=True)
class SceneObject:
    """One object of a scene. Its two renderings are computed once per
    instance from its four fields and kept in its __dict__, outside the
    fields that ==, hash and repr read; equal objects are one instance (see
    the object store), so each distinct object is rendered once."""
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


# One store of canonical SceneObjects per grid size, keyed by
# (cls, row, col, size) and filled as objects occur: generation and import
# take every object from it, so equal objects are one shared instance. At
# most 10 * grid_size**2 entries (5 classes, 2 sizes), and only objects
# that passed validation: a hit proves the object is valid on that grid.
_OBJECT_STORES: dict = {}


def _object_store(grid_size: int) -> dict:
    return _OBJECT_STORES.setdefault(grid_size, {})


class _CodedObjects(dict):
    """The objects of one grid's store by the code generation draws them
    as, (cell * 5 + class) * 2 + size: one int per object. A code seen for
    the first time takes the store's object, or makes it there."""

    def __init__(self, grid_size: int):
        super().__init__()
        self.grid_size = grid_size
        self.store = _object_store(grid_size)

    def __missing__(self, code: int) -> SceneObject:
        cell, kind = divmod(code, len(OBJECT_CLASSES) * len(SIZES))
        c, z = divmod(kind, len(SIZES))
        key = (OBJECT_CLASSES[c], *divmod(cell, self.grid_size), SIZES[z])
        obj = self[code] = self.store.setdefault(key, SceneObject(*key))
        return obj


_objects_by_code = functools.cache(_CodedObjects)


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
    if template.category == "area":
        return area_label(class_area(scene, values["cls"]))
    raise TemplateError(f"unknown category {template.category!r}")


# ---------------------------------------------------------------------------
# configuration and samples


VARIANT_CATEGORIES = {
    "lr_like": ("count", "presence", "comparison", "rural_urban"),
    "hr_like": ("count", "presence", "comparison", "area"),
}


# get_type_hints evaluates every annotation string on each call (about
# 0.1 ms for ModelConfig, paid by every checkpoint load), so once per class
_field_types = functools.cache(get_type_hints)


def check_field_types(config) -> None:
    """Raise ValueError unless every field of the dataclass config holds
    exactly its annotated type, or an int in a float field. type(), not
    isinstance: a bool is an int, but never a count, a seed or a rate."""
    for name, kind in _field_types(type(config)).items():
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


def config_from_json(config_class, value):
    """config_class from the JSON object a file echoes it as. Its keys must
    be exactly the class's fields: a reader never fills in a default."""
    check_keys(value, [f.name for f in fields(config_class)], config_class.__name__)
    return config_class(**value)


# A sample's index is one uint32 word of its stream's entropy.
MAX_SAMPLES = 1 << 32


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


def _sample_scene(rng: np.random.Generator, config: DatasetConfig) -> Scene:
    """A scene drawn through NumPy's Generator, for the configs whose cell
    choice the chunked draws do not make (see _draws_in_chunks)."""
    grid = config.grid_size
    n_obj = int(rng.integers(config.min_objects, config.max_objects + 1))
    cells = rng.choice(grid * grid, size=n_obj, replace=False).tolist()
    classes = rng.integers(len(OBJECT_CLASSES), size=n_obj).tolist()
    sizes = rng.integers(len(SIZES), size=n_obj).tolist()
    objects = _objects_by_code(grid)
    return _scene(config, tuple(
        objects[(cell * len(OBJECT_CLASSES) + c) * len(SIZES) + z]
        for cell, c, z in zip(cells, classes, sizes)))


def _pick_balanced(rng, candidates_yes, candidates_no):
    """Choose a question slot aiming at a 50/50 yes/no answer balance."""
    want_yes = rng.random() < 0.5
    pool = candidates_yes if want_yes else candidates_no
    if not pool:
        pool = candidates_no if want_yes else candidates_yes
    return pool[int(rng.integers(len(pool)))]


def _sample_question(rng, scene: Scene, category: str):
    """Pick a template and slots for the category; returns (template_id, slots).
    rng is the sample's Generator, or its _Stream where its scene stopped:
    either one draws with random() and integers(high) alone."""
    if category == "count":
        cls = OBJECT_CLASSES[int(rng.integers(len(OBJECT_CLASSES)))]
        return 0, (cls,)
    if category == "presence":
        if rng.random() < 0.5:
            present = sorted({o.cls for o in scene.objects})
            absent = sorted(set(OBJECT_CLASSES) - set(present))
            cls = _pick_balanced(rng, present, absent)
            return 1, (cls,)
        pairs = [(s, c) for s in SIZES for c in OBJECT_CLASSES]
        have = {(o.size, o.cls) for o in scene.objects}
        yes = [p for p in pairs if p in have]
        no = [p for p in pairs if p not in have]
        return 2, tuple(_pick_balanced(rng, yes, no))
    if category == "comparison":
        # the draws of choice(5, size=2, replace=False): Floyd's picks on
        # [0, 3] and on [0, 4] (4 if that repeats the first), then the one
        # swap draw of its Fisher-Yates pass, on [0, 1]
        a = int(rng.integers(4))
        b = int(rng.integers(5))
        if b == a:
            b = 4
        if rng.integers(2) == 0:
            a, b = b, a
        return 3, (OBJECT_CLASSES[a], OBJECT_CLASSES[b])
    if category == "rural_urban":
        return 4, ()
    if category == "area":
        cls = OBJECT_CLASSES[int(rng.integers(len(OBJECT_CLASSES)))]
        return 5, (cls,)
    raise TemplateError(f"unknown category {category!r}")


# Per k_max there are at most 50 (template, slots) questions: 5 count,
# 5 + 10 presence, 20 comparison, 1 rural_urban and 5 area.
@functools.lru_cache(maxsize=1024)
def _question_tokens(template_id: int, slots: tuple, k_max: int) -> tuple:
    """tokenize() of the rendered question, computed once per question."""
    return tokenize(TEMPLATES[template_id].render(slots), k_max)


def _sample(config: DatasetConfig, scene: Scene, template_id: int, slots: tuple,
            split: str) -> VQASample:
    """Every sample, generated or imported, is built here from its drawn parts."""
    template = TEMPLATES[template_id]
    token_ids, n_tokens = _question_tokens(template_id, slots, config.k_max)
    return VQASample(scene=scene, category=template.category,
                     template_id=template_id, slots=slots,
                     token_ids=token_ids, n_tokens=n_tokens,
                     answer_index=ANSWER_INDEX[answer_oracle(scene, template, slots)],
                     split=split)


# ---------------------------------------------------------------------------
# sample streams
#
# Sample i draws from PCG64(SeedSequence([seed, i])), the stream default_rng
# gives that seed sequence. Generation derives the PCG64 states of a chunk
# of indices in one vectorized pass: SeedSequence's pool mix and
# generate_state(4, uint64) over uint32 lanes (constants from
# numpy/random/bit_generator.pyx), then PCG64's seeding with its 128-bit LCG
# multiplier (numpy/random/src/pcg64/pcg64.h). It reseeds one PCG64 per
# sample only to read the stream's first raw outputs, and makes the draws
# itself, value for value as NumPy's Generator makes them
# (numpy/random/src/distributions/distributions.c):
# - A 32-bit draw (next_uint32) takes the low half of a raw output, then
#   its high half. random() takes a whole fresh output x, as
#   (x >> 11) * 2**-53, and leaves a pending high half for the next 32-bit
#   draw.
# - integers(high), high up to 2**32, is Lemire's method on 32-bit words w:
#   m = w * high is rejected, and the next word tried, while
#   m mod 2**32 < (2**32 - high) mod high; the value is m >> 32. A bound of
#   1 takes no word and gives 0.
# - choice(n, k, replace=False), for n <= 10000 or k <= n // 50, is Floyd's
#   algorithm: a draw on [0, j] for j = n-k ... n-1, each pick the draw, or
#   j where the draw was picked before; then a Fisher-Yates pass over the
#   picks with draws on [0, i] for i = k-1 ... 1. Past those sizes NumPy
#   shuffles a tail of range(n) instead, and a grid of more than 2**32
#   cells takes 64-bit draws: configs that can reach either draw each
#   sample through a Generator.
# A scene's draws are all 32-bit, so one array op makes the same draw on
# every stream of a chunk, each from its own word; each question then
# takes its few draws, one sample at a time, from the words where its scene
# stopped. Deriving a state costs about 1 us, reseeding and reading about
# 3 us, where NumPy's SeedSequence and Generator constructors cost about
# 20 us and each Generator call 2.5 to 12 us (2-core Xeon, NumPy 2.4).

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875      # entropy mixing
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED      # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
# Indices per vectorized pass: bounds the pass's arrays and per-sample lists.
STREAM_CHUNK = 512


def _uint32_words(n: int) -> list:
    """The entropy words SeedSequence reads from a nonnegative int: 32 bits
    each, least significant first, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_mixer(const: int, mult: int):
    """SeedSequence's hashmix over uint32 lanes: each call xors its words
    with the running constant, steps the constant and multiplies by it."""
    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _MASK32
        words = words * np.uint32(const)
        return words ^ (words >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed word y into pool word x."""
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _stream_states(seed: int, indices: np.ndarray) -> list:
    """(state, inc) of PCG64(SeedSequence([seed, i])) for each uint32 index
    i: SeedSequence's pool mix and generate_state(4, uint64), computed over
    uint32 lanes of all indices at once, then PCG64's seeding, two steps of
    its 128-bit LCG from state 0."""
    entropy = [np.full(len(indices), word, dtype=np.uint32)
               for word in _uint32_words(seed)] + [indices]
    hashmix = _hash_mixer(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros_like(indices))
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hash_mixer(_INIT_B, _MULT_B)
    words = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    # four uint64 words, each a little-endian pair: state high and low, then
    # the stream's increment high and low
    halves = [(words[k] | words[k + 1] << np.uint64(32)).tolist()
              for k in range(0, 8, 2)]
    states = []
    for state_hi, state_lo, inc_hi, inc_lo in zip(*halves):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        state = ((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc
        states.append((state & _MASK128, inc))
    return states


def _chunk_states(seed: int, n: int):
    """Yield (start, states) for each chunk of indices 0 ... n-1: the first
    index and the _stream_states of the chunk's indices."""
    for start in range(0, n, STREAM_CHUNK):
        indices = np.arange(start, min(start + STREAM_CHUNK, n), dtype=np.uint32)
        yield start, _stream_states(seed, indices)


def _reseed(bit_generator: np.random.PCG64, state: int, inc: int) -> None:
    """Set bit_generator to the start of the stream with this state and inc."""
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}


def _raw_outputs(bit_generator: np.random.PCG64, states: list,
                 n_outputs: int) -> np.ndarray:
    """[len(states), n_outputs] uint64: the first raw outputs of each stream."""
    outputs = np.empty((len(states), n_outputs), dtype=np.uint64)
    for row, (state, inc) in zip(outputs, states):
        _reseed(bit_generator, state, inc)
        row[:] = bit_generator.random_raw(n_outputs)
    return outputs


class _OutOfWords(Exception):
    """A draw needs more of its stream than was read: Lemire's method
    rejected words. The chunk is drawn again from longer reads."""


def _outputs_per_stream(config: DatasetConfig) -> int:
    """Raw outputs read per stream: the scene takes at most 4 words per
    object (a Floyd pick, a shuffle swap, a class and a size, with the
    object count's draw in place of the last swap), the question at most
    3 outputs (two random() calls and one 32-bit draw), and one is spare.
    Only Lemire rejections take more."""
    return 2 * config.max_objects + 4


class _Words:
    """The 32-bit words of a chunk of streams, one row per stream, in the
    order next_uint32 takes them from the raw outputs, and each stream's
    next word. integers() makes one Generator draw on every stream at once."""

    def __init__(self, outputs: np.ndarray):
        self.words = outputs.astype("<u8", copy=False).view("<u4")
        self.lanes = np.arange(len(outputs))
        self.next = np.zeros(len(outputs), dtype=np.int64)

    def _read(self, at: np.ndarray) -> np.ndarray:
        if at.max() >= self.words.shape[1]:
            raise _OutOfWords
        return self.words[self.lanes, at].astype(np.uint64)

    def integers(self, high) -> np.ndarray:
        """Generator.integers(high) on each stream, for a bound of 1 to 2**32
        (one int, or an array of one per stream): Lemire's method."""
        high = np.asarray(high, dtype=np.uint64)
        threshold = (np.uint64(1 << 32) - high) % high
        at = self.next
        m = self._read(at) * high
        rejected = (m & np.uint64(_MASK32)) < threshold
        while rejected.any():
            at = at + rejected
            m = np.where(rejected, self._read(at) * high, m)
            rejected &= (m & np.uint64(_MASK32)) < threshold
        self.next = at + (high > 1)
        return (m >> np.uint64(32)).astype(np.int64)


class _Stream:
    """Generator.random() and .integers(high), for a bound of 1 to 2**32,
    drawn from one stream's raw outputs (a uint64 array) from its word-th
    32-bit word on."""

    def __init__(self, outputs: np.ndarray, word: int):
        self.outputs = outputs
        self.next = (word + 1) // 2                   # the next whole output
        # next_uint32's pending high half, if the scene stopped inside an output
        self.half = int(outputs[word // 2]) >> 32 if word % 2 else None

    def _output(self) -> int:
        if self.next == len(self.outputs):
            raise _OutOfWords
        self.next += 1
        return int(self.outputs[self.next - 1])

    def _uint32(self) -> int:
        if self.half is None:
            out = self._output()
            self.half = out >> 32
            return out & _MASK32
        word, self.half = self.half, None
        return word

    def random(self) -> float:
        return (self._output() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, high: int) -> int:
        if high == 1:
            return 0
        threshold = ((1 << 32) - high) % high
        m = self._uint32() * high
        while m & _MASK32 < threshold:
            m = self._uint32() * high
        return m >> 32


def _floyd_choice(words: _Words, n: int, count: np.ndarray, width: int) -> np.ndarray:
    """Generator.choice(n, count, replace=False) on each stream, in NumPy's
    Floyd branch with 32-bit draws: [streams, width] picks, the first count
    of each row drawn. A row past its count draws on [0, 0], taking no word."""
    picks = np.zeros((len(count), width), dtype=np.int64)
    for f in range(width):
        j = n - count + f
        drawn = words.integers(np.where(f < count, j + 1, 1))
        seen = (picks[:, :f] == drawn[:, None]).any(axis=1)
        picks[:, f] = np.where(seen, j, drawn)
    lanes = np.arange(len(count))
    for step in range(width - 1):
        i = np.maximum(count - 1 - step, 0)
        j = words.integers(i + 1)
        picks[lanes, i], picks[lanes, j] = picks[lanes, j], picks[lanes, i]
    return picks


def _draw_objects(words: _Words, config: DatasetConfig) -> tuple:
    """Each stream's object count and [streams, max_objects] object codes,
    the first count of each row drawn as _sample_scene's Generator calls
    draw them: the count, the cells, then every class, then every size."""
    width = config.max_objects
    count = config.min_objects + words.integers(width - config.min_objects + 1)
    cells = _floyd_choice(words, config.grid_size ** 2, count, width)
    live = np.arange(width) < count[:, None]

    def each_object(high: int) -> np.ndarray:
        return np.stack([words.integers(np.where(live[:, f], high, 1))
                         for f in range(width)], axis=1)

    classes = each_object(len(OBJECT_CLASSES))
    sizes = each_object(len(SIZES))
    return count, (cells * len(OBJECT_CLASSES) + classes) * len(SIZES) + sizes


def _draws_in_chunks(config: DatasetConfig) -> bool:
    """Whether every cell choice the config makes is in NumPy's Floyd branch
    with 32-bit draws, the choice _floyd_choice makes."""
    n = config.grid_size ** 2
    return n <= 10000 or (config.max_objects <= n // 50 and n <= 1 << 32)


def _chunk_scenes(config: DatasetConfig, bit_generator: np.random.PCG64,
                  states: list, n_outputs: int):
    """Yield (scene, rng) for each stream of a chunk: its scene, and the
    source of the draws that follow it, good until the next scene is taken
    (a Generator is reseeded for it). Raises _OutOfWords if n_outputs raw
    outputs of a stream are not enough."""
    if not _draws_in_chunks(config):
        rng = np.random.Generator(bit_generator)
        for state, inc in states:
            _reseed(bit_generator, state, inc)
            yield _sample_scene(rng, config), rng
        return
    outputs = _raw_outputs(bit_generator, states, n_outputs)
    words = _Words(outputs)
    count, codes = _draw_objects(words, config)
    objects = _objects_by_code(config.grid_size)
    for row, n_obj, row_codes, word in zip(outputs, count.tolist(), codes.tolist(),
                                           words.next.tolist()):
        yield (_scene(config, tuple(map(objects.__getitem__, row_codes[:n_obj]))),
               _Stream(row, word))


def generate_dataset(config: DatasetConfig) -> Dataset:
    """Seeded, reproducible dataset with interleaved category/split schedules."""
    categories = apportion(config.mix(), config.n_samples)
    splits = apportion(config.splits(), config.n_samples)
    bit_generator = np.random.PCG64(0)
    n_outputs = _outputs_per_stream(config)
    samples = []
    for start, states in _chunk_states(config.seed, config.n_samples):
        part = slice(start, start + len(states))
        while True:
            try:
                samples += [
                    _sample(config, scene, *_sample_question(rng, scene, category), split)
                    for (scene, rng), category, split in zip(
                        _chunk_scenes(config, bit_generator, states, n_outputs),
                        categories[part], splits[part])]
                break
            except _OutOfWords:
                n_outputs *= 2
    return Dataset(config=config, samples=tuple(samples))


def audit_dataset(dataset: Dataset) -> int:
    """Recompute every answer and validate structural bounds; returns mismatches."""
    vocabulary_ids = frozenset(range(len(VOCABULARY)))
    mismatches = 0
    for s in dataset.samples:
        template = TEMPLATES[s.template_id]
        expected = ANSWER_INDEX.get(answer_oracle(s.scene, template, s.slots))
        if expected != s.answer_index:
            mismatches += 1
        if s.n_tokens > dataset.config.k_max or len(s.token_ids) != dataset.config.k_max:
            mismatches += 1
        if not 1 <= len(s.scene.objects) <= dataset.config.t_max:
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


def _record_object(store: dict, grid_size: int, cls, row, col, size) -> SceneObject:
    """The canonical object of one record entry. Once row and col are ints
    (JSON true and 1.0 both equal 1, so either would hit the store), a store
    hit is valid by construction; a miss (or an unhashable field) runs every
    check and stores the object only if it passes."""
    if type(row) is not int or type(col) is not int:
        raise ValueError(f"object row {row!r}, col {col!r}: expected integers")
    try:
        return store[cls, row, col, size]
    except (KeyError, TypeError):
        pass
    if cls not in _CLASS_INDEX:
        raise ValueError(f"unknown object class {cls!r}")
    if size not in SIZE_FEATURE:
        raise ValueError(f"unknown object size {size!r}")
    if not (0 <= row < grid_size and 0 <= col < grid_size):
        raise ValueError(f"object at row {row}, col {col} is off the "
                         f"{grid_size}x{grid_size} grid")
    return store.setdefault((cls, row, col, size), SceneObject(cls, row, col, size))


def _same(value, expected) -> bool:
    """value == expected, with the same type item by item: to ==, JSON true
    is 1 and 1.0 is 1."""
    return value == expected and (
        list(map(type, value)) == list(map(type, expected))
        if type(value) is list else type(value) is type(expected))


def _sample_from_record(rec: dict, line_no: int, config: DatasetConfig) -> VQASample:
    """The sample of one record, rebuilt from its objects, template, slots and
    split as generation builds it, on the grid of the config echo: a record
    states no grid of its own. A drawn field generation cannot give (an
    object off that grid or unknown, the object or slot count, the template,
    the split) or a stored derived field other than the rebuilt one is a
    DatasetFormatError, and so is a value of another JSON type than the one
    export writes, or a record or scene object with other keys than export
    writes. Each object must sit on its own cell, each slot hold a value of
    its kind, and a comparison two classes."""
    try:
        (scene, category, template_id, slots, token_ids, n_tokens, answer_index,
         split) = _values(rec, RECORD_KEYS, "record")
        entries, zone_label = _values(scene, SCENE_KEYS, "scene")
        store = _object_store(config.grid_size)
        objects = tuple(_record_object(store, config.grid_size, cls, row, col, size)
                        for cls, row, col, size in entries)
        if not 1 <= len(objects) <= config.t_max:
            raise ValueError(f"{len(objects)} objects, expected 1 to "
                             f"t_max={config.t_max}")
        cells = {(o.row, o.col) for o in objects}
        if len(cells) != len(objects):
            raise ValueError(f"{len(objects)} objects on {len(cells)} grid "
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
        sample = _sample(config, _scene(config, objects), template_id, slots, split)
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
    """Parse an exported dataset; raises DatasetFormatError, never a partial result."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise DatasetFormatError(f"dataset file {path} is not UTF-8 text") from None
    if not lines:
        raise DatasetFormatError("empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
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
        raise DatasetFormatError(f"truncated dataset: config echo says "
                                 f"{config.n_samples} samples, file has {len(lines) - 1}")
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"malformed record at line {i}: {e}") from None
        samples.append(_sample_from_record(rec, i, config))
    return Dataset(config=config, samples=tuple(samples))
