"""Synthetic scene/question generator: oracles, determinism, serialization."""

from __future__ import annotations

import dataclasses
import json
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvqa import data as dt
from mibvqa.data import (
    ANSWER_INDEX,
    ANSWERS,
    AREA_BIN_LABELS,
    OBJECT_CLASSES,
    PAD_TOKEN,
    SIZE_CELLS,
    SIZE_FEATURE,
    TEMPLATES,
    TOKEN_IDS,
    VOCABULARY,
    DatasetConfig,
    DatasetFormatError,
    Scene,
    SceneObject,
    TemplateError,
    answer_oracle,
    apportion,
    area_label,
    audit_dataset,
    count_label,
    class_area,
    export_dataset,
    generate_dataset,
    import_dataset,
    scene_features,
    tokenize,
)
from helpers_oracles import (
    reference_apportion,
    reference_export_text,
    reference_generate_dataset,
    reference_import_samples,
    reference_sample_question,
    zone_of,
)


def scene_of(objs, grid=8, urban_threshold=3) -> Scene:
    objects = tuple(SceneObject(*o) for o in objs)
    return Scene(grid, objects, zone_of(objects, urban_threshold))


# ---------------------------------------------------------------- labels


def test_count_labels_bin_at_ten():
    assert count_label(0) == "0"
    assert count_label(9) == "9"
    assert count_label(10) == "10+"
    assert count_label(14) == "10+"


def test_area_labels_follow_frozen_edges():
    assert area_label(0) == "0-1" and area_label(1) == "0-1"
    assert area_label(2) == "2-4" and area_label(4) == "2-4"
    assert area_label(5) == "5-7" and area_label(7) == "5-7"
    assert area_label(8) == "8+" and area_label(40) == "8+"


def test_answer_space_has_nineteen_distinct_answers():
    assert len(ANSWERS) == 19
    assert len(set(ANSWERS)) == 19
    per_category = [
        ("no", "yes"),                                  # presence, comparison
        tuple(str(i) for i in range(10)) + ("10+",),    # count
        ("rural", "urban"),                             # rural_urban
        AREA_BIN_LABELS,                                # area
    ]
    for labels in per_category:
        for label in labels:
            assert ANSWERS[ANSWER_INDEX[label]] == label
    # the per-category label sets partition the answer space
    assert sorted(a for labels in per_category for a in labels) == sorted(ANSWERS)


def test_zone_threshold_counts_buildings():
    base = [("building", 0, 0, "small"), ("building", 1, 1, "large"),
            ("road", 2, 2, "small")]
    assert zone_of(tuple(SceneObject(*o) for o in base), 3) == "rural"
    urban = base + [("building", 3, 3, "small")]
    assert zone_of(tuple(SceneObject(*o) for o in urban), 3) == "urban"
    # generation inlines the same rule
    for s in generate_dataset(DatasetConfig(n_samples=200, seed=5)).samples:
        assert s.scene.zone_label == zone_of(s.scene.objects, 3)


# ---------------------------------------------------------------- oracle


def test_presence_of_absent_class_is_no():
    scene = scene_of([("road", 0, 0, "small")])
    tmpl = TEMPLATES[1]
    assert answer_oracle(scene, tmpl, ("water",)) == "no"


def test_comparison_tie_is_no():
    scene = scene_of(
        [("building", 0, 0, "small"), ("building", 1, 0, "small"),
         ("building", 2, 0, "small"), ("road", 0, 1, "small"),
         ("road", 1, 1, "small"), ("road", 2, 1, "small")]
    )
    tmpl = TEMPLATES[3]
    assert answer_oracle(scene, tmpl, ("building", "road")) == "no"


def test_area_weights_two_large_one_small_is_nine_cells():
    scene = scene_of(
        [("water", 0, 0, "large"), ("water", 2, 2, "large"),
         ("water", 4, 4, "small")]
    )
    assert class_area(scene, "water") == 9
    tmpl = TEMPLATES[5]
    assert answer_oracle(scene, tmpl, ("water",)) == "8+"


def test_sized_presence_distinguishes_sizes():
    scene = scene_of([("tree", 0, 0, "small")])
    tmpl = TEMPLATES[2]
    assert answer_oracle(scene, tmpl, ("small", "tree")) == "yes"
    assert answer_oracle(scene, tmpl, ("large", "tree")) == "no"


def test_count_oracle_bins():
    objs = [("field", i, 0, "small") for i in range(8)]
    scene = scene_of(objs)
    tmpl = TEMPLATES[0]
    assert answer_oracle(scene, tmpl, ("field",)) == "8"
    assert answer_oracle(scene, tmpl, ("tree",)) == "0"


def test_rural_urban_oracle_uses_zone_label():
    scene = scene_of([("building", i, i, "small") for i in range(4)])
    tmpl = TEMPLATES[4]
    assert answer_oracle(scene, tmpl, ()) == "urban"


# ---------------------------------------------------------------- recount


def test_independent_recount_of_generated_answers():
    # Recompute every answer with logic written here from scratch (loops and
    # dict arithmetic only) and compare against the stored labels.
    ds = generate_dataset(DatasetConfig(n_samples=1000, seed=21))
    for sample in ds.samples:
        template = TEMPLATES[sample.template_id]
        slots = sample.slots
        counts: dict = {}
        per_size: dict = {}
        for obj in sample.scene.objects:
            counts[obj.cls] = counts.get(obj.cls, 0) + 1
            per_size[(obj.cls, obj.size)] = per_size.get((obj.cls, obj.size), 0) + 1

        cat = sample.category
        if cat == "count":
            n = counts.get(slots[0], 0)
            expected = str(n) if n < 10 else "10+"
        elif cat == "presence" and len(template.slot_names) == 1:
            expected = "yes" if counts.get(slots[0], 0) > 0 else "no"
        elif cat == "presence":
            size, cls = slots
            expected = "yes" if per_size.get((cls, size), 0) > 0 else "no"
        elif cat == "comparison":
            a, b = slots
            expected = "yes" if counts.get(a, 0) > counts.get(b, 0) else "no"
        elif cat == "rural_urban":
            expected = "urban" if counts.get("building", 0) >= 3 else "rural"
        else:  # area
            cells = sum(
                (4 if obj.size == "large" else 1)
                for obj in sample.scene.objects if obj.cls == slots[0]
            )
            if cells <= 1:
                expected = "0-1"
            elif cells <= 4:
                expected = "2-4"
            elif cells <= 7:
                expected = "5-7"
            else:
                expected = "8+"
        assert ANSWERS[sample.answer_index] == expected


def test_audit_finds_zero_mismatches():
    ds = generate_dataset(DatasetConfig(n_samples=500, seed=22))
    assert audit_dataset(ds) == 0


@pytest.mark.parametrize("bad_id", [-1, len(VOCABULARY)])
def test_audit_counts_a_token_id_outside_the_vocabulary(bad_id):
    ds = generate_dataset(DatasetConfig(n_samples=4, seed=22))
    sample = ds.samples[0]
    token_ids = (bad_id,) + sample.token_ids[1:]
    edited = dataclasses.replace(sample, token_ids=token_ids)
    hand_built = dt.Dataset(config=ds.config, samples=(edited,) + ds.samples[1:])
    assert audit_dataset(hand_built) == 1


# ---------------------------------------------------------------- scenes


def test_scene_invariants_hold_across_samples():
    cfg = DatasetConfig(n_samples=300, seed=23)
    ds = generate_dataset(cfg)
    for sample in ds.samples:
        scene = sample.scene
        assert cfg.min_objects <= len(scene.objects) <= cfg.max_objects
        cells = {(o.row, o.col) for o in scene.objects}
        assert len(cells) == len(scene.objects)  # no two objects share a cell
        for o in scene.objects:
            assert 0 <= o.row < cfg.grid_size and 0 <= o.col < cfg.grid_size
            assert o.cls in OBJECT_CLASSES and o.size in SIZE_CELLS


def test_scene_features_layout():
    scene = scene_of([("road", 2, 7, "large")])
    other = scene_of([("tree", 0, 0, "small"), ("water", 1, 1, "small")])
    feats = scene_features([scene, other], t_max=4)
    assert feats.matrix.shape == (2, 4, 8)
    assert feats.object_mask.tolist() == [[True, False, False, False],
                                          [True, True, False, False]]
    row = feats.matrix[0, 0]
    onehot = row[:5]
    assert onehot[OBJECT_CLASSES.index("road")] == 1.0 and onehot.sum() == 1.0
    assert row[5] == pytest.approx(7 / 7)  # x = col / (grid - 1)
    assert row[6] == pytest.approx(2 / 7)  # y = row / (grid - 1)
    assert row[7] == 1.0  # large size feature
    np.testing.assert_array_equal(feats.matrix[0, 1:], 0.0)
    assert feats.matrix[1, 1, OBJECT_CLASSES.index("water")] == 1.0
    assert feats.matrix[1, 1, 7] == 0.5  # small size feature
    np.testing.assert_array_equal(feats.matrix[1, 2:], 0.0)


def _scene_features_loop(scenes, t_max):
    """Object-by-object fill, each field read from the object: the oracle
    of scene_features."""
    n_cls = len(OBJECT_CLASSES)
    mat = np.zeros((len(scenes), t_max, n_cls + 3))
    for i, scene in enumerate(scenes):
        denom = max(scene.grid_size - 1, 1)
        for j, obj in enumerate(scene.objects):
            mat[i, j, OBJECT_CLASSES.index(obj.cls)] = 1.0
            mat[i, j, n_cls:] = (obj.col / denom, obj.row / denom,
                                 SIZE_FEATURE[obj.size])
    return mat


def _scene_on(grid_size: int) -> st.SearchStrategy:
    """Scenes on one grid, their objects built directly, each on its own cell."""
    objects = st.builds(SceneObject, st.sampled_from(OBJECT_CLASSES),
                        st.integers(0, grid_size - 1), st.integers(0, grid_size - 1),
                        st.sampled_from(sorted(SIZE_FEATURE)))
    return st.lists(objects, min_size=1, max_size=min(6, grid_size ** 2),
                    unique_by=lambda o: (o.row, o.col)).map(
        lambda objs: Scene(grid_size, tuple(objs), "rural"))


@given(data=st.data())
@settings(max_examples=30)
def test_scene_features_equal_the_object_loop(data):
    # a grid-1 scene and scenes of other grids, repeated in a random order
    # into one call of a few scenes or of more than FEATURE_CHUNK
    pool = [data.draw(_scene_on(1), label="grid_1_scene")] + data.draw(
        st.lists(st.integers(2, 12).flatmap(_scene_on), min_size=1, max_size=5),
        label="scenes")
    n = data.draw(st.integers(1, 8) | st.integers(dt.FEATURE_CHUNK + 1,
                                                  3 * dt.FEATURE_CHUNK), label="n")
    picks = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scenes = [pool[i] for i in picks.integers(len(pool), size=n)]
    t_max = max(len(s.objects) for s in scenes) + data.draw(st.integers(0, 2))
    feats = scene_features(scenes, t_max)
    assert feats.matrix.tobytes() == _scene_features_loop(scenes, t_max).tobytes()
    assert feats.object_mask.tolist() == [[j < len(s.objects) for j in range(t_max)]
                                          for s in scenes]


@given(data=st.data())
@settings(max_examples=30)
def test_query_tokens_equal_the_cut_id_array(data):
    width = data.draw(st.integers(1, 16), label="width")
    samples = data.draw(st.lists(st.builds(
        lambda ids, n: dt.VQASample(scene=scene_of([("road", 0, 0, "small")]),
                                    category="count", template_id=0, slots=("road",),
                                    token_ids=tuple(ids), n_tokens=n,
                                    answer_index=0, split="train"),
        st.lists(st.integers(0, len(VOCABULARY) - 1), min_size=width, max_size=width),
        st.integers(1, width)), min_size=1, max_size=40), label="samples")
    k = data.draw(st.integers(max(s.n_tokens for s in samples), width), label="k")
    tokens = dt.query_tokens(samples, k)
    expected = np.array([s.token_ids for s in samples])[:, :k]
    assert tokens.token_ids.dtype == np.int64 and tokens.token_ids.flags.c_contiguous
    assert tokens.token_ids.tobytes() == expected.tobytes()
    assert tokens.token_mask.tolist() == [[j < s.n_tokens for j in range(k)]
                                          for s in samples]


# ---------------------------------------------------------------- questions


def test_tokenizer_round_trip_and_padding():
    words = ("how", "many", "water", "objects", "are", "in", "the", "scene")
    ids, n = tokenize(words, k_max=12)
    assert n == len(words) and len(ids) == 12
    assert all(VOCABULARY[i] == w for i, w in zip(ids[:n], words))
    assert all(i == TOKEN_IDS[PAD_TOKEN] for i in ids[n:])


def test_tokenizer_rejects_overlong_query():
    words = tuple(["the"] * 13)
    with pytest.raises(TemplateError):
        tokenize(words, k_max=12)


def test_tokenizer_rejects_unknown_word():
    with pytest.raises(TemplateError):
        tokenize(("how", "many", "zeppelins"), k_max=12)


def test_generated_queries_fit_token_budget_and_vocabulary():
    ds = generate_dataset(DatasetConfig(n_samples=400, seed=24))
    for sample in ds.samples:
        assert 0 < sample.n_tokens <= ds.config.k_max
        assert len(sample.token_ids) == ds.config.k_max
        real, padding = (sample.token_ids[: sample.n_tokens],
                         sample.token_ids[sample.n_tokens :])
        assert all(1 <= t < len(VOCABULARY) for t in real)
        assert all(t == TOKEN_IDS[PAD_TOKEN] for t in padding)


def test_pad_token_is_index_zero():
    assert TOKEN_IDS[PAD_TOKEN] == 0


# ---------------------------------------------------------------- mixing


def test_apportion_exact_hand_case():
    schedule = apportion({"a": 1 / 3, "b": 2 / 3}, 3)
    assert len(schedule) == 3
    assert Counter(schedule) == {"a": 1, "b": 2}


@given(shares=st.lists(st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.5, 2 / 3, 0.8])
                       | st.floats(0.01, 1.0), min_size=1, max_size=5),
       n=st.integers(0, 300))
def test_apportion_equals_its_max_key_form(shares, n):
    # ties between equal shares are common; the first label must win them
    weights = {f"c{i}": share for i, share in enumerate(shares)}
    assert apportion(weights, n) == reference_apportion(weights, n)


def test_apportion_sums_and_bounds():
    rng = np.random.default_rng(25)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        raw = rng.uniform(0.1, 1.0, k)
        weights = {f"c{i}": float(w / raw.sum()) for i, w in enumerate(raw)}
        n = int(rng.integers(1, 200))
        counts = Counter(apportion(weights, n))
        assert sum(counts.values()) == n
        for key, share in weights.items():
            assert abs(counts.get(key, 0) - share * n) <= 1.0


def test_category_mix_respected_per_split():
    cfg = DatasetConfig(n_samples=800, seed=26)
    ds = generate_dataset(cfg)
    mix = cfg.mix()
    for split, fraction in cfg.splits().items():
        if fraction == 0:
            continue
        samples = ds.split(split)
        assert abs(len(samples) - fraction * cfg.n_samples) <= 1.0
        for category, share in mix.items():
            got = sum(1 for s in samples if s.category == category)
            assert abs(got - share * len(samples)) <= 1.0


def test_variant_category_sets():
    lr = DatasetConfig(n_samples=200, seed=27, variant="lr_like")
    hr = DatasetConfig(n_samples=200, seed=27, variant="hr_like")
    lr_cats = {s.category for s in generate_dataset(lr).samples}
    hr_cats = {s.category for s in generate_dataset(hr).samples}
    assert lr_cats == {"count", "presence", "comparison", "rural_urban"}
    assert hr_cats == {"count", "presence", "comparison", "area"}


def test_presence_answers_are_balanced():
    ds = generate_dataset(DatasetConfig(n_samples=1200, seed=28))
    pres = [s for s in ds.samples if s.category == "presence"]
    yes = sum(1 for s in pres if ANSWERS[s.answer_index] == "yes")
    assert 0.35 <= yes / len(pres) <= 0.65


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(n_samples=0)
    with pytest.raises(ValueError, match=r"n_samples must be 1 to 4294967296, "
                                         r"got 4294967297"):
        DatasetConfig(n_samples=2**32 + 1)
    assert DatasetConfig(n_samples=2**32).n_samples == 2**32
    with pytest.raises(ValueError):
        DatasetConfig(train_fraction=0.9, test_fraction=0.2)
    with pytest.raises(ValueError):
        DatasetConfig(variant="satellite")
    with pytest.raises(ValueError):
        DatasetConfig(category_mix={"count": 1.0, "unknown": 1.0})
    with pytest.raises(ValueError, match="k_max must be at least 8, the longest "
                                         "question's token count; got 7"):
        DatasetConfig(k_max=7)
    assert DatasetConfig(k_max=8).k_max == 8
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        DatasetConfig(seed=-1)
    assert DatasetConfig(seed=0).seed == 0
    # a negative grid squares to enough cells for the objects
    with pytest.raises(ValueError, match="grid_size must be positive, got -3"):
        DatasetConfig(grid_size=-3, min_objects=1, max_objects=5)
    assert DatasetConfig(grid_size=1, min_objects=1, max_objects=1,
                         urban_threshold=1).grid_size == 1
    # a threshold below 1 makes every scene urban, one above max_objects
    # every scene rural
    for bad in (-2, 0, 11):
        with pytest.raises(ValueError, match=f"urban_threshold must be 1 to "
                                             f"max_objects=10, got {bad}"):
            DatasetConfig(urban_threshold=bad)
    assert DatasetConfig(urban_threshold=1).urban_threshold == 1
    assert DatasetConfig(urban_threshold=10).urban_threshold == 10
    nan, inf = float("nan"), float("inf")
    for bad in ({"test_fraction": nan}, {"train_fraction": inf},
                {"train_fraction": 1.2, "test_fraction": -0.2},
                {"train_fraction": 1.0, "test_fraction": 0.0},
                {"test2_fraction": nan}, {"test2_fraction": -0.1},
                {"category_mix": {"count": 1.5, "presence": -0.5}},
                {"category_mix": {"count": nan, "presence": 1.0}},
                {"category_mix": {"count": inf}},
                {"category_mix": {"count": 0.0, "presence": 1.0}},
                {"category_mix": {"count": "1"}}):
        with pytest.raises(ValueError, match="must be a finite|must be finite"):
            DatasetConfig(**bad)


# ---------------------------------------------------------------- determinism


def numpy_stream_state(seed: int, index: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence([seed, index])).state


# one entropy word, the largest one-word seed, two and three words, and
# more words than SeedSequence's pool of four
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+3", "2^128+5"])
def test_sample_streams_start_where_numpy_seeds_them(seed):
    # the chunks generation derives, across a chunk boundary; reseeding
    # gives NumPy's state, and reading it NumPy's first raw outputs
    n = dt.STREAM_CHUNK + 3
    checked = (0, 1, dt.STREAM_CHUNK - 1, dt.STREAM_CHUNK, n - 1)
    states = {start + k: state for start, chunk in dt._chunk_states(seed, n)
              for k, state in enumerate(chunk) if start + k in checked}
    assert sorted(states) == list(checked)
    bit_generator = np.random.PCG64(0)
    for i in checked:
        dt._reseed(bit_generator, *states[i])
        assert bit_generator.state == numpy_stream_state(seed, i)
        expected = np.random.PCG64(np.random.SeedSequence([seed, i])).random_raw(6)
        np.testing.assert_array_equal(
            dt._raw_outputs(bit_generator, [states[i]], 6), [expected])


@given(seed=st.integers(0, 2**130), index=st.integers(0, dt.MAX_SAMPLES - 1))
@settings(max_examples=60)
def test_stream_state_equals_numpys_for_any_seed_and_index(seed, index):
    expected = numpy_stream_state(seed, index)["state"]
    assert dt._stream_states(seed, np.array([index], dtype=np.uint32)) == [
        (expected["state"], expected["inc"])]


# ---------------------------------------------------------------- draws
#
# Generation makes NumPy's Generator draws itself, from each stream's raw
# PCG64 outputs: one array op per draw for a chunk's scenes (dt._Words),
# one sample at a time for its question (dt._Stream). Each property below
# checks one equivalence that relies on against the Generator itself.

SEEDS = st.integers(0, 2**64)
MASK32 = 0xFFFF_FFFF


def _outputs(seed: int, n: int) -> np.ndarray:
    return np.random.PCG64(seed).random_raw(n)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _words(seeds, n_outputs: int) -> dt._Words:
    return dt._Words(np.array([_outputs(seed, n_outputs) for seed in seeds]))


@given(seeds=st.lists(SEEDS, min_size=1, max_size=4), data=st.data())
@settings(max_examples=80)
def test_choice_is_floyd_then_a_shuffle(seeds, data):
    # each stream of a chunk draws choice(n, k) with its own k, and the
    # draw after it starts where NumPy's does
    n = data.draw(st.integers(1, 10000) | st.integers(10001, 2**32), label="n")
    most = min(n if n <= 10000 else n // 50, 40)
    counts = data.draw(st.lists(st.integers(1, most), min_size=len(seeds),
                                max_size=len(seeds)), label="counts")
    words = _words(seeds, 2 * most + 8)
    picks = dt._floyd_choice(words, n, np.array(counts), most)
    after = words.integers(7)
    for seed, k, row, next_draw in zip(seeds, counts, picks, after):
        rng = _generator(seed)
        assert row[:k].tolist() == rng.choice(n, size=k, replace=False).tolist()
        assert next_draw == rng.integers(7)


@given(seed=SEEDS)
@settings(max_examples=40)
def test_comparison_draws_are_a_choice_of_two_classes(seed):
    scene = scene_of([("road", 0, 0, "small")])
    expected = reference_sample_question(_generator(seed), scene, "comparison")
    assert dt._sample_question(_generator(seed), scene, "comparison") == expected
    stream = dt._Stream(_outputs(seed, 4), 0)
    assert dt._sample_question(stream, scene, "comparison") == expected


@given(seed=SEEDS, high=st.integers(2, 2**32))
@settings(max_examples=40)
def test_a_bound_of_one_takes_no_word(seed, high):
    rng = _generator(seed)
    bounds = (1, high, 1, 1, high)
    expected = [int(rng.integers(h)) for h in bounds]
    assert expected[0] == expected[2] == expected[3] == 0
    words = _words([seed], 8)
    assert [int(words.integers(h)[0]) for h in bounds] == expected
    stream = dt._Stream(_outputs(seed, 8), 0)
    assert [stream.integers(h) for h in bounds] == expected


@given(seed=SEEDS)
@settings(max_examples=40)
def test_32_bit_draws_take_the_low_half_then_the_high_half(seed):
    first, second = _outputs(seed, 2).tolist()
    halves = [first & MASK32, first >> 32, second & MASK32, second >> 32]
    assert _generator(seed).integers(2**32, size=4).tolist() == halves
    words = _words([seed], 2)
    assert [int(words.integers(2**32)[0]) for _ in halves] == halves
    stream = dt._Stream(_outputs(seed, 2), 0)
    assert [stream.integers(2**32) for _ in halves] == halves


@given(seed=SEEDS, word=st.integers(0, 3),
       draws=st.lists(st.sampled_from(["random", 2, 5, 2**32]), max_size=8))
@settings(max_examples=80)
def test_random_takes_a_whole_fresh_output_and_leaves_the_pending_half(
        seed, word, draws):
    first, second = _outputs(seed, 2).tolist()
    stream = dt._Stream(_outputs(seed, 2), 0)
    assert stream.integers(2**32) == first & MASK32
    assert stream.random() == (second >> 11) * 2.0**-53
    assert stream.integers(2**32) == first >> 32
    # from any word on, in any order of draws, as the Generator draws them
    rng = _generator(seed)
    for _ in range(word):
        rng.integers(2**32)
    stream = dt._Stream(_outputs(seed, 16), word)
    for draw in draws:
        if draw == "random":
            assert stream.random() == rng.random()
        else:
            assert stream.integers(draw) == rng.integers(draw)


@given(seed=SEEDS, high=st.integers(3, 2**32 - 1).filter(lambda h: h & (h - 1)))
@settings(max_examples=40)
def test_a_lemire_rejection_draws_again_from_the_next_word(seed, high):
    # A pending word of 0 gives m = 0, which every bound but a power of 2
    # rejects. Crafted outputs start with that word; a stream beside them
    # in the chunk rejects nothing, or rejects on its own.
    bit_generator = np.random.PCG64(seed)
    bit_generator.state = {**bit_generator.state, "has_uint32": 1, "uinteger": 0}
    rng = np.random.Generator(bit_generator)
    expected = [int(rng.integers(high)) for _ in range(3)]
    halves = [half for out in _outputs(seed, 8).tolist()
              for half in (out & MASK32, out >> 32)]
    words = [0] + halves
    crafted = np.array([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])],
                       dtype=np.uint64)
    chunk = dt._Words(np.array([crafted, _outputs(seed + 1, 8)]))
    beside = _generator(seed + 1)
    for value in expected:
        assert chunk.integers(high).tolist() == [value, beside.integers(high)]
    stream = dt._Stream(crafted, 0)
    assert [stream.integers(high) for _ in expected] == expected


def test_draws_past_the_outputs_read_raise_out_of_words():
    words = _words([1, 2], 1)
    words.integers(5), words.integers(5)
    with pytest.raises(dt._OutOfWords):
        words.integers(5)
    stream = dt._Stream(_outputs(1, 1), 1)
    stream.integers(5)
    with pytest.raises(dt._OutOfWords):
        stream.random()


@pytest.mark.parametrize("n_outputs", [1, 20])
def test_a_chunk_that_runs_out_of_words_is_drawn_again(monkeypatch, n_outputs):
    # a default scene takes 39 words: with 1 output the scene runs out, with
    # 20 a question; the chunk is read again with twice as many outputs
    read = []
    raw_outputs = dt._raw_outputs

    def spy(bit_generator, states, n):
        read.append(n)
        return raw_outputs(bit_generator, states, n)

    monkeypatch.setattr(dt, "_outputs_per_stream", lambda config: n_outputs)
    monkeypatch.setattr(dt, "_raw_outputs", spy)
    config = DatasetConfig(n_samples=300, seed=37)
    assert generate_dataset(config).samples == reference_generate_dataset(config).samples
    assert read[0] == n_outputs and read[-1] >= 2 * n_outputs


@given(data=st.data())
@settings(max_examples=40)
def test_generation_equals_the_reference_on_random_configs(data):
    grid = data.draw(st.integers(1, 12), label="grid_size")
    most = data.draw(st.integers(1, min(grid * grid, 16)), label="max_objects")
    splits = data.draw(st.sampled_from(
        [{}, {"train_fraction": 0.6, "test_fraction": 0.2, "test2_fraction": 0.2}]),
        label="splits")
    config = DatasetConfig(
        n_samples=data.draw(st.integers(1, 60), label="n_samples"),
        seed=data.draw(st.integers(0, 2**70), label="seed"),
        grid_size=grid, max_objects=most,
        min_objects=data.draw(st.integers(1, most), label="min_objects"),
        urban_threshold=data.draw(st.integers(1, most), label="urban_threshold"),
        variant=data.draw(st.sampled_from(sorted(dt.VARIANT_CATEGORIES)),
                          label="variant"),
        **splits)
    samples = generate_dataset(config).samples
    assert samples == reference_generate_dataset(config).samples


def test_same_seed_reproduces_dataset_exactly():
    a = generate_dataset(DatasetConfig(n_samples=120, seed=29))
    b = generate_dataset(DatasetConfig(n_samples=120, seed=29))
    assert a.samples == b.samples


def test_same_seed_reproduces_export_bytes(tmp_path):
    cfg = DatasetConfig(n_samples=120, seed=30)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_dataset(generate_dataset(cfg), p1)
    export_dataset(generate_dataset(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    seen = set()
    for seed in range(100):
        ds = generate_dataset(DatasetConfig(n_samples=30, seed=seed))
        seen.add(tuple(s.answer_index for s in ds.samples)
                 + tuple(s.token_ids for s in ds.samples))
    assert len(seen) == 100


# ---------------------------------------------------------------- round trip


def test_round_trip_equality_and_stable_bytes(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=100, seed=31))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    loaded = import_dataset(path)
    assert loaded.samples == ds.samples
    assert loaded.config == ds.config
    path2 = tmp_path / "ds2.jsonl"
    export_dataset(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_file_rejected_with_line_info(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=50, seed=32))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    lines = path.read_text().splitlines(keepends=True)
    truncated = tmp_path / "cut.jsonl"
    truncated.write_text("".join(lines[:20]))
    with pytest.raises(DatasetFormatError):
        import_dataset(truncated)


def test_malformed_record_names_line_number(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=20, seed=33))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "this is not json\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    with pytest.raises(DatasetFormatError) as info:
        import_dataset(bad)
    assert "6" in str(info.value)  # 1-based line number


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps({"format": "something-else"}) + "\n")
    with pytest.raises(DatasetFormatError):
        import_dataset(path)


@pytest.mark.parametrize("line,edit,shown", [
    (0, lambda header: header.update(seed=42),
     "malformed header line: header keys: missing [], unknown ['seed']"),
    (0, lambda header: header.pop("config"),
     "malformed header line: header keys: missing ['config'], unknown []"),
    (1, lambda record: record.update(note="x"),
     "line 2: record keys: missing [], unknown ['note']"),
    (1, lambda record: record.pop("split"),
     "line 2: record keys: missing ['split'], unknown []"),
    (1, lambda record: record["scene"].update(grid_size=8),
     "line 2: scene keys: missing [], unknown ['grid_size']"),
    (1, lambda record: record["scene"].pop("zone_label"),
     "line 2: scene keys: missing ['zone_label'], unknown []"),
], ids=["header_extra", "header_missing", "record_extra", "record_missing",
        "scene_extra", "scene_missing"])
def test_import_rejects_a_key_it_does_not_read_or_a_missing_one(exported, line,
                                                                 edit, shown):
    directory, lines = exported
    lines = list(lines)
    edited_line = json.loads(lines[line])
    edit(edited_line)
    lines[line] = json.dumps(edited_line)
    edited = directory / "keys.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(shown)):
        import_dataset(edited)


def test_missing_file_rejected(tmp_path):
    with pytest.raises((DatasetFormatError, OSError)):
        import_dataset(tmp_path / "absent.jsonl")


# ---------------------------------------------------------------- shared objects


REFERENCE_CONFIGS = {
    "default": DatasetConfig(),
    "hr_like_5x5_test2": DatasetConfig(variant="hr_like", grid_size=5,
                                       min_objects=3, max_objects=16,
                                       train_fraction=0.8, test_fraction=0.1,
                                       test2_fraction=0.1),
    "urban_threshold_1": DatasetConfig(urban_threshold=1),
    # a three-word seed: the first entropy words are the seed's, not the index
    "seed_2_64_plus_3": DatasetConfig(seed=2**64 + 3),
    # more than 10000 cells: Floyd's choice up to n // 50 = 204 objects, and
    # NumPy's tail shuffle past it, which only a Generator draws
    "grid_101_floyd": DatasetConfig(n_samples=400, grid_size=101, max_objects=16,
                                    min_objects=1, urban_threshold=1),
    "grid_101_tail_shuffle": DatasetConfig(n_samples=40, grid_size=101, t_max=210,
                                           min_objects=200, max_objects=210),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_data_path_equals_the_reference_sample_for_sample(tmp_path, name):
    config = REFERENCE_CONFIGS[name]
    ds = generate_dataset(config)
    reference = reference_generate_dataset(config)
    assert len(ds.samples) == len(reference.samples) == config.n_samples
    for index, (sample, expected) in enumerate(zip(ds.samples, reference.samples)):
        assert sample == expected, index
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    assert path.read_bytes() == reference_export_text(reference).encode("utf-8")
    imported = import_dataset(path)
    assert imported.samples == reference_import_samples(path) == reference.samples


def test_scene_object_renderings_change_no_identity():
    obj = SceneObject("road", 3, 4, "small")
    twin = SceneObject("road", 3, 4, "small")
    before = (hash(obj), repr(obj))
    assert obj.json_fragment == '["road", 3, 4, "small"]'
    row = np.frombuffer(obj.feature_row)
    assert row.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 4.0, 3.0, 0.5]
    # the renderings are cached on the instance, outside its fields
    assert obj.feature_row is obj.feature_row
    assert (hash(obj), repr(obj)) == before == (hash(twin), repr(twin))
    assert obj == twin and twin == obj and obj != SceneObject("road", 3, 4, "large")
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert dataclasses.astuple(obj) == ("road", 3, 4, "small")


def test_equal_objects_are_one_shared_instance(tmp_path):
    config = DatasetConfig(n_samples=400, grid_size=5, seed=34)
    ds = generate_dataset(config)
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    imported = import_dataset(path)
    store = dt._OBJECT_STORES[config.grid_size]
    for sample, back in zip(ds.samples, imported.samples):
        for obj, obj_back in zip(sample.scene.objects, back.scene.objects):
            assert obj is obj_back is store[obj.cls, obj.row, obj.col, obj.size]
    for grid_size, objects in dt._OBJECT_STORES.items():
        assert len(objects) <= len(OBJECT_CLASSES) * len(SIZE_CELLS) * grid_size ** 2


@pytest.fixture(scope="module")
def exported(tmp_path_factory) -> tuple:
    """(a directory for edited copies, the lines of an exported dataset)."""
    path = tmp_path_factory.mktemp("exported") / "ds.jsonl"
    export_dataset(generate_dataset(DatasetConfig(n_samples=30, seed=36)), path)
    return path.parent, path.read_text(encoding="utf-8").splitlines()


def _other(current, values) -> st.SearchStrategy:
    return st.sampled_from([v for v in values if v != current])


@given(data=st.data())
@settings(max_examples=25)
def test_import_rejects_a_derived_field_changed_to_another_valid_value(
        exported, data):
    # import rebuilds every derived field from the drawn ones, so no stored
    # derived value but the generator's own passes
    directory, lines = exported
    line = data.draw(st.integers(2, len(lines)), label="line")
    record = json.loads(lines[line - 1])
    field = data.draw(st.sampled_from(
        ["answer_index", "zone_label", "n_tokens", "token_ids"]), label="field")
    if field == "zone_label":
        scene = record["scene"]
        scene[field] = data.draw(_other(scene[field], ("rural", "urban")))
    elif field == "token_ids":
        ids = record[field]
        position = data.draw(st.integers(0, len(ids) - 1), label="position")
        ids[position] = data.draw(_other(ids[position], range(len(VOCABULARY))))
    elif field == "n_tokens":
        k_max = len(record["token_ids"])
        record[field] = data.draw(_other(record[field], range(1, k_max + 1)))
    else:
        record[field] = data.draw(_other(record[field], range(len(ANSWERS))))
    edited = directory / "edited.jsonl"
    edited.write_text("\n".join(lines[:line - 1] + [json.dumps(record, sort_keys=True)]
                                + lines[line:]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"at line {line}: {field}"):
        import_dataset(edited)


def _edit_first_record(path, out, edit):
    """Copy of the dataset file at path with edit(record) applied to its
    first sample record."""
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record, sort_keys=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _first_object(obj):
    def edit(record):
        record["scene"]["objects"][0] = obj
    return edit


def test_import_checks_object_fields_and_stores_only_valid_objects(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=20, seed=35))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    # an imported object is the shared one generation made
    first = ds.samples[0].scene.objects[0]
    assert import_dataset(path).samples[0].scene.objects[0] is first
    # a rejected object leaves no entry behind; export writes row and col as
    # JSON integers, so a string, a float or a boolean is rejected even where
    # it equals the stored value
    sizes = {grid: len(objects) for grid, objects in dt._OBJECT_STORES.items()}
    for obj, shown in [(["castle", 0, 0, "small"], "castle"),
                       (["road", 8, 0, "small"], "row 8"),
                       (["road", float("inf"), 0, "small"], "row inf"),
                       ([first.cls, str(first.row), first.col, first.size],
                        f"row '{first.row}'"),
                       ([first.cls, float(first.row), first.col, first.size],
                        f"row {float(first.row)}"),
                       ([first.cls, first.row, first.col == 1, first.size],
                        f"col {first.col == 1}"),
                       ([["road"], 0, 0, "small"], "unhashable")]:
        edited = _edit_first_record(path, tmp_path / "bad.jsonl", _first_object(obj))
        with pytest.raises(DatasetFormatError, match=f"line 2: .*{shown}"):
            import_dataset(edited)
    assert {grid: len(objects) for grid, objects in dt._OBJECT_STORES.items()} == sizes
    assert all(obj.cls in OBJECT_CLASSES for objects in dt._OBJECT_STORES.values()
               for obj in objects.values())
