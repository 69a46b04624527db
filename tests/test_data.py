"""Synthetic scene/question generator: oracles, determinism, serialization."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)
from helpers_oracles import (
    reference_apportion,
    reference_derived_fields,
    reference_export_text,
    reference_generate_dataset,
    reference_import_samples,
    reference_make_sample,
    reference_sample_question,
    reference_tokenize,
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
    edited = sample._replace(token_ids=token_ids)
    hand_built = dt.Dataset(config=ds.config, samples=(edited,) + ds.samples[1:])
    assert audit_dataset(hand_built) == 1


@pytest.mark.parametrize("count", [5, 12])
def test_audit_counts_an_object_count_generation_cannot_draw(count):
    # the default config draws exactly 10 objects; the edited sample is
    # rebuilt from its objects, so its answer still holds
    ds = generate_dataset(DatasetConfig(n_samples=4, seed=22))
    sample = ds.samples[0]
    objects = sample.scene.objects[:count] + tuple(
        SceneObject("tree", 7, col, "small") for col in range(count - 10))
    assert len({(o.row, o.col) for o in objects}) == count
    codes = np.array([[dt._record_code(ds.config.grid_size, *dataclasses.astuple(o))
                       for o in objects]])
    n = np.array([count])
    edited, = dt._chunk_samples(ds.config, n, codes, dt._tally(n, codes),
                                [dt._QUESTION_INDEX[sample.template_id, sample.slots]],
                                [sample.split])
    hand_built = dt.Dataset(config=ds.config, samples=(edited,) + ds.samples[1:])
    assert audit_dataset(hand_built) == 1


def test_audit_recomputes_each_zone_from_the_scene_objects():
    # a zone flipped together with the rural_urban answer that reads it
    # still contradicts the scene's building count: two failed checks
    ds = generate_dataset(DatasetConfig(n_samples=200, seed=22))
    flipped = {"rural": "urban", "urban": "rural"}
    for category, edit, failed in [
            ("rural_urban", lambda s: s._replace(
                scene=s.scene._replace(zone_label=flipped[s.scene.zone_label]),
                answer_index=ANSWER_INDEX[flipped[s.scene.zone_label]]), 2),
            ("count", lambda s: s._replace(
                scene=s.scene._replace(zone_label=flipped[s.scene.zone_label])), 1)]:
        index = next(i for i, s in enumerate(ds.samples) if s.category == category)
        samples = list(ds.samples)
        samples[index] = edit(samples[index])
        assert audit_dataset(dt.Dataset(config=ds.config, samples=tuple(samples))) == failed


@pytest.mark.parametrize("edit", [
    lambda s: s._replace(category="area"),
    lambda s: s._replace(n_tokens=s.n_tokens - 1),
    lambda s: s._replace(token_ids=(TOKEN_IDS["road"],) + s.token_ids[1:]),
    lambda s: s._replace(slots=("castle",)),
], ids=["category", "n_tokens", "token_ids", "slots"])
def test_audit_counts_a_question_field_its_template_does_not_give(edit):
    # the first sample asks a count question; each edit keeps every token
    # id in the vocabulary and the count within k_max
    ds = generate_dataset(DatasetConfig(n_samples=4, seed=22))
    assert ds.samples[0].category == "count"
    edited = edit(ds.samples[0])
    hand_built = dt.Dataset(config=ds.config, samples=(edited,) + ds.samples[1:])
    assert audit_dataset(hand_built) == 1


# ---------------------------------------------------------------- chunk builder


# A class's (small, large) object counts at the edges of the rules: 9, 10
# and 11 objects (count labels "9", "10+", "10+") and 1, 2, 4, 5, 7 and 8
# cells (the area bins 0-1 | 2-4 | 5-7 | 8+ meet between them).
EDGE_COUNTS = [(9, 0), (10, 0), (11, 0), (6, 5), (1, 0), (2, 0), (0, 1), (4, 0),
               (1, 1), (5, 0), (3, 1), (0, 2), (4, 1)]


@st.composite
def _edge_scene(draw, grid: int) -> list:
    """The codes of a scene of 1 to min(16, grid**2) objects on distinct
    cells of the grid, in a drawn order: one class's counts at an edge of
    EDGE_COUNTS, at times a second class with as many objects (a comparison
    tie), and further objects of the other classes."""
    room = min(16, grid * grid)
    a, b, *others = draw(st.permutations(range(len(OBJECT_CLASSES))))
    small, large = draw(st.sampled_from([e for e in EDGE_COUNTS if sum(e) <= room]))
    kinds = [a * 2] * small + [a * 2 + 1] * large
    if draw(st.booleans()) and 2 * len(kinds) <= room:
        tied_small = draw(st.integers(0, len(kinds)))
        kinds += [b * 2] * tied_small + [b * 2 + 1] * (len(kinds) - tied_small)
    kinds += draw(st.lists(st.sampled_from([c * 2 + z for c in others for z in (0, 1)]),
                           max_size=room - len(kinds)))
    kinds = draw(st.permutations(kinds))
    cells = draw(st.permutations(range(grid * grid)))[:len(kinds)]
    return [cell * dt.KINDS + kind for cell, kind in zip(cells, kinds)]


@given(data=st.data())
@settings(max_examples=60)
def test_the_tally_gives_the_oracles_zone_and_every_answer(data):
    # every question of the table on each scene of one chunk; the padding
    # past each scene's count is code 0, a small building, which no tally
    # may count
    grid = data.draw(st.integers(1, 9), label="grid_size")
    most = min(16, grid * grid)
    scenes = data.draw(st.lists(_edge_scene(grid), min_size=1, max_size=3), label="scenes")
    threshold = data.draw(st.integers(1, most), label="urban_threshold")
    config = DatasetConfig(grid_size=grid, min_objects=1, max_objects=most,
                           urban_threshold=threshold)
    rows = [(codes, q) for codes in scenes for q in range(len(dt._QUESTIONS))]
    count = np.array([len(codes) for codes, _ in rows])
    codes = np.zeros((len(rows), most), dtype=np.int64)
    for i, (scene_codes, _) in enumerate(rows):
        codes[i, :len(scene_codes)] = scene_codes
    samples = dt._chunk_samples(config, count, codes, dt._tally(count, codes),
                                [q for _, q in rows], ["train"] * len(rows))
    for sample, (scene_codes, q) in zip(samples, rows):
        objects = tuple(dt._objects_by_code(grid)[code] for code in scene_codes)
        scene = Scene(grid, objects, zone_of(objects, threshold))
        template_id, slots = dt._QUESTIONS[q]
        assert sample.scene == scene
        assert (sample.template_id, sample.slots) == (template_id, slots)
        assert sample.answer_index == ANSWER_INDEX[answer_oracle(
            scene, TEMPLATES[template_id], slots)], (template_id, slots)


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


def test_generated_queries_fit_token_budget_and_vocabulary():
    ds = generate_dataset(DatasetConfig(n_samples=400, seed=24))
    for sample in ds.samples:
        assert 0 < sample.n_tokens <= ds.config.k_max
        assert len(sample.token_ids) == ds.config.k_max
        real, padding = (sample.token_ids[: sample.n_tokens],
                         sample.token_ids[sample.n_tokens :])
        assert all(1 <= t < len(VOCABULARY) for t in real)
        assert all(t == TOKEN_IDS[PAD_TOKEN] for t in padding)


def test_the_question_table_holds_every_question_generation_gives():
    k_max = DatasetConfig().k_max
    questions = dt._questions(k_max)
    assert len(questions) == len(dt._QUESTIONS) == 46
    # each question's VQASample fields, at its index in _QUESTIONS
    for (template_id, slots), fields in zip(dt._QUESTIONS, questions):
        template = TEMPLATES[template_id]
        assert fields == (template.category, template_id, slots,
                          *reference_tokenize(template.render(slots), k_max))
    keys = set(dt._QUESTIONS)
    drawn = set()
    for variant, categories in dt.VARIANT_CATEGORIES.items():
        ds = generate_dataset(DatasetConfig(n_samples=20000, seed=38, variant=variant))
        seen = {(s.template_id, s.slots) for s in ds.samples}
        assert seen == {key for key in keys
                        if TEMPLATES[key[0]].category in categories}, variant
        drawn |= seen
    assert drawn == keys


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
    # splits are apportioned within each category's samples: each split
    # holds each category's share of it to within one sample, also where
    # schedules over all samples would alias (test and test2 of 0.1 each)
    cfg = DatasetConfig(train_fraction=0.8, test_fraction=0.1, test2_fraction=0.1)
    ds = generate_dataset(cfg)
    totals = Counter(s.category for s in ds.samples)
    for category, share in cfg.mix().items():
        assert abs(totals[category] - share * cfg.n_samples) <= 1.0
    for split, fraction in cfg.splits().items():
        got = Counter(s.category for s in ds.split(split))
        for category in cfg.mix():
            assert abs(got[category] - fraction * totals[category]) <= 1.0


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
    # a draw covers at most 2**32 cells
    with pytest.raises(ValueError, match="grid_size must be at most 65536, whose "
                                         "4294967296 cells a 32-bit draw covers; "
                                         "got 65537"):
        DatasetConfig(grid_size=65537)
    assert DatasetConfig(grid_size=65536).grid_size == 65536
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


# one entropy word, the largest one-word seed, two and three words, and
# more words than SeedSequence's pool of four
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+3", "2^128+5"])
def test_sample_streams_start_where_numpy_seeds_them(seed):
    # the blocks on both sides of a chunk boundary are those of
    # PCG64(SeedSequence(seed)), advanced past the blocks before them
    config = DatasetConfig(n_samples=dt.STREAM_CHUNK + 3, seed=seed)
    samples = generate_dataset(config).samples
    for i in (0, 1, dt.STREAM_CHUNK - 1, dt.STREAM_CHUNK, config.n_samples - 1):
        assert samples[i] == reference_make_sample(config, i, samples[i].category,
                                                   samples[i].split), i


# ---------------------------------------------------------------- draws
#
# Generation and the reference share the block layout and the draw rules,
# so a rule wrong in both passes every equality test. The tests below check
# the rules themselves: the words a block is read as, the ends of a
# bounded draw, and the distributions of every drawn field.

SEEDS = st.integers(0, 2**64)
WORDS = st.integers(0, 2**32 - 1)


@given(seed=SEEDS)
@settings(max_examples=40)
def test_32_bit_draws_take_the_low_half_then_the_high_half(seed):
    halves = [half for out in np.random.PCG64(seed).random_raw(6).tolist()
              for half in (out & 0xFFFF_FFFF, out >> 32)]
    words = dt._chunk_words(np.random.PCG64(seed), 2, 3)
    assert words.tolist() == [halves[:6], halves[6:]]


@given(n=st.integers(1, 2**32))
@example(n=1)
@example(n=2**32)
def test_a_draw_takes_the_lowest_word_to_0_and_the_highest_to_n_minus_1(n):
    assert (dt._below(0, n), dt._below(2**32 - 1, n)) == (0, n - 1)
    words = np.array([0, 2**32 - 1], dtype=np.uint64)
    assert dt._below(words, np.uint64(n)).tolist() == [0, n - 1]


@given(first=WORDS, second=WORDS)
@settings(max_examples=80)
def test_comparison_draws_are_a_choice_of_two_classes(first, second):
    scene = scene_of([("road", 0, 0, "small")])
    question, = dt._draw_questions(np.array([[first, second, 0]], dtype=np.uint32),
                                   np.zeros((1, len(OBJECT_CLASSES), 2), dtype=np.int64),
                                   ["comparison"])
    template_id, slots = dt._QUESTIONS[question]
    assert template_id == 3 and slots[0] != slots[1]
    assert (template_id, slots) == reference_sample_question(
        [first, second, 0], scene, "comparison")


def _within_5_sigma(drawn: Counter, values, trials: int) -> None:
    """Each value occurs within 5 sigma of trials / len(values), as it would
    in trials independent uniform draws."""
    p = 1 / len(values)
    sigma = math.sqrt(trials * p * (1 - p))
    assert set(drawn) <= set(values)
    for value in values:
        assert abs(drawn[value] - trials * p) <= 5 * sigma, (value, drawn[value])


@pytest.mark.parametrize("config", [
    DatasetConfig(n_samples=20_000),
    DatasetConfig(n_samples=20_000, seed=7, min_objects=1, max_objects=16),
], ids=["default", "1_to_16_objects"])
def test_every_cell_class_size_count_and_comparison_is_drawn_uniformly(config):
    # a scene's cells are distinct, which only narrows their spread
    samples = generate_dataset(config).samples
    objects = [o for s in samples for o in s.scene.objects]
    grid = config.grid_size
    _within_5_sigma(Counter(o.row * grid + o.col for o in objects),
                    range(grid * grid), len(objects))
    _within_5_sigma(Counter(o.cls for o in objects), OBJECT_CLASSES, len(objects))
    _within_5_sigma(Counter(o.size for o in objects), dt.SIZES, len(objects))
    _within_5_sigma(Counter(len(s.scene.objects) for s in samples),
                    range(config.min_objects, config.max_objects + 1), len(samples))
    pairs = Counter(s.slots for s in samples if s.category == "comparison")
    _within_5_sigma(pairs, list(itertools.permutations(OBJECT_CLASSES, 2)),
                    sum(pairs.values()))


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


@pytest.mark.parametrize("first,second", [
    (int, bool), (int, float), (float, lambda value: float(value) if value else -0.0),
], ids=["bool", "float", "negative_zero"])
def test_export_writes_equal_values_of_another_type_in_their_own_spelling(
        tmp_path, first, second):
    # a hand-built sample whose template id is that of the one before or
    # after it, as a bool, a float or a -0.0, shares no cached text with
    # it: each line is what json.dumps(sort_keys=True) writes
    generated = generate_dataset(DatasetConfig(n_samples=1, seed=49))
    sample = generated.samples[0]
    samples = tuple(sample._replace(template_id=kind(template_id))
                    for template_id in (0, 1) for kind in (first, second))
    path = tmp_path / "ds.jsonl"
    for order in (samples, samples[::-1]):
        dataset = dt.Dataset(dataclasses.replace(generated.config, n_samples=4), order)
        export_dataset(dataset, path)
        assert path.read_text(encoding="utf-8") == reference_export_text(dataset)


def test_every_reader_builds_samples_whose_texts_export_has_cached(tmp_path, monkeypatch):
    # generation, the text reader and the JSON reader (here of a compact
    # spelling) give samples the same question tuples and strings, so once
    # one of them is exported no other renders a tail anew: export calls
    # json.dumps for its header alone
    monkeypatch.setattr(dt, "_RENDERED_MAX", 1 << 20)
    ds = generate_dataset(DatasetConfig(n_samples=300, seed=50, train_fraction=0.6,
                                        test_fraction=0.2, test2_fraction=0.2))
    path, compact, again = (tmp_path / f"{name}.jsonl" for name in ("ds", "compact", "again"))
    export_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.dumps(json.loads(line), separators=(",", ":")) for line in lines[1:]]
    compact.write_text("\n".join([lines[0], *records]) + "\n", encoding="utf-8")
    dumped = []
    dumps = json.dumps

    def counted_dumps(value, **kwargs):
        dumped.append(value)
        return dumps(value, **kwargs)

    for dataset in (ds, import_dataset(path), import_dataset(compact)):
        assert dataset == ds
        monkeypatch.setattr(dt.json, "dumps", counted_dumps)
        export_dataset(dataset, again)
        monkeypatch.setattr(dt.json, "dumps", dumps)
        assert len(dumped) == 1 and again.read_bytes() == path.read_bytes()
        dumped.clear()


@pytest.mark.parametrize("n_samples", [1, dt.STREAM_CHUNK - 1, dt.STREAM_CHUNK,
                                       dt.STREAM_CHUNK + 1, 2 * dt.STREAM_CHUNK + 1])
@pytest.mark.parametrize("config", [
    DatasetConfig(seed=44),
    DatasetConfig(seed=45, variant="hr_like", min_objects=3, max_objects=16),
], ids=["default", "hr_like_3_to_16_objects"])
def test_import_equals_generation_across_chunk_boundaries(tmp_path, config, n_samples):
    config = dataclasses.replace(config, n_samples=n_samples)
    ds = generate_dataset(config)
    assert ds.samples == reference_generate_dataset(config).samples
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    assert import_dataset(path) == ds


@pytest.mark.parametrize("line", [3, dt.STREAM_CHUNK + 1, dt.STREAM_CHUNK + 3],
                         ids=["first_chunk", "last_line_of_a_chunk", "second_chunk"])
def test_import_names_the_first_bad_line_across_chunks(tmp_path, line):
    # line k is in export's spelling but for two objects on one cell, so its
    # chunk's text read gives up at the one-object-per-cell check; line k + 1
    # is not JSON, or a valid record in another spelling, which alone sends
    # its chunk to the JSON reader
    ds = generate_dataset(DatasetConfig(n_samples=dt.STREAM_CHUNK + 8, seed=46))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line - 1])
    _on_the_first_objects_cell(record["objects"])
    lines[line - 1] = json.dumps(record, sort_keys=True)
    for later in ("this is not json", lines[line].replace('"split": ', '"split":  ')):
        lines[line] = later
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"malformed sample record at line {line}: 10 objects on 9 grid cells")):
            import_dataset(path)


@pytest.mark.parametrize("text,shown", [
    ('{"a": 1, "b": 2, "a": 3}', "key 'a' given twice"),
    ('[{"objects": [], "split": "x", "split": "y"}]', "key 'split' given twice"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ('{"a": 1', "Expecting ',' delimiter"),
], ids=["top_level", "nested", "too_deep", "malformed"])
def test_decode_json_fails_with_a_value_error(text, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        dt.decode_json(text)


def test_decode_json_reads_what_json_loads_reads():
    text = '{"b": [1, 2.5, {"c": null}], "a": "\\u00e9", "d": {}}'
    assert dt.decode_json(text) == json.loads(text)


def test_truncated_file_rejected_with_line_info(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=50, seed=32))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    lines = path.read_text().splitlines(keepends=True)
    truncated = tmp_path / "cut.jsonl"
    truncated.write_text("".join(lines[:20]))
    with pytest.raises(DatasetFormatError, match=re.escape(
            "truncated dataset: config echo says 50 samples, file has 19")):
        import_dataset(truncated)
    # a trailing blank line is one line more than the echo's records
    padded = tmp_path / "padded.jsonl"
    padded.write_text("".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=re.escape(
            "dataset has extra lines: config echo says 50 samples, file has 51")):
        import_dataset(padded)


@pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e",
                                      "\x0b", "\x0c", "\r"])
def test_a_line_ends_at_a_newline_only(tmp_path, boundary):
    # str.splitlines also breaks at these, and so does reading in universal
    # newlines mode at "\r"; JSON Lines does not, so record 3 stays one line,
    # and JSON rejects its split: a control character unescaped, or any
    # other as a split the header does not configure
    ds = generate_dataset(DatasetConfig(n_samples=20, seed=33))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    value = json.loads(lines[3])["split"]
    split = value[:2] + boundary + value[2:]
    lines[3] = lines[3].replace(f'"split": "{value}"', f'"split": "{split}"')
    assert boundary in lines[3]
    path.write_text("\n".join(lines), encoding="utf-8")
    shown = ("malformed record at line 4: Invalid control character" if boundary < " "
             else f"malformed sample record at line 4: split {split!r} is not among")
    with pytest.raises(DatasetFormatError, match=re.escape(shown)):
        import_dataset(path)


def test_a_carriage_return_before_each_newline_is_json_whitespace(tmp_path, monkeypatch):
    # so a file with "\r\n" line ends gives the same samples, and is still
    # read by its text, never by the JSON reader
    ds = generate_dataset(DatasetConfig(n_samples=20, seed=33))
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.setattr(dt, "_sample_from_record", None)
    assert import_dataset(path) == ds


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
    # version 2 nested the objects in a scene beside its zone
    (1, lambda record: record.update(scene={"zone_label": "rural"}),
     "line 2: record keys: missing [], unknown ['scene']"),
    (1, lambda record: record.update(scene={"objects": record.pop("objects")}),
     "line 2: record keys: missing ['objects'], unknown ['scene']"),
], ids=["header_extra", "header_missing", "record_extra", "record_missing",
        "scene_extra", "objects_in_a_scene"])
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
    # a seed wider than 64 bits, which SeedSequence takes whole
    "seed_2_64_plus_3": DatasetConfig(seed=2**64 + 3),
    # 10201 cells, with 1 to 16 objects and with 200 to 210: Floyd's picks
    # far from the default's widths
    "grid_101_floyd": DatasetConfig(n_samples=400, grid_size=101, max_objects=16,
                                    min_objects=1, urban_threshold=1),
    "grid_101_tail_shuffle": DatasetConfig(n_samples=40, grid_size=101, t_max=210,
                                           min_objects=200, max_objects=210),
    # the largest grid, 2**32 cells: Floyd's last picks draw on all of them
    "grid_65536": DatasetConfig(n_samples=30, grid_size=65536, max_objects=16,
                                min_objects=1, urban_threshold=1),
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
    # every line is in export's spelling, which the text reader reads
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_samples_and_scenes_are_immutable_hashable_records(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=8, seed=43))
    sample = ds.samples[0]
    for record, name in ((sample, "answer_index"), (sample.scene, "zone_label")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "x"
        assert hash(record) == hash(pickle.loads(pickle.dumps(record)))
    assert repr(sample).startswith(
        "VQASample(scene=Scene(grid_size=8, objects=(SceneObject(cls=")
    path = tmp_path / "ds.jsonl"
    export_dataset(ds, path)
    imported = import_dataset(path)
    assert imported.samples == ds.samples
    assert list(map(hash, imported.samples)) == list(map(hash, ds.samples))
    # a config's category mix is a dict, outside its hash
    assert imported == ds and hash(imported) == hash(ds)
    mix = {"count": 0.4, "presence": 0.2, "comparison": 0.2, "rural_urban": 0.2}
    assert hash(DatasetConfig()) == hash(DatasetConfig())
    assert hash(DatasetConfig(category_mix=mix)) == hash(DatasetConfig(category_mix=dict(mix)))


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
    grid = config.grid_size
    for sample, back in zip(ds.samples, imported.samples):
        for obj, obj_back in zip(sample.scene.objects, back.scene.objects):
            code = dt._record_code(grid, *dataclasses.astuple(obj))
            assert obj is obj_back is dt._objects_by_code(grid)[code]
    # each code names its own object: at most 10 per grid cell
    table = dt._objects_by_code(grid)
    assert len(table) <= len(OBJECT_CLASSES) * len(dt.SIZES) * grid ** 2
    for code, obj in table.items():
        kind = OBJECT_CLASSES.index(obj.cls) * len(dt.SIZES) + dt.SIZES.index(obj.size)
        assert code == (obj.row * grid + obj.col) * len(OBJECT_CLASSES) * len(dt.SIZES) + kind


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
def test_import_rejects_a_record_carrying_a_derived_field(exported, data):
    # import derives these fields from the drawn ones, so a record states
    # none of them, not even with the value import derives
    directory, lines = exported
    line = data.draw(st.integers(2, len(lines)), label="line")
    record = json.loads(lines[line - 1])
    derived = reference_derived_fields(record, json.loads(lines[0])["config"])
    field = data.draw(st.sampled_from(sorted(derived)), label="field")
    record[field] = derived[field]
    edited = directory / "edited.jsonl"
    edited.write_text("\n".join(lines[:line - 1] + [json.dumps(record, sort_keys=True)]
                                + lines[line:]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(
            f"at line {line}: record keys: missing [], unknown ['{field}']")):
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
        record["objects"][0] = obj
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
    tables = (dt._objects_by_code(ds.config.grid_size),
              dt._codes_by_fragment(ds.config.grid_size))
    sizes = [len(table) for table in tables]
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
    assert [len(table) for table in tables] == sizes
    objects = tables[0]
    assert all(obj.cls in OBJECT_CLASSES for obj in objects.values())
    assert all(code in objects for code in tables[1].values())


# ---------------------------------------------------------------- record text


def _import_outcome(path):
    """import_dataset's Dataset, or the message of its DatasetFormatError."""
    try:
        return import_dataset(path)
    except DatasetFormatError as e:
        return str(e)


def _json_path_outcome(path):
    """_import_outcome with every record line decoded by json.loads and read
    by _sample_from_record."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dt, "_chunk_from_text", lambda *args: None)
        return _import_outcome(path)


def _replace_one(data, line: str, pattern: str, values, label: str) -> str:
    """line with one drawn match of pattern's group 1 replaced by another of
    values; line itself if pattern does not occur."""
    spans = [m.span(1) for m in re.finditer(pattern, line)]
    if not spans:
        return line
    start, end = data.draw(st.sampled_from(spans), label=label)
    new = data.draw(_other(line[start:end], values), label=f"new {label}")
    return line[:start] + new + line[end:]


def _value_edit(data, line: str, kind: str, config: DatasetConfig) -> str:
    """line with another digit, object class or slot class, size, split or
    question (template and slots), one of the fields import derives stated
    with the value it derives, or an object replaced by one drawn on up to
    one cell past config's grid, or that object put before one."""
    if kind == "digit":
        return _replace_one(data, line, r"(\d)", "0123456789", "digit")
    if kind == "class":
        return _replace_one(data, line, f'"({"|".join(OBJECT_CLASSES)})"',
                            OBJECT_CLASSES, "class")
    if kind == "size":
        return _replace_one(data, line, r'"(small|large)"', tuple(SIZE_CELLS), "size")
    if kind == "split":
        return _replace_one(data, line, r'"split": ("\w+")', ('"train"', '"test"',
                                                              '"test2"', '"val"'), "split")
    if kind == "derived":
        record = json.loads(line)
        derived = reference_derived_fields(record, dataclasses.asdict(config))
        field = data.draw(st.sampled_from(sorted(derived)), label="field")
        record[field] = derived[field]
        return json.dumps(record, sort_keys=True)
    if kind == "question":
        record = json.loads(line)
        template_id = data.draw(st.integers(0, len(TEMPLATES) - 1), label="template")
        record["template_id"] = template_id
        record["slots"] = [data.draw(st.sampled_from(dt.SLOT_VALUES[name]), label=name)
                           for name in TEMPLATES[template_id].slot_names]
        return json.dumps(record, sort_keys=True)
    grid = config.grid_size
    fragment = json.dumps([data.draw(st.sampled_from(OBJECT_CLASSES), label="class"),
                           data.draw(st.integers(0, grid), label="row"),
                           data.draw(st.integers(0, grid), label="col"),
                           data.draw(st.sampled_from(tuple(SIZE_CELLS)), label="size")])
    spans = [m.span() for m in re.finditer(r'\["[a-z]+", \d+, \d+, "[a-z]+"\]', line)]
    start, end = data.draw(st.sampled_from(spans), label="object")
    if data.draw(st.booleans(), label="insert"):
        return line[:start] + fragment + ", " + line[start:]
    return line[:start] + fragment + line[end:]


def _spelling_edit(data, line: str, kind: str) -> str:
    """line with a space added or dropped, two keys of the record swapped,
    or a letter written as a \\u escape."""
    if kind == "add space":
        at = data.draw(st.integers(0, len(line)), label="at")
        return line[:at] + " " + line[at:]
    if kind == "drop space":
        at = data.draw(st.sampled_from([i for i, c in enumerate(line) if c == " "]),
                       label="at")
        return line[:at] + line[at + 1:]
    if kind == "escape":
        at = data.draw(st.sampled_from([i for i, c in enumerate(line) if c.isalpha()]),
                       label="at")
        return line[:at] + "\\u%04x" % ord(line[at]) + line[at + 1:]
    record = json.loads(line)
    keys = list(record)
    i, j = data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=2, max_size=2,
                              unique=True), label="keys")
    keys[i], keys[j] = keys[j], keys[i]
    return json.dumps({key: record[key] for key in keys})


VALUE_EDITS = ("digit", "class", "size", "split", "derived", "question", "object")
SPELLING_EDITS = ("add space", "drop space", "swap keys", "escape")


@given(data=st.data())
@settings(max_examples=150)
def test_record_text_path_equals_the_json_path(exported, data):
    # a line read by its text gives the sample the JSON path gives, and any
    # other line falls through to that path, its errors included
    directory, _ = exported
    grid = data.draw(st.integers(1, 12), label="grid_size")
    most = data.draw(st.integers(1, min(grid * grid, 16)), label="max_objects")
    splits = data.draw(st.sampled_from(
        [{}, {"train_fraction": 0.6, "test_fraction": 0.2, "test2_fraction": 0.2}]),
        label="splits")
    config = DatasetConfig(
        n_samples=data.draw(st.integers(1, 12), label="n_samples"),
        seed=data.draw(st.integers(0, 2**40), label="seed"),
        grid_size=grid, max_objects=most, t_max=most,
        min_objects=data.draw(st.integers(1, most), label="min_objects"),
        urban_threshold=data.draw(st.integers(1, most), label="urban_threshold"),
        variant=data.draw(st.sampled_from(sorted(dt.VARIANT_CATEGORIES)),
                          label="variant"),
        **splits)
    path = directory / "record_text.jsonl"
    export_dataset(generate_dataset(config), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    edited = data.draw(st.lists(st.integers(1, len(lines) - 1), min_size=1,
                                max_size=3, unique=True), label="edited lines")
    for index in edited:
        kind = data.draw(st.sampled_from(VALUE_EDITS + SPELLING_EDITS), label="edit")
        if kind in SPELLING_EDITS:
            lines[index] = _spelling_edit(data, lines[index], kind)
            continue
        lines[index] = _value_edit(data, lines[index], kind, config)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = _json_path_outcome(path)
    if isinstance(expected, dt.Dataset):
        assert expected.samples == reference_import_samples(path)
    # the second import finds every valid object fragment known
    assert _import_outcome(path) == expected == _import_outcome(path)
    # only export's own renderings are kept: at most one per object
    for body, code in dt._codes_by_fragment(grid).items():
        assert dt._objects_by_code(grid)[code].json_fragment == f"[{body}]"


def _objects_edit(edit):
    def record_edit(record):
        edit(record["objects"])
    return record_edit


def _carrying(field: str):
    """A record edit: the record made to state one of the fields import
    derives, with the value it derives on the default config."""
    def record_edit(record):
        record[field] = reference_derived_fields(record, dataclasses.asdict(DatasetConfig()))[field]
    return record_edit


def _on_the_first_objects_cell(objects):
    objects[1][1:3] = objects[0][1:3]


def _object_count(count: int):
    """An objects edit to count objects: the first count of them, then
    small trees on the free cells of the default 8x8 grid."""
    def edit(objects):
        taken = {(row, col) for _, row, col, _ in objects}
        free = [(row, col) for row in range(8) for col in range(8)
                if (row, col) not in taken]
        del objects[count:]
        objects += [["tree", row, col, "small"] for row, col in free[:count - len(objects)]]
    return edit


@pytest.mark.parametrize("edit,shown", [
    # version 2 stated the five fields import derives; a record that still
    # states one fails as one with a key import does not read
    (_carrying("zone_label"), "record keys: missing [], unknown ['zone_label']"),
    (_carrying("answer_index"), "record keys: missing [], unknown ['answer_index']"),
    (_objects_edit(_on_the_first_objects_cell), "10 objects on 9 grid cells"),
    (_objects_edit(_object_count(17)),
     "17 objects, expected min_objects=10 to max_objects=10"),
    # counts under t_max that the default config, 10 objects, never draws
    (_objects_edit(_object_count(5)),
     "5 objects, expected min_objects=10 to max_objects=10"),
    (_objects_edit(_object_count(12)),
     "12 objects, expected min_objects=10 to max_objects=10"),
    (_objects_edit(lambda objects: objects[0].__setitem__(1, 8)), "object at row 8, col"),
    (lambda record: record.update(template_id=3, slots=["road", "road"]),
     "comparison of 'road' with itself"),
    (lambda record: record.update(split="test2"),
     "split 'test2' is not among the header's splits"),
    (_carrying("category"), "record keys: missing [], unknown ['category']"),
    (_carrying("n_tokens"), "record keys: missing [], unknown ['n_tokens']"),
    (_carrying("token_ids"), "record keys: missing [], unknown ['token_ids']"),
], ids=["zone", "answer", "shared_cell", "past_t_max", "under_min_objects",
        "over_max_objects", "off_grid", "self_comparison", "split", "category",
        "n_tokens", "token_ids"])
def test_a_line_in_exports_spelling_that_fails_a_check_gets_its_error(exported, edit, shown):
    # every check of the JSON path holds on the text path too: a line as
    # export would write it, but for one value or one key, raises that
    # path's error, and so does the same record in another spelling
    directory, lines = exported
    record = json.loads(lines[1])
    edit(record)
    line = json.dumps(record, sort_keys=True)
    compact = json.dumps(json.loads(line), separators=(",", ":"))
    assert line == json.dumps(json.loads(line), sort_keys=True) != compact
    path = directory / "one_check.jsonl"
    path.write_text("\n".join([lines[0], line, *lines[2:]]) + "\n", encoding="utf-8")
    message = _import_outcome(path)
    assert message == _json_path_outcome(path)
    assert message.startswith(f"malformed sample record at line 2: {shown}")
    path.write_text("\n".join([lines[0], compact, *lines[2:]]) + "\n", encoding="utf-8")
    assert _import_outcome(path) == message


@pytest.mark.parametrize("closing", ['"', "}", "x"])
def test_a_line_whose_last_object_is_left_open_gets_the_json_readers_error(
        exported, closing):
    # the text reader cuts the objects list at its first tail; the text
    # before the cut must end in the "]" of the last object, or the line is
    # not JSON even where each object's text is an object's
    directory, lines = exported
    at = lines[1].index("]], ")
    line = lines[1][:at] + closing + lines[1][at + 1:]
    path = directory / "left_open.jsonl"
    path.write_text("\n".join([lines[0], line, *lines[2:]]) + "\n", encoding="utf-8")
    message = _import_outcome(path)
    assert message == _json_path_outcome(path)
    assert message.startswith("malformed record at line 2: ")


def test_a_canonical_export_is_read_by_its_text(tmp_path, monkeypatch):
    # hr_like draws area questions, which lr_like never asks
    datasets = [generate_dataset(DatasetConfig(n_samples=300, seed=37, grid_size=6,
                                               test_fraction=0.1, test2_fraction=0.1,
                                               train_fraction=0.8)),
                generate_dataset(DatasetConfig(n_samples=300, seed=39, variant="hr_like",
                                               min_objects=3, max_objects=12))]
    paths = [tmp_path / f"ds{index}.jsonl" for index in range(len(datasets))]
    for dataset, path in zip(datasets, paths):
        export_dataset(dataset, path)
        assert import_dataset(path) == dataset      # every object of the file is known
    decoded = []
    loads = json.loads

    def counted_loads(text, **kwargs):
        decoded.append(text)
        return loads(text, **kwargs)

    # one line of the middle of three chunks re-spelled, a space after a
    # colon: that chunk alone is decoded, and the file reads as the same
    # dataset, which re-exports as the original
    chunked = generate_dataset(DatasetConfig(n_samples=2 * dt.STREAM_CHUNK + 5, seed=48))
    original = tmp_path / "chunked.jsonl"
    export_dataset(chunked, original)
    lines = original.read_text(encoding="utf-8").splitlines()
    lines[dt.STREAM_CHUNK + 7] = lines[dt.STREAM_CHUNK + 7].replace('"split": ', '"split":  ')
    respelled = tmp_path / "respelled.jsonl"
    respelled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert import_dataset(original) == chunked      # every object of the file is known

    monkeypatch.setattr(dt.json, "loads", counted_loads)
    for dataset, path in zip(datasets, paths):
        decoded.clear()
        assert import_dataset(path) == dataset
        assert decoded == path.read_text(encoding="utf-8").splitlines()[:1]
    assert {s.category for s in datasets[1].samples} == set(dt.VARIANT_CATEGORIES["hr_like"])
    decoded.clear()
    imported = import_dataset(respelled)
    assert decoded == lines[:1] + lines[1 + dt.STREAM_CHUNK:1 + 2 * dt.STREAM_CHUNK]
    assert imported == chunked
    export_dataset(imported, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == original.read_bytes()
