"""Synthetic scene/question generator: oracles, determinism, serialization."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from mibvqa import data as dt
from mibvqa.data import (
    AREA_BIN_LABELS,
    CATEGORIES,
    OBJECT_CLASSES,
    PAD_TOKEN,
    SIZE_CELLS,
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
    build_answer_space,
    count_class,
    count_label,
    class_area,
    export_dataset,
    generate_dataset,
    import_dataset,
    scene_features,
    tokenize,
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
    space = build_answer_space()
    assert len(space.answers) == 19
    assert len(set(space.answers)) == 19
    for labels, category in [
        (("no", "yes"), "presence"),
        (tuple(str(i) for i in range(10)) + ("10+",), "count"),
        (("rural", "urban"), "rural_urban"),
        (AREA_BIN_LABELS, "area"),
    ]:
        for label in labels:
            assert space.answers[space.index_of(label)] == label
        for idx in space.indices_for(category):
            assert space.answers[idx] in labels


def test_zone_threshold_counts_buildings():
    base = [("building", 0, 0, "small"), ("building", 1, 1, "large"),
            ("road", 2, 2, "small")]
    assert zone_of(tuple(SceneObject(*o) for o in base), 3) == "rural"
    urban = base + [("building", 3, 3, "small")]
    assert zone_of(tuple(SceneObject(*o) for o in urban), 3) == "urban"


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
    space = ds.answer_space
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
        assert space.answers[sample.answer_index] == expected


def test_audit_finds_zero_mismatches():
    ds = generate_dataset(DatasetConfig(n_samples=500, seed=22))
    assert audit_dataset(ds) == 0


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
    space = ds.answer_space
    pres = [s for s in ds.samples if s.category == "presence"]
    yes = sum(1 for s in pres if space.answers[s.answer_index] == "yes")
    assert 0.35 <= yes / len(pres) <= 0.65


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(n_samples=0)
    with pytest.raises(ValueError):
        DatasetConfig(train_fraction=0.9, test_fraction=0.2)
    with pytest.raises(ValueError):
        DatasetConfig(variant="satellite")
    with pytest.raises(ValueError):
        DatasetConfig(category_mix={"count": 1.0, "unknown": 1.0})


# ---------------------------------------------------------------- determinism


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


def test_missing_file_rejected(tmp_path):
    with pytest.raises((DatasetFormatError, OSError)):
        import_dataset(tmp_path / "absent.jsonl")
