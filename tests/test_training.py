"""Training loop, metrics, checkpoint persistence, ablation harness."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import split_batch, tiny_model_config
from helpers_ckpt import checkpoint_lines, line_index, read_checkpoint, write_lines
from mibvqa import autodiff as ad
from mibvqa import data as dt
from mibvqa import training
from mibvqa.model import ModelConfig, VQAModel
from mibvqa.training import (
    ABLATION_VARIANTS,
    Checkpoint,
    CheckpointError,
    DivergenceError,
    Metrics,
    TrainConfig,
    ablate,
    build_model,
    compute_metrics,
    evaluate,
    evaluate_model,
    format_ablation_table,
    load_checkpoint,
    save_checkpoint,
    train,
)


def quick_config(**overrides) -> TrainConfig:
    base = dict(epochs=2, batch_size=16, learning_rate=2e-3, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def run_quick(dataset, flags=None, **overrides):
    """A quick_config run of the tiny model with the given flag overrides."""
    return train(quick_config(**overrides), dataset,
                 model_config=tiny_model_config(**(flags or {})))


# ---------------------------------------------------------------- defaults


def test_default_train_config_is_the_recipe_that_learns():
    cfg = TrainConfig()
    assert cfg.epochs == 60
    assert cfg.batch_size == 32
    assert cfg.learning_rate == 5e-3
    assert cfg.lam == 0.01
    assert cfg.seed == 42


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lam=-0.5)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0
    for bad in ({"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                {"lam": float("nan")}, {"lam": float("inf")}):
        with pytest.raises(ValueError, match="must be finite"):
            TrainConfig(**bad)
    for bad in ({"epochs": 2.5}, {"batch_size": True}, {"seed": "3"},
                {"learning_rate": True}, {"lam": None}):
        with pytest.raises(ValueError, match="must be"):
            TrainConfig(**bad)
    # a float field takes an int
    assert TrainConfig(learning_rate=1, lam=0).learning_rate == 1


def test_data_format_fixes_the_model_input_and_output_sizes():
    model = VQAModel(ModelConfig(d_h=5, d_q=7, d_mlp=9), seed=0)
    assert model.encoders.embed.shape == (len(dt.VOCABULARY), 7)
    assert model.encoders.img_w.shape == (dt.FEATURE_WIDTH, 5)
    assert model.fusion.mlp_w2.shape == (9, len(dt.ANSWERS))
    assert dt.FEATURE_WIDTH == len(dt.OBJECT_CLASSES) + 3


def test_model_config_takes_widths_and_flags_but_no_data_format_sizes():
    mc = ModelConfig(d_h=5, enable_infomax=False)
    assert (mc.d_h, mc.enable_infomax, mc.enable_cross_attention) == (5, False, True)
    for name in ("vocab_size", "d_raw", "n_classes"):
        with pytest.raises(TypeError, match=name):
            ModelConfig(**{name: 3})


# ---------------------------------------------------------------- determinism


def test_identical_runs_reproduce_per_step_losses(micro_dataset):
    first = run_quick(micro_dataset)
    second = run_quick(micro_dataset)
    assert len(first.step_records) == len(second.step_records)
    for a, b in zip(first.step_records, second.step_records):
        assert a == b  # exact float equality, every recorded term


def test_different_seed_changes_trajectory(micro_dataset):
    a = run_quick(micro_dataset, seed=1)
    b = run_quick(micro_dataset, seed=2)
    assert a.step_records != b.step_records


def test_lambda_zero_final_equals_cross_entropy_bitwise(micro_dataset):
    result = run_quick(micro_dataset, lam=0.0)
    for record in result.step_records:
        assert record["final"] == record["ce"]


# ---------------------------------------------------------------- flags


# Every parameter of ModelConfig(), <group>.<attribute>, in allocation order.
PARAMETER_NAMES = [
    "enc.embed", "enc.rec_w", "enc.img_w", "enc.img_b",
    "att.query_w", "att.query_score", "att.img_proj_w", "att.qstar_proj_w",
    "att.img_score_w", "att.img_score",
    "fus.q_w", "fus.q_b", "fus.h_w", "fus.h_b",
    "fus.mlp_w1", "fus.mlp_b1", "fus.mlp_w2", "fus.mlp_b2",
    "ib.mean_w", "ib.mean_b", "ib.logvar_w", "ib.logvar_b",
]


def assert_parameters_named(flag, prefix, dataset, tmp_path):
    """With flag off, exactly the prefix entries drop out of PARAMETER_NAMES;
    the model, the checkpoint and the saved file list the rest in order."""
    assert len(PARAMETER_NAMES) == 22
    assert list(VQAModel(ModelConfig()).parameters()) == PARAMETER_NAMES
    expected = [n for n in PARAMETER_NAMES if not n.startswith(prefix)]
    assert len(expected) < len(PARAMETER_NAMES)
    assert list(VQAModel(ModelConfig(**{flag: False})).parameters()) == expected
    result = run_quick(dataset, {flag: False})
    params = result.model.parameters()
    assert list(params) == expected
    for name, p in params.items():
        assert type(p) is ad.Tensor, name
        assert p.requires_grad and p._vjp is None and p._parents == (), name
    assert list(result.checkpoint.parameters) == expected
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    _, records = read_checkpoint(path)
    assert [line.split()[1] for line, _ in records] == expected


def test_flag_isolation_no_bottleneck_parameters(micro_dataset, tmp_path):
    assert_parameters_named("enable_infomax", "ib.", micro_dataset, tmp_path)


def test_flag_isolation_no_attention_parameters(micro_dataset, tmp_path):
    assert_parameters_named("enable_cross_attention", "att.", micro_dataset,
                            tmp_path)


@pytest.mark.parametrize("flag,prefix", [("enable_infomax", "ib."),
                                         ("enable_cross_attention", "att.")])
def test_train_takes_the_flags_of_the_given_model_config(micro_dataset, flag,
                                                         prefix):
    mc = dataclasses.replace(tiny_model_config(), **{flag: False})
    result = train(quick_config(epochs=1), micro_dataset, model_config=mc)
    assert result.checkpoint.model_config == mc
    assert not any(name.startswith(prefix) for name in result.checkpoint.parameters)


def test_disabled_infomax_reports_zero_info_terms(micro_dataset):
    result = run_quick(micro_dataset, {"enable_infomax": False})
    for record in result.step_records:
        assert record["skl"] == 0.0
        assert record["final"] == record["ce"]


# ---------------------------------------------------------------- learning


def test_loss_decreases_on_separable_presence_task():
    cfg = dt.DatasetConfig(n_samples=64, seed=41,
                           category_mix={"presence": 1.0})
    ds = dt.generate_dataset(cfg)
    result = run_quick(ds, epochs=12, learning_rate=5e-3)
    first = result.epoch_records[0]["mean_ce"]
    last = result.epoch_records[-1]["mean_ce"]
    assert math.isfinite(first) and math.isfinite(last)
    assert last < first


def test_epoch_callback_can_stop_training(small_dataset):
    seen = []

    def stop_after_first(epoch, model, record):
        seen.append(epoch)
        return True

    result = train(quick_config(epochs=10), small_dataset,
                   model_config=tiny_model_config(),
                   epoch_callback=stop_after_first)
    assert seen == [0]
    assert len(result.epoch_records) == 1


def test_each_step_reads_the_batch_of_its_slice_of_the_shuffle(small_dataset,
                                                                  monkeypatch):
    # Without the bottleneck the loop stream draws only the epoch shuffles,
    # so they replay here; each step must get exactly the samples the
    # shuffle puts in its slice, as indexing the prepared split gives them.
    config = quick_config(epochs=3, batch_size=24, seed=4)
    seen = []
    loss_batch = VQAModel.loss_batch

    def recording(self, features, tokens, labels, lam, rng):
        # copies: the loop reuses its buffers every epoch
        seen.append(tuple(np.array(a) for a in (
            features.matrix, features.object_mask, tokens.token_ids,
            tokens.token_mask, labels)))
        return loss_batch(self, features, tokens, labels, lam, rng)

    monkeypatch.setattr(VQAModel, "loss_batch", recording)
    train(config, small_dataset,
          model_config=tiny_model_config(enable_infomax=False))
    samples = training.prepare_split(small_dataset, "train")
    loop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    expected = []
    for _ in range(config.epochs):
        order = loop_rng.permutation(len(samples))
        for start in range(0, len(samples), config.batch_size):
            features, tokens, labels = split_batch(
                samples, order[start:start + config.batch_size])
            expected.append((features.matrix, features.object_mask,
                             tokens.token_ids, tokens.token_mask, labels))
    assert len(samples) % config.batch_size and len(seen) == len(expected)
    for got, want in zip(seen, expected):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_a_split_without_samples_fails_before_the_first_step(monkeypatch):
    # 2% of 10 samples rounds to none: test2 is configured but empty
    dataset = dt.generate_dataset(dt.DatasetConfig(
        n_samples=10, seed=3, train_fraction=0.78, test_fraction=0.2,
        test2_fraction=0.02))
    assert not dataset.split("test2")
    steps = []
    monkeypatch.setattr(training, "backward", lambda loss: steps.append(loss))

    def no_epoch(epoch, model, record):
        raise AssertionError("an epoch ran before the empty split was found")

    with pytest.raises(dt.DatasetFormatError, match="test2"):
        train(quick_config(epochs=3), dataset,
              model_config=tiny_model_config(), epoch_callback=no_epoch)
    assert steps == []


def test_divergence_raises_with_context(micro_dataset):
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as info:
            run_quick(micro_dataset, learning_rate=1e150, epochs=3)
    err = info.value
    assert err.term in {"ce", "skl", "final"}
    assert err.step >= 0
    assert not math.isfinite(err.value) or math.isnan(err.value)


@pytest.mark.parametrize("kind", ["loss term", "gradient of parameter"])
def test_divergence_error_pickles_with_its_fields(kind):
    # worker processes hand their exceptions back pickled
    err = DivergenceError("ce", math.nan, 3, kind=kind)
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is DivergenceError
    assert (copy.term, copy.step, copy.kind) == ("ce", 3, kind)
    assert math.isnan(copy.value)
    assert str(copy) == str(err) == f"non-finite {kind} 'ce' (nan) at optimizer step 3"


def poison_gradient_at_step(monkeypatch, step: int, shape: tuple) -> None:
    """Make training.backward leave a nan in the gradient of the parameter of
    the given shape at the given optimizer step (1-based)."""
    backward = training.backward
    calls = []

    def poisoned(loss):
        backward(loss)
        calls.append(loss)
        if len(calls) == step:
            leaf = next(node for node in ad._toposort(loss)
                        if node._vjp is None and node.shape == shape)
            leaf.grad[1, 2] = math.nan

    monkeypatch.setattr(training, "backward", poisoned)


def test_non_finite_gradient_is_divergence(micro_dataset, monkeypatch):
    mc = tiny_model_config()
    poison_gradient_at_step(monkeypatch, 2, (len(dt.VOCABULARY), mc.d_q))
    with pytest.raises(DivergenceError) as info:
        train(quick_config(), micro_dataset, model_config=mc)
    err = info.value
    assert (err.term, err.step) == ("enc.embed", 2) and math.isnan(err.value)
    assert str(err) == ("non-finite gradient of parameter 'enc.embed' (nan) "
                        "at optimizer step 2")


# ---------------------------------------------------------------- metrics


def test_metrics_hand_count():
    # class A: 3/4 correct, class B: 1/2 correct -> OA 4/6, AA 0.625
    labels = [0, 0, 0, 0, 1, 1]
    preds = [0, 0, 0, 9, 1, 9]
    cats = ["a", "a", "a", "a", "b", "b"]
    m = compute_metrics(labels, preds, cats)
    assert m.overall_accuracy == pytest.approx(4 / 6)
    assert m.average_accuracy == pytest.approx(0.625)
    assert m.per_category_accuracy == {"a": 0.75, "b": 0.5}
    assert m.n_samples == 6


def test_metrics_constant_predictor():
    # Always predicts class 0; class 0 is 25% of samples in each category.
    labels, preds, cats = [], [], []
    for c, cat in enumerate(["w", "x", "y", "z"]):
        labels += [0, 1, 2, 3]
        preds += [0, 0, 0, 0]
        cats += [cat] * 4
    m = compute_metrics(labels, preds, cats)
    assert m.overall_accuracy == 0.25
    assert m.average_accuracy == 0.25


def test_metrics_perfect_predictor():
    m = compute_metrics([3, 1, 4], [3, 1, 4], ["a", "b", "a"])
    assert m.overall_accuracy == 1.0
    assert m.average_accuracy == 1.0


def test_metrics_confusion_counts():
    m = compute_metrics([0, 0, 1], [0, 1, 1], ["a", "a", "a"])
    assert m.confusion[0][0] == 1
    assert m.confusion[0][1] == 1
    assert m.confusion[1][1] == 1
    assert sum(c for row in m.confusion.values() for c in row.values()) == 3
    as_dict = m.to_dict()
    assert as_dict["confusion"]["0"]["1"] == 1  # JSON-safe string keys


def test_evaluation_warns_when_category_missing(micro_dataset):
    # A 10-sample dataset's 2-sample test split cannot hold all 4 categories.
    ds = dt.generate_dataset(dt.DatasetConfig(n_samples=10, seed=42))
    result = run_quick(micro_dataset, epochs=1)
    with pytest.warns(UserWarning):
        evaluate_model(result.model, ds, "test")


def test_evaluation_is_deterministic(small_dataset):
    result = run_quick(small_dataset, epochs=1)
    a = evaluate_model(result.model, small_dataset, "test")
    b = evaluate_model(result.model, small_dataset, "test")
    assert a == b


# ---------------------------------------------------------------- shared splits


def count_preparations(monkeypatch) -> list:
    """The split of every later prepare_split call, in order."""
    calls = []
    prepare = training.prepare_split

    def counting(dataset, split):
        calls.append(split)
        return prepare(dataset, split)

    monkeypatch.setattr(training, "prepare_split", counting)
    return calls


def test_a_second_evaluation_reuses_the_prepared_split(small_dataset, monkeypatch):
    result = run_quick(small_dataset, epochs=1)
    dataset = dataclasses.replace(small_dataset)  # a new object, nothing prepared
    calls = count_preparations(monkeypatch)
    first = evaluate_model(result.model, dataset, "test")
    second = evaluate_model(result.model, dataset, "test")
    assert calls == ["test"]
    assert first == second
    assert first.to_dict() == result.checkpoint.metrics["test"]


def test_train_and_its_per_epoch_probes_prepare_each_split_once(small_dataset,
                                                                 monkeypatch):
    calls = count_preparations(monkeypatch)
    probes = []

    def probe(epoch, model, record):
        probes.append(evaluate_model(model, small_dataset, "test"))

    result = train(quick_config(epochs=3), small_dataset,
                   model_config=tiny_model_config(), epoch_callback=probe)
    assert calls == list(small_dataset.config.splits())
    assert len(probes) == 3
    assert probes[-1].to_dict() == result.checkpoint.metrics["test"]
    # a second run on the same dataset object prepares nothing
    train(quick_config(epochs=1), small_dataset, model_config=tiny_model_config())
    assert calls == list(small_dataset.config.splits())


def test_ablate_prepares_each_split_once(micro_dataset, monkeypatch):
    calls = count_preparations(monkeypatch)
    ablate(micro_dataset, quick_config(epochs=1), model_config=tiny_model_config())
    assert sorted(calls) == sorted(micro_dataset.config.splits())


def test_writing_into_a_shared_split_raises(small_dataset):
    evaluate_model(VQAModel(tiny_model_config(), seed=0), small_dataset, "test")
    shared = training._shared_split(small_dataset, "test")
    features, tokens, labels = split_batch(shared, slice(0, 4))
    for array in (*shared.arrays(), features.matrix, tokens.token_mask, labels):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_prepare_split_returns_a_private_writable_copy(small_dataset, monkeypatch):
    shared = training._shared_split(small_dataset, "test")
    first, second = (training.prepare_split(small_dataset, "test") for _ in range(2))
    for mine, other, kept in zip(first.arrays(), second.arrays(), shared.arrays(),
                                 strict=True):
        assert mine.flags.writeable and mine.flags.owndata
        assert not np.shares_memory(mine, other)
        assert not np.shares_memory(mine, kept)
        assert mine.tobytes() == kept.tobytes()
    # prepare_split stores nothing: the shared train split is still unprepared
    training.prepare_split(small_dataset, "train")
    calls = count_preparations(monkeypatch)
    assert training._shared_split(small_dataset, "test") is shared
    training._shared_split(small_dataset, "train")
    assert calls == ["train"]


def test_a_shared_split_lives_as_long_as_its_dataset():
    dataset = dt.generate_dataset(dt.DatasetConfig(n_samples=40, seed=5))
    shared = weakref.ref(training._shared_split(dataset, "test"))
    key = id(dataset)
    gc.collect()
    assert shared() is not None and key in training._SHARED
    del dataset
    gc.collect()
    assert shared() is None and key not in training._SHARED


def hash_or_error(obj):
    """hash(obj), or the message of the TypeError it raises."""
    try:
        return hash(obj)
    except TypeError as e:
        return str(e)


def test_the_memo_leaves_equality_hash_and_repr_alone(small_dataset, monkeypatch):
    # a dataset hashes by its config, whose category mix (a dict) is outside
    # the hash, and by its samples
    before = (hash_or_error(small_dataset), repr(small_dataset))
    twin = dt.generate_dataset(small_dataset.config)
    train(quick_config(epochs=1), small_dataset, model_config=tiny_model_config())
    assert small_dataset == twin
    assert (hash_or_error(small_dataset), repr(small_dataset)) == before
    assert pickle.dumps(small_dataset) == pickle.dumps(twin)
    # a copy is a new object: it starts with nothing prepared
    calls = count_preparations(monkeypatch)
    model = VQAModel(tiny_model_config(), seed=0)
    for copy in (dataclasses.replace(small_dataset),
                 pickle.loads(pickle.dumps(small_dataset))):
        evaluate_model(model, copy, "test")
    assert calls == ["test", "test"]


@pytest.mark.parametrize("split,shown", [
    ("test2", "dataset has no samples in split 'test2'"),
    ("tset", "dataset has no split 'tset' (splits: train, test, test2)"),
])
def test_a_split_that_fails_to_prepare_fails_on_every_call(split, shown,
                                                           monkeypatch):
    # 2% of 10 samples rounds to none: test2 is configured but empty
    dataset = dt.generate_dataset(dt.DatasetConfig(
        n_samples=10, seed=3, train_fraction=0.78, test_fraction=0.2,
        test2_fraction=0.02))
    model = VQAModel(tiny_model_config(), seed=0)
    calls = count_preparations(monkeypatch)
    for _ in range(2):
        with pytest.raises(dt.DatasetFormatError, match=re.escape(shown)):
            evaluate_model(model, dataset, split)
    assert calls == [split, split]


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    loaded = load_checkpoint(path)

    for name, arr in result.checkpoint.parameters.items():
        np.testing.assert_array_equal(loaded.parameters[name], arr)
    assert loaded.model_config == result.checkpoint.model_config
    assert loaded.train_config == result.checkpoint.train_config
    assert loaded.answers == result.checkpoint.answers
    assert loaded.step_count == result.checkpoint.step_count

    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_evaluation_equality(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    loaded = load_checkpoint(path)
    direct = evaluate_model(result.model, small_dataset, "test")
    reloaded = evaluate(loaded, small_dataset, "test")
    assert direct == reloaded


def test_checkpoint_header_shape(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    # no model parameter is a scalar, so one is added to show its line
    parameters = {**result.checkpoint.parameters, "x.scalar": np.array(0.25)}
    checkpoint = dataclasses.replace(result.checkpoint, parameters=parameters)
    path = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, path)
    head, records = read_checkpoint(path)
    assert head[0] == f"ckpt v7 {len(parameters)}"
    # each tensor line holds its name and its dims, nothing else, and its
    # block the array's little-endian float64 bytes in C order
    assert [line.split()[1:] for line, _ in records] == [
        [name, *map(str, array.shape)] for name, array in parameters.items()]
    assert [block for _, block in records] == [
        array.astype("<f8").tobytes() for array in parameters.values()]
    assert records[-1] == ("tensor x.scalar", np.float64(0.25).tobytes())
    scalar = load_checkpoint(path).parameters["x.scalar"]
    assert scalar.shape == () and scalar == 0.25


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_tampered_shape_names_parameter(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    lines = checkpoint_lines(path)
    idx = line_index(lines, "tensor fus.mlp_b2 ")
    parts = lines[idx].split()
    parts[-1] = str(int(parts[-1]) + 1)  # claim one more column than stored
    lines[idx] = " ".join(parts)
    bad = tmp_path / "tampered.ckpt"
    write_lines(bad, lines)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(bad)
    assert "fus.mlp_b2" in str(info.value)


def test_checkpoint_truncated_values_rejected(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    data = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[: int(len(data) * 0.7)])
    with pytest.raises(CheckpointError):
        load_checkpoint(cut)


def test_checkpoint_malformed_float_rejected(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    lines = checkpoint_lines(path)
    lines[line_index(lines, "tensor ") + 1] = b"bogus"  # the first block, replaced whole
    bad = tmp_path / "badfloat.ckpt"
    write_lines(bad, lines)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_version_mismatch_rejected(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    data = path.read_bytes()
    bad = tmp_path / "other.ckpt"
    # the version is checked before the layout: v4's header held the seed
    # too, v5 held another model's parameters in v6's layout, and v6 held
    # each block as a base64 text line
    for head, version in ((b"ckpt v9 ", "v9"), (b"ckpt v4 13 ", "v4"),
                          (b"ckpt v5 ", "v5"), (b"ckpt v6 ", "v6")):
        bad.write_bytes(data.replace(b"ckpt v7 ", head, 1))
        with pytest.raises(CheckpointError,
                           match=f"^unsupported checkpoint version '{version}'$"):
            load_checkpoint(bad)


# Float64 values a lossy encoding would change: signed zero, the smallest
# subnormals and the largest finite magnitudes.
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308)
tensors = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS))


@pytest.fixture(scope="module")
def block_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@given(arrays=st.lists(tensors, min_size=1, max_size=4))
@settings(max_examples=40)
def test_checkpoint_blocks_round_trip_bit_exact_and_writable(block_dir, arrays):
    checkpoint = Checkpoint(
        model_config=ModelConfig(), train_config=TrainConfig(seed=0),
        parameters={f"p{i}": a for i, a in enumerate(arrays)},
        step_count=0, metrics={}, answers=("no", "yes"))
    first, second = block_dir / "first.ckpt", block_dir / "second.ckpt"
    save_checkpoint(checkpoint, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for name, array in checkpoint.parameters.items():
        got = loaded.parameters[name]
        assert got.dtype == np.float64 and got.shape == array.shape
        assert got.tobytes() == array.tobytes()
        assert got.flags.writeable and got.flags.owndata


@pytest.fixture(scope="module")
def saved_lines(tmp_path_factory, small_dataset) -> list:
    path = tmp_path_factory.mktemp("saved") / "model.ckpt"
    save_checkpoint(run_quick(small_dataset).checkpoint, path)
    return checkpoint_lines(path)


def _first_value_nan(block: bytes) -> list:
    values = np.frombuffer(block, dtype="<f8").copy()
    values[0] = np.nan
    return [values.tobytes()]


@pytest.mark.parametrize("target,edit,shown", [
    ("fus.mlp_b2", lambda block: [block[:-8]], "bytes"),
    ("fus.mlp_b2", lambda block: [block + bytes(8)], "bytes"),
    # the byte after the block, where its newline belongs, is another byte
    ("fus.mlp_b2", lambda block: [block + b"!"], "is b'!', not a newline"),
    ("fus.mlp_b2", _first_value_nan, "non-finite value"),
    ("last", lambda block: [], "no values line"),
], ids=["one_value_short", "one_value_long", "no_newline", "nan", "missing_line"])
def test_checkpoint_bad_block_names_the_parameter(tmp_path, saved_lines, target,
                                                  edit, shown):
    shape_lines = [i for i, line in enumerate(saved_lines)
                   if isinstance(line, str) and line.startswith("tensor ")]
    index = shape_lines[-1] if target == "last" else next(
        i for i in shape_lines if saved_lines[i].split()[1] == target)
    name = saved_lines[index].split()[1]
    lines = (saved_lines[:index + 1] + edit(saved_lines[index + 1])
             + saved_lines[index + 2:])
    bad = tmp_path / "bad_block.ckpt"
    write_lines(bad, lines)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(bad)
    assert repr(name) in str(info.value) and shown in str(info.value)


@given(data=st.data())
@settings(max_examples=25)
def test_load_rejects_a_deleted_duplicated_or_swapped_line(block_dir, saved_lines, data):
    # the loader reads the lines in the order save_checkpoint writes them,
    # each block right after its own tensor line
    lines = list(saved_lines)
    index = data.draw(st.integers(1, len(lines) - 1), label="index")
    edits = ["delete", "duplicate"] + (["swap"] if index + 1 < len(lines) else [])
    edit = data.draw(st.sampled_from(edits), label="edit")
    if edit == "delete":
        del lines[index]
    elif edit == "duplicate":
        lines.insert(index, lines[index])
    else:
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
    edited = block_dir / "edited.ckpt"
    write_lines(edited, lines)
    with pytest.raises(CheckpointError):
        load_checkpoint(edited)


@pytest.mark.parametrize("edit,shown", [
    (lambda split: split.pop("confusion"), "missing ['confusion'], unknown []"),
    (lambda split: split.update(loss=1.0), "missing [], unknown ['loss']"),
], ids=["missing_key", "extra_key"])
def test_load_rejects_metrics_without_exactly_the_metrics_fields(
        tmp_path, saved_lines, edit, shown):
    index = line_index(saved_lines, "metrics ")
    metrics = json.loads(saved_lines[index][len("metrics "):])
    names = sorted(f.name for f in dataclasses.fields(Metrics))
    assert [sorted(split) for split in metrics.values()] == [names] * len(metrics)
    edit(metrics["test"])
    lines = list(saved_lines)
    lines[index] = "metrics " + json.dumps(metrics, sort_keys=True)
    bad = tmp_path / "bad_metrics.ckpt"
    write_lines(bad, lines)
    with pytest.raises(CheckpointError, match=f"metrics of split 'test' keys: {re.escape(shown)}"):
        load_checkpoint(bad)


def test_build_model_missing_parameter_named(small_dataset):
    result = run_quick(small_dataset)
    ckpt = result.checkpoint
    params = dict(ckpt.parameters)
    params.pop("enc.embed")
    broken = dataclasses.replace(ckpt, parameters=params)
    with pytest.raises(CheckpointError) as info:
        build_model(broken)
    assert "enc.embed" in str(info.value)


def test_evaluate_rejects_mismatched_answer_space(tmp_path, small_dataset):
    result = run_quick(small_dataset)
    ckpt = dataclasses.replace(result.checkpoint,
                               answers=("yes", "no"))
    with pytest.raises(CheckpointError):
        evaluate(ckpt, small_dataset, "test")


# ---------------------------------------------------------------- ablation


@pytest.fixture(scope="module")
def ablation_setup():
    ds = dt.generate_dataset(dt.DatasetConfig(n_samples=160, seed=55))
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=2e-3, seed=77)
    mc = tiny_model_config()
    return ds, cfg, mc


@pytest.fixture(scope="module")
def ablation_result(ablation_setup):
    ds, cfg, mc = ablation_setup
    return ablate(ds, dataclasses.replace(cfg, seed=77), model_config=mc)


def test_ablation_has_four_structured_rows(ablation_result):
    rows = ablation_result.rows
    assert [r["name"] for r in rows] == [v[0] for v in ABLATION_VARIANTS]
    for row in rows:
        for category in ("count", "presence", "comparison", "rural_urban"):
            assert category in row["per_category_accuracy"]
        assert 0.0 <= row["overall_accuracy"] <= 1.0
        assert 0.0 <= row["average_accuracy"] <= 1.0


def test_ablation_table_contains_columns(ablation_result):
    table = ablation_result.table
    for needle in ("variant", "count", "presence", "comparison",
                   "rural_urban", "OA", "AA", "baseline",
                   "cross-attention+infomax"):
        assert needle in table
    assert format_ablation_table(ablation_result.rows) == table


def test_ablation_rerun_byte_identical(ablation_setup, ablation_result):
    ds, cfg, mc = ablation_setup
    again = ablate(ds, dataclasses.replace(cfg, seed=77), model_config=mc)
    assert again.table == ablation_result.table
    assert again.rows == ablation_result.rows
    for name, ckpt in ablation_result.checkpoints.items():
        other = again.checkpoints[name]
        for pname, arr in ckpt.parameters.items():
            np.testing.assert_array_equal(other.parameters[pname], arr)


def test_ablation_baseline_consistent_with_standalone_run(ablation_setup,
                                                          ablation_result):
    ds, cfg, mc = ablation_setup
    standalone_cfg = dataclasses.replace(cfg, seed=77 + 0)
    standalone_mc = dataclasses.replace(
        mc, enable_cross_attention=False, enable_infomax=False)
    result = train(standalone_cfg, ds, model_config=standalone_mc)
    metrics = evaluate_model(result.model, ds, "test")
    baseline = ablation_result.rows[0]
    assert baseline["name"] == "baseline"
    assert baseline["overall_accuracy"] == metrics.overall_accuracy
    assert baseline["average_accuracy"] == metrics.average_accuracy


def test_ablation_flags_per_variant(ablation_result):
    flags = {(r["enable_cross_attention"], r["enable_infomax"])
             for r in ablation_result.rows}
    assert flags == {(False, False), (True, False), (False, True), (True, True)}
