"""End-to-end tests for the command-line interface.

Every test drives ``mibvqa.cli.main`` in-process so exit codes and output can
be asserted directly; one smoke test runs the module entry point through a real
subprocess.  Datasets and training runs use deliberately tiny configurations
to keep the whole file fast.
"""

import argparse
import base64
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mibvqa import autodiff, cli, training
from mibvqa.cli import build_parser, main
from mibvqa.data import (
    ANSWER_INDEX, CATEGORIES, FORMAT_NAME, TEMPLATES, VARIANT_CATEGORIES,
    VOCABULARY, DatasetConfig, Scene, SceneObject, answer_oracle, import_dataset,
)
from mibvqa.model import ModelConfig
from mibvqa.training import (
    ABLATION_VARIANTS, TrainConfig, build_model, evaluate, evaluate_model,
    load_checkpoint,
)
from helpers_oracles import reference_tokenize

DATASET_CFG = """\
# tiny deterministic scene/question corpus for CLI tests
n_samples = 120
seed = 11
"""

TRAIN_CFG = """\
epochs = 2
batch_size = 16
learning_rate = 2e-3
seed = 5
d_h = 12
d_q = 12
d_ff = 6
d_p = 8
d_f = 16
d_mlp = 16
d_z = 6
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_cfg_path(workdir):
    path = workdir / "data.cfg"
    path.write_text(DATASET_CFG, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def train_cfg_path(workdir):
    path = workdir / "train.cfg"
    path.write_text(TRAIN_CFG, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def data_path(workdir, dataset_cfg_path):
    path = workdir / "tiny.jsonl"
    code = main(["gen-data", "--config", str(dataset_cfg_path), "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def ckpt_path(workdir, data_path, train_cfg_path):
    path = workdir / "tiny.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(path),
                 "--config", str(train_cfg_path)])
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# usage errors (argparse owns these: SystemExit with code 2)
# ---------------------------------------------------------------------------

# Arguments of a subcommand that set no config field.
NON_CONFIG_DESTS = {"help", "config", "data", "out", "split"}


@pytest.mark.parametrize("command,config_classes", [
    ("gen-data", (DatasetConfig,)),
    ("train", (TrainConfig, ModelConfig)),
    ("ablate", (TrainConfig, ModelConfig)),
], ids=["gen-data", "train", "ablate"])
def test_every_flag_dest_is_a_config_field_or_a_named_argument(
        command, config_classes):
    # config_io drops a flag whose dest names no field, so a misnamed dest
    # would make the flag a silent no-op.
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    field_names = {f.name for cls in config_classes
                   for f in dataclasses.fields(cls)}
    for action in subparsers.choices[command]._actions:
        assert action.dest in field_names | NON_CONFIG_DESTS, action.option_strings
        if action.dest in field_names:
            # A flag left out must not override the config file.
            assert action.default is None, action.option_strings


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])  # --out is required
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_writes_a_loadable_dataset_and_reports_counts(
        data_path, capsys):
    # The fixture already ran the command; rerun to capture its stdout.
    code = main(["gen-data", "--config", str(data_path.parent / "data.cfg"),
                 "--out", str(data_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 120 samples" in out
    assert "train=" in out and "test=" in out
    dataset = import_dataset(data_path)
    assert len(dataset.samples) == 120


def test_gen_data_is_byte_identical_across_reruns(workdir, dataset_cfg_path,
                                                  data_path):
    again = workdir / "tiny_again.jsonl"
    code = main(["gen-data", "--config", str(dataset_cfg_path),
                 "--out", str(again)])
    assert code == 0
    assert again.read_bytes() == data_path.read_bytes()


def test_default_gen_data_output_keeps_its_digest(tmp_path):
    # generation reads PCG64's raw outputs, which NumPy keeps fixed across
    # versions: the default dataset keeps its bytes on every NumPy
    path = tmp_path / "dataset.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "30e28c051fc433ea84a8e29a25424bef4666a388f701de9ef8917b43c25764a9")


def test_gen_data_seed_flag_overrides_the_config_file(workdir,
                                                      dataset_cfg_path,
                                                      data_path):
    other = workdir / "tiny_seed12.jsonl"
    code = main(["gen-data", "--config", str(dataset_cfg_path),
                 "--seed", "12", "--out", str(other)])
    assert code == 0
    assert other.read_bytes() != data_path.read_bytes()
    dataset = import_dataset(other)
    assert dataset.config.seed == 12


def test_gen_data_rejects_an_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_samples = 10\nbogus = 1\n", encoding="utf-8")
    code = main(["gen-data", "--config", str(bad),
                 "--out", str(tmp_path / "never.jsonl")])
    err = capsys.readouterr().err
    assert code == 3
    assert "bogus" in err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_a_checkpoint_and_prints_progress(ckpt_path, capsys,
                                                       data_path,
                                                       train_cfg_path,
                                                       workdir):
    # Rerun the fixture's command to capture stdout.
    out_path = workdir / "tiny_rerun.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(train_cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "epoch    0" in out and "epoch    1" in out
    assert f"saved checkpoint to {out_path}" in out
    assert "train: OA" in out and "test: OA" in out
    # Same data, config, and seed: the checkpoint bytes must match too.
    assert out_path.read_bytes() == ckpt_path.read_bytes()


def test_train_flag_overrides_beat_the_config_file(workdir, data_path,
                                                   train_cfg_path):
    out_path = workdir / "one_epoch.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(train_cfg_path), "--epochs", "1",
                 "--lambda", "0.5", "--batch-size", "8", "--lr", "1e-3",
                 "--seed", "9"])
    assert code == 0
    ckpt = load_checkpoint(out_path)
    assert ckpt.train_config.epochs == 1
    assert ckpt.train_config.lam == 0.5
    assert ckpt.train_config.batch_size == 8
    assert ckpt.train_config.learning_rate == 1e-3
    assert ckpt.train_config.seed == 9


def test_train_without_recipe_flags_uses_the_train_config_defaults(tmp_path,
                                                                   data_path):
    bare, spelled = tmp_path / "bare.ckpt", tmp_path / "spelled.ckpt"
    common = ["train", "--data", str(data_path), "--epochs", "1"]
    assert main([*common, "--out", str(bare)]) == 0
    assert main([*common, "--out", str(spelled), "--batch-size", "32",
                 "--lr", "5e-3", "--seed", "42"]) == 0
    assert bare.read_bytes() == spelled.read_bytes()


def test_train_no_infomax_flag_drops_the_bottleneck_parameters(
        workdir, data_path, train_cfg_path):
    out_path = workdir / "no_ib.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(train_cfg_path), "--epochs", "1",
                 "--no-infomax"])
    assert code == 0
    ckpt = load_checkpoint(out_path)
    assert not ckpt.model_config.enable_infomax
    assert not any(name.startswith("ib.") for name in ckpt.parameters)


def test_train_no_cross_attention_flag_drops_the_attention_parameters(
        workdir, data_path, train_cfg_path):
    out_path = workdir / "no_att.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(train_cfg_path), "--epochs", "1",
                 "--no-cross-attention"])
    assert code == 0
    ckpt = load_checkpoint(out_path)
    assert not ckpt.model_config.enable_cross_attention
    assert not any(name.startswith("att.") for name in ckpt.parameters)


def test_train_config_file_flag_is_a_model_key(workdir, data_path):
    config = workdir / "no_ib.cfg"
    config.write_text(TRAIN_CFG + "enable_infomax = false\n", encoding="utf-8")
    out_path = workdir / "no_ib_from_file.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(config), "--epochs", "1"])
    assert code == 0
    ckpt = load_checkpoint(out_path)
    assert not ckpt.model_config.enable_infomax
    assert ckpt.model_config.d_h == 12
    assert not any(name.startswith("ib.") for name in ckpt.parameters)


def test_train_rejects_a_dataset_key_in_the_train_config(tmp_path, data_path,
                                                         capsys):
    bad = tmp_path / "mixed.cfg"
    bad.write_text("epochs = 1\nn_samples = 10\n", encoding="utf-8")
    code = main(["train", "--data", str(data_path),
                 "--out", str(tmp_path / "never.ckpt"), "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "n_samples" in err


def test_train_rejects_a_nonpositive_model_width(tmp_path, data_path, capsys):
    bad = tmp_path / "zero_width.cfg"
    bad.write_text("epochs = 1\nd_h = 0\n", encoding="utf-8")
    code = main(["train", "--data", str(data_path),
                 "--out", str(tmp_path / "never.ckpt"), "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "d_h" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("where", ["train_config", "checkpoint"])
def test_a_model_width_past_the_bound_exits_with_one_error_line(
        tmp_path, ckpt_path, data_path, capsys, where):
    # 2**62 is past NumPy's size limit for an array of two such widths; the
    # config check rejects it before any weight is allocated
    if where == "train_config":
        bad = tmp_path / "wide.cfg"
        bad.write_text(f"epochs = 1\nd_h = {2 ** 62}\n", encoding="utf-8")
        argv = ["train", "--data", str(data_path),
                "--out", str(tmp_path / "never.ckpt"), "--config", str(bad)]
        shown = f"error: ModelConfig.d_h must be at most 65536, got {2 ** 62}\n"
    else:
        text, number = _edit_line(ckpt_path.read_text(encoding="utf-8"), "config model ",
                                  _set_config_field("model", "d_h", 2 ** 62))
        bad = tmp_path / "wide.ckpt"
        bad.write_text(text, encoding="utf-8")
        argv = ["eval", "--ckpt", str(bad), "--data", str(data_path)]
        shown = (f"error: malformed 'config model' payload on line {number}: "
                 f"ModelConfig.d_h must be at most 65536, got {2 ** 62}\n")
    code = main(argv)
    assert code == 3
    assert capsys.readouterr().err == shown
    assert not (tmp_path / "never.ckpt").exists()


def test_out_of_memory_exits_with_one_error_line(tmp_path, data_path, capsys,
                                                 monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, "train", out_of_memory)
    code = main(["train", "--data", str(data_path), "--out", str(tmp_path / "never.ckpt")])
    assert code == 3
    assert capsys.readouterr().err == ("error: out of memory: Unable to allocate "
                                       "8.00 EiB for an array\n")
    assert not (tmp_path / "never.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("key", ["bogus", "vocab_size"])
def test_train_config_error_is_reported_before_the_dataset_is_read(
        tmp_path, capsys, command, key):
    bad = tmp_path / f"{key}.cfg"
    bad.write_text(f"epochs = 1\n{key} = 29\n", encoding="utf-8")
    code = main([command, "--data", str(tmp_path / "no_such.jsonl"),
                 "--out", str(tmp_path / "never"), "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: unknown train config key {key!r}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text,shown", [
    ("test_fraction = nan", "split fractions must be finite"),
    ("train_fraction = 1.2\ntest_fraction = -0.2", "split fractions must be finite"),
    ("test2_fraction = inf", "split fractions must be finite"),
    ("category_mix = count:1.5,presence:-0.5",
     "category 'presence' share must be a finite number > 0, got -0.5"),
    ("category_mix = count:nan,presence:1",
     "category 'count' share must be a finite number > 0, got nan"),
    ("category_mix = count:0.5, count:0.5, presence:0.5",
     "key 'category_mix': duplicate category 'count'"),
    ("k_max = 4",
     "k_max must be at least 8, the longest question's token count; got 4"),
    ("seed = -1", "seed must be nonnegative, got -1"),
    ("grid_size = -3\nmin_objects = 1\nmax_objects = 5",
     "grid_size must be positive, got -3"),
    ("grid_size = 65537", "grid_size must be at most 65536, whose 4294967296 cells "
                          "a 32-bit draw covers; got 65537"),
    ("urban_threshold = 0", "urban_threshold must be 1 to max_objects=10, got 0"),
    ("urban_threshold = 11", "urban_threshold must be 1 to max_objects=10, got 11"),
])
def test_gen_data_rejects_a_non_finite_or_negative_fraction(tmp_path, capsys,
                                                           text, shown):
    config = tmp_path / "data.cfg"
    # no seed line: a row may set it
    config.write_text(f"n_samples = 120\n{text}\n", encoding="utf-8")
    out = tmp_path / "never.jsonl"
    code = main(["gen-data", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and shown in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args,shown", [
    (["--lr", "nan"], "learning_rate must be finite and positive, got nan"),
    (["--lr", "inf"], "learning_rate must be finite and positive, got inf"),
    (["--lambda", "nan"], "lam must be finite and nonnegative, got nan"),
    (["--lambda", "inf"], "lam must be finite and nonnegative, got inf"),
    (["--seed", "-1"], "seed must be nonnegative, got -1"),
])
def test_train_rejects_a_non_finite_rate_before_the_dataset_is_read(
        tmp_path, capsys, args, shown):
    code = main(["train", "--data", str(tmp_path / "no_such.jsonl"),
                 "--out", str(tmp_path / "never.ckpt"), *args])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {shown}")
    assert len(err.strip().splitlines()) == 1


def test_missing_data_file_exits_with_the_data_error_code(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "no_such.jsonl"),
                 "--out", str(tmp_path / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err and "no_such.jsonl" in err


@pytest.mark.parametrize("flag", ["--data", "--config", "--ckpt"])
def test_missing_input_file_exits_with_the_os_error_line(
        tmp_path, ckpt_path, data_path, capsys, flag):
    # open() is the one check that an input file exists
    missing = tmp_path / "no_such_file"
    never = str(tmp_path / "never.ckpt")
    argv = {
        "--data": ["train", "--data", str(missing), "--out", never],
        "--config": ["train", "--data", str(data_path), "--out", never,
                     "--config", str(missing)],
        "--ckpt": ["eval", "--ckpt", str(missing), "--data", str(data_path)],
    }[flag]
    code = main(argv)
    assert code == 3
    assert capsys.readouterr().err == (f"error: [Errno 2] No such file or "
                                       f"directory: '{missing}'\n")


def test_truncated_dataset_file_exits_with_the_data_error_code(tmp_path,
                                                               data_path,
                                                               capsys):
    clipped = tmp_path / "clipped.jsonl"
    raw = data_path.read_bytes()
    clipped.write_bytes(raw[: len(raw) * 2 // 3])
    code = main(["train", "--data", str(clipped),
                 "--out", str(tmp_path / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_divergent_learning_rate_exits_with_the_divergence_code(
        tmp_path, data_path, train_cfg_path, capsys):
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(data_path),
                     "--out", str(tmp_path / "never.ckpt"),
                     "--config", str(train_cfg_path),
                     "--epochs", "1", "--lr", "1e150"])
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err
    assert not (tmp_path / "never.ckpt").exists()


def test_non_finite_gradient_exits_with_the_divergence_code(
        tmp_path, data_path, train_cfg_path, capsys, monkeypatch):
    backward = training.backward

    def poisoned(loss):
        backward(loss)
        next(node for node in autodiff._toposort(loss)
             if node._vjp is None and node.requires_grad).grad.flat[0] = np.inf

    monkeypatch.setattr(training, "backward", poisoned)
    code = main(["train", "--data", str(data_path),
                 "--out", str(tmp_path / "never.ckpt"),
                 "--config", str(train_cfg_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: non-finite gradient of parameter ")
    assert "(inf) at optimizer step 1" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "never.ckpt").exists()


def test_train_prints_each_epoch_line_as_the_epoch_ends(
        tmp_path, data_path, train_cfg_path, capsys, monkeypatch):
    real_train = training.train

    def diverging_train(*args, epoch_callback=None, **kwargs):
        def callback(epoch, model, record):
            if epoch_callback is not None:
                epoch_callback(epoch, model, record)
            if epoch == 1:
                raise training.DivergenceError("final", math.nan, 12)
        return real_train(*args, epoch_callback=callback, **kwargs)

    monkeypatch.setattr(cli, "train", diverging_train)
    code = main(["train", "--data", str(data_path),
                 "--out", str(tmp_path / "never.ckpt"),
                 "--config", str(train_cfg_path), "--epochs", "3"])
    out, err = capsys.readouterr()
    assert code == 4
    lines = [line.split() for line in out.splitlines()]
    assert [line[:2] for line in lines] == [["epoch", "0"], ["epoch", "1"]]
    # every mean loss term of the epoch record, in LossBreakdown's order
    for line in lines:
        assert line[2::2] == ["ce", "skl", "final"]
        assert all(math.isfinite(float(value)) for value in line[3::2])
    assert err.startswith("error: non-finite loss term 'final'")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "never.ckpt").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_prints_the_metrics_table(ckpt_path, data_path, capsys):
    code = main(["eval", "--ckpt", str(ckpt_path), "--data", str(data_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "split test" in out
    assert "overall_accuracy" in out and "average_accuracy" in out


def test_eval_split_flag_selects_the_split(ckpt_path, data_path, capsys):
    code = main(["eval", "--ckpt", str(ckpt_path), "--data", str(data_path),
                 "--split", "train"])
    out = capsys.readouterr().out
    assert code == 0
    assert "split train" in out
    assert "samples 96" in out  # 0.8 * 120


def test_eval_json_record_matches_the_library_metrics(workdir, ckpt_path,
                                                      data_path):
    json_path = workdir / "metrics.json"
    code = main(["eval", "--ckpt", str(ckpt_path), "--data", str(data_path),
                 "--json-out", str(json_path)])
    assert code == 0
    record = json.loads(json_path.read_text(encoding="utf-8"))
    expected = evaluate(load_checkpoint(ckpt_path),
                        import_dataset(data_path), "test").to_dict()
    assert record == {"split": "test", **expected}


def test_eval_missing_checkpoint_exits_with_the_data_error_code(
        workdir, data_path, capsys):
    code = main(["eval", "--ckpt", str(workdir / "no_such.ckpt"),
                 "--data", str(data_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_eval_corrupt_checkpoint_exits_with_the_data_error_code(
        workdir, ckpt_path, data_path, capsys):
    mangled = workdir / "mangled.ckpt"
    text = ckpt_path.read_text(encoding="utf-8")
    mangled.write_text("junk v9" + text[7:], encoding="utf-8")
    code = main(["eval", "--ckpt", str(mangled), "--data", str(data_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def _edit_line(text: str, prefix: str, edit) -> tuple:
    """(text with edit applied to the line starting with prefix, its number)."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n", index + 1


def _add_bogus_key(line: str) -> str:
    head, payload = line.split(" {", 1)
    return f'{head} {{"bogus": 1, {payload}'


def _set_config_field(section: str, name: str, value):
    prefix = f"config {section} "
    return lambda line: prefix + json.dumps(
        {**json.loads(line[len(prefix):]), name: value}, sort_keys=True)


@pytest.mark.parametrize("prefix,edit", [
    ("meta step_count ", lambda line: "meta step_count many"),
    ("meta step_count ", lambda line: "meta step_count -7"),
    ("config model ", _add_bogus_key),
    ("config train ", _add_bogus_key),
    ("metrics ", lambda line: line[:-1]),
    ("metrics ", lambda line: "metrics []"),
    ("metrics ", lambda line: 'metrics {"test": 1}'),
    ("answers ", lambda line: "answers [\"yes\", "),
    ("config model ", _set_config_field("model", "d_h", 12.0)),
    ("config model ", _set_config_field("model", "enable_infomax", "no")),
    ("config train ", _set_config_field("train", "epochs", 2.5)),
    ("config train ", _set_config_field("train", "batch_size", True)),
    ("config train ", _set_config_field("train", "learning_rate", True)),
], ids=["step_count", "step_count_negative", "model_key", "train_key",
        "metrics_json", "metrics_list", "metrics_value", "answers_json", "model_width_float", "model_flag_text",
        "train_epochs_float", "train_batch_size_bool", "train_rate_bool"])
def test_eval_malformed_checkpoint_line_exits_with_one_error_line(
        workdir, ckpt_path, data_path, capsys, prefix, edit):
    text, number = _edit_line(ckpt_path.read_text(encoding="utf-8"), prefix, edit)
    broken = workdir / "broken.ckpt"
    broken.write_text(text, encoding="utf-8")
    code = main(["eval", "--ckpt", str(broken), "--data", str(data_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and f"line {number}" in err
    assert len(err.strip().splitlines()) == 1


# JSON nested far past the interpreter's recursion limit: json.loads raises
# RecursionError on it, which must end as one error line, not a traceback
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("prefix", ["metrics ", "config model ", "answers "],
                         ids=["metrics", "config_model", "answers"])
def test_eval_deeply_nested_checkpoint_line_exits_with_one_error_line(
        workdir, ckpt_path, data_path, capsys, prefix):
    text, number = _edit_line(ckpt_path.read_text(encoding="utf-8"), prefix,
                              lambda line: prefix + DEEP_JSON)
    broken = workdir / "nested.ckpt"
    broken.write_text(text, encoding="utf-8")
    code = main(["eval", "--ckpt", str(broken), "--data", str(data_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and f"line {number}" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("index,shown", [
    (0, "error: malformed header line: maximum recursion depth exceeded"),
    (1, "error: malformed record at line 2: maximum recursion depth exceeded"),
], ids=["header", "record"])
def test_deeply_nested_dataset_line_exits_with_one_error_line(
        tmp_path, data_path, capsys, index, shown):
    lines = data_path.read_text(encoding="utf-8").splitlines()
    lines[index] = DEEP_JSON
    edited = tmp_path / "nested.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["train", "--data", str(edited),
                 "--out", str(tmp_path / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(shown)
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "never.ckpt").exists()


# An object that names a key twice: json.loads would keep the last value,
# so every reader rejects it, naming the key.
@pytest.mark.parametrize("index,old,new,shown", [
    (0, '"version": 2', '"version": 2, "version": 2',
     "error: malformed header line: key 'version' given twice"),
    (0, '"seed": 11', '"seed": 11, "seed": 12',
     "error: malformed header line: key 'seed' given twice"),
    (1, '"split": ', '"split": "test", "split": ',
     "error: malformed record at line 2: key 'split' given twice"),
], ids=["header_version", "config_echo_seed", "record_split"])
def test_a_dataset_line_that_names_a_key_twice_exits_with_one_error_line(
        tmp_path, data_path, capsys, index, old, new, shown):
    lines = data_path.read_text(encoding="utf-8").splitlines()
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    edited = tmp_path / "twice.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["train", "--data", str(edited), "--out", str(tmp_path / "never.ckpt")])
    assert code == 3
    assert capsys.readouterr().err == shown + "\n"
    assert not (tmp_path / "never.ckpt").exists()


@pytest.mark.parametrize("prefix,old,new,key", [
    ("config model ", '"d_h": 12', '"d_h": 12, "d_h": 13', "d_h"),
    ("config train ", '"seed": 5', '"seed": 5, "seed": 6', "seed"),
    ("metrics ", '"n_samples": ', '"n_samples": 1, "n_samples": ', "n_samples"),
    ("answers ", '["no", ', '[{"no": 0, "no": 0}, ', "no"),
], ids=["config_model", "config_train", "metrics", "answers"])
def test_a_checkpoint_line_that_names_a_key_twice_exits_with_one_error_line(
        tmp_path, ckpt_path, data_path, capsys, prefix, old, new, key):
    text, number = _edit_line(ckpt_path.read_text(encoding="utf-8"), prefix,
                              lambda line: line.replace(old, new, 1))
    assert new in text
    broken = tmp_path / "twice.ckpt"
    broken.write_text(text, encoding="utf-8")
    code = main(["eval", "--ckpt", str(broken), "--data", str(data_path)])
    assert code == 3
    assert capsys.readouterr().err == (f"error: malformed {prefix.strip()!r} payload "
                                       f"on line {number}: key {key!r} given twice\n")


def _first_block_nan(lines: list) -> list:
    index = next(i for i, line in enumerate(lines) if line.startswith("tensor ")) + 1
    values = np.frombuffer(base64.b64decode(lines[index]), dtype="<f8").copy()
    values[0] = np.nan
    lines[index] = base64.b64encode(values.tobytes()).decode()
    return lines


def _header_field(position: int, value: str):
    def edit(lines: list) -> list:
        head = lines[0].split()
        head[position] = value
        lines[0] = " ".join(head)
        return lines
    return edit


def _first_shape_dim_text(lines: list) -> list:
    index = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    lines[index] += " x"
    return lines


def _payload_edit(prefix: str, change):
    """Apply change to the JSON payload of the line starting with prefix."""
    def edit(lines: list) -> list:
        index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[index] = prefix + json.dumps(change(json.loads(lines[index][len(prefix):])))
        return lines
    return edit


def _without(prefix: str):
    return lambda lines: [line for line in lines if not line.startswith(prefix)]


def _repeated(prefix: str):
    def edit(lines: list) -> list:
        index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return lines[:index + 1] + lines[index:]
    return edit


def _config_lines_swapped(lines: list) -> list:
    lines[2], lines[3] = lines[3], lines[2]
    return lines


def _first_block_twice(lines: list) -> list:
    index = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    return lines[:index + 2] + lines[index:]


@pytest.mark.parametrize("edit,shown", [
    (_header_field(1, "v2"), "unsupported checkpoint version 'v2'"),
    (_header_field(1, "v3"), "unsupported checkpoint version 'v3'"),
    (_header_field(2, "-5"), "negative tensor count in header line: 'ckpt v6 -5'"),
    (_first_block_nan, "non-finite value in parameter"),
    (_first_shape_dim_text, "malformed shape line for parameter 'enc.embed'"),
    (_payload_edit("config model ", lambda mc: {**mc, "d_h": mc["d_h"] + 1}),
     "shape mismatch for parameter"),
    (_payload_edit("answers ", lambda answers: answers[::-1]),
     "answer space does not match"),
    (_first_block_twice, "parameter 'enc.embed' repeated on line 9"),
    (_without("meta "), "line 2 should be the 'meta step_count' line"),
    (_without("metrics "), "line 5 should be the 'metrics' line"),
    (_without("answers "), "line 6 should be the 'answers' line"),
    (_repeated("config train "), "line 5 should be the 'metrics' line"),
    (_config_lines_swapped, "line 3 should be the 'config model' line"),
    (lambda lines: lines + [""], "follows the header's last tensor"),
    (_payload_edit("config train ", lambda tc: {**tc, "seed": -1}),
     "malformed 'config train' payload on line 4: seed must be nonnegative, got -1"),
    (_payload_edit("config train ", lambda tc: {k: v for k, v in tc.items()
                                                 if k != "epochs"}),
     "malformed 'config train' payload on line 4: TrainConfig keys: "
     "missing ['epochs'], unknown []"),
], ids=["v2", "v3", "negative_count", "nan", "dim_text", "model_width", "answers",
        "block_twice", "no_meta", "no_metrics", "no_answers", "config_train_twice",
        "config_swapped", "blank_last_line", "config_train_seed_negative",
        "config_train_no_epochs"])
def test_eval_rejected_checkpoint_exits_with_one_error_line(
        workdir, ckpt_path, data_path, capsys, edit, shown):
    lines = edit(ckpt_path.read_text(encoding="utf-8").splitlines())
    broken = workdir / "rejected.ckpt"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["eval", "--ckpt", str(broken), "--data", str(data_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and shown in err
    assert len(err.strip().splitlines()) == 1


def test_eval_token_id_outside_the_vocabulary_exits_with_the_data_error_code(
        workdir, ckpt_path, data_path, capsys):
    lines = data_path.read_text(encoding="utf-8").splitlines()
    index = next(i for i, line in enumerate(lines[1:], start=1)
                 if json.loads(line)["split"] == "test")
    record = json.loads(lines[index])
    record["token_ids"][0] = 999
    lines[index] = json.dumps(record, sort_keys=True)
    edited = workdir / "bad_token.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["eval", "--ckpt", str(ckpt_path), "--data", str(edited)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "999" in err
    assert len(err.strip().splitlines()) == 1


def _rebuild_derived_fields(record: dict, config: dict) -> None:
    """Set the category, token ids and answer of a record to the ones its
    scene, template and slots give on the grid and k_max of the config
    echo, so only a drawn field can be wrong."""
    template, slots = TEMPLATES[record["template_id"]], tuple(record["slots"])
    sc = record["scene"]
    scene = Scene(config["grid_size"], tuple(SceneObject(*o) for o in sc["objects"]),
                  sc["zone_label"])
    token_ids, n_tokens = reference_tokenize(template.render(slots), config["k_max"])
    record.update(category=template.category, token_ids=list(token_ids),
                  n_tokens=n_tokens,
                  answer_index=ANSWER_INDEX[answer_oracle(scene, template, slots)])


@pytest.mark.parametrize("field,value,shown", [
    ("cls", "castle", "castle"),
    ("size", "huge", "huge"),
    ("row", 99, "row 99"),
    ("col", -1, "col -1"),
    ("token_id", 29, "token_ids [1, 2, 29, 3,"),
    ("token_id", 24, "token_ids [1, 2, 24, 3,"),
    ("n_tokens", 13, "n_tokens 13"),
    ("n_tokens", 7, "n_tokens 7 is not the rebuilt sample's 8"),
    ("n_objects", 17, "17 objects, expected min_objects=10 to max_objects=10"),
    ("n_objects", 0, "0 objects, expected min_objects=10 to max_objects=10"),
    ("n_token_ids", 11, "token_ids [1, 2, 27, 3, 4, 5, 6, 7, 0, 0, 0] is not"),
    ("row", 8, "row 8, col 7 is off the 8x8 grid"),
    ("answer_index", 99, "answer_index 99 is not the rebuilt sample's 4"),
    ("answer_index", -1, "answer_index -1 is not the rebuilt sample's 4"),
    ("answer_index", 5, "answer_index 5 is not the rebuilt sample's 4"),
    ("template_id", 99, "unknown template_id 99"),
    ("slots", ["road"], "token_ids [1, 2, 27, 3, 4, 5, 6, 7, 0, 0, 0, 0] is not the "
                        "rebuilt sample's [1, 2, 25,"),
    ("slots", ["water", "road"], "2 slots for template 0"),
    ("split", "bogus", "split 'bogus' is not among the header's splits"),
    ("category", "bogus", "category 'bogus' is not the rebuilt sample's 'count'"),
    ("zone_label", "x", "zone_label 'x' is not the rebuilt sample's 'rural'"),
    ("zone_label", "urban", "zone_label 'urban' is not the rebuilt sample's 'rural'"),
    ("question", (0, ["small"]),
     "slot cls 'small' is not one of building, road, water, tree, field"),
    ("question", (1, ["how"]), "slot cls 'how' is not one of building,"),
    ("question", (2, ["road", "small"]), "slot size 'road' is not one of small, large"),
    ("question", (3, ["road", "road"]), "comparison of 'road' with itself"),
    ("shared_cell", 1, "10 objects on 9 grid cells"),
])
def test_dataset_record_outside_the_model_inputs_exits_with_one_error_line(
        tmp_path, data_path, capsys, field, value, shown):
    lines = data_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    object_fields = ("cls", "row", "col", "size")
    if field in object_fields:
        record["scene"]["objects"][0][object_fields.index(field)] = value
    elif field == "token_id":
        record["token_ids"][2] = value
    elif field == "n_objects":
        record["scene"]["objects"] = [["road", i // 8, i % 8, "small"]
                                      for i in range(value)]
    elif field == "shared_cell":
        # answers read classes and sizes only, so the derived fields still hold
        objects = record["scene"]["objects"]
        objects[value][1:3] = objects[0][1:3]
    elif field == "n_token_ids":
        record["token_ids"] = record["token_ids"][:value]
    elif field == "zone_label":
        record["scene"][field] = value
    elif field == "question":
        record["template_id"], record["slots"] = value
        _rebuild_derived_fields(record, json.loads(lines[0])["config"])
    else:
        record[field] = value
    lines[1] = json.dumps(record, sort_keys=True)
    edited = tmp_path / "bad_record.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["train", "--data", str(edited),
                 "--out", str(tmp_path / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "line 2" in err and shown in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "never.ckpt").exists()


# Every string a field of a valid record can hold: words, categories, splits.
RECORD_WORDS = set(VOCABULARY) | set(CATEGORIES) | {"train", "test", "test2"}

# A value of each JSON type; a wrong-type edit draws one of another type.
ANY_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=5), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _paths(value, path=()):
    """The path of every field in a JSON value: dict keys and list indices."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _bad_value(kind: str, old):
    """A strategy for a value that makes the field holding old invalid."""
    if kind == "wrong type":
        return ANY_JSON_VALUE.filter(lambda new: type(new) is not type(old))
    if kind == "non-finite":
        return st.sampled_from([math.nan, math.inf, -math.inf])
    # out of range: no integer field takes a negative value or one of 1000
    # or more, and no string field a string outside RECORD_WORDS
    if type(old) is int:
        return st.integers(max_value=-1) | st.integers(min_value=1000)
    return st.text(max_size=8).filter(lambda new: new not in RECORD_WORDS)


@settings(max_examples=25)
@given(data=st.data())
def test_eval_of_a_record_with_one_bad_field_exits_with_one_error_line(
        workdir, ckpt_path, data_path, data):
    lines = data_path.read_text(encoding="utf-8").splitlines()
    index = data.draw(st.integers(1, len(lines) - 1), label="record")
    record = json.loads(lines[index])
    kind = data.draw(st.sampled_from(
        ["wrong type", "out of range", "non-finite", "deleted key", "extra key"]),
        label="kind")
    if kind == "extra key":  # one more key in the record or in its scene
        holder = data.draw(st.sampled_from([record, record["scene"]]), label="object")
        new_key = data.draw(st.text(max_size=8).filter(lambda k: k not in holder),
                            label="new key")
        holder[new_key] = data.draw(ANY_JSON_VALUE, label="value")
    else:
        paths = list(_paths(record))
        if kind == "deleted key":
            paths = [path for path in paths if isinstance(path[-1], str)]
        elif kind != "wrong type":  # a number or a string, not an object or list
            paths = [path for path in paths if not isinstance(
                functools.reduce(operator.getitem, path, record), (dict, list))]
        *parents, last = data.draw(st.sampled_from(paths), label="field")
        holder = functools.reduce(operator.getitem, parents, record)
        if kind == "deleted key":
            del holder[last]
        else:
            holder[last] = data.draw(_bad_value(kind, holder[last]), label="value")
    lines[index] = json.dumps(record, sort_keys=True)
    edited = workdir / "bad_field.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--ckpt", str(ckpt_path), "--data", str(edited)])
    assert code == 3
    assert err.getvalue().startswith(f"error: malformed sample record at line "
                                     f"{index + 1}: ")
    assert len(err.getvalue().strip().splitlines()) == 1


# The header lines a one-field edit targets: file, line index, and the text
# before the fields. The checkpoint header and meta line hold space-separated
# tokens, the rest JSON objects; the config echo is the dataset header's
# "config" object. The checkpoint's metrics line is out of scope but for
# its keys: loading reads no value of it back.
HEADER_LINES = {
    "checkpoint header": ("ckpt", 0, "ckpt "),
    "meta step_count": ("ckpt", 1, "meta step_count "),
    "config model": ("ckpt", 2, "config model "),
    "config train": ("ckpt", 3, "config train "),
    "dataset header": ("data", 0, ""),
    "config echo": ("data", 0, ""),
}
# The JSON objects an extra key goes into: those of HEADER_LINES, and the
# metrics of one split.
EXTRA_KEY_LINES = {
    **{target: line for target, line in HEADER_LINES.items()
       if line[0] == "data" or line[1] >= 2},
    "metrics": ("ckpt", 4, "metrics "),
}
# Every string a header field can hold: the format marker and the variants.
HEADER_WORDS = {FORMAT_NAME, *VARIANT_CATEGORIES}


def _token_value(token: str):
    """The JSON value a header token spells, or the token itself ("v4")."""
    try:
        return json.loads(token)
    except ValueError:
        return token


def _bad_header_value(kind: str, old):
    """A strategy for a value that makes the header field holding old
    invalid: an int is a valid float, and no number field takes a negative."""
    if kind == "wrong type":
        return ANY_JSON_VALUE.filter(lambda new: type(new) is not type(old) and not (
            type(old) is float and type(new) is int))
    if kind == "non-finite":
        return st.sampled_from([math.nan, math.inf, -math.inf])
    if type(old) is int:
        return st.integers(max_value=-1)
    if type(old) is float:
        return st.floats(max_value=-1e-9, allow_infinity=False)
    return st.text(max_size=8).filter(lambda new: new not in HEADER_WORDS)


@settings(max_examples=60)
@given(data=st.data())
def test_eval_with_one_bad_header_field_exits_with_one_error_line(
        workdir, ckpt_path, data_path, data):
    paths = {"ckpt": ckpt_path, "data": data_path}
    kind = data.draw(st.sampled_from(
        ["wrong type", "out of range", "non-finite", "deleted key", "extra key"]),
        label="kind")
    targets = EXTRA_KEY_LINES if kind == "extra key" else HEADER_LINES
    target = data.draw(st.sampled_from(sorted(targets)), label="target")
    file, index, prefix = targets[target]
    lines = paths[file].read_text(encoding="utf-8").splitlines()
    text = lines[index][len(prefix):]
    tokens = file == "ckpt" and index < 2
    if tokens:
        holder = text.split()
        values = {key: _token_value(token) for key, token in enumerate(holder)}
    else:
        payload = json.loads(text)
        holder = (payload["config"] if target == "config echo"
                  else payload[data.draw(st.sampled_from(sorted(payload)), label="split")]
                  if target == "metrics" else payload)
        values = dict(holder)
    if kind == "extra key":
        new_key = data.draw(st.text(max_size=8).filter(lambda k: k not in holder),
                            label="new key")
        holder[new_key] = data.draw(ANY_JSON_VALUE, label="value")
    else:
        keys = list(values)
        if kind in ("out of range", "non-finite"):  # a scalar, not an object or list
            keys = [key for key in keys if not isinstance(values[key], (dict, list))]
        if kind == "out of range":  # a flag has no range, only a type
            keys = [key for key in keys if type(values[key]) is not bool]
        key = data.draw(st.sampled_from(keys), label="field")
        if kind == "deleted key":
            del holder[key]
        else:
            new = data.draw(_bad_header_value(kind, values[key]), label="value")
            holder[key] = json.dumps(new) if tokens else new
    lines[index] = prefix + (" ".join(holder) if tokens
                             else json.dumps(payload, sort_keys=True))
    paths[file] = workdir / f"bad_header.{file}"
    paths[file].write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--ckpt", str(paths["ckpt"]),
                     "--data", str(paths["data"])])
    assert code == 3
    assert err.getvalue().startswith("error: ")
    assert len(err.getvalue().strip().splitlines()) == 1


# The JSON lines an equivalent rewrite targets: file, line index (None for a
# drawn sample record) and the text before the JSON payload.
JSON_LINES = {
    "dataset record": ("data", None, ""),
    "dataset header": ("data", 0, ""),
    "config model": ("ckpt", 2, "config model "),
    "config train": ("ckpt", 3, "config train "),
    "metrics": ("ckpt", 4, "metrics "),
    "answers": ("ckpt", 5, "answers "),
}


def _reordered(value, data):
    """value with the keys of each of its objects in a drawn order."""
    if isinstance(value, dict):
        keys = data.draw(st.permutations(sorted(value)), label="key order")
        return {key: _reordered(value[key], data) for key in keys}
    if isinstance(value, list):
        return [_reordered(item, data) for item in value]
    return value


def _eval_output(ckpt, data, json_path) -> tuple:
    """(exit code, stdout, --json-out text) of eval on the test split."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--json-out", str(json_path)])
    return code, out.getvalue(), json_path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def unedited_eval(workdir, ckpt_path, data_path) -> tuple:
    return _eval_output(ckpt_path, data_path, workdir / "same_metrics.json")


@settings(max_examples=25)
@given(data=st.data())
def test_eval_of_an_equivalently_rewritten_line_prints_the_same_metrics(
        workdir, ckpt_path, data_path, unedited_eval, data):
    # a reader takes the JSON value of a line, not its text: key order,
    # whitespace and separators change nothing
    paths = {"ckpt": ckpt_path, "data": data_path}
    target = data.draw(st.sampled_from(sorted(JSON_LINES)), label="target")
    file, index, prefix = JSON_LINES[target]
    lines = paths[file].read_text(encoding="utf-8").splitlines()
    if index is None:
        index = data.draw(st.integers(1, len(lines) - 1), label="record")
    payload = _reordered(json.loads(lines[index][len(prefix):]), data)
    separators = (data.draw(st.sampled_from([",", ", ", " , ", ",\t"]), label="item"),
                  data.draw(st.sampled_from([":", ": ", " : ", ":\t"]), label="key"))
    lines[index] = prefix + json.dumps(payload, separators=separators)
    paths[file] = workdir / f"rewritten.{file}"
    paths[file].write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert unedited_eval[0] == 0
    assert _eval_output(paths["ckpt"], paths["data"],
                        workdir / "same_metrics.json") == unedited_eval


def _as_v4(lines: list) -> list:
    """The lines in checkpoint v4's layout: the train seed in the header and
    each tensor's rank before its dims."""
    seed = json.loads(lines[3][len("config train "):])["seed"]
    lines[0] = lines[0].replace(" v6 ", f" v4 {seed} ")
    for index, line in enumerate(lines):
        if line.startswith("tensor "):
            name, *dims = line.split()[1:]
            lines[index] = " ".join(["tensor", name, str(len(dims)), *dims])
    return lines


def _as_v5(lines: list) -> list:
    """The lines under checkpoint v5's header. v5 had v6's layout but the
    parameters of another bottleneck, so only its header tells it apart."""
    lines[0] = lines[0].replace(" v6 ", " v5 ")
    return lines


def _as_dataset_v1(lines: list) -> list:
    """The lines in dataset version 1's layout: the seed and the sample count
    beside the config echo in the header, and the grid in each record."""
    header = json.loads(lines[0])
    config = header["config"]
    header.update(version=1, seed=config["seed"], n_samples=config["n_samples"])
    records = [json.loads(line) for line in lines[1:]]
    for record in records:
        record["scene"]["grid_size"] = config["grid_size"]
    return [json.dumps(value, sort_keys=True) for value in [header, *records]]


@pytest.mark.parametrize("file,convert,shown", [
    ("data", _as_dataset_v1, "error: unsupported dataset version 1\n"),
    ("ckpt", _as_v4, "error: unsupported checkpoint version 'v4'\n"),
    ("ckpt", _as_v5, "error: unsupported checkpoint version 'v5'\n"),
], ids=["dataset_v1", "checkpoint_v4", "checkpoint_v5"])
def test_a_file_in_the_previous_format_exits_with_its_version(
        workdir, ckpt_path, data_path, capsys, file, convert, shown):
    paths = {"ckpt": ckpt_path, "data": data_path}
    lines = convert(paths[file].read_text(encoding="utf-8").splitlines())
    paths[file] = workdir / f"previous.{file}"
    paths[file].write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["eval", "--ckpt", str(paths["ckpt"]), "--data", str(paths["data"])])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == shown and captured.out == ""


def _header_edit(key: str, value):
    def edit(header: dict) -> dict:
        header[key] = value
        return header
    return edit


def _config_echo_edit(key: str, value):
    def edit(header: dict) -> dict:
        header["config"][key] = value
        return header
    return edit


def _config_echo_without(*keys: str):
    def edit(header: dict) -> dict:
        for key in keys:
            del header["config"][key]
        return header
    return edit


@pytest.mark.parametrize("edit,shown", [
    (_config_echo_edit("n_samples", "many"),
     "bad config echo in header: DatasetConfig.n_samples must be int, got 'many'"),
    (_config_echo_edit("n_samples", [120]),
     "bad config echo in header: DatasetConfig.n_samples must be int, got [120]"),
    (_config_echo_edit("n_samples", 7),
     "dataset has extra lines: config echo says 7 samples, file has 120"),
    (_config_echo_edit("n_samples", 5000),
     "truncated dataset: config echo says 5000 samples, file has 120"),
    (_header_edit("version", 99), "unsupported dataset version 99"),
    (_header_edit("version", True), "unsupported dataset version True"),
    (_header_edit("format", "other"), "bad format marker"),
    (_header_edit("config", {"bogus": 1}), "bad config echo in header"),
    (_config_echo_edit("seed", 7.5),
     "bad config echo in header: DatasetConfig.seed must be int, got 7.5"),
    (_config_echo_edit("grid_size", 8.0),
     "bad config echo in header: DatasetConfig.grid_size must be int, got 8.0"),
    (_config_echo_edit("seed", True),
     "bad config echo in header: DatasetConfig.seed must be int, got True"),
    (_config_echo_edit("k_max", 4),
     "bad config echo in header: k_max must be at least 8"),
    (_config_echo_edit("seed", -1),
     "bad config echo in header: seed must be nonnegative, got -1"),
    (_config_echo_edit("category_mix", None),
     "bad config echo in header: DatasetConfig.category_mix must be dict, got None"),
    (_config_echo_edit("category_mix", [[c, 0.25] for c in CATEGORIES[:4]]),
     "bad config echo in header: DatasetConfig.category_mix must be dict, "
     "got [['count', 0.25],"),
    (_config_echo_without("t_max", "urban_threshold"),
     "bad config echo in header: DatasetConfig keys: "
     "missing ['t_max', 'urban_threshold'], unknown []"),
    (_header_edit("config", [8]),
     "bad config echo in header: DatasetConfig must be a JSON object, got [8]"),
], ids=["n_samples_text", "n_samples_list", "n_samples_wrong", "n_samples_5000",
        "version", "version_true", "format", "config", "config_seed_float",
        "config_grid_size_float", "config_seed_bool", "config_k_max_short",
        "config_seed_negative", "config_mix_null", "config_mix_pairs",
        "config_without_keys", "config_list"])
def test_malformed_dataset_header_exits_with_one_error_line(
        tmp_path, data_path, capsys, edit, shown):
    lines = data_path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])), sort_keys=True)
    edited = tmp_path / "bad_header.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["train", "--data", str(edited),
                 "--out", str(tmp_path / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and shown in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "never.ckpt").exists()


@pytest.mark.parametrize("flag", ["--ckpt", "--data", "--config"])
def test_file_that_is_not_utf8_text_exits_with_one_error_line(
        tmp_path, ckpt_path, data_path, capsys, flag):
    binary = tmp_path / "binary.bin"
    binary.write_bytes(bytes(range(256)))
    never = str(tmp_path / "never.ckpt")
    argv = {
        "--ckpt": ["eval", "--ckpt", str(binary), "--data", str(data_path)],
        "--data": ["train", "--data", str(binary), "--out", never],
        "--config": ["train", "--data", str(data_path), "--out", never,
                     "--config", str(binary)],
    }[flag]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "is not UTF-8 text" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_of_a_split_the_dataset_lacks_exits_with_one_error_line(
        ckpt_path, data_path, capsys):
    for split in ("test2", "tset"):
        code = main(["eval", "--ckpt", str(ckpt_path), "--data", str(data_path),
                     "--split", split])
        err = capsys.readouterr().err
        assert code == 3
        # ablate's message for the same split
        assert err == f"error: dataset has no split {split!r} (splits: train, test)\n"


def test_test2_split_is_trained_reported_and_evaluated(workdir, train_cfg_path,
                                                       capsys):
    config = workdir / "data_test2.cfg"
    config.write_text(DATASET_CFG + "test_fraction = 0.1\ntest2_fraction = 0.1\n",
                      encoding="utf-8")
    data = workdir / "test2.jsonl"
    ckpt = workdir / "test2.ckpt"
    json_path = workdir / "test2_metrics.json"
    assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--data", str(data), "--out", str(ckpt),
                     "--config", str(train_cfg_path), "--epochs", "1"]) == 0
    # every split carries every category
    assert not [w for w in caught if "absent from split" in str(w.message)]
    assert "test2: OA" in capsys.readouterr().out
    checkpoint = load_checkpoint(ckpt)
    assert set(checkpoint.metrics) == {"train", "test", "test2"}
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--split", "test2", "--json-out", str(json_path)]) == 0
    record = json.loads(json_path.read_text(encoding="utf-8"))
    expected = evaluate_model(build_model(checkpoint), import_dataset(data),
                              "test2").to_dict()
    assert record == {"split": "test2", **expected}
    assert checkpoint.metrics["test2"] == expected
    assert record["n_samples"] == 12


@pytest.mark.parametrize("command,where", [
    ("train", "missing_dir"),
    ("train", "directory"),
    ("train", "under_a_file"),
    ("ablate", "under_a_file"),
])
def test_output_that_cannot_be_written_fails_before_training(
        workdir, data_path, capsys, monkeypatch, command, where):
    def no_training(*args, **kwargs):
        raise AssertionError(f"{command} trained before checking --out")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(training, "train", no_training)
    out = {"missing_dir": workdir / "no_such_dir" / "model.ckpt",
           "directory": workdir,
           "under_a_file": data_path / "out"}[where]
    code = main([command, "--data", str(data_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "output" in err
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["gen-data", "eval"])
def test_output_that_cannot_be_written_fails_before_any_work(
        workdir, ckpt_path, data_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked before checking its output path")

    monkeypatch.setattr(cli, "generate_dataset", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    out = str(workdir / "no_such_dir" / "out")
    argv = {"gen-data": ["gen-data", "--out", out],
            "eval": ["eval", "--ckpt", str(ckpt_path), "--data", str(data_path),
                     "--json-out", out]}[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:") and "output" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("command,flag", [
    ("train", "data"), ("train", "config"), ("eval", "ckpt"), ("eval", "data"),
    ("gen-data", "config"),
])
def test_an_output_that_is_one_of_the_inputs_fails_before_any_work(
        tmp_path, data_path, ckpt_path, train_cfg_path, dataset_cfg_path, capsys,
        monkeypatch, command, flag):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked before checking its output path")

    for name in ("generate_dataset", "import_dataset", "load_checkpoint", "train"):
        monkeypatch.setattr(cli, name, no_work)
    sources = {"data": data_path, "ckpt": ckpt_path,
               "config": dataset_cfg_path if command == "gen-data" else train_cfg_path}
    inputs = {name: tmp_path / source.name for name, source in sources.items()}
    for name, source in sources.items():
        inputs[name].write_bytes(source.read_bytes())
    # another spelling of the input's path: the check compares files, not text
    out = str(tmp_path / "." / inputs[flag].name)
    argv = {"train": ["train", "--data", str(inputs["data"]), "--out", out,
                      "--config", str(inputs["config"])],
            "eval": ["eval", "--ckpt", str(inputs["ckpt"]), "--data", str(inputs["data"]),
                     "--json-out", out],
            "gen-data": ["gen-data", "--config", str(inputs["config"]), "--out", out],
            }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (f"error: output path {out!r} is the --{flag} input "
                            f"{str(inputs[flag])!r}\n")
    assert captured.out == ""
    assert inputs[flag].read_bytes() == sources[flag].read_bytes()


def test_ablate_writes_table_json_and_all_four_checkpoints(workdir, data_path,
                                                           train_cfg_path,
                                                           capsys):
    out_dir = workdir / "ablation"
    code = main(["ablate", "--data", str(data_path), "--out", str(out_dir),
                 "--config", str(train_cfg_path), "--epochs", "1"])
    out = capsys.readouterr().out
    assert code == 0

    table = (out_dir / "ablation.txt").read_text(encoding="utf-8")
    assert table in out
    record = json.loads((out_dir / "ablation.json").read_text(encoding="utf-8"))
    names = [name for name, _, _ in ABLATION_VARIANTS]
    assert [row["name"] for row in record["variants"]] == names
    for name in names:
        assert name in table
        ckpt = load_checkpoint(out_dir / f"{name}.ckpt")
        assert ckpt.train_config.epochs == 1
    assert len(list(out_dir.glob("*.ckpt"))) == 4


def test_ablate_of_a_split_the_dataset_lacks_fails_before_training(
        workdir, data_path, train_cfg_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained before checking the split")

    monkeypatch.setattr(training, "train", no_training)
    out_dir = workdir / "ablation_bogus"
    code = main(["ablate", "--data", str(data_path), "--out", str(out_dir),
                 "--config", str(train_cfg_path), "--split", "bogus"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: dataset has no split 'bogus' (splits: train, test)\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["ablation.txt", "ablation.json", "baseline.ckpt"])
def test_ablate_output_that_is_an_input_fails_before_training(
        tmp_path, data_path, capsys, monkeypatch, name):
    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained before checking its output files")

    monkeypatch.setattr(training, "train", no_training)
    out_dir = tmp_path / "ablation"
    out_dir.mkdir()
    inside = out_dir / name
    inside.write_bytes(data_path.read_bytes())
    code = main(["ablate", "--data", str(inside), "--out", str(out_dir)])
    assert code == 3
    assert capsys.readouterr().err == (f"error: output path {str(inside)!r} is the "
                                       f"--data input {str(inside)!r}\n")
    assert inside.read_bytes() == data_path.read_bytes()
    assert [path.name for path in out_dir.iterdir()] == [name]


@pytest.mark.parametrize("flag", ["--no-cross-attention", "--no-infomax"])
def test_ablate_takes_no_flag_it_sets_per_variant(workdir, data_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--data", str(data_path), "--out", str(workdir / "never"), flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize("key", ["enable_cross_attention", "enable_infomax"])
def test_ablate_rejects_a_config_key_it_sets_per_variant(
        tmp_path, data_path, capsys, monkeypatch, key):
    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained with a flag it sets per variant")

    monkeypatch.setattr(training, "train", no_training)
    config = tmp_path / "flag.cfg"
    config.write_text(f"epochs = 1\n{key} = false\n", encoding="utf-8")
    out_dir = tmp_path / "ablation"
    code = main(["ablate", "--data", str(data_path), "--out", str(out_dir),
                 "--config", str(config)])
    assert code == 3
    assert capsys.readouterr().err == (f"error: ablate sets {key} per variant; remove "
                                       f"it from the config file {config}\n")
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs_in_a_subprocess(workdir, dataset_cfg_path):
    out_path = workdir / "subprocess.jsonl"
    # the child imports the package this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "mibvqa", "gen-data",
         "--config", str(dataset_cfg_path), "--out", str(out_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "wrote 120 samples" in proc.stdout
    assert out_path.exists()
