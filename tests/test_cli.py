"""End-to-end tests for the command-line interface.

Every test drives ``mibvqa.cli.main`` in-process so exit codes and output can
be asserted directly; one smoke test runs the installed module through a real
subprocess.  Datasets and training runs use deliberately tiny configurations
to keep the whole file fast.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from mibvqa.cli import main
from mibvqa.data import import_dataset
from mibvqa.training import ABLATION_VARIANTS, evaluate, load_checkpoint

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


def test_gen_data_rejects_an_unknown_config_key(workdir, capsys):
    bad = workdir / "bad.cfg"
    bad.write_text("n_samples = 10\nbogus = 1\n", encoding="utf-8")
    code = main(["gen-data", "--config", str(bad),
                 "--out", str(workdir / "never.jsonl")])
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


def test_train_no_infomax_flag_drops_the_bottleneck_parameters(
        workdir, data_path, train_cfg_path):
    out_path = workdir / "no_ib.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(train_cfg_path), "--epochs", "1",
                 "--no-infomax"])
    assert code == 0
    ckpt = load_checkpoint(out_path)
    assert not ckpt.train_config.enable_infomax
    assert not any(name.startswith("ib.") for name in ckpt.parameters)


def test_train_no_cross_attention_flag_drops_the_attention_parameters(
        workdir, data_path, train_cfg_path):
    out_path = workdir / "no_att.ckpt"
    code = main(["train", "--data", str(data_path), "--out", str(out_path),
                 "--config", str(train_cfg_path), "--epochs", "1",
                 "--no-cross-attention"])
    assert code == 0
    ckpt = load_checkpoint(out_path)
    assert not ckpt.train_config.enable_cross_attention
    assert not any(name.startswith("att.") for name in ckpt.parameters)


def test_train_rejects_a_dataset_key_in_the_train_config(workdir, data_path,
                                                         capsys):
    bad = workdir / "mixed.cfg"
    bad.write_text("epochs = 1\nn_samples = 10\n", encoding="utf-8")
    code = main(["train", "--data", str(data_path),
                 "--out", str(workdir / "never.ckpt"), "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "n_samples" in err


def test_missing_data_file_exits_with_the_data_error_code(workdir, capsys):
    code = main(["train", "--data", str(workdir / "no_such.jsonl"),
                 "--out", str(workdir / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err and "no_such.jsonl" in err


def test_truncated_dataset_file_exits_with_the_data_error_code(workdir,
                                                               data_path,
                                                               capsys):
    clipped = workdir / "clipped.jsonl"
    raw = data_path.read_bytes()
    clipped.write_bytes(raw[: len(raw) * 2 // 3])
    code = main(["train", "--data", str(clipped),
                 "--out", str(workdir / "never.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_divergent_learning_rate_exits_with_the_divergence_code(
        workdir, data_path, train_cfg_path, capsys):
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(data_path),
                     "--out", str(workdir / "never.ckpt"),
                     "--config", str(train_cfg_path),
                     "--epochs", "1", "--lr", "1e150"])
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err
    assert not (workdir / "never.ckpt").exists()


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


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs_in_a_subprocess(workdir, dataset_cfg_path):
    out_path = workdir / "subprocess.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "mibvqa", "gen-data",
         "--config", str(dataset_cfg_path), "--out", str(out_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 120 samples" in proc.stdout
    assert out_path.exists()
