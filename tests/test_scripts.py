"""Smoke run of the ablation reproduction script under scripts/.

The script runs for one epoch in a subprocess and must exit 0, write the
artifacts its docstring names, and train with the default recipe.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from mibvqa.training import ABLATION_VARIANTS, TrainConfig, load_checkpoint

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, out_dir: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--epochs", "1",
         "--out", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=300)


def test_ablation_script_runs_one_epoch_and_writes_its_artifacts(tmp_path):
    artifacts = (["dataset.jsonl", "ablation.txt", "ablation.json"]
                 + [f"{name}.ckpt" for name, _, _ in ABLATION_VARIANTS])
    proc = run_script("run_ablation.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(artifacts)
    default = TrainConfig()
    for name in artifacts:
        if name.endswith(".ckpt"):
            config = load_checkpoint(tmp_path / name).train_config
            assert (config.epochs, config.batch_size, config.learning_rate) \
                == (1, default.batch_size, default.learning_rate)
        elif name.endswith(".json"):
            json.loads((tmp_path / name).read_text(encoding="utf-8"))
