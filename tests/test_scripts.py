"""Smoke runs of the two reproduction scripts under scripts/.

Each script runs for one epoch in a subprocess and must exit 0 and write the
artifacts its docstring names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mibvqa.training import ABLATION_VARIANTS, load_checkpoint

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, out_dir: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--epochs", "1",
         "--out", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("script,artifacts", [
    ("run_default_experiment.py", ["dataset.jsonl", "model.ckpt", "metrics.json"]),
    ("run_ablation.py", ["dataset.jsonl", "ablation.txt", "ablation.json"]
     + [f"{name}.ckpt" for name, _, _ in ABLATION_VARIANTS]),
])
def test_script_runs_one_epoch_and_writes_its_artifacts(tmp_path, script,
                                                        artifacts):
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(artifacts)
    for name in artifacts:
        if name.endswith(".ckpt"):
            assert load_checkpoint(tmp_path / name).train_config.epochs == 1
        elif name.endswith(".json"):
            json.loads((tmp_path / name).read_text(encoding="utf-8"))
