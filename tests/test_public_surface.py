"""The package's public names, and the library names the benchmark wraps."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import mibvqa

ROOT = Path(__file__).resolve().parent.parent

# The CLI-level workflow: make or load a dataset, train, evaluate, ablate,
# persist a checkpoint, and the three errors the CLI maps to exit codes.
WORKFLOW = {
    "DatasetConfig", "generate_dataset", "export_dataset", "import_dataset",
    "ModelConfig", "TrainConfig", "train", "evaluate", "ablate",
    "save_checkpoint", "load_checkpoint", "DatasetFormatError",
    "CheckpointError", "DivergenceError",
}


def test_star_import_binds_exactly_the_workflow_names():
    namespace: dict = {}
    exec("from mibvqa import *", namespace)
    del namespace["__builtins__"]
    assert len(mibvqa.__all__) == len(set(mibvqa.__all__))
    assert set(mibvqa.__all__) == WORKFLOW
    assert set(namespace) == WORKFLOW
    for name, obj in namespace.items():
        # re-exported, not redefined: the object its defining submodule holds
        assert obj.__module__.startswith("mibvqa."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def _bench_tracer():
    """bench/tracer.py, loaded under a private name; nothing is installed."""
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer_under_test", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_bench_tracer_wraps_exists_on_its_owner():
    # A wrapped name that is missing is skipped by Tracer.install and reads
    # zero calls, so a renamed import would silently zero a per-layer figure.
    # infomax.info_loss calls the fused gaussian_skl node directly and its
    # span encloses its work; the tracer's separate mi_estimate and
    # skl_gaussian entries have no owner name to wrap.
    enclosed = {"infomax.mi_estimate", "infomax.skl_gaussian"}
    missing = {name for name, (owner, attr, _) in _bench_tracer().WRAPPED.items()
               if attr not in owner.__dict__}
    assert missing == enclosed
