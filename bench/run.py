"""mibvqa benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a separately traced run.
The line before it holds the run metadata and extra detail; traced runs also
write their spans to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("train_desk", "eval_split", "data_roundtrip")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import mibvqa from this checkout's src/, never from elsewhere."""
    package = SRC / "mibvqa"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no mibvqa sources at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import mibvqa
    if Path(mibvqa.__file__).resolve().parent != package:
        sys.exit(f"error: imported mibvqa from {mibvqa.__file__}, not {package}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    import numpy as np
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # one single-threaded process: pin BLAS pools before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_library()
    import workloads

    meta = run_metadata(args)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir))
        if args.trace:
            units, values, detail, tracer = workloads.measure_traced(
                workload, args.seconds)
        else:
            units, values, detail = workloads.measure(workload, args.seconds)
            tracer = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for u in units if not u.ok)
    if args.trace:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in workloads.LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
    result = {"correct": failed == 0, "attempted": len(units), "failed": failed,
              "metrics": metrics}
    record = {"meta": meta, "detail": detail}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({**record, "result": result}, f, indent=1)
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [[name, start - origin, end - origin, parent, step, nodes]
                 for name, start, end, parent, step, nodes in tracer.spans]
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as f:
            json.dump({"meta": meta,
                       "fields": ["name", "start_s", "end_s", "parent", "step",
                                  "nodes"],
                       "spans": spans}, f)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
