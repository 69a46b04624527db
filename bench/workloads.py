"""The three benchmark workloads, driven through mibvqa's public API.

Each workload is a closed loop with one caller: it repeats one unit of work
(a training run, an evaluation pass, a dataset round trip) until the time
budget would be exceeded, always completing at least one unit. Every input
is derived from the benchmark seed; the library only sees the generated
inputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from mibvqa import autodiff, data, training

from speed import SpeedLog
from tracer import Tracer, layer_metrics

SETUP_REPEATS = 3
TRAIN_EPOCHS = 2          # per training run; 126 optimizer steps at batch 32
EVAL_TRAIN_EPOCHS = 1     # training done during eval_split set-up
ROUNDTRIP_SAMPLES = 10_000  # four times the default dataset
PROBE_EVERY = 16          # optimizer steps between in-unit speed probes


def derive_seed(seed: int, *path: int) -> int:
    """Independent 31-bit seed for one purpose, derived from the run seed."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


@dataclass
class Unit:
    """Outcome of one unit of work."""
    ok: bool
    seconds: float = 0.0      # wall time, speed probes excluded
    samples: int = 0
    periods: list = field(default_factory=list)   # step periods, seconds
    period_marks: list = field(default_factory=list)  # probes before each
    scale: float = 1.0        # host-speed scale over the unit (speed.py)
    period_scales: list = field(default_factory=list)
    scaled_seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    def apply_speed(self, speed: SpeedLog, mark: int) -> None:
        """Scale the unit by the probes since `mark` and each step period by
        the two probes that enclose it (by the unit's scale when the unit
        did not probe inside); the time outside the periods takes the
        unit's scale."""
        self.scale = speed.scale(mark)
        self.period_scales = ([speed.scale(k - 1, k + 1) for k in self.period_marks]
                              or [self.scale] * len(self.periods))
        self.scaled_seconds = (
            sum(p * s for p, s in zip(self.periods, self.period_scales))
            + (self.seconds - sum(self.periods)) * self.scale)


def timed_probe(speed: SpeedLog, tracer: Tracer | None) -> float:
    """Probe the host speed inside a unit and return the seconds it took.
    When traced, the probe is a span of its own (in no step), so no layer's
    self time includes it."""
    start = time.perf_counter()
    with (tracer.span("bench.probe") if tracer is not None
          else contextlib.nullcontext()):
        speed.probe()
    return time.perf_counter() - start


class StepClock:
    """Times every optimizer step by wrapping Adam.step from outside.

    With a SpeedLog it also probes the host speed every PROBE_EVERY steps;
    the probes fall outside the recorded periods and are summed in
    probe_seconds, and each period records how many probes preceded it.
    """

    def __init__(self, tracer: Tracer | None = None,
                 speed: SpeedLog | None = None):
        self.tracer = tracer
        self.speed = speed
        self.periods: list = []
        self.marks: list = []
        self.steps = 0
        self.probe_seconds = 0.0
        self._last = None

    def __enter__(self):
        original = self._original = autodiff.Adam.__dict__["step"]

        def step(optimizer):
            original(optimizer)
            now = time.perf_counter()
            if self._last is not None:
                self.periods.append(now - self._last)
                if self.speed is not None:
                    self.marks.append(self.speed.mark())
            self.steps += 1
            if self.tracer is not None:
                self.tracer.step += 1
            if self.speed is not None and self.steps % PROBE_EVERY == 0:
                self.probe_seconds += timed_probe(self.speed, self.tracer)
            self._last = time.perf_counter()

        autodiff.Adam.step = step
        return self

    def __exit__(self, *exc):
        autodiff.Adam.step = self._original
        return False


def padding_fractions(samples, config) -> dict:
    """Real tokens over the k_max recurrence positions, and real objects over
    the t_max encoder rows, counted from the generated samples."""
    pad = data.VOCABULARY.index(data.PAD_TOKEN)
    n = len(samples)
    tokens = sum(sum(1 for t in s.token_ids if t != pad) for s in samples)
    objects = sum(len(s.scene.objects) for s in samples)
    return {"encoders.encode_query.useful_frac": tokens / (n * config.k_max),
            "encoders.encode_image.useful_frac": objects / (n * config.t_max)}


class Workload:
    """Set-up, a repeatable unit of work, and the spans that delimit a step."""

    name = ""
    step_roots: set = set()

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer: Tracer | None = None
        self.speed: SpeedLog | None = None   # set for in-unit speed probes

    def setup(self) -> None:
        raise NotImplementedError

    def span(self, name: str, index: int):
        """A span for step `index` when traced, otherwise nothing."""
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.step = index
        return self.tracer.span(name)

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def probe(self) -> float:
        """timed_probe when probing is on, else 0."""
        return (timed_probe(self.speed, self.tracer) if self.speed is not None
                else 0.0)

    def extra_layer_metrics(self) -> dict:
        return {}

    def n_traced_steps(self, units: list) -> int:
        return len(units)


class TrainDesk(Workload):
    """The desk recipe (attention + bottleneck, batch 32, lr 5e-3) on the
    default 2,500-sample dataset, including train()'s end-of-run evaluation."""

    name = "train_desk"
    step_roots = {"model.loss_batch", "autodiff.backward", "autodiff.adam"}

    def setup(self):
        cfg = data.DatasetConfig(seed=derive_seed(self.seed, 0))
        self.dataset = data.generate_dataset(cfg)

    def unit(self, index):
        config = training.TrainConfig.desk(epochs=TRAIN_EPOCHS,
                                           seed=derive_seed(self.seed, 1))
        with StepClock(self.tracer, self.speed) as clock:
            start = time.perf_counter()
            result = training.train(config, self.dataset)
            seconds = time.perf_counter() - start - clock.probe_seconds
        n_train = len(self.dataset.split("train"))
        expected_steps = TRAIN_EPOCHS * math.ceil(n_train / config.batch_size)
        finite = all(math.isfinite(v) for rec in result.step_records
                     for k, v in rec.items() if k not in ("epoch", "step"))
        ok = (finite and len(result.step_records) == expected_steps
              and result.checkpoint.step_count == expected_steps
              and clock.steps == expected_steps)
        return Unit(ok=ok, seconds=seconds, samples=n_train * TRAIN_EPOCHS,
                    periods=clock.periods, period_marks=clock.marks,
                    detail={"train_ce": result.epoch_records[-1]["mean_ce"],
                            "test_oa": result.checkpoint.metrics["test"]
                            ["overall_accuracy"],
                            "steps": clock.steps})

    def n_traced_steps(self, units):
        return sum(u.detail["steps"] for u in units)

    def extra_layer_metrics(self):
        return padding_fractions(self.dataset.split("train"), self.dataset.config)


class EvalSplit(Workload):
    """`mibvqa eval` passes: load a checkpoint trained during set-up and
    evaluate the 500-sample test split, forward only."""

    name = "eval_split"
    step_roots = {"bench.pass"}
    reference = None

    def setup(self):
        cfg = data.DatasetConfig(seed=derive_seed(self.seed, 0))
        data_path = os.path.join(self.work_dir, "dataset.jsonl")
        data.export_dataset(data.generate_dataset(cfg), data_path)
        self.dataset = data.import_dataset(data_path)
        config = training.TrainConfig.desk(epochs=EVAL_TRAIN_EPOCHS,
                                           seed=derive_seed(self.seed, 1))
        self.trained = training.train(config, self.dataset)
        self.ckpt_path = os.path.join(self.work_dir, "model.ckpt")
        training.save_checkpoint(self.trained.checkpoint, self.ckpt_path)

    def _reference(self):
        """Metrics of the live model's own predictions; set-up is
        deterministic, so one computation serves every repeated set-up."""
        if self.reference is None:
            self.reference = training.evaluate_model(
                self.trained.model, self.dataset, "test").to_dict()
        return self.reference

    def unit(self, index):
        reference = self._reference()
        start = time.perf_counter()
        with self.span("bench.pass", index):
            checkpoint = training.load_checkpoint(self.ckpt_path)
            metrics = training.evaluate(checkpoint, self.dataset, "test")
        seconds = time.perf_counter() - start
        ok = metrics.to_dict() == reference
        return Unit(ok=ok, seconds=seconds, samples=metrics.n_samples,
                    periods=[seconds],
                    detail={"test_oa": metrics.overall_accuracy})

    def extra_layer_metrics(self):
        return {**padding_fractions(self.dataset.split("test"), self.dataset.config),
                "training.checkpoint_bytes": os.path.getsize(self.ckpt_path)}


class DataRoundtrip(Workload):
    """generate -> audit -> export -> import -> prepare_split on a dataset
    four times the default size; no model code runs."""

    name = "data_roundtrip"
    step_roots = {"bench.roundtrip"}
    bytes_per_sample = 0.0

    def setup(self):
        # warm-up round trip of one default-size dataset
        cfg = data.DatasetConfig(seed=derive_seed(self.seed, 0))
        path = os.path.join(self.work_dir, "warmup.jsonl")
        data.export_dataset(data.generate_dataset(cfg), path)
        data.import_dataset(path)

    def unit(self, index):
        cfg = data.DatasetConfig(n_samples=ROUNDTRIP_SAMPLES,
                                 seed=derive_seed(self.seed, 2, index))
        path = os.path.join(self.work_dir, "roundtrip.jsonl")
        again = os.path.join(self.work_dir, "reexport.jsonl")
        start = time.perf_counter()
        with self.span("bench.roundtrip", index):
            dataset = data.generate_dataset(cfg)
            probes = self.probe()
            mismatches = data.audit_dataset(dataset)
            data.export_dataset(dataset, path)
            probes += self.probe()
            back = data.import_dataset(path)
            probes += self.probe()
            prepared = sum(len(training.prepare_split(back, split))
                           for split in back.config.splits())
        seconds = time.perf_counter() - start - probes
        data.export_dataset(back, again)
        with open(path, "rb") as f, open(again, "rb") as g:
            identical = f.read() == g.read()
        self.bytes_per_sample = os.path.getsize(path) / ROUNDTRIP_SAMPLES
        ok = mismatches == 0 and identical and prepared == ROUNDTRIP_SAMPLES
        return Unit(ok=ok, seconds=seconds, samples=ROUNDTRIP_SAMPLES,
                    periods=[seconds], detail={"mismatches": mismatches})

    def extra_layer_metrics(self):
        return {"data.bytes_per_sample": self.bytes_per_sample}


WORKLOADS = {w.name: w for w in (TrainDesk, EvalSplit, DataRoundtrip)}


def _per_step(group: str) -> dict:
    return {f"{group}.ms_per_step": ("ms", "lower"),
            f"{group}.nodes_per_step": ("nodes", "lower"),
            f"{group}.calls_per_step": ("calls", "lower")}


# every per-layer metric a traced run prints: name -> (unit, better)
LAYER_METRICS = {
    **_per_step("encoders.encode_query"),
    "encoders.encode_query.useful_frac": ("ratio", "higher"),
    **_per_step("encoders.encode_image"),
    "encoders.encode_image.useful_frac": ("ratio", "higher"),
    **_per_step("attention.query_attention"),
    **_per_step("attention.image_attention"),
    **_per_step("fusion"),
    **_per_step("infomax"),
    "model.loss_batch.self_ms_per_step": ("ms", "lower"),
    "training.loop.self_ms_per_step": ("ms", "lower"),
    "autodiff.graph_nodes_per_step": ("nodes", "lower"),
    "autodiff.nodes_created_per_step": ("nodes", "lower"),
    "autodiff.backward.ms_per_step": ("ms", "lower"),
    "autodiff.backward.us_per_node": ("us", "lower"),
    "autodiff.adam.ms_per_step": ("ms", "lower"),
    "training.evaluate_model.us_per_sample": ("us", "lower"),
    "training.load_checkpoint.ms": ("ms", "lower"),
    "training.save_checkpoint.ms": ("ms", "lower"),
    "training.checkpoint_bytes": ("B", "lower"),
    "data.generate_dataset.us_per_sample": ("us", "lower"),
    "data.audit_dataset.us_per_sample": ("us", "lower"),
    "data.export_dataset.us_per_sample": ("us", "lower"),
    "data.import_dataset.us_per_sample": ("us", "lower"),
    "training.prepare_split.us_per_sample": ("us", "lower"),
    "data.bytes_per_sample": ("B", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "train_ce": ("nats", "lower"),
    "test_oa": ("ratio", "higher"),
    "tracing.overhead_frac": ("ratio", "lower"),
}


# ---------------------------------------------------------------------------
# measurement


def run_units(workload: Workload, seconds: float, speed: SpeedLog,
              first_index: int = 0) -> list:
    """Repeat units until the next one would overrun the budget (>= 1 unit).

    The host speed is probed before the first unit and after each one, and
    each unit is scaled by the probes around and inside it. A unit that
    raises counts as a failed operation; the loop goes on.
    """
    units = []
    start = time.perf_counter()
    speed.probe()
    while True:
        mark = speed.mark() - 1
        try:
            unit = workload.unit(first_index + len(units))
        except Exception:
            traceback.print_exc()
            unit = Unit(ok=False)
        speed.probe()
        unit.apply_speed(speed, mark)
        units.append(unit)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(units) > seconds:
            return units


def throughput(units: list, scaled: bool = True) -> float:
    """Work completed per second: samples over the (speed-scaled) wall time
    of the good units."""
    good = [u for u in units if u.ok]
    seconds = sum(u.scaled_seconds if scaled else u.seconds for u in good)
    return sum(u.samples for u in good) / seconds if seconds > 0 else 0.0


def step_percentiles(units: list) -> dict:
    """Median speed-scaled step period, and the p90 when at least 10 steps
    lie beyond it."""
    periods = sorted(p * s for u in units if u.ok
                     for p, s in zip(u.periods, u.period_scales))
    out = {"step_ms_p50": statistics.median(periods) * 1e3 if periods else 0.0,
           "step_ms_p90": 0.0, "steps_beyond_p90": 0, "steps": len(periods)}
    if periods:
        p90 = float(np.percentile(periods, 90))
        beyond = sum(1 for p in periods if p > p90)
        if beyond >= 10:
            out["step_ms_p90"] = p90 * 1e3
            out["steps_beyond_p90"] = beyond
    return out


def timed_setups(workload: Workload, repeats: int, speed: SpeedLog) -> tuple:
    """Wall seconds of each set-up, and the same scaled by the probes
    taken just before and after it."""
    raw, scaled = [], []
    for _ in range(repeats):
        mark = speed.mark()
        speed.probe()
        start = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - start)
        speed.probe()
        scaled.append(raw[-1] * speed.scale(mark))
    return raw, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(units: list) -> dict:
    """train_ce / test_oa of the last successful unit (0 where not produced)."""
    detail = next((u.detail for u in reversed(units) if u.ok), {})
    return {"train_ce": detail.get("train_ce", 0.0),
            "test_oa": detail.get("test_oa", 0.0)}


def speed_detail(units: list, speed: SpeedLog) -> dict:
    return {"unit_seconds": [u.seconds for u in units],
            "unit_scales": [u.scale for u in units],
            "wall_samples_per_s": throughput(units, scaled=False),
            "probes": len(speed.durations),
            "probe_ms_median": statistics.median(speed.durations) * 1e3}


def measure(workload: Workload, seconds: float) -> tuple:
    """Untraced run: end-to-end metrics."""
    speed = workload.speed = SpeedLog()
    setups, scaled_setups = timed_setups(workload, SETUP_REPEATS, speed)
    units = run_units(workload, seconds, speed)
    steps = step_percentiles(units)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "samples_per_s": (throughput(units), "1/s"),
        "step_ms_p50": (steps["step_ms_p50"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"setup_wall_s": setups, "setup_s_all": scaled_setups,
              "units": len(units), **speed_detail(units, speed), **steps,
              **quality(units)}
    return units, metrics, detail


def measure_traced(workload: Workload, seconds: float) -> tuple:
    """Traced run: half the budget untraced, then set-up and half traced.

    Layer times are scaled by the mean of the traced half's probes.
    """
    speed = workload.speed = SpeedLog()
    workload.setup()
    plain = run_units(workload, seconds / 2, speed)
    tracer = Tracer()
    workload.tracer = tracer
    mark = speed.mark()
    with tracer:
        tracer.step = -1
        workload.setup()
        tracer.step = 0
        traced = run_units(workload, seconds / 2, speed, first_index=len(plain))
    workload.tracer = None
    scale = speed.scale(mark)
    # figures a workload cannot produce read 0
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    layers.update(layer_metrics(tracer, workload.step_roots,
                                workload.n_traced_steps([u for u in traced if u.ok])))
    for name, (unit, _) in LAYER_METRICS.items():
        if unit in ("ms", "us"):
            layers[name] *= scale
    layers.update(workload.extra_layer_metrics())
    steps = step_percentiles(plain)
    layers["step_ms_p90"] = steps["step_ms_p90"]
    layers.update(quality(plain))
    plain_rate, traced_rate = throughput(plain), throughput(traced)
    layers["tracing.overhead_frac"] = (plain_rate / traced_rate - 1.0
                                       if traced_rate > 0 else 0.0)
    detail = {"untraced_samples_per_s": plain_rate,
              "traced_samples_per_s": traced_rate, "traced_scale": scale,
              **steps}
    return plain + traced, layers, detail, tracer
