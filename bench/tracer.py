"""Span tracing installed from outside the library.

`Tracer.install` replaces module-level names and methods of mibvqa with
timing wrappers, and `Tracer.restore` puts every original back. Spans are
kept in memory as [name, start, end, parent, step, nodes] lists and written
out by the caller at the end of the run. Graph nodes are counted by wrapping
`autodiff._node` and charged to the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

from mibvqa import autodiff, data, model, training

NAME, START, END, PARENT, STEP, NODES = range(6)


def _n_samples(dataset) -> int:
    return len(dataset.samples)


# span name -> (owner, attribute, samples(args, result) or None)
WRAPPED = {
    "encoders.encode_image": (model, "encode_image", None),
    "encoders.encode_query": (model, "encode_query", None),
    "attention.query_attention": (model, "query_attention", None),
    "attention.image_attention": (model, "image_attention", None),
    "fusion.project_query": (model, "project_query", None),
    "fusion.project_image": (model, "project_image", None),
    "fusion.classify": (model, "classify", None),
    "fusion.cross_entropy": (model, "cross_entropy", None),
    "fusion.predict": (model, "predict", None),
    "infomax.encode_latent": (model, "encode_latent", None),
    "infomax.mi_estimate": (model, "mi_estimate", None),
    "infomax.skl_gaussian": (model, "skl_gaussian", None),
    "infomax.info_loss": (model, "info_loss", None),
    "infomax.total_loss": (model, "total_loss", None),
    "model.loss_batch": (model.VQAModel, "loss_batch", None),
    "autodiff.backward": (training, "backward", None),
    "autodiff.adam": (autodiff.Adam, "step", None),
    "training.train": (training, "train", None),
    "training.evaluate": (training, "evaluate", None),
    "training.evaluate_model": (training, "evaluate_model",
                                lambda a, r: r.n_samples),
    "training.prepare_split": (training, "prepare_split", lambda a, r: len(r)),
    "training.build_model": (training, "build_model", None),
    "training.load_checkpoint": (training, "load_checkpoint", None),
    "training.save_checkpoint": (training, "save_checkpoint", None),
    "data.generate_dataset": (data, "generate_dataset",
                              lambda a, r: _n_samples(r)),
    "data.audit_dataset": (data, "audit_dataset", lambda a, r: _n_samples(a[0])),
    "data.export_dataset": (data, "export_dataset", lambda a, r: _n_samples(a[0])),
    "data.import_dataset": (data, "import_dataset", lambda a, r: _n_samples(r)),
}


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self):
        self.spans: list = []
        self.samples: dict = {}        # span name -> samples processed
        self.graph_sizes: list = []    # nodes reached by each backward pass
        self.step = 0                  # set by the workload; < 0 in set-up
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.step, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists; missing names are skipped
        and later report zero calls."""
        for name, (owner, attr, samples) in WRAPPED.items():
            if attr in owner.__dict__:
                self._patch(owner, attr, self._wrapper(name, owner.__dict__[attr],
                                                       samples))
        node = autodiff.__dict__.get("_node")
        toposort = autodiff.__dict__.get("_toposort")

        def counting_node(*args, **kwargs):
            t = node(*args, **kwargs)
            if t.requires_grad and self._stack:
                self.spans[self._stack[-1]][NODES] += 1
            return t

        def sizing_toposort(*args, **kwargs):
            order = toposort(*args, **kwargs)
            if self.step >= 0:
                self.graph_sizes.append(len(order))
            return order

        if node is not None:
            self._patch(autodiff, "_node", counting_node)
        if toposort is not None:
            self._patch(autodiff, "_toposort", sizing_toposort)

    def _wrapper(self, name: str, fn, samples):
        self.samples.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if samples is not None:
                self.samples[name] += samples(args, result)
            return result
        return wrapper

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans nest strictly (one thread), so the children of a span never
    overlap and their union is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def in_step(spans: list, step_roots: set) -> list:
    """True for spans that are, or descend from, a span named in step_roots."""
    flags = []
    for s in spans:
        parent = s[PARENT]
        flags.append(s[NAME] in step_roots
                     or (parent is not None and flags[parent]))
    return flags


GROUPS = {
    "encoders.encode_query": ("encoders.encode_query",),
    "encoders.encode_image": ("encoders.encode_image",),
    "attention.query_attention": ("attention.query_attention",),
    "attention.image_attention": ("attention.image_attention",),
    "fusion": ("fusion.project_query", "fusion.project_image", "fusion.classify",
               "fusion.cross_entropy", "fusion.predict"),
    "infomax": ("infomax.encode_latent", "infomax.mi_estimate",
                "infomax.skl_gaussian", "infomax.info_loss", "infomax.total_loss"),
}


def layer_metrics(tracer: Tracer, step_roots: set, n_steps: int) -> dict:
    """Per-layer figures from the recorded spans.

    Per-step figures count only spans inside a step (a span named in
    step_roots or one of its descendants) and divide by n_steps. Per-sample
    and per-call figures use every span of the name, inclusive of children.
    """
    spans = tracer.spans
    own = self_times(spans)
    inside = in_step(spans, step_roots)
    per = max(n_steps, 1)

    def step_totals(names):
        ms = nodes = calls = 0
        for s, t, flag in zip(spans, own, inside):
            if flag and s[NAME] in names:
                ms += t * 1e3
                nodes += s[NODES]
                calls += 1
        return ms / per, nodes / per, calls / per

    def inclusive(name):
        durations = [s[END] - s[START] for s in spans if s[NAME] == name]
        return sum(durations), len(durations)

    def self_ms_measured(name):
        return sum(t for s, t in zip(spans, own)
                   if s[NAME] == name and s[STEP] >= 0) * 1e3 / per

    def us_per_sample(name):
        total, _ = inclusive(name)
        n = tracer.samples.get(name, 0)
        return total * 1e6 / n if n else 0.0

    def ms_per_call(name):
        total, calls = inclusive(name)
        return total * 1e3 / calls if calls else 0.0

    out = {}
    for group, names in GROUPS.items():
        ms, nodes, calls = step_totals(names)
        out[f"{group}.ms_per_step"] = ms
        out[f"{group}.nodes_per_step"] = nodes
        out[f"{group}.calls_per_step"] = calls
    out["model.loss_batch.self_ms_per_step"] = step_totals(("model.loss_batch",))[0]
    out["training.loop.self_ms_per_step"] = self_ms_measured("training.train")
    backward_ms = step_totals(("autodiff.backward",))[0]
    out["autodiff.backward.ms_per_step"] = backward_ms
    out["autodiff.adam.ms_per_step"] = step_totals(("autodiff.adam",))[0]
    graph = tracer.graph_sizes
    out["autodiff.graph_nodes_per_step"] = statistics.median(graph) if graph else 0
    out["autodiff.nodes_created_per_step"] = (
        sum(s[NODES] for s, flag in zip(spans, inside) if flag) / per)
    out["autodiff.backward.us_per_node"] = (
        backward_ms * 1e3 * per / sum(graph) if graph else 0.0)
    out["training.evaluate_model.us_per_sample"] = us_per_sample("training.evaluate_model")
    out["training.load_checkpoint.ms"] = ms_per_call("training.load_checkpoint")
    out["training.save_checkpoint.ms"] = ms_per_call("training.save_checkpoint")
    for name in ("data.generate_dataset", "data.audit_dataset",
                 "data.export_dataset", "data.import_dataset",
                 "training.prepare_split"):
        out[f"{name}.us_per_sample"] = us_per_sample(name)
    return out
