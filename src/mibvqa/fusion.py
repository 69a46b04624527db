"""Modality fusion, answer classification, and cross-entropy.

The pooled query and image embeddings are projected by two fully connected
layers to a common width, fused by Hadamard product, and classified by a
two-layer MLP over a single answer space that covers every question
category (per-category masks exist for evaluation slicing only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    SIGNAL_INIT_SCALE, Parameter, Tensor, add_row, logsumexp_rows, matmul,
    relu, scale, sub, sum_all, take_per_row, uniform_init,
)


class LabelError(ValueError):
    """A label index falls outside the answer space."""


@dataclass(frozen=True)
class AnswerSpace:
    """Ordered answer vocabulary plus the valid subset per question category."""
    answers: tuple
    category_answers: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.answers)) != len(self.answers):
            raise ValueError("answers must be unique")
        for cat, subset in self.category_answers.items():
            for a in subset:
                if a not in self.answers:
                    raise ValueError(f"category {cat!r} lists unknown answer {a!r}")

    def __len__(self) -> int:
        return len(self.answers)

    def index_of(self, answer: str) -> int:
        try:
            return self.answers.index(answer)
        except ValueError:
            raise LabelError(f"unknown answer {answer!r}") from None

    def indices_for(self, category: str) -> tuple:
        return tuple(self.answers.index(a) for a in self.category_answers[category])


class FusionParams:
    """Two projection layers to a common width d_f, then a d_f->d_mlp->C MLP."""

    def __init__(self, d_q: int, d_h: int, n_classes: int, d_f: int = 64,
                 d_mlp: int = 64, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_f = d_f
        s = SIGNAL_INIT_SCALE
        self.q_w = Parameter("fus.q_w", uniform_init(rng, (d_q, d_f), d_q, s))
        self.q_b = Parameter("fus.q_b", np.zeros(d_f))
        self.h_w = Parameter("fus.h_w", uniform_init(rng, (d_h, d_f), d_h, s))
        self.h_b = Parameter("fus.h_b", np.zeros(d_f))
        self.mlp_w1 = Parameter("fus.mlp_w1", uniform_init(rng, (d_f, d_mlp), d_f, s))
        self.mlp_b1 = Parameter("fus.mlp_b1", np.zeros(d_mlp))
        self.mlp_w2 = Parameter("fus.mlp_w2", uniform_init(rng, (d_mlp, n_classes), d_mlp, s))
        self.mlp_b2 = Parameter("fus.mlp_b2", np.zeros(n_classes))

    def parameters(self):
        return [self.q_w, self.q_b, self.h_w, self.h_b,
                self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2]


def project_query(q_star: Tensor, params: FusionParams) -> Tensor:
    """First fully connected layer over the pooled query embeddings [B, d_q]."""
    return add_row(matmul(q_star, params.q_w.tensor), params.q_b.tensor)


def project_image(h_star: Tensor, params: FusionParams) -> Tensor:
    """First fully connected layer over the pooled image embeddings [B, d_h]."""
    return add_row(matmul(h_star, params.h_w.tensor), params.h_b.tensor)


def classify(fused: Tensor, params: FusionParams) -> Tensor:
    """Two-layer MLP logits [B, C] over the answer space (no softmax baked in)."""
    hidden = relu(add_row(matmul(fused, params.mlp_w1.tensor), params.mlp_b1.tensor))
    return add_row(matmul(hidden, params.mlp_w2.tensor), params.mlp_b2.tensor)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    logits: [B, C]; labels: int[B]. Mean (not sum) reduction keeps the
    learning rate stable across batch sizes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise LabelError(f"cross_entropy expects [B, C] logits, got {logits.shape}")
    b, c = logits.shape
    if labels.shape != (b,):
        raise LabelError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise LabelError(f"label {bad} out of range for {c} classes")
    lse = logsumexp_rows(logits)
    picked = take_per_row(logits, labels)
    return scale(sum_all(sub(lse, picked)), 1.0 / b)


def predict(logits) -> np.ndarray:
    """Argmax answer index of each row of [B, C] logits; ties break to the
    lowest index."""
    values = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if values.ndim != 2:
        raise LabelError(f"predict expects [B, C] logits, got {values.shape}")
    return np.argmax(values, axis=1)
