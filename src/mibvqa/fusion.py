"""Modality fusion, answer classification, and cross-entropy.

The pooled query and image embeddings are projected by two fully connected
layers to a common width and fused by Hadamard product. A two-layer MLP
classifies the fused vector, or the bottleneck's latent code of it, over a
single answer space that covers every question category.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    SIGNAL_INIT_SCALE, DimensionError, Tensor, linear, linear_relu,
    softmax_cross_entropy, uniform_init,
)


class FusionParams:
    """Two projection layers to a common width d_f, then a d_in->d_mlp->C
    MLP. The classifier reads d_in = d_f inputs, or the latent width when a
    bottleneck sits between fusion and classifier."""

    def __init__(self, d_q: int, d_h: int, n_classes: int, d_f: int,
                 d_in: int, d_mlp: int, rng: np.random.Generator):

        def layer(fan_in, fan_out):
            return (Tensor(uniform_init(rng, (fan_in, fan_out), fan_in,
                                        SIGNAL_INIT_SCALE), requires_grad=True),
                    Tensor(np.zeros(fan_out), requires_grad=True))

        self.q_w, self.q_b = layer(d_q, d_f)
        self.h_w, self.h_b = layer(d_h, d_f)
        self.mlp_w1, self.mlp_b1 = layer(d_in, d_mlp)
        self.mlp_w2, self.mlp_b2 = layer(d_mlp, n_classes)


def project_query(q_star: Tensor, params: FusionParams) -> Tensor:
    """First fully connected layer over the pooled query embeddings [B, d_q]."""
    return linear(q_star, params.q_w, params.q_b)


def project_image(h_star: Tensor, params: FusionParams) -> Tensor:
    """First fully connected layer over the pooled image embeddings [B, d_h]."""
    return linear(h_star, params.h_w, params.h_b)


def classify(x: Tensor, params: FusionParams) -> Tensor:
    """Two-layer MLP logits [B, C] of x [B, d_in] over the answer space (no
    softmax baked in); the hidden layer is one linear_relu node."""
    hidden = linear_relu(x, params.mlp_w1, params.mlp_b1)
    return linear(hidden, params.mlp_w2, params.mlp_b2)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    logits: [B, C]; labels: int[B] in [0, C), checked by the node. Mean (not
    sum) reduction keeps the learning rate stable across batch sizes.
    """
    return softmax_cross_entropy(logits, labels)


def predict(logits: Tensor) -> np.ndarray:
    """Argmax answer index of each row of [B, C] logits; ties break to the
    lowest index."""
    if logits.data.ndim != 2:
        raise DimensionError(f"predict expects [B, C] logits, got {logits.shape}")
    return np.argmax(logits.data, axis=1)
