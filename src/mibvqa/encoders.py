"""Trainable stand-in encoders for the image and query modalities.

The image side maps per-object raw descriptors (one-hot class, normalized
position, normalized size) to a row of object embeddings. The query side is
a learned token embedding followed by a unidirectional tanh recurrence, so
word order matters for comparison-style questions. Widths are config-driven
and desk-sized. On both sides, rows at padded positions are computed like
real ones and made inert by the masks of the pooling that consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    SIGNAL_INIT_SCALE, DimensionError, InvalidMaskError, Tensor, linear_relu,
    segment_pool, tanh_recurrence, uniform_init,
)


@dataclass(frozen=True)
class ImageObjectFeatures:
    """Raw object descriptors of a batch of B scenes.

    matrix: [B, t, d_raw]; object_mask: [B, t], True at real objects
    (t is at most the dataset's t_max). Padded rows are all-zero and
    masked False; every scene has at least one real object.
    """
    matrix: np.ndarray
    object_mask: np.ndarray


@dataclass(frozen=True)
class QueryTokens:
    """Token ids [B, k] (PAD id in padded slots, k at most the dataset's
    k_max) plus a validity mask."""
    token_ids: np.ndarray
    token_mask: np.ndarray


class EncoderParams:
    """Weights of both stand-in extractors.

    embed:  [vocab_size, d_q] token embedding table
    rec_w:  [d_q, d_q] tanh recurrence weight (no bias)
    img_w:  [d_raw, d_h], img_b: [d_h] per-object projection
    """

    def __init__(self, vocab_size: int, d_q: int, d_raw: int, d_h: int,
                 rng: np.random.Generator):
        # embed entries drive the tanh directly: unit bound keeps the states
        # in the responsive part of tanh; rec_w stays at 1/sqrt(d) so the
        # recurrence neither saturates nor explodes over the token sequence
        self.embed = Tensor(rng.uniform(-1.0, 1.0, (vocab_size, d_q)),
                            requires_grad=True)
        self.rec_w = Tensor(uniform_init(rng, (d_q, d_q), d_q), requires_grad=True)
        self.img_w = Tensor(uniform_init(rng, (d_raw, d_h), d_raw, SIGNAL_INIT_SCALE),
                            requires_grad=True)
        self.img_b = Tensor(np.zeros(d_h), requires_grad=True)


def encode_image(features: ImageObjectFeatures, params: EncoderParams) -> Tensor:
    """Per-object rows relu(raw @ img_w + img_b), one linear_relu node.

    Output [B*t, d_h], rows b*t .. b*t + t - 1 for scene b. Rows at padded
    objects are computed (relu(img_b) for all-zero padding) but, as on the
    query side, the object mask gives them weight exactly 0 in either
    pooling, so they contribute neither values nor gradients.
    """
    matrix = np.asarray(features.matrix, dtype=np.float64)
    if matrix.ndim != 3:
        raise DimensionError(f"features must be [B, t, d_raw], got {matrix.shape}")
    b, t, d_raw = matrix.shape
    return linear_relu(Tensor(matrix.reshape(b * t, d_raw)), params.img_w, params.img_b)


def encode_query(tokens: QueryTokens, params: EncoderParams) -> Tensor:
    """Contextual token embeddings q_k = tanh(rec_w @ q_{k-1} + embed[token_k]).

    One tanh_recurrence node over the batch; output [B*k, d_q],
    rows b*k .. b*k + k - 1 for query b. Rows at padded
    positions are computed (the PAD embedding feeds the recurrence after
    the real prefix) but excluded by the attention mask downstream; because
    padding is always a suffix, the real prefix rows depend only on the
    real tokens.
    """
    return tanh_recurrence(params.embed, params.rec_w, tokens.token_ids)


def masked_mean(rows: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of the unmasked rows of each segment; the no-attention baseline
    pooling. rows: [B*n, d], mask: [B, n]; output [B, d]."""
    keep = np.asarray(mask, dtype=bool)
    counts = keep.sum(axis=-1, keepdims=True)
    if not counts.all():
        raise InvalidMaskError("masked_mean: every row is masked")
    return segment_pool(Tensor(keep / counts), rows)
