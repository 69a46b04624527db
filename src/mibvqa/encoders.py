"""Trainable stand-in encoders for the image and query modalities.

The image side maps per-object raw descriptors (one-hot class, normalized
position, normalized size) to a row of object embeddings. The query side is
a learned token embedding followed by a unidirectional tanh recurrence, so
word order matters for comparison-style questions. Widths are config-driven
and desk-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    SIGNAL_INIT_SCALE, DimensionError, InvalidMaskError, Parameter, Tensor,
    add, add_row, gather_rows, mask_rows, matmul, relu, segment_pool,
    stack_steps, tanh, transpose, uniform_init,
)


class VocabularyError(ValueError):
    """A token id falls outside the fixed vocabulary."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Widths and capacities shared by both encoders and everything downstream."""
    d_h: int = 32          # image object embedding width
    d_q: int = 32          # query token embedding width
    t_max: int = 16        # object slots per scene
    k_max: int = 12        # token slots per query
    vocab_size: int = 32
    d_raw: int = 8         # one-hot class (5) + x + y + size

    def __post_init__(self):
        for name in ("d_h", "d_q", "t_max", "k_max", "vocab_size", "d_raw"):
            if getattr(self, name) <= 0:
                raise ValueError(f"EmbeddingConfig.{name} must be positive")


@dataclass(frozen=True)
class ImageObjectFeatures:
    """Raw object descriptors of a batch of B scenes.

    matrix: [B, t_max, d_raw]; object_mask: [B, t_max], True at real
    objects. Padded rows are all-zero and masked False; every scene has at
    least one real object.
    """
    matrix: np.ndarray
    object_mask: np.ndarray

    def __post_init__(self):
        if not self.object_mask.any(axis=-1).all():
            raise ValueError("scene has no real objects")


@dataclass(frozen=True)
class QueryTokens:
    """Token ids [B, k_max] (PAD id in padded slots) plus a validity mask."""
    token_ids: np.ndarray
    token_mask: np.ndarray


class EncoderParams:
    """Parameters of both stand-in extractors.

    embed:  [vocab_size, d_q] token embedding table
    rec_w:  [d_q, d_q] tanh recurrence weight (no bias)
    img_w:  [d_raw, d_h], img_b: [d_h] per-object projection
    """

    def __init__(self, config: EmbeddingConfig, rng: np.random.Generator):
        c = config
        # embed entries drive the tanh directly: unit bound keeps the states
        # in the responsive part of tanh; rec_w stays at 1/sqrt(d) so the
        # recurrence neither saturates nor explodes over the token sequence
        self.embed = Parameter("enc.embed", rng.uniform(-1.0, 1.0, (c.vocab_size, c.d_q)))
        self.rec_w = Parameter("enc.rec_w", uniform_init(rng, (c.d_q, c.d_q), c.d_q))
        self.img_w = Parameter("enc.img_w", uniform_init(rng, (c.d_raw, c.d_h), c.d_raw,
                                                         SIGNAL_INIT_SCALE))
        self.img_b = Parameter("enc.img_b", np.zeros(c.d_h))

    def parameters(self):
        return [self.embed, self.rec_w, self.img_w, self.img_b]


def encode_image(features: ImageObjectFeatures, params: EncoderParams) -> Tensor:
    """Per-object rows relu(raw @ img_w + img_b), with padded rows forced to zero.

    Output [B*t_max, d_h], rows b*t_max .. b*t_max + t_max - 1 for scene b.
    Zeroing padded rows keeps them inert regardless of the bias, so they
    contribute neither values nor gradients.
    """
    matrix = np.asarray(features.matrix, dtype=np.float64)
    if matrix.ndim != 3:
        raise DimensionError(f"features must be [B, t_max, d_raw], got {matrix.shape}")
    b, t, d_raw = matrix.shape
    if d_raw != params.img_w.tensor.shape[0]:
        raise DimensionError(
            f"feature width {d_raw} != encoder d_raw {params.img_w.tensor.shape[0]}")
    x = Tensor(matrix.reshape(b * t, d_raw))
    h = relu(add_row(matmul(x, params.img_w.tensor), params.img_b.tensor))
    return mask_rows(h, np.asarray(features.object_mask).reshape(b * t))


def encode_query(tokens: QueryTokens, params: EncoderParams) -> Tensor:
    """Contextual token embeddings q_k = tanh(rec_w @ q_{k-1} + embed[token_k]).

    One batched [B, d_q] step per token position; output [B*k_max, d_q],
    rows b*k_max .. b*k_max + k_max - 1 for query b. Rows at padded
    positions are computed (the PAD embedding feeds the recurrence after
    the real prefix) but excluded by the attention mask downstream; because
    padding is always a suffix, the real prefix rows depend only on the
    real tokens.
    """
    vocab = params.embed.tensor.shape[0]
    ids = np.asarray(tokens.token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise DimensionError(f"token ids must be [B, k_max], got {ids.shape}")
    if ids.min() < 0 or ids.max() >= vocab:
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise VocabularyError(f"token id {bad} outside vocabulary of size {vocab}")
    rec_t = transpose(params.rec_w.tensor)
    q_k = Tensor(np.zeros((ids.shape[0], rec_t.shape[1])))
    steps = []
    for k in range(ids.shape[1]):
        q_k = tanh(add(matmul(q_k, rec_t), gather_rows(params.embed.tensor, ids[:, k])))
        steps.append(q_k)
    return stack_steps(steps)


def masked_mean(rows: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of the unmasked rows of each segment; the no-attention baseline
    pooling. rows: [B*n, d], mask: [B, n]; output [B, d]."""
    keep = np.asarray(mask, dtype=bool)
    counts = keep.sum(axis=-1, keepdims=True)
    if not counts.all():
        raise InvalidMaskError("masked_mean: every row is masked")
    return segment_pool(Tensor(keep / counts), rows)
