"""Query self-attention and query-conditioned image attention.

Both blocks score elements with a small relu bottleneck (score head of
width d_ff), normalize with a masked softmax, and pool the ORIGINAL rows
with the resulting weights (the image block fuses projections only to
compute the scores, never the pooled output).

Weight orientation convention: element vectors are rows, so every weight
matrix is stored [in_width, out_width] and applied on the right. Both blocks
work on a batch of B instances with n elements each: the elements are the
rows of one [B*n, d] matrix, the scores form a [B, n] matrix, and the mask
is a [B, n] bool array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    SIGNAL_INIT_SCALE, DimensionError, Parameter, Tensor, matmul, relu,
    reshape, segment_mul, segment_pool, softmax, uniform_init,
)


@dataclass(frozen=True)
class AttentionResult:
    """Normalized weights over elements plus the weighted row-sum.

    weights: [B, n] Tensor, nonnegative, each row summing to 1 over its
    unmasked entries, exactly 0 at masked entries.
    pooled: [B, d] Tensor, pooled[b] = sum_j weights[b, j] * rows[b*n + j].
    """
    weights: Tensor
    pooled: Tensor


class AttentionParams:
    """Score and projection weights for both attention blocks.

    query_w:      [d_q, d_ff], query_score: [d_ff, 1]
    img_proj_w:   [d_h, d_p],  qstar_proj_w: [d_q, d_p]
    img_score_w:  [d_p, d_ff], img_score: [d_ff, 1]
    """

    def __init__(self, d_q: int, d_h: int, d_ff: int = 16, d_p: int = 32,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_ff = d_ff
        self.d_p = d_p
        s = SIGNAL_INIT_SCALE
        self.query_w = Parameter("att.query_w", uniform_init(rng, (d_q, d_ff), d_q, s))
        self.query_score = Parameter("att.query_score", uniform_init(rng, (d_ff, 1), d_ff, s))
        self.img_proj_w = Parameter("att.img_proj_w", uniform_init(rng, (d_h, d_p), d_h, s))
        self.qstar_proj_w = Parameter("att.qstar_proj_w", uniform_init(rng, (d_q, d_p), d_q, s))
        self.img_score_w = Parameter("att.img_score_w", uniform_init(rng, (d_p, d_ff), d_p, s))
        self.img_score = Parameter("att.img_score", uniform_init(rng, (d_ff, 1), d_ff, s))

    def parameters(self):
        return [self.query_w, self.query_score, self.img_proj_w,
                self.qstar_proj_w, self.img_score_w, self.img_score]


def _score_pool(rows: Tensor, scored_rows: Tensor, score_w: Tensor,
                score_head: Tensor, mask: np.ndarray) -> AttentionResult:
    keep = np.asarray(mask, dtype=bool)
    logits = reshape(matmul(relu(matmul(scored_rows, score_w)), score_head),
                     keep.shape)
    weights = softmax(logits, keep)
    pooled = segment_pool(weights, rows)
    return AttentionResult(weights=weights, pooled=pooled)


def query_attention(q: Tensor, mask: np.ndarray,
                    params: AttentionParams) -> AttentionResult:
    """Attend over query token embeddings and pool them.

    q: [B*k, d_q] token rows, mask: [B, k]. Per-token score =
    score_head . relu(q_k @ query_w); weights are the masked softmax of each
    query's scores; pooled[b] = sum_k weight_bk * q_bk.
    """
    return _score_pool(q, q, params.query_w.tensor, params.query_score.tensor, mask)


def image_attention(h: Tensor, q_star: Tensor, mask: np.ndarray,
                    params: AttentionParams) -> AttentionResult:
    """Attend over image objects, conditioned on the pooled query embedding.

    h: [B*t, d_h] object rows, q_star: [B, d_q], mask: [B, t]. Each object
    row and its query summary are projected to a common width d_p and fused
    by Hadamard product; the fused rows are scored like the query block.
    The pooled output weights the ORIGINAL object rows h_t, not the fused
    projections.
    """
    if params.img_proj_w.tensor.shape[1] != params.qstar_proj_w.tensor.shape[1]:
        raise DimensionError(
            f"projection widths differ: {params.img_proj_w.tensor.shape} vs "
            f"{params.qstar_proj_w.tensor.shape}")
    if q_star.shape[0] != np.shape(mask)[0]:
        raise DimensionError(
            f"{q_star.shape[0]} query summaries for {np.shape(mask)[0]} scenes")
    h_proj = matmul(h, params.img_proj_w.tensor)
    q_proj = matmul(q_star, params.qstar_proj_w.tensor)
    fused = segment_mul(h_proj, q_proj)
    return _score_pool(h, fused, params.img_score_w.tensor,
                       params.img_score.tensor, mask)
