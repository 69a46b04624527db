"""Query self-attention and query-conditioned image attention.

Both blocks score elements with a small relu bottleneck (score head of
width d_ff), normalize with a masked softmax, and pool the ORIGINAL rows
with the resulting weights (the image block fuses projections only to
compute the scores, never the pooled output). Each block is one engine
node: query attention an attention_pool, image attention a
cross_attention_pool that also holds both projections and their Hadamard
fusion.

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
    SIGNAL_INIT_SCALE, Tensor, attention_pool, cross_attention_pool,
    uniform_init,
)


@dataclass(frozen=True)
class AttentionResult:
    """Normalized weights over elements plus the weighted row-sum.

    weights: [B, n] Tensor, nonnegative, each row summing to 1 over its
    unmasked entries, exactly 0 at masked entries. It is graph-free, for
    inspection only: gradients reach the scores through pooled.
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

    def __init__(self, d_q: int, d_h: int, d_ff: int, d_p: int,
                 rng: np.random.Generator):

        def weight(fan_in, fan_out):
            return Tensor(uniform_init(rng, (fan_in, fan_out), fan_in,
                                       SIGNAL_INIT_SCALE), requires_grad=True)

        self.query_w = weight(d_q, d_ff)
        self.query_score = weight(d_ff, 1)
        self.img_proj_w = weight(d_h, d_p)
        self.qstar_proj_w = weight(d_q, d_p)
        self.img_score_w = weight(d_p, d_ff)
        self.img_score = weight(d_ff, 1)


def query_attention(q: Tensor, mask: np.ndarray,
                    params: AttentionParams) -> AttentionResult:
    """Attend over query token embeddings and pool them.

    q: [B*k, d_q] token rows, mask: [B, k]. Per-token score =
    score_head . relu(q_k @ query_w); weights are the masked softmax of each
    query's scores; pooled[b] = sum_k weight_bk * q_bk.
    """
    pooled, weights = attention_pool(q, q, params.query_w, params.query_score, mask)
    return AttentionResult(weights=Tensor(weights), pooled=pooled)


def image_attention(h: Tensor, q_star: Tensor, mask: np.ndarray,
                    params: AttentionParams) -> AttentionResult:
    """Attend over image objects, conditioned on the pooled query embedding.

    h: [B*t, d_h] object rows, q_star: [B, d_q], mask: [B, t]. Each object
    row and its query summary are projected to a common width d_p and fused
    by Hadamard product; the fused rows are scored like the query block.
    The pooled output weights the ORIGINAL object rows h_t, not the fused
    projections. The whole block, projections included, is one
    cross_attention_pool node, whose VJP hands h the sum of its two
    contributions (pooling, then projection); mismatched shapes, q_star's
    row count against the mask's included, are a DimensionError.
    """
    pooled, weights = cross_attention_pool(
        h, q_star, params.img_proj_w, params.qstar_proj_w, params.img_score_w,
        params.img_score, mask)
    return AttentionResult(weights=Tensor(weights), pooled=pooled)
