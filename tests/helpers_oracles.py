"""Reference implementations the tests compare the library against.

The attention oracles are straight-line dense math coded directly from the
published formulas with plain numpy — no Tensor, no graph, no code shared
with the implementation under test.  Both attention suites and the
acceptance gate compare against these.  The per-sample model reference
below is the batched model's correctness gate (tests/test_batched.py).
"""

from __future__ import annotations

import numpy as np

from mibvqa import autodiff as ad
from mibvqa.fusion import cross_entropy
from mibvqa.infomax import LossBreakdown, encode_latent, info_loss, total_loss

NEG_INF = -1e30  # same additive mask constant the engine documents


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    shifted = logits + np.where(mask, 0.0, NEG_INF)
    shifted = shifted - shifted.max()
    e = np.exp(shifted)
    return e / e.sum()


def oracle_query_attention(q, mask, query_w, query_score):
    """Self-attention over query token embeddings.

    scores_k = relu(q_k W) v; alpha = softmax over unmasked; pooled = alpha q.
    """
    scores = np.maximum(q @ query_w, 0.0) @ query_score  # (K, 1)
    alpha = masked_softmax(scores.reshape(-1), mask)
    pooled = alpha @ q
    return alpha, pooled


def oracle_image_attention(h, q_star, mask, img_proj_w, qstar_proj_w,
                           img_score_w, img_score):
    """Query-conditioned attention over image object embeddings.

    Projections of h_t and q* are fused per object by elementwise product,
    scored through a relu layer, softmax-normalized, and used to pool the
    *original* object embeddings.
    """
    hp = h @ img_proj_w                       # (T, d_p)
    qp = q_star @ qstar_proj_w                # (d_p,)
    fused = hp * qp[None, :]                  # (T, d_p)
    scores = np.maximum(fused @ img_score_w, 0.0) @ img_score  # (T, 1)
    alpha = masked_softmax(scores.reshape(-1), mask)
    pooled = alpha @ h
    return alpha, pooled


# ---------------------------------------------------------------------------
# per-sample reference of the model
#
# One graph per sample (B = 1), as the model was computed before it was
# batched. It is built from the engine's general ops only (matmul, add,
# hadamard, tanh, relu, exp, logsumexp_rows, ...), never from the segment
# ops, gather_rows, stack_steps or softmax that the batched model runs on:
# an embedding lookup is a one-hot product, stacking rows is a sum of
# one-hot outer products (exact), and the masked softmax is exp(x - lse(x)).


def _stack(parts):
    """Stack [1, d] tensors into [n, d] with matmul/add only (exact)."""
    out = None
    for i, part in enumerate(parts):
        pick = np.zeros((len(parts), 1))
        pick[i, 0] = 1.0
        term = ad.matmul(ad.Tensor(pick), part)
        out = term if out is None else ad.add(out, term)
    return out


def _softmax_row(logits, mask):
    """Masked softmax of a [1, n] logit row."""
    n = logits.shape[1]
    shifted = ad.add(logits, ad.Tensor(np.where(mask, 0.0, NEG_INF)[None, :]))
    lse = ad.reshape(ad.logsumexp_rows(shifted), (1, 1))
    return ad.exp(ad.sub(shifted, ad.matmul(lse, ad.Tensor(np.ones((1, n))))))


def _dense(x, w, b):
    return ad.add_row(ad.matmul(x, w.tensor), b.tensor)


def reference_forward(model, matrix, object_mask, token_ids, token_mask):
    """Logits, f_q and f_h ([1, .] each) of one sample: matrix [t, d_raw],
    object_mask [t], token_ids [k], token_mask [k]."""
    enc, att, fus = model.encoders, model.attention, model.fusion
    h = ad.mask_rows(ad.relu(_dense(ad.Tensor(matrix), enc.img_w, enc.img_b)),
                     object_mask)
    vocab = enc.embed.shape[0]
    rec_t = ad.transpose(enc.rec_w.tensor)
    prev = ad.Tensor(np.zeros((1, enc.rec_w.shape[0])))
    rows = []
    for tok in token_ids:
        onehot = np.zeros((1, vocab))
        onehot[0, tok] = 1.0
        prev = ad.tanh(ad.add(ad.matmul(prev, rec_t),
                              ad.matmul(ad.Tensor(onehot), enc.embed.tensor)))
        rows.append(prev)
    q = _stack(rows)
    if att is not None:
        scores = ad.matmul(ad.relu(ad.matmul(q, att.query_w.tensor)),
                           att.query_score.tensor)
        alpha = _softmax_row(ad.reshape(scores, (1, len(token_ids))), token_mask)
        q_star = ad.matmul(alpha, q)
        q_proj = ad.matmul(q_star, att.qstar_proj_w.tensor)
        fused = ad.hadamard(ad.matmul(h, att.img_proj_w.tensor),
                            ad.matmul(ad.Tensor(np.ones((h.shape[0], 1))), q_proj))
        scores = ad.matmul(ad.relu(ad.matmul(fused, att.img_score_w.tensor)),
                           att.img_score.tensor)
        beta = _softmax_row(ad.reshape(scores, (1, h.shape[0])), object_mask)
        h_star = ad.matmul(beta, h)
    else:
        q_star = ad.matmul(ad.Tensor(token_mask[None, :] / token_mask.sum()), q)
        h_star = ad.matmul(ad.Tensor(object_mask[None, :] / object_mask.sum()), h)
    f_q = _dense(q_star, fus.q_w, fus.q_b)
    f_h = _dense(h_star, fus.h_w, fus.h_b)
    hidden = ad.relu(_dense(ad.hadamard(f_q, f_h), fus.mlp_w1, fus.mlp_b1))
    return _dense(hidden, fus.mlp_w2, fus.mlp_b2), f_q, f_h


def reference_loss(model, features, tokens, labels, lam, noise_q, noise_h):
    """Logits [B, C] and the five loss terms of a batch, every sample on its
    own graph; the batch-level terms reuse the library's loss functions."""
    per_sample = [reference_forward(model, features.matrix[i],
                                    features.object_mask[i],
                                    tokens.token_ids[i], tokens.token_mask[i])
                  for i in range(len(labels))]
    logits, f_q, f_h = (_stack(list(part)) for part in zip(*per_sample))
    ce = cross_entropy(logits, labels)
    if model.bottleneck is None:
        zero = ad.Tensor(np.zeros(()))
        return logits, LossBreakdown(ce, zero, zero, zero, ce)
    lat_q = encode_latent(f_q, "phi", model.bottleneck, noise_q)
    lat_h = encode_latent(f_h, "psi", model.bottleneck, noise_h)
    info = info_loss(lat_q.sample, lat_h.sample, lat_q, lat_h,
                     model.bottleneck.gamma(), model.bottleneck.critic.tensor)
    return logits, LossBreakdown(ce, info.mi_estimate, info.skl, info.value,
                                 total_loss(ce, info.value, lam))
