"""Hadamard fusion, MLP classifier, cross-entropy, and prediction rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers_ops import grad_check
from helpers_oracles import composed_softmax_cross_entropy
from mibvqa import autodiff as ad
from mibvqa.autodiff import DimensionError, Tensor
from mibvqa.encoders import (
    EncoderParams,
    ImageObjectFeatures,
    QueryTokens,
    encode_image,
    encode_query,
)
from mibvqa.attention import AttentionParams, image_attention, query_attention
from mibvqa.fusion import (
    FusionParams,
    classify,
    cross_entropy,
    predict,
    project_image,
    project_query,
)

D_Q, D_H, D_F, D_MLP, N_CLASSES = 4, 5, 6, 7, 4


def make_params(seed: int = 0) -> FusionParams:
    return FusionParams(D_Q, D_H, N_CLASSES, d_f=D_F, d_in=D_F, d_mlp=D_MLP,
                        rng=np.random.default_rng(seed))


def fuse(q_star: Tensor, h_star: Tensor, params: FusionParams) -> Tensor:
    """The model's fusion: Hadamard product of the two projections."""
    return ad.hadamard(project_query(q_star, params), project_image(h_star, params))


def cross_entropy_one(logits, label: int) -> Tensor:
    """Cross-entropy of a batch holding one logit vector."""
    return cross_entropy(Tensor(np.array([logits], dtype=float)), np.array([label]))


# ---------------------------------------------------------------- fuse


def test_ones_image_projection_passes_query_through():
    params = make_params()
    params.h_w.data[:] = 0.0
    params.h_b.data[:] = 1.0  # F_H(h*) == all ones
    rng = np.random.default_rng(1)
    q_star = Tensor(rng.standard_normal((3, D_Q)))
    h_star = Tensor(rng.standard_normal((3, D_H)))
    fused = fuse(q_star, h_star, params).data
    np.testing.assert_array_equal(fused, project_query(q_star, params).data)


def test_zero_projection_annihilates():
    rng = np.random.default_rng(2)
    q_star = Tensor(rng.standard_normal((3, D_Q)))
    h_star = Tensor(rng.standard_normal((3, D_H)))

    for zero_side in ("q", "h"):
        params = make_params()
        side = params.q_w if zero_side == "q" else params.h_w
        bias = params.q_b if zero_side == "q" else params.h_b
        side.data[:] = 0.0
        bias.data[:] = 0.0
        np.testing.assert_array_equal(
            fuse(q_star, h_star, params).data, np.zeros((3, D_F))
        )


def test_fuse_width_mismatch_rejected():
    params = make_params()
    with pytest.raises(DimensionError):
        fuse(Tensor(np.ones((1, D_Q + 1))), Tensor(np.ones((1, D_H))), params)


# ---------------------------------------------------------------- classify


def test_zero_weights_logits_equal_output_bias():
    params = make_params()
    params.mlp_w1.data[:] = 0.0
    params.mlp_b1.data[:] = 0.0
    params.mlp_w2.data[:] = 0.0
    params.mlp_b2.data[:] = np.arange(N_CLASSES, dtype=float)
    logits = classify(Tensor(np.ones((2, D_F))), params).data
    np.testing.assert_array_equal(logits, np.tile(np.arange(N_CLASSES, dtype=float), (2, 1)))


# ---------------------------------------------------------------- cross-entropy


def test_confident_correct_loss_near_zero():
    loss = cross_entropy_one([1000.0, 0.0, 0.0], 0)
    assert 0.0 <= loss.item() < 1e-9


def test_uniform_logits_loss_is_log_c():
    loss = cross_entropy_one([0.0, 0.0, 0.0, 0.0], 2)
    assert loss.item() == pytest.approx(math.log(4.0), rel=1e-15)


def test_batch_mean_reduction():
    logits = Tensor(np.array([[0.0, 0.0], [2.0, 0.0]]))
    labels = np.array([0, 0])
    per_sample = [
        cross_entropy_one([0.0, 0.0], 0).item(),
        cross_entropy_one([2.0, 0.0], 0).item(),
    ]
    batch = cross_entropy(logits, labels).item()
    assert batch == pytest.approx(sum(per_sample) / 2.0, rel=1e-15)


def test_cross_entropy_gradient_is_softmax_minus_onehot_over_batch():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 5))
    p = Tensor(raw, requires_grad=True)
    labels = np.array([1, 4, 0])
    ad.backward(cross_entropy(p, labels))

    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(raw)
    onehot[np.arange(3), labels] = 1.0
    np.testing.assert_allclose(p.grad, (soft - onehot) / 3.0, rtol=1e-12)


@pytest.mark.parametrize("b", [1, 2, 9])
def test_softmax_cross_entropy_node_equals_the_composed_form(b):
    rng = np.random.default_rng(20 + b)
    for _ in range(20):
        raw = rng.standard_normal((b, N_CLASSES)) * rng.uniform(0.5, 5.0)
        labels = rng.integers(0, N_CLASSES, size=b)
        labels[-1] = labels[0]  # a repeated label when b > 1
        results = []
        for loss_fn in (ad.softmax_cross_entropy, composed_softmax_cross_entropy):
            p = Tensor(raw.copy(), requires_grad=True)
            loss = loss_fn(p, labels)
            ad.backward(loss)
            results.append((loss.item(), p.grad))
        (value, grad), (ref_value, ref_grad) = results
        assert value == ref_value
        assert np.abs(grad - ref_grad).max() < 1e-10


def test_softmax_cross_entropy_node_rejects_mismatched_shapes():
    for logits, labels in ((np.zeros((2, 3)), np.array([0])),
                           (np.zeros(3), np.array([0])),
                           (np.zeros((0, 3)), np.zeros(0, dtype=int))):
        with pytest.raises(DimensionError):
            ad.softmax_cross_entropy(Tensor(logits), labels)


@pytest.mark.parametrize("labels,bad", [([0, 3], 3), ([-1, 0], -1),
                                        ([2, -1], -1), ([5, -2], 5)])
def test_softmax_cross_entropy_node_rejects_a_label_outside_the_classes(
        labels, bad):
    with pytest.raises(DimensionError, match=f"label {bad} out of range for 3"):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array(labels))


def test_label_out_of_range_rejected():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DimensionError):
        cross_entropy(logits, np.array([-1, 0]))
    with pytest.raises(DimensionError):
        cross_entropy_one([0.0, 0.0, 0.0], 3)


# ---------------------------------------------------------------- predict


def test_predict_argmax():
    logits = Tensor(np.array([[0.1, 0.9, 0.2], [0.7, 0.1, 0.2]]))
    assert predict(logits).tolist() == [1, 0]


def test_predict_tie_breaks_to_lowest_index():
    assert predict(Tensor(np.zeros((1, 5)))).tolist() == [0]
    assert predict(Tensor(np.array([[3.0, 7.0, 7.0]]))).tolist() == [1]


def test_predict_rejects_logits_that_are_not_a_matrix():
    for shape in ((), (5,)):
        with pytest.raises(DimensionError, match="predict expects"):
            predict(Tensor(np.zeros(shape)))


# ---------------------------------------------------------------- end to end


def test_full_pipeline_passes_gradient_check():
    # encoders -> both attentions -> fuse -> classify -> cross-entropy, all
    # trainable parameters checked at once at realistic initialization.
    rng = np.random.default_rng(4)
    enc = EncoderParams(vocab_size=7, d_q=D_Q, d_raw=8, d_h=D_H, rng=rng)
    att = AttentionParams(D_Q, D_H, d_ff=3, d_p=6, rng=rng)
    fus = FusionParams(D_Q, D_H, N_CLASSES, d_f=D_F, d_in=D_F, d_mlp=D_MLP,
                       rng=rng)

    feats = ImageObjectFeatures(
        np.vstack([rng.uniform(0, 1, (3, 8)), np.zeros((1, 8))])[None],
        np.array([[True, True, True, False]]),
    )
    tokens = QueryTokens(np.array([[1, 4, 2, 0, 0]]),
                         np.array([[True, True, True, False, False]]))
    label = np.array([2])

    def f(ps):
        h = encode_image(feats, enc)
        q = encode_query(tokens, enc)
        q_res = query_attention(q, tokens.token_mask, att)
        h_res = image_attention(h, q_res.pooled, feats.object_mask, att)
        fused = fuse(q_res.pooled, h_res.pooled, fus)
        return cross_entropy(classify(fused, fus), label)

    all_params = [*vars(enc).values(), *vars(att).values(), *vars(fus).values()]
    assert grad_check(f, all_params) < 1e-4
