"""Stand-in encoders: image object embedding and recurrent query embedding."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from helpers_ops import sum_all
from helpers_oracles import assert_fused_equals_composed, composed_linear_relu
from mibvqa import autodiff as ad
from mibvqa.encoders import (
    EncoderParams,
    ImageObjectFeatures,
    QueryTokens,
    encode_image,
    encode_query,
    masked_mean,
)

CFG = SimpleNamespace(d_h=12, d_q=10, t_max=5, k_max=6, vocab_size=9, d_raw=8)


def make_params(seed: int = 0) -> EncoderParams:
    return EncoderParams(CFG.vocab_size, CFG.d_q, CFG.d_raw, CFG.d_h,
                         np.random.default_rng(seed))


def one_scene(mat: np.ndarray, mask: np.ndarray) -> ImageObjectFeatures:
    """A batch holding the single scene (mat [t_max, d_raw], mask [t_max])."""
    return ImageObjectFeatures(mat[None], mask[None])


def random_features(rng: np.random.Generator, n_objects: int) -> ImageObjectFeatures:
    mat = np.zeros((CFG.t_max, CFG.d_raw))
    mat[:n_objects] = rng.uniform(0.0, 1.0, (n_objects, CFG.d_raw))
    mask = np.zeros(CFG.t_max, dtype=bool)
    mask[:n_objects] = True
    return one_scene(mat, mask)


# ---------------------------------------------------------------- image


def test_padded_rows_stay_zero():
    # img_b starts at zero, so all-zero padding rows come out as relu(0) = 0;
    # with any other bias the pooling masks alone make them inert
    # (test_batched.py::test_image_padding_is_inert_end_to_end)
    params = make_params()
    feats = random_features(np.random.default_rng(1), n_objects=3)
    out = encode_image(feats, params).data
    np.testing.assert_array_equal(out[3:], np.zeros((2, CFG.d_h)))


def test_identical_calls_bitwise_identical():
    params = make_params()
    feats = random_features(np.random.default_rng(2), n_objects=4)
    a = encode_image(feats, params).data
    b = encode_image(feats, params).data
    np.testing.assert_array_equal(a, b)


def test_identity_block_weights_reduce_to_relu_of_raw():
    # W_img = [I_8 | 0], b = 0: each embedding row is relu of its descriptor
    # in the first d_raw coordinates and zero elsewhere.
    params = make_params()
    w = np.zeros((CFG.d_raw, CFG.d_h))
    w[:, : CFG.d_raw] = np.eye(CFG.d_raw)
    params.img_w.data[:] = w
    params.img_b.data[:] = 0.0

    rng = np.random.default_rng(3)
    mat = np.zeros((CFG.t_max, CFG.d_raw))
    mat[0] = rng.uniform(-1.0, 1.0, CFG.d_raw)  # include negatives for relu
    mask = np.array([True, False, False, False, False])
    out = encode_image(one_scene(mat, mask), params).data

    np.testing.assert_array_equal(out[0, : CFG.d_raw], np.maximum(mat[0], 0.0))
    np.testing.assert_array_equal(out[0, CFG.d_raw :], np.zeros(CFG.d_h - CFG.d_raw))


def test_feature_width_mismatch_rejected():
    params = make_params()
    bad = one_scene(np.zeros((CFG.t_max, 5)), np.ones(CFG.t_max, dtype=bool))
    with pytest.raises(ad.DimensionError):
        encode_image(bad, params)


def test_image_gradients_flow_to_weights():
    params = make_params()
    feats = random_features(np.random.default_rng(4), n_objects=3)
    ad.backward(sum_all(encode_image(feats, params)))
    assert params.img_w.grad is not None and np.abs(params.img_w.grad).sum() > 0


@pytest.mark.parametrize("constant_x", [True, False], ids=["features", "hidden"])
@pytest.mark.parametrize("b", [1, 2, 9, 32])
def test_linear_relu_node_equals_the_composed_form_bit_for_bit(b, constant_x):
    # image-encoder rows of b scenes, each with padded (all-zero) rows past
    # its real objects, so relu(img_b) rows and dead units both occur
    rng = np.random.default_rng(40 + b)
    for _ in range(10):
        n_real = rng.integers(1, CFG.t_max + 1, size=b)
        x = rng.uniform(-1.0, 1.0, (b, CFG.t_max, CFG.d_raw))
        x[np.arange(CFG.t_max) >= n_real[:, None]] = 0.0
        operands = [ad.Tensor(x.reshape(b * CFG.t_max, CFG.d_raw),
                              requires_grad=not constant_x),
                    ad.Tensor(rng.standard_normal((CFG.d_raw, CFG.d_h)), requires_grad=True),
                    ad.Tensor(rng.standard_normal(CFG.d_h) * 0.5, requires_grad=True)]
        readout = ad.Tensor(rng.standard_normal((b * CFG.t_max, CFG.d_h)))
        assert_fused_equals_composed(ad.linear_relu, composed_linear_relu, operands,
                                     readout)


# ---------------------------------------------------------------- query


def tokens_of(ids, k_max=CFG.k_max) -> QueryTokens:
    """A batch holding the single query `ids`, padded to k_max."""
    arr = np.zeros((1, k_max), dtype=np.int64)
    arr[0, : len(ids)] = ids
    mask = np.zeros((1, k_max), dtype=bool)
    mask[0, : len(ids)] = True
    return QueryTokens(arr, mask)


def test_single_token_zero_recurrence_is_tanh_embedding():
    params = make_params()
    params.rec_w.data[:] = 0.0
    out = encode_query(tokens_of([4]), params).data
    np.testing.assert_allclose(
        out[0], np.tanh(params.embed.data[4]), rtol=0, atol=1e-15
    )


def test_identical_sequences_identical_embeddings():
    params = make_params()
    a = encode_query(tokens_of([1, 2, 3]), params).data
    b = encode_query(tokens_of([1, 2, 3]), params).data
    np.testing.assert_array_equal(a, b)


def test_prefix_rows_do_not_depend_on_padding_length():
    params = make_params()
    short = encode_query(tokens_of([1, 2, 3], k_max=4), params).data
    long = encode_query(tokens_of([1, 2, 3], k_max=6), params).data
    np.testing.assert_array_equal(short[:3], long[:3])


def test_padding_never_reaches_pooled_output():
    # The recurrence also fills suffix positions (pad tokens), but the token
    # mask excludes them from every downstream pooling, so the padded length
    # must not change what the model actually consumes.
    params = make_params()
    ids = [1, 2, 3]
    pooled_short = masked_mean(
        encode_query(tokens_of(ids, k_max=4), params),
        np.array([[True, True, True, False]]),
    ).data
    pooled_long = masked_mean(
        encode_query(tokens_of(ids, k_max=6), params),
        np.array([[True, True, True, False, False, False]]),
    ).data
    np.testing.assert_array_equal(pooled_short, pooled_long)


def test_recurrence_follows_hand_rollout():
    params = make_params(seed=5)
    ids = [2, 7, 1]
    out = encode_query(tokens_of(ids), params).data

    prev = np.zeros(CFG.d_q)
    for k, tok in enumerate(ids):
        prev = np.tanh(params.rec_w.data @ prev + params.embed.data[tok])
        np.testing.assert_allclose(out[k], prev, rtol=0, atol=1e-15)


def test_out_of_vocabulary_rejected():
    params = make_params()
    with pytest.raises(ad.DimensionError):
        encode_query(tokens_of([CFG.vocab_size]), params)


def test_query_gradients_reach_only_embedding_rows_in_the_real_prefix():
    # Pool through the token mask (as the model does): gradient lands on the
    # used vocabulary row and on nothing else — not even the pad row that the
    # suffix rollout reads, because masked rows never reach the loss.
    params = make_params()
    tokens = tokens_of([3, 3])
    pooled = masked_mean(encode_query(tokens, params), tokens.token_mask)
    ad.backward(sum_all(pooled))
    grad = params.embed.grad
    assert grad is not None
    assert np.abs(grad[3]).sum() > 0
    untouched = [i for i in range(CFG.vocab_size) if i != 3]
    np.testing.assert_array_equal(grad[untouched], 0.0)


# ---------------------------------------------------------------- pooling


def test_masked_mean_hand_case():
    rows = ad.Tensor(np.array([[2.0, 4.0], [6.0, 8.0], [100.0, 100.0]]))
    mask = np.array([[True, True, False]])
    np.testing.assert_allclose(
        masked_mean(rows, mask).data, [[4.0, 6.0]], rtol=0, atol=1e-15
    )


def test_masked_mean_all_masked_rejected():
    with pytest.raises(ad.InvalidMaskError):
        masked_mean(ad.Tensor(np.ones((4, 2))),
                    np.array([[True, True], [False, False]]))
