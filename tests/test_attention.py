"""Attention blocks vs. independent dense-math oracles, plus edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from helpers_ops import sum_all
from helpers_oracles import (
    composed_attention_pool, oracle_image_attention, oracle_query_attention,
)
from mibvqa import autodiff as ad
from mibvqa.attention import AttentionParams, image_attention, query_attention
from mibvqa.autodiff import DimensionError, InvalidMaskError, Tensor

D_Q, D_H, D_FF, D_P = 4, 5, 3, 6


def make_params(seed: int = 0) -> AttentionParams:
    return AttentionParams(D_Q, D_H, d_ff=D_FF, d_p=D_P,
                           rng=np.random.default_rng(seed))


def query_one(q, mask, params):
    """query_attention on a batch of one; weights [n] and pooled [d] of it."""
    res = query_attention(Tensor(q), np.asarray(mask)[None], params)
    return res.weights.data[0], res.pooled.data[0]


def image_one(h, q_star, mask, params):
    """image_attention on a batch of one; weights [n] and pooled [d] of it."""
    res = image_attention(Tensor(h), Tensor(np.asarray(q_star)[None]),
                          np.asarray(mask)[None], params)
    return res.weights.data[0], res.pooled.data[0]


def random_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[int(rng.integers(n))] = True
    return mask


# ---------------------------------------------------------------- query


def test_query_singleton_weight_is_exactly_one():
    params = make_params()
    q = np.random.default_rng(1).standard_normal((1, D_Q))
    weights, pooled = query_one(q, [True], params)
    assert weights[0] == 1.0
    np.testing.assert_array_equal(pooled, q[0])


def test_query_identical_rows_uniform_weights():
    params = make_params()
    row = np.random.default_rng(2).standard_normal(D_Q)
    q = np.tile(row, (4, 1))
    w, pooled = query_one(q, np.ones(4, dtype=bool), params)
    assert w[0] == w[1] == w[2] == w[3]  # bitwise-equal by symmetry
    assert abs(w.sum() - 1.0) < 1e-15
    # n = 4 is a power of two, so the convex combination reproduces the row
    # without rounding.
    np.testing.assert_array_equal(pooled, row)


def test_query_matches_oracle_on_random_instances():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(1, 7))
        params = make_params(int(rng.integers(1 << 30)))
        q = rng.standard_normal((k, D_Q))
        mask = random_mask(rng, k)
        weights, pooled_out = query_one(q, mask, params)
        alpha, pooled = oracle_query_attention(
            q, mask, params.query_w.data, params.query_score.data
        )
        worst = max(
            worst,
            np.abs(weights - alpha).max(),
            np.abs(pooled_out - pooled).max(),
        )
        assert abs(weights.sum() - 1.0) < 1e-9
    assert worst < 1e-10


def test_query_masked_weights_exactly_zero():
    params = make_params()
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, D_Q))
    mask = np.array([True, False, True, False, True])
    weights, _ = query_one(q, mask, params)
    np.testing.assert_array_equal(weights[~mask], 0.0)


def test_query_all_masked_rejected():
    params = make_params()
    with pytest.raises(InvalidMaskError):
        query_one(np.ones((3, D_Q)), np.zeros(3, dtype=bool), params)


# ---------------------------------------------------------------- image


def test_image_singleton_pooled_is_the_object():
    params = make_params()
    rng = np.random.default_rng(5)
    h = rng.standard_normal((1, D_H))
    q_star = rng.standard_normal(D_Q)
    weights, pooled = image_one(h, q_star, [True], params)
    assert weights[0] == 1.0
    np.testing.assert_array_equal(pooled, h[0])


def test_image_identical_objects_uniform_weights():
    params = make_params()
    rng = np.random.default_rng(6)
    row = rng.standard_normal(D_H)
    h = np.tile(row, (4, 1))
    q_star = rng.standard_normal(D_Q)
    w, pooled = image_one(h, q_star, np.ones(4, dtype=bool), params)
    assert w[0] == w[1] == w[2] == w[3]
    np.testing.assert_array_equal(pooled, row)


def test_image_matches_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        t = int(rng.integers(1, 7))
        params = make_params(int(rng.integers(1 << 30)))
        h = rng.standard_normal((t, D_H))
        q_star = rng.standard_normal(D_Q)
        mask = random_mask(rng, t)
        weights, pooled_out = image_one(h, q_star, mask, params)
        alpha, pooled = oracle_image_attention(
            h, q_star, mask,
            params.img_proj_w.data, params.qstar_proj_w.data,
            params.img_score_w.data, params.img_score.data,
        )
        worst = max(
            worst,
            np.abs(weights - alpha).max(),
            np.abs(pooled_out - pooled).max(),
        )
        assert abs(weights.sum() - 1.0) < 1e-9
    assert worst < 1e-10


def test_image_all_masked_rejected():
    params = make_params()
    with pytest.raises(InvalidMaskError):
        image_one(np.ones((2, D_H)), np.ones(D_Q), np.zeros(2, dtype=bool), params)


def test_image_projection_width_mismatch_rejected():
    # Corrupt one projection so the two d_p widths disagree.
    params = make_params()
    params.qstar_proj_w.data = np.zeros((D_Q, D_P + 1))
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionError):
        image_one(rng.standard_normal((3, D_H)), rng.standard_normal(D_Q),
                  np.ones(3, dtype=bool), params)


# ---------------------------------------------------------------- gradients


def test_attention_paths_pass_finite_differences():
    rng = np.random.default_rng(9)
    params = make_params(11)
    q = Tensor(rng.standard_normal((4, D_Q)))
    h = Tensor(rng.standard_normal((5, D_H)))
    q_mask = np.array([[True, True, True, False]])
    h_mask = np.array([[True, True, False, True, True]])
    readout = Tensor(rng.uniform(0.5, 1.5, (1, D_H)))

    def f(ps):
        q_res = query_attention(q, q_mask, params)
        h_res = image_attention(h, q_res.pooled, h_mask, params)
        return sum_all(ad.hadamard(h_res.pooled, readout))

    # Mixed absolute/relative comparison: relu-gated score weights carry
    # analytic gradients down to ~1e-9 here, where a purely relative metric
    # only measures the finite-difference noise floor.
    weights = vars(params)
    loss = f(weights)
    for p in weights.values():
        p.grad = None
    ad.backward(loss)
    eps = 1e-5
    for name, p in weights.items():
        analytic = p.grad.copy()
        flat = p.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = f(weights).item()
            flat[i] = keep - eps
            down = f(weights).item()
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            a = analytic.ravel()[i]
            gap = abs(a - numeric)
            assert gap <= 1e-6 * max(1.0, abs(a), abs(numeric)), (
                f"{name}[{i}]: analytic {a:.3e} vs numeric {numeric:.3e}"
            )


# ---------------------------------------------------------------- fused node


def _pool_value_and_grads(pool, params, mask, readout):
    """Pooled rows, weights and the gradient of every distinct parameter
    under a fixed linear readout of the pooled rows. params are rows,
    scored rows, score_w and score_head."""
    distinct = list({id(p): p for p in params}.values())
    for p in distinct:
        p.grad = None
    pooled, weights = pool(*params, mask)
    ad.backward(sum_all(ad.hadamard(pooled, readout)))
    weights = weights.data if isinstance(weights, Tensor) else weights
    return pooled.data, weights, [p.grad.copy() for p in distinct]


@pytest.mark.parametrize("shared", [True, False], ids=["self", "image"])
@pytest.mark.parametrize("b", [1, 2, 9])
def test_attention_pool_node_matches_the_composed_form(shared, b):
    rng = np.random.default_rng(30 + b)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        mask = np.stack([random_mask(rng, n) for _ in range(b)])
        mask[0] = False  # a row that keeps a single entry
        mask[0, int(rng.integers(n))] = True
        rows = Tensor(rng.standard_normal((b * n, D_H)), requires_grad=True)
        scored = rows if shared else Tensor(rng.standard_normal((b * n, D_P)), requires_grad=True)
        score_w = Tensor(rng.standard_normal((scored.shape[1], D_FF)), requires_grad=True)
        score_head = Tensor(rng.standard_normal((D_FF, 1)), requires_grad=True)
        readout = Tensor(rng.standard_normal((b, D_H)))
        params = (rows, scored, score_w, score_head)
        pooled, weights, grads = _pool_value_and_grads(
            ad.attention_pool, params, mask, readout)
        ref_pooled, ref_weights, ref_grads = _pool_value_and_grads(
            composed_attention_pool, params, mask, readout)
        np.testing.assert_array_equal(weights, ref_weights)
        np.testing.assert_allclose(pooled, ref_pooled, rtol=1e-12, atol=0)
        for grad, ref in zip(grads, ref_grads):
            assert np.abs(grad - ref).max() < 1e-10


def test_attention_pool_weights_are_graph_free_and_gradients_flow_through_pooled():
    params = make_params(4)
    rng = np.random.default_rng(5)
    mask = np.array([[True, True, False], [True, True, True]])
    q = Tensor(rng.standard_normal((6, D_Q)), requires_grad=True)
    res = query_attention(q, mask, params)
    assert not res.weights.requires_grad and res.weights._parents == ()
    assert res.pooled.requires_grad
    ad.backward(sum_all(res.pooled))
    assert np.abs(params.query_w.grad).sum() > 0
    assert np.abs(params.query_score.grad).sum() > 0


def test_attention_pool_rejects_bad_shapes_and_empty_rows():
    rows, w, head = Tensor(np.ones((6, 2))), Tensor(np.ones((2, 3))), Tensor(np.ones((3, 1)))
    with pytest.raises(InvalidMaskError, match="row 1"):
        ad.attention_pool(rows, rows, w, head, np.array([[True, False, True],
                                                         [False, False, False]]))
    with pytest.raises(DimensionError):  # mask of the wrong size
        ad.attention_pool(rows, rows, w, head, np.ones((2, 2), dtype=bool))
    with pytest.raises(DimensionError):  # score head of the wrong width
        ad.attention_pool(rows, rows, w, Tensor(np.ones((2, 1))),
                          np.ones((2, 3), dtype=bool))
    with pytest.raises(DimensionError):  # scored rows of the wrong width
        ad.attention_pool(rows, Tensor(np.ones((6, 3))), w, head,
                          np.ones((2, 3), dtype=bool))
