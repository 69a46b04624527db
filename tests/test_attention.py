"""Attention blocks vs. independent dense-math oracles, plus edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from helpers_oracles import oracle_image_attention, oracle_query_attention
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
    params.qstar_proj_w.tensor.data = np.zeros((D_Q, D_P + 1))
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
        return ad.sum_all(ad.hadamard(h_res.pooled, readout))

    # Mixed absolute/relative comparison: relu-gated score weights carry
    # analytic gradients down to ~1e-9 here, where a purely relative metric
    # only measures the finite-difference noise floor.
    loss = f(params.parameters())
    for p in params.parameters():
        p.grad = None
    loss.backward()
    eps = 1e-5
    for p in params.parameters():
        analytic = p.grad.copy()
        flat = p.tensor.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = f(params.parameters()).item()
            flat[i] = keep - eps
            down = f(params.parameters()).item()
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
            a = analytic.ravel()[i]
            gap = abs(a - numeric)
            assert gap <= 1e-6 * max(1.0, abs(a), abs(numeric)), (
                f"{p.name}[{i}]: analytic {a:.3e} vs numeric {numeric:.3e}"
            )
