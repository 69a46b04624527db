"""Tensor engine: op semantics, backward pass, finite differences, Adam."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_ops import OP_SCENARIOS, run_op_trials
from mibvqa import autodiff as ad
from mibvqa.autodiff import (
    Adam,
    DimensionError,
    InvalidMaskError,
    MissingGradientError,
    Parameter,
    RankError,
    Tensor,
)

finite_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
)


# ---------------------------------------------------------------- tensors


def test_tensor_is_float64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64


def test_rank_above_two_rejected():
    with pytest.raises(RankError):
        Tensor(np.zeros((2, 2, 2)))


def test_item_requires_scalar():
    with pytest.raises(RankError):
        Tensor(np.zeros(3)).item()


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_product():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(
        ad.matmul(a, b).data, np.array([[19.0, 22.0], [43.0, 50.0]])
    )


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as info:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(info.value) and "(4, 2)" in str(info.value)


# ---------------------------------------------------------------- hadamard


def test_hadamard_identity():
    v = Tensor(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(
        ad.hadamard(v, Tensor(np.ones(3))).data, [1.0, 2.0, 3.0]
    )


def test_hadamard_hand_product():
    a = Tensor(np.array([1.0, 2.0, 3.0]))
    b = Tensor(np.array([4.0, 5.0, 6.0]))
    np.testing.assert_array_equal(ad.hadamard(a, b).data, [4.0, 10.0, 18.0])


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_hadamard_commutes(values):
    rng = np.random.default_rng(0)
    a = Tensor(np.asarray(values))
    b = Tensor(rng.standard_normal(len(values)))
    np.testing.assert_array_equal(ad.hadamard(a, b).data, ad.hadamard(b, a).data)


def test_hadamard_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.hadamard(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------- relu


def test_relu_definition():
    out = ad.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_dead_region_zero_output_and_gradient():
    p = Parameter("x", np.array([-3.0, -1.0, -0.5]))
    out = ad.relu(p.tensor)
    np.testing.assert_array_equal(out.data, np.zeros(3))
    ad.sum_all(out).backward()
    np.testing.assert_array_equal(p.grad, np.zeros(3))


# ---------------------------------------------------------------- softmax


def test_softmax_symmetry_constant_input():
    for c in (0.0, -7.5, 3.25):
        out = ad.softmax(Tensor(np.array([[c, c]])))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])


def test_softmax_hand_value():
    out = ad.softmax(Tensor(np.array([[0.0, math.log(3.0)]])))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = ad.softmax(Tensor(np.array([[1000.0, 1000.0]])))
    np.testing.assert_array_equal(out.data, [[0.5, 0.5]])
    assert np.isfinite(out.data).all()


def test_softmax_masked_entries_exact_zero():
    mask = np.array([[True, False, True, False]])
    out = ad.softmax(Tensor(np.array([[1.0, 99.0, 2.0, 99.0]])), mask)
    assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_masked_entries_zero_gradient():
    p = Parameter("x", np.array([[1.0, 5.0, 2.0]]))
    mask = np.array([[True, False, True]])
    w = Tensor(np.array([[0.3, 0.9, 0.4]]))
    ad.sum_all(ad.hadamard(ad.softmax(p.tensor, mask), w)).backward()
    assert p.grad[0, 1] == 0.0


def test_softmax_all_masked_rejected():
    # one fully masked row is enough, even when the other rows are fine
    with pytest.raises(InvalidMaskError):
        ad.softmax(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                   np.array([[True, False], [False, False]]))


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_softmax_is_distribution(values):
    out = ad.softmax(Tensor(np.asarray([values]))).data
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out >= 0.0).all()


# ---------------------------------------------------------------- misc ops


def test_logsumexp_rows_matches_numpy():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 5)) * 3
    out = ad.logsumexp_rows(Tensor(m)).data
    expected = np.log(np.exp(m - m.max(axis=1, keepdims=True)).sum(axis=1)) + m.max(
        axis=1
    )
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_logsumexp_rows_stable_at_large_values():
    out = ad.logsumexp_rows(Tensor(np.full((2, 3), 1000.0))).data
    np.testing.assert_allclose(out, 1000.0 + math.log(3.0), rtol=1e-15)


def test_clamp_values():
    out = ad.clamp(Tensor(np.array([-20.0, 0.5, 20.0])), -10.0, 10.0)
    np.testing.assert_array_equal(out.data, [-10.0, 0.5, 10.0])


def test_clamp_gradient_zero_outside_range():
    p = Parameter("x", np.array([-20.0, 0.5, 20.0]))
    ad.sum_all(ad.clamp(p.tensor, -10.0, 10.0)).backward()
    np.testing.assert_array_equal(p.grad, [0.0, 1.0, 0.0])


def test_mask_rows_zeroes_dropped_rows():
    m = Tensor(np.ones((3, 2)))
    keep = np.array([True, False, True])
    out = ad.mask_rows(m, keep)
    np.testing.assert_array_equal(out.data, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


def test_stack_steps_and_gather_rows_round_trip():
    # two steps of a batch of two: element b owns rows 2b and 2b + 1
    steps = [Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
             Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))]
    stacked = ad.stack_steps(steps)
    np.testing.assert_array_equal(
        stacked.data, [[1.0, 2.0], [5.0, 6.0], [3.0, 4.0], [7.0, 8.0]])
    np.testing.assert_array_equal(
        ad.gather_rows(stacked, np.array([2, 1])).data, [[3.0, 4.0], [5.0, 6.0]])


def test_gather_rows_repeated_index_gradients_add():
    p = Parameter("m", np.arange(6.0).reshape(3, 2))
    ad.sum_all(ad.gather_rows(p.tensor, np.array([1, 1, 2, 1]))).backward()
    np.testing.assert_array_equal(p.grad, [[0.0, 0.0], [3.0, 3.0], [1.0, 1.0]])


def test_segment_pool_and_segment_mul_hand_values():
    rows = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    weights = Tensor(np.array([[0.25, 0.75], [1.0, 0.0]]))
    np.testing.assert_array_equal(ad.segment_pool(weights, rows).data,
                                  [[2.5, 3.5], [5.0, 6.0]])
    v = Tensor(np.array([[2.0, 0.0], [-1.0, 1.0]]))
    np.testing.assert_array_equal(
        ad.segment_mul(rows, v).data,
        [[2.0, 0.0], [6.0, 0.0], [-5.0, 6.0], [-7.0, 8.0]])


def test_take_per_row_gathers_one_entry_per_row():
    m = Tensor(np.arange(12.0).reshape(3, 4))
    out = ad.take_per_row(m, np.array([0, 2, 3]))
    np.testing.assert_array_equal(out.data, [0.0, 6.0, 11.0])


def test_reshape_requires_matching_size():
    with pytest.raises(DimensionError):
        ad.reshape(Tensor(np.zeros((2, 3))), (4, 2))


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    p = Parameter("x", np.array([[1.0, -2.0], [0.5, 3.0]]))
    ad.sum_all(p.tensor).backward()
    np.testing.assert_array_equal(p.grad, np.ones((2, 2)))


def test_backward_sum_of_square_gives_two_x():
    x = np.array([1.5, -2.0, 0.25])
    p = Parameter("x", x)
    ad.sum_all(ad.hadamard(p.tensor, p.tensor)).backward()
    np.testing.assert_allclose(p.grad, 2 * x, rtol=1e-15)


def test_backward_accumulates_across_reuse():
    # y = sum(x*x) + sum(x): both branches read x, grads must add to 2x + 1.
    x = np.array([0.5, -1.25, 2.0])
    p = Parameter("x", x)
    loss = ad.add(ad.sum_all(ad.hadamard(p.tensor, p.tensor)), ad.sum_all(p.tensor))
    loss.backward()
    np.testing.assert_allclose(p.grad, 2 * x + 1.0, rtol=1e-15)


def test_backward_requires_scalar_loss():
    p = Parameter("x", np.ones(3))
    with pytest.raises(RankError):
        ad.relu(p.tensor).backward()


def test_backward_deep_chain_no_recursion_limit():
    # 5000 sequential ops: an iterative traversal must handle this easily.
    p = Parameter("x", np.array(1.0))
    node = p.tensor
    for _ in range(5000):
        node = ad.add_scalar(node, 1e-6)
    ad.sum_all(node).backward()
    assert p.grad == pytest.approx(1.0)


# ---------------------------------------------------------------- grad_check


def test_grad_check_linear_is_nearly_exact():
    rng = np.random.default_rng(1)
    p = Parameter("x", rng.standard_normal((3, 4)))

    def f(params):
        return ad.sum_all(params[0].tensor)

    assert ad.grad_check(f, [p]) < 1e-10


def test_grad_check_softmax_cross_entropy_toy():
    rng = np.random.default_rng(2)
    w = Parameter("w", rng.uniform(-1, 1, (4, 3)))
    x = Tensor(rng.uniform(-1, 1, (2, 4)))
    labels = np.array([0, 2])

    def f(params):
        logits = ad.matmul(x, params[0].tensor)
        picked = ad.take_per_row(logits, labels)
        return ad.mean_all(ad.sub(ad.logsumexp_rows(logits), picked))

    assert ad.grad_check(f, [w]) < 1e-6


def test_grad_check_per_op_spot_sweep():
    # The full 100-trial sweep runs in the acceptance gate; this is the fast
    # development loop over every registered primitive.
    for name in OP_SCENARIOS:
        worst = run_op_trials(name, n_trials=10, seed=123)
        assert worst < 1e-6, f"{name}: worst relative error {worst:.3e}"


# ---------------------------------------------------------------- Adam


def test_adam_zero_gradient_is_fixed_point():
    p = Parameter("x", np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    Adam([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_matches_hand_formulas():
    # t=1: m_hat = g, v_hat = g^2, step = lr * g / (sqrt(g^2) + eps).
    p = Parameter("x", np.array(1.0))
    p.grad = np.array(1.0)
    Adam([p], lr=1e-5).step()
    expected = 1.0 - 1e-5 * (1.0 / (1.0 + 1e-8))
    assert p.data == pytest.approx(expected, abs=1e-18)


def test_adam_default_hyperparameters():
    opt = Adam([Parameter("x", np.array(0.0))])
    assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == (1e-5, 0.9, 0.999, 1e-8)


def test_adam_missing_gradient_names_parameter():
    p = Parameter("enc.embed", np.zeros(2))
    with pytest.raises(MissingGradientError) as info:
        Adam([p]).step()
    assert "enc.embed" in str(info.value)


def test_adam_zero_grad_clears():
    p = Parameter("x", np.array([1.0]))
    p.grad = np.array([5.0])
    opt = Adam([p])
    opt.zero_grad()
    assert p.grad is None


def test_adam_two_steps_track_reference_implementation():
    # Independent reference maintained with plain numpy scalars.
    g1, g2, lr, b1, b2, eps = 0.3, -0.7, 1e-3, 0.9, 0.999, 1e-8
    theta, m, v = 2.0, 0.0, 0.0
    for t, g in ((1, g1), (2, g2)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)

    p = Parameter("x", np.array(2.0))
    opt = Adam([p], lr=lr)
    for g in (g1, g2):
        p.grad = np.array(g)
        opt.step()
    assert p.data == pytest.approx(theta, rel=1e-15)


# ---------------------------------------------------------------- init helper


def test_uniform_init_bound_scales_with_fan_in():
    rng = np.random.default_rng(3)
    w = ad.uniform_init(rng, (200, 50), fan_in=100, scale=2.0)
    bound = 2.0 / math.sqrt(100)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound  # actually fills the range
