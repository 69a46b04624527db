"""Tensor engine: op semantics, backward pass, finite differences, Adam."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers_ops
import helpers_oracles
from helpers_ops import (
    OP_SCENARIOS, add_row, add_scalar, grad_check, logsumexp_rows, mask_rows,
    mean_all, reshape, run_op_trials, softmax, sub, sum_all, take_per_row, tanh,
)
from mibvqa import autodiff as ad
from mibvqa.autodiff import (
    Adam,
    DimensionError,
    InvalidMaskError,
    MissingGradientError,
    NonFiniteGradientError,
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


@pytest.mark.parametrize("constant_side", [0, 1])
def test_matmul_vjp_skips_the_constant_operand(constant_side):
    rng = np.random.default_rng(8)
    a_data, b_data = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    g = rng.standard_normal((3, 2))
    operands = [Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)]
    both = ad.matmul(*operands)._vjp(g)
    operands[constant_side] = Tensor(operands[constant_side].data)
    contribs = ad.matmul(*operands)._vjp(g)
    assert contribs[constant_side] is None
    np.testing.assert_array_equal(contribs[1 - constant_side], both[1 - constant_side])


def test_linear_equals_add_row_of_matmul_bit_for_bit():
    rng = np.random.default_rng(9)
    x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
               for s in ((5, 4), (4, 3), (3,)))
    fused = ad.linear(x, w, b)
    composed = add_row(ad.matmul(x, w), b)
    np.testing.assert_array_equal(fused.data, composed.data)
    readout = Tensor(rng.standard_normal((5, 3)))
    grads = []
    for out in (fused, composed):
        for p in (x, w, b):
            p.grad = None
        ad.backward(sum_all(ad.hadamard(out, readout)))
        grads.append([p.grad for p in (x, w, b)])
    for fused_grad, composed_grad in zip(*grads):
        np.testing.assert_array_equal(fused_grad, composed_grad)


def test_linear_shape_errors_name_the_shapes():
    with pytest.raises(DimensionError) as info:
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))),
                  Tensor(np.zeros(5)))
    assert "(3, 4)" in str(info.value) and "(5,)" in str(info.value)
    with pytest.raises(RankError):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))),
                  Tensor(np.zeros((1, 4))))


def test_linear_vjp_skips_a_constant_input():
    rng = np.random.default_rng(10)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    x = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 2))
    both = ad.linear(Tensor(x, requires_grad=True), w, b)._vjp(g)
    contribs = ad.linear(Tensor(x), w, b)._vjp(g)
    assert contribs[0] is None
    for got, want in zip(contribs[1:], both[1:]):
        np.testing.assert_array_equal(got, want)


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
@settings(max_examples=50)
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
    p = Tensor(np.array([-3.0, -1.0, -0.5]), requires_grad=True)
    out = ad.relu(p)
    np.testing.assert_array_equal(out.data, np.zeros(3))
    ad.backward(sum_all(out))
    np.testing.assert_array_equal(p.grad, np.zeros(3))


# ---------------------------------------------------------------- softmax


def test_softmax_symmetry_constant_input():
    for c in (0.0, -7.5, 3.25):
        out = softmax(Tensor(np.array([[c, c]])))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])


def test_softmax_hand_value():
    out = softmax(Tensor(np.array([[0.0, math.log(3.0)]])))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor(np.array([[1000.0, 1000.0]])))
    np.testing.assert_array_equal(out.data, [[0.5, 0.5]])
    assert np.isfinite(out.data).all()


def test_softmax_masked_entries_exact_zero():
    mask = np.array([[True, False, True, False]])
    out = softmax(Tensor(np.array([[1.0, 99.0, 2.0, 99.0]])), mask)
    assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_masked_entries_zero_gradient():
    p = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
    mask = np.array([[True, False, True]])
    w = Tensor(np.array([[0.3, 0.9, 0.4]]))
    ad.backward(sum_all(ad.hadamard(softmax(p, mask), w)))
    assert p.grad[0, 1] == 0.0


def test_softmax_all_masked_rejected():
    # one fully masked row is enough, even when the other rows are fine
    with pytest.raises(InvalidMaskError):
        softmax(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                   np.array([[True, False], [False, False]]))


@given(finite_arrays)
@settings(max_examples=50)
def test_softmax_is_distribution(values):
    out = softmax(Tensor(np.asarray([values]))).data
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out >= 0.0).all()


# ---------------------------------------------------------------- misc ops


def test_logsumexp_rows_matches_numpy():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 5)) * 3
    out = logsumexp_rows(Tensor(m)).data
    expected = np.log(np.exp(m - m.max(axis=1, keepdims=True)).sum(axis=1)) + m.max(
        axis=1
    )
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_logsumexp_rows_stable_at_large_values():
    out = logsumexp_rows(Tensor(np.full((2, 3), 1000.0))).data
    np.testing.assert_allclose(out, 1000.0 + math.log(3.0), rtol=1e-15)


def test_clamp_values():
    out = ad.clamp(Tensor(np.array([-20.0, 0.5, 20.0])), -10.0, 10.0)
    np.testing.assert_array_equal(out.data, [-10.0, 0.5, 10.0])


def test_clamp_gradient_zero_outside_range():
    p = Tensor(np.array([-20.0, 0.5, 20.0]), requires_grad=True)
    ad.backward(sum_all(ad.clamp(p, -10.0, 10.0)))
    np.testing.assert_array_equal(p.grad, [0.0, 1.0, 0.0])


def test_mask_rows_zeroes_dropped_rows():
    m = Tensor(np.ones((3, 2)))
    keep = np.array([True, False, True])
    out = mask_rows(m, keep)
    np.testing.assert_array_equal(out.data, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


def test_tanh_recurrence_matches_a_plain_tanh_loop():
    rng = np.random.default_rng(6)
    table = rng.uniform(-1.0, 1.0, (6, 4))
    w = rng.uniform(-0.5, 0.5, (4, 4))
    ids = np.array([[1, 4, 1], [0, 4, 5]])
    out = ad.tanh_recurrence(Tensor(table), Tensor(w), ids).data
    assert out.shape == (6, 4)
    for b in range(2):
        q = np.zeros(4)
        for j in range(3):
            q = np.tanh(w @ q + table[ids[b, j]])
            np.testing.assert_allclose(out[3 * b + j], q, rtol=0, atol=1e-15)


def test_tanh_recurrence_rejects_out_of_range_ids():
    with pytest.raises(DimensionError):
        ad.tanh_recurrence(Tensor(np.zeros((3, 2))), Tensor(np.eye(2)),
                           np.array([[0, 3]]))


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
    out = take_per_row(m, np.array([0, 2, 3]))
    np.testing.assert_array_equal(out.data, [0.0, 6.0, 11.0])


def test_reshape_requires_matching_size():
    with pytest.raises(DimensionError):
        reshape(Tensor(np.zeros((2, 3))), (4, 2))


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    p = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    ad.backward(sum_all(p))
    np.testing.assert_array_equal(p.grad, np.ones((2, 2)))


def test_backward_sum_of_square_gives_two_x():
    x = np.array([1.5, -2.0, 0.25])
    p = Tensor(x, requires_grad=True)
    ad.backward(sum_all(ad.hadamard(p, p)))
    np.testing.assert_allclose(p.grad, 2 * x, rtol=1e-15)


def test_backward_accumulates_across_reuse():
    # y = sum(x*x) + sum(x): both branches read x, grads must add to 2x + 1.
    x = np.array([0.5, -1.25, 2.0])
    p = Tensor(x, requires_grad=True)
    loss = ad.add(sum_all(ad.hadamard(p, p)), sum_all(p))
    ad.backward(loss)
    np.testing.assert_allclose(p.grad, 2 * x + 1.0, rtol=1e-15)


def test_backward_requires_scalar_loss():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RankError):
        ad.backward(ad.relu(p))


def test_backward_writes_grad_on_leaves_only_and_accumulates():
    a = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    b = Tensor(np.array([[0.25, 1.5], [-1.0, 0.75]]), requires_grad=True)
    prod = ad.matmul(a, b)
    hidden = tanh(ad.add(prod, b))
    loss = sum_all(hidden)
    ad.backward(loss)
    assert prod.grad is None and hidden.grad is None and loss.grad is None
    first_a, first_b = a.grad.copy(), b.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(a.grad, first_a + first_a)
    np.testing.assert_array_equal(b.grad, first_b + first_b)


def test_backward_deep_chain_no_recursion_limit():
    # 5000 sequential ops: an iterative traversal must handle this easily.
    p = Tensor(np.array(1.0), requires_grad=True)
    node = p
    for _ in range(5000):
        node = add_scalar(node, 1e-6)
    ad.backward(sum_all(node))
    assert p.grad == pytest.approx(1.0)


# ---------------------------------------------------------------- grad_check


def test_grad_check_linear_is_nearly_exact():
    rng = np.random.default_rng(1)
    p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def f(params):
        return sum_all(params[0])

    assert grad_check(f, [p]) < 1e-10


def test_grad_check_softmax_cross_entropy_toy():
    rng = np.random.default_rng(2)
    w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 4)))
    labels = np.array([0, 2])

    def f(params):
        logits = ad.matmul(x, params[0])
        picked = take_per_row(logits, labels)
        return mean_all(sub(logsumexp_rows(logits), picked))

    assert grad_check(f, [w]) < 1e-6


def test_every_node_recording_function_has_a_finite_difference_scenario():
    # acceptance 1 checks "every differentiable op" through OP_SCENARIOS, so
    # an op that records a node without a scenario would go unchecked
    for module in (ad, helpers_ops):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and name != "_node" and "_node" in fn.__code__.co_names:
                assert name in OP_SCENARIOS, f"{module.__name__}.{name} has no scenario"


def test_grad_check_per_op_spot_sweep():
    # The full 100-trial sweep runs in the acceptance gate; this is the fast
    # development loop over every registered primitive.
    for name in OP_SCENARIOS:
        worst = run_op_trials(name, n_trials=10, seed=123)
        assert worst < 1e-6, f"{name}: worst relative error {worst:.3e}"


# ------------------------------------------------- in-place kernels vs oracles


def _assert_same_bits(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(b=st.integers(1, 40), n=st.integers(1, 12),
       widths=st.tuples(st.integers(1, 33), st.integers(1, 33), st.integers(1, 33)),
       seed=st.integers(0, 2**32 - 1), skl_constant=st.tuples(*[st.booleans()] * 4),
       zero_prior=st.booleans())
@settings(max_examples=60)
def test_in_place_kernels_match_their_allocating_forms_bit_for_bit(
        b, n, widths, seed, skl_constant, zero_prior):
    rng = np.random.default_rng(seed)
    d, d_s, d_ff = widths
    # a random mask with at least one kept entry per row
    keep = rng.random((b, n)) < 0.5
    keep[np.arange(b), rng.integers(n, size=b)] = True

    def leaf(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)

    def check(node, value, vjp, g):
        _assert_same_bits(node.data, value)
        for got, want in zip(node._vjp(g), vjp(g), strict=True):
            _assert_same_bits(got, want)

    # the recurrence over a table of d_s rows
    table, w = leaf(d_s, d), leaf(d, d)
    ids = rng.integers(d_s, size=(b, n))
    check(ad.tanh_recurrence(table, w, ids),
          *helpers_oracles.allocating_tanh_recurrence(table.data, w.data, ids),
          rng.standard_normal((b * n, d)))

    rows, scored, score_w, head = leaf(b * n, d), leaf(b * n, d_s), leaf(d_s, d_ff), \
        leaf(d_ff, 1)
    pooled, weights = ad.attention_pool(rows, scored, score_w, head, keep)
    value, want_weights, vjp = helpers_oracles.allocating_attention_pool(
        rows.data, scored.data, score_w.data, head.data, keep)
    _assert_same_bits(weights, want_weights)
    check(pooled, value, vjp, rng.standard_normal((b, d)))

    x, lin_w, lin_b = leaf(b * n, d_s), leaf(d_s, d), leaf(d)
    check(ad.linear(x, lin_w, lin_b),
          *helpers_oracles.allocating_linear(x.data, lin_w.data, lin_b.data),
          rng.standard_normal((b * n, d)))

    # as info_loss passes it, or four operands each constant or not
    if zero_prior:
        prior = Tensor(np.zeros((b, d)))
        operands = [leaf(b, d), leaf(b, d), prior, prior]
    else:
        operands = [Tensor(rng.uniform(-1.0, 1.0, (b, d)), requires_grad=not constant)
                    for constant in skl_constant]
    skl = ad.gaussian_skl(*operands)
    value, vjp = helpers_oracles.allocating_gaussian_skl(*(t.data for t in operands))
    _assert_same_bits(skl.data, value)
    if skl._vjp is None:
        assert not any(t.requires_grad for t in operands)
        return
    g = np.asarray(rng.standard_normal())
    for t, got, want in zip(operands, skl._vjp(g), vjp(g), strict=True):
        if t.requires_grad:
            _assert_same_bits(got, want)
        else:
            assert got is None


# ---------------------------------------------------------------- Adam


def test_adam_zero_gradient_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    Adam({"x": p}, lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_matches_hand_formulas():
    # t=1: m_hat = g, v_hat = g^2, step = lr * g / (sqrt(g^2) + eps).
    p = Tensor(np.array(1.0), requires_grad=True)
    p.grad = np.array(1.0)
    Adam({"x": p}, lr=1e-5).step()
    expected = 1.0 - 1e-5 * (1.0 / (1.0 + 1e-8))
    assert p.data == pytest.approx(expected, abs=1e-18)


def test_adam_missing_gradient_names_parameter():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(MissingGradientError) as info:
        Adam({"enc.embed": p}, lr=0.1).step()
    assert "enc.embed" in str(info.value)


def test_adam_zero_grad_clears():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([5.0])
    opt = Adam({"x": p}, lr=0.1)
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

    p = Tensor(np.array(2.0), requires_grad=True)
    opt = Adam({"x": p}, lr=lr)
    for g in (g1, g2):
        p.grad = np.array(g)
        opt.step()
    assert p.data == pytest.approx(theta, rel=1e-15)


def _per_parameter_adam(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam loop the flat optimizer replaced: the oracle."""
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_flat_adam_matches_the_per_parameter_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    shapes = [(3, 4), (), (5,), (2, 2)]
    start = [rng.standard_normal(s) for s in shapes]
    grads_per_step = [[rng.standard_normal(s) for s in shapes] for _ in range(3)]
    flat = [Tensor(x.copy(), requires_grad=True) for x in start]
    loop = [Tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam({f"p{i}": p for i, p in enumerate(flat)}, lr=1e-2)
    for grads in grads_per_step:
        for p, g in zip(flat, grads):
            p.grad = g
        opt.step()
    _per_parameter_adam(loop, grads_per_step, lr=1e-2)
    assert opt.t == 3
    for p, q in zip(flat, loop):
        assert p.data.shape == q.data.shape
        np.testing.assert_array_equal(p.data, q.data)


def test_adam_missing_or_misshapen_gradient_changes_no_state():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array(3.0), requires_grad=True)
    a.grad = np.array([0.5, -0.5])
    opt = Adam({"a": a, "b": b}, lr=0.1)
    with pytest.raises(MissingGradientError):
        opt.step()
    b.grad = np.array([1.0])  # wrong shape: rejected before any change too
    with pytest.raises(DimensionError):
        opt.step()
    assert opt.t == 0
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    assert b.data == 3.0
    b.grad = np.array(1.0)
    opt.step()  # the first real step still uses t = 1
    np.testing.assert_allclose(a.data, [1.0 - 0.1, 2.0 + 0.1], rtol=1e-7)


def _allocating_adam_step(params, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The flat step before the in-place rewrite, one new array per
    operation: the oracle of the in-place step. Returns the new m and v."""
    g = np.concatenate([p.grad.ravel() for p in params])
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    update = lr * m_hat / (np.sqrt(v_hat) + eps)
    start = 0
    for p in params:
        p.data -= update[start:start + p.data.size].reshape(p.shape)
        start += p.data.size
    return m, v


def test_in_place_adam_matches_the_allocating_step_bit_for_bit_over_1000_steps():
    rng = np.random.default_rng(11)
    shapes = [(6, 5), (), (7,), (3, 3)]
    start = [rng.standard_normal(s) for s in shapes]
    in_place = [Tensor(x.copy(), requires_grad=True) for x in start]
    oracle = [Tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam({f"p{i}": p for i, p in enumerate(in_place)}, lr=3e-3)
    m = v = np.zeros(sum(x.size for x in start))
    for t in range(1, 1001):
        # gradients of widely spread scale, so v covers many binades
        for p, q in zip(in_place, oracle):
            p.grad = rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6, 3)
            q.grad = p.grad.copy()
        opt.step()
        m, v = _allocating_adam_step(oracle, m, v, t, lr=3e-3)
    assert opt.t == 1000
    np.testing.assert_array_equal(opt._m, m)
    np.testing.assert_array_equal(opt._v, v)
    for p, q in zip(in_place, oracle):
        np.testing.assert_array_equal(p.data, q.data)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_adam_non_finite_gradient_names_the_parameter_and_changes_no_state(bad):
    a, b, c = (Tensor(v, requires_grad=True)
               for v in (np.array([1.0, 2.0]), np.ones((2, 2)), np.array(3.0)))
    opt = Adam({"a": a, "b": b, "c": c}, lr=0.1)
    a.grad, b.grad, c.grad = np.array([0.5, -0.5]), np.ones((2, 2)), np.array(2.0)
    opt.step()
    before = ([p.data.copy() for p in (a, b, c)], opt._m.copy(), opt._v.copy())
    b.grad = np.array([[0.25, 1.0], [bad, -1.0]])
    c.grad = np.array(math.nan)  # a later parameter: the first one is named
    with pytest.raises(NonFiniteGradientError) as info:
        opt.step()
    assert info.value.name == "b" and "'b'" in str(info.value)
    assert info.value.value == bad or (math.isnan(bad) and math.isnan(info.value.value))
    assert opt.t == 1
    for p, data in zip((a, b, c), before[0]):
        np.testing.assert_array_equal(p.data, data)
    np.testing.assert_array_equal(opt._m, before[1])
    np.testing.assert_array_equal(opt._v, before[2])


def _flat_offset(view: np.ndarray, flat: np.ndarray) -> int:
    """Index into flat of view's first element."""
    start = view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
    return start // flat.itemsize


def _reuse_loss(a: Tensor, b: Tensor) -> Tensor:
    """A scalar graph that reads a three times and b twice."""
    prod = ad.matmul(a, b)
    return ad.add(sum_all(tanh(ad.add(prod, b))), sum_all(ad.hadamard(a, a)))


def test_adam_binds_data_and_backward_grads_to_two_flat_buffers_in_name_order():
    rng = np.random.default_rng(5)
    shapes = {"w": (3, 4), "s": (), "v": (5,), "m": (2, 2)}
    start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    params = {name: Tensor(x.copy(), requires_grad=True) for name, x in start.items()}
    opt = Adam(params, lr=1e-2)
    loss = sum_all(ad.hadamard(params["w"], params["w"]))
    for name in ("s", "v", "m"):
        loss = ad.add(loss, sum_all(ad.hadamard(params[name], params[name])))
    ad.backward(loss)
    offset = 0
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, start[name])
        for view, flat in ((p.data, opt._p), (p.grad, opt._g)):
            assert view.shape == shapes[name]
            assert np.shares_memory(view, flat)
            assert _flat_offset(view, flat) == offset
        np.testing.assert_array_equal(p.grad, 2.0 * start[name])
        offset += p.data.size
    assert offset == opt._p.size == opt._g.size
    grads = [p.grad for p in params.values()]
    opt.step()
    for p, grad in zip(params.values(), grads):
        assert np.shares_memory(p.data, opt._p) and p.grad is grad
    assert not np.array_equal(params["w"].data, start["w"])


def test_owned_leaf_gradients_match_the_unowned_path_bit_for_bit():
    # Tensors no Adam owns take the allocating path, the oracle here.
    rng = np.random.default_rng(6)
    start = [rng.standard_normal((2, 2)) for _ in range(2)]
    owned = [Tensor(x.copy(), requires_grad=True) for x in start]
    plain = [Tensor(x.copy(), requires_grad=True) for x in start]
    opt = Adam({"a": owned[0], "b": owned[1]}, lr=0.1)

    def check():
        for p, q in zip(owned, plain):
            np.testing.assert_array_equal(p.grad, q.grad)

    for tensors in (owned, plain):
        ad.backward(_reuse_loss(*tensors))   # a leaf reached several times
    check()
    for tensors in (owned, plain):
        ad.backward(_reuse_loss(*tensors))   # no zero_grad: accumulates
    check()
    hand = rng.standard_normal((2, 2))
    opt.zero_grad()
    owned[0].grad, plain[0].grad = hand.copy(), hand.copy()
    plain[1].grad = None
    for tensors in (owned, plain):
        ad.backward(_reuse_loss(*tensors))   # added to a gradient set by hand
    check()
    assert all(np.shares_memory(p.grad, opt._g) for p in owned)


@pytest.mark.parametrize("contribution", [np.ones(()), np.ones(3)],
                         ids=["scalar", "three"])
def test_wrong_size_contribution_into_an_owned_leaf_raises(contribution):
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    out = ad._node(np.asarray(0.0), (p,), lambda g: (contribution,))
    with pytest.raises(ValueError):
        ad.backward(out)
    assert p.grad is None and opt.t == 0


def test_owned_leaf_the_walk_misses_makes_step_name_it():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array(3.0), requires_grad=True)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    ad.backward(ad.add(sum_all(a), sum_all(b)))
    opt.step()
    before = (a.data.copy(), b.data.copy())
    opt.zero_grad()
    ad.backward(sum_all(a))   # b's slice still holds the last gradient
    assert b.grad is None
    with pytest.raises(MissingGradientError) as info:
        opt.step()
    assert "'b'" in str(info.value)
    assert opt.t == 1
    np.testing.assert_array_equal(a.data, before[0])
    assert b.data == before[1]


# ---------------------------------------------------------------- no_grad


def test_no_grad_records_no_graph_and_restores_the_previous_state():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            inner = ad.relu(p)
        outer = ad.relu(p)
    assert not inner.requires_grad and inner._parents == ()
    assert not outer.requires_grad
    assert ad.relu(p).requires_grad
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside no_grad")
    assert ad.relu(p).requires_grad


# ---------------------------------------------------------------- init helper


def test_uniform_init_bound_scales_with_fan_in():
    rng = np.random.default_rng(3)
    w = ad.uniform_init(rng, (200, 50), fan_in=100, scale=2.0)
    bound = 2.0 / math.sqrt(100)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound  # actually fills the range
