"""Randomized finite-difference scenarios, one per differentiable primitive.

Shared between the unit suite (small trial counts, fast) and the acceptance
gate (100 trials per op).  Each scenario builds fresh random parameters and a
closure that recomputes a scalar loss from the parameters' *current* data, so
`grad_check` can perturb entries and re-evaluate.

The general ops that the model no longer calls (add_row, mask_rows,
transpose, diag_part, mean_all, add_scalar, tanh, sub, exp, softmax,
logsumexp_rows, reshape, take_per_row, sum_all, add, scale, matmul,
segment_mul, relu, clamp) and the fused nodes it no longer calls
(gaussian_skl, the symmetrized KL between two diagonal Gaussians, and
info_nce, the contrastive mutual-information estimate) live here, built on
the engine's node constructor: the per-sample reference and the composed
forms of the fused nodes in helpers_oracles are written with them, and
their scenarios keep them checked like every engine op. `grad_check`, the
finite-difference oracle itself, lives here too.

Inputs are drawn bounded away from the kinks and clip boundaries of piecewise
ops (relu at 0, clamp at its edges): central differences straddle such points
otherwise and report a spurious mismatch that says nothing about the VJPs.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Optional, Sequence

import numpy as np

from mibvqa import autodiff as ad

# ---------------------------------------------------------------------------
# general ops outside the engine


def add_scalar(a: ad.Tensor, c: float) -> ad.Tensor:
    return ad._node(a.data + c, (a,), lambda g: (g,))


def add(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    ad._same_shape(a, b, "add")
    return ad._node(a.data + b.data, (a, b), lambda g: (g, g))


def scale(a: ad.Tensor, c: float) -> ad.Tensor:
    """Multiply by a python scalar."""
    return ad._node(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ad.RankError(f"matmul needs rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ad.DimensionError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    # a constant operand gets no gradient, so none is formed for it
    return ad._node(a.data @ b.data, (a, b),
                    lambda g: (g @ b.data.T if a.requires_grad else None,
                               a.data.T @ g if b.requires_grad else None))


def segment_mul(m: ad.Tensor, v: ad.Tensor) -> ad.Tensor:
    """Multiply each row of segment b of m elementwise by row b of v.

    m is [B*n, d], read as B consecutive segments of n rows; v is [B, d].
    """
    if m.data.ndim != 2 or v.data.ndim != 2 or m.shape[1] != v.shape[1] \
            or v.shape[0] == 0 or m.shape[0] % v.shape[0]:
        raise ad.DimensionError(f"segment_mul: {m.shape} incompatible with {v.shape}")
    b, d = v.shape
    m3 = m.data.reshape(b, -1, d)
    out = (m3 * v.data[:, None, :]).reshape(m.shape)

    def vjp(g):
        g3 = g.reshape(m3.shape)
        return (g3 * v.data[:, None, :]).reshape(m.shape), (g3 * m3).sum(axis=1)

    return ad._node(out, (m, v), vjp)


def relu(x: ad.Tensor) -> ad.Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = np.maximum(x.data, 0.0)
    pos = x.data > 0.0
    return ad._node(out, (x,), lambda g: (g * pos,))


def clamp(x: ad.Tensor, lo: float, hi: float) -> ad.Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return ad._node(out, (x,), lambda g: (g * inside,))


def add_row(m: ad.Tensor, v: ad.Tensor) -> ad.Tensor:
    """Add vector v to every row of m (explicit row broadcast)."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ad.DimensionError(f"add_row: {m.shape} incompatible with {v.shape}")
    return ad._node(m.data + v.data[None, :], (m, v),
                    lambda g: (g, g.sum(axis=0)))


def mask_rows(m: ad.Tensor, keep: np.ndarray) -> ad.Tensor:
    """Zero out rows of m where keep is False. keep is a plain bool array."""
    keep = np.asarray(keep, dtype=bool)
    if m.data.ndim != 2 or keep.shape != (m.shape[0],):
        raise ad.DimensionError(
            f"mask_rows: mask {keep.shape} incompatible with {m.shape}")
    out = np.where(keep[:, None], m.data, 0.0)
    return ad._node(out, (m,), lambda g: (np.where(keep[:, None], g, 0.0),))


def sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    ad._same_shape(a, b, "sub")
    return ad._node(a.data - b.data, (a, b), lambda g: (g, -g))


def tanh(x: ad.Tensor) -> ad.Tensor:
    out = np.tanh(x.data)
    return ad._node(out, (x,), lambda g: (g * (1.0 - out * out),))


def exp(x: ad.Tensor) -> ad.Tensor:
    out = np.exp(x.data)
    return ad._node(out, (x,), lambda g: (g * out,))


def softmax(logits: ad.Tensor, mask: Optional[np.ndarray] = None) -> ad.Tensor:
    """Masked stable softmax over each row of a [B, n] matrix.

    `mask` is a plain bool array of the same shape marking participating
    entries (True = keep); excluded entries get weight exactly 0 and receive
    zero gradient. Excluded logits are replaced by -1e30 before the usual
    row-max subtraction, so their exponentials underflow to 0. Every row
    needs at least one kept entry.
    """
    if logits.data.ndim != 2:
        raise ad.RankError(f"softmax expects a [B, n] matrix, got {logits.shape}")
    if mask is None:
        keep = np.ones(logits.shape, dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != logits.shape:
            raise ad.DimensionError(f"softmax: mask {keep.shape} vs logits {logits.shape}")
    empty = ~keep.any(axis=1)
    if empty.any():
        raise ad.InvalidMaskError(
            f"softmax: every entry of row {int(np.argmax(empty))} is masked")
    shifted = np.where(keep, logits.data, -1e30)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return ad._node(out, (logits,), vjp)


def logsumexp_rows(m: ad.Tensor) -> ad.Tensor:
    """Row-wise log(sum(exp(.))) of a matrix, max-subtracted for stability."""
    if m.data.ndim != 2:
        raise ad.RankError(f"logsumexp_rows expects a matrix, got {m.shape}")
    mx = m.data.max(axis=1, keepdims=True)
    e = np.exp(m.data - mx)
    s = e.sum(axis=1, keepdims=True)
    out = (mx + np.log(s)).ravel()
    soft = e / s
    return ad._node(out, (m,), lambda g: (g[:, None] * soft,))


def reshape(x: ad.Tensor, shape: tuple) -> ad.Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ad.DimensionError(f"reshape: {x.shape} has wrong size for {shape}")
    old = x.shape
    return ad._node(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def take_per_row(m: ad.Tensor, idx: np.ndarray) -> ad.Tensor:
    """out[i] = m[i, idx[i]] for an int index per row."""
    idx = np.asarray(idx, dtype=np.int64)
    if m.data.ndim != 2 or idx.shape != (m.shape[0],):
        raise ad.DimensionError(f"take_per_row: indices {idx.shape} vs matrix {m.shape}")
    rows = np.arange(m.shape[0])

    def vjp(g):
        out = np.zeros_like(m.data)
        out[rows, idx] = g
        return (out,)

    return ad._node(m.data[rows, idx].copy(), (m,), vjp)


def diag_part(m: ad.Tensor) -> ad.Tensor:
    if m.data.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ad.DimensionError(f"diag_part expects a square matrix, got {m.shape}")

    def vjp(g):
        out = np.zeros_like(m.data)
        np.fill_diagonal(out, g)
        return (out,)

    return ad._node(np.diagonal(m.data).copy(), (m,), vjp)


def transpose(m: ad.Tensor) -> ad.Tensor:
    if m.data.ndim != 2:
        raise ad.RankError(f"transpose expects a matrix, got {m.shape}")
    return ad._node(m.data.T.copy(), (m,), lambda g: (g.T,))


def sum_all(x: ad.Tensor) -> ad.Tensor:
    shape = x.shape
    return ad._node(np.asarray(x.data.sum()), (x,),
                    lambda g: (np.full(shape, float(g)),))


def mean_all(x: ad.Tensor) -> ad.Tensor:
    n = x.data.size
    shape = x.shape
    return ad._node(np.asarray(x.data.mean()), (x,),
                    lambda g: (np.full(shape, float(g) / n),))


def gaussian_skl(mean_p: ad.Tensor, log_var_p: ad.Tensor, mean_q: ad.Tensor,
                 log_var_q: ad.Tensor) -> ad.Tensor:
    """Symmetrized KL between diagonal Gaussians p and q, summed over entries;
    one node.

    0.25 * sum(t_pq + t_qp), where t_pq = e^(lp-lq) - (lp-lq)
    + (mq-mp)^2 e^(-lq) - 1 is twice the elementwise KL(p || q).
    """
    for other in (log_var_p, mean_q, log_var_q):
        ad._same_shape(mean_p, other, "gaussian_skl")
    mp, lp, mq, lq = mean_p.data, log_var_p.data, mean_q.data, log_var_q.data
    # negation is exact, so one difference and one square serve both terms
    dmean, dlv = mq - mp, lp - lq
    sq = dmean * dmean
    inv_var_p, inv_var_q = np.exp(lp * -1.0), np.exp(lq * -1.0)
    e_pq, e_qp = np.exp(dlv), np.exp(-dlv)
    two_kl_pq = e_pq - dlv + sq * inv_var_q + -1.0
    two_kl_qp = e_qp + dlv + sq * inv_var_p + -1.0
    out = np.asarray((two_kl_pq + two_kl_qp).sum()) * 0.25

    def vjp(g):
        # as in matmul, a constant operand (such as a fixed prior) gets none
        c = 0.25 * float(g)
        d_mq = (2.0 * c) * dmean * (inv_var_q + inv_var_p)
        return (-d_mq if mean_p.requires_grad else None,
                c * (e_pq - e_qp - sq * inv_var_p) if log_var_p.requires_grad else None,
                d_mq if mean_q.requires_grad else None,
                c * (e_qp - e_pq - sq * inv_var_q) if log_var_q.requires_grad else None)

    return ad._node(out, (mean_p, log_var_p, mean_q, log_var_q), vjp)


def info_nce(z_q: ad.Tensor, z_h: ad.Tensor, critic: ad.Tensor) -> ad.Tensor:
    """InfoNCE estimate mean_i [s_ii - logsumexp_j s_ij] + ln B of the
    bilinear scores s = z_q @ critic @ z_h.T of a [B, d] latent pair; one
    node. A contrastive mutual-information lower bound, at most ln B."""
    if z_q.data.ndim != 2 or z_h.shape != z_q.shape \
            or critic.shape != (z_q.shape[1],) * 2:
        raise ad.DimensionError(f"info_nce: z_q {z_q.shape}, z_h {z_h.shape}, "
                                f"critic {critic.shape}")
    b = z_q.shape[0]
    proj = z_q.data @ critic.data
    scores = proj @ z_h.data.T.copy()   # contiguous, as the transpose node made
    mx = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - mx)
    s = e.sum(axis=1, keepdims=True)
    gap = np.diagonal(scores) - (mx + np.log(s)).ravel()
    out = np.asarray(gap.mean()) + math.log(b)

    def vjp(g):
        d_scores = (e / s) * (-float(g) / b)
        d_scores[np.diag_indices(b)] += float(g) / b
        d_proj = d_scores @ z_h.data
        return (d_proj @ critic.data.T, d_scores.T @ proj, z_q.data.T @ d_proj)

    return ad._node(out, (z_q, z_h, critic), vjp)


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(f: Callable[[Sequence[ad.Tensor]], ad.Tensor],
               params: Sequence[ad.Tensor], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must be deterministic for fixed parameters (freeze any sampling noise).
    Error per entry: |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    for p in params:
        p.grad = None
    ad.backward(f(params))
    analytic = [np.zeros(p.shape) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    with ad.no_grad():
        for p, ga in zip(params, analytic):
            flat = p.data.ravel()
            gflat = ga.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f(params).item()
                flat[i] = orig - eps
                lo = f(params).item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * eps)
                err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
                if err > worst:
                    worst = err
    return worst


# ---------------------------------------------------------------------------
# scenarios


def _signed(rng: np.random.Generator, shape, lo=0.2, hi=1.5) -> np.ndarray:
    """Magnitudes in [lo, hi] with random signs: smooth region for every op."""
    mag = rng.uniform(lo, hi, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


def _param(rng: np.random.Generator, shape) -> ad.Tensor:
    return ad.Tensor(_signed(rng, shape), requires_grad=True)


def _readout(rng: np.random.Generator, shape):
    """Fixed random positive weights collapsing any output to a scalar."""
    w = ad.Tensor(np.asarray(rng.uniform(0.5, 1.5, size=shape)))

    def collapse(out: ad.Tensor) -> ad.Tensor:
        return sum_all(ad.hadamard(out, w))

    return collapse


def _keep_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random boolean mask with at least one True entry."""
    mask = rng.random(n) < 0.6
    if not mask.any():
        mask[int(rng.integers(n))] = True
    return mask


def _scenario_add(rng):
    a, b = _param(rng, (2, 3)), _param(rng, (2, 3))
    out = _readout(rng, (2, 3))
    return lambda ps: out(add(ps[0], ps[1])), [a, b]


def _scenario_sub(rng):
    a, b = _param(rng, (2, 3)), _param(rng, (2, 3))
    out = _readout(rng, (2, 3))
    return lambda ps: out(sub(ps[0], ps[1])), [a, b]


def _scenario_hadamard(rng):
    a, b = _param(rng, (2, 3)), _param(rng, (2, 3))
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.hadamard(ps[0], ps[1])), [a, b]


def _scenario_scale(rng):
    a = _param(rng, (2, 3))
    c = float(_signed(rng, ()))
    out = _readout(rng, (2, 3))
    return lambda ps: out(scale(ps[0], c)), [a]


def _scenario_add_scalar(rng):
    a = _param(rng, (2, 3))
    c = float(_signed(rng, ()))
    out = _readout(rng, (2, 3))
    return lambda ps: out(add_scalar(ps[0], c)), [a]


def _scenario_matmul(rng):
    a, b = _param(rng, (2, 3)), _param(rng, (3, 4))
    out = _readout(rng, (2, 4))
    return lambda ps: out(matmul(ps[0], ps[1])), [a, b]


def _scenario_add_row(rng):
    m, v = _param(rng, (3, 4)), _param(rng, (4,))
    out = _readout(rng, (3, 4))
    return lambda ps: out(add_row(ps[0], ps[1])), [m, v]


def _scenario_linear(rng):
    x, w, b = _param(rng, (3, 4)), _param(rng, (4, 2)), _param(rng, (2,))
    out = _readout(rng, (3, 2))
    return lambda ps: out(ad.linear(*ps)), [x, w, b]


def _positive_param(rng: np.random.Generator, shape) -> ad.Tensor:
    """Magnitudes in [0.2, 1.5], all positive: for the operand that a
    segment op sums over, so no gradient entry cancels to near zero."""
    return ad.Tensor(rng.uniform(0.2, 1.5, size=shape), requires_grad=True)


def _scenario_segment_mul(rng):
    m, v = _positive_param(rng, (6, 4)), _param(rng, (2, 4))
    out = _readout(rng, (6, 4))
    return lambda ps: out(segment_mul(ps[0], ps[1])), [m, v]


def _scenario_mask_rows(rng):
    m = _param(rng, (4, 3))
    keep = _keep_mask(rng, 4)
    out = _readout(rng, (4, 3))
    return lambda ps: out(mask_rows(ps[0], keep)), [m]


def _scenario_relu(rng):
    a = _param(rng, (3, 4))  # |entries| >= 0.2: off the kink
    out = _readout(rng, (3, 4))
    return lambda ps: out(relu(ps[0])), [a]


def _scenario_tanh(rng):
    a = _param(rng, (3, 4))
    out = _readout(rng, (3, 4))
    return lambda ps: out(tanh(ps[0])), [a]


def _scenario_exp(rng):
    a = _param(rng, (3, 4))
    out = _readout(rng, (3, 4))
    return lambda ps: out(exp(ps[0])), [a]


def _scenario_clamp(rng):
    # Bands [0.2, 0.8] (pass-through) and [1.2, 1.8] (clipped), both at least
    # 0.2 away from the clamp edges at +-1.
    inner = rng.random((3, 4)) < 0.5
    mag = np.where(inner, rng.uniform(0.2, 0.8, (3, 4)),
                   rng.uniform(1.2, 1.8, (3, 4)))
    data = mag * rng.choice([-1.0, 1.0], size=(3, 4))
    a = ad.Tensor(data, requires_grad=True)
    out = _readout(rng, (3, 4))
    return lambda ps: out(clamp(ps[0], -1.0, 1.0)), [a]


def _softmax_case(rng: np.random.Generator, keep: np.ndarray):
    """Logits and readout weights for which every gradient entry of a row
    with two or more kept entries is at least 1e-3 in magnitude.

    A row's softmax gradients sum to zero, so arbitrary weights now and then
    put one entry within finite-difference noise (~1e-11) of zero, where the
    relative metric reports a spurious mismatch.
    """
    checked = keep & (keep.sum(axis=1, keepdims=True) > 1)
    while True:
        logits = _signed(rng, keep.shape)
        w = rng.uniform(0.5, 1.5, size=keep.shape)
        e = np.where(keep, np.exp(logits - logits.max(axis=1, keepdims=True)), 0.0)
        y = e / e.sum(axis=1, keepdims=True)
        grad = y * (w - (w * y).sum(axis=1, keepdims=True))
        if (np.abs(grad[checked]) >= 1e-3).all():
            return ad.Tensor(logits, requires_grad=True), ad.Tensor(w)


def _scenario_softmax(rng):
    a, w = _softmax_case(rng, np.ones((3, 5), dtype=bool))
    return lambda ps: sum_all(ad.hadamard(softmax(ps[0]), w)), [a]


def _scenario_softmax_masked(rng):
    keep = np.stack([_keep_mask(rng, 5) for _ in range(4)])
    keep[0] = False  # a row with a single kept entry
    keep[0, int(rng.integers(5))] = True
    a, w = _softmax_case(rng, keep)
    return lambda ps: sum_all(ad.hadamard(softmax(ps[0], keep), w)), [a]


def _scenario_logsumexp_rows(rng):
    a = _param(rng, (3, 4))
    out = _readout(rng, (3,))
    return lambda ps: out(logsumexp_rows(ps[0])), [a]


def _scenario_diag_part(rng):
    a = _param(rng, (4, 4))
    out = _readout(rng, (4,))
    return lambda ps: out(diag_part(ps[0])), [a]


def _scenario_transpose(rng):
    a = _param(rng, (2, 5))
    out = _readout(rng, (5, 2))
    return lambda ps: out(transpose(ps[0])), [a]


def _scenario_reshape(rng):
    a = _param(rng, (2, 6))
    out = _readout(rng, (3, 4))
    return lambda ps: out(reshape(ps[0], (3, 4))), [a]


def _scenario_take_per_row(rng):
    a = _param(rng, (4, 5))
    idx = rng.integers(0, 5, size=4)
    out = _readout(rng, (4,))
    return lambda ps: out(take_per_row(ps[0], idx)), [a]


def _scenario_tanh_recurrence(rng):
    """Table, weight and readout redrawn until every gradient entry of w and
    of the table rows in use is at least 1e-3 in magnitude.

    Both gradients are sums of signed contributions over steps and
    elements, so as with softmax an entry now and then cancels to within
    finite-difference noise of zero, where the relative metric reports a
    spurious mismatch. Rows no id picks have an exact zero gradient.
    """
    ids = rng.integers(0, 5, size=(3, 4))
    ids[0, 2] = ids[0, 0]  # an id repeated within a row
    ids[1, 1] = ids[0, 1]  # and across rows: its contributions must add
    used = np.isin(np.arange(5), ids)
    while True:
        table, w = _param(rng, (5, 3)), _param(rng, (3, 3))
        out = _readout(rng, (12, 3))

        def f(ps):
            return out(ad.tanh_recurrence(ps[0], ps[1], ids))

        ad.backward(f([table, w]))
        if (np.abs(table.grad[used]) >= 1e-3).all() and (np.abs(w.grad) >= 1e-3).all():
            return f, [table, w]


def _gradients_clear(f, params, floor: float = 1e-3) -> bool:
    """True when every gradient entry of f at params is at least floor in
    magnitude or exactly 0; the redraw test of the scenarios below.

    An exact 0 is structural (a masked element, a row whose only kept entry
    has weight exactly 1, a score unit relu leaves dead on every row), and
    the finite difference of such an entry is exactly 0 too."""
    for p in params:
        p.grad = None
    ad.backward(f(params))
    return all(((p.grad == 0.0) | (np.abs(p.grad) >= floor)).all() for p in params)


def _scenario_gaussian_skl(rng):
    """Means and log-variances redrawn, as for tanh_recurrence, until every
    gradient entry is at least 1e-3 in magnitude: each is a difference of
    terms that cancel where the two Gaussians nearly agree in a dimension."""
    c = float(rng.uniform(0.5, 1.5))
    while True:
        params = [_param(rng, (2, 3)) for _ in range(4)]

        def f(ps):
            return scale(gaussian_skl(*ps), c)

        if _gradients_clear(f, params):
            return f, params


def _scenario_info_nce(rng):
    """Latents and critic redrawn, as for tanh_recurrence, until every
    gradient entry is at least 1e-3 in magnitude: each sums signed
    contributions over the batch."""
    c = float(rng.uniform(0.5, 1.5))
    while True:
        params = [_param(rng, (3, 2)), _param(rng, (3, 2)),  # z_q, z_h
                  _param(rng, (2, 2))]                      # critic

        def f(ps):
            return scale(info_nce(*ps), c)

        if _gradients_clear(f, params):
            return f, params


def _attention_case(rng, shared: bool):
    """Rows, scored rows, score weights and readout of attention_pool over
    3 elements of 3 rows each; row 0 of the mask keeps a single entry.

    Redrawn until the relu pre-activations are at least 1e-2 away from the
    kink and the gradients are clear: like softmax, the score gradients sum
    signed terms that now and then cancel.
    """
    keep = np.stack([_keep_mask(rng, 3) for _ in range(3)])
    keep[0] = False
    keep[0, int(rng.integers(3))] = True
    while True:
        rows = _positive_param(rng, (9, 2))
        scored = rows if shared else _param(rng, (9, 3))
        score_w = _param(rng, (scored.shape[1], 3))
        score_head = _param(rng, (3, 1))
        params = ([rows] if shared else [rows, scored]) + [score_w, score_head]
        out = _readout(rng, (3, 2))

        def f(ps):
            r, s = ps[0], ps[0 if shared else 1]
            return out(ad.attention_pool(r, s, ps[-2], ps[-1], keep)[0])

        if (np.abs(scored.data @ score_w.data) >= 1e-2).all() \
                and _gradients_clear(f, params):
            return f, params


def _scenario_attention_pool(rng):
    return _attention_case(rng, shared=False)


def _scenario_attention_pool_shared(rng):
    """Self-attention: the pooled rows are the scored rows, one parameter
    that receives both contributions."""
    return _attention_case(rng, shared=True)


def _scenario_cross_attention_pool(rng):
    """Rows, query, both projections, score weights and readout of
    cross_attention_pool over 3 elements of 3 rows each; row 0 of the mask
    keeps a single entry. Redrawn like attention_pool's."""
    keep = np.stack([_keep_mask(rng, 3) for _ in range(3)])
    keep[0] = False
    keep[0, int(rng.integers(3))] = True
    while True:
        params = [_positive_param(rng, (9, 2)), _param(rng, (3, 2)),   # rows, query
                  _param(rng, (2, 3)), _param(rng, (2, 3)),           # rows_w, query_w
                  _param(rng, (3, 3)), _param(rng, (3, 1))]           # score_w, head
        rows, query, rows_w, query_w, score_w, _ = (p.data for p in params)
        scored = ((rows @ rows_w).reshape(3, 3, 3)
                  * (query @ query_w)[:, None, :]).reshape(9, 3)
        out = _readout(rng, (3, 2))

        def f(ps):
            return out(ad.cross_attention_pool(*ps, keep)[0])

        if (np.abs(scored @ score_w) >= 1e-2).all() and _gradients_clear(f, params):
            return f, params


def _linear_case(rng, node, edges):
    """x, w, b and readout of a linear node followed by an elementwise kink
    at each of edges: redrawn until every pre-activation is at least 1e-2
    from every edge, both sides of the first edge occur, and the gradients
    are clear (each sums signed terms over rows)."""
    while True:
        params = [_param(rng, (3, 4)), _param(rng, (4, 2)), _param(rng, (2,))]
        pre = params[0].data @ params[1].data + params[2].data
        out = _readout(rng, (3, 2))

        def f(ps):
            return out(node(*ps))

        if all((np.abs(pre - edge) >= 1e-2).all() for edge in edges) \
                and (pre > edges[0]).any() and (pre < edges[0]).any() \
                and _gradients_clear(f, params):
            return f, params


def _scenario_linear_relu(rng):
    return _linear_case(rng, ad.linear_relu, (0.0,))


def _scenario_linear_clamp(rng):
    return _linear_case(rng, lambda x, w, b: ad.linear_clamp(x, w, b, -1.0, 1.0),
                        (1.0, -1.0))


def _scenario_prior_skl(rng):
    """Means and log-variances redrawn as for gaussian_skl."""
    c = float(rng.uniform(0.5, 1.5))
    while True:
        params = [_param(rng, (2, 3)), _param(rng, (2, 3))]

        def f(ps):
            return scale(ad.prior_skl(*ps), c)

        if _gradients_clear(f, params):
            return f, params


def _scenario_add_scaled(rng):
    a, b = _param(rng, (2, 3)), _param(rng, (2, 3))
    c = float(_signed(rng, ()))
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.add_scaled(ps[0], ps[1], c)), [a, b]


def _scenario_softmax_cross_entropy(rng):
    a = _param(rng, (4, 5))
    labels = rng.integers(0, 5, size=4)
    labels[2] = labels[0]  # a repeated label
    c = float(rng.uniform(0.5, 1.5))
    return lambda ps: scale(ad.softmax_cross_entropy(ps[0], labels), c), [a]


def _scenario_gaussian_sample(rng):
    mean, log_var = _param(rng, (3, 4)), _param(rng, (3, 4))
    eps = _signed(rng, (3, 4))
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.gaussian_sample(ps[0], ps[1], eps)), \
        [mean, log_var]


def _scenario_segment_pool(rng):
    w, rows = _param(rng, (2, 3)), _positive_param(rng, (6, 4))
    out = _readout(rng, (2, 4))
    return lambda ps: out(ad.segment_pool(ps[0], ps[1])), [w, rows]


def _scenario_sum_all(rng):
    a = _param(rng, (3, 4))
    c = float(rng.uniform(0.5, 1.5))
    return lambda ps: scale(sum_all(ps[0]), c), [a]


def _scenario_mean_all(rng):
    a = _param(rng, (3, 4))
    c = float(rng.uniform(0.5, 1.5))
    return lambda ps: scale(mean_all(ps[0]), c), [a]


OP_SCENARIOS = {
    "add": _scenario_add,
    "sub": _scenario_sub,
    "hadamard": _scenario_hadamard,
    "scale": _scenario_scale,
    "add_scalar": _scenario_add_scalar,
    "matmul": _scenario_matmul,
    "add_row": _scenario_add_row,
    "linear": _scenario_linear,
    "linear_relu": _scenario_linear_relu,
    "linear_clamp": _scenario_linear_clamp,
    "add_scaled": _scenario_add_scaled,
    "segment_mul": _scenario_segment_mul,
    "mask_rows": _scenario_mask_rows,
    "relu": _scenario_relu,
    "tanh": _scenario_tanh,
    "exp": _scenario_exp,
    "clamp": _scenario_clamp,
    "softmax": _scenario_softmax,
    "softmax_masked": _scenario_softmax_masked,
    "logsumexp_rows": _scenario_logsumexp_rows,
    "diag_part": _scenario_diag_part,
    "transpose": _scenario_transpose,
    "reshape": _scenario_reshape,
    "take_per_row": _scenario_take_per_row,
    "tanh_recurrence": _scenario_tanh_recurrence,
    "segment_pool": _scenario_segment_pool,
    "sum_all": _scenario_sum_all,
    "mean_all": _scenario_mean_all,
    "gaussian_skl": _scenario_gaussian_skl,
    "info_nce": _scenario_info_nce,
    "attention_pool": _scenario_attention_pool,
    "attention_pool_shared": _scenario_attention_pool_shared,
    "cross_attention_pool": _scenario_cross_attention_pool,
    "prior_skl": _scenario_prior_skl,
    "softmax_cross_entropy": _scenario_softmax_cross_entropy,
    "gaussian_sample": _scenario_gaussian_sample,
}


def run_op_trials(op_name: str, n_trials: int, seed: int = 0) -> float:
    """Run `n_trials` randomized finite-difference checks for one op.

    Returns the worst relative error seen across all trials.
    """
    build = OP_SCENARIOS[op_name]
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(op_name.encode())]))
    worst = 0.0
    for _ in range(n_trials):
        f, params = build(rng)
        worst = max(worst, grad_check(f, params))
    return worst
