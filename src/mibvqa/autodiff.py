"""Minimal dense-tensor reverse-mode autodiff engine.

Exactly the operations the VQA model needs, on float64 numpy storage,
rank <= 2, no broadcasting (row-wise ops are explicit, named operations).
A batch of B elements with n rows each is laid out as one [B*n, d] matrix
whose rows b*n .. b*n + n - 1 belong to element b; the segment ops
(tanh_recurrence, segment_pool, segment_mul, attention_pool) read and
write that layout. The graph is rebuilt on every forward pass
(define-by-run), and not built at all inside `no_grad()`. `backward`
accumulates gradients additively into the leaves of the graph
(requires_grad tensors that no op produced, such as parameters);
intermediate results keep grad None.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Mapping, Optional

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation, or an
    index operand falls outside the axis it indexes."""


class RankError(ValueError):
    """Tensor rank is invalid for the requested operation."""


class InvalidMaskError(ValueError):
    """A mask excludes every entry."""


class MissingGradientError(RuntimeError):
    """An optimizer step was requested before gradients were populated."""


class NonFiniteGradientError(ArithmeticError):
    """A gradient handed to the optimizer holds a nan or an infinity."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"non-finite gradient of parameter {name!r} ({value})")


class Tensor:
    """Dense float64 array plus an optional backpropagation node.

    `grad` is populated (same shape as `data`) by `backward` for every
    leaf, a tensor with requires_grad and no backpropagation node (such as
    a parameter), that is reachable from the loss. Op results never get one.
    `_grad_view` is the leaf's slice of an `Adam` gradient buffer, which
    `backward` writes into; it is None on every tensor no `Adam` owns.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_grad_view")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise RankError(f"rank {arr.ndim} tensors unsupported (max 2)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = ()
        self._vjp = None
        self._grad_view: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise RankError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# False inside no_grad(); read by _node on every op.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph: every result is a plain Tensor.

    For forward passes that are never differentiated. The previous state
    comes back on exit, also when nested or left by an exception.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    """Wrap an op result; skip graph bookkeeping when no parent needs grad.

    Every op hands over float64 data of rank <= 2, so the result is built
    without Tensor.__init__'s conversion and rank check.
    """
    t = object.__new__(Tensor)
    t.data = data
    t.grad = None
    t._grad_view = None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                t.requires_grad = True
                t._parents = parents
                t._vjp = vjp
                return t
    t.requires_grad = False
    t._parents = ()
    t._vjp = None
    return t


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _same_shape(a, b, "hadamard")
    return _node(a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (the only sanctioned broadcast)."""
    return _node(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise RankError(f"matmul needs rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    # a constant operand gets no gradient, so none is formed for it
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the bias row added to every row of the product; one node.

    As in matmul, a constant x gets no gradient and none is formed for it.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise RankError(f"linear: x {x.shape}, w {w.shape}, b {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"linear: x {x.shape}, w {w.shape} and b {b.shape} "
                             f"do not chain")
    out = x.data @ w.data
    out += b.data
    return _node(out, (x, w, b),
                 lambda g: (g @ w.data.T if x.requires_grad else None,
                            x.data.T @ g if w.requires_grad else None,
                            np.add.reduce(g, axis=0)))


def segment_mul(m: Tensor, v: Tensor) -> Tensor:
    """Multiply each row of segment b of m elementwise by row b of v.

    m is [B*n, d], read as B consecutive segments of n rows; v is [B, d].
    """
    if m.data.ndim != 2 or v.data.ndim != 2 or m.shape[1] != v.shape[1] \
            or v.shape[0] == 0 or m.shape[0] % v.shape[0]:
        raise DimensionError(f"segment_mul: {m.shape} incompatible with {v.shape}")
    b, d = v.shape
    m3 = m.data.reshape(b, -1, d)
    out = (m3 * v.data[:, None, :]).reshape(m.shape)

    def vjp(g):
        g3 = g.reshape(m3.shape)
        return (g3 * v.data[:, None, :]).reshape(m.shape), (g3 * m3).sum(axis=1)

    return _node(out, (m, v), vjp)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = np.maximum(x.data, 0.0)
    pos = x.data > 0.0
    return _node(out, (x,), lambda g: (g * pos,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return _node(out, (x,), lambda g: (g * inside,))


def tanh_recurrence(table: Tensor, w: Tensor, ids: np.ndarray) -> Tensor:
    """States of q_j = tanh(q_{j-1} @ w.T + table[ids[:, j]]), q_{-1} = 0.

    table is [V, d], w is [d, d] and ids is an int [B, k] array; the result
    is [B*k, d] in segment layout, row b*k + j holding q_j of element b.
    One graph node for the whole recurrence: the VJP runs back through time
    by hand, then forms dw in one product and scatter-adds every step's
    gradient into dtable at once, so an id used several times receives the
    sum of its contributions. States are kept time-major ([k, B, d]) so
    each step reads and writes one contiguous block.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or w.data.ndim != 2 or ids.ndim != 2:
        raise RankError(f"tanh_recurrence: table {table.shape}, w {w.shape}, "
                        f"ids {ids.shape}")
    d = table.shape[1]
    if w.shape != (d, d):
        raise DimensionError(f"tanh_recurrence: w {w.shape} vs table {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(f"tanh_recurrence: id out of range for {table.shape}")
    b, k = ids.shape
    w_t = w.data.T.copy()
    # the gathered inputs [k, B, d], time-major, become the states in place;
    # step 0 multiplies the zero state like every other step
    states = table.data[ids.T]
    q, product = np.zeros((b, d)), np.empty((b, d))
    for j in range(k):
        np.matmul(q, w_t, out=product)
        q = states[j]
        np.add(product, q, out=q)
        np.tanh(q, out=q)

    def vjp(g):
        # one contiguous time-major copy of g, turned in place into the
        # gradient of each step's tanh input
        dpre = g.reshape(b, k, d).transpose(1, 0, 2).copy()
        slope = states * states
        np.subtract(1.0, slope, out=slope)
        carry = np.zeros((b, d))
        for j in range(k - 1, -1, -1):
            step = dpre[j]
            step += carry
            step *= slope[j]
            np.matmul(step, w.data, out=carry)
        dw = dpre[1:].reshape(-1, d).T @ states[:-1].reshape(-1, d)
        # scatter-add of every step's rows into the table rows they read:
        # each row's flat cell numbers are gathered like its inputs were
        cells = np.arange(table.data.size).reshape(table.shape)[ids.T].ravel()
        dtable = np.bincount(cells, weights=dpre.ravel(), minlength=table.data.size)
        return dtable.reshape(table.shape), dw

    return _node(states.transpose(1, 0, 2).reshape(b * k, d), (table, w), vjp)


def segment_pool(weights: Tensor, rows: Tensor) -> Tensor:
    """Weighted row-sum per segment: out[b] = sum_j weights[b, j] * rows[b*n + j].

    weights is [B, n] and rows is [B*n, d]; the result is [B, d]. This is
    the attention pooling of a whole batch.
    """
    if weights.data.ndim != 2 or rows.data.ndim != 2 \
            or weights.data.size != rows.shape[0]:
        raise DimensionError(f"segment_pool: weights {weights.shape} vs rows {rows.shape}")
    b, n = weights.shape
    w = weights.data
    r3 = rows.data.reshape(b, n, rows.shape[1])
    out = (w[:, None, :] @ r3).reshape(b, rows.shape[1])

    def vjp(g):
        return ((r3 @ g[:, :, None]).reshape(b, n) if weights.requires_grad else None,
                (w[:, :, None] * g[:, None, :]).reshape(rows.shape)
                if rows.requires_grad else None)

    return _node(out, (weights, rows), vjp)


def attention_pool(rows: Tensor, scored_rows: Tensor, score_w: Tensor,
                   score_head: Tensor, mask: np.ndarray) -> tuple:
    """Score, normalize and pool one batch of attention blocks; one node.

    rows [B*n, d] are pooled and scored_rows [B*n, d_s] are scored (the
    same tensor for self-attention): logits[b, j] = relu(scored_rows[b*n + j]
    @ score_w) @ score_head with score_w [d_s, d_ff] and score_head
    [d_ff, 1]. The weights are the masked softmax of each row of logits:
    mask is a plain [B, n] bool array (True = keep), excluded logits are
    replaced by -1e30 before the row-max subtraction, so their weights
    underflow to exactly 0 and they get zero gradient; every row needs a
    kept entry. pooled[b] = sum_j weights[b, j] * rows[b*n + j].

    Returns the pooled [B, d] Tensor and the weights as a plain [B, n]
    array outside the graph: gradients reach the scores through pooled.
    """
    keep = np.asarray(mask, dtype=bool)
    if rows.data.ndim != 2 or scored_rows.data.ndim != 2 or keep.ndim != 2 \
            or rows.shape[0] != keep.size or scored_rows.shape[0] != keep.size \
            or score_w.data.ndim != 2 or score_w.shape[0] != scored_rows.shape[1] \
            or score_head.shape != (score_w.shape[1], 1):
        raise DimensionError(f"attention_pool: rows {rows.shape}, scored rows "
                             f"{scored_rows.shape}, score_w {score_w.shape}, "
                             f"score_head {score_head.shape}, mask {keep.shape}")
    filled = keep.any(axis=1)
    if not filled.all():
        raise InvalidMaskError(
            f"attention_pool: every entry of row {int(np.argmin(filled))} is masked")
    b, n = keep.shape
    d = rows.shape[1]
    pre = scored_rows.data @ score_w.data
    hidden = np.maximum(pre, 0.0)
    weights = np.where(keep, (hidden @ score_head.data).reshape(b, n), -1e30)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    r3 = rows.data.reshape(b, n, d)
    pooled = (weights[:, None, :] @ r3).reshape(b, d)

    def vjp(g):
        d_weights = (r3 @ g[:, :, None]).reshape(b, n)
        d_logits = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
        d_logits = d_logits.reshape(b * n, 1)
        # the outer product d_logits @ score_head.T, entry by entry; a zero
        # may keep a sign the k = 1 matmul dropped, which the two products
        # below, summing from +0, drop again
        d_pre = d_logits * score_head.data[:, 0]
        d_pre *= pre > 0.0
        return ((weights[:, :, None] * g[:, None, :]).reshape(b * n, d)
                if rows.requires_grad else None,
                d_pre @ score_w.data.T if scored_rows.requires_grad else None,
                scored_rows.data.T @ d_pre if score_w.requires_grad else None,
                hidden.T @ d_logits if score_head.requires_grad else None)

    return _node(pooled, (rows, scored_rows, score_w, score_head), vjp), weights


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over rows of logsumexp(logits[i]) - logits[i, labels[i]]: the
    cross-entropy of each row's softmax against an int label; one node.

    logits is [B, C] with B >= 1 and labels an int [B] array with values in
    [0, C); anything else is a DimensionError.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or logits.shape[0] == 0 \
            or labels.shape != (logits.shape[0],):
        raise DimensionError(f"softmax_cross_entropy: logits {logits.shape}, "
                             f"labels {labels.shape}")
    b, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise DimensionError(f"softmax_cross_entropy: label {bad} out of range "
                             f"for {c} classes")
    m = logits.data
    rows = np.arange(b)
    mx = m.max(axis=1, keepdims=True)
    e = np.exp(m - mx)
    s = e.sum(axis=1, keepdims=True)
    lse = (mx + np.log(s)).ravel()
    out = np.asarray((lse - m[rows, labels]).sum()) * (1.0 / b)

    def vjp(g):
        per_row = float(g) * (1.0 / b)
        d_logits = per_row * (e / s)
        d_logits[rows, labels] -= per_row
        return (d_logits,)

    return _node(out, (logits,), vjp)


def gaussian_sample(mean: Tensor, log_var: Tensor, eps: np.ndarray) -> Tensor:
    """Reparameterized draw mean + exp(log_var / 2) * eps; one node.

    eps is plain noise of the latent's shape, held fixed: the draw
    differentiates with respect to mean and log_var only.
    """
    _same_shape(mean, log_var, "gaussian_sample")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != mean.shape:
        raise DimensionError(f"noise shape {eps.shape} != latent shape {mean.shape}")
    std = np.exp(log_var.data * 0.5)
    return _node(mean.data + std * eps, (mean, log_var),
                 lambda g: (g, g * eps * std * 0.5))


# ---------------------------------------------------------------------------
# fused bottleneck terms: one node each, forward in the operation order of
# the elementwise composition they replace


def gaussian_skl(mean_p: Tensor, log_var_p: Tensor, mean_q: Tensor,
                 log_var_q: Tensor) -> Tensor:
    """Symmetrized KL between diagonal Gaussians p and q, summed over entries.

    0.25 * sum(t_pq + t_qp), where t_pq = e^(lp-lq) - (lp-lq)
    + (mq-mp)^2 e^(-lq) - 1 is twice the elementwise KL(p || q).
    """
    for other in (log_var_p, mean_q, log_var_q):
        _same_shape(mean_p, other, "gaussian_skl")
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

    return _node(out, (mean_p, log_var_p, mean_q, log_var_q), vjp)


def info_nce(z_q: Tensor, z_h: Tensor, critic: Tensor) -> Tensor:
    """InfoNCE estimate mean_i [s_ii - logsumexp_j s_ij] + ln B of the
    bilinear scores s = z_q @ critic @ z_h.T of a [B, d] latent pair.

    A contrastive mutual-information lower bound kept beside the model,
    which does not call it."""
    if z_q.data.ndim != 2 or z_h.shape != z_q.shape \
            or critic.shape != (z_q.shape[1],) * 2:
        raise DimensionError(f"info_nce: z_q {z_q.shape}, z_h {z_h.shape}, "
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

    return _node(out, (z_q, z_h, critic), vjp)


# ---------------------------------------------------------------------------
# backpropagation


def _toposort(root: Tensor) -> list:
    order, stack, seen = [], [(root, False)], set()
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dt into .grad of every leaf ancestor of the loss.

    One reverse walk in topological order: each node's adjoint is complete
    when the walk reaches it, so it is popped there, handed to the node's
    VJP (inner node) or added into .grad (leaf). Repeated calls without
    zeroing accumulate additively; intermediate results get no .grad.
    A leaf an `Adam` owns gets its gradient in its slice of the optimizer's
    gradient buffer: the first contribution is copied there and .grad
    becomes that view, later ones are added in place. Every contribution
    is reshaped to the leaf's shape, so a wrong-size one raises.
    """
    if loss.shape != ():
        raise RankError(f"backward needs a scalar loss, got shape {loss.shape}")
    adjoint = {id(loss): np.ones(())}
    for node in reversed(_toposort(loss)):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                view = node._grad_view
                if view is None:
                    g = np.array(g, dtype=np.float64).reshape(node.shape)
                    node.grad = g if node.grad is None else node.grad + g
                else:
                    g = np.asarray(g).reshape(node.shape)
                    if node.grad is None:
                        view[...] = g
                    else:
                        np.add(node.grad, g, out=view)
                    node.grad = view
            continue
        for parent, contrib in zip(node._parents, node._vjp(g)):
            if contrib is None or not parent.requires_grad:
                continue
            key = id(parent)
            prev = adjoint.get(key)
            adjoint[key] = contrib if prev is None else prev + contrib


# ---------------------------------------------------------------------------
# optimization


# Adam's moment decay rates and denominator guard; every run uses these.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction. Gradients are left untouched by step().

    params maps each parameter's name to its leaf tensor; the names only
    label errors. The optimizer owns two flat float64 buffers over all
    parameters in the mapping's order, one for the values and one for the
    gradients. Construction copies each parameter's data into its slice of
    the first and binds the parameter's `data` to that slice; rebinding
    `p.data` afterwards detaches the parameter, whose later updates then
    never reach it. `backward` writes each parameter's gradient into its
    slice of the second. A step applies the elementwise update to the flat
    arrays in place (the operation order of the textbook formulas, so the
    result is the same to the bit), with no per-parameter copy.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        sizes = [p.data.size for p in self.params.values()]
        bounds = np.cumsum([0] + sizes).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._p = np.empty(bounds[-1])
        self._g = np.empty(bounds[-1])
        for p, part in zip(self.params.values(), self._slices):
            self._p[part] = p.data.ravel()
            p.data = self._p[part].reshape(p.shape)
            p._grad_view = self._g[part].reshape(p.shape)
        self._m = np.zeros(bounds[-1])
        self._v = np.zeros(bounds[-1])
        self._scratch = np.empty(bounds[-1])
        self._update = np.empty(bounds[-1])

    def step(self) -> None:
        """One update. A missing, misshapen or non-finite gradient raises
        before any state (m, v, t, the parameters) changes. A gradient set
        by hand rather than by `backward` is copied into the buffer."""
        for name, p in self.params.items():
            grad = p.grad
            if grad is p._grad_view:
                continue
            if grad is None:
                raise MissingGradientError(f"no gradient for parameter {name!r}")
            if grad.shape != p.shape:
                raise DimensionError(f"gradient of {name!r} has shape "
                                     f"{grad.shape}, parameter {p.shape}")
            p._grad_view[...] = grad
        g, tmp, update = self._g, self._scratch, self._update
        if not np.isfinite(g).all():
            for name, part in zip(self.params, self._slices):
                bad = ~np.isfinite(g[part])
                if bad.any():
                    raise NonFiniteGradientError(name, float(g[part][bad][0]))
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m, v = self._m, self._v
        # m = b1 * m + (1 - b1) * g
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        # v = b2 * v + (1 - b2) * g * g
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        # update = lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - b1 ** self.t, out=update)
        update *= self.lr
        np.divide(v, 1.0 - b2 ** self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update /= tmp
        self._p -= update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# Weight-matrix init scale for the signal path. The forward activations here
# are sub-unit scale (tanh states ~0.1, pooled embeddings ~0.1), so plain
# 1/sqrt(fan_in) bounds shrink the signal ~3x per layer and the Hadamard
# fusion squares the deficit, leaving near-zero logits and gradients at init.
SIGNAL_INIT_SCALE = 3.0


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int,
                 scale: float = 1.0) -> np.ndarray:
    """Uniform +-scale/sqrt(fan_in), the init used by every weight matrix here."""
    bound = scale / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
