"""Minimal dense-tensor reverse-mode autodiff engine.

Exactly the operations the VQA model needs, on float64 numpy storage,
rank <= 2, no broadcasting (row-wise ops are explicit, named operations).
A batch of B elements with n rows each is laid out as one [B*n, d] matrix
whose rows b*n .. b*n + n - 1 belong to element b; the segment ops
(stack_steps, segment_pool, segment_mul) read and write that layout.
The graph is rebuilt on every forward pass (define-by-run); `backward`
accumulates gradients additively into every requires_grad ancestor.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class RankError(ValueError):
    """Tensor rank is invalid for the requested operation."""


class InvalidMaskError(ValueError):
    """A mask excludes every entry."""


class MissingGradientError(RuntimeError):
    """An optimizer step was requested before gradients were populated."""


class Tensor:
    """Dense float64 array plus an optional backpropagation node.

    `grad` is populated (same shape as `data`) by `backward` for every
    tensor with requires_grad that is reachable from the loss.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _vjp: Optional[Callable] = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise RankError(f"rank {arr.ndim} tensors unsupported (max 2)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise RankError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter:
    """Named trainable tensor. Names are unique within a model."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def shape(self) -> tuple:
        return self.tensor.shape

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.tensor.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self.tensor.grad = value

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


def _node(data: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    """Wrap an op result; skip graph bookkeeping when no parent needs grad."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, vjp)
    return Tensor(data)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, b), lambda g: (g, -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _same_shape(a, b, "hadamard")
    return _node(a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (the only sanctioned broadcast)."""
    return _node(a.data * c, (a,), lambda g: (g * c,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _node(a.data + c, (a,), lambda g: (g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise RankError(f"matmul needs rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def add_row(m: Tensor, v: Tensor) -> Tensor:
    """Add vector v to every row of m (explicit row broadcast)."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise DimensionError(f"add_row: {m.shape} incompatible with {v.shape}")
    return _node(m.data + v.data[None, :], (m, v),
                 lambda g: (g, g.sum(axis=0)))


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


def mask_rows(m: Tensor, keep: np.ndarray) -> Tensor:
    """Zero out rows of m where keep is False. keep is a plain bool array."""
    keep = np.asarray(keep, dtype=bool)
    if m.data.ndim != 2 or keep.shape != (m.shape[0],):
        raise DimensionError(f"mask_rows: mask {keep.shape} incompatible with {m.shape}")
    out = np.where(keep[:, None], m.data, 0.0)
    return _node(out, (m,), lambda g: (np.where(keep[:, None], g, 0.0),))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    out = np.maximum(x.data, 0.0)
    pos = x.data > 0.0
    return _node(out, (x,), lambda g: (g * pos,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _node(out, (x,), lambda g: (g * (1.0 - out * out),))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _node(out, (x,), lambda g: (g * out,))


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed overflow-free."""
    out = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    sig = 1.0 / (1.0 + np.exp(-x.data))
    return _node(out, (x,), lambda g: (g * sig,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return _node(out, (x,), lambda g: (g * inside,))


def softmax(logits: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Masked stable softmax over each row of a [B, n] matrix.

    `mask` is a plain bool array of the same shape marking participating
    entries (True = keep); excluded entries get weight exactly 0 and receive
    zero gradient. Masking is realized by adding -1e30 to excluded logits
    before the usual row-max subtraction, so the exponentials of excluded
    entries underflow to 0. Every row needs at least one kept entry.
    """
    if logits.data.ndim != 2:
        raise RankError(f"softmax expects a [B, n] matrix, got {logits.shape}")
    if mask is None:
        keep = np.ones(logits.shape, dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != logits.shape:
            raise DimensionError(f"softmax: mask {keep.shape} vs logits {logits.shape}")
    empty = ~keep.any(axis=1)
    if empty.any():
        raise InvalidMaskError(
            f"softmax: every entry of row {int(np.argmax(empty))} is masked")
    shifted = np.where(keep, logits.data, -1e30)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (logits,), vjp)


def logsumexp_rows(m: Tensor) -> Tensor:
    """Row-wise log(sum(exp(.))) of a matrix, max-subtracted for stability."""
    if m.data.ndim != 2:
        raise RankError(f"logsumexp_rows expects a matrix, got {m.shape}")
    mx = m.data.max(axis=1, keepdims=True)
    e = np.exp(m.data - mx)
    s = e.sum(axis=1, keepdims=True)
    out = (mx + np.log(s)).ravel()
    soft = e / s
    return _node(out, (m,), lambda g: (g[:, None] * soft,))


def diag_part(m: Tensor) -> Tensor:
    if m.data.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"diag_part expects a square matrix, got {m.shape}")
    n = m.shape[0]

    def vjp(g):
        out = np.zeros_like(m.data)
        np.fill_diagonal(out, g)
        return (out,)

    return _node(np.diagonal(m.data).copy(), (m,), vjp)


def transpose(m: Tensor) -> Tensor:
    if m.data.ndim != 2:
        raise RankError(f"transpose expects a matrix, got {m.shape}")
    return _node(m.data.T.copy(), (m,), lambda g: (g.T,))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"reshape: {x.shape} has wrong size for {shape}")
    old = x.shape
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def gather_rows(m: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = m[idx[i]]; the gradient scatter-adds back, so a row picked
    several times receives the sum of its contributions."""
    idx = np.asarray(idx, dtype=np.int64)
    if m.data.ndim != 2 or idx.ndim != 1:
        raise RankError(f"gather_rows: indices {idx.shape} vs matrix {m.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m.shape[0]):
        raise DimensionError(f"gather_rows: index out of range for {m.shape}")

    def vjp(g):
        out = np.zeros_like(m.data)
        np.add.at(out, idx, g)
        return (out,)

    return _node(m.data[idx], (m,), vjp)


def take_per_row(m: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = m[i, idx[i]] for an int index per row."""
    idx = np.asarray(idx, dtype=np.int64)
    if m.data.ndim != 2 or idx.shape != (m.shape[0],):
        raise DimensionError(f"take_per_row: indices {idx.shape} vs matrix {m.shape}")
    rows = np.arange(m.shape[0])

    def vjp(g):
        out = np.zeros_like(m.data)
        out[rows, idx] = g
        return (out,)

    return _node(m.data[rows, idx].copy(), (m,), vjp)


def stack_steps(steps: Sequence[Tensor]) -> Tensor:
    """Interleave k same-shape [B, d] step states into [B*k, d].

    Row b*k + j is row b of step j, so each batch element owns k consecutive
    rows, the segment layout that segment_pool and segment_mul read.
    """
    if not steps:
        raise DimensionError("stack_steps: empty sequence")
    shape = steps[0].shape
    for s in steps:
        if s.data.ndim != 2 or s.shape != shape:
            raise DimensionError("stack_steps: steps must be equal-shape matrices")
    b, d = shape
    k = len(steps)
    out = np.stack([s.data for s in steps], axis=1).reshape(b * k, d)

    def vjp(g):
        g3 = g.reshape(b, k, d)
        return tuple(g3[:, j] for j in range(k))

    return _node(out, tuple(steps), vjp)


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
    out = np.einsum("bn,bnd->bd", w, r3)

    def vjp(g):
        return (np.einsum("bd,bnd->bn", g, r3),
                (w[:, :, None] * g[:, None, :]).reshape(rows.shape))

    return _node(out, (weights, rows), vjp)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _node(np.asarray(x.data.sum()), (x,),
                 lambda g: (np.full(shape, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.shape
    return _node(np.asarray(x.data.mean()), (x,),
                 lambda g: (np.full(shape, float(g) / n),))


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
    """Accumulate dLoss/dt into .grad of every requires_grad ancestor.

    Repeated calls without zeroing accumulate additively.
    """
    if loss.shape != ():
        raise RankError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    adjoint = {id(loss): np.ones(())}
    for node in reversed(order):
        g = adjoint.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(g)):
            if contrib is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + contrib
            else:
                adjoint[key] = contrib
    for node in order:
        if node.requires_grad and id(node) in adjoint:
            g = np.asarray(adjoint[id(node)], dtype=np.float64).reshape(node.shape)
            node.grad = g.copy() if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# gradient checking and optimization


def grad_check(f: Callable[[Sequence[Parameter]], Tensor],
               params: Sequence[Parameter], eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must be deterministic for fixed parameters (freeze any sampling noise).
    Error per entry: |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    for p in params:
        p.tensor.grad = None
    loss = f(params)
    backward(loss)
    analytic = [np.zeros(p.tensor.shape) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.tensor.data.ravel()
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


class Adam:
    """Adam with bias correction. Gradients are left untouched by step()."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-5,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros(p.tensor.shape) for p in self.params]
        self._v = [np.zeros(p.tensor.shape) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.tensor.grad
            if g is None:
                raise MissingGradientError(f"no gradient for parameter {p.name!r}")
            self._m[i] = b1 * self._m[i] + (1.0 - b1) * g
            self._v[i] = b2 * self._v[i] + (1.0 - b2) * g * g
            m_hat = self._m[i] / (1.0 - b1 ** self.t)
            v_hat = self._v[i] / (1.0 - b2 ** self.t)
            p.tensor.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None


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
