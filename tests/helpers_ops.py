"""Randomized finite-difference scenarios, one per differentiable primitive.

Shared between the unit suite (small trial counts, fast) and the acceptance
gate (100 trials per op).  Each scenario builds fresh random parameters and a
closure that recomputes a scalar loss from the parameters' *current* data, so
`grad_check` can perturb entries and re-evaluate.

Inputs are drawn bounded away from the kinks and clip boundaries of piecewise
ops (relu at 0, clamp at its edges): central differences straddle such points
otherwise and report a spurious mismatch that says nothing about the VJPs.
"""

from __future__ import annotations

import numpy as np

from mibvqa import autodiff as ad


def _signed(rng: np.random.Generator, shape, lo=0.2, hi=1.5) -> np.ndarray:
    """Magnitudes in [lo, hi] with random signs: smooth region for every op."""
    mag = rng.uniform(lo, hi, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


def _param(rng: np.random.Generator, shape, name="p") -> ad.Parameter:
    return ad.Parameter(name, _signed(rng, shape))


def _readout(rng: np.random.Generator, shape):
    """Fixed random positive weights collapsing any output to a scalar."""
    w = ad.Tensor(np.asarray(rng.uniform(0.5, 1.5, size=shape)))

    def collapse(out: ad.Tensor) -> ad.Tensor:
        return ad.sum_all(ad.hadamard(out, w))

    return collapse


def _keep_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random boolean mask with at least one True entry."""
    mask = rng.random(n) < 0.6
    if not mask.any():
        mask[int(rng.integers(n))] = True
    return mask


def _scenario_add(rng):
    a, b = _param(rng, (2, 3), "a"), _param(rng, (2, 3), "b")
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.add(ps[0].tensor, ps[1].tensor)), [a, b]


def _scenario_sub(rng):
    a, b = _param(rng, (2, 3), "a"), _param(rng, (2, 3), "b")
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.sub(ps[0].tensor, ps[1].tensor)), [a, b]


def _scenario_hadamard(rng):
    a, b = _param(rng, (2, 3), "a"), _param(rng, (2, 3), "b")
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.hadamard(ps[0].tensor, ps[1].tensor)), [a, b]


def _scenario_scale(rng):
    a = _param(rng, (2, 3), "a")
    c = float(_signed(rng, ()))
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.scale(ps[0].tensor, c)), [a]


def _scenario_add_scalar(rng):
    a = _param(rng, (2, 3), "a")
    c = float(_signed(rng, ()))
    out = _readout(rng, (2, 3))
    return lambda ps: out(ad.add_scalar(ps[0].tensor, c)), [a]


def _scenario_matmul(rng):
    a, b = _param(rng, (2, 3), "a"), _param(rng, (3, 4), "b")
    out = _readout(rng, (2, 4))
    return lambda ps: out(ad.matmul(ps[0].tensor, ps[1].tensor)), [a, b]


def _scenario_add_row(rng):
    m, v = _param(rng, (3, 4), "m"), _param(rng, (4,), "v")
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.add_row(ps[0].tensor, ps[1].tensor)), [m, v]


def _positive_param(rng: np.random.Generator, shape, name="p") -> ad.Parameter:
    """Magnitudes in [0.2, 1.5], all positive: for the operand that a
    segment op sums over, so no gradient entry cancels to near zero."""
    return ad.Parameter(name, rng.uniform(0.2, 1.5, size=shape))


def _scenario_segment_mul(rng):
    m, v = _positive_param(rng, (6, 4), "m"), _param(rng, (2, 4), "v")
    out = _readout(rng, (6, 4))
    return lambda ps: out(ad.segment_mul(ps[0].tensor, ps[1].tensor)), [m, v]


def _scenario_mask_rows(rng):
    m = _param(rng, (4, 3), "m")
    keep = _keep_mask(rng, 4)
    out = _readout(rng, (4, 3))
    return lambda ps: out(ad.mask_rows(ps[0].tensor, keep)), [m]


def _scenario_relu(rng):
    a = _param(rng, (3, 4), "a")  # |entries| >= 0.2: off the kink
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.relu(ps[0].tensor)), [a]


def _scenario_tanh(rng):
    a = _param(rng, (3, 4), "a")
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.tanh(ps[0].tensor)), [a]


def _scenario_exp(rng):
    a = _param(rng, (3, 4), "a")
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.exp(ps[0].tensor)), [a]


def _scenario_softplus(rng):
    a = _param(rng, (3, 4), "a")
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.softplus(ps[0].tensor)), [a]


def _scenario_clamp(rng):
    # Bands [0.2, 0.8] (pass-through) and [1.2, 1.8] (clipped), both at least
    # 0.2 away from the clamp edges at +-1.
    inner = rng.random((3, 4)) < 0.5
    mag = np.where(inner, rng.uniform(0.2, 0.8, (3, 4)),
                   rng.uniform(1.2, 1.8, (3, 4)))
    data = mag * rng.choice([-1.0, 1.0], size=(3, 4))
    a = ad.Parameter("a", data)
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.clamp(ps[0].tensor, -1.0, 1.0)), [a]


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
            return ad.Parameter("a", logits), ad.Tensor(w)


def _scenario_softmax(rng):
    a, w = _softmax_case(rng, np.ones((3, 5), dtype=bool))
    return lambda ps: ad.sum_all(ad.hadamard(ad.softmax(ps[0].tensor), w)), [a]


def _scenario_softmax_masked(rng):
    keep = np.stack([_keep_mask(rng, 5) for _ in range(4)])
    keep[0] = False  # a row with a single kept entry
    keep[0, int(rng.integers(5))] = True
    a, w = _softmax_case(rng, keep)
    return lambda ps: ad.sum_all(ad.hadamard(ad.softmax(ps[0].tensor, keep), w)), [a]


def _scenario_logsumexp_rows(rng):
    a = _param(rng, (3, 4), "a")
    out = _readout(rng, (3,))
    return lambda ps: out(ad.logsumexp_rows(ps[0].tensor)), [a]


def _scenario_diag_part(rng):
    a = _param(rng, (4, 4), "a")
    out = _readout(rng, (4,))
    return lambda ps: out(ad.diag_part(ps[0].tensor)), [a]


def _scenario_transpose(rng):
    a = _param(rng, (2, 5), "a")
    out = _readout(rng, (5, 2))
    return lambda ps: out(ad.transpose(ps[0].tensor)), [a]


def _scenario_reshape(rng):
    a = _param(rng, (2, 6), "a")
    out = _readout(rng, (3, 4))
    return lambda ps: out(ad.reshape(ps[0].tensor, (3, 4))), [a]


def _scenario_gather_rows(rng):
    a = _param(rng, (5, 3), "a")
    idx = rng.integers(0, 5, size=7)
    idx[1] = idx[0]  # a repeated row: its gradient contributions must add
    out = _readout(rng, (7, 3))
    return lambda ps: out(ad.gather_rows(ps[0].tensor, idx)), [a]


def _scenario_take_per_row(rng):
    a = _param(rng, (4, 5), "a")
    idx = rng.integers(0, 5, size=4)
    out = _readout(rng, (4,))
    return lambda ps: out(ad.take_per_row(ps[0].tensor, idx)), [a]


def _scenario_stack_steps(rng):
    steps = [_param(rng, (2, 4), f"s{i}") for i in range(3)]
    out = _readout(rng, (6, 4))
    return lambda ps: out(ad.stack_steps([p.tensor for p in ps])), steps


def _scenario_segment_pool(rng):
    w, rows = _param(rng, (2, 3), "w"), _positive_param(rng, (6, 4), "rows")
    out = _readout(rng, (2, 4))
    return lambda ps: out(ad.segment_pool(ps[0].tensor, ps[1].tensor)), [w, rows]


def _scenario_sum_all(rng):
    a = _param(rng, (3, 4), "a")
    c = float(rng.uniform(0.5, 1.5))
    return lambda ps: ad.scale(ad.sum_all(ps[0].tensor), c), [a]


def _scenario_mean_all(rng):
    a = _param(rng, (3, 4), "a")
    c = float(rng.uniform(0.5, 1.5))
    return lambda ps: ad.scale(ad.mean_all(ps[0].tensor), c), [a]


OP_SCENARIOS = {
    "add": _scenario_add,
    "sub": _scenario_sub,
    "hadamard": _scenario_hadamard,
    "scale": _scenario_scale,
    "add_scalar": _scenario_add_scalar,
    "matmul": _scenario_matmul,
    "add_row": _scenario_add_row,
    "segment_mul": _scenario_segment_mul,
    "mask_rows": _scenario_mask_rows,
    "relu": _scenario_relu,
    "tanh": _scenario_tanh,
    "exp": _scenario_exp,
    "softplus": _scenario_softplus,
    "clamp": _scenario_clamp,
    "softmax": _scenario_softmax,
    "softmax_masked": _scenario_softmax_masked,
    "logsumexp_rows": _scenario_logsumexp_rows,
    "diag_part": _scenario_diag_part,
    "transpose": _scenario_transpose,
    "reshape": _scenario_reshape,
    "gather_rows": _scenario_gather_rows,
    "take_per_row": _scenario_take_per_row,
    "stack_steps": _scenario_stack_steps,
    "segment_pool": _scenario_segment_pool,
    "sum_all": _scenario_sum_all,
    "mean_all": _scenario_mean_all,
}


def run_op_trials(op_name: str, n_trials: int, seed: int = 0) -> float:
    """Run `n_trials` randomized finite-difference checks for one op.

    Returns the worst relative error seen across all trials.
    """
    build = OP_SCENARIOS[op_name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, hash(op_name) & 0xFFFF]))
    worst = 0.0
    for _ in range(n_trials):
        f, params = build(rng)
        worst = max(worst, ad.grad_check(f, params))
    return worst
