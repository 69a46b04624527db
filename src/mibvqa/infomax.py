"""Multimodal information-bottleneck objective.

Two Gaussian encoders project the post-FC query and image features into a
low dimensional latent space (reparameterized sampling with caller-supplied
noise). The objective combines a contrastive mutual-information lower bound
between the paired latents (InfoNCE with a bilinear critic, bounded above
by log batch size) with the closed-form symmetrized KL between the two
conditional Gaussians, weighted by a learnable positive coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    DimensionError, Parameter, Tensor, add, add_row, add_scalar, clamp,
    diag_part, exp, hadamard, logsumexp_rows, matmul, mean_all, scale,
    softplus, sub, sum_all, transpose, uniform_init,
)

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0

# softplus(x) = 1  =>  x = ln(e - 1): neutral starting balance for the
# skl coefficient
GAMMA_RAW_INIT = math.log(math.e - 1.0)


@dataclass(frozen=True)
class GaussianLatent:
    """Diagonal-Gaussian latent: mean, clamped log-variance, and a sample.

    Tensors of shape [B, d_z]. The sample is mean + exp(log_var/2) * eps
    with eps supplied by the caller, so the encoder itself is deterministic
    and the sample differentiates w.r.t. mean and log_var with eps held
    fixed.
    """
    mean: Tensor
    log_var: Tensor
    sample: Tensor


@dataclass(frozen=True)
class InfoLoss:
    """The bottleneck objective and the two terms it combines.

    value = -mi_estimate + gamma * skl, where skl is the batch mean of the
    pairwise symmetrized KL.
    """
    mi_estimate: Tensor
    skl: Tensor
    value: Tensor


@dataclass(frozen=True)
class LossBreakdown:
    """All loss terms of one training step. final = ce + lam * info_loss exactly."""
    ce: Tensor
    mi_estimate: Tensor
    skl: Tensor
    info_loss: Tensor
    final: Tensor

    def values(self) -> dict:
        return {
            "ce": self.ce.item(),
            "mi_estimate": self.mi_estimate.item(),
            "skl": self.skl.item(),
            "info_loss": self.info_loss.item(),
            "final": self.final.item(),
        }


class BottleneckParams:
    """Mean/log-variance heads for both modalities, critic, and skl coefficient.

    The skl coefficient gamma is kept strictly positive by a softplus
    parameterization of the raw scalar.
    """

    def __init__(self, d_f: int, d_z: int = 16,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_z = d_z

        def head(prefix):
            return (
                Parameter(f"ib.{prefix}_mean_w", uniform_init(rng, (d_f, d_z), d_f)),
                Parameter(f"ib.{prefix}_mean_b", np.zeros(d_z)),
                Parameter(f"ib.{prefix}_logvar_w", uniform_init(rng, (d_f, d_z), d_f)),
                Parameter(f"ib.{prefix}_logvar_b", np.zeros(d_z)),
            )

        (self.q_mean_w, self.q_mean_b,
         self.q_logvar_w, self.q_logvar_b) = head("q")
        (self.h_mean_w, self.h_mean_b,
         self.h_logvar_w, self.h_logvar_b) = head("h")
        self.critic = Parameter("ib.critic", uniform_init(rng, (d_z, d_z), d_z))
        self.gamma_raw = Parameter("ib.gamma_raw", np.asarray(GAMMA_RAW_INIT))

    def parameters(self):
        return [self.q_mean_w, self.q_mean_b, self.q_logvar_w, self.q_logvar_b,
                self.h_mean_w, self.h_mean_b, self.h_logvar_w, self.h_logvar_b,
                self.critic, self.gamma_raw]

    def gamma(self) -> Tensor:
        """Effective skl coefficient, strictly positive."""
        return softplus(self.gamma_raw.tensor)


def encode_latent(x: Tensor, which: str, params: BottleneckParams,
                  noise: np.ndarray) -> GaussianLatent:
    """Apply the mean/log-variance heads of one modality and reparameterize.

    which: "phi" for the query branch, "psi" for the image branch.
    x: [B, d_f]; noise: [B, d_z] like the latent, zeros for the
    deterministic (evaluation) path.
    """
    if which == "phi":
        mw, mb = params.q_mean_w, params.q_mean_b
        vw, vb = params.q_logvar_w, params.q_logvar_b
    elif which == "psi":
        mw, mb = params.h_mean_w, params.h_mean_b
        vw, vb = params.h_logvar_w, params.h_logvar_b
    else:
        raise ValueError(f"unknown encoder {which!r}; expected 'phi' or 'psi'")
    mean = add_row(matmul(x, mw.tensor), mb.tensor)
    log_var = add_row(matmul(x, vw.tensor), vb.tensor)
    log_var = clamp(log_var, LOG_VAR_MIN, LOG_VAR_MAX)
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape != mean.shape:
        raise DimensionError(f"noise shape {eps.shape} != latent shape {mean.shape}")
    std = exp(scale(log_var, 0.5))
    sample = add(mean, hadamard(std, Tensor(eps)))
    return GaussianLatent(mean=mean, log_var=log_var, sample=sample)


def _kl_terms(p: GaussianLatent, q: GaussianLatent) -> Tensor:
    # elementwise 2*KL contribution: e^(lp-lq) + (mq-mp)^2 e^(-lq) + lq - lp - 1
    dlv = sub(p.log_var, q.log_var)
    dmean = sub(q.mean, p.mean)
    inv_var_q = exp(scale(q.log_var, -1.0))
    quad = hadamard(hadamard(dmean, dmean), inv_var_q)
    return add_scalar(add(sub(exp(dlv), dlv), quad), -1.0)


def skl_gaussian(p: GaussianLatent, q: GaussianLatent) -> Tensor:
    """Symmetrized KL between two diagonal Gaussians, closed form.

    Mean of the two KL directions, summed over latent dimensions. Zero iff
    the parameter vectors coincide. For batch latents [B, d_z] the result
    is the sum over the whole batch (divide by B for the per-pair mean).
    """
    if p.mean.shape != q.mean.shape:
        raise DimensionError(f"latent shapes differ: {p.mean.shape} vs {q.mean.shape}")
    two_kl_pq = _kl_terms(p, q)
    two_kl_qp = _kl_terms(q, p)
    # skl = 0.5*(kl_pq + kl_qp), each kl = 0.5*sum(terms)
    return scale(sum_all(add(two_kl_pq, two_kl_qp)), 0.25)


def mi_estimate(z_q: Tensor, z_h: Tensor, critic: Tensor) -> Tensor:
    """InfoNCE lower bound on the mutual information of paired latents.

    score(i, j) = z_q[i] @ critic @ z_h[j]; the estimate is
    mean_i [score(i,i) - logsumexp_j score(i,j)] + ln B, which is <= ln B
    for every input and exactly 0 at B = 1.
    """
    if z_q.shape != z_h.shape:
        raise DimensionError(f"latent batches differ: {z_q.shape} vs {z_h.shape}")
    b = z_q.shape[0]
    scores = matmul(matmul(z_q, critic), transpose(z_h))
    gap = sub(diag_part(scores), logsumexp_rows(scores))
    return add_scalar(mean_all(gap), math.log(b))


def info_loss(z_q: Tensor, z_h: Tensor, latents_q: GaussianLatent,
              latents_h: GaussianLatent, gamma: Tensor, critic: Tensor) -> InfoLoss:
    """-mi_estimate + gamma * (mean over the batch of pairwise symmetrized KL),
    returned together with the two terms it combines."""
    if latents_q.mean.shape != latents_h.mean.shape:
        raise DimensionError(
            f"latent batches differ: {latents_q.mean.shape} vs {latents_h.mean.shape}")
    mi = mi_estimate(z_q, z_h, critic)
    skl_mean = scale(skl_gaussian(latents_q, latents_h), 1.0 / z_q.shape[0])
    value = add(scale(mi, -1.0), hadamard(gamma, skl_mean))
    return InfoLoss(mi_estimate=mi, skl=skl_mean, value=value)


def total_loss(ce: Tensor, info: Tensor, lam: float = 1.0) -> Tensor:
    """ce + lam * info; lam = 0 recovers cross-entropy-only training."""
    return add(ce, scale(info, lam))
