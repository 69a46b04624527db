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
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import (
    Tensor, add, clamp, gaussian_sample, gaussian_skl, hadamard, info_nce,
    linear, scale, softplus, uniform_init,
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
class LossBreakdown:
    """All loss terms of one training step. final = ce + lam * info_loss exactly."""
    ce: Tensor
    mi_estimate: Tensor
    skl: Tensor
    info_loss: Tensor
    final: Tensor

    def values(self) -> dict:
        """Each term's float value by field name, in field order."""
        return {f.name: getattr(self, f.name).item() for f in fields(self)}


class BottleneckParams:
    """Mean/log-variance heads for both modalities, critic, and skl coefficient.

    The skl coefficient gamma is kept strictly positive by a softplus
    parameterization of the raw scalar.
    """

    def __init__(self, d_f: int, d_z: int, rng: np.random.Generator):

        def layer():
            return (Tensor(uniform_init(rng, (d_f, d_z), d_f), requires_grad=True),
                    Tensor(np.zeros(d_z), requires_grad=True))

        self.q_mean_w, self.q_mean_b = layer()
        self.q_logvar_w, self.q_logvar_b = layer()
        self.h_mean_w, self.h_mean_b = layer()
        self.h_logvar_w, self.h_logvar_b = layer()
        self.critic = Tensor(uniform_init(rng, (d_z, d_z), d_z), requires_grad=True)
        self.gamma_raw = Tensor(GAMMA_RAW_INIT, requires_grad=True)

    def gamma(self) -> Tensor:
        """Effective skl coefficient, strictly positive."""
        return softplus(self.gamma_raw)


def encode_latent(x: Tensor, which: str, params: BottleneckParams,
                  noise: np.ndarray) -> GaussianLatent:
    """Apply the mean/log-variance heads of one modality and reparameterize.

    which: "phi" for the query branch, "psi" for the image branch.
    x: [B, d_f]; noise: [B, d_z] standard-normal draws like the latent.
    Only training runs this; evaluation never touches the bottleneck.
    """
    if which == "phi":
        mw, mb = params.q_mean_w, params.q_mean_b
        vw, vb = params.q_logvar_w, params.q_logvar_b
    elif which == "psi":
        mw, mb = params.h_mean_w, params.h_mean_b
        vw, vb = params.h_logvar_w, params.h_logvar_b
    else:
        raise ValueError(f"unknown encoder {which!r}; expected 'phi' or 'psi'")
    mean = linear(x, mw, mb)
    log_var = clamp(linear(x, vw, vb), LOG_VAR_MIN, LOG_VAR_MAX)
    return GaussianLatent(mean=mean, log_var=log_var,
                          sample=gaussian_sample(mean, log_var, noise))


def info_loss(lat_q: GaussianLatent, lat_h: GaussianLatent,
              params: BottleneckParams) -> tuple:
    """(mi_estimate, skl, value) of the bottleneck objective on the two
    latents' samples and Gaussians: mi_estimate is InfoNCE under
    params.critic, skl the batch mean of the pairwise symmetrized KL, and
    value = -mi_estimate + params.gamma() * skl. Both nodes check that the
    two latents' shapes agree (DimensionError)."""
    mi = info_nce(lat_q.sample, lat_h.sample, params.critic)
    skl = gaussian_skl(lat_q.mean, lat_q.log_var, lat_h.mean, lat_h.log_var)
    skl_mean = scale(skl, 1.0 / lat_q.sample.shape[0])
    value = add(scale(mi, -1.0), hadamard(params.gamma(), skl_mean))
    return mi, skl_mean, value


def total_loss(ce: Tensor, info: Tensor, lam: float) -> Tensor:
    """ce + lam * info; lam = 0 recovers cross-entropy-only training."""
    return add(ce, scale(info, lam))
