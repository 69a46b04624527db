"""Variational information bottleneck on the fused vector.

One Gaussian head maps the fused query-image vector to a low dimensional
latent, and the classifier reads that latent (Alemi et al. 2017, arXiv
1612.00410). In training the classifier reads a reparameterized sample,
drawn with caller-supplied noise, and the objective adds lam times the
closed-form symmetrized KL between the latent's Gaussian and the standard
normal prior, so lam is the bottleneck's beta. In evaluation the classifier
reads the latent mean. The log-variance head is one linear_clamp node, the
batch-mean KL to the prior one prior_skl node and the objective one
add_scaled node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor, add_scaled, gaussian_sample, linear, linear_clamp, prior_skl,
    uniform_init,
)

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


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
    """All loss terms of one training step. final = ce + lam * skl exactly."""
    ce: Tensor
    skl: Tensor
    final: Tensor

    def values(self) -> dict:
        """Each term's float value by field name, in field order."""
        return {"ce": self.ce.item(), "skl": self.skl.item(),
                "final": self.final.item()}


class BottleneckParams:
    """Mean and log-variance heads from the fused width d_f to the latent
    width d_z."""

    def __init__(self, d_f: int, d_z: int, rng: np.random.Generator):

        def layer():
            return (Tensor(uniform_init(rng, (d_f, d_z), d_f), requires_grad=True),
                    Tensor(np.zeros(d_z), requires_grad=True))

        self.mean_w, self.mean_b = layer()
        self.logvar_w, self.logvar_b = layer()


def latent_mean(x: Tensor, params: BottleneckParams) -> Tensor:
    """The mean head alone, [B, d_z] from x [B, d_f]: what evaluation reads."""
    return linear(x, params.mean_w, params.mean_b)


def encode_latent(x: Tensor, params: BottleneckParams,
                  noise: np.ndarray) -> GaussianLatent:
    """Apply the mean and log-variance heads and reparameterize.

    x: [B, d_f]; noise: [B, d_z] standard-normal draws like the latent.
    Only training runs this; evaluation runs latent_mean.
    """
    mean = latent_mean(x, params)
    log_var = linear_clamp(x, params.logvar_w, params.logvar_b,
                           LOG_VAR_MIN, LOG_VAR_MAX)
    return GaussianLatent(mean=mean, log_var=log_var,
                          sample=gaussian_sample(mean, log_var, noise))


def info_loss(latent: GaussianLatent) -> Tensor:
    """Batch mean of the symmetrized KL between the latent's Gaussian and
    the standard normal prior N(0, I), one prior_skl node: the 1/B mean is
    folded into the node and the prior is no tensor. The node checks that
    the mean and the log-variance agree in shape (DimensionError)."""
    return prior_skl(latent.mean, latent.log_var)


def total_loss(ce: Tensor, info: Tensor, lam: float) -> Tensor:
    """ce + lam * info, one add_scaled node; lam = 0 recovers
    cross-entropy-only training."""
    return add_scaled(ce, info, lam)
