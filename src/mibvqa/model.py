"""Full VQA model: encoders, optional attention, fusion, optional bottleneck.

Parameter allocation order is fixed (encoders, attention if enabled, fusion,
bottleneck if enabled) and drawn from a single seeded generator, so a
(config, seed) pair pins every initial weight. Disabling a block removes
its parameters entirely rather than zeroing them out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .attention import AttentionParams, image_attention, query_attention
from .autodiff import Tensor, hadamard
from .encoders import (
    EmbeddingConfig, EncoderParams, ImageObjectFeatures, QueryTokens,
    encode_image, encode_query, masked_mean,
)
from .fusion import (
    FusionParams, classify, cross_entropy, predict, project_image, project_query,
)
from .infomax import (
    BottleneckParams, LossBreakdown, encode_latent, info_loss, total_loss,
)


@dataclass(frozen=True)
class ModelConfig:
    """All widths plus the two architecture flags."""
    d_h: int = 32
    d_q: int = 32
    d_ff: int = 16
    d_p: int = 32
    d_f: int = 64
    d_mlp: int = 64
    d_z: int = 16
    t_max: int = 16
    k_max: int = 12
    vocab_size: int = 29
    d_raw: int = 8
    n_classes: int = 19
    enable_cross_attention: bool = True
    enable_infomax: bool = True

    def __post_init__(self):
        for name in ("d_h", "d_q", "d_ff", "d_p", "d_f", "d_mlp", "d_z",
                     "t_max", "k_max", "vocab_size", "d_raw", "n_classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ModelConfig.{name} must be positive")

    def embedding_config(self) -> EmbeddingConfig:
        return EmbeddingConfig(d_h=self.d_h, d_q=self.d_q, t_max=self.t_max,
                               k_max=self.k_max, vocab_size=self.vocab_size,
                               d_raw=self.d_raw)

    def with_flags(self, cross_attention: bool, infomax: bool) -> "ModelConfig":
        return replace(self, enable_cross_attention=cross_attention,
                       enable_infomax=infomax)


class VQAModel:
    """Bundles all parameter groups and the forward/loss computations."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self.encoders = EncoderParams(config.embedding_config(), rng)
        self.attention = (AttentionParams(config.d_q, config.d_h, config.d_ff,
                                          config.d_p, rng)
                          if config.enable_cross_attention else None)
        self.fusion = FusionParams(config.d_q, config.d_h, config.n_classes,
                                   config.d_f, config.d_mlp, rng)
        self.bottleneck = (BottleneckParams(config.d_f, config.d_z, rng)
                           if config.enable_infomax else None)

    def parameters(self) -> list:
        params = list(self.encoders.parameters())
        if self.attention is not None:
            params.extend(self.attention.parameters())
        params.extend(self.fusion.parameters())
        if self.bottleneck is not None:
            params.extend(self.bottleneck.parameters())
        return params

    def parameter_map(self) -> dict:
        return {p.name: p for p in self.parameters()}

    def n_parameters(self) -> int:
        return sum(p.tensor.data.size for p in self.parameters())

    def _forward(self, features: ImageObjectFeatures,
                 tokens: QueryTokens) -> tuple:
        """Logits [B, n_classes] plus the post-FC embeddings f_q, f_h [B, d_f]
        that feed both the Hadamard fusion and the bottleneck encoders."""
        h = encode_image(features, self.encoders)
        q = encode_query(tokens, self.encoders)
        if self.attention is not None:
            q_star = query_attention(q, tokens.token_mask, self.attention).pooled
            h_star = image_attention(h, q_star, features.object_mask,
                                     self.attention).pooled
        else:
            q_star = masked_mean(q, tokens.token_mask)
            h_star = masked_mean(h, features.object_mask)
        f_q = project_query(q_star, self.fusion)
        f_h = project_image(h_star, self.fusion)
        return classify(hadamard(f_q, f_h), self.fusion), f_q, f_h

    def logits(self, features: ImageObjectFeatures, tokens: QueryTokens) -> Tensor:
        """Answer logits [B, n_classes] of a batch."""
        return self._forward(features, tokens)[0]

    def predict(self, features: ImageObjectFeatures,
                tokens: QueryTokens) -> np.ndarray:
        """Answer index per sample; never touches the bottleneck, so no
        sampling involved."""
        return predict(self.logits(features, tokens))

    def loss_batch(self, features: ImageObjectFeatures, tokens: QueryTokens,
                   labels: np.ndarray, lam: float = 1.0,
                   noise_q: Optional[np.ndarray] = None,
                   noise_h: Optional[np.ndarray] = None) -> LossBreakdown:
        """All loss terms over one batch, built as a single graph.

        With the bottleneck enabled, final = ce + lam * info_loss (lam = 0
        still routes zero gradient to the bottleneck weights, keeping the
        optimizer contract intact). With it disabled, final IS the
        cross-entropy tensor and the info terms are constants.
        """
        b = len(labels)
        if b == 0:
            raise ValueError("loss_batch: empty batch")
        logits, f_q, f_h = self._forward(features, tokens)
        ce = cross_entropy(logits, labels)
        if self.bottleneck is None:
            zero = Tensor(np.zeros(()))
            return LossBreakdown(ce=ce, mi_estimate=zero, skl=zero,
                                 info_loss=zero, final=ce)
        if noise_q is None:
            noise_q = np.zeros((b, self.config.d_z))
        if noise_h is None:
            noise_h = np.zeros((b, self.config.d_z))
        lat_q = encode_latent(f_q, "phi", self.bottleneck, noise_q)
        lat_h = encode_latent(f_h, "psi", self.bottleneck, noise_h)
        info = info_loss(lat_q.sample, lat_h.sample, lat_q, lat_h,
                         self.bottleneck.gamma(), self.bottleneck.critic.tensor)
        final = total_loss(ce, info.value, lam)
        return LossBreakdown(ce=ce, mi_estimate=info.mi_estimate, skl=info.skl,
                             info_loss=info.value, final=final)
