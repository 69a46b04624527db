"""Full VQA model: encoders, optional attention, fusion, optional bottleneck.

The weights are allocated in a fixed order (encoders, attention if enabled,
fusion, bottleneck if enabled; within a group, the order its attributes are
set) from a single seeded generator, so a (config, seed) pair pins every
initial weight. Every attribute of a group is one trainable leaf
Tensor; VQAModel.parameters() names it <group>.<attribute> with the group
prefixes enc, att, fus and ib, so name order is allocation order.
Disabling a block removes its parameters entirely rather than zeroing
them out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .attention import AttentionParams, image_attention, query_attention
from .autodiff import Tensor, hadamard, no_grad
from .data import ANSWERS, FEATURE_WIDTH, VOCABULARY, check_field_types
from .encoders import (
    EncoderParams, ImageObjectFeatures, QueryTokens, encode_image, encode_query,
    masked_mean,
)
from .fusion import (
    FusionParams, classify, cross_entropy, predict, project_image, project_query,
)
from .infomax import (
    BottleneckParams, LossBreakdown, encode_latent, info_loss, total_loss,
)


@dataclass(frozen=True)
class ModelConfig:
    """The architecture: every layer width plus the two flags that switch
    the attention blocks and the bottleneck on and off. The input and output
    sizes are the data format's: len(VOCABULARY), FEATURE_WIDTH and
    len(ANSWERS)."""
    d_h: int = 32
    d_q: int = 32
    d_ff: int = 16
    d_p: int = 32
    d_f: int = 64
    d_mlp: int = 64
    d_z: int = 16
    enable_cross_attention: bool = True
    enable_infomax: bool = True

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is int and value <= 0:
                raise ValueError(f"ModelConfig.{f.name} must be positive")


class VQAModel:
    """Bundles all parameter groups and the forward/loss computations."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        self.encoders = EncoderParams(len(VOCABULARY), config.d_q, FEATURE_WIDTH,
                                      config.d_h, rng)
        self.attention = (AttentionParams(config.d_q, config.d_h, config.d_ff,
                                          config.d_p, rng)
                          if config.enable_cross_attention else None)
        self.fusion = FusionParams(config.d_q, config.d_h, len(ANSWERS),
                                   config.d_f, config.d_mlp, rng)
        self.bottleneck = (BottleneckParams(config.d_f, config.d_z, rng)
                           if config.enable_infomax else None)

    def parameters(self) -> dict:
        """Every trainable leaf tensor by name, in allocation order."""
        groups = (("enc", self.encoders), ("att", self.attention),
                  ("fus", self.fusion), ("ib", self.bottleneck))
        return {f"{prefix}.{attribute}": tensor
                for prefix, group in groups if group is not None
                for attribute, tensor in vars(group).items()}

    def _forward(self, features: ImageObjectFeatures,
                 tokens: QueryTokens) -> tuple:
        """Logits [B, len(ANSWERS)] plus the post-FC embeddings f_q, f_h [B, d_f]
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
        """Answer logits [B, len(ANSWERS)] of a batch."""
        return self._forward(features, tokens)[0]

    def predict(self, features: ImageObjectFeatures,
                tokens: QueryTokens) -> np.ndarray:
        """Answer index per sample; never touches the bottleneck, so no
        sampling involved. Runs under no_grad: no graph is recorded."""
        with no_grad():
            return predict(self.logits(features, tokens))

    def loss_batch(self, features: ImageObjectFeatures, tokens: QueryTokens,
                   labels: np.ndarray, lam: float,
                   rng: np.random.Generator) -> LossBreakdown:
        """All loss terms over one batch, built as a single graph.

        With the bottleneck enabled, final = ce + lam * info_loss (lam = 0
        still routes zero gradient to the bottleneck weights, keeping the
        optimizer contract intact), and its two samples reparameterize
        rng.standard_normal((B, d_z)) draws: the query latent's, then the
        image latent's. With it disabled, rng is not drawn from, final IS
        the cross-entropy tensor and the info terms are constants.
        """
        logits, f_q, f_h = self._forward(features, tokens)
        ce = cross_entropy(logits, labels)
        if self.bottleneck is None:
            zero = Tensor(np.zeros(()))
            return LossBreakdown(ce=ce, mi_estimate=zero, skl=zero,
                                 info_loss=zero, final=ce)
        shape = (len(labels), self.config.d_z)
        lat_q = encode_latent(f_q, "phi", self.bottleneck, rng.standard_normal(shape))
        lat_h = encode_latent(f_h, "psi", self.bottleneck, rng.standard_normal(shape))
        mi, skl, info = info_loss(lat_q, lat_h, self.bottleneck)
        return LossBreakdown(ce=ce, mi_estimate=mi, skl=skl, info_loss=info,
                             final=total_loss(ce, info, lam))
