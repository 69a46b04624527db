"""Full VQA model: encoders, optional attention, fusion, optional
bottleneck, classifier.

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
from .data import ANSWERS, FEATURE_WIDTH, MAX_WIDTH, VOCABULARY, check_field_types
from .encoders import (
    EncoderParams, ImageObjectFeatures, QueryTokens, encode_image, encode_query,
    masked_mean,
)
from .fusion import (
    FusionParams, classify, cross_entropy, predict, project_image, project_query,
)
from .infomax import (
    BottleneckParams, LossBreakdown, encode_latent, info_loss, latent_mean,
    total_loss,
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
            if type(value) is int and value > MAX_WIDTH:
                raise ValueError(f"ModelConfig.{f.name} must be at most {MAX_WIDTH}, "
                                 f"got {value}")


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
        self.fusion = FusionParams(
            config.d_q, config.d_h, len(ANSWERS), config.d_f,
            config.d_z if config.enable_infomax else config.d_f, config.d_mlp, rng)
        self.bottleneck = (BottleneckParams(config.d_f, config.d_z, rng)
                           if config.enable_infomax else None)

    def parameters(self) -> dict:
        """Every trainable leaf tensor by name, in allocation order."""
        groups = (("enc", self.encoders), ("att", self.attention),
                  ("fus", self.fusion), ("ib", self.bottleneck))
        return {f"{prefix}.{attribute}": tensor
                for prefix, group in groups if group is not None
                for attribute, tensor in vars(group).items()}

    def _fused(self, features: ImageObjectFeatures,
               tokens: QueryTokens) -> Tensor:
        """The fused vector f_q ⊙ f_h [B, d_f] of the post-FC query and image
        embeddings."""
        h = encode_image(features, self.encoders)
        q = encode_query(tokens, self.encoders)
        if self.attention is not None:
            q_star = query_attention(q, tokens.token_mask, self.attention).pooled
            h_star = image_attention(h, q_star, features.object_mask,
                                     self.attention).pooled
        else:
            q_star = masked_mean(q, tokens.token_mask)
            h_star = masked_mean(h, features.object_mask)
        return hadamard(project_query(q_star, self.fusion),
                        project_image(h_star, self.fusion))

    def logits(self, features: ImageObjectFeatures, tokens: QueryTokens) -> Tensor:
        """Answer logits [B, len(ANSWERS)] of a batch. With the bottleneck,
        the classifier reads the latent mean: only the mean head runs, with
        no log-variance head and no noise."""
        fused = self._fused(features, tokens)
        if self.bottleneck is not None:
            fused = latent_mean(fused, self.bottleneck)
        return classify(fused, self.fusion)

    def predict(self, features: ImageObjectFeatures,
                tokens: QueryTokens) -> np.ndarray:
        """Answer index per sample, from the logits, so no sampling is
        involved. Runs under no_grad: no graph is recorded."""
        with no_grad():
            return predict(self.logits(features, tokens))

    def loss_batch(self, features: ImageObjectFeatures, tokens: QueryTokens,
                   labels: np.ndarray, lam: float,
                   rng: np.random.Generator) -> LossBreakdown:
        """All loss terms over one batch, built as a single graph.

        With the bottleneck enabled, the classifier reads the latent sample,
        which reparameterizes one rng.standard_normal((B, d_z)) draw, and
        final = ce + lam * skl; both heads lie on the cross-entropy's path,
        so each gets a gradient at any lam. With it disabled, rng is not
        drawn from, final IS the cross-entropy tensor and skl is a constant
        zero.
        """
        fused = self._fused(features, tokens)
        if self.bottleneck is None:
            ce = cross_entropy(classify(fused, self.fusion), labels)
            return LossBreakdown(ce=ce, skl=Tensor(np.zeros(())), final=ce)
        latent = encode_latent(fused, self.bottleneck,
                               rng.standard_normal((len(labels), self.config.d_z)))
        ce = cross_entropy(classify(latent.sample, self.fusion), labels)
        skl = info_loss(latent)
        return LossBreakdown(ce=ce, skl=skl, final=total_loss(ce, skl, lam))
