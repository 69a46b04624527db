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
from .autodiff import DimensionError, Tensor, hadamard, no_grad
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


# Samples per image-half pass of VQAModel.predict; see the note at its loop.
EVAL_CHUNK = 128


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

    def _question(self, tokens: QueryTokens) -> Tensor:
        """The question half: the pooled query embedding q* [B, d_q]. It
        reads the question alone, so predict runs it once per distinct
        question."""
        q = encode_query(tokens, self.encoders)
        if self.attention is not None:
            return query_attention(q, tokens.token_mask, self.attention).pooled
        return masked_mean(q, tokens.token_mask)

    def _fused(self, features: ImageObjectFeatures, q_star: Tensor) -> Tensor:
        """The image half: the fused vector f_q ⊙ f_h [B, d_f] of the post-FC
        query and image embeddings, given each sample's q* [B, d_q]."""
        h = encode_image(features, self.encoders)
        if self.attention is not None:
            h_star = image_attention(h, q_star, features.object_mask,
                                     self.attention).pooled
        else:
            h_star = masked_mean(h, features.object_mask)
        return hadamard(project_query(q_star, self.fusion),
                        project_image(h_star, self.fusion))

    def _logits(self, features: ImageObjectFeatures, q_star: Tensor) -> Tensor:
        fused = self._fused(features, q_star)
        if self.bottleneck is not None:
            fused = latent_mean(fused, self.bottleneck)
        return classify(fused, self.fusion)

    def logits(self, features: ImageObjectFeatures, tokens: QueryTokens) -> Tensor:
        """Answer logits [B, len(ANSWERS)] of a batch, one question half per
        row. With the bottleneck, the classifier reads the latent mean: only
        the mean head runs, with no log-variance head and no noise."""
        return self._logits(features, self._question(tokens))

    def predict(self, features: ImageObjectFeatures,
                tokens: QueryTokens) -> np.ndarray:
        """Answer index per sample, from the logits, so no sampling is
        involved. Runs under no_grad: no graph is recorded. The question
        half runs once per distinct (token ids, token mask) row of the whole
        input, and the image half in chunks of EVAL_CHUNK samples, each
        gathering its rows' q* by index."""
        ids, mask = np.asarray(tokens.token_ids), np.asarray(tokens.token_mask)
        if mask.shape != ids.shape or len(ids) != len(features.matrix):
            raise DimensionError(f"token ids {ids.shape} and mask {mask.shape} "
                                 f"for {len(features.matrix)} scenes")
        # each row keyed by its bytes: a 1-D key, so the inverse has one
        # shape on every NumPy
        rows = np.column_stack((ids, mask))
        key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        answers = np.empty(len(ids), dtype=np.intp)
        with no_grad():
            q_star = self._question(QueryTokens(ids[first], mask[first])).data
            # A pass holds several [chunk * t, d] intermediates, so memory
            # grows with the chunk. Median ms of one predict over the
            # 500-sample test split (3 processes x 40 passes; 2-core x86-64,
            # NumPy 2.4, one BLAS thread) after importing the dataset and
            # checkpoint (fresh, as `mibvqa eval`) or after generating and
            # training one epoch in the process (trained, as eval_split):
            #   chunk     32     64     128    256    512
            #   fresh     3.72   3.13   3.46   3.88   6.86
            #   trained   5.09   2.53   2.65   2.41   6.06
            # A pass over 2,000 samples takes no minor page fault up to 128
            # in either state; about 4,300 at 256 fresh and at 512 in both.
            for start in range(0, len(ids), EVAL_CHUNK):
                chunk = slice(start, start + EVAL_CHUNK)
                answers[chunk] = predict(self._logits(
                    ImageObjectFeatures(features.matrix[chunk],
                                        features.object_mask[chunk]),
                    Tensor(q_star[which[chunk]])))
        return answers

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
        fused = self._fused(features, self._question(tokens))
        if self.bottleneck is None:
            ce = cross_entropy(classify(fused, self.fusion), labels)
            return LossBreakdown(ce=ce, skl=Tensor(np.zeros(())), final=ce)
        latent = encode_latent(fused, self.bottleneck,
                               rng.standard_normal((len(labels), self.config.d_z)))
        ce = cross_entropy(classify(latent.sample, self.fusion), labels)
        skl = info_loss(latent)
        return LossBreakdown(ce=ce, skl=skl, final=total_loss(ce, skl, lam))
