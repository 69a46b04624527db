"""Desk-scale VQA: attention fusion plus a multimodal information bottleneck.

A from-scratch reverse-mode autodiff engine trains a model that encodes a
symbolic grid scene and a templated question, attends over both modalities,
fuses them by Hadamard product, and classifies the answer while a
contrastive information-bottleneck term regularizes the paired latents.
"""

from .autodiff import (
    Adam, DimensionError, InvalidMaskError, MissingGradientError, Parameter,
    RankError, Tensor, backward, grad_check,
)
from .attention import AttentionParams, AttentionResult, image_attention, query_attention
from .data import (
    AREA_BIN_EDGES, AREA_BIN_LABELS, CATEGORIES, OBJECT_CLASSES, VOCABULARY,
    Dataset, DatasetConfig, DatasetFormatError, Scene, SceneObject, TemplateError,
    VQASample, answer_oracle, audit_dataset, build_answer_space, export_dataset,
    generate_dataset, import_dataset,
)
from .encoders import (
    EmbeddingConfig, EncoderParams, ImageObjectFeatures, QueryTokens,
    VocabularyError, encode_image, encode_query, masked_mean,
)
from .fusion import AnswerSpace, FusionParams, LabelError, cross_entropy, predict
from .infomax import (
    BottleneckParams, GaussianLatent, LossBreakdown, encode_latent, info_loss,
    mi_estimate, skl_gaussian, total_loss,
)
from .model import ModelConfig, VQAModel
from .training import (
    AblationResult, Checkpoint, CheckpointError, DivergenceError, Metrics,
    TrainConfig, TrainResult, ablate, build_model, compute_metrics, evaluate,
    evaluate_model, load_checkpoint, save_checkpoint, train,
)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AblationResult", "AnswerSpace", "AttentionParams", "AttentionResult",
    "AREA_BIN_EDGES", "AREA_BIN_LABELS", "BottleneckParams", "CATEGORIES",
    "Checkpoint", "CheckpointError", "Dataset", "DatasetConfig",
    "DatasetFormatError", "DimensionError", "DivergenceError", "EmbeddingConfig",
    "EncoderParams", "FusionParams", "GaussianLatent",
    "ImageObjectFeatures", "InvalidMaskError", "LabelError", "LossBreakdown",
    "Metrics", "MissingGradientError", "ModelConfig", "OBJECT_CLASSES",
    "Parameter", "QueryTokens", "RankError", "Scene", "SceneObject",
    "TemplateError", "Tensor", "TrainConfig", "TrainResult", "VOCABULARY",
    "VQAModel", "VQASample", "VocabularyError", "ablate", "answer_oracle",
    "audit_dataset", "backward", "build_answer_space", "build_model",
    "compute_metrics", "cross_entropy", "encode_image", "encode_latent",
    "encode_query", "evaluate", "evaluate_model", "export_dataset",
    "generate_dataset", "grad_check", "image_attention", "import_dataset",
    "info_loss", "load_checkpoint", "masked_mean", "mi_estimate", "predict",
    "query_attention", "save_checkpoint", "skl_gaussian", "total_loss", "train",
]
