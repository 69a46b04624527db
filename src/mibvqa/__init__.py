"""Desk-scale VQA: attention fusion plus a multimodal information bottleneck.

A from-scratch reverse-mode autodiff engine trains a model that encodes a
symbolic grid scene and a templated question, attends over both modalities,
fuses them by Hadamard product, and classifies the answer from a
variational information bottleneck's latent code of the fused vector.
"""

from .data import (
    DatasetConfig, DatasetFormatError, export_dataset, generate_dataset,
    import_dataset,
)
from .model import ModelConfig
from .training import (
    CheckpointError, DivergenceError, TrainConfig, ablate, evaluate,
    load_checkpoint, save_checkpoint, train,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "DatasetConfig", "DatasetFormatError", "DivergenceError",
    "ModelConfig", "TrainConfig", "ablate", "evaluate", "export_dataset",
    "generate_dataset", "import_dataset", "load_checkpoint", "save_checkpoint",
    "train",
]
