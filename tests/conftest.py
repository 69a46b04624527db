"""Shared fixtures: small datasets, a narrow model profile for fast runs,
and the Hypothesis profile every property test runs under."""

from __future__ import annotations

import pytest
from hypothesis import settings

from mibvqa import data as dt
from mibvqa import training
from mibvqa.encoders import ImageObjectFeatures, QueryTokens
from mibvqa.model import ModelConfig


# Property tests draw the same examples on every run, so a failure replays;
# each test keeps its own max_examples.
settings.register_profile("mibvqa", derandomize=True, deadline=None)
settings.load_profile("mibvqa")

# Narrow widths: every dimension cut so unit-level training runs take seconds.
TINY_WIDTHS = dict(d_h=12, d_q=12, d_ff=6, d_p=8, d_f=16, d_mlp=16, d_z=6)


def tiny_model_config(**flags) -> ModelConfig:
    return ModelConfig(**TINY_WIDTHS, **flags)


def split_batch(split, idx) -> tuple:
    """(features, tokens, labels) of a PreparedSplit's samples at idx, an
    index array or a slice."""
    return (ImageObjectFeatures(split.features.matrix[idx],
                                split.features.object_mask[idx]),
            QueryTokens(split.tokens.token_ids[idx], split.tokens.token_mask[idx]),
            split.labels[idx])


@pytest.fixture(autouse=True)
def no_shared_splits():
    """Every test starts with no split prepared and shared: a session
    dataset would otherwise carry one test's shared splits into the next,
    past a later test's counted or replaced prepare_split."""
    training._SHARED.clear()


@pytest.fixture(scope="session")
def small_dataset() -> dt.Dataset:
    """160 samples, default categories — shared by training/CLI-level tests."""
    return dt.generate_dataset(dt.DatasetConfig(n_samples=160, seed=7))


@pytest.fixture(scope="session")
def micro_dataset() -> dt.Dataset:
    """64 samples for the determinism checks that train twice."""
    return dt.generate_dataset(dt.DatasetConfig(n_samples=64, seed=9))
