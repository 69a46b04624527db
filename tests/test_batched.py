"""The batched model against the per-sample reference in helpers_oracles.

The model builds one graph per minibatch; the reference builds one graph per
sample from the engine's general ops. Logits, all five loss terms and every
parameter gradient must agree within TOL, for every flag variant and for
batches at the padding extremes. Evaluation must predict what the reference
predicts, and training must stay bit-for-bit reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import tiny_model_config
from helpers_oracles import reference_forward, reference_loss
from mibvqa.autodiff import backward
from mibvqa.encoders import ImageObjectFeatures, QueryTokens
from mibvqa.model import VQAModel
from mibvqa.training import (
    TrainConfig, compute_metrics, evaluate_model, prepare_split, train,
)

TOL = 1e-10
LAM = 0.7
# (enable_cross_attention, enable_infomax)
VARIANTS = [(True, True), (True, False), (False, True), (False, False)]


def make_model(dataset, cross: bool, infomax: bool, seed: int = 3) -> VQAModel:
    cfg = TrainConfig(enable_cross_attention=cross, enable_infomax=infomax)
    return VQAModel(tiny_model_config(dataset, cfg), seed=seed)


def _grads(model, loss) -> dict:
    for p in model.parameters():
        p.grad = None
    backward(loss)
    return {p.name: p.grad for p in model.parameters()}


def assert_matches_reference(model, features, tokens, labels, rng) -> None:
    b, d_z = len(labels), model.config.d_z
    noise_q = rng.standard_normal((b, d_z))
    noise_h = rng.standard_normal((b, d_z))

    batched = model.loss_batch(features, tokens, labels, lam=LAM,
                               noise_q=noise_q, noise_h=noise_h)
    batched_grads = _grads(model, batched.final)
    ref_logits, ref = reference_loss(model, features, tokens, labels, LAM,
                                     noise_q, noise_h)
    ref_grads = _grads(model, ref.final)

    logits = model.logits(features, tokens).data
    assert logits.shape == ref_logits.shape == (b, model.config.n_classes)
    assert np.abs(logits - ref_logits.data).max() < TOL
    for term, value in batched.values().items():
        assert abs(value - ref.values()[term]) < TOL, term
    for name, grad in batched_grads.items():
        assert grad is not None and ref_grads[name] is not None, name
        assert np.abs(grad - ref_grads[name]).max() < TOL, name


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_random_batches_match_reference(small_dataset, cross, infomax):
    model = make_model(small_dataset, cross, infomax)
    split = prepare_split(small_dataset, "train")
    rng = np.random.default_rng(17)
    for size in (8, 5):
        idx = rng.choice(len(split), size=size, replace=False)
        assert_matches_reference(model, *split.batch(idx), rng)


def synthetic_batch(config, n_objects, n_tokens, rng):
    """Random inputs with the given real-object and real-token counts per
    sample; padding is zero features and PAD (id 0) tokens."""
    b, t, k = len(n_objects), config.t_max, config.k_max
    matrix = np.zeros((b, t, config.d_raw))
    ids = np.zeros((b, k), dtype=np.int64)
    for i, (n_obj, n_tok) in enumerate(zip(n_objects, n_tokens)):
        matrix[i, :n_obj] = rng.uniform(0.0, 1.0, (n_obj, config.d_raw))
        ids[i, :n_tok] = rng.integers(1, config.vocab_size, n_tok)
    features = ImageObjectFeatures(matrix, np.arange(t) < np.array(n_objects)[:, None])
    tokens = QueryTokens(ids, np.arange(k) < np.array(n_tokens)[:, None])
    labels = rng.integers(0, config.n_classes, b)
    return features, tokens, labels


# name -> (objects per sample, tokens per sample); t_max = 16, k_max = 12
EDGE_BATCHES = {
    "one-sample": ([10], [7]),
    "one-object": ([1, 1, 1], [5, 8, 3]),
    "one-token": ([10, 4, 7], [1, 1, 1]),
    "all-16-objects": ([16, 16], [6, 9]),
    "all-12-tokens": ([9, 3], [12, 12]),
    "mixed-padding": ([1, 16, 5, 10, 16, 2], [12, 1, 4, 12, 7, 1]),
}


@pytest.mark.parametrize("cross", [True, False])
@pytest.mark.parametrize("case", sorted(EDGE_BATCHES))
def test_edge_batches_match_reference(small_dataset, case, cross):
    model = make_model(small_dataset, cross, infomax=True)
    assert (model.config.t_max, model.config.k_max) == (16, 12)
    rng = np.random.default_rng(sorted(EDGE_BATCHES).index(case))
    n_objects, n_tokens = EDGE_BATCHES[case]
    assert_matches_reference(
        model, *synthetic_batch(model.config, n_objects, n_tokens, rng), rng)


def test_evaluate_model_predicts_what_the_reference_predicts(small_dataset):
    cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=2e-3, seed=5)
    model = train(cfg, small_dataset,
                  model_config=tiny_model_config(small_dataset, cfg)).model
    for split_name in ("train", "test"):  # the train split spans two chunks
        split = prepare_split(small_dataset, split_name)
        features, tokens = split.features, split.tokens
        expected = [
            int(np.argmax(reference_forward(
                model, features.matrix[i], features.object_mask[i],
                tokens.token_ids[i], tokens.token_mask[i])[0].data))
            for i in range(len(split))]
        assert model.predict(features, tokens).tolist() == expected
        metrics = evaluate_model(model, small_dataset, split_name)
        reference = compute_metrics(split.labels.tolist(), expected, split.categories)
        assert metrics.to_dict() == reference.to_dict()


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_identical_train_runs_are_bit_identical(micro_dataset, cross, infomax):
    # batch 10 leaves a short final batch in every epoch
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=2e-3, seed=4,
                      enable_cross_attention=cross, enable_infomax=infomax)
    mc = tiny_model_config(micro_dataset, cfg)
    first = train(cfg, micro_dataset, model_config=mc)
    second = train(cfg, micro_dataset, model_config=mc)
    assert len(first.step_records) > 0
    assert first.step_records == second.step_records
