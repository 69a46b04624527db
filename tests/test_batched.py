"""The batched model against the per-sample reference in helpers_oracles.

The model builds one graph per minibatch; the reference builds one graph per
sample from the engine's general ops. Logits, all three loss terms and every
parameter gradient must agree within TOL, for every flag variant and for
batches at the padding extremes. A prepared split, cut to its largest scene
and longest question, must give what the same samples give at the full
t_max/k_max width. Garbage in padded image rows must change nothing.
Evaluation must predict what the reference predicts; predict, which runs the
question half once per distinct question, must predict what the per-row
logits predict. Training must stay bit-for-bit reproducible.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import split_batch, tiny_model_config
from helpers_oracles import reference_forward, reference_loss
from mibvqa import autodiff
from mibvqa import data as dt
from mibvqa import model as model_module
from mibvqa.autodiff import DimensionError, backward
from mibvqa.data import query_tokens, scene_features
from mibvqa.encoders import ImageObjectFeatures, QueryTokens, encode_image
from mibvqa.fusion import predict
from mibvqa.model import VQAModel
from mibvqa.training import (
    PreparedSplit, TrainConfig, compute_metrics, evaluate_model, prepare_split,
    train,
)

TOL = 1e-10
LAM = 0.7
# (enable_cross_attention, enable_infomax)
VARIANTS = [(True, True), (True, False), (False, True), (False, False)]


def make_model(cross: bool, infomax: bool, seed: int = 3) -> VQAModel:
    mc = tiny_model_config(enable_cross_attention=cross,
                           enable_infomax=infomax)
    return VQAModel(mc, seed=seed)


def _grads(model, loss) -> dict:
    params = model.parameters()
    for p in params.values():
        p.grad = None
    backward(loss)
    return {name: p.grad for name, p in params.items()}


def assert_matches_reference(model, features, tokens, labels, rng) -> None:
    b, d_z = len(labels), model.config.d_z
    stream = copy.deepcopy(rng)
    batched = model.loss_batch(features, tokens, labels, LAM, stream)
    batched_grads = _grads(model, batched.final)
    # the bottleneck draws its sample's noise; no bottleneck, no draw
    noise = (rng.standard_normal((b, d_z)) if model.bottleneck is not None
             else None)
    assert stream.bit_generator.state == rng.bit_generator.state
    ref_logits, ref = reference_loss(model, features, tokens, labels, LAM, noise)
    ref_grads = _grads(model, ref.final)

    logits = model.logits(features, tokens).data
    assert logits.shape == ref_logits.shape == (b, len(dt.ANSWERS))
    assert np.abs(logits - ref_logits.data).max() < TOL
    for term, value in batched.values().items():
        assert abs(value - ref.values()[term]) < TOL, term
    for name, grad in batched_grads.items():
        assert grad is not None and ref_grads[name] is not None, name
        assert np.abs(grad - ref_grads[name]).max() < TOL, name


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_random_batches_match_reference(small_dataset, cross, infomax):
    model = make_model(cross, infomax)
    split = prepare_split(small_dataset, "train")
    rng = np.random.default_rng(17)
    for size in (8, 5):
        idx = rng.choice(len(split), size=size, replace=False)
        assert_matches_reference(model, *split_batch(split, idx), rng)


def synthetic_batch(t, k, n_objects, n_tokens, rng):
    """Random inputs of t object and k token slots with the given real-object
    and real-token counts per sample; padding is zero features and PAD (id 0)
    tokens."""
    b = len(n_objects)
    matrix = np.zeros((b, t, dt.FEATURE_WIDTH))
    ids = np.zeros((b, k), dtype=np.int64)
    for i, (n_obj, n_tok) in enumerate(zip(n_objects, n_tokens)):
        matrix[i, :n_obj] = rng.uniform(0.0, 1.0, (n_obj, dt.FEATURE_WIDTH))
        ids[i, :n_tok] = rng.integers(1, len(dt.VOCABULARY), n_tok)
    features = ImageObjectFeatures(matrix, np.arange(t) < np.array(n_objects)[:, None])
    tokens = QueryTokens(ids, np.arange(k) < np.array(n_tokens)[:, None])
    labels = rng.integers(0, len(dt.ANSWERS), b)
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
    model = make_model(cross, infomax=True)
    t_max, k_max = small_dataset.config.t_max, small_dataset.config.k_max
    assert (t_max, k_max) == (16, 12)
    rng = np.random.default_rng(sorted(EDGE_BATCHES).index(case))
    n_objects, n_tokens = EDGE_BATCHES[case]
    assert_matches_reference(
        model, *synthetic_batch(t_max, k_max, n_objects, n_tokens, rng), rng)


@pytest.mark.parametrize("cross", [True, False])
def test_image_padding_is_inert_end_to_end(cross):
    # The image encoder computes padded rows like real ones; only the object
    # mask of the pooling keeps them out. With a non-zero bias, garbage in
    # the padded rows must leave every output and gradient bit for bit where
    # zero padding puts it.
    model = make_model(cross, infomax=True)
    model.encoders.img_b.data[:] = 0.7
    rng = np.random.default_rng(8)
    features, tokens, labels = synthetic_batch(
        16, 12, *EDGE_BATCHES["mixed-padding"], rng)
    padded = ~features.object_mask
    garbage = features.matrix.copy()
    garbage[padded] = 123.0
    # zero padding already reaches the pooling as relu(img_b) rows
    assert (encode_image(features, model.encoders).data[padded.ravel()] == 0.7).all()
    runs = []
    for matrix in (features.matrix, garbage):
        feats = ImageObjectFeatures(matrix, features.object_mask)
        loss = model.loss_batch(feats, tokens, labels, LAM, copy.deepcopy(rng))
        runs.append((model.logits(feats, tokens).data, loss.values(),
                     _grads(model, loss.final)))
    (logits, terms, grads), (g_logits, g_terms, g_grads) = runs
    np.testing.assert_array_equal(g_logits, logits)
    assert len(terms) == 3 and g_terms == terms
    assert grads.keys() == g_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_array_equal(g_grads[name], grad, err_msg=name)


def full_width_split(dataset, split) -> PreparedSplit:
    """The samples of a split at the dataset's t_max/k_max width: the
    untrimmed reference of prepare_split."""
    samples = dataset.split(split)
    return PreparedSplit(
        features=scene_features([s.scene for s in samples], dataset.config.t_max),
        tokens=query_tokens(samples, dataset.config.k_max),
        labels=np.array([s.answer_index for s in samples], dtype=np.int64),
        categories=tuple(s.category for s in samples))


@pytest.fixture(scope="module")
def hr_dataset():
    """hr_like scenes of 3 to 16 objects, with a test2 split."""
    return dt.generate_dataset(dt.DatasetConfig(
        n_samples=150, seed=21, variant="hr_like", min_objects=3, max_objects=16,
        train_fraction=0.6, test_fraction=0.2, test2_fraction=0.2))


@pytest.mark.parametrize("cross,infomax", VARIANTS)
@pytest.mark.parametrize("which", ["default", "hr_like"])
def test_trimmed_split_matches_the_full_width_split(
        small_dataset, hr_dataset, which, cross, infomax):
    dataset = small_dataset if which == "default" else hr_dataset
    config = dataset.config
    model = make_model(cross, infomax)
    rng = np.random.default_rng(23)
    assert which == "default" or "test2" in config.splits()
    for split_name in config.splits():
        samples = dataset.split(split_name)
        n = len(samples)
        t = max(len(s.scene.objects) for s in samples)
        k = max(s.n_tokens for s in samples)
        # default scenes have 10 objects and questions at most 8 tokens,
        # so both axes are cut (t_max = 16, k_max = 12)
        assert which != "default" or (t, k) == (10, 8)
        trimmed = prepare_split(dataset, split_name)
        full = full_width_split(dataset, split_name)
        features, tokens = trimmed.features, trimmed.tokens
        assert features.matrix.shape == (n, t, dt.FEATURE_WIDTH)
        assert features.object_mask.shape == (n, t)
        assert tokens.token_ids.shape == tokens.token_mask.shape == (n, k)
        # arrays of their own: no view keeps a full-width array alive
        assert features.matrix.base is None and tokens.token_ids.base is None
        assert trimmed.labels.tolist() == full.labels.tolist()

        terms, grads, logits = [], [], []
        for part in (trimmed, full):
            breakdown = model.loss_batch(part.features, part.tokens, part.labels,
                                         LAM, copy.deepcopy(rng))
            terms.append(breakdown.values())
            grads.append(_grads(model, breakdown.final))
            logits.append(model.logits(part.features, part.tokens).data)
        assert np.abs(logits[0] - logits[1]).max() < TOL
        for term, value in terms[0].items():
            assert abs(value - terms[1][term]) < TOL, term
        for name, grad in grads[0].items():
            assert np.abs(grad - grads[1][name]).max() < TOL, name

        expected = model.predict(full.features, full.tokens).tolist()
        assert model.predict(features, tokens).tolist() == expected
        reference = compute_metrics(full.labels.tolist(), expected, full.categories)
        assert evaluate_model(model, dataset, split_name).to_dict() == reference.to_dict()


def test_evaluate_model_predicts_what_the_reference_predicts(small_dataset):
    cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=2e-3, seed=5)
    result = train(cfg, small_dataset, model_config=tiny_model_config())
    model = result.model
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
        # train() evaluates the train split on the arrays it trained on
        assert result.checkpoint.metrics[split_name] == reference.to_dict()


# (enable_cross_attention, enable_infomax) -> op nodes and all nodes of one
# training step's graph. The other nodes are its leaves: the parameters,
# the feature matrix and, without attention, the two masked-mean weights.
STEP_GRAPHS = {(True, True): (15, 38), (True, False): (10, 29),
               (False, True): (15, 34), (False, False): (10, 25)}


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_a_training_step_builds_its_pinned_graph(small_dataset, cross, infomax,
                                                 monkeypatch):
    # a change that splits a fused node, or adds one, fails here
    model = make_model(cross, infomax)
    features, tokens, labels = split_batch(prepare_split(small_dataset, "train"),
                                           slice(0, 8))
    recorded = []
    node = autodiff._node

    def counting_node(*args):
        out = node(*args)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(autodiff, "_node", counting_node)
    loss = model.loss_batch(features, tokens, labels, LAM,
                            np.random.default_rng(0)).final
    graph = autodiff._toposort(loss)
    ops = sum(1 for t in graph if t._vjp is not None)
    assert (ops, len(graph)) == STEP_GRAPHS[cross, infomax]
    assert recorded.count(True) == len(recorded) == ops


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_predict_records_no_graph_and_matches_the_graph_path(
        small_dataset, cross, infomax, monkeypatch):
    model = make_model(cross, infomax)
    split = prepare_split(small_dataset, "test")
    graph_logits = model.logits(split.features, split.tokens)
    assert graph_logits.requires_grad
    recorded = []
    node = autodiff._node

    def counting_node(*args):
        out = node(*args)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(autodiff, "_node", counting_node)
    predictions = model.predict(split.features, split.tokens)
    assert recorded and not any(recorded)
    assert predictions.tolist() == predict(graph_logits).tolist()


@pytest.fixture(scope="module")
def default_dataset():
    """The default config: 2,000 train and 500 test samples, each split
    asking 41 distinct questions."""
    return dt.generate_dataset(dt.DatasetConfig())


def n_distinct_questions(tokens) -> int:
    return len(np.unique(np.column_stack((tokens.token_ids, tokens.token_mask)),
                         axis=0))


def whole_split(dataset, split):
    prepared = prepare_split(dataset, split)
    return prepared.features, prepared.tokens


def one_question_batch(dataset):
    """300 test scenes, every one asked the first sample's question."""
    features, tokens, _ = split_batch(prepare_split(dataset, "test"), slice(0, 300))
    return features, QueryTokens(np.repeat(tokens.token_ids[:1], 300, axis=0),
                                 np.repeat(tokens.token_mask[:1], 300, axis=0))


def masks_apart_batch():
    """Two synthetic rows asking the same token ids under different masks:
    the second reads the first's PAD suffix as real tokens."""
    features, tokens, _ = synthetic_batch(16, 12, [5, 9], [7, 7],
                                          np.random.default_rng(31))
    ids = np.repeat(tokens.token_ids[:1], 2, axis=0)
    mask = tokens.token_mask.copy()
    mask[1] = True
    return features, QueryTokens(ids, mask)


# name -> (inputs(default dataset, HR-like dataset), distinct questions)
PREDICT_INPUTS = {
    "default-train": (lambda d, hr: whole_split(d, "train"), 41),
    "hr-like-train": (lambda d, hr: whole_split(hr, "train"), 36),
    "one-question": (lambda d, hr: one_question_batch(d), 1),
    "one-sample": (lambda d, hr: split_batch(prepare_split(d, "test"), [0])[:2], 1),
    "masks-apart": (lambda d, hr: masks_apart_batch(), 2),
}


@pytest.mark.parametrize("cross,infomax", VARIANTS)
@pytest.mark.parametrize("case", sorted(PREDICT_INPUTS))
def test_predict_matches_the_per_row_path(
        default_dataset, hr_dataset, case, cross, infomax, monkeypatch):
    # The per-row path, one question half per sample, is the oracle of
    # predict's one question half per distinct question.
    model = make_model(cross, infomax)
    inputs, n_questions = PREDICT_INPUTS[case]
    features, tokens = inputs(default_dataset, hr_dataset)
    oracle = model.logits(features, tokens)
    queries, chunk_logits = [], []

    def recording_encode_query(tokens, params):
        queries.append(tokens.token_ids.shape[0])
        return real_encode_query(tokens, params)

    def recording_predict(logits):
        chunk_logits.append(logits.data)
        return real_predict(logits)

    real_encode_query, real_predict = model_module.encode_query, model_module.predict
    monkeypatch.setattr(model_module, "encode_query", recording_encode_query)
    monkeypatch.setattr(model_module, "predict", recording_predict)
    predictions = model.predict(features, tokens)
    assert predictions.tolist() == predict(oracle).tolist()
    assert queries == [n_questions] == [n_distinct_questions(tokens)]
    assert len(chunk_logits) == -(-len(predictions) // model_module.EVAL_CHUNK)
    assert np.abs(np.concatenate(chunk_logits) - oracle.data).max() < TOL


def test_predict_and_train_run_the_question_half_once_per_split(
        default_dataset, small_dataset, monkeypatch):
    queries = []

    def recording_encode_query(tokens, params):
        queries.append(tokens.token_ids.shape[0])
        return real_encode_query(tokens, params)

    real_encode_query = model_module.encode_query
    monkeypatch.setattr(model_module, "encode_query", recording_encode_query)
    test = prepare_split(default_dataset, "test")
    make_model(True, True).predict(test.features, test.tokens)
    assert queries == [41]

    # the one epoch's steps run it per batch; the callback marks where
    # train()'s end-of-run metrics begin
    cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=2e-3, seed=5)
    start = []
    train(cfg, small_dataset, model_config=tiny_model_config(),
          epoch_callback=lambda *_: start.append(len(queries)))
    splits = small_dataset.config.splits()
    assert queries[start[0]:] == [
        n_distinct_questions(prepare_split(small_dataset, split).tokens)
        for split in splits]


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_mismatched_inputs_fail_with_a_dimension_error(small_dataset, cross, infomax):
    model = make_model(cross, infomax)
    features, tokens, _ = split_batch(prepare_split(small_dataset, "test"), slice(0, 6))
    ids, mask = tokens.token_ids, tokens.token_mask
    short = ImageObjectFeatures(features.matrix[:4], features.object_mask[:4])
    cases = [
        (features, QueryTokens(ids, np.ones((6, ids.shape[1] + 1), dtype=bool))),
        (features, QueryTokens(ids, mask.T.copy())),
        (features, QueryTokens(ids, mask[:4])),
        (short, tokens),
        (features, QueryTokens(ids[:4], mask[:4])),
    ]
    for batch in cases:
        for forward in (model.logits, model.predict):
            with pytest.raises(DimensionError):
                forward(*batch)


class ZeroNoise:
    """A stand-in loop stream whose standard-normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


@pytest.mark.parametrize("cross", [True, False])
def test_training_at_zero_noise_reads_the_latent_evaluation_reads(
        small_dataset, cross, monkeypatch):
    model = make_model(cross, infomax=True)
    features, tokens, labels = split_batch(prepare_split(small_dataset, "train"),
                                           np.arange(9))
    seen = []

    def recording_cross_entropy(logits, labels):
        seen.append(logits.data)
        return real_cross_entropy(logits, labels)

    real_cross_entropy = model_module.cross_entropy
    monkeypatch.setattr(model_module, "cross_entropy", recording_cross_entropy)
    model.loss_batch(features, tokens, labels, LAM, ZeroNoise())
    (train_logits,) = seen
    np.testing.assert_array_equal(train_logits,
                                  model.logits(features, tokens).data)


def test_lambda_zero_still_trains_the_mean_head_through_the_cross_entropy(
        small_dataset):
    model = make_model(True, infomax=True)
    features, tokens, labels = split_batch(prepare_split(small_dataset, "train"),
                                           np.arange(9))
    loss = model.loss_batch(features, tokens, labels, 0.0,
                            np.random.default_rng(2))
    assert loss.final.item() == loss.ce.item()
    grads = _grads(model, loss.final)
    assert np.abs(grads["ib.mean_w"]).max() > 0


@pytest.mark.parametrize("cross,infomax", VARIANTS)
def test_identical_train_runs_are_bit_identical(micro_dataset, cross, infomax):
    # batch 10 leaves a short final batch in every epoch
    cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=2e-3, seed=4)
    mc = tiny_model_config(enable_cross_attention=cross,
                           enable_infomax=infomax)
    first = train(cfg, micro_dataset, model_config=mc)
    second = train(cfg, micro_dataset, model_config=mc)
    assert len(first.step_records) > 0
    assert first.step_records == second.step_records
