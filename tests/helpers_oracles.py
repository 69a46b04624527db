"""Reference implementations the tests compare the library against.

The attention oracles are straight-line dense math coded directly from the
published formulas with plain numpy — no Tensor, no graph, no code shared
with the implementation under test.  Both attention suites and the
acceptance gate compare against these.  The composed forms are the fused
engine nodes' reference (test_attention, test_fusion, test_infomax), the
allocating forms of the hot nodes that of their in-place kernels
(test_autodiff), the per-sample model reference below is the batched
model's correctness gate (tests/test_batched.py), and the data-path
reference at the end is the generator's and the importer's
(tests/test_data.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from helpers_ops import (
    add_row, add_scalar, diag_part, exp, logsumexp_rows, mask_rows, mean_all,
    reshape, softmax, sub, sum_all, take_per_row, tanh, transpose,
)
from mibvqa import autodiff as ad
from mibvqa.data import (
    _CLASS_INDEX, ANSWERS, OBJECT_CLASSES, PAD_TOKEN, SIZE_FEATURE, SIZES,
    TEMPLATES, VOCABULARY, Dataset, DatasetConfig, DatasetFormatError, Scene,
    SceneObject, VQASample, answer_oracle,
)
from mibvqa.fusion import cross_entropy
from mibvqa.infomax import LOG_VAR_MAX, LOG_VAR_MIN, LossBreakdown, total_loss

NEG_INF = -1e30  # same additive mask constant the engine documents


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    shifted = logits + np.where(mask, 0.0, NEG_INF)
    shifted = shifted - shifted.max()
    e = np.exp(shifted)
    return e / e.sum()


def oracle_query_attention(q, mask, query_w, query_score):
    """Self-attention over query token embeddings.

    scores_k = relu(q_k W) v; alpha = softmax over unmasked; pooled = alpha q.
    """
    scores = np.maximum(q @ query_w, 0.0) @ query_score  # (K, 1)
    alpha = masked_softmax(scores.reshape(-1), mask)
    pooled = alpha @ q
    return alpha, pooled


def oracle_image_attention(h, q_star, mask, img_proj_w, qstar_proj_w,
                           img_score_w, img_score):
    """Query-conditioned attention over image object embeddings.

    Projections of h_t and q* are fused per object by elementwise product,
    scored through a relu layer, softmax-normalized, and used to pool the
    *original* object embeddings.
    """
    hp = h @ img_proj_w                       # (T, d_p)
    qp = q_star @ qstar_proj_w                # (d_p,)
    fused = hp * qp[None, :]                  # (T, d_p)
    scores = np.maximum(fused @ img_score_w, 0.0) @ img_score  # (T, 1)
    alpha = masked_softmax(scores.reshape(-1), mask)
    pooled = alpha @ h
    return alpha, pooled


# ---------------------------------------------------------------------------
# composed forms of the fused nodes
#
# Attention scoring and pooling, the cross-entropy, the reparameterized
# sample, the symmetrized KL and the InfoNCE estimate as the model computed
# them before each became one engine node: a graph of elementwise and
# linear-algebra ops. The fused nodes must agree with these forward and in
# their gradients.


def composed_attention_pool(rows, scored_rows, score_w, score_head, mask):
    """Pooled rows and weights, both Tensors on the graph."""
    keep = np.asarray(mask, dtype=bool)
    logits = reshape(ad.matmul(ad.relu(ad.matmul(scored_rows, score_w)), score_head),
                     keep.shape)
    weights = softmax(logits, keep)
    return ad.segment_pool(weights, rows), weights


def composed_softmax_cross_entropy(logits, labels):
    picked = take_per_row(logits, labels)
    return ad.scale(sum_all(sub(logsumexp_rows(logits), picked)), 1.0 / len(labels))


def composed_gaussian_sample(mean, log_var, eps):
    return ad.add(mean, ad.hadamard(exp(ad.scale(log_var, 0.5)), ad.Tensor(eps)))


def _two_kl_terms(mean_p, log_var_p, mean_q, log_var_q):
    # elementwise 2*KL(p || q): e^(lp-lq) + (mq-mp)^2 e^(-lq) + lq - lp - 1
    dlv = sub(log_var_p, log_var_q)
    dmean = sub(mean_q, mean_p)
    inv_var_q = exp(ad.scale(log_var_q, -1.0))
    quad = ad.hadamard(ad.hadamard(dmean, dmean), inv_var_q)
    return add_scalar(ad.add(sub(exp(dlv), dlv), quad), -1.0)


def composed_gaussian_skl(mean_p, log_var_p, mean_q, log_var_q):
    """Symmetrized KL summed over every entry: 0.5 * (KL(p||q) + KL(q||p))."""
    two_kl_pq = _two_kl_terms(mean_p, log_var_p, mean_q, log_var_q)
    two_kl_qp = _two_kl_terms(mean_q, log_var_q, mean_p, log_var_p)
    return ad.scale(sum_all(ad.add(two_kl_pq, two_kl_qp)), 0.25)


def composed_info_nce(z_q, z_h, critic):
    """mean_i [s_ii - logsumexp_j s_ij] + ln B of s = z_q @ critic @ z_h.T."""
    scores = ad.matmul(ad.matmul(z_q, critic), transpose(z_h))
    gap = sub(diag_part(scores), logsumexp_rows(scores))
    return add_scalar(mean_all(gap), math.log(z_q.shape[0]))


# ---------------------------------------------------------------------------
# allocating forms of the hot nodes
#
# tanh_recurrence, attention_pool, linear and gaussian_skl as the engine
# computed them before they worked in place: every intermediate a fresh
# array, the recurrence's state a new array each step, the attention
# VJP's outer product a k = 1 matmul, the bias added as a broadcast row and
# reduced by .sum, and the symmetrized KL's VJP forming all four gradients.
# Each takes plain arrays and returns the node's value and a vjp(g) giving
# the gradient of every operand the node differentiates; the nodes must
# match them to the bit.


def allocating_tanh_recurrence(table, w, ids):
    b, k = ids.shape
    d = table.shape[1]
    w_t = w.T.copy()
    inputs = table[ids.T]
    states = np.empty((k, b, d))
    q = np.zeros((b, d))
    for j in range(k):
        q = np.tanh(q @ w_t + inputs[j])
        states[j] = q

    def vjp(g):
        dpre = g.reshape(b, k, d).transpose(1, 0, 2).copy()
        slope = 1.0 - states * states
        carry = np.zeros((b, d))
        for j in range(k - 1, -1, -1):
            step = dpre[j]
            step += carry
            step *= slope[j]
            np.matmul(step, w, out=carry)
        dw = dpre[1:].reshape(-1, d).T @ states[:-1].reshape(-1, d)
        cells = (ids.T.reshape(-1, 1) * d + np.arange(d)).ravel()
        dtable = np.bincount(cells, weights=dpre.ravel(), minlength=table.size)
        return dtable.reshape(table.shape), dw

    return states.transpose(1, 0, 2).reshape(b * k, d), vjp


def allocating_attention_pool(rows, scored_rows, score_w, score_head, keep):
    """(pooled, weights, vjp)."""
    b, n = keep.shape
    d = rows.shape[1]
    pre = scored_rows @ score_w
    hidden = np.maximum(pre, 0.0)
    weights = np.where(keep, (hidden @ score_head).reshape(b, n), -1e30)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    r3 = rows.reshape(b, n, d)
    pooled = (weights[:, None, :] @ r3).reshape(b, d)

    def vjp(g):
        d_weights = (r3 @ g[:, :, None]).reshape(b, n)
        d_logits = weights * (d_weights - (d_weights * weights).sum(axis=1, keepdims=True))
        d_logits = d_logits.reshape(b * n, 1)
        d_pre = (d_logits @ score_head.T) * (pre > 0.0)
        return ((weights[:, :, None] * g[:, None, :]).reshape(b * n, d),
                d_pre @ score_w.T, scored_rows.T @ d_pre, hidden.T @ d_logits)

    return pooled, weights, vjp


def allocating_linear(x, w, b):
    return x @ w + b[None, :], lambda g: (g @ w.T, x.T @ g, g.sum(axis=0))


def allocating_gaussian_skl(mp, lp, mq, lq):
    dmean, dlv = mq - mp, lp - lq
    sq = dmean * dmean
    inv_var_p, inv_var_q = np.exp(lp * -1.0), np.exp(lq * -1.0)
    e_pq, e_qp = np.exp(dlv), np.exp(-dlv)
    two_kl_pq = e_pq - dlv + sq * inv_var_q + -1.0
    two_kl_qp = e_qp + dlv + sq * inv_var_p + -1.0
    out = np.asarray((two_kl_pq + two_kl_qp).sum()) * 0.25

    def vjp(g):
        c = 0.25 * float(g)
        d_mq = (2.0 * c) * dmean * (inv_var_q + inv_var_p)
        return (-d_mq, c * (e_pq - e_qp - sq * inv_var_p),
                d_mq, c * (e_qp - e_pq - sq * inv_var_q))

    return out, vjp


# ---------------------------------------------------------------------------
# per-sample reference of the model
#
# One graph per sample (B = 1), as the model was computed before it was
# batched. It is built from the engine's general ops only (matmul, add,
# hadamard, tanh, relu, exp, logsumexp_rows, ...), never from the segment
# ops (tanh_recurrence among them) or softmax that the batched model runs
# on: the recurrence is unrolled step by step, an embedding lookup is a
# one-hot product, stacking rows is a sum of one-hot outer products
# (exact), and the masked softmax is exp(x - lse(x)).


def _stack(parts):
    """Stack [1, d] tensors into [n, d] with matmul/add only (exact)."""
    out = None
    for i, part in enumerate(parts):
        pick = np.zeros((len(parts), 1))
        pick[i, 0] = 1.0
        term = ad.matmul(ad.Tensor(pick), part)
        out = term if out is None else ad.add(out, term)
    return out


def _softmax_row(logits, mask):
    """Masked softmax of a [1, n] logit row."""
    n = logits.shape[1]
    shifted = ad.add(logits, ad.Tensor(np.where(mask, 0.0, NEG_INF)[None, :]))
    lse = reshape(logsumexp_rows(shifted), (1, 1))
    return exp(sub(shifted, ad.matmul(lse, ad.Tensor(np.ones((1, n))))))


def _dense(x, w, b):
    return add_row(ad.matmul(x, w), b)


def reference_forward(model, matrix, object_mask, token_ids, token_mask,
                      noise=None):
    """Logits [1, C] of one sample (matrix [t, d_raw], object_mask [t],
    token_ids [k], token_mask [k]) and its latent mean and log-variance
    [1, d_z], None without the bottleneck. The classifier reads the latent
    mean, as evaluation does, or with noise [d_z] the sample
    mean + exp(log_var / 2) * noise, as training does."""
    enc, att, fus = model.encoders, model.attention, model.fusion
    ib = model.bottleneck
    # padded rows zeroed here, unlike the model, which leaves them to the
    # pooling masks: the two must still agree
    h = mask_rows(ad.relu(_dense(ad.Tensor(matrix), enc.img_w, enc.img_b)),
                  object_mask)
    vocab = enc.embed.shape[0]
    rec_t = transpose(enc.rec_w)
    prev = ad.Tensor(np.zeros((1, enc.rec_w.shape[0])))
    rows = []
    for tok in token_ids:
        onehot = np.zeros((1, vocab))
        onehot[0, tok] = 1.0
        prev = tanh(ad.add(ad.matmul(prev, rec_t),
                              ad.matmul(ad.Tensor(onehot), enc.embed)))
        rows.append(prev)
    q = _stack(rows)
    if att is not None:
        scores = ad.matmul(ad.relu(ad.matmul(q, att.query_w)),
                           att.query_score)
        alpha = _softmax_row(reshape(scores, (1, len(token_ids))), token_mask)
        q_star = ad.matmul(alpha, q)
        q_proj = ad.matmul(q_star, att.qstar_proj_w)
        fused = ad.hadamard(ad.matmul(h, att.img_proj_w),
                            ad.matmul(ad.Tensor(np.ones((h.shape[0], 1))), q_proj))
        scores = ad.matmul(ad.relu(ad.matmul(fused, att.img_score_w)),
                           att.img_score)
        beta = _softmax_row(reshape(scores, (1, h.shape[0])), object_mask)
        h_star = ad.matmul(beta, h)
    else:
        q_star = ad.matmul(ad.Tensor(token_mask[None, :] / token_mask.sum()), q)
        h_star = ad.matmul(ad.Tensor(object_mask[None, :] / object_mask.sum()), h)
    fused = ad.hadamard(_dense(q_star, fus.q_w, fus.q_b),
                        _dense(h_star, fus.h_w, fus.h_b))
    mean = log_var = None
    if ib is not None:
        mean = _dense(fused, ib.mean_w, ib.mean_b)
        log_var = ad.clamp(_dense(fused, ib.logvar_w, ib.logvar_b),
                           LOG_VAR_MIN, LOG_VAR_MAX)
        fused = (mean if noise is None
                 else composed_gaussian_sample(mean, log_var, noise[None, :]))
    hidden = ad.relu(_dense(fused, fus.mlp_w1, fus.mlp_b1))
    return _dense(hidden, fus.mlp_w2, fus.mlp_b2), mean, log_var


def reference_loss(model, features, tokens, labels, lam, noise):
    """Evaluation logits [B, C] and the loss terms of a batch, every sample
    on its own graph; noise [B, d_z] is the bottleneck's (None without it).
    The skl is the composed symmetrized KL to N(0, I), over the batch."""

    def forward(i, eps=None):
        return reference_forward(model, features.matrix[i], features.object_mask[i],
                                 tokens.token_ids[i], tokens.token_mask[i], eps)

    b = len(labels)
    logits = _stack([forward(i)[0] for i in range(b)])
    if model.bottleneck is None:
        ce = cross_entropy(logits, labels)
        return logits, LossBreakdown(ce, ad.Tensor(np.zeros(())), ce)
    per_sample = [forward(i, noise[i]) for i in range(b)]
    train_logits, mean, log_var = (_stack(list(part)) for part in zip(*per_sample))
    ce = cross_entropy(train_logits, labels)
    prior = ad.Tensor(np.zeros(mean.shape))
    skl = ad.scale(composed_gaussian_skl(mean, log_var, prior, prior), 1.0 / b)
    return logits, LossBreakdown(ce, skl, total_loss(ce, skl, lam))


# ---------------------------------------------------------------------------
# data-path reference
#
# Sample generation, export and record parsing in their plainest form, one
# sample at a time: sample i's block read by advancing a fresh PCG64(seed)
# past the blocks before it, every word split from its raw output with
# Python ints, every bounded draw a floor division, Floyd's cell picks
# checked against a list, the comparison's second class picked from a list
# of the other four, every object a new SceneObject, the zone from
# zone_of, every question rendered and tokenized anew, the schedules from
# the max(key=...) form of apportion, every exported line from its own
# json.dumps of a record built here, every record field checked. The file
# layout is dataset version 2's, written out in full: the header holds the
# config echo, the format name and the version, and a record's objects lie
# on the echo's grid.


def reference_apportion(weights: dict, n: int) -> list:
    labels = list(weights)
    counts = {k: 0 for k in labels}
    out = []
    for i in range(n):
        best = max(labels, key=lambda k: (weights[k] * (i + 1) - counts[k]))
        counts[best] += 1
        out.append(best)
    return out


def zone_of(objects, urban_threshold: int) -> str:
    """The zone of a scene: urban from urban_threshold buildings on."""
    buildings = sum(1 for o in objects if o.cls == "building")
    return "urban" if buildings >= urban_threshold else "rural"


def reference_block(config: DatasetConfig, index: int) -> list:
    """The 32-bit words of sample index's block: its W raw outputs, each
    split into its low half, then its high half."""
    width = math.ceil((4 + 3 * config.max_objects) / 2)
    bit_generator = np.random.PCG64(np.random.SeedSequence(config.seed))
    bit_generator.advance(index * width)
    words = []
    for output in bit_generator.random_raw(width).tolist():
        words += [output % 2**32, output // 2**32]
    return words


def reference_below(word: int, n: int) -> int:
    """The draw on [0, n) of one 32-bit word: floor(word * n / 2**32)."""
    return word * n // 2**32


def reference_sample_scene(words: list, config: DatasetConfig) -> Scene:
    m = config.max_objects
    n_obj = config.min_objects + reference_below(
        words[0], config.max_objects - config.min_objects + 1)
    n_cells = config.grid_size * config.grid_size
    cells = []
    for f in range(n_obj):
        j = n_cells - n_obj + f
        drawn = reference_below(words[1 + f], j + 1)
        cells.append(j if drawn in cells else drawn)
    objects = tuple(
        SceneObject(cls=OBJECT_CLASSES[reference_below(words[1 + m + f], 5)],
                    row=cells[f] // config.grid_size,
                    col=cells[f] % config.grid_size,
                    size=SIZES[reference_below(words[1 + 2 * m + f], 2)])
        for f in range(n_obj))
    return Scene(grid_size=config.grid_size, objects=objects,
                 zone_label=zone_of(objects, config.urban_threshold))


def _reference_pick_balanced(want_word, pick_word, candidates_yes, candidates_no):
    want_yes = want_word < 2**31
    pool = candidates_yes if want_yes else candidates_no
    if not pool:
        pool = candidates_no if want_yes else candidates_yes
    return pool[reference_below(pick_word, len(pool))]


def reference_sample_question(words: list, scene: Scene, category: str):
    """(template_id, slots) of the category's question, from the three
    question words of the sample's block."""
    if category == "count":
        return 0, (OBJECT_CLASSES[reference_below(words[0], 5)],)
    if category == "presence":
        if words[0] < 2**31:
            present = sorted({o.cls for o in scene.objects})
            absent = sorted(set(OBJECT_CLASSES) - set(present))
            return 1, (_reference_pick_balanced(words[1], words[2], present, absent),)
        pairs = [(s, c) for s in SIZES for c in OBJECT_CLASSES]
        have = {(o.size, o.cls) for o in scene.objects}
        yes = [p for p in pairs if p in have]
        no = [p for p in pairs if p not in have]
        return 2, tuple(_reference_pick_balanced(words[1], words[2], yes, no))
    if category == "comparison":
        a = reference_below(words[0], 5)
        others = [k for k in range(5) if k != a]
        b = others[reference_below(words[1], 4)]
        return 3, (OBJECT_CLASSES[a], OBJECT_CLASSES[b])
    if category == "rural_urban":
        return 4, ()
    if category == "area":
        return 5, (OBJECT_CLASSES[reference_below(words[0], 5)],)
    raise ValueError(f"unknown category {category!r}")


def reference_tokenize(words: tuple, k_max: int) -> tuple:
    """The token ids of a question's words, padded to k_max, and its token
    count; the question must fit k_max and every word be in VOCABULARY."""
    assert len(words) <= k_max and set(words) <= set(VOCABULARY), (words, k_max)
    padding = (VOCABULARY.index(PAD_TOKEN),) * (k_max - len(words))
    return tuple(map(VOCABULARY.index, words)) + padding, len(words)


def reference_make_sample(config: DatasetConfig, index: int, category: str,
                          split: str) -> VQASample:
    words = reference_block(config, index)
    scene = reference_sample_scene(words, config)
    questions_at = 1 + 3 * config.max_objects
    template_id, slots = reference_sample_question(
        words[questions_at:questions_at + 3], scene, category)
    template = TEMPLATES[template_id]
    token_ids, n_tokens = reference_tokenize(template.render(slots), config.k_max)
    answer = answer_oracle(scene, template, slots)
    return VQASample(scene=scene, category=category,
                     template_id=template_id, slots=slots,
                     token_ids=token_ids, n_tokens=n_tokens,
                     answer_index=ANSWERS.index(answer), split=split)


def reference_generate_dataset(config: DatasetConfig) -> Dataset:
    """Categories from one schedule over all samples; the k-th sample of a
    category takes the k-th split of a schedule over that category's."""
    categories = reference_apportion(config.mix(), config.n_samples)
    split_schedules = {
        category: reference_apportion(config.splits(), categories.count(category))
        for category in set(categories)}
    taken = {category: 0 for category in split_schedules}
    splits = []
    for category in categories:
        splits.append(split_schedules[category][taken[category]])
        taken[category] += 1
    samples = tuple(
        reference_make_sample(config, i, categories[i], splits[i])
        for i in range(config.n_samples))
    return Dataset(config=config, samples=samples)


def reference_record(s: VQASample) -> dict:
    """A sample's record: the fields generation draws, and nothing derived."""
    return {
        "objects": [[o.cls, o.row, o.col, o.size] for o in s.scene.objects],
        "template_id": s.template_id,
        "slots": list(s.slots),
        "split": s.split,
    }


def reference_export_text(dataset: Dataset) -> str:
    header = {"format": "mibvqa-dataset", "version": 3,
              "config": asdict(dataset.config)}
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(reference_record(s), sort_keys=True) for s in dataset.samples]
    return "".join(line + "\n" for line in lines)


def reference_sample_from_record(rec: dict, line_no: int, config: dict) -> VQASample:
    """The sample of one record of a dataset whose header echoes config:
    its objects read on the echo's grid, and every derived field rebuilt,
    the zone from its buildings, the category from its template, the token
    ids from its rendered question and the answer from answer_oracle."""
    grid_size = config["grid_size"]
    try:
        objects = []
        for cls, row, col, size in rec["objects"]:
            row, col = int(row), int(col)
            if cls not in _CLASS_INDEX:
                raise ValueError(f"unknown object class {cls!r}")
            if size not in SIZE_FEATURE:
                raise ValueError(f"unknown object size {size!r}")
            if not (0 <= row < grid_size and 0 <= col < grid_size):
                raise ValueError(f"object at row {row}, col {col} is off the "
                                 f"{grid_size}x{grid_size} grid")
            objects.append(SceneObject(cls, row, col, size))
        objects = tuple(objects)
        scene = Scene(grid_size=grid_size, objects=objects,
                      zone_label=zone_of(objects, config["urban_threshold"]))
        template_id = int(rec["template_id"])
        if not 0 <= template_id < len(TEMPLATES):
            raise ValueError(f"unknown template_id {template_id}")
        template, slots = TEMPLATES[template_id], tuple(rec["slots"])
        token_ids, n_tokens = reference_tokenize(template.render(slots), config["k_max"])
        return VQASample(scene=scene, category=template.category,
                         template_id=template_id, slots=slots, token_ids=token_ids,
                         n_tokens=n_tokens,
                         answer_index=ANSWERS.index(answer_oracle(scene, template, slots)),
                         split=rec["split"])
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise DatasetFormatError(f"malformed sample record at line {line_no}: {e}") from None


def reference_derived_fields(rec: dict, config: dict) -> dict:
    """The five fields a version 2 record also stored, derived from a
    record's own drawn fields by reference_sample_from_record: export
    writes none of them since version 3."""
    s = reference_sample_from_record(rec, 0, config)
    return {"answer_index": s.answer_index, "category": s.category, "n_tokens": s.n_tokens,
            "token_ids": list(s.token_ids), "zone_label": s.scene.zone_label}


def reference_import_samples(path) -> tuple:
    """The samples of an exported dataset file, its lines split at "\\n",
    every record through reference_sample_from_record with the header's
    config echo (the only header field read)."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        lines = f.read().split("\n")[:-1]
    config = json.loads(lines[0])["config"]
    return tuple(reference_sample_from_record(json.loads(line), i, config)
                 for i, line in enumerate(lines[1:], start=2))
