"""Acceptance gate: the seven first-class checks for this package.

Each criterion test prints exactly one summary line (visible under
``pytest -s``)::

    ACCEPTANCE <n> <name>: PASS|FAIL  [measurements]

and then asserts, so a failing criterion is visible both in the line and in
the pytest report.  Criteria with a stated wall-clock budget assert the
elapsed time as part of the criterion.  Oracles used here are implemented
independently of the library code under test: straight-line dense math for
attention, plain-numpy Monte Carlo for the divergence, a from-scratch
recount for the dataset audit.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import tiny_model_config
from helpers_oracles import oracle_image_attention, oracle_query_attention
from helpers_ops import (
    OP_SCENARIOS, gaussian_skl, grad_check, info_nce, run_op_trials,
)

from mibvqa.attention import AttentionParams, image_attention, query_attention
from mibvqa.autodiff import Tensor
from mibvqa.data import (
    DatasetConfig, audit_dataset, export_dataset, generate_dataset,
    import_dataset, query_tokens, scene_features,
)
from mibvqa.model import VQAModel
from mibvqa.training import (
    ABLATION_VARIANTS, TrainConfig, ablate, evaluate, evaluate_model,
    load_checkpoint, save_checkpoint, train,
)


def _criterion(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}  [{detail}]"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------

def test_acceptance_1_gradient_oracle(micro_dataset):
    t0 = time.monotonic()

    per_op_worst = 0.0
    for op_name in OP_SCENARIOS:
        per_op_worst = max(per_op_worst, run_op_trials(op_name, n_trials=100))

    # Full objective on a 4-sample batch with frozen reparameterization noise.
    dataset = micro_dataset
    model = VQAModel(tiny_model_config(), seed=3)
    samples = dataset.samples[:4]
    features = scene_features([s.scene for s in samples], dataset.config.t_max)
    tokens = query_tokens(samples, dataset.config.k_max)
    labels = np.array([s.answer_index for s in samples])

    def full_objective(_params):
        # a fresh stream per evaluation: every one draws the same noise
        rng = np.random.default_rng(np.random.SeedSequence([123]))
        return model.loss_batch(features, tokens, labels, 1.0, rng).final

    full_err = grad_check(full_objective, list(model.parameters().values()))
    elapsed = time.monotonic() - t0

    ok = per_op_worst < 1e-6 and full_err < 1e-4 and elapsed < 60.0
    _criterion(1, "gradient-oracle", ok,
               f"per-op worst {per_op_worst:.2e} < 1e-6, "
               f"full-model {full_err:.2e} < 1e-4, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. attention vs straight-line oracle
# ---------------------------------------------------------------------------

def _random_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[int(rng.integers(n))] = True
    return mask


def _query_one(q, mask, params):
    """query_attention on a batch of one; weights [n] and pooled [d] of it."""
    res = query_attention(Tensor(q), mask[None], params)
    return res.weights.data[0], res.pooled.data[0]


def _image_one(h, q_star, mask, params):
    """image_attention on a batch of one; weights [n] and pooled [d] of it."""
    res = image_attention(Tensor(h), Tensor(q_star[None]), mask[None], params)
    return res.weights.data[0], res.pooled.data[0]


def test_acceptance_2_attention_oracle():
    t0 = time.monotonic()
    d_q, d_h, d_ff, d_p = 4, 5, 3, 6
    rng = np.random.default_rng(20)

    worst_elem = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        params = AttentionParams(
            d_q, d_h, d_ff=d_ff, d_p=d_p,
            rng=np.random.default_rng(int(rng.integers(1 << 30))))

        k = int(rng.integers(1, 7))
        q = rng.standard_normal((k, d_q))
        q_mask = _random_mask(rng, k)
        q_weights, q_pooled = _query_one(q, q_mask, params)
        alpha, pooled = oracle_query_attention(
            q, q_mask, params.query_w.data, params.query_score.data)
        worst_elem = max(worst_elem,
                         np.abs(q_weights - alpha).max(),
                         np.abs(q_pooled - pooled).max())
        worst_sum = max(worst_sum, abs(q_weights.sum() - 1.0))

        t = int(rng.integers(1, 7))
        h = rng.standard_normal((t, d_h))
        q_star = rng.standard_normal(d_q)
        h_mask = _random_mask(rng, t)
        h_weights, h_pooled = _image_one(h, q_star, h_mask, params)
        beta, pooled_h = oracle_image_attention(
            h, q_star, h_mask, params.img_proj_w.data,
            params.qstar_proj_w.data, params.img_score_w.data,
            params.img_score.data)
        worst_elem = max(worst_elem,
                         np.abs(h_weights - beta).max(),
                         np.abs(h_pooled - pooled_h).max())
        worst_sum = max(worst_sum, abs(h_weights.sum() - 1.0))

    # Singleton: one unmasked row carries the whole weight, exactly.
    params = AttentionParams(d_q, d_h, d_ff=d_ff, d_p=d_p,
                             rng=np.random.default_rng(99))
    one_q, _ = _query_one(rng.standard_normal((1, d_q)), np.array([True]), params)
    one_h, _ = _image_one(rng.standard_normal((1, d_h)),
                          rng.standard_normal(d_q), np.array([True]), params)
    singleton_ok = one_q[0] == 1.0 and one_h[0] == 1.0

    # Symmetry: identical rows (count a power of two) share weight exactly
    # and pooling reproduces the row bitwise.
    row_q = rng.standard_normal(d_q)
    sym_q_weights, sym_q_pooled = _query_one(
        np.tile(row_q, (4, 1)), np.ones(4, dtype=bool), params)
    row_h = rng.standard_normal(d_h)
    sym_h_weights, sym_h_pooled = _image_one(
        np.tile(row_h, (4, 1)), rng.standard_normal(d_q),
        np.ones(4, dtype=bool), params)
    symmetry_ok = (np.all(sym_q_weights == 0.25)
                   and np.array_equal(sym_q_pooled, row_q)
                   and np.all(sym_h_weights == 0.25)
                   and np.array_equal(sym_h_pooled, row_h))

    elapsed = time.monotonic() - t0
    ok = (worst_elem < 1e-10 and worst_sum < 1e-9
          and singleton_ok and symmetry_ok and elapsed < 30.0)
    _criterion(2, "attention-oracle", ok,
               f"elementwise worst {worst_elem:.2e} < 1e-10 on 1000+1000 "
               f"instances, weight-sum worst {worst_sum:.2e} < 1e-9, "
               f"singleton {'exact' if singleton_ok else 'WRONG'}, "
               f"symmetry {'exact' if symmetry_ok else 'WRONG'}, "
               f"{elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. bottleneck terms vs Monte Carlo and analytic bounds
# ---------------------------------------------------------------------------

def _skl(mean_p, lv_p, mean_q, lv_q) -> float:
    """The library's closed-form symmetrized KL of two diagonal Gaussians."""
    return gaussian_skl(*(Tensor(np.asarray(a, float))
                          for a in (mean_p, lv_p, mean_q, lv_q))).item()


def _mc_skl(mean_p, lv_p, mean_q, lv_q, n_samples: int, rng) -> float:
    """Monte-Carlo symmetrized KL for diagonal Gaussians, plain numpy."""

    def log_pdf(x, mean, lv):
        return -0.5 * (((x - mean) ** 2) / np.exp(lv)
                       + lv + math.log(2 * math.pi)).sum(axis=1)

    def kl(mean_a, lv_a, mean_b, lv_b):
        x = mean_a + np.exp(lv_a / 2) * rng.standard_normal(
            (n_samples, len(mean_a)))
        return float(np.mean(log_pdf(x, mean_a, lv_a)
                             - log_pdf(x, mean_b, lv_b)))

    return 0.5 * (kl(mean_p, lv_p, mean_q, lv_q)
                  + kl(mean_q, lv_q, mean_p, lv_p))


def test_acceptance_3_bottleneck_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(30)
    d = 4

    worst_rel = 0.0
    for _ in range(20):
        mean_p = rng.normal(0.0, 1.0, d)
        lv_p = rng.uniform(-1.5, 1.5, d)
        # Separate the means so the true value is well away from zero and a
        # 2% relative comparison is meaningful at 1e5 samples.
        mean_q = mean_p + np.sign(rng.standard_normal(d)) * rng.uniform(0.5, 1.5, d)
        lv_q = rng.uniform(-1.5, 1.5, d)
        closed = _skl(mean_p, lv_p, mean_q, lv_q)
        mc = _mc_skl(mean_p, lv_p, mean_q, lv_q, 100_000, rng)
        worst_rel = max(worst_rel, abs(closed - mc) / abs(closed))

    worst_self = 0.0
    for _ in range(10):
        mean = rng.normal(0.0, 1.0, d)
        lv = rng.uniform(-1.5, 1.5, d)
        worst_self = max(worst_self, abs(_skl(mean, lv, mean, lv)))

    worst_excess = -math.inf
    for _ in range(1000):
        b = int(rng.integers(2, 9))
        d_z = int(rng.integers(2, 7))
        estimate = info_nce(Tensor(rng.standard_normal((b, d_z))),
                            Tensor(rng.standard_normal((b, d_z))),
                            Tensor(rng.standard_normal((d_z, d_z)))).item()
        worst_excess = max(worst_excess, estimate - math.log(b))

    single = info_nce(Tensor(rng.standard_normal((1, 3))),
                      Tensor(rng.standard_normal((1, 3))),
                      Tensor(rng.standard_normal((3, 3)))).item()

    elapsed = time.monotonic() - t0
    ok = (worst_rel < 0.02 and worst_self <= 1e-12
          and worst_excess <= 1e-9 and single == 0.0 and elapsed < 60.0)
    _criterion(3, "bottleneck-oracle", ok,
               f"divergence vs MC worst {worst_rel:.2%} < 2% on 20 pairs, "
               f"self-divergence {worst_self:.1e} <= 1e-12, "
               f"bound excess {worst_excess:.1e} <= 1e-9 on 1000 batches, "
               f"B=1 estimate {single!r} == 0.0, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 4. end-to-end learning on the default task
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_task_run():
    """Full-width model on the default dataset with the default recipe.

    The callback probes held-out accuracy every 5 epochs once 30 epochs have
    completed and stops the run at the first probe >= 0.85, so the criterion
    measures time-to-target rather than always paying for 60 epochs.
    """
    dataset = generate_dataset(DatasetConfig())
    config = TrainConfig()
    probes: dict[int, float] = {}

    def probe(epoch: int, model, record: dict) -> bool:
        if epoch >= 29 and (epoch + 1) % 5 == 0:
            oa = evaluate_model(model, dataset, "test").overall_accuracy
            probes[epoch] = oa
            return oa >= 0.85
        return False

    t0 = time.monotonic()
    result = train(config, dataset, epoch_callback=probe)
    elapsed = time.monotonic() - t0
    return dataset, result, probes, elapsed


def test_acceptance_4_end_to_end_learning(default_task_run):
    dataset, result, probes, elapsed = default_task_run
    n_train = sum(s.split == "train" for s in dataset.samples)
    n_test = sum(s.split == "test" for s in dataset.samples)
    final_oa = result.checkpoint.metrics["test"]["overall_accuracy"]
    best_oa = max([final_oa, *probes.values()])
    epochs_run = len(result.epoch_records)

    ok = (n_train == 2000 and n_test == 500
          and best_oa >= 0.85 and epochs_run <= 60 and elapsed < 600.0)
    _criterion(4, "end-to-end-learning", ok,
               f"test OA {best_oa:.3f} >= 0.85 after {epochs_run} epochs "
               f"<= 60 on {n_train}/{n_test} train/test, "
               f"{elapsed:.0f}s < 600s")


def test_training_loss_trend_is_downward(default_task_run):
    """Sanity (not a numbered criterion): the 5-epoch moving average of the
    per-epoch mean cross-entropy never regresses by more than 0.01 and ends
    below where it started."""
    _, result, _, _ = default_task_run
    ces = [record["mean_ce"] for record in result.epoch_records]
    assert len(ces) >= 10
    ma = [sum(ces[i:i + 5]) / 5 for i in range(len(ces) - 4)]
    assert ma[-1] < ma[0]
    for earlier, later in zip(ma, ma[1:]):
        assert later <= earlier + 0.01


# ---------------------------------------------------------------------------
# 5. ablation harness
# ---------------------------------------------------------------------------

def test_acceptance_5_ablation_harness():
    dataset = generate_dataset(DatasetConfig(n_samples=400, seed=311))
    config = TrainConfig(epochs=4, batch_size=16, learning_rate=2e-3, seed=77)
    mc = tiny_model_config()

    first = ablate(dataset, dataclasses.replace(config, seed=101),
                   split="test", model_config=mc)
    again = ablate(dataset, dataclasses.replace(config, seed=101),
                   split="test", model_config=mc)

    names = [name for name, _, _ in ABLATION_VARIANTS]
    categories = sorted({s.category for s in dataset.samples})
    structure_ok = (
        [row["name"] for row in first.rows] == names
        and all(set(row["per_category_accuracy"]) == set(categories)
                and "overall_accuracy" in row and "average_accuracy" in row
                for row in first.rows)
        and all(name in first.table for name in names)
        and all(cat in first.table for cat in categories)
        and "OA" in first.table and "AA" in first.table)

    identical_ok = (first.table == again.table
                    and first.to_dict() == again.to_dict()
                    and all(
                        first.checkpoints[n].parameters[p].tobytes()
                        == again.checkpoints[n].parameters[p].tobytes()
                        for n in names
                        for p in first.checkpoints[n].parameters))

    standalone_cfg = dataclasses.replace(config, seed=101)
    standalone_mc = dataclasses.replace(
        mc, enable_cross_attention=False, enable_infomax=False)
    standalone = evaluate_model(
        train(standalone_cfg, dataset, model_config=standalone_mc).model,
        dataset, "test")
    baseline = first.rows[0]
    baseline_ok = (
        baseline["name"] == "baseline"
        and baseline["overall_accuracy"] == standalone.overall_accuracy
        and baseline["average_accuracy"] == standalone.average_accuracy
        and baseline["per_category_accuracy"]
        == dict(standalone.per_category_accuracy))

    ok = structure_ok and identical_ok and baseline_ok
    _criterion(5, "ablation-harness", ok,
               f"4-variant table structure {'ok' if structure_ok else 'WRONG'}, "
               f"rerun {'byte-identical' if identical_ok else 'DIFFERS'}, "
               f"baseline row {'matches' if baseline_ok else 'DIFFERS FROM'} "
               f"standalone run")


# ---------------------------------------------------------------------------
# 6. determinism and persistence
# ---------------------------------------------------------------------------

def test_acceptance_6_determinism_and_persistence(small_dataset, tmp_path):
    dataset = small_dataset
    config = TrainConfig(epochs=3, batch_size=16, learning_rate=2e-3, seed=13)
    mc = tiny_model_config()

    run_a = train(config, dataset, model_config=mc)
    run_b = train(config, dataset, model_config=mc)
    trajectory_ok = (run_a.step_records == run_b.step_records
                     and run_a.epoch_records == run_b.epoch_records)

    ckpt_path = tmp_path / "model.ckpt"
    save_checkpoint(run_a.checkpoint, ckpt_path)
    loaded = load_checkpoint(ckpt_path)
    resaved_path = tmp_path / "model_resaved.ckpt"
    save_checkpoint(loaded, resaved_path)
    ckpt_ok = resaved_path.read_bytes() == ckpt_path.read_bytes()

    data_path = tmp_path / "data.jsonl"
    data_resaved = tmp_path / "data_resaved.jsonl"
    export_dataset(dataset, data_path)
    export_dataset(import_dataset(data_path), data_resaved)
    data_ok = data_resaved.read_bytes() == data_path.read_bytes()

    direct = evaluate_model(run_a.model, dataset, "test")
    via_checkpoint = evaluate(loaded, dataset, "test")
    eval_ok = direct.to_dict() == via_checkpoint.to_dict()

    ok = trajectory_ok and ckpt_ok and data_ok and eval_ok
    _criterion(6, "determinism-persistence", ok,
               f"trajectories {'identical' if trajectory_ok else 'DIFFER'}, "
               f"checkpoint round-trip "
               f"{'bit-exact' if ckpt_ok else 'DIFFERS'}, "
               f"dataset round-trip {'bit-exact' if data_ok else 'DIFFERS'}, "
               f"evaluate(load(save)) "
               f"{'equals' if eval_ok else 'DIFFERS FROM'} evaluate(model)")


# ---------------------------------------------------------------------------
# 7. dataset integrity at scale
# ---------------------------------------------------------------------------

def test_acceptance_7_data_integrity(tmp_path):
    config = DatasetConfig(n_samples=10_000, seed=1234)
    dataset = generate_dataset(config)
    mismatches = audit_dataset(dataset)

    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    export_dataset(dataset, first_path)
    export_dataset(generate_dataset(config), second_path)
    regen_ok = first_path.read_bytes() == second_path.read_bytes()

    ok = (len(dataset.samples) == 10_000 and mismatches == 0 and regen_ok)
    _criterion(7, "data-integrity", ok,
               f"{mismatches} mismatches in {len(dataset.samples)} audited "
               f"samples, regeneration "
               f"{'byte-identical' if regen_ok else 'DIFFERS'}")
