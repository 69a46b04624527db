"""Bottleneck objective: reparameterization, closed-form SKL, InfoNCE, gamma."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mibvqa import autodiff as ad
from mibvqa.autodiff import DimensionError, Tensor
from mibvqa.infomax import (
    GAMMA_RAW_INIT,
    BottleneckParams,
    GaussianLatent,
    encode_latent,
    info_loss,
    mi_estimate,
    skl_gaussian,
    total_loss,
)

D_F, D_Z = 6, 3


def make_params(seed: int = 0) -> BottleneckParams:
    return BottleneckParams(D_F, d_z=D_Z, rng=np.random.default_rng(seed))


def latent_from(mean: np.ndarray, log_var: np.ndarray) -> GaussianLatent:
    m, lv = Tensor(np.asarray(mean, float)), Tensor(np.asarray(log_var, float))
    return GaussianLatent(m, lv, m)


def mc_skl(mean_p, lv_p, mean_q, lv_q, n_samples: int, rng) -> float:
    """Monte-Carlo symmetrized KL for diagonal Gaussians (plain numpy)."""

    def log_pdf(x, mean, lv):
        return -0.5 * (((x - mean) ** 2) / np.exp(lv) + lv + math.log(2 * math.pi)).sum(axis=1)

    def kl(mean_a, lv_a, mean_b, lv_b):
        x = mean_a + np.exp(lv_a / 2) * rng.standard_normal((n_samples, len(mean_a)))
        return float(np.mean(log_pdf(x, mean_a, lv_a) - log_pdf(x, mean_b, lv_b)))

    return 0.5 * (kl(mean_p, lv_p, mean_q, lv_q) + kl(mean_q, lv_q, mean_p, lv_p))


# ---------------------------------------------------------------- reparam


def test_zero_noise_sample_equals_mean():
    params = make_params()
    x = Tensor(np.random.default_rng(1).standard_normal((2, D_F)))
    lat = encode_latent(x, "phi", params, noise=np.zeros((2, D_Z)))
    np.testing.assert_array_equal(lat.sample.data, lat.mean.data)


def test_unit_variance_sample_is_mean_plus_noise():
    params = make_params()
    params.q_logvar_w.tensor.data[:] = 0.0
    params.q_logvar_b.tensor.data[:] = 0.0  # log_var == 0 -> std == 1
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, D_F)))
    noise = rng.standard_normal((2, D_Z))
    lat = encode_latent(x, "phi", params, noise=noise)
    np.testing.assert_array_equal(lat.sample.data, lat.mean.data + noise)


def test_log_variance_clamped_to_documented_range():
    params = make_params()
    params.q_logvar_w.tensor.data[:] = 0.0
    params.q_logvar_b.tensor.data[:] = 50.0
    x = Tensor(np.ones((1, D_F)))
    lat = encode_latent(x, "phi", params, noise=np.zeros((1, D_Z)))
    np.testing.assert_array_equal(lat.log_var.data, np.full((1, D_Z), 10.0))

    params.q_logvar_b.tensor.data[:] = -50.0
    lat = encode_latent(x, "phi", params, noise=np.zeros((1, D_Z)))
    np.testing.assert_array_equal(lat.log_var.data, np.full((1, D_Z), -10.0))


def test_latent_heads_are_separate_per_modality():
    params = make_params()
    x = Tensor(np.random.default_rng(3).standard_normal((1, D_F)))
    zq = encode_latent(x, "phi", params, noise=np.zeros((1, D_Z)))
    zh = encode_latent(x, "psi", params, noise=np.zeros((1, D_Z)))
    assert np.abs(zq.mean.data - zh.mean.data).max() > 0


# ---------------------------------------------------------------- SKL


def test_skl_identical_gaussians_is_zero():
    rng = np.random.default_rng(4)
    mean, lv = rng.standard_normal(D_Z), rng.uniform(-1, 1, D_Z)
    p, q = latent_from(mean, lv), latent_from(mean.copy(), lv.copy())
    assert abs(skl_gaussian(p, q).item()) <= 1e-12


def test_skl_hand_case_half():
    # N(0,1) vs N(1,1) in one dimension: each directed KL is 1/2, SKL = 1/2.
    p = latent_from([0.0], [0.0])
    q = latent_from([1.0], [0.0])
    assert skl_gaussian(p, q).item() == pytest.approx(0.5, abs=1e-15)


def test_skl_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = latent_from(rng.uniform(-2, 2, D_Z), rng.uniform(-1.5, 1.5, D_Z))
        q = latent_from(rng.uniform(-2, 2, D_Z), rng.uniform(-1.5, 1.5, D_Z))
        assert abs(skl_gaussian(p, q).item() - skl_gaussian(q, p).item()) <= 1e-12


def test_skl_batch_sums_over_rows():
    means = np.array([[0.0], [2.0]])
    lvs = np.zeros((2, 1))
    other = np.array([[1.0], [2.0]])
    p = latent_from(means, lvs)
    q = latent_from(other, lvs)
    # rows: SKL(N(0,1),N(1,1)) = 0.5 and SKL(N(2,1),N(2,1)) = 0
    assert skl_gaussian(p, q).item() == pytest.approx(0.5, abs=1e-14)


def test_skl_matches_monte_carlo():
    rng = np.random.default_rng(6)
    for _ in range(5):  # the 20-pair sweep runs in the acceptance gate
        mean_p = rng.uniform(-2, 2, 4)
        mean_q = mean_p + rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 1.5, 4)
        lv_p, lv_q = rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4)
        closed = skl_gaussian(latent_from(mean_p, lv_p), latent_from(mean_q, lv_q)).item()
        mc = mc_skl(mean_p, lv_p, mean_q, lv_q, 100_000, rng)
        assert abs(closed - mc) / abs(closed) < 0.02


# ---------------------------------------------------------------- InfoNCE


def test_infonce_single_pair_is_exactly_zero():
    rng = np.random.default_rng(7)
    z = Tensor(rng.standard_normal((1, D_Z)))
    critic = Tensor(rng.standard_normal((D_Z, D_Z)))
    assert mi_estimate(z, Tensor(rng.standard_normal((1, D_Z))), critic).item() == 0.0


def test_infonce_zero_critic_is_exactly_zero():
    rng = np.random.default_rng(8)
    z_q = Tensor(rng.standard_normal((5, D_Z)))
    z_h = Tensor(rng.standard_normal((5, D_Z)))
    assert mi_estimate(z_q, z_h, Tensor(np.zeros((D_Z, D_Z)))).item() == 0.0


def test_infonce_bounded_by_log_batch():
    rng = np.random.default_rng(9)
    for _ in range(200):  # the 1,000-batch sweep runs in the acceptance gate
        b, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        z_q = Tensor(rng.standard_normal((b, d)) * rng.uniform(0.5, 3))
        z_h = Tensor(rng.standard_normal((b, d)) * rng.uniform(0.5, 3))
        critic = Tensor(rng.standard_normal((d, d)))
        assert mi_estimate(z_q, z_h, critic).item() <= math.log(b) + 1e-9


def test_infonce_saturates_at_log_batch_for_diagonal_scores():
    b = 4
    z = Tensor(np.eye(b))
    critic = Tensor(50.0 * np.eye(b))
    est = mi_estimate(z, z, critic).item()
    assert math.log(b) - 1e-3 < est <= math.log(b)


def test_infonce_batch_mismatch_rejected():
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionError):
        mi_estimate(
            Tensor(rng.standard_normal((3, D_Z))),
            Tensor(rng.standard_normal((4, D_Z))),
            Tensor(np.eye(D_Z)),
        )


# ---------------------------------------------------------------- objective


def test_info_loss_gamma_zero_isolates_mi_term():
    rng = np.random.default_rng(11)
    z_q = Tensor(rng.standard_normal((3, D_Z)))
    z_h = Tensor(rng.standard_normal((3, D_Z)))
    lat_q = latent_from(rng.standard_normal((3, D_Z)), np.zeros((3, D_Z)))
    lat_h = latent_from(rng.standard_normal((3, D_Z)), np.zeros((3, D_Z)))
    critic = Tensor(rng.standard_normal((D_Z, D_Z)))
    loss = info_loss(z_q, z_h, lat_q, lat_h, Tensor(np.array(0.0)), critic)
    assert loss.value.item() == -mi_estimate(z_q, z_h, critic).item()
    assert loss.mi_estimate.item() == mi_estimate(z_q, z_h, critic).item()


def test_info_loss_identical_latents_isolates_mi_term():
    rng = np.random.default_rng(12)
    z_q = Tensor(rng.standard_normal((3, D_Z)))
    z_h = Tensor(rng.standard_normal((3, D_Z)))
    mean = rng.standard_normal((3, D_Z))
    lat = latent_from(mean, np.zeros((3, D_Z)))
    lat2 = latent_from(mean.copy(), np.zeros((3, D_Z)))
    critic = Tensor(rng.standard_normal((D_Z, D_Z)))
    gamma = Tensor(np.array(2.5))
    loss = info_loss(z_q, z_h, lat, lat2, gamma, critic)
    assert loss.value.item() == pytest.approx(-mi_estimate(z_q, z_h, critic).item(),
                                              abs=1e-14)
    assert abs(loss.skl.item()) <= 1e-14


def test_total_loss_direct_sum():
    out = total_loss(Tensor(np.array(0.7)), Tensor(np.array(0.3)), lam=1.0)
    assert out.item() == pytest.approx(1.0, abs=1e-15)


def test_total_loss_lambda_zero_is_cross_entropy_only():
    ce = Tensor(np.array(0.8125))
    out = total_loss(ce, Tensor(np.array(123.0)), lam=0.0)
    assert out.item() == ce.item()


# ---------------------------------------------------------------- gamma


def test_gamma_initializes_to_one():
    params = make_params()
    assert params.gamma_raw.data == pytest.approx(GAMMA_RAW_INIT)
    assert params.gamma().item() == pytest.approx(1.0, abs=1e-12)


def test_gamma_positive_for_any_raw_value():
    params = make_params()
    for raw in (-100.0, -5.0, 0.0, 5.0, 100.0):
        params.gamma_raw.tensor.data[...] = raw
        assert params.gamma().item() > 0.0


def test_bottleneck_gradients_flow_through_objective():
    params = make_params(seed=13)
    rng = np.random.default_rng(14)
    x_q = Tensor(rng.standard_normal((3, D_F)))
    x_h = Tensor(rng.standard_normal((3, D_F)))
    noise = np.zeros((3, D_Z))
    lat_q = encode_latent(x_q, "phi", params, noise)
    lat_h = encode_latent(x_h, "psi", params, noise)
    loss = info_loss(lat_q.sample, lat_h.sample, lat_q, lat_h,
                     params.gamma(), params.critic.tensor)
    loss.value.backward()
    for p in params.parameters():
        assert p.grad is not None, p.name
    assert np.abs(params.gamma_raw.grad).max() > 0
