"""Bottleneck: the Gaussian head, reparameterization, closed-form SKL, the
KL to the prior, and the InfoNCE estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers_ops import sum_all
from helpers_oracles import (
    composed_gaussian_sample, composed_gaussian_skl, composed_info_nce,
)
from mibvqa import autodiff as ad
from mibvqa.autodiff import DimensionError, Tensor
from mibvqa.infomax import (
    BottleneckParams,
    GaussianLatent,
    encode_latent,
    info_loss,
    latent_mean,
    total_loss,
)

D_F, D_Z = 6, 3


def make_params(seed: int = 0) -> BottleneckParams:
    return BottleneckParams(D_F, d_z=D_Z, rng=np.random.default_rng(seed))


def latent_from(mean: np.ndarray, log_var: np.ndarray) -> GaussianLatent:
    m, lv = Tensor(np.asarray(mean, float)), Tensor(np.asarray(log_var, float))
    return GaussianLatent(m, lv, m)


def skl(p: GaussianLatent, q: GaussianLatent) -> Tensor:
    """The fused symmetrized KL of two latents, summed over the batch."""
    return ad.gaussian_skl(p.mean, p.log_var, q.mean, q.log_var)


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
    lat = encode_latent(x, params, noise=np.zeros((2, D_Z)))
    np.testing.assert_array_equal(lat.sample.data, lat.mean.data)
    # evaluation's mean head alone gives the same mean
    np.testing.assert_array_equal(latent_mean(x, params).data, lat.mean.data)


def test_unit_variance_sample_is_mean_plus_noise():
    params = make_params()
    params.logvar_w.data[:] = 0.0
    params.logvar_b.data[:] = 0.0  # log_var == 0 -> std == 1
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, D_F)))
    noise = rng.standard_normal((2, D_Z))
    lat = encode_latent(x, params, noise=noise)
    np.testing.assert_array_equal(lat.sample.data, lat.mean.data + noise)


def test_log_variance_clamped_to_documented_range():
    params = make_params()
    params.logvar_w.data[:] = 0.0
    params.logvar_b.data[:] = 50.0
    x = Tensor(np.ones((1, D_F)))
    lat = encode_latent(x, params, noise=np.zeros((1, D_Z)))
    np.testing.assert_array_equal(lat.log_var.data, np.full((1, D_Z), 10.0))

    params.logvar_b.data[:] = -50.0
    lat = encode_latent(x, params, noise=np.zeros((1, D_Z)))
    np.testing.assert_array_equal(lat.log_var.data, np.full((1, D_Z), -10.0))


# ---------------------------------------------------------------- SKL


def test_skl_identical_gaussians_is_zero():
    rng = np.random.default_rng(4)
    mean, lv = rng.standard_normal(D_Z), rng.uniform(-1, 1, D_Z)
    p, q = latent_from(mean, lv), latent_from(mean.copy(), lv.copy())
    assert abs(skl(p, q).item()) <= 1e-12


def test_skl_hand_case_half():
    # N(0,1) vs N(1,1) in one dimension: each directed KL is 1/2, SKL = 1/2.
    p = latent_from([0.0], [0.0])
    q = latent_from([1.0], [0.0])
    assert skl(p, q).item() == pytest.approx(0.5, abs=1e-15)


def test_skl_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = latent_from(rng.uniform(-2, 2, D_Z), rng.uniform(-1.5, 1.5, D_Z))
        q = latent_from(rng.uniform(-2, 2, D_Z), rng.uniform(-1.5, 1.5, D_Z))
        assert abs(skl(p, q).item() - skl(q, p).item()) <= 1e-12


def test_skl_batch_sums_over_rows():
    means = np.array([[0.0], [2.0]])
    lvs = np.zeros((2, 1))
    other = np.array([[1.0], [2.0]])
    p = latent_from(means, lvs)
    q = latent_from(other, lvs)
    # rows: SKL(N(0,1),N(1,1)) = 0.5 and SKL(N(2,1),N(2,1)) = 0
    assert skl(p, q).item() == pytest.approx(0.5, abs=1e-14)


def test_skl_matches_monte_carlo():
    rng = np.random.default_rng(6)
    for _ in range(5):  # the 20-pair sweep runs in the acceptance gate
        mean_p = rng.uniform(-2, 2, 4)
        mean_q = mean_p + rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 1.5, 4)
        lv_p, lv_q = rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4)
        closed = skl(latent_from(mean_p, lv_p), latent_from(mean_q, lv_q)).item()
        mc = mc_skl(mean_p, lv_p, mean_q, lv_q, 100_000, rng)
        assert abs(closed - mc) / abs(closed) < 0.02


# ---------------------------------------------------------------- InfoNCE


def test_infonce_single_pair_is_exactly_zero():
    rng = np.random.default_rng(7)
    z = Tensor(rng.standard_normal((1, D_Z)))
    critic = Tensor(rng.standard_normal((D_Z, D_Z)))
    assert ad.info_nce(z, Tensor(rng.standard_normal((1, D_Z))), critic).item() == 0.0


def test_infonce_zero_critic_is_exactly_zero():
    rng = np.random.default_rng(8)
    z_q = Tensor(rng.standard_normal((5, D_Z)))
    z_h = Tensor(rng.standard_normal((5, D_Z)))
    assert ad.info_nce(z_q, z_h, Tensor(np.zeros((D_Z, D_Z)))).item() == 0.0


def test_infonce_bounded_by_log_batch():
    rng = np.random.default_rng(9)
    for _ in range(200):  # the 1,000-batch sweep runs in the acceptance gate
        b, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        z_q = Tensor(rng.standard_normal((b, d)) * rng.uniform(0.5, 3))
        z_h = Tensor(rng.standard_normal((b, d)) * rng.uniform(0.5, 3))
        critic = Tensor(rng.standard_normal((d, d)))
        assert ad.info_nce(z_q, z_h, critic).item() <= math.log(b) + 1e-9


def test_infonce_saturates_at_log_batch_for_diagonal_scores():
    b = 4
    z = Tensor(np.eye(b))
    critic = Tensor(50.0 * np.eye(b))
    est = ad.info_nce(z, z, critic).item()
    assert math.log(b) - 1e-3 < est <= math.log(b)


def test_infonce_batch_mismatch_rejected():
    rng = np.random.default_rng(10)
    with pytest.raises(DimensionError):
        ad.info_nce(
            Tensor(rng.standard_normal((3, D_Z))),
            Tensor(rng.standard_normal((4, D_Z))),
            Tensor(np.eye(D_Z)),
        )


# ---------------------------------------------------------------- fused nodes

FUSED_TOL = 1e-10


def _value_and_grads(fn, params):
    for p in params:
        p.grad = None
    out = fn(*params)
    ad.backward(out)
    return out.item(), [p.grad.copy() for p in params]


def _assert_fused_matches_composed(fused, composed, params):
    value, grads = _value_and_grads(fused, params)
    ref_value, ref_grads = _value_and_grads(composed, params)
    assert value == ref_value
    for i, (grad, ref) in enumerate(zip(grads, ref_grads)):
        assert np.abs(grad - ref).max() < FUSED_TOL, f"operand {i}"


@pytest.mark.parametrize("shape", [(D_Z,), (1, D_Z), (7, D_Z)])
def test_gaussian_skl_node_equals_the_composed_form(shape):
    rng = np.random.default_rng(15)
    for _ in range(20):
        # mean_p, log_var_p, mean_q, log_var_q
        params = [Tensor(rng.uniform(-2, 2, shape), requires_grad=True),
                  Tensor(rng.uniform(-3, 3, shape), requires_grad=True),
                  Tensor(rng.uniform(-2, 2, shape), requires_grad=True),
                  Tensor(rng.uniform(-3, 3, shape), requires_grad=True)]
        _assert_fused_matches_composed(ad.gaussian_skl, composed_gaussian_skl, params)


@pytest.mark.parametrize("b", [1, 2, 9])
def test_info_nce_node_equals_the_composed_form(b):
    rng = np.random.default_rng(16)
    for _ in range(20):
        scale = rng.uniform(0.5, 3.0)
        # z_q, z_h, critic
        params = [Tensor(rng.standard_normal((b, D_Z)) * scale, requires_grad=True),
                  Tensor(rng.standard_normal((b, D_Z)) * scale, requires_grad=True),
                  Tensor(rng.standard_normal((D_Z, D_Z)), requires_grad=True)]
        _assert_fused_matches_composed(ad.info_nce, composed_info_nce, params)


@pytest.mark.parametrize("shape", [(D_Z,), (1, D_Z), (7, D_Z)])
def test_gaussian_sample_node_equals_the_composed_form(shape):
    rng = np.random.default_rng(17)
    for _ in range(20):
        eps = rng.standard_normal(shape)
        readout = Tensor(rng.standard_normal(shape))
        params = [Tensor(rng.uniform(-2, 2, shape), requires_grad=True),
                  Tensor(rng.uniform(-3, 3, shape), requires_grad=True)]
        results = []
        for sample_fn in (ad.gaussian_sample, composed_gaussian_sample):
            for p in params:
                p.grad = None
            sample = sample_fn(params[0], params[1], eps)
            ad.backward(sum_all(ad.hadamard(sample, readout)))
            results.append((sample.data, [p.grad.copy() for p in params]))
        (value, grads), (ref_value, ref_grads) = results
        np.testing.assert_array_equal(value, ref_value)
        for grad, ref in zip(grads, ref_grads):
            assert np.abs(grad - ref).max() < FUSED_TOL


def test_fused_nodes_reject_mismatched_shapes():
    with pytest.raises(DimensionError):
        ad.gaussian_skl(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                        Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        ad.info_nce(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                    Tensor(np.zeros((2, 2))))
    with pytest.raises(DimensionError):
        ad.gaussian_sample(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                           np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        ad.gaussian_sample(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))),
                           np.zeros((2, 3)))


# ---------------------------------------------------------------- objective


def test_info_loss_of_the_prior_is_zero():
    lat = latent_from(np.zeros((3, D_Z)), np.zeros((3, D_Z)))
    assert info_loss(lat).item() == 0.0


def test_info_loss_is_the_batch_mean_skl_to_the_standard_normal():
    # row 0 is N(1, 1) in every entry: each directed KL to N(0, 1) is 1/2,
    # so each entry's SKL is 1/2; row 1 is the prior itself
    mean = np.array([[1.0] * D_Z, [0.0] * D_Z])
    lat = latent_from(mean, np.zeros((2, D_Z)))
    assert info_loss(lat).item() == pytest.approx(0.5 * D_Z / 2, abs=1e-14)
    rng = np.random.default_rng(12)
    for _ in range(10):
        mean, lv = rng.uniform(-2, 2, (4, D_Z)), rng.uniform(-1.5, 1.5, (4, D_Z))
        zero = Tensor(np.zeros((4, D_Z)))
        expected = composed_gaussian_skl(Tensor(mean), Tensor(lv), zero,
                                         zero).item() / 4
        assert info_loss(latent_from(mean, lv)).item() == pytest.approx(
            expected, rel=1e-14)


def test_info_loss_rejects_latents_of_different_shapes():
    # a latent whose mean and log-variance disagree in shape
    rng = np.random.default_rng(13)
    lat = GaussianLatent(Tensor(rng.standard_normal((3, D_Z))),
                         Tensor(np.zeros((3, D_Z + 1))),
                         Tensor(rng.standard_normal((3, D_Z))))
    with pytest.raises(DimensionError):
        info_loss(lat)


def test_total_loss_direct_sum():
    out = total_loss(Tensor(np.array(0.7)), Tensor(np.array(0.3)), lam=1.0)
    assert out.item() == pytest.approx(1.0, abs=1e-15)


def test_total_loss_lambda_zero_is_cross_entropy_only():
    ce = Tensor(np.array(0.8125))
    out = total_loss(ce, Tensor(np.array(123.0)), lam=0.0)
    assert out.item() == ce.item()


def test_bottleneck_gradients_flow_through_objective():
    params = make_params(seed=13)
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((3, D_F)))
    lat = encode_latent(x, params, rng.standard_normal((3, D_Z)))
    readout = Tensor(rng.standard_normal((3, D_Z)))
    loss = total_loss(sum_all(ad.hadamard(lat.sample, readout)), info_loss(lat),
                      lam=0.5)
    ad.backward(loss)
    for name, p in vars(params).items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, name
