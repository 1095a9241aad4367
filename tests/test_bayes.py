"""Closed-form column posteriors, their samplers, and loss estimates."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from bandchol.bayes import (
    PriorConfig,
    estimate_p_loss,
    fit_posterior,
    ig_cdf,
    plug_in_estimator,
    posterior_mean_omega,
    sample_posterior,
)
from bandchol.errors import TruncationMassZero
from bandchol.mcd import compose
from bandchol.stats import gram_matrix


def fitted(rng, n=80, p=6, k=2, M=1e6, nu0=2.0):
    data = rng.standard_normal((n, p))
    return fit_posterior(data, PriorConfig(k=k, M=M, nu0=nu0))


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(k=-1)
    with pytest.raises(ValueError):
        PriorConfig(k=1, M=0.0)
    with pytest.raises(ValueError):
        PriorConfig(k=1, nu0=np.inf)


def test_ig_cdf_against_quadrature():
    def density(x, shape, rate):
        return rate**shape / gamma_fn(shape) * x ** (-shape - 1) * np.exp(-rate / x)

    for shape in (0.7, 2.0, 5.5):
        for rate in (0.5, 3.0):
            for x in (0.3, 2.0, 10.0):
                num, _ = integrate.quad(density, 0.0, x, args=(shape, rate))
                assert ig_cdf(x, shape, rate) == pytest.approx(num, abs=1e-10)


def test_fit_posterior_symbolic_single_column():
    data = np.array([[1.0], [-1.0]])
    model = fit_posterior(data, PriorConfig(k=0, M=10.0, nu0=6.0))
    # n=2, dhat=1: shape nj/2 = (2+6-0-4)/2 = 2, rate n*dhat/2 = 1
    np.testing.assert_allclose(model.ig_shape, [2.0])
    np.testing.assert_allclose(model.ig_rate, [1.0])
    assert model.trunc_mass[0] == pytest.approx(ig_cdf(10.0, 2.0, 1.0))
    assert model.n == 2 and model.p == 1


def test_plug_in_symbolic_single_column():
    data = np.full((10, 1), np.sqrt(2.0))
    model = fit_posterior(data, PriorConfig(k=0))
    # dhat=2, nj=8: posterior mean precision is nj/(n*dhat) = 0.4
    np.testing.assert_allclose(plug_in_estimator(model), [[0.4]])


def test_plug_in_matches_composed_means():
    rng = np.random.default_rng(0)
    model = fitted(rng, n=60, p=5, k=2)
    st = model.stats
    omega = plug_in_estimator(model)
    manual = compose_from(st.coefficient_matrix(), st.n * st.dhat / st.nj)
    np.testing.assert_allclose(omega, manual, atol=1e-14)


def compose_from(a, d):
    from bandchol.mcd import CholeskyFactor

    return compose(CholeskyFactor(a=a, d=d))


def test_truncation_mass_zero():
    rng = np.random.default_rng(1)
    data = 10.0 * rng.standard_normal((10, 3))
    with pytest.raises(TruncationMassZero):
        fit_posterior(data, PriorConfig(k=1, M=1e-12))


def test_sampling_determinism():
    rng = np.random.default_rng(2)
    model = fitted(rng)
    f1 = sample_posterior(model, 7)
    f2 = sample_posterior(model, 7)
    np.testing.assert_array_equal(f1.a, f2.a)
    np.testing.assert_array_equal(f1.d, f2.d)
    f3 = sample_posterior(model, 8)
    assert not np.array_equal(f1.d, f3.d)


def test_sampled_factor_shape_and_truncation():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 5))
    # cap M near the bulk of the posterior so truncation visibly binds
    model = fit_posterior(data, PriorConfig(k=2, M=1.0))
    assert np.all(model.trunc_mass < 1.0)
    for seed in range(50):
        f = sample_posterior(model, seed)
        assert np.all(f.d <= 1.0) and np.all(f.d > 0.0)
        assert np.all(np.triu(f.a) == 0.0)


def test_sampled_moments_match_inverse_gamma():
    rng = np.random.default_rng(4)
    model = fitted(rng, n=100, p=4, k=1)
    draws = 200_000
    from bandchol.bayes import _sample_columns

    d, _ = _sample_columns(model, draws, np.random.default_rng(5))
    for j in range(model.p):
        shape, rate = model.ig_shape[j], model.ig_rate[j]
        # untruncated here: mass is 1 to double precision at M=1e6
        assert model.trunc_mass[j] == pytest.approx(1.0, abs=1e-12)
        theta = 1.0 / d[:, j]
        target = shape / rate
        mc_err = np.std(theta, ddof=1) / np.sqrt(draws)
        assert abs(np.mean(theta) - target) < 4.0 * mc_err
        target_d = rate / (shape - 1.0)
        mc_err_d = np.std(d[:, j], ddof=1) / np.sqrt(draws)
        assert abs(np.mean(d[:, j]) - target_d) < 4.0 * mc_err_d


def test_sampled_coefficient_covariance():
    x = np.random.default_rng(6).standard_normal((200, 4))
    model = fit_posterior(x, PriorConfig(k=2))
    draws = 200_000
    from bandchol.bayes import _sample_columns

    d, a = _sample_columns(model, draws, np.random.default_rng(7))
    j = 3  # 0-based column with kj = 2, its predecessors are columns 1 and 2
    st = model.stats
    centered = a[:, j] - st.ahat[j][None, :]
    cov = centered.T @ centered / draws
    target = np.mean(d[:, j]) / st.n * np.linalg.inv(gram_matrix(x)[1:3, 1:3])
    np.testing.assert_allclose(cov, target, rtol=0.05, atol=1e-6)


def test_posterior_mean_single_draw_equals_sample():
    rng = np.random.default_rng(8)
    model = fitted(rng)
    omega = posterior_mean_omega(model, 1, 11)
    np.testing.assert_array_equal(omega, compose(sample_posterior(model, 11)))


def test_posterior_mean_approaches_plug_in():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((500, 30))
    model = fit_posterior(data, PriorConfig(k=2))
    mean = posterior_mean_omega(model, 4000, 12)
    plug = plug_in_estimator(model)
    assert np.max(np.abs(mean - plug)) <= 0.05


def test_estimate_p_loss_properties():
    rng = np.random.default_rng(10)
    model = fitted(rng, n=120, p=5, k=1)
    omega0 = np.eye(5)
    mean, err = estimate_p_loss(model, omega0, 2000, norm="fro", rng=13)
    assert err > 0.0
    # convexity of the norm: the mean loss dominates the loss of the mean
    center = posterior_mean_omega(model, 2000, 13)
    from bandchol.linalg import norm_fro

    assert mean >= norm_fro(center - omega0) - 3.0 * err
    single, err0 = estimate_p_loss(model, omega0, 1, norm="fro", rng=13)
    assert err0 == 0.0 and single > 0.0
    with pytest.raises(ValueError):
        estimate_p_loss(model, omega0, 10, norm="nuclear")
    with pytest.raises(ValueError):
        estimate_p_loss(model, np.eye(4), 10)
    with pytest.raises(ValueError):
        estimate_p_loss(model, omega0, 0)


def test_loss_norms_disagree_in_general():
    rng = np.random.default_rng(11)
    model = fitted(rng, n=90, p=5, k=1)
    omega0 = np.eye(5)
    vals = {norm: estimate_p_loss(model, omega0, 500, norm=norm, rng=14)[0]
            for norm in ("spectral", "linf", "fro")}
    assert vals["fro"] >= vals["spectral"] > 0.0
