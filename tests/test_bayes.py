"""Closed-form column posteriors, their samplers, and loss estimates."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammainccinv

from bandchol import linalg
from bandchol.bandwidth import log_marginal_k
from bandchol.bayes import (
    TRUNC_MASS_FLOOR,
    PriorConfig,
    _sample_columns,
    estimate_p_loss,
    fit_posterior,
    ig_cdf,
    max_bandwidth,
    plug_in_estimator,
    posterior_mean_omega,
    sample_posterior,
)
from bandchol.errors import SingularDesign, TruncationMassZero
from bandchol.mcd import CholeskyFactor, compose
from bandchol.simulate import TrueModelSpec, sample_gaussian
from bandchol.stats import banded_regression
from conftest import lower
from oracles import gram_matrix


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


def test_posterior_dof_precondition():
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        fit_posterior(x, PriorConfig(k=1))  # n + nu0 - k - 4 = -1
    with pytest.raises(ValueError):
        log_marginal_k(x, 1)
    rng = np.random.default_rng(0)
    model = fit_posterior(rng.standard_normal((8, 4)), PriorConfig(k=2))
    np.testing.assert_array_equal(2.0 * model.ig_shape, [6.0, 5.0, 4.0, 4.0])
    np.testing.assert_array_equal(model.kj, [0, 1, 2, 2])
    # the bound is checked before the regression can fail
    x = rng.standard_normal((6, 5))
    x[:, 1] = x[:, 0]
    with pytest.raises(ValueError):
        fit_posterior(x, PriorConfig(k=4))  # 6 + 2 - 4 - 4 = 0
    with pytest.raises(ValueError):
        log_marginal_k(x, 4)
    with pytest.raises(SingularDesign):
        fit_posterior(x, PriorConfig(k=3))


def test_max_bandwidth():
    assert max_bandwidth(10, 20, 2.0) == 7  # 10 + 2 - 7 - 4 = 1
    assert max_bandwidth(10, 20, 2.5) == 8  # 10 + 2.5 - 8 - 4 = 0.5
    assert max_bandwidth(10, 20, 2.9) == 8
    assert max_bandwidth(10, 5, 2.0) == 4  # capped at p - 1
    assert max_bandwidth(2, 5, 2.0) == -1  # not even k = 0 is admissible
    with pytest.raises(ValueError):
        max_bandwidth(10, 20, np.inf)


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
    data = np.random.default_rng(0).standard_normal((60, 5))
    model = fit_posterior(data, PriorConfig(k=2))
    omega = plug_in_estimator(model)
    nj = model.n + 2.0 - model.kj - 4
    dhat = banded_regression(data, 2).d
    # dense oracle (I - A)' D^{-1} (I - A)
    b = (np.eye(model.p) - lower(model.ahat)) / np.sqrt(model.n * dhat / nj)[:, None]
    np.testing.assert_allclose(omega, b.T @ b, atol=1e-14)


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
        # a (5, 2) band, zero before the first coordinate
        assert f.a.shape == (5, 2) and f.a[0, 0] == f.a[0, 1] == f.a[1, 0] == 0.0


def sample_columns_oracle(model, data, draws, rng):
    """Column-by-column sampler: a solve_triangular per column, on the
    natural-order Cholesky factor of its predecessor block of gram_matrix."""
    from scipy.linalg import solve_triangular
    from scipy.special import gammainccinv

    g = gram_matrix(data)
    p, keff = model.ahat.shape
    d = np.empty((draws, p))
    a = np.zeros((draws, p, keff))
    for j, gen in enumerate(rng.spawn(p)):
        tail = (1.0 - gen.random(draws)) * model.trunc_mass[j]
        d[:, j] = 1.0 / (gammainccinv(model.ig_shape[j], tail) / model.ig_rate[j])
        kj = model.kj[j]
        if kj == 0:
            continue
        z = gen.standard_normal((draws, kj))
        lo = keff - kj
        low = np.linalg.cholesky(g[j - kj:j, j - kj:j])
        w = solve_triangular(low, z.T, trans="T", lower=True).T
        scale = np.sqrt(1.0 / model.n) * np.sqrt(d[:, j])
        a[:, j, lo:] = model.ahat[j, lo:] + scale[:, None] * w
    return d, a


@pytest.mark.parametrize("n, p, k", [(40, 6, 0), (60, 8, 2), (30, 5, 4), (90, 12, 7)])
def test_vectorized_sampler_matches_column_oracle(n, p, k):
    from bandchol.bayes import _sample_columns

    data = np.random.default_rng(n + k).standard_normal((n, p))
    model = fit_posterior(data, PriorConfig(k=k, M=2.0))
    for seed in range(5):
        for draws in (1, 7):
            d, a = _sample_columns(model, draws, np.random.default_rng(seed))
            d0, a0 = sample_columns_oracle(model, data, draws, np.random.default_rng(seed))
            np.testing.assert_array_equal(d, d0)
            np.testing.assert_allclose(a, a0, rtol=0, 
                                       atol=1e-13 * np.max(np.abs(a0), initial=0.0))
            # padded slots, and every slot of a kj = 0 column, stay exactly zero
            keff = a.shape[2]
            for j in range(p):
                np.testing.assert_array_equal(a[:, j, :keff - model.kj[j]], 0.0)


@pytest.mark.parametrize("n, p, k", [(40, 9, 3), (20, 6, 0), (30, 6, 9), (10, 1, 2),
                                     (33, 100, 20)])
def test_model_keeps_read_only_gram_band(n, p, k):
    # the sampler's predecessor blocks come from the model's Gram band at
    # width keff: the data's second moments, padded with the identity, and
    # the same bits whatever band the fit was given
    from bandchol.stats import _predecessor_blocks, gram_band

    x = np.random.default_rng(1).standard_normal((n, p))
    model = fit_posterior(x, PriorConfig(k))
    keff = min(k, p - 1)
    assert model.gram.shape == (p + keff, 2 * keff + 1) and not model.gram.flags.writeable
    wide = fit_posterior(gram_band(x, p + 1), PriorConfig(k))
    np.testing.assert_array_equal(wide.gram, model.gram)
    np.testing.assert_array_equal(wide.ahat, model.ahat)
    blocks = _predecessor_blocks(model.gram, keff)[:, :keff, :keff]
    for j in range(p):
        pad = keff - model.kj[j]
        z = x[:, j - model.kj[j]:j]
        np.testing.assert_allclose(blocks[j, pad:, pad:], z.T @ z / n, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(blocks[j, :pad], np.eye(keff)[:pad])
        np.testing.assert_array_equal(blocks[j, :, :pad], np.eye(keff)[:, :pad])


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
    centered = a[:, j] - model.ahat[j][None, :]
    cov = centered.T @ centered / draws
    target = np.mean(d[:, j]) / model.n * np.linalg.inv(gram_matrix(x)[1:3, 1:3])
    np.testing.assert_allclose(cov, target, rtol=0.05, atol=1e-6)


def test_posterior_mean_approaches_plug_in():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((500, 30))
    model = fit_posterior(data, PriorConfig(k=2))
    mean = posterior_mean_omega(model)
    plug = plug_in_estimator(model)
    assert np.max(np.abs(mean - plug)) <= 0.05


def test_estimate_p_loss_properties():
    rng = np.random.default_rng(10)
    model = fitted(rng, n=120, p=5, k=1)
    omega0 = np.eye(5)
    mean, err = estimate_p_loss(model, omega0, 2000, norm="fro", rng=13)
    assert err > 0.0
    # convexity of the norm: the mean loss dominates the loss of the mean
    center = posterior_mean_omega(model)
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


def test_p_loss_stderr_at_huge_norms():
    # norms near 1e160, whose squares overflow: a finite stderr, no warning
    x = np.random.default_rng(0).standard_normal((40, 8))
    model = fit_posterior(1e-80 * x, PriorConfig(1, M=1e300))
    mean, err = estimate_p_loss(model, np.eye(8), 3)
    assert np.isfinite(err) and 0.0 < err < mean
    # data scaled by 2^-266 and omega0 by 2^532 scale every norm by 2^532
    # exactly, and the stderr with them, bit for bit
    base = estimate_p_loss(fit_posterior(x, PriorConfig(1, M=1e300)), np.eye(8), 3)
    scaled = estimate_p_loss(fit_posterior(np.ldexp(x, -266), PriorConfig(1, M=1e300)),
                             np.ldexp(np.eye(8), 532), 3)
    assert scaled == tuple(np.ldexp(base, 532))


def test_loss_norms_disagree_in_general():
    rng = np.random.default_rng(11)
    model = fitted(rng, n=90, p=5, k=1)
    omega0 = np.eye(5)
    vals = {norm: estimate_p_loss(model, omega0, 500, norm=norm, rng=14)[0]
            for norm in ("spectral", "linf", "fro")}
    assert vals["fro"] >= vals["spectral"] > 0.0


def test_p_loss_spectral_norms_take_few_factorizations():
    """The ten k = 4 posterior-draw differences of an ar4 model at
    n = p = 500 (data seed 0, draws with rng = 1) take the band path, at most
    20 dpbtrf calls per norm: plain bisection made 51 to 100."""
    sigma, omega0 = TrueModelSpec("ar4", 500).build()
    model = fit_posterior(sample_gaussian(sigma, 500, np.random.default_rng(0)), PriorConfig(4))
    calls = [0]
    real = linalg.dpbtrf

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    counts = []
    d, a = _sample_columns(model, 10, np.random.default_rng(1))
    with mock.patch.object(linalg, "dpbtrf", counted):
        for s in range(10):
            calls[0] = 0
            linalg.norm_spectral(compose(CholeskyFactor(a=a[s], d=d[s])) - omega0)
            counts.append(calls[0])
    assert min(counts) > 0 and max(counts) <= 20, counts


@pytest.mark.parametrize("n, p, k, M", [(40, 6, 0, 1.2), (40, 6, 3, 1.2), (30, 6, 5, 1.0)])
def test_sampled_mean_matches_exact_posterior_mean(n, p, k, M):
    """The mean of 10,000 composed draws of _sample_columns against
    posterior_mean_omega, entrywise in z-scores over the m distinct entries
    of the keff-band (lower triangle, diagonal included). Each z-score uses
    the draws' sample standard deviation, and the bound is Bonferroni's at a
    familywise level of 1e-3 per case: |z| <= Phi^{-1}(1 - 1e-3 / (2 m)),
    3.76 for m = 6 at k = 0, 4.03 for m = 18 at k = 3 and 4.07 for m = 21 at
    k = p - 1. Every case truncates: the k = 3 case leaves some column less
    than half its mass below M. This checks the joint draw of (a, d), of
    which criterion 7 checks one moment at a time."""
    from scipy.stats import norm

    model = fit_posterior(np.random.default_rng(n + k).standard_normal((n, p)),
                          PriorConfig(k=k, M=M))
    if k == 3:
        assert model.trunc_mass.min() < 0.5
    draws = 10_000
    d, a = _sample_columns(model, draws, np.random.default_rng(0))
    rows, cols = np.tril_indices(p)
    band = rows - cols <= min(k, p - 1)
    rows, cols = rows[band], cols[band]
    entries = np.array([compose(CholeskyFactor(a=a[s], d=d[s]))[rows, cols]
                        for s in range(draws)])
    z = ((entries.mean(axis=0) - posterior_mean_omega(model)[rows, cols])
         / (entries.std(axis=0, ddof=1) / np.sqrt(draws)))
    assert np.max(np.abs(z)) <= norm.isf(1e-3 / (2 * len(z))), z


@pytest.mark.parametrize("shape", [1.0, 3.5, 50.0, 500.0])
@pytest.mark.parametrize("mass", [1.0, 0.5, 1e-10, 1e-100, 1e-299])
def test_inverse_variance_mean_against_mpmath(shape, mass):
    """E[1/d] of one column, read off posterior_mean_omega at p = 1, against
    (1/rate) Gamma(shape + 1, rate/M) / Gamma(shape, rate/M) in 50-digit
    mpmath, at the model's own shape, rate and cap. The caps leave masses
    from 1 down to near TRUNC_MASS_FLOOR. Each regularized incomplete gamma
    function in double precision carries a relative error of order 1e-13
    at these shapes (its prefactor exponentiates a log of size up to about
    700), and the compose adds a few rounding errors: the bound is 1e-11
    relative."""
    mpmath = pytest.importorskip("mpmath")
    # n = 2 shape rows of ones at nu0 = 4: shape n/2, dhat 1 and rate n/2
    n = int(2 * shape)
    rate = n / 2.0
    cap = np.inf if mass == 1.0 else rate / gammainccinv(shape, mass)
    model = fit_posterior(np.ones((n, 1)), PriorConfig(k=0, M=cap, nu0=4.0))
    assert model.ig_shape[0] == shape and model.ig_rate[0] == rate
    assert TRUNC_MASS_FLOOR <= model.trunc_mass[0] <= 2.0 * mass
    with mpmath.workdps(50):
        x = mpmath.mpf(rate) / mpmath.mpf(cap) if np.isfinite(cap) else 0
        expected = (mpmath.gammainc(shape + 1, x, mpmath.inf)
                    / mpmath.gammainc(shape, x, mpmath.inf) / mpmath.mpf(rate))
    assert posterior_mean_omega(model)[0, 0] == pytest.approx(float(expected), rel=1e-11, abs=0)


@pytest.mark.parametrize("n, p, k", [(50, 7, 3), (40, 6, 0), (30, 6, 5), (25, 4, 9)])
def test_posterior_mean_without_cap_adds_inverse_blocks(n, p, k):
    """With M = inf, E[1/d] is the plug-in's shape/rate, so the exact mean
    less plug_in_estimator is (1/n) sum_j pad(inv(shat_j)), shat_j the
    predecessor block of oracles.gram_matrix. Both sides are sums of a few
    inverses of well-conditioned Gram blocks, and the left one a difference
    of matrices with entries of order 1: within 1e-14 absolute."""
    x = np.random.default_rng(p + k).standard_normal((n, p))
    model = fit_posterior(x, PriorConfig(k=k, M=np.inf))
    g = gram_matrix(x)
    expected = np.zeros((p, p))
    for j in range(p):
        kj = min(j, k)
        if kj:
            expected[j - kj:j, j - kj:j] += np.linalg.inv(g[j - kj:j, j - kj:j]) / n
    diff = posterior_mean_omega(model) - plug_in_estimator(model)
    np.testing.assert_allclose(diff, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n, p, k, M", [(40, 9, 3, 1e6), (20, 6, 0, 1e6), (30, 6, 9, 1e6),
                                        (10, 1, 2, 1e6), (40, 6, 3, 1.2), (60, 30, 4, 0.8)])
def test_posterior_mean_is_symmetric_banded_definite(n, p, k, M):
    # exactly symmetric and zero beyond keff; inside the band, truncation
    # only raises E[1/d] above the plug-in's shape/rate
    x = np.random.default_rng(n * p + k).standard_normal((n, p))
    model = fit_posterior(x, PriorConfig(k=k, M=M))
    omega = posterior_mean_omega(model)
    keff = min(k, p - 1)
    np.testing.assert_array_equal(omega, omega.T)
    np.testing.assert_array_equal(np.triu(omega, keff + 1), 0.0)
    assert np.linalg.eigvalsh(omega)[0] > 0.0
    assert np.all(np.diag(omega) >= np.diag(plug_in_estimator(model)))


def test_posterior_mean_peaks_at_its_result():
    """posterior_mean_omega at p = 2000, k = 20 builds its bands first and
    allocates little beside its dense result: the tracemalloc peak of the
    call is at most 1.1 times the result's 32 MB. Adding the inverse blocks
    into the dense compose by np.add.at peaked at about twice the result."""
    model = fit_posterior(np.random.default_rng(0).standard_normal((100, 2000)),
                          PriorConfig(k=20))
    tracemalloc.start()
    try:
        omega = posterior_mean_omega(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert omega.shape == (2000, 2000) and peak <= 1.1 * omega.nbytes, peak
