"""Composition, decomposition, and decay-class membership."""

import numpy as np
import pytest

from bandchol import linalg
from bandchol.mcd import (
    CholeskyFactor,
    GammaSpec,
    class_membership,
    compose,
    decompose,
    population_coefficients,
)
from conftest import lower, random_band


def random_spd(rng, p, cond=100.0):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    vals = np.exp(np.linspace(0.0, np.log(cond), p))
    return (q * vals) @ q.T


def ar1_cov(rho, p):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def regression_factor(sigma):
    """Oracle: sequential regressions on all predecessors under sigma."""
    p = sigma.shape[0]
    a = np.zeros((p, p))
    d = np.empty(p)
    d[0] = sigma[0, 0]
    for j in range(1, p):
        coef = np.linalg.solve(sigma[:j, :j], sigma[:j, j])
        a[j, :j] = coef
        d[j] = sigma[j, j] - sigma[:j, j] @ coef
    return a, d


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_identity():
    for k in (0, 2):
        factor = CholeskyFactor(a=np.zeros((3, k)), d=np.ones(3))
        np.testing.assert_array_equal(compose(factor), np.eye(3))


def test_compose_2x2_symbolic():
    a, d1, d2 = 0.7, 2.0, 0.5
    factor = CholeskyFactor(a=np.array([[0.0], [a]]), d=np.array([d1, d2]))
    expected = np.array([[1.0 / d1 + a * a / d2, -a / d2],
                         [-a / d2, 1.0 / d2]])
    np.testing.assert_allclose(compose(factor), expected, atol=1e-15)


def test_compose_ar1_factor_matches_inverse_covariance():
    rho, p = 0.3, 40
    a = np.zeros((p, 1))
    a[1:, 0] = rho
    d = np.full(p, 1.0 - rho * rho)
    d[0] = 1.0
    omega = compose(CholeskyFactor(a=a, d=d))
    np.testing.assert_allclose(omega, np.linalg.inv(ar1_cov(rho, p)), atol=1e-8)


def test_compose_banded_factor_gives_banded_precision():
    # exact zeros outside the band, not merely small ones
    rng = np.random.default_rng(0)
    p, k = 12, 3
    omega = compose(CholeskyFactor(a=random_band(rng, p, k, 0.2),
                                   d=rng.uniform(0.5, 2.0, p)))
    assert np.all(omega[np.abs(np.subtract.outer(range(p), range(p))) > k] == 0.0)


def test_factor_validation():
    with pytest.raises(ValueError):
        CholeskyFactor(a=np.ones((2, 1)), d=np.ones(2))  # slot before column 0
    with pytest.raises(ValueError):
        CholeskyFactor(a=np.zeros((2, 2)), d=np.ones(2))  # band as wide as p
    with pytest.raises(ValueError):
        CholeskyFactor(a=np.zeros((2, 1)), d=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        CholeskyFactor(a=np.zeros((2, 1)), d=np.ones(3))
    with pytest.raises(ValueError):
        CholeskyFactor(a=np.zeros(2), d=np.ones(2))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_identity():
    factor = decompose(np.eye(4))
    np.testing.assert_array_equal(factor.a, np.zeros((4, 3)))
    np.testing.assert_allclose(factor.d, np.ones(4))


def test_decompose_ar1_known_coefficients():
    rho, p = 0.3, 5
    omega = np.linalg.inv(ar1_cov(rho, p))
    factor = decompose(omega)
    expected_a = np.zeros((p, p))
    idx = np.arange(p - 1)
    expected_a[idx + 1, idx] = rho
    np.testing.assert_allclose(lower(factor.a), expected_a, atol=1e-10)
    np.testing.assert_allclose(factor.d, [1.0] + [0.91] * (p - 1), atol=1e-10)


def test_decompose_matches_regression_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        omega = random_spd(rng, 12, cond=1e4)
        sigma = np.linalg.inv(omega)
        a_oracle, d_oracle = regression_factor(sigma)
        factor = decompose(omega)
        np.testing.assert_allclose(lower(factor.a), a_oracle, atol=1e-8)
        np.testing.assert_allclose(factor.d, d_oracle, atol=1e-8)


def test_decompose_compose_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(30):
        omega = random_spd(rng, 30, cond=1e6)
        back = compose(decompose(omega))
        assert np.max(np.abs(back - omega)) <= 1e-9 * np.max(np.abs(omega))


def test_decompose_rejects_indefinite():
    from bandchol.errors import SingularMatrix

    with pytest.raises(SingularMatrix):
        decompose(np.diag([1.0, -2.0]))


# ---------------------------------------------------------------------------
# population coefficients
# ---------------------------------------------------------------------------

def test_population_coefficients_identity():
    factor = population_coefficients(np.eye(5), 2)
    np.testing.assert_array_equal(factor.a, np.zeros((5, 2)))
    np.testing.assert_allclose(factor.d, np.ones(5))


def test_population_coefficients_ar1():
    rho, p = 0.3, 8
    factor = population_coefficients(ar1_cov(rho, p), 1)
    idx = np.arange(p - 1)
    expected_a = np.zeros((p, p))
    expected_a[idx + 1, idx] = rho
    np.testing.assert_allclose(lower(factor.a), expected_a, atol=1e-12)
    np.testing.assert_allclose(factor.d, [1.0] + [1 - rho**2] * (p - 1), atol=1e-12)
    # extra bandwidth adds nothing for a first-order process
    wide = population_coefficients(ar1_cov(rho, p), 3)
    np.testing.assert_allclose(lower(wide.a), expected_a, atol=1e-12)


def test_population_coefficients_full_band_matches_decompose():
    rng = np.random.default_rng(3)
    omega = random_spd(rng, 10, cond=1e3)
    sigma = np.linalg.inv(omega)
    sigma = (sigma + sigma.T) / 2.0
    full = population_coefficients(sigma, 9)
    factor = decompose(omega)
    np.testing.assert_allclose(full.a, factor.a, atol=1e-9)
    np.testing.assert_allclose(full.d, factor.d, atol=1e-9)


# ---------------------------------------------------------------------------
# decay classes
# ---------------------------------------------------------------------------

def test_gamma_spec_kinds():
    poly = GammaSpec(kind="polynomial", alpha=2.0, c=3.0)
    assert poly(1) == 3.0
    assert poly(2) == 0.75
    expo = GammaSpec(kind="exponential", beta=1.0, c=1.0)
    assert expo(2) == pytest.approx(np.exp(-2.0))
    exact = GammaSpec(kind="exact", k0=3)
    assert exact(3) == np.inf and exact(4) == 0.0
    with pytest.raises(ValueError):
        GammaSpec(kind="polynomial", alpha=-1.0)
    with pytest.raises(ValueError):
        GammaSpec(kind="nope")


def test_gamma_spec_nonincreasing():
    ks = np.arange(1, 20)
    for spec in (GammaSpec(kind="polynomial", alpha=0.7, c=2.0),
                 GammaSpec(kind="exponential", beta=0.3, c=2.0)):
        vals = spec(ks)
        assert np.all(np.diff(vals) <= 0.0)
    step = GammaSpec(kind="exact", k0=5)(ks)
    assert np.all(step[:5] == np.inf) and np.all(step[5:] == 0.0)


def test_class_membership_identity():
    report = class_membership(np.eye(6), 0.5, GammaSpec(kind="exact", k0=1))
    assert report.eps0_ok and report.member_u and report.member_ustar
    np.testing.assert_array_equal(report.factor_profile, np.zeros(5))
    np.testing.assert_array_equal(report.omega_profile, np.zeros(5))


def test_class_membership_banded_factor_profile_vanishes():
    rng = np.random.default_rng(4)
    p, k0 = 10, 2
    omega = compose(CholeskyFactor(a=random_band(rng, p, k0, 0.3),
                                   d=rng.uniform(0.5, 2.0, p)))
    report = class_membership(omega, 1e-6, GammaSpec(kind="exact", k0=k0))
    assert np.all(report.factor_profile[k0:] == 0.0)
    assert report.member_u


def test_class_membership_profiles_match_cumsum_oracle():
    rng = np.random.default_rng(5)
    omega = random_spd(rng, 9, cond=50.0)
    report = class_membership(omega, 1e-6, GammaSpec(kind="polynomial", alpha=1.0))
    a = lower(decompose(omega).a)
    for arr, prof in ((a, report.factor_profile), (omega, report.omega_profile)):
        for k in range(1, 9):
            mask = np.abs(np.subtract.outer(range(9), range(9))) > k
            oracle = np.max(np.sum(np.abs(np.where(mask, arr, 0.0)), axis=1))
            assert prof[k - 1] == pytest.approx(oracle, abs=1e-14)


def test_class_membership_exponential_scale_sweep():
    # exponentially decaying factor rows stay in the class, and some scale
    # multiple of the same decay bound covers the precision tails too
    rng = np.random.default_rng(6)
    p, beta = 12, 1.5
    # the full band: slot s of row j is the coefficient p-1-s places back
    lag = np.arange(p - 1, 0, -1.0)
    real = lag <= np.arange(p)[:, None]
    a = np.where(real, 0.5 * np.exp(-beta * lag), 0.0)
    omega = compose(CholeskyFactor(a=a, d=np.full(p, 1.0)))
    lmin, lmax = linalg.eig_extremes(omega)
    eps0 = 0.9 * min(lmin, 1.0 / lmax)
    c0 = 0.5 * np.exp(-beta) / (1.0 - np.exp(-beta))
    gamma = GammaSpec(kind="exponential", beta=beta, c=c0)
    assert class_membership(omega, eps0, gamma).member_u
    scales = [2.0**i for i in range(0, 13)]
    assert any(class_membership(omega, eps0, gamma, scale=s).member_ustar
               for s in scales)


def test_class_membership_eps0_gate():
    report = class_membership(np.diag([10.0, 1.0, 0.1]), 0.5,
                              GammaSpec(kind="exact", k0=1))
    assert not report.eps0_ok and not report.member_u and not report.member_ustar
