"""Composition and decomposition."""

import numpy as np
import pytest

from bandchol.mcd import CholeskyFactor, compose, decompose
from bandchol.simulate import make_ar4_precision
from bandchol.stats import population_coefficients
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


def test_compose_overflow_is_value_error():
    # a valid factor whose precision matrix overflows: a ValueError from the
    # one densification, without inf entries or an overflow warning
    factor = CholeskyFactor(a=np.array([[0.0], [1e200]]), d=np.array([1.0, 1e-200]))
    with pytest.raises(ValueError, match="overflow"):
        compose(factor)


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


def test_decompose_rejects_empty_matrix():
    with pytest.raises(ValueError, match="^precision matrix is empty$"):
        decompose(np.zeros((0, 0)))


def test_decompose_of_banded_precision_vanishes_beyond_band():
    # an exactly k0-banded omega has a k0-banded factor, and decompose
    # returns exact zeros in every slot more than k0 places back
    rng = np.random.default_rng(4)
    p, k0 = 10, 2
    omega = compose(CholeskyFactor(a=random_band(rng, p, k0, 0.3),
                                   d=rng.uniform(0.5, 2.0, p)))
    assert np.all(decompose(omega).a[:, :p - 1 - k0] == 0.0)
    # the ar4 truth of the simulations, k0 = 4, and positive definite
    for p in (50, 100, 400):
        omega = make_ar4_precision(p)
        assert np.all(decompose(omega).a[:, :p - 5] == 0.0)
        assert np.linalg.eigvalsh(omega)[0] > 0.0


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


def test_population_coefficients_rejects_empty_covariance():
    with pytest.raises(ValueError, match="^covariance matrix is empty$"):
        population_coefficients(np.zeros((0, 0)), 0)
