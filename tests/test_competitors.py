"""Least-squares banded estimator and the decomposable graphical MLE."""

import numpy as np
import pytest

from bandchol.competitors import bl_banded_estimator, graphical_mle_banded
from bandchol.errors import SingularClique
from bandchol.stats import gram_band, gram_matrix


def test_bandwidth_zero_is_reciprocal_diagonal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((25, 6))
    expected = np.diag(1.0 / np.mean(x * x, axis=0))
    np.testing.assert_allclose(bl_banded_estimator(x, 0), expected, atol=1e-12)
    np.testing.assert_allclose(graphical_mle_banded(x, 0), expected, atol=1e-12)


def test_full_band_inverts_gram():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 7))
    inv = np.linalg.inv(gram_matrix(x))
    np.testing.assert_allclose(bl_banded_estimator(x, 6), inv, atol=1e-8)
    np.testing.assert_allclose(graphical_mle_banded(x, 6), inv, atol=1e-8)
    # requesting more bandwidth than p - 1 changes nothing
    np.testing.assert_allclose(bl_banded_estimator(x, 60), inv, atol=1e-8)
    np.testing.assert_allclose(graphical_mle_banded(x, 60), inv, atol=1e-8)


def test_outputs_banded_symmetric_positive():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(20, 60))
        p = int(rng.integers(4, 12))
        k = int(rng.integers(0, 4))
        x = rng.standard_normal((n, p))
        for fn in (bl_banded_estimator, graphical_mle_banded):
            omega = fn(x, k)
            np.testing.assert_array_equal(omega, omega.T)
            idx = np.arange(p)
            np.testing.assert_array_equal(omega[np.abs(idx[:, None] - idx) > k], 0.0)
            assert np.linalg.eigvalsh(omega)[0] > 0.0


def test_estimators_coincide():
    # both impose the same banded zero pattern on the Cholesky factor, so
    # they solve the same likelihood problem and must agree exactly
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 80))
        p = int(rng.integers(3, 15))
        k = int(rng.integers(0, min(n - 2, p)))
        x = rng.standard_normal((n, p))
        bl = bl_banded_estimator(x, k)
        mle = graphical_mle_banded(x, k)
        worst = max(worst, np.max(np.abs(bl - mle)))
    assert worst <= 1e-8


def test_sample_size_requirement():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        graphical_mle_banded(rng.standard_normal((4, 6)), 3)  # n <= k + 1
    with pytest.raises(ValueError):
        bl_banded_estimator(rng.standard_normal((10, 6)), -1)


def test_singular_clique_reported():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 5))
    x[:, 2] = x[:, 1]
    with pytest.raises(SingularClique):
        graphical_mle_banded(x, 2)


def test_gram_shortcut_matches_direct():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 8))
    g = gram_band(x, 4)
    np.testing.assert_array_equal(bl_banded_estimator(x, 2),
                                  bl_banded_estimator(x, 2, gram=g))
    np.testing.assert_array_equal(graphical_mle_banded(x, 2),
                                  graphical_mle_banded(x, 2, gram=g))
