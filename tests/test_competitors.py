"""Least-squares banded estimator and the decomposable graphical MLE."""

import numpy as np
import pytest

from bandchol.competitors import bl_banded_estimator, graphical_mle_banded
from bandchol.errors import DegenerateResidual, SingularDesign
from bandchol import stats
from bandchol.stats import gram_band
from oracles import gram_matrix


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
    # a duplicated column makes column 4's predecessor block singular
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 5))
    x[:, 2] = x[:, 1]
    with pytest.raises(SingularDesign, match="at column 4"):
        graphical_mle_banded(x, 2)


def test_overflowing_estimate_is_value_error():
    # moments above stats._MOMENT_FLOOR, but a column so nearly a copy of
    # its predecessor at this scale that its residual variance, 1.4e-309,
    # lies below RESIDUAL_FLOOR times its second moment: a typed error, no
    # inf entries and no overflow warning
    u, v = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 2)))[0].T * np.sqrt(10)
    x = 1e-147 * np.column_stack([u, u + 3e-8 * v])
    with pytest.raises(DegenerateResidual, match="at column 2 is 1.39"):
        graphical_mle_banded(x, 1)


def test_collinear_columns_fail_typed():
    # column 4 is an exact combination of columns 2 and 3; the clique form
    # returned entries up to 3e15 here
    x = np.random.default_rng(0).standard_normal((12, 5))
    x[:, 3] = 0.5 * x[:, 1] - 2.0 * x[:, 2]
    with pytest.raises(DegenerateResidual, match="at column 4 ") as err:
        graphical_mle_banded(x, 2)
    assert err.value.column == 4


def test_nested_factor_gram_is_checked():
    # a NestedFactor serves bandwidths up to its width, for the data it was
    # built from, rows or their GramBand; gram takes nothing else
    x = np.random.default_rng(7).standard_normal((40, 6))
    stat = gram_band(x, 3)
    nested = stats._factor_nested(stat, 3)
    assert nested.trusted
    for k in range(4):
        for data in (x, stat):
            np.testing.assert_allclose(bl_banded_estimator(data, k, gram=nested),
                                       bl_banded_estimator(x, k), rtol=1e-12, atol=1e-14)
    for data, k in ((x, 4), (x[:39], 2), (x[:, :5], 2), (x, -1), (gram_band(x[:39], 3), 2)):
        with pytest.raises(ValueError):
            bl_banded_estimator(data, k, gram=nested)
    for gram in (stat, stat.band):
        with pytest.raises(ValueError, match="NestedFactor"):
            bl_banded_estimator(x, 2, gram=gram)
