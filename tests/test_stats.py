"""Raw-moment column regressions: least-squares statistics and their failures."""

import numpy as np
import pytest

from bandchol.errors import DegenerateResidual, SingularDesign
from bandchol.mcd import CholeskyFactor, compose
from bandchol.stats import (
    as_data_matrix,
    banded_regression,
    gram_band,
    gram_matrix,
)
from conftest import FITS_WITH_GRAM, lower


def test_as_data_matrix_validation():
    with pytest.raises(ValueError):
        as_data_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_data_matrix(np.empty((0, 2)))
    with pytest.raises(ValueError):
        as_data_matrix([[1.0, np.nan]])


def test_gram_matrix_symbolic():
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    np.testing.assert_allclose(gram_matrix(x), [[1.0, 1.0], [1.0, 2.0]])


def test_gram_band_symbolic():
    # g = [[1, 1], [1, 2]]: a pad row, then each row's g[i, i-1..i+1]
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(gram_band(x, 1), [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                                    [1.0, 2.0, 0.0]])
    np.testing.assert_array_equal(gram_band(x, 5), gram_band(x, 1))
    np.testing.assert_array_equal(gram_band(x, 0), [[1.0], [2.0]])
    assert not gram_band(x, 1).flags.writeable
    with pytest.raises(ValueError, match="nonnegative"):
        gram_band(x, -1)


def test_gram_matrix_overflow_is_value_error():
    x = 1e160 * np.random.default_rng(9).standard_normal((20, 4))
    with pytest.raises(ValueError, match="overflow"):
        gram_matrix(x)
    with pytest.raises(ValueError, match="overflow"):
        banded_regression(x, 1)
    # X'X/n is finite here, but its symmetrization g + g' overflows: a typed
    # error, not inf entries and an overflow warning
    with pytest.raises(ValueError, match="overflow"):
        gram_matrix(np.array([[1.1e154, 1.1e154]]))
    # the band raises the same error, for the same doubled diagonal
    for w in (0, 1):
        with pytest.raises(ValueError, match="overflow"):
            gram_band(np.array([[1.1e154, 1.1e154]]), w)


def test_banded_regression_symbolic():
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    stats = banded_regression(x, 1)
    # regression of column 2 on column 1 under raw moments: slope 1, d = 1
    np.testing.assert_allclose(stats.ahat, [[0.0], [1.0]])
    np.testing.assert_allclose(stats.dhat, [1.0, 1.0])
    # column 1 has only a padded slot, column 2 the factor of shat = [[1]]
    np.testing.assert_allclose(stats.shat_chol, [[[1.0]], [[1.0]]])
    np.testing.assert_array_equal(stats.kj, [0, 1])
    np.testing.assert_allclose(lower(stats.ahat), [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("n, p, k", [
    (40, 9, 3), (20, 6, 0), (30, 6, 5), (30, 6, 9), (10, 1, 0), (10, 1, 2),
    (12, 2, 1), (12, 2, 4), (33, 100, 20), (21, 30, 20),
])
def test_banded_regression_head_tail_consistency(n, p, k):
    # every column must match its own direct least-squares fit, with the
    # padded band slots of the first columns left at zero and identity
    x = np.random.default_rng(1).standard_normal((n, p))
    stats = banded_regression(x, k)
    keff = min(k, p - 1)
    assert stats.ahat.shape == (p, keff)
    assert stats.shat_chol.shape == (p, keff, keff)
    for j in range(p):
        lo, pad = max(0, j - k), keff - stats.kj[j]
        z = x[:, lo:j]
        coef = np.linalg.lstsq(z, x[:, j], rcond=None)[0]
        resid = x[:, j] - z @ coef
        np.testing.assert_allclose(stats.ahat[j, pad:], coef, atol=1e-10)
        np.testing.assert_array_equal(stats.ahat[j, :pad], 0.0)
        low = stats.shat_chol[j]
        np.testing.assert_allclose(low[pad:, pad:] @ low[pad:, pad:].T, z.T @ z / n,
                                   atol=1e-12)
        np.testing.assert_array_equal(low[:pad], np.eye(keff)[:pad])
        np.testing.assert_array_equal(low[:, :pad], np.eye(keff)[:, :pad])
        assert stats.dhat[j] == pytest.approx(resid @ resid / n, abs=1e-12)


def test_gram_left_unchanged_and_outputs_own_their_data():
    # the kernel reads the Gram blocks through a read-only view of the
    # caller's band; neither the band nor that view may leak out
    x = np.random.default_rng(10).standard_normal((30, 8))
    g = gram_band(x, 5)
    before = g.copy()
    stats = banded_regression(x, 3, gram=g)
    np.testing.assert_array_equal(g, before)
    for a in (stats.ahat, stats.shat_chol):
        assert a.flags.writeable and a.flags.owndata
    stats.ahat[:] = 0.0
    stats.shat_chol[:] = 0.0
    np.testing.assert_array_equal(g, before)


def test_full_band_recovers_gram_inverse():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 8))
    stats = banded_regression(x, 7)
    omega = compose(CholeskyFactor(a=stats.ahat, d=stats.dhat))
    np.testing.assert_allclose(omega, np.linalg.inv(gram_matrix(x)), atol=1e-8)


def test_dhat_monotone_in_bandwidth():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 12))
    g = gram_band(x, 7)
    prev = None
    for k in range(1, 8):
        dhat = banded_regression(x, k, gram=g).dhat
        assert np.all(dhat > 0.0)
        if prev is not None:
            assert np.all(dhat <= prev + 1e-12)
        prev = dhat


def test_gram_shortcut_matches_direct():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 6))
    direct = banded_regression(x, 2)
    viagram = banded_regression(x, 2, gram=gram_band(x, 4))
    np.testing.assert_array_equal(direct.dhat, viagram.dhat)
    np.testing.assert_array_equal(direct.ahat, viagram.ahat)


def test_singular_design_reports_column():
    # duplicate predecessors break column 3's Gram block; rounding decides
    # whether a factorization of it fails or passes with a tiny pivot, and
    # these seeds cover both
    for seed in range(5, 15):
        x = np.random.default_rng(seed).standard_normal((10, 4))
        x[:, 1] = x[:, 0]
        with pytest.raises(SingularDesign) as info:
            banded_regression(x, 2)
        assert info.value.column == 3
    # a singular predecessor block anywhere is reported before a residual
    # that vanishes at an earlier column
    x = np.random.default_rng(5).standard_normal((10, 7))
    x[:, 2] = x[:, 0] + x[:, 1]  # exact fit of column 3
    x[:, 5] = x[:, 4]  # duplicate predecessors break column 7's Gram block
    with pytest.raises(SingularDesign) as info:
        banded_regression(x, 2)
    assert info.value.column == 7
    # a predecessor block wider than the n rows is singular, whatever
    # rounding lets through: column 28 is the first with 27 predecessors
    # from 26 rows
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal((26, 36))
        with pytest.raises(SingularDesign) as info:
            banded_regression(x, 35)
        assert info.value.column == 28
    # an earlier collinear column is still named first
    x[:, 5] = x[:, 4]
    with pytest.raises(SingularDesign) as info:
        banded_regression(x, 35)
    assert info.value.column == 7


def test_degenerate_residual_reports_column():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 3))
    x[:, 2] = x[:, 0] + x[:, 1]  # exact fit leaves zero residual
    with pytest.raises(DegenerateResidual) as info:
        banded_regression(x, 2)
    assert info.value.column == 3


def test_recheck_of_nearly_collinear_huge_columns_fits():
    # column 2 is nearly collinear with column 1 (squared pivot ~1e-11 of
    # its diagonal entry, so the per-column recheck runs) and every second
    # moment is ~1e306; the residual of column 3 is 1e153 * w, far above
    # the floor, and must not be lost to an overflow in the recheck
    u, v, w = np.eye(3)
    x = 1e153 * np.column_stack([u, u + 3.2e-6 * v, u - 0.316 * v + w])
    stats = banded_regression(x, 2)
    coef = np.linalg.lstsq(x[:, :2], x[:, 2], rcond=None)[0]
    resid = x[:, 2] - x[:, :2] @ coef
    # the normal equations' error bound of test_banded_regression_matches_lstsq
    tol = 1e-14 * np.linalg.cond(x) ** 2 * np.mean(x[:, 2] ** 2)
    assert abs(stats.dhat[2] - resid @ resid / 3) <= tol


def test_residual_floor_is_relative_to_scale():
    x = np.random.default_rng(8).standard_normal((50, 5))
    base = banded_regression(x, 2)
    for s in (1e-8, 1e8):
        st = banded_regression(s * x, 2)
        np.testing.assert_allclose(st.dhat, s**2 * base.dhat, rtol=1e-12)
        np.testing.assert_allclose(st.ahat, base.ahat, rtol=1e-12, atol=1e-14)
        # a duplicated column is still an exact fit at every scale
        dup = s * x
        dup[:, 3] = dup[:, 2]
        with pytest.raises(DegenerateResidual) as info:
            banded_regression(dup, 1)
        assert info.value.column == 4


def test_bandwidth_zero_gives_diagonal_moments():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 5))
    stats = banded_regression(x, 0)
    np.testing.assert_allclose(stats.dhat, np.mean(x * x, axis=0))
    assert stats.ahat.shape == (5, 0) and stats.shat_chol.shape == (5, 0, 0)


@pytest.mark.parametrize("name", sorted(FITS_WITH_GRAM))
def test_gram_must_be_a_band_at_least_as_wide_as_k(name):
    # the dense matrix, a band of data with other columns and a band
    # narrower than k are all rejected by name; a wide enough band is taken
    fit = FITS_WITH_GRAM[name]
    x = np.random.default_rng(11).standard_normal((40, 9))
    for gram in (gram_matrix(x), gram_band(x[:, :8], 3), gram_band(x[:, :8], 4),
                 gram_band(x.T, 3), gram_band(x, 2), gram_band(x, 3)[:, 1:-1]):
        with pytest.raises(ValueError, match="gram_band"):
            fit(x, 3, gram)
    fit(x, 3, gram_band(x, 3))
    fit(x, 3, gram_band(x, 8))
