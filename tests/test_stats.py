"""Raw-moment column regressions: least-squares statistics and their failures."""

import numpy as np
import pytest

import oracles
from bandchol import stats
from bandchol.errors import DegenerateResidual, SingularDesign
from bandchol.mcd import compose
from bandchol.stats import (
    as_data_matrix,
    banded_regression,
    gram_band,
)
from conftest import BAND_FITS, lower
from oracles import gram_matrix


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
    stat = gram_band(x, 1)
    np.testing.assert_array_equal(stat.band, [[0.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                              [1.0, 2.0, 0.0]])
    assert (stat.n, stat.p, stat.width, np.shape(stat)) == (2, 2, 1, (2, 2))
    np.testing.assert_array_equal(gram_band(x, 5).band, stat.band)
    np.testing.assert_array_equal(gram_band(x, 0).band, [[1.0], [2.0]])
    assert not stat.band.flags.writeable
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


def test_gram_band_underflow_is_value_error():
    # a nonzero column whose second moment lies below _MOMENT_FLOOR, or
    # flushes to zero, is bad input; an exactly zero column is left to the
    # fits' typed errors
    x = np.random.default_rng(9).standard_normal((10, 5))
    for scale in (1e-154, 1e-160, 1e-170):
        with pytest.raises(ValueError, match="underflow"):
            gram_band(scale * x, 1)
        with pytest.raises(ValueError, match="underflow"):
            banded_regression(scale * x, 1)
    column = np.ones((4, 1))
    gram_band(np.sqrt(2.0 * stats._MOMENT_FLOOR) * column, 0)
    with pytest.raises(ValueError, match="underflow"):
        gram_band(np.sqrt(0.5 * stats._MOMENT_FLOOR) * column, 0)
    x[:, 2] = 0.0
    assert gram_band(x, 1).band[3, 1] == 0.0
    with pytest.raises((SingularDesign, DegenerateResidual)):
        banded_regression(x, 1)


def test_banded_regression_symbolic():
    x = np.array([[1.0, 2.0], [-1.0, 0.0]])
    stats = banded_regression(x, 1)
    # regression of column 2 on column 1 under raw moments: slope 1, d = 1
    np.testing.assert_allclose(stats.a, [[0.0], [1.0]])
    np.testing.assert_allclose(stats.d, [1.0, 1.0])
    assert stats.a.shape == (2, 1)
    np.testing.assert_allclose(lower(stats.a), [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("n, p, k", [
    (40, 9, 3), (20, 6, 0), (30, 6, 5), (30, 6, 9), (10, 1, 0), (10, 1, 2),
    (12, 2, 1), (12, 2, 4), (33, 100, 20), (21, 30, 20),
])
def test_banded_regression_head_tail_consistency(n, p, k):
    # every column must match its own direct least-squares fit, with the
    # padded band slots of the first columns left at zero
    x = np.random.default_rng(1).standard_normal((n, p))
    stats = banded_regression(x, k)
    keff = min(k, p - 1)
    assert stats.a.shape == (p, keff)
    for j in range(p):
        lo, pad = max(0, j - k), keff - min(j, keff)
        z = x[:, lo:j]
        coef = np.linalg.lstsq(z, x[:, j], rcond=None)[0]
        resid = x[:, j] - z @ coef
        np.testing.assert_allclose(stats.a[j, pad:], coef, atol=1e-10)
        np.testing.assert_array_equal(stats.a[j, :pad], 0.0)
        assert stats.d[j] == pytest.approx(resid @ resid / n, abs=1e-12)


def test_gram_left_unchanged_and_outputs_own_their_data():
    # the kernel reads the Gram blocks through a read-only view of the
    # caller's band; neither the band nor that view may leak out
    x = np.random.default_rng(10).standard_normal((30, 8))
    g = gram_band(x, 5)
    before = g.band.copy()
    stats = banded_regression(g, 3)
    np.testing.assert_array_equal(g.band, before)
    assert stats.a.flags.writeable and stats.a.flags.owndata
    stats.a[:] = 0.0
    np.testing.assert_array_equal(g.band, before)


def test_full_band_recovers_gram_inverse():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 8))
    stats = banded_regression(x, 7)
    omega = compose(stats)
    np.testing.assert_allclose(omega, np.linalg.inv(gram_matrix(x)), atol=1e-8)


def test_dhat_monotone_in_bandwidth():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 12))
    g = gram_band(x, 7)
    prev = None
    for k in range(1, 8):
        dhat = banded_regression(g, k).d
        assert np.all(dhat > 0.0)
        if prev is not None:
            assert np.all(dhat <= prev + 1e-12)
        prev = dhat


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
    assert abs(stats.d[2] - resid @ resid / 3) <= tol


def test_residual_floor_is_relative_to_scale():
    x = np.random.default_rng(8).standard_normal((50, 5))
    base = banded_regression(x, 2)
    for s in (1e-8, 1e8):
        st = banded_regression(s * x, 2)
        np.testing.assert_allclose(st.d, s**2 * base.d, rtol=1e-12)
        np.testing.assert_allclose(st.a, base.a, rtol=1e-12, atol=1e-14)
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
    np.testing.assert_allclose(stats.d, np.mean(x * x, axis=0))
    assert stats.a.shape == (5, 0)


@pytest.mark.parametrize("name", sorted(BAND_FITS))
def test_gram_must_be_a_band_at_least_as_wide_as_k(name):
    # a GramBand narrower than min(k, p-1) is rejected by name; one as wide
    # or wider is taken
    fit = BAND_FITS[name]
    x = np.random.default_rng(11).standard_normal((40, 9))
    for w, k in ((0, 3), (2, 3), (7, 8)):
        with pytest.raises(ValueError, match="gram_band"):
            fit(gram_band(x, w), k)
    for w in (3, 8, 20):
        fit(gram_band(x, w), 3)
    fit(gram_band(x, 8), 8)


def test_each_fit_factors_once(monkeypatch):
    # on well-conditioned data every fit makes one batched factorization of
    # its nearest-first (p, keff+1, keff+1) Gram blocks, and posterior
    # sampling one more, of the natural-order (p, keff, keff) predecessor
    # blocks; the SPD check of a covariance matrix is not batched
    from bandchol.bayes import PriorConfig, fit_posterior, sample_posterior
    from bandchol.competitors import bl_banded_estimator
    from bandchol.simulate import make_ar1_cov, sample_gaussian
    from bandchol.stats import population_coefficients

    x = sample_gaussian(make_ar1_cov(0.3, 30), 150, 42)
    sigma = gram_matrix(x)
    factored = []
    real_cholesky = np.linalg.cholesky

    def cholesky(a):
        if np.ndim(a) == 3:
            factored.append(np.shape(a))
        return real_cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    for k in (0, 3, 29, 40):
        batch = (30, min(k, 29) + 1, min(k, 29) + 1)
        for fit in (banded_regression, bl_banded_estimator,
                    lambda data, k: population_coefficients(sigma, k)):
            factored.clear()
            fit(x, k)
            assert factored == [batch], (k, fit)
        factored.clear()
        model = fit_posterior(x, PriorConfig(k))
        assert factored == [batch]
        sample_posterior(model, 0)
        assert factored == [batch, (30, batch[1] - 1, batch[1] - 1)]


def test_grid_fallback_factors_each_bandwidth_once(monkeypatch):
    # column 7 lies within about 1e-6 of column 6, so every bandwidth's
    # squared pivot ratio is near 1e-12, below PIVOT_RECHECK, and the grid
    # takes its per-k fallback, whose checks pass; with column 10 = column 6
    # - 2 * column 8 as well, bandwidth 4 fits column 10 exactly
    rng = np.random.default_rng(11)
    x = rng.standard_normal((60, 12))
    x[:, 6] = x[:, 5] + 1e-6 * rng.standard_normal(60)
    singular = x.copy()
    singular[:, 9] = singular[:, 5] - 2.0 * singular[:, 7]
    k_values = np.arange(1, 6)
    real = stats._factor_nested
    for data, failing_k in ((x, None), (singular, 4)):
        stat = gram_band(data, 5)
        want = oracles.regress_nested_twice(stat, k_values)
        factored = []

        def factor_nested(stat, kmax):
            factored.append(kmax)
            return real(stat, kmax)

        monkeypatch.setattr(stats, "_factor_nested", factor_nested)
        dhat, logdet, err = stats._regress_nested(stat, k_values)
        monkeypatch.undo()
        # the widest first, for the trust test, then each bandwidth reached once
        reached = k_values if failing_k is None else k_values[k_values <= failing_k]
        assert factored == [5, *sorted(set(reached) - {5})]
        np.testing.assert_array_equal(dhat, want[0])
        np.testing.assert_array_equal(logdet, want[1])
        assert type(err) is type(want[2]) and str(err) == str(want[2])
        assert len(dhat) == (5 if failing_k is None else failing_k - 1)


@pytest.mark.parametrize("value", [1.5, 2.0, True, np.int64(2)])
def test_bandwidths_and_counts_must_be_integers(value):
    # a float or a bool raises a ValueError that names the argument, at every
    # public entry point that takes a bandwidth or a count; a numpy integer
    # is an integer
    import bandchol as bc

    x = np.random.default_rng(0).standard_normal((30, 6))
    model = bc.fit_posterior(x, bc.PriorConfig(k=2))
    calls = {
        "k": [lambda v: bc.PriorConfig(k=v), lambda v: banded_regression(x, v),
              lambda v: bc.bl_banded_estimator(x, v), lambda v: bc.graphical_mle_banded(x, v),
              lambda v: bc.log_marginal_k(x, v),
              lambda v: bc.population_coefficients(np.eye(6), v)],
        "width": [lambda v: gram_band(x, v)],
        "kmax": [lambda v: bc.select_k_posterior_mode(x, v),
                 lambda v: bc.select_k_resampling(x, v, splits=2, ref_bandwidth=3)],
        "splits": [lambda v: bc.select_k_resampling(x, 3, splits=v, ref_bandwidth=3)],
        "ref_bandwidth": [lambda v: bc.select_k_resampling(x, 3, splits=2, ref_bandwidth=v)],
        "draws": [lambda v: bc.estimate_p_loss(model, np.eye(6), draws=v)],
    }
    for name, fns in calls.items():
        for fn in fns:
            if isinstance(value, np.integer):
                fn(value)
            else:
                with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
                    fn(value)
