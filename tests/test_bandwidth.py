"""Bandwidth selection by marginal posterior mode and by resampling risk."""

import warnings

import numpy as np
import pytest
from scipy import integrate

from bandchol.bandwidth import (
    default_log_k_prior,
    log_marginal_k,
    select_k_posterior_mode,
    select_k_resampling,
)
from bandchol.bayes import PriorConfig, fit_posterior, ig_cdf
from bandchol import stats
from bandchol.errors import (
    DegenerateResidual,
    EmptyGrid,
    NonFiniteLogPosterior,
    SingularDesign,
    TruncationMassZero,
)
from bandchol.stats import banded_regression


def ar1_cov(rho, p):
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def reference_dataset():
    rng = np.random.default_rng(7)
    n, p = 15, 4
    return rng.standard_normal((n, p)) @ np.linalg.cholesky(ar1_cov(0.4, p)).T


def test_default_log_k_prior():
    assert default_log_k_prior(1) == -1.0
    assert default_log_k_prior(2) == -16.0
    assert default_log_k_prior(3) == -81.0


def test_log_marginal_matches_quadrature_oracle():
    # Integrate the truncated column model numerically at k=1 and compare:
    # the closed form drops one factor (2*pi)^(-n/2) per regressed column,
    # so the two must differ by exactly (p-1)*(n/2)*log(2*pi).
    x = reference_dataset()
    n, p = x.shape
    M, nu0 = 50.0, 2.0
    k = 1
    oracle = -float(k) ** 4
    for j in range(1, p):
        z = x[:, j - 1]
        y = x[:, j]

        def integrand(d, a):
            r = y - z * a
            return (2 * np.pi * d) ** (-n / 2) * np.exp(-(r @ r) / (2 * d)) * d ** (
                nu0 / 2 - 1
            )

        val, _ = integrate.dblquad(integrand, -8, 8, 0, M,
                                   epsabs=1e-300, epsrel=1e-8)
        oracle += np.log(val)
    st = banded_regression(x, k)
    # the first column regresses on nothing: nj = n + nu0 - 0 - 4
    oracle += np.log(ig_cdf(M, (n + nu0 - 4) / 2.0, n * st.dhat[0] / 2.0))
    offset = (p - 1) * (n / 2.0) * np.log(2.0 * np.pi)
    mine = log_marginal_k(x, k, prior=PriorConfig(0, M=M, nu0=nu0))
    assert mine == pytest.approx(oracle + offset, abs=1e-6)


def test_log_marginal_frozen_oracle_values():
    # frozen from the same quadrature run extended to k=2 (triple integral
    # over (d, a1, a2) per wide column); both agreed with the closed form
    # after the constant offset to 6e-10
    x = reference_dataset()
    prior = PriorConfig(0, M=50.0, nu0=2.0)
    assert log_marginal_k(x, 1, prior) == pytest.approx(-17.35517590685096, abs=1e-6)
    assert log_marginal_k(x, 2, prior) == pytest.approx(-31.55754934841689, abs=1e-6)


def test_log_marginal_row_permutation_invariant():
    x = reference_dataset()
    perm = np.random.default_rng(0).permutation(x.shape[0])
    a = log_marginal_k(x, 2)
    b = log_marginal_k(x[perm], 2)
    assert a == pytest.approx(b, abs=1e-8)


def test_log_marginal_nonfinite_raises():
    rng = np.random.default_rng(1)
    x = 1e3 * rng.standard_normal((20, 4))
    with pytest.raises(NonFiniteLogPosterior):
        log_marginal_k(x, 1, prior=PriorConfig(0, M=1e-6))


def test_nonfinite_log_posterior_names_zero_mass_column():
    # every column's variances lie far above the cap, so the first column
    # with zero truncation mass is column 1, as in fit_posterior
    x = 1e3 * np.random.default_rng(1).standard_normal((20, 4))
    prior = PriorConfig(0, M=1e-6)
    with pytest.raises(TruncationMassZero) as fit:
        fit_posterior(x, PriorConfig(1, M=1e-6))
    for call in (lambda: log_marginal_k(x, 1, prior),
                 lambda: select_k_posterior_mode(x, 3, prior)):
        with pytest.raises(NonFiniteLogPosterior) as info:
            call()
        assert info.value.k == 1
        assert info.value.mass_zero.column == 1
        assert str(info.value) == f"log posterior at bandwidth 1 is -inf: {fit.value}"
    # a non-finite prior term is reported without a column
    with pytest.raises(NonFiniteLogPosterior) as info:
        select_k_posterior_mode(x, 3, log_k_prior=lambda k: -np.inf if k == 2 else 0.0)
    assert info.value.k == 2 and info.value.mass_zero is None
    assert str(info.value) == "log posterior at bandwidth 2 is -inf"


def test_overflowing_variance_ratio_fails_typed_without_warnings():
    # data of scale 1e150 against M = 1e-10: ig_cdf's rate / M overflows to
    # inf, where the mass is 0, and the typed errors carry the same messages
    # without a RuntimeWarning on the way
    x = np.random.default_rng(0).standard_normal((40, 6)) * 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationMassZero) as fit:
            fit_posterior(x, PriorConfig(1, M=1e-10))
        with pytest.raises(NonFiniteLogPosterior) as info:
            select_k_posterior_mode(x, 3, prior=PriorConfig(0, M=1e-10))
    assert str(fit.value) == (
        "posterior mass of d_1 on (0, 1e-10] underflows to zero: the column's variance "
        "scale n*dhat/nj is 1.15e+300, and the cap M is absolute, in squared data units")
    assert info.value.k == 1 and info.value.mass_zero.column == 1
    assert str(info.value) == f"log posterior at bandwidth 1 is -inf: {fit.value}"


def test_grid_and_fit_share_the_truncation_floor():
    # a mass between 0 and bayes.TRUNC_MASS_FLOOR counts as none in both the
    # fit and the grid: here column 1's mass at k = 1 lies below the floor
    # for M in about [0.0386, 0.0397], so the grid's k = 1 is -inf, with
    # the fit's own error as its cause, not a finite mode the fit rejects
    x = np.random.default_rng(0).standard_normal((50, 3))
    with pytest.raises(TruncationMassZero) as fit:
        fit_posterior(x, PriorConfig(1, M=0.039))
    with pytest.raises(NonFiniteLogPosterior) as info:
        select_k_posterior_mode(x, 2, prior=PriorConfig(0, M=0.039))
    assert info.value.k == 1 and info.value.mass_zero.column == fit.value.column
    assert str(info.value) == f"log posterior at bandwidth 1 is -inf: {fit.value}"
    # outside that window both still agree that the mass is there
    assert select_k_posterior_mode(x, 2, prior=PriorConfig(0, M=0.05)).mode == 1
    fit_posterior(x, PriorConfig(1, M=0.05))


def test_grid_error_precedence():
    # the smallest failing k wins; at one k the regression error comes
    # before the non-finite total
    base = 1e3 * np.random.default_rng(9).standard_normal((20, 6))
    prior = PriorConfig(0, M=1e-6)
    lag2 = base.copy()
    lag2[:, 4] = lag2[:, 2]  # an exact fit from k = 2 on; mass zero from k = 1
    with pytest.raises(NonFiniteLogPosterior) as info:
        select_k_posterior_mode(lag2, 3, prior)
    assert info.value.k == 1
    with pytest.raises(DegenerateResidual) as info:
        select_k_posterior_mode(lag2, 3)
    assert info.value.column == 5
    lag1 = base.copy()
    lag1[:, 4] = lag1[:, 3]  # an exact fit from k = 1 on
    with pytest.raises(DegenerateResidual) as info:
        select_k_posterior_mode(lag1, 3, prior)
    assert info.value.column == 5


def test_grid_factors_once(monkeypatch):
    # a well-conditioned grid takes one batched factorization of the
    # nearest-first blocks, no per-k regression, no coefficients and one
    # prior term per k
    chol = np.linalg.cholesky(ar1_cov(0.3, 30))
    x = np.random.default_rng(42).standard_normal((150, 30)) @ chol.T
    factored, regressed, priors = [], [], []
    real_cholesky, real_regress = np.linalg.cholesky, stats._regress

    def cholesky(a):
        factored.append(np.shape(a))
        return real_cholesky(a)

    def regress(stat, k, nested=None):
        regressed.append(k)
        return real_regress(stat, k, nested)

    def log_k_prior(k):
        priors.append(k)
        return default_log_k_prior(k)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(stats, "_regress", regress)
    # the grid reads no coefficients, so it computes none
    monkeypatch.setattr(stats, "_nested_coefficients", None)
    post = select_k_posterior_mode(x, 5, log_k_prior=log_k_prior)
    assert factored == [(30, 6, 6)] and regressed == [] and priors == [1, 2, 3, 4, 5]
    assert post.mode == 1
    factored.clear()
    log_marginal_k(x, 3)
    assert factored == [(30, 4, 4)] and regressed == []
    # a duplicated column takes the per-k regressions, which raise
    x[:, 7] = x[:, 6]
    with pytest.raises((SingularDesign, DegenerateResidual)):
        select_k_posterior_mode(x, 5)
    assert regressed == [1]


def test_fractional_nu0_grid_matches_fit():
    # n + nu0 - k - 4 is 0.5 at k=8 and -0.5 at k=9: the grid, the fit and
    # the marginal all admit exactly the bandwidths with positive nj
    x = np.random.default_rng(8).standard_normal((10, 20))
    prior = PriorConfig(0, nu0=2.5)
    assert np.isfinite(log_marginal_k(x, 8, prior))
    fit_posterior(x, PriorConfig(8, nu0=2.5))
    assert select_k_posterior_mode(x, 8, prior).k_values[-1] == 8
    with pytest.raises(ValueError):
        log_marginal_k(x, 9, prior)
    with pytest.raises(ValueError):
        fit_posterior(x, PriorConfig(9, nu0=2.5))
    with pytest.raises(ValueError):
        select_k_posterior_mode(x, 9, prior)


def test_mode_two_column_grid():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 2))
    post = select_k_posterior_mode(x, 1)
    np.testing.assert_array_equal(post.k_values, [1])
    assert post.mode == 1 and post.log_posterior.shape == (1,)


def test_mode_grid_validation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 5))
    with pytest.raises(EmptyGrid):
        select_k_posterior_mode(x, 0)
    with pytest.raises(ValueError):
        select_k_posterior_mode(x, 5)  # exceeds p - 1
    with pytest.raises(ValueError):
        select_k_posterior_mode(np.random.default_rng(4).standard_normal((8, 40)), 7)


def test_mode_prefers_narrow_band_on_iid_data():
    hits = 0
    for s in range(100):
        z = np.random.default_rng(1000 + s).standard_normal((200, 20))
        hits += select_k_posterior_mode(z, 10).mode == 1
    assert hits >= 90


def test_mode_recovers_ar1_bandwidth():
    chol = np.linalg.cholesky(ar1_cov(0.3, 30))
    x = np.random.default_rng(42).standard_normal((150, 30)) @ chol.T
    post = select_k_posterior_mode(x, 5)
    assert post.mode == 1
    assert np.all(np.diff(post.log_posterior) < 0.0)


def test_mode_tie_breaks_to_smallest():
    # a prior large enough to absorb the data terms in float addition
    # makes every grid value exactly equal, forcing the tie rule
    x = reference_dataset()
    huge = float(2**60)
    post = select_k_posterior_mode(x, 3, log_k_prior=lambda k: huge)
    np.testing.assert_array_equal(post.log_posterior, np.full(3, huge))
    assert post.mode == 1


def test_custom_prior_changes_mode():
    x = reference_dataset()
    wide = select_k_posterior_mode(x, 3, log_k_prior=lambda k: 100.0 * k)
    narrow = select_k_posterior_mode(x, 3)
    assert narrow.mode == 1 and wide.mode == 3


def test_resampling_deterministic_and_sane():
    chol = np.linalg.cholesky(ar1_cov(0.3, 30))
    x = np.random.default_rng(42).standard_normal((150, 30)) @ chol.T
    a = select_k_resampling(x, 5, splits=20, ref_bandwidth=10, rng=0)
    b = select_k_resampling(x, 5, splits=20, ref_bandwidth=10, rng=0)
    np.testing.assert_array_equal(a.risk, b.risk)
    assert a.mode == b.mode == 1
    assert np.all(a.risk >= 0.0) and np.all(np.isfinite(a.risk))
    np.testing.assert_array_equal(a.k_values, [1, 2, 3, 4, 5])
    c = select_k_resampling(x, 5, splits=20, ref_bandwidth=10, rng=1)
    assert not np.array_equal(a.risk, c.risk)


def test_resampling_validation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 8))
    with pytest.raises(EmptyGrid):
        select_k_resampling(x, 0)
    with pytest.raises(ValueError):
        select_k_resampling(rng.standard_normal((5, 8)), 2)  # n < 6
    with pytest.raises(ValueError):
        select_k_resampling(x, 2, ref_bandwidth=8)  # beyond p - 1
    with pytest.raises(ValueError):
        select_k_resampling(x, 2, splits=0)


def test_resampling_grid_and_reference_bounds():
    # a split fits each k on n // 3 rows and the reference on the rest; a
    # band as wide as its group is an exact or singular fit in every split,
    # so it is bad input, named, before any split is drawn
    x = np.random.default_rng(8).standard_normal((20, 25))
    for kmax, ref in ((5, 13), (1, 1)):
        select_k_resampling(x, kmax, splits=2, ref_bandwidth=ref)
    with pytest.raises(ValueError, match="kmax=6"):
        select_k_resampling(x, 6, splits=2, ref_bandwidth=13)
    with pytest.raises(ValueError, match="ref_bandwidth=14"):
        select_k_resampling(x, 5, splits=2, ref_bandwidth=14)
    with pytest.raises(ValueError, match="ref_bandwidth=19"):
        select_k_resampling(x, 5, splits=2, ref_bandwidth=19)
    # the grid is clamped at p - 1 like the fits
    narrow = x[:, :4]
    assert select_k_resampling(narrow, 20, splits=2, ref_bandwidth=3).k_values[-1] == 20


def test_resampling_factors_each_split_once(monkeypatch):
    # each split attempt makes one reference fit through banded_regression
    # and one nested factorization that every k's fit reads through
    # stats._regress; where that factor cannot be trusted, each k's read
    # falls back to the band path and its error
    from bandchol import bandwidth, competitors

    chol = np.linalg.cholesky(ar1_cov(0.3, 30))
    x = np.random.default_rng(42).standard_normal((150, 30)) @ chol.T
    regressions, reads, factors = [], [], []
    real_regression, real_factor = competitors.banded_regression, bandwidth._factor_nested
    real_regress = competitors._regress

    def regression(data, k):
        regressions.append(k)
        return real_regression(data, k)

    def regress(stat, k, nested=None):
        reads.append((k, nested.trusted))
        return real_regress(stat, k, nested)

    def factor(stat, kmax):
        nested = real_factor(stat, kmax)
        factors.append(nested.trusted)
        return nested

    monkeypatch.setattr(competitors, "banded_regression", regression)
    monkeypatch.setattr(competitors, "_regress", regress)
    monkeypatch.setattr(bandwidth, "_factor_nested", factor)
    select_k_resampling(x, 5, splits=7, ref_bandwidth=10, rng=0)
    assert regressions == [10] * 7 and factors == [True] * 7
    assert reads == [(k, True) for k in range(1, 6)] * 7
    # a column repeated 3 columns on lies outside the reference's band but
    # inside the grid's: every factor is untrusted, and the split fails at
    # k = 3 exactly as the band path fails on the same rows
    x[:, 9] = x[:, 6]
    regressions.clear()
    reads.clear()
    factors.clear()
    with pytest.raises((SingularDesign, DegenerateResidual)) as info:
        select_k_resampling(x, 5, splits=7, ref_bandwidth=1, rng=0)
    retries = bandwidth.MAX_RETRIES
    assert factors == [False] * retries and regressions == [1] * retries
    assert reads == [(1, False), (2, False), (3, False)] * retries
    rng = np.random.default_rng(0)
    for _ in range(retries):
        perm = rng.permutation(150)
    with pytest.raises(type(info.value)) as band_path:
        real_regression(x[perm[:50]], 3)
    assert band_path.value.column == info.value.column


def test_resampling_retries_then_raises_on_degenerate_data():
    # a duplicated column fails every redraw, as either a singular Gram
    # block or a vanishing residual depending on rounding
    from bandchol.errors import DegenerateResidual, SingularDesign

    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 6))
    x[:, 1] = x[:, 0]
    with pytest.raises((SingularDesign, DegenerateResidual)):
        select_k_resampling(x, 3, splits=2, ref_bandwidth=4, rng=0)
