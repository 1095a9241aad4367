"""Property tests of the fitting entry points and the band arithmetic.

Degenerate inputs fail with typed errors, never with NaNs: every fitting
entry point either returns finite values (with positive residual
variances where it reports them) or raises a BandcholError subclass or a
ValueError; a bare LinAlgError, itself a ValueError, is a failure.
Inputs mix duplicate, zero and constant columns, sample sizes close to
the bandwidth and scales from 1e-8 to 1e160, and from 1e-165 to 1e-150,
where the second moments fall below stats._MOMENT_FLOOR or flush to zero
and the fits raise ValueError. On Gaussian data, the
batched regressions match a per-column least-squares oracle. Where the
batched factorization fails, the column-by-column checks on the same
nearest-first blocks raise a typed error, and where they pass on an
untrusted factor, the fit matches the same oracle. The posterior-mode
grid and log_marginal_k match a per-bandwidth evaluation of _regress,
errors included, with log determinants from natural-order factors of
oracles.gram_matrix blocks. The resampling selector's risk matches a
dense per-column lstsq replay of its splits, and every bandwidth's BL
estimate read from one shared nested factorization matches the band path
and lstsq, or raises the band path's error. On singular and nearly singular
matrices, the SPD factorization, decompose and population_coefficients
fail with typed errors too.

compose of a coefficient band matches the dense product built from
lower(band), norm_spectral matches the dense symmetric eigensolver on
either side of its switch to the band bisection and on adversarial bands,
within its bound on factorizations and close to plain bisection's value,
the dense extreme eigenvalues match it
on adversarial dense matrices, the norm of a general matrix matches the
SVD, and on symmetric and non-finite inputs on both sides of SYM_SCAN_RATIO
and of BAND_BISECTION_LIMIT norm_spectral is bit for bit the oracle of its
front end from before linalg._bands, errors included; is_symmetric matches
the dense formula, NaN included; estimate_p_loss matches
eigvalsh and numpy's dense l-infinity and Frobenius norms over the same
draws, the posterior sampler matches a dense replay of its random streams,
tiny truncation masses included, CholeskyFactor rejects every malformed
band, and the CSV reader's
fast path agrees with its csv-module path on arbitrary small files. The
estimate and bandwidth commands, run through cli.main on small CSVs with
degenerate columns and extreme scales, 1e-165 to 1e-150 among them,
and with valid and invalid --cap and --nu0, exit 0, 2 or 3 and never
raise; a bad prior flag exits 2, a failed command leaves no file, and
every sidecar parses as strict JSON.
gram_band matches oracles.gram_matrix within its width, its Gram blocks
match the dense padded construction, and every fit of a GramBand at least
as wide as its bandwidth is bit for bit the fit of the rows; a narrower
one, and any GramBand given to the resampler, raises ValueError.
"""

import dataclasses
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainccinv, gammaln

from bandchol.bandwidth import (
    default_log_k_prior,
    log_marginal_k,
    select_k_posterior_mode,
    select_k_resampling,
)
from bandchol.bayes import (
    PriorConfig,
    _sample_columns,
    estimate_p_loss,
    fit_posterior,
    ig_cdf,
    max_bandwidth,
    plug_in_estimator,
)
from bandchol.competitors import bl_banded_estimator, graphical_mle_banded
from bandchol.errors import (
    BandcholError,
    DegenerateResidual,
    NonFiniteLogPosterior,
    SingularDesign,
    SingularMatrix,
)
import oracles
from bandchol import cli, linalg, stats
from bandchol.mcd import CholeskyFactor, compose, decompose, population_coefficients
from bandchol.simulate import ar1_precision, make_ar1_cov, sample_gaussian
from bandchol.stats import _regress, as_data_matrix, banded_regression, gram_band
from conftest import BAND_FITS, lower, random_band, widest_bisected_band


@st.composite
def degenerate_data(draw):
    p = draw(st.integers(1, 8))
    k = draw(st.integers(0, p + 1))
    n = draw(st.integers(max(1, k - 2), k + 8))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    columns = st.integers(0, p - 1)
    edits = st.one_of(
        st.tuples(st.just("duplicate"), columns, columns),
        st.tuples(st.just("zero"), columns),
        st.tuples(st.just("constant"), columns, st.floats(-3.0, 3.0)),
    )
    for edit in draw(st.lists(edits, max_size=3)):
        if edit[0] == "duplicate":
            x[:, edit[1]] = x[:, edit[2]]
        elif edit[0] == "zero":
            x[:, edit[1]] = 0.0
        else:
            x[:, edit[1]] = edit[2]
    return 10.0 ** draw(st.integers(-8, 160) | st.integers(-165, -150)) * x, k


def outcome(fn, *args, errors=(BandcholError, ValueError)):
    """fn(*args), or None when it raised one of errors, by default a typed
    error or a ValueError; a bare LinAlgError fails the test."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as err:
        pytest.fail(f"{fn.__name__} raised a bare LinAlgError: {err}")
    except errors:
        return None


def assert_finite(name, *arrays):
    for a in arrays:
        assert np.all(np.isfinite(a)), f"{name} returned non-finite values"


@settings(max_examples=300)
@given(degenerate_data())
def test_degenerate_inputs_fail_typed(case):
    x, k = case
    stats = outcome(banded_regression, x, k)
    if stats is not None:
        assert_finite("banded_regression", stats.dhat, stats.ahat)
        assert np.all(stats.dhat > 0.0)
    model = outcome(fit_posterior, x, PriorConfig(k))
    if model is not None:
        assert_finite("fit_posterior", model.ig_shape, model.ig_rate, model.trunc_mass)
        assert np.all(model.stats.dhat > 0.0)
        assert_finite("plug_in_estimator", plug_in_estimator(model))
    value = outcome(log_marginal_k, x, k)
    if value is not None:
        assert_finite("log_marginal_k", value)
    for fn in (bl_banded_estimator, graphical_mle_banded):
        omega = outcome(fn, x, k)
        if omega is not None:
            assert_finite(fn.__name__, omega)


@st.composite
def near_singular_spd(draw):
    """A rank-deficient a a' + ridge I, a of shape p x r with r < p and ridge
    at most 1e-14, or an SPD matrix with one coordinate exactly duplicated;
    and a bandwidth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p = draw(st.integers(2, 11))
        a = rng.standard_normal((p, draw(st.integers(1, p - 1))))
        m = a @ a.T + draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14])) * np.eye(p)
    else:
        p = draw(st.integers(2, 40))
        a = rng.standard_normal((p, p))
        m = a @ a.T + np.eye(p)
        i = draw(st.integers(0, p - 1))
        j = (i + draw(st.integers(1, p - 1))) % p
        m[j] = m[i]
        m[:, j] = m[:, i]
    return m, draw(st.integers(0, p))


@settings(max_examples=300)
@given(near_singular_spd())
def test_near_singular_spd_inputs_fail_typed(case):
    """The SPD entry points return finite values or raise SingularMatrix or
    ValueError (population_coefficients also its DegenerateResidual and
    SingularDesign) on singular and nearly singular matrices."""
    m, k = case
    spd = (SingularMatrix, ValueError)
    factored = outcome(linalg._spd_factor, m, errors=spd)
    if factored is not None:
        assert_finite("_spd_factor", *factored)
    for fn, args, errors in ((decompose, (m,), spd),
                             (population_coefficients, (m, k),
                              spd + (DegenerateResidual, SingularDesign))):
        factor = outcome(fn, *args, errors=errors)
        if factor is not None:
            assert_finite(fn.__name__, factor.a, factor.d)


@st.composite
def regression_data(draw):
    p = draw(st.integers(1, 12))
    k = draw(st.integers(0, p + 1))
    n = draw(st.integers(max(1, min(k, p - 1) - 1), k + 10))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    return x, k


@settings(max_examples=300)
@given(regression_data())
def test_banded_regression_matches_lstsq(case):
    # every column's coefficients and residual variance match a direct
    # least-squares fit on its real predecessors; a band as wide as the
    # sample leaves some column an exact fit or a singular design
    x, k = case
    n, p = x.shape
    keff = min(k, p - 1)
    if keff >= n:
        with pytest.raises((SingularDesign, DegenerateResidual)):
            banded_regression(x, k)
        return
    assert_matches_lstsq(x, banded_regression(x, k))


def assert_matches_lstsq(x, stats):
    """Every column's ahat and dhat against a per-column lstsq fit on its
    real predecessors; the padded slots are exactly zero."""
    n, p = x.shape
    keff = stats.ahat.shape[1]
    for j in range(p):
        kj = stats.kj[j]
        z = x[:, j - kj:j]
        coef = np.linalg.lstsq(z, x[:, j], rcond=None)[0]
        resid = x[:, j] - z @ coef
        # the kernel solves the normal equations, whose error grows with
        # the squared condition number of the design
        tol = 1e-14 * (np.linalg.cond(x[:, j - kj:j + 1]) ** 2 if kj else 1.0)
        np.testing.assert_allclose(stats.ahat[j, keff - kj:], coef, rtol=0, atol=tol)
        np.testing.assert_array_equal(stats.ahat[j, :keff - kj], 0.0)
        assert abs(stats.dhat[j] - resid @ resid / n) <= tol * np.mean(x[:, j] ** 2)


@st.composite
def near_exact_fits(draw):
    # Gaussian predecessors that fit the last column up to a residual
    # variance of about 1e-12 of its second moment: the batch factors, its
    # last pivot is too small to trust, and the column checks pass
    p = draw(st.integers(2, 8))
    k = draw(st.integers(1, p))
    n = draw(st.integers(p + 2, p + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    twin = draw(st.integers(max(0, p - 1 - k), p - 2))
    x[:, -1] = x[:, twin] + draw(st.sampled_from([1e-6, 3e-6])) * rng.standard_normal(n)
    return x, k


@settings(max_examples=500)
@given(st.one_of(regression_data(), degenerate_data(), near_exact_fits()))
def test_check_columns_contract(case):
    """_check_columns on the nearest-first blocks of an untrusted batch.

    Where np.linalg.cholesky of the batch's blocks raises, _check_columns
    on the same blocks raises SingularDesign or DegenerateResidual: _regress
    reads the factor's values only when it returns. Where it returns, those
    values stand, so the fit must match the per-column lstsq oracle within
    the tolerance of test_banded_regression_matches_lstsq, or raise its
    own DegenerateResidual.
    """
    x, k = case
    n, p = x.shape
    keff = min(k, p - 1)
    stat = outcome(gram_band, x, keff)
    if stat is None or stats._factor_nested(stat, keff).trusted:
        return
    blocks = stats._nearest_first_blocks(stat.band, keff)
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        with pytest.raises((SingularDesign, DegenerateResidual)):
            stats._check_columns(blocks, n)
        return
    try:
        stats._check_columns(blocks, n)
    except (SingularDesign, DegenerateResidual):
        return
    fit = outcome(banded_regression, x, k, errors=(DegenerateResidual,))
    if fit is not None:
        assert_matches_lstsq(x, fit)


def grid_oracle(x, k_values):
    """The per-k grid: _regress at each k in turn, then that k's total,
    with each predecessor block's log determinant from its own natural-order
    Cholesky factor of gram_matrix.

    Returns (total, scale) rows, scale the sum of the absolute values of
    the terms added, or (error type, column, k) for the first failure: a
    regression error at k before a non-finite total at k, whose column is
    the first with zero truncation mass.
    """
    n, p = x.shape
    prior = PriorConfig(0)
    try:
        g = gram_band(x, max(k_values))
    except ValueError:
        return ValueError, None, None
    dense = oracles.gram_matrix(x)
    totals = []
    for k in k_values:
        try:
            fit = _regress(g, k)
        except (SingularDesign, DegenerateResidual) as err:
            return type(err), err.column, k
        shape = (n + prior.nu0 - fit.kj - 4) / 2.0
        rate = n * fit.dhat / 2.0
        logdet = np.array([
            2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(dense[j - kj:j, j - kj:j]))))
            for j, kj in enumerate(fit.kj)])
        col_terms = (-0.5 * (fit.kj * np.log(n / (2.0 * np.pi)) + logdet)
                     + gammaln(shape) - shape * np.log(rate))
        mass = ig_cdf(prior.M, shape, rate)
        with np.errstate(divide="ignore"):
            trunc_terms = np.log(mass)
        terms = [default_log_k_prior(k), np.sum(col_terms[1:]), np.sum(trunc_terms)]
        total = terms[0] + terms[1] + terms[2]
        if not np.isfinite(total):
            zero = np.nonzero(mass == 0.0)[0]
            return NonFiniteLogPosterior, zero[0] + 1 if zero.size else None, k
        scale = abs(terms[0]) + np.sum(np.abs(col_terms[1:])) + np.sum(np.abs(trunc_terms))
        totals.append((total, scale))
    return np.array(totals)


def grid_outcome(fn, *args):
    """fn(*args), or (error type, column, k) of what it raised: k is that of
    the failing _regress call or NonFiniteLogPosterior's own, and the
    latter's column that of its zero truncation mass."""
    calls = []
    real = stats._regress

    def regress(stat, k, nested=None):
        calls.append(k)
        return real(stat, k, nested)

    try:
        with mock.patch.object(stats, "_regress", regress):
            return fn(*args)
    except (SingularDesign, DegenerateResidual) as err:
        return type(err), err.column, calls[-1]
    except NonFiniteLogPosterior as err:
        return type(err), err.mass_zero and err.mass_zero.column, err.k
    except ValueError as err:
        assert not isinstance(err, np.linalg.LinAlgError), err
        return ValueError, None, None


@settings(max_examples=1000)
@given(st.one_of(regression_data(), degenerate_data()))
def test_grid_matches_per_k_oracle(case):
    """The grid and log_marginal_k match the per-k evaluation of grid_oracle.

    Both evaluate the same closed form from Cholesky factors of the same
    Gram blocks, taken in two orders. Where the grid trusts its nested
    factor (every squared pivot, the last of which is the smallest residual
    variance, above PIVOT_RECHECK = 1e-10 of its diagonal entry), rounding
    in either order stays many orders of magnitude below 1e-9 of the sum of
    the absolute values of the terms added (the prior, the column terms and
    the log truncation masses) on these inputs, Gaussian columns or exactly
    degenerate ones, and that is the tolerance; elsewhere it replays the
    per-k regressions. The mode is the same, and where the oracle raises,
    the grid raises the same type at the same column and k.
    """
    x, k = case
    n, p = x.shape
    kmax = min(k, max_bandwidth(n, p, 2.0))
    checks = []
    if kmax >= 1:
        checks.append((lambda: select_k_posterior_mode(x, kmax), np.arange(1, kmax + 1)))
    if min(k, p - 1) <= max_bandwidth(n, p, 2.0):
        checks.append((lambda: log_marginal_k(x, k), [k]))
    for fn, k_values in checks:
        oracle = grid_oracle(x, k_values)
        got = grid_outcome(fn)
        if isinstance(oracle, tuple):
            assert got == oracle
            continue
        assert not isinstance(got, tuple), got
        values = np.atleast_1d(got.log_posterior if hasattr(got, "mode") else got)
        assert np.all(np.abs(values - oracle[:, 0]) <= 1e-9 * oracle[:, 1])
        if hasattr(got, "mode"):
            assert got.mode == k_values[int(np.argmax(oracle[:, 0]))]


@st.composite
def resampling_cases(draw):
    # an estimation group of at least 2p + 2 Gaussian rows, so no split
    # is singular or close to it
    p = draw(st.integers(2, 8))
    n = draw(st.integers(6 * p + 6, 6 * p + 26))
    rho = draw(st.floats(-0.9, 0.9))
    x = sample_gaussian(make_ar1_cov(rho, p), n, draw(st.integers(0, 2**32 - 1)))
    kmax = draw(st.integers(1, p - 1))
    ref_bandwidth = draw(st.integers(1, p - 1))
    return x, kmax, draw(st.integers(1, 5)), ref_bandwidth, draw(st.integers(0, 2**32 - 1))


def dense_bl_oracle(x, k):
    """(I - A)' D^{-1} (I - A) from per-column least squares of each column
    on its min(j, k) predecessors, with divisor-n residual variances."""
    n, p = x.shape
    t = np.eye(p)
    d = np.empty(p)
    for j in range(p):
        z = x[:, j - min(j, k):j]
        coef = np.linalg.lstsq(z, x[:, j], rcond=None)[0]
        t[j, j - min(j, k):j] = -coef
        resid = x[:, j] - z @ coef
        d[j] = resid @ resid / n
    return t.T @ (t / d[:, None])


@settings(max_examples=100)
@given(resampling_cases())
def test_resampling_matches_dense_lstsq_oracle(case):
    """select_k_resampling's risk and mode against a dense replay.

    The oracle draws np.random.default_rng(seed).permutation(n) once per
    split, fits every k on the first n // 3 rows of the permutation and
    the reference at ref_bandwidth on the rest by per-column lstsq,
    composes each fit densely and averages the l1 distances. The selector
    solves the normal equations instead, whose relative error in the
    coefficients and residual variances grows as eps * kappa^2, kappa the
    condition number of the design, at most that of its group's data
    matrix. So the risk of k must match within
        1e-12 * mean over splits of (kappa_est^2 * |fit_k|_1 + kappa_ref^2 * |ref|_1),
    about 4500 eps times each matrix's l1 norm. The mode is the first
    minimizer of the risk, and no smaller k has an oracle risk below the
    mode's by more than both tolerances.
    """
    x, kmax, splits, ref_bandwidth, seed = case
    n = x.shape[0]
    sel = select_k_resampling(x, kmax, splits=splits, ref_bandwidth=ref_bandwidth, rng=seed)
    rng = np.random.default_rng(seed)
    n1 = n // 3
    oracle = np.zeros(kmax)
    tol = np.zeros(kmax)
    for _ in range(splits):
        perm = rng.permutation(n)
        est, rest = x[perm[:n1]], x[perm[n1:]]
        ref = dense_bl_oracle(rest, ref_bandwidth)
        ref_scale = np.linalg.cond(rest) ** 2 * np.linalg.norm(ref, 1)
        for i in range(kmax):
            fit = dense_bl_oracle(est, i + 1)
            oracle[i] += np.linalg.norm(fit - ref, 1)
            tol[i] += 1e-12 * (np.linalg.cond(est) ** 2 * np.linalg.norm(fit, 1) + ref_scale)
    oracle /= splits
    tol /= splits
    np.testing.assert_array_equal(sel.k_values, np.arange(1, kmax + 1))
    assert np.all(np.abs(sel.risk - oracle) <= tol), np.max(np.abs(sel.risk - oracle) / tol)
    m = sel.mode - 1
    assert sel.risk[m] == sel.risk.min() and np.all(sel.risk[:m] > sel.risk[m])
    assert np.all(oracle[:m] > oracle[m] - tol[:m] - tol[m])
    assert np.all(oracle >= oracle[m] - tol - tol[m])


@st.composite
def nested_fit_cases(draw):
    # Gaussian columns, fewer rows than the width K or more, and at times a
    # near-duplicate column, within K of its twin or beyond it
    p = draw(st.integers(1, 24))
    width = draw(st.integers(0, p - 1))
    n = draw(st.one_of(st.integers(1, width + 2), st.integers(width + 3, 3 * p + 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    if p >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, p - 2))
        j = draw(st.integers(i + 1, p - 1))
        x[:, j] = x[:, i] + draw(st.sampled_from([1e-12, 1e-9, 1e-6])) * rng.standard_normal(n)
    return x, width


def fit_outcome(x, k, gram=None):
    """bl_banded_estimator(x, k, gram=gram), or the type and column of the
    typed error it raised."""
    try:
        return bl_banded_estimator(x, k, gram=gram)
    except (SingularDesign, DegenerateResidual) as err:
        return type(err), err.column


@settings(max_examples=300)
@given(nested_fit_cases())
def test_nested_factor_fits_match_band_path_and_lstsq(case):
    """Every k's bl_banded_estimator(x, k, gram=<one NestedFactor of width
    K>) against the band path bl_banded_estimator(x, k) and dense_bl_oracle.

    An untrusted factor (K above the row count, or a pivot at most
    PIVOT_RECHECK of its diagonal entry, as a near-duplicate column within
    K of its twin gives) fits on its band, so it must return the band
    path's bits or raise its error type at its column. A trusted one
    solves the same normal equations as the band path in another way, by
    an explicit inverse of the width-K factor, against a back-substitution
    on the factor at k. Both then err by about eps * kappa^2
    relative in the coefficients and the residual variances, kappa the
    condition number of the data's columns j-K, ..., j, which bounds that
    of every block the fits read. Tolerance, fixed before the first run:
    the l1 distance to the band path and to the oracle at most
    1e-12 * kappa_K^2 * |band path|_1, kappa_K the largest such kappa over
    the columns, as in test_resampling_matches_dense_lstsq_oracle. A
    back-substitution would pass that tolerance too, so the trusted fit
    must also equal, byte for byte, the estimate composed from row
    keff = min(k, p-1) of the factor's coefficients and residual variances,
    which the resampler's recorded risks read, at k = K too.
    """
    x, width = case
    n, p = x.shape
    nested = stats._factor_nested(gram_band(x, width), width)
    kappa = max(np.linalg.cond(x[:, max(0, j - width):j + 1]) for j in range(p))
    for k in range(width + 1 + (width == p - 1)):
        band_path = fit_outcome(x, k)
        got = fit_outcome(x, k, nested)
        if isinstance(band_path, tuple) or not nested.trusted:
            assert isinstance(got, tuple) == isinstance(band_path, tuple), (k, got)
            if isinstance(got, tuple):
                assert got == band_path, k
            else:
                np.testing.assert_array_equal(got, band_path)
            continue
        assert not isinstance(got, tuple), (k, got)
        keff = min(k, p - 1)
        ahat = nested.coef[keff - 1, :, keff - 1::-1] if keff else np.zeros((p, 0))
        read = compose(CholeskyFactor(a=ahat, d=nested.dhat[keff]))
        assert got.dtype == read.dtype and got.shape == read.shape, k
        assert got.tobytes() == read.tobytes(), k
        tol = 1e-12 * kappa ** 2 * np.linalg.norm(band_path, 1)
        assert np.linalg.norm(got - band_path, 1) <= tol, k
        assert np.linalg.norm(got - dense_bl_oracle(x, k), 1) <= tol, k
    if width < p - 1:
        with pytest.raises(ValueError, match="NestedFactor"):
            bl_banded_estimator(x, width + 1, gram=nested)
    with pytest.raises(ValueError, match="NestedFactor"):
        bl_banded_estimator(x[:, :-1] if p > 1 else np.vstack([x, x]), 0, gram=nested)


@st.composite
def gram_band_cases(draw):
    # p on both sides of every tile edge up to the third, widths from 0 to
    # past p, one row, fewer rows than columns, and more rows than the 384
    # past which numpy's symmetric and general products split their sums
    # differently, three memory layouts and four scales, of which 1e-300
    # underflows, 1e-146 lies near the floor on the second moments and 1e155
    # overflows
    edges = [m * stats.GRAM_TILE + d for m in (1, 2, 3) for d in (-1, 0, 1)]
    p = draw(st.one_of(st.sampled_from([1, 2] + edges), st.integers(1, 200)))
    w = draw(st.one_of(st.just(0), st.integers(0, p + 2)))
    n = draw(st.one_of(st.just(1), st.integers(1, max(1, p - 1)), st.integers(1, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        x = rng.standard_normal((2 * n, 3 * p))[::2, 1::3]
    else:
        x = np.asarray(rng.standard_normal((n, p)), order=layout)
    return draw(st.sampled_from([1.0, 1e-300, 1e-146, 1e155])) * x, w


def dense_of_band(band):
    """The dense p x p matrix whose entries within w of the diagonal a padded
    row band holds, zero elsewhere, row by row."""
    w = band.shape[1] // 2
    p = band.shape[0] - w
    g = np.zeros((p, p))
    for i in range(p):
        lo, hi = max(0, i - w), min(p, i + w + 1)
        g[i, lo:hi] = band[w + i, w + lo - i:w + hi - i]
    return g


@settings(max_examples=300)
@given(gram_band_cases())
def test_gram_band_matches_gram_matrix(case):
    """gram_band(x, w) holds gram_matrix(x) within w of the diagonal.

    Tolerance, fixed from the arithmetic before the first run: both compute
    each entry as a dot product of n terms over n, in different summation
    orders (a general product against a symmetric rank-k update), so each is
    within n u ||x_i|| ||x_j|| / n + u |g_ij| of the exact value, u = eps/2,
    and they differ by at most (n + 2) eps sqrt(g_ii g_jj) (Cauchy-Schwarz),
    plus 2 n 2^-1074 for the products and partial sums that underflow. The
    pad rows, the entries outside the matrix and the symmetry of the band
    are exact, the band is read-only, a wider band holds the same bits
    within the narrower one's width, and the band overflows, with
    gram_matrix's ValueError, exactly when gram_matrix does. It underflows,
    with a ValueError, exactly when a column with a nonzero entry has a
    diagonal entry of gram_matrix below stats._MOMENT_FLOOR, as every
    column does at scale 1e-300.

    The Gram blocks of every bandwidth k <= w, read as one strided view of
    the band, equal exactly the windows of the dense padded construction
    (the band's matrix in the lower-right corner of an identity of order
    p + k).
    """
    x, width = case
    n, p = x.shape
    w = min(width, p - 1)
    try:
        dense = oracles.gram_matrix(x)
    except ValueError as err:
        with pytest.raises(ValueError, match="overflow"):
            gram_band(x, width)
        assert "overflow" in str(err)
        return
    if np.any(x[:, np.diagonal(dense) < stats._MOMENT_FLOOR]):
        with pytest.raises(ValueError, match="underflow"):
            gram_band(x, width)
        return
    stat = gram_band(x, width)
    band = stat.band
    assert (stat.n, stat.p, stat.width) == (n, p, w)
    assert band.shape == (p + w, 2 * w + 1) and not band.flags.writeable
    pad = np.zeros((w, 2 * w + 1))
    pad[:, w] = 1.0
    np.testing.assert_array_equal(band[:w], pad)
    g = dense_of_band(band)
    rows, cols = np.indices((p, p))
    inside = np.abs(rows - cols) <= w
    root = np.sqrt(np.diagonal(dense))
    tol = (n + 2) * np.finfo(float).eps * np.outer(root, root) + 2 * n * 2.0 ** -1074
    assert np.all(np.abs(g - dense)[inside] <= tol[inside])
    np.testing.assert_array_equal(g, g.T)
    # the band holds nothing but the matrix's entries and the pad
    assert np.count_nonzero(band[w:]) == np.count_nonzero(g[inside])
    wide = gram_band(x, p).band
    for v in sorted({0, 1, w}):
        v = min(v, p - 1)
        np.testing.assert_array_equal(wide[p - 1 - v:, p - 1 - v:p + v], gram_band(x, v).band)
    for k in sorted({0, w // 2, w}):
        padded = np.eye(p + k)
        padded[k:, k:] = g
        blocks = stats._predecessor_blocks(band, k)
        assert blocks.shape == (p, k + 1, k + 1) and not blocks.flags.writeable
        assert all(np.array_equal(blocks[j], padded[j:j + k + 1, j:j + k + 1])
                   for j in range(p))


@st.composite
def band_fit_cases(draw):
    # widths from 0 to p past min(k, p-1), so some bands are too narrow
    p = draw(st.sampled_from([1, 2, 5, 17, 63, 64, 65, 100, 129]))
    k = draw(st.one_of(st.just(0), st.integers(0, min(p, 24))))
    n = draw(st.one_of(st.integers(1, 80), st.integers(385, 450)))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    keff = min(k, p - 1)
    return x, k, draw(st.one_of(st.integers(keff, keff + p), st.integers(0, keff)))


def fields(result):
    """The arrays and numbers of a fit's result by name, through nested dataclasses."""
    if not dataclasses.is_dataclass(result):
        return {"": result}
    return {f"{name}.{sub}": value for name, field in vars(result).items()
            for sub, value in fields(field).items()}


def band_fit_outcomes(data, k):
    """What each public fit of data, rows or a GramBand, returns at bandwidth
    k, field by field, or the type and message of what it raises."""
    out = {}
    for name, fit in BAND_FITS.items():
        try:
            out[name] = fields(fit(data, k))
        except (BandcholError, ValueError) as err:
            out[name] = (type(err), str(err))
    return out


@settings(max_examples=250)
@given(band_fit_cases())
def test_fits_given_a_gram_band_are_bit_identical(case):
    """Every public fit of gram_band(x, w), w >= min(k, p-1), returns the
    bytes of the same fit of the rows x, or raises the same error: a band's
    entries do not depend on its width, and the blocks a fit reads are views
    of them. Given a narrower band, a fit raises the ValueError that names
    gram_band, unless the fit of the rows raises a ValueError, which on
    Gaussian data comes from the shape checks that precede the band, and
    then it raises that one. select_k_resampling, which splits the rows,
    raises ValueError on any GramBand."""
    x, k, w = case
    stat = gram_band(x, w)
    got = band_fit_outcomes(stat, k)
    expected = band_fit_outcomes(x, k)
    narrow = w < min(k, x.shape[1] - 1)
    for name, b in expected.items():
        a = got[name]
        if isinstance(b, tuple) and (not narrow or issubclass(b[0], ValueError)):
            assert a == b, name
        elif narrow:
            assert a[0] is ValueError and "gram_band" in a[1], (name, a)
        else:
            assert a.keys() == b.keys(), name
            for field in b:
                got_field, want = np.asarray(a[field]), np.asarray(b[field])
                assert (got_field.dtype, got_field.shape) == (want.dtype, want.shape), name
                assert got_field.tobytes() == want.tobytes(), (name, field)
    with pytest.raises(ValueError, match="GramBand"):
        select_k_resampling(stat, max(k, 1), splits=1)


@st.composite
def band_factors(draw):
    p = draw(st.integers(1, 40))
    k = draw(st.integers(0, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_band(rng, p, k, 10.0 ** draw(st.integers(-3, 1)))
    d = 10.0 ** rng.uniform(-2.0, 2.0, p)
    return a, d


@settings(max_examples=300)
@given(band_factors())
def test_compose_matches_dense_oracle(case):
    a, d = case
    p, k = a.shape
    b = (np.eye(p) - lower(a)) / np.sqrt(d)[:, None]
    oracle = b.T @ b
    omega = compose(CholeskyFactor(a=a, d=d))
    assert omega.shape == (p, p)
    np.testing.assert_array_equal(omega, omega.T)
    assert np.max(np.abs(omega - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    outside = np.abs(np.subtract.outer(np.arange(p), np.arange(p))) > k
    assert np.all(omega[outside] == 0.0)


@st.composite
def symmetric_bands(draw):
    p = draw(st.integers(1, 120))
    switch = widest_bisected_band(p)
    b = draw(st.sampled_from(sorted({0, min(1, p - 1), switch, min(switch + 1, p - 1), p - 1})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((p, p))
    m = m + m.T
    m[np.abs(np.subtract.outer(np.arange(p), np.arange(p))) > b] = 0.0
    return m


@settings(max_examples=200)
@given(symmetric_bands())
def test_norm_spectral_matches_dense_eigensolver(m):
    oracle = np.max(np.abs(np.linalg.eigvalsh(m)))
    assert linalg.norm_spectral(m) == pytest.approx(oracle, rel=1e-12, abs=0.0)


ADVERSARIAL_KINDS = ["random", "zero", "diagonal", "negative definite",
                     "negative semidefinite", "clustered"]


SCALES = [1.0, 1e-300, 1e300, 1e-315, 1e306]


def adversarial_order(draw):
    return draw(st.sampled_from([1, 2, 7]) if draw(st.integers(0, 5)) == 0 else st.integers(25, 200))


def adversarial_symmetric(draw, p, b):
    """A symmetric matrix of order p and lower bandwidth at most b, of one of
    ADVERSARIAL_KINDS."""
    kind = draw(st.sampled_from(ADVERSARIAL_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    m = rng.standard_normal((p, p))
    m = np.where(offsets <= b, m + m.T, 0.0)
    if kind == "zero":
        m[:] = 0.0
    elif kind == "diagonal":
        m = np.diag(np.diagonal(m))
    elif kind == "negative definite":
        m -= np.diag(np.sum(np.abs(m), axis=1) + rng.uniform(0.1, 2.0))
    elif kind == "negative semidefinite":
        # minus a graph Laplacian: rows sum to 0, so lambda_max = 0
        w = np.where(offsets > 0, np.abs(m), 0.0)
        m = w - np.diag(np.sum(w, axis=1))
    elif kind == "clustered":
        m = draw(st.sampled_from([-3.0, 3.0])) * np.eye(p) + 10.0 ** rng.uniform(-14, -6) * m
    return m


@st.composite
def adversarial_bands(draw):
    """A symmetric band narrow enough for the bisection, of one of
    ADVERSARIAL_KINDS, scaled by 1, 1e-300 or 1e300, or into the subnormal
    range (1e-315) or near overflow (1e306, row sums up to about 2.5e307)."""
    p = adversarial_order(draw)
    switch = widest_bisected_band(p)
    b = switch - draw(st.integers(0, switch))
    m = adversarial_symmetric(draw, p, b)
    return draw(st.sampled_from(SCALES)) * m


@settings(max_examples=400)
@given(adversarial_bands())
def test_band_norm_matches_dense_eigensolver_on_adversarial_bands(m):
    """The Cholesky bisection of a narrow band agrees with eigvalsh.

    _band_norm's bracket stops at 4 * eps * ||M||_inf, and ||M||_inf <=
    sqrt(2b + 1) * ||M||_2, so its error is at most 4 * eps * sqrt(2b + 1)
    relative (below 1e-14 for b <= 6 here) plus O(b * eps) from the
    Cholesky tests; eigvalsh carries O(p * eps). Tolerance: 1e-12 relative,
    and exactly 0 for the zero matrix.
    """
    oracle = np.max(np.abs(np.linalg.eigvalsh(m)))
    got = linalg.norm_spectral(m)
    if oracle == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)


@settings(max_examples=400)
@given(adversarial_bands())
def test_band_norm_factorization_count_within_bound(m):
    """A norm costs at most 2 * 51 + 1 dpbtrf calls, as _band_norm's
    docstring bounds it: 51 halvings per extreme and one test between."""
    calls = []
    real = linalg.dpbtrf

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    with mock.patch.object(linalg, "dpbtrf", counted):
        linalg.norm_spectral(m)
    assert len(calls) <= 2 * 51 + 1


@settings(max_examples=400)
@given(adversarial_bands())
def test_band_norm_matches_bisection_oracle_on_adversarial_bands(m):
    """The Rayleigh-guided search agrees with plain bisection, one midpoint
    per Cholesky test, run by the same _band_norm.

    Both stop at a bracket no wider than 4 * eps * ||M||_inf, within a
    relative 4 * eps * sqrt(2b + 1) of the norm, and the guided lower ends
    carry the rounding of one band solve, O(b * eps) relative. Tolerance:
    1e-13 relative, and exactly 0 for the zero matrix.
    """
    band = linalg._bands(m, linalg._bandwidths(m)[0])[0]
    with mock.patch.object(linalg, "_top_eigenvalue", oracles.top_eigenvalue_bisection):
        want = linalg._band_norm(band)
    got = linalg.norm_spectral(m)
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@st.composite
def adversarial_dense(draw):
    """A dense symmetric matrix of one of ADVERSARIAL_KINDS, divided by its
    largest absolute row sum (so that no entry, row sum or eigenvalue
    exceeds 1), then scaled by one of SCALES."""
    p = adversarial_order(draw)
    m = adversarial_symmetric(draw, p, p - 1)
    rows = np.max(np.sum(np.abs(m), axis=1))
    if rows:
        m = m / rows
    return draw(st.sampled_from(SCALES)) * m


@settings(max_examples=300)
@given(adversarial_dense())
def test_dense_extremes_match_dense_eigensolver(m):
    """_dense_extremes and norm_spectral on dense symmetric matrices against
    eigvalsh.

    The Householder reduction is backward stable, with an error of O(p *
    eps) * ||M||_2 on each eigenvalue, as in eigvalsh, which makes the same
    reduction; the bisection of the tridiagonal T stops at about eps * ||T||_1
    <= sqrt(p) * eps * ||M||_2. Both are below 1e-13 * ||M||_2 for p <= 200.
    Tolerance: each extreme within 1e-12 * max|eigenvalue| of eigvalsh's
    (absolute, since an extreme can be 0, as for the negative semidefinite
    kind), the norm within 1e-12 relative, and all exactly 0 for the zero
    matrix.
    """
    vals = np.linalg.eigvalsh(m)
    oracle = np.max(np.abs(vals))
    lo, hi = linalg._dense_extremes(m)
    if oracle == 0.0:
        assert (lo, hi) == (0.0, 0.0)
    else:
        assert abs(lo - vals[0]) <= 1e-12 * oracle
        assert abs(hi - vals[-1]) <= 1e-12 * oracle
    got = linalg.norm_spectral(m)
    if oracle == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)


@st.composite
def general_matrices(draw):
    """A matrix that is not symmetric: rectangular, or square with an
    asymmetric part far above SYM_TOL; of normal entries, of rank one, with
    zero rows and columns, or all zero; scaled by one of SCALES."""
    rows, cols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    if draw(st.booleans()):
        cols = rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "rank one", "holes", "zero"]))
    m = rng.standard_normal((rows, cols))
    if kind == "rank one":
        m = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    elif kind == "holes":
        m[draw(st.lists(st.integers(0, rows - 1), max_size=3)), :] = 0.0
        m[:, draw(st.lists(st.integers(0, cols - 1), max_size=3))] = 0.0
    elif kind == "zero":
        m[:] = 0.0
    return draw(st.sampled_from(SCALES)) * m


@settings(max_examples=300)
@given(general_matrices())
def test_norm_spectral_of_general_matrices_matches_svd(m):
    """norm_spectral on inputs that are not symmetric against np.linalg.norm
    (m, 2), the largest singular value from the SVD.

    norm_spectral takes the largest value of the SVD, as np.linalg.norm does,
    and LAPACK's SVD scales m itself where its entries would overflow or
    underflow, at any of SCALES. Tolerance: 1e-12 relative, and exactly 0 for
    the zero matrix.
    """
    oracle = np.linalg.norm(m, 2)
    got = linalg.norm_spectral(m)
    if oracle == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)


@st.composite
def lopsided_bands(draw):
    """A square matrix with independent lower and upper bandwidths, made
    symmetric but for a perturbation of relative size around SYM_TOL."""
    p = draw(st.integers(1, 150))
    # narrow bands take the diagonal scan, wide ones the dense formula
    widths = st.integers(0, p // linalg.SYM_SCAN_RATIO) | st.integers(0, p - 1)
    lower_width, upper_width = draw(widths), draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = np.subtract.outer(np.arange(p), np.arange(p))
    inside = (offsets <= lower_width) & (-offsets <= upper_width)
    base = rng.standard_normal((p, p))
    base = base + base.T
    noise = draw(st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-6, 1.0]))
    m = np.where(inside, base + noise * rng.standard_normal((p, p)), 0.0)
    # all-zero rows and columns count for neither bandwidth
    holes = draw(st.lists(st.integers(0, p - 1), max_size=3))
    m[holes, :] = 0.0
    m[:, holes] = 0.0
    m = draw(st.sampled_from([1.0, 1e-300, 1e300])) * m
    # NaN, alone or in a symmetric pair, counts as nonzero and is never symmetric
    for i, j in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                              max_size=2)):
        m[i, j] = np.nan
        if draw(st.booleans()):
            m[j, i] = np.nan
    return m


def nan_pair(p):
    """The identity of order p with NaN at (1, 0) and (0, 1)."""
    m = np.eye(p)
    m[1, 0] = m[0, 1] = np.nan
    return m


@settings(max_examples=400)
@given(lopsided_bands())
@example(nan_pair(20))
@example(nan_pair(30))
def test_is_symmetric_matches_dense_formula(m):
    """is_symmetric, which reads only the in-band diagonals of a narrow band,
    gives exactly the dense formula's answer, and _bandwidths the largest
    i - j and j - i over the nonzero entries. At p = 20 a NaN pair next to
    the diagonal takes the dense formula, at p = 30 the band read."""
    scale = np.max(np.abs(m))
    dense = scale == 0.0 or np.max(np.abs(m - m.T)) <= linalg.SYM_TOL * scale
    assert linalg.is_symmetric(m) == dense
    rows, cols = np.nonzero(m)
    expected = (int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0)))
    assert linalg._bandwidths(m) == expected


@st.composite
def symmetric_or_non_finite(draw):
    """A symmetric matrix of one of ADVERSARIAL_KINDS and one of SCALES, whose
    wider bandwidth lies on either side of SYM_SCAN_RATIO's switch to the
    band read and whose lower bandwidth lies on either side of
    BAND_BISECTION_LIMIT's switch to the band search. It may carry one
    entry past its lower bandwidth above the diagonal, 1e-14 of the largest
    one, which leaves it symmetric to SYM_TOL with a wider upper bandwidth,
    and NaN or an infinity in a symmetric pair. Orders 250 and 300 search
    bands with b >= 8, whose Gershgorin row sums depend on the memory order."""
    p = draw(st.integers(1, 150) | st.sampled_from([250, 300]))
    scan, switch = p // linalg.SYM_SCAN_RATIO, widest_bisected_band(p)
    b = min(p - 1, draw(st.sampled_from([0, scan, scan + 1, switch, switch + 1, p - 1])))
    m = adversarial_symmetric(draw, p, b)
    # no row sum above 1 before the scale, as in adversarial_dense
    m = m / max(1.0, np.max(np.sum(np.abs(m), axis=1))) * draw(st.sampled_from(SCALES))
    if b + 1 < p and draw(st.booleans()):
        m[0, b + 1] = 1e-14 * np.max(np.abs(m))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        m[i, j] = m[j, i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return m


def value_or_error(fn, m):
    try:
        return fn(m)
    except ValueError as err:
        return str(err)


@settings(max_examples=400)
@given(symmetric_or_non_finite())
def test_norm_spectral_matches_front_end_oracle(m):
    """norm_spectral, which reads a narrow band once through _bands, is bit
    for bit the norm of oracles.norm_spectral_symmetric, which read it three
    times, and raises the same ValueError, without a RuntimeWarning, on a
    non-finite input."""
    want = value_or_error(oracles.norm_spectral_symmetric, m)
    assert want is not None
    assert value_or_error(linalg.norm_spectral, m) == want


@st.composite
def p_loss_cases(draw):
    p = draw(st.integers(2, 60))
    k = draw(st.integers(0, 2))
    n = p + draw(st.integers(5, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = sample_gaussian(make_ar1_cov(0.5, p), n, rng)
    return fit_posterior(x, PriorConfig(k)), ar1_precision(0.5, p), draw(st.integers(1, 5)), \
        draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100)
@given(p_loss_cases())
def test_estimate_p_loss_spectral_matches_dense_eigensolver(case):
    """estimate_p_loss(norm="spectral") against the largest absolute
    eigenvalue from eigvalsh of each draw's difference, the draws taken from
    _sample_columns with the same rng.

    Each norm is within 1e-12 relative of eigvalsh's (the adversarial test
    above), so the mean is within 1e-12 relative; the sample standard
    deviation moves by at most sqrt(2) * 1e-12 * max|value|, and stderr by
    that over sqrt(draws): tolerance 2e-12 * max|value| on stderr.
    """
    model, omega0, draws, seed = case
    d, a = _sample_columns(model, draws, np.random.default_rng(seed))
    values = np.array([np.max(np.abs(np.linalg.eigvalsh(
        compose(CholeskyFactor(a=a[s], d=d[s])) - omega0))) for s in range(draws)])
    stderr = np.std(values, ddof=1) / np.sqrt(draws) if draws > 1 else 0.0
    mean, err = estimate_p_loss(model, omega0, draws, norm="spectral", rng=seed)
    assert mean == pytest.approx(np.mean(values), rel=1e-12, abs=0.0)
    assert abs(err - stderr) <= 2e-12 * np.max(values)


@st.composite
def sampler_cases(draw):
    # every bandwidth up to past p - 1, so kj = 0 columns, full bands and
    # k >= p - 1 all occur, and at times a cap M that leaves one column a
    # truncation mass of 1e-150
    p = draw(st.integers(1, 12))
    k = draw(st.integers(0, p + 1))
    n = p + draw(st.integers(4, 30))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    x *= 10.0 ** draw(st.integers(-3, 3))
    return x, k, draw(st.booleans()), draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200)
@given(sampler_cases())
def test_sampler_matches_dense_replay(case):
    """_sample_columns against a dense replay of its streams.

    The replay spawns the same p substreams and, per column, draws the
    uniforms u, then kj normals z per draw; d = rate / gammainccinv(shape,
    (1 - u) * mass) from the model's shape, rate and mass, and a_j = ahat_j
    + sqrt(d/n) solve(chol(S_j)', z), with S_j = X_j' X_j / n formed by
    numpy from the data's kj predecessor columns X_j.

    Tolerance, fixed before the first run: d comes from the same
    gammainccinv value, divided differently (1 / (y / rate) against
    rate / y), so the two differ by at most 4 eps relative. S_j differs
    from the Gram band's block by summation order only, each entry by at
    most (n + 2) eps sqrt(s_ii s_jj) (test_gram_band_matches_gram_matrix),
    so ||dS|| <= kj (n + 2) eps ||S||. That moves the Cholesky factor, and
    so w = chol(S_j)^{-T} z, by at most about kappa(S_j)^2 ||dS|| / ||S||
    relative, which with kj <= 11 and n <= 42 stays below
    1e-11 kappa(S_j)^2: |a - a_replay| <= sqrt(d/n) * 1e-11 *
    kappa(S_j)^2 * ||w||_2 per entry, plus the 4 eps of d. Padded slots,
    and all of a kj = 0 column's, are exactly 0. Where the cap leaves a
    column less than 1e-100 of truncation mass, every d is finite and at
    most M.
    """
    x, k, capped, draws, seed = case
    n, p = x.shape
    prior = PriorConfig(k)
    if capped:
        base = fit_posterior(x, prior)
        # the largest cap under which some column keeps a mass of 1e-150
        cap = np.max(base.ig_rate / gammainccinv(base.ig_shape, 1e-150))
        prior = PriorConfig(k, M=cap)
    model = fit_posterior(x, prior)
    if capped:
        assert np.min(model.trunc_mass) < 1e-100
    d, a = _sample_columns(model, draws, np.random.default_rng(seed))
    keff = min(k, p - 1)
    assert d.shape == (draws, p) and a.shape == (draws, p, keff)
    eps = np.finfo(float).eps
    for j, gen in enumerate(np.random.default_rng(seed).spawn(p)):
        u = gen.random(draws)
        d_j = model.ig_rate[j] / gammainccinv(model.ig_shape[j], (1.0 - u) * model.trunc_mass[j])
        np.testing.assert_allclose(d[:, j], d_j, rtol=4 * eps, atol=0)
        kj = min(j, keff)
        np.testing.assert_array_equal(a[:, j, :keff - kj], 0.0)
        if kj == 0:
            continue
        z = gen.standard_normal((draws, kj))
        xj = x[:, j - kj:j]
        s_j = xj.T @ xj / n
        w = np.linalg.solve(np.linalg.cholesky(s_j).T, z.T).T
        a_j = model.stats.ahat[j, keff - kj:] + np.sqrt(d_j / n)[:, None] * w
        kappa = np.linalg.cond(s_j)
        tol = (np.sqrt(d_j / n) * (1e-11 * kappa ** 2 + 4 * eps)
               * np.linalg.norm(w, axis=1))[:, None]
        assert np.all(np.abs(a[:, j, keff - kj:] - a_j) <= tol), j
    if capped:
        assert np.all(np.isfinite(d)) and np.all(d <= prior.M)


DENSE_NORMS = {
    "linf": lambda m: np.linalg.norm(m, np.inf),
    "fro": lambda m: np.linalg.norm(m, "fro"),
}


@pytest.mark.parametrize("norm", sorted(DENSE_NORMS))
@settings(max_examples=50)
@given(p_loss_cases())
def test_estimate_p_loss_linf_fro_match_dense_norms(norm, case):
    """estimate_p_loss in the matrix l-infinity and Frobenius norms against
    numpy's dense norm of each draw's difference, the draws taken from
    _sample_columns with the same rng.

    Tolerance, fixed from the arithmetic before the first run: the two sum
    the same at most p^2 = 3600 nonnegative terms (a row's absolute values,
    or all squares) in possibly different orders, which moves a sum by at
    most 2 p^2 u < 4.0e-13 of itself, u = eps/2, and a square root halves
    that: 1e-12 relative on each value and so on the mean, and, as in the
    spectral test, 2e-12 * max|value| on stderr.
    """
    model, omega0, draws, seed = case
    d, a = _sample_columns(model, draws, np.random.default_rng(seed))
    values = np.array([DENSE_NORMS[norm](compose(CholeskyFactor(a=a[s], d=d[s])) - omega0)
                       for s in range(draws)])
    stderr = np.std(values, ddof=1) / np.sqrt(draws) if draws > 1 else 0.0
    mean, err = estimate_p_loss(model, omega0, draws, norm=norm, rng=seed)
    assert mean == pytest.approx(np.mean(values), rel=1e-12, abs=0.0)
    assert abs(err - stderr) <= 2e-12 * np.max(values)


@st.composite
def malformed_factors(draw):
    p = draw(st.integers(1, 12))
    k = draw(st.integers(0, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_band(rng, p, k)
    d = rng.uniform(0.5, 2.0, p)
    fault = draw(st.sampled_from(["none", "non-finite a", "non-finite d", "padded slot",
                                  "too wide", "d not positive"]))
    if fault == "non-finite a" and k:
        a[draw(st.integers(0, p - 1)), draw(st.integers(0, k - 1))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif fault == "non-finite d":
        d[draw(st.integers(0, p - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    elif fault == "padded slot" and k:
        row = draw(st.integers(0, k - 1))
        a[row, draw(st.integers(0, k - 1 - row))] = draw(st.sampled_from([1.0, -1e-300]))
    elif fault == "too wide":
        a = np.hstack([np.zeros((p, p - k)), a])
    elif fault == "d not positive":
        d[draw(st.integers(0, p - 1))] = draw(st.sampled_from([0.0, -1.0]))
    else:
        fault = "none"
    return a, d, fault


@settings(max_examples=300)
@given(malformed_factors())
def test_cholesky_factor_rejects_malformed_bands(case):
    a, d, fault = case
    if fault == "none":
        factor = CholeskyFactor(a=a, d=d)
        assert factor.p == len(d)
    else:
        with pytest.raises(ValueError):
            CholeskyFactor(a=a, d=d)


CSV_TOKENS = ["1", "-2.5", " 3e-2 ", "1_0", "0x10", '"4"', '" 5"', "", " ", "#", "nan",
              "1e400", "x", "7.", "+8"]


@st.composite
def csv_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "spaces", "comment"]))
        if kind == "row":
            width = draw(st.integers(1, 3))
            tokens = [draw(st.sampled_from(CSV_TOKENS[:3] * 4 + CSV_TOKENS))
                      for _ in range(width)]
            lines.append(",".join(tokens) + draw(st.sampled_from(["", "", ","])))
        else:
            lines.append({"blank": "", "spaces": "  ", "comment": "# note"}[kind])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), draw(st.booleans())


def read_outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return "error", str(err)


def read_with_csv_module(path, header):
    with open(path, newline="") as fh:
        return as_data_matrix(cli._parse_csv(fh, path, header))


@settings(max_examples=300)
@given(csv_files())
def test_csv_fast_path_matches_csv_module(tmp_path_factory, case):
    text, header = case
    path = str(tmp_path_factory.mktemp("csv") / "data.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    fast = read_outcome(cli.read_data_csv, path, header)
    slow = read_outcome(read_with_csv_module, path, header)
    assert fast[0] == slow[0]
    if fast[0] == "ok":
        np.testing.assert_array_equal(fast[1], slow[1])
        assert fast[1].dtype == slow[1].dtype
    else:
        assert fast[1] == slow[1]


@st.composite
def cli_runs(draw):
    # n, p in 1..12 with normal, constant, duplicated and zero columns at
    # scales from 1e-200 to 1e200, 1e-165 to 1e-150 among them, where the
    # moments underflow, the flags of one estimate command, and a --cap and
    # --nu0 that may be invalid or, as an infinite cap, valid but not JSON
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    columns = st.integers(0, p - 1)
    edits = st.tuples(st.sampled_from(["constant", "duplicate", "zero"]), columns, columns)
    for kind, j, i in draw(st.lists(edits, max_size=3)):
        x[:, j] = {"constant": x[0, i], "duplicate": x[:, i], "zero": 0.0}[kind]
    x *= 10.0 ** draw(st.sampled_from([0, 0, 0, -200, -100, 100, 200]) | st.integers(-165, -150))
    select = draw(st.sampled_from([["--select-k", "mode"], ["--select-k", "resampling"],
                                   ["--k", str(draw(st.integers(0, p + 1)))]]))
    center = ["--center"] if draw(st.booleans()) else []
    cap = draw(st.none() | st.sampled_from(["1e6", "3", "1e-300", "inf", "0", "-1", "nan"]))
    nu0 = draw(st.none() | st.sampled_from(["2", "-1.5", "7", "nan", "inf", "-inf"]))
    flags = ["--estimator", draw(st.sampled_from(["ll", "bl", "mle"])), *select]
    return x, flags, center, cap, nu0


def strict_json(path):
    """The JSON file at path, parsed by a parser that rejects NaN and infinities."""
    def reject(token):
        raise ValueError(f"{path}: non-finite number {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


# clean data on which a bad prior flag is the only fault: the estimate's
# fit reads no prior, so only the up-front flag checks can reject it
CLEAN = np.random.default_rng(0).standard_normal((20, 4))


@settings(max_examples=200)
@given(cli_runs())
@example((CLEAN, ["--estimator", "bl", "--k", "2"], [], "-1", None))
@example((CLEAN, ["--estimator", "mle", "--select-k", "resampling"], [], "0", None))
def test_cli_end_to_end(tmp_path_factory, case):
    """estimate and bandwidth --scheme both on small CSVs, through cli.main.

    Every run returns 0, 2 (bad input) or 3 (numerical failure) and raises
    nothing. A --cap that is not positive or a --nu0 that is not finite
    exits 2. A run that fails leaves no file. An estimate that exits 0
    writes a finite symmetric p x p matrix and a sidecar whose bandwidth is
    the given --k, or lies in the grid 1..kmax that it echoes, and every
    sidecar parses as strict JSON.
    """
    x, flags, center, cap, nu0 = case
    p = x.shape[1]
    # the = form, so argparse takes -inf as a value
    common = [*center, *([f"--cap={cap}"] if cap else []), *([f"--nu0={nu0}"] if nu0 else [])]
    bad_prior = not float(cap or 1.0) > 0 or not math.isfinite(float(nu0 or 2.0))
    tmp = tmp_path_factory.mktemp("cli")
    data, out = str(tmp / "data.csv"), str(tmp / "omega.csv")
    with open(data, "w") as fh:
        fh.writelines(",".join(format(v, ".17g") for v in row) + "\n" for row in x)
    code = cli.main(["estimate", data, "-o", out, "--splits", "3", *flags, *common])
    assert code in (0, 2, 3) and (code == 2 or not bad_prior)
    assert os.path.exists(out) == os.path.exists(cli.default_sidecar(out)) == (code == 0)
    if code == 0:
        omega = np.loadtxt(out, delimiter=",", ndmin=2)
        assert omega.shape == (p, p) and np.all(np.isfinite(omega))
        np.testing.assert_array_equal(omega, omega.T)
        sidecar = strict_json(cli.default_sidecar(out))
        k = sidecar["result"]["bandwidth"]
        if "--k" in flags:
            assert k == int(flags[-1])
        else:
            assert 1 <= k <= sidecar["parameters"]["kmax"]
    profile = str(tmp / "profile.csv")
    code = cli.main(["bandwidth", data, "-o", profile, "--scheme", "both", "--splits", "3",
                     *common])
    assert code in (0, 2, 3) and (code == 2 or not bad_prior)
    assert os.path.exists(profile) == os.path.exists(cli.default_sidecar(profile)) == (code == 0)
    if code == 0:
        strict_json(cli.default_sidecar(profile))
