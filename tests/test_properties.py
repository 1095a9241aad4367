"""Property tests of the fitting entry points and the band arithmetic.

Degenerate inputs fail with typed errors, never with NaNs: every fitting
entry point either returns finite values (with positive residual
variances where it reports them) or raises a BandcholError subclass or a
ValueError; a bare LinAlgError, itself a ValueError, is a failure.
Inputs mix duplicate, zero and constant columns, sample sizes close to
the bandwidth and scales from 1e-8 to 1e160. On Gaussian data, the
batched regressions match a per-column least-squares oracle. The
posterior-mode grid and log_marginal_k match a per-bandwidth evaluation
over _regress, errors included. On singular and nearly singular
matrices, the SPD factorization, decompose and population_coefficients
fail with typed errors too.

compose of a coefficient band matches the dense product built from
lower(band), norm_spectral matches the dense symmetric eigensolver on
either side of its switch to the band bisection and on adversarial bands,
within its bound on factorizations, the dense extreme eigenvalues match it
on adversarial dense matrices, the norm of a general matrix matches the
SVD, is_symmetric matches the dense formula, estimate_p_loss matches
eigvalsh and numpy's dense l-infinity and Frobenius norms over the same
draws, CholeskyFactor rejects every malformed band, and the CSV reader's
fast path agrees with its csv-module path on arbitrary small files.
gram_band matches gram_matrix within its width, its Gram blocks match the
dense padded construction, and every fit given a gram_band is bit for bit
the fit without one.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bandchol.bandwidth import default_log_k_prior, log_marginal_k, select_k_posterior_mode
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
from bandchol import cli, linalg, stats
from bandchol.mcd import CholeskyFactor, compose, decompose, population_coefficients
from bandchol.simulate import ar1_precision, make_ar1_cov, sample_gaussian
from bandchol.stats import _regress, as_data_matrix, banded_regression, gram_band, gram_matrix
from conftest import FITS_WITH_GRAM, lower, random_band, widest_bisected_band


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
    return 10.0 ** draw(st.integers(-8, 160)) * x, k


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
        assert_finite("banded_regression", stats.dhat, stats.ahat, stats.shat_chol)
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
    stats = banded_regression(x, k)
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


def grid_oracle(x, k_values):
    """The per-k grid: _regress at each k in turn, then that k's total.

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
    totals = []
    for k in k_values:
        try:
            fit = _regress(g, k, n)
        except (SingularDesign, DegenerateResidual) as err:
            return type(err), err.column, k
        shape = (n + prior.nu0 - fit.kj - 4) / 2.0
        rate = n * fit.dhat / 2.0
        logdet = 2.0 * np.sum(np.log(np.diagonal(fit.shat_chol, axis1=1, axis2=2)), axis=1)
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

    def regress(g, k, n):
        calls.append(k)
        return real(g, k, n)

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
def gram_band_cases(draw):
    # p on both sides of every tile edge up to the third, widths from 0 to
    # past p, one row, fewer rows than columns, and more rows than the 384
    # past which numpy's symmetric and general products split their sums
    # differently, three memory layouts and three scales, the last of which
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
    return draw(st.sampled_from([1.0, 1e-300, 1e155])) * x, w


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
    plus 2 n 2^-1074 for the products and partial sums that underflow at
    scale 1e-300. The pad rows, the entries outside the matrix and the
    symmetry of the band are exact, the band is read-only, a wider band
    holds the same bits within the narrower one's width, and the band
    overflows, with gram_matrix's ValueError, exactly when gram_matrix does.

    The Gram blocks of every bandwidth k <= w, read as one strided view of
    the band, equal exactly the windows of the dense padded construction
    (the band's matrix in the lower-right corner of an identity of order
    p + k).
    """
    x, width = case
    n, p = x.shape
    w = min(width, p - 1)
    try:
        dense = gram_matrix(x)
    except ValueError as err:
        with pytest.raises(ValueError, match="overflow"):
            gram_band(x, width)
        assert "overflow" in str(err)
        return
    band = gram_band(x, width)
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
    wide = gram_band(x, p)
    for v in sorted({0, 1, w}):
        v = min(v, p - 1)
        np.testing.assert_array_equal(wide[p - 1 - v:, p - 1 - v:p + v], gram_band(x, v))
    for k in sorted({0, w // 2, w}):
        padded = np.eye(p + k)
        padded[k:, k:] = g
        blocks = stats._predecessor_blocks(band, k)
        assert blocks.shape == (p, k + 1, k + 1) and not blocks.flags.writeable
        assert all(np.array_equal(blocks[j], padded[j:j + k + 1, j:j + k + 1])
                   for j in range(p))


@st.composite
def band_fit_cases(draw):
    p = draw(st.sampled_from([1, 2, 5, 17, 63, 64, 65, 100, 129]))
    k = draw(st.one_of(st.just(0), st.integers(0, min(p, 24))))
    n = draw(st.one_of(st.integers(1, 80), st.integers(385, 450)))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    return x, k, min(k, p - 1) + draw(st.integers(0, p))


def fields(result):
    """The arrays and numbers of a fit's result by name, through nested dataclasses."""
    if not dataclasses.is_dataclass(result):
        return {"": result}
    return {f"{name}.{sub}": value for name, field in vars(result).items()
            for sub, value in fields(field).items()}


def band_fit_outcomes(x, k, gram):
    """What each public function with a gram= argument returns at bandwidth
    k, field by field, or the type and message of what it raises."""
    out = {}
    for name, fit in FITS_WITH_GRAM.items():
        try:
            out[name] = fields(fit(x, k, gram))
        except (BandcholError, ValueError) as err:
            out[name] = (type(err), str(err))
    return out


@settings(max_examples=150)
@given(band_fit_cases())
def test_fits_given_a_gram_band_are_bit_identical(case):
    """Every public fit given gram=gram_band(x, w), w >= min(k, p-1), returns
    exactly the bits of the same fit without gram, or raises the same error:
    a band's entries do not depend on its width, and the blocks a fit reads
    are views of them."""
    x, k, w = case
    got = band_fit_outcomes(x, k, gram_band(x, w))
    expected = band_fit_outcomes(x, k, None)
    for name, b in expected.items():
        a = got[name]
        if isinstance(b, tuple):
            assert a == b, name
            continue
        assert a.keys() == b.keys(), name
        for field in b:
            np.testing.assert_array_equal(a[field], b[field], err_msg=f"{name} {field}")


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

    m is scaled by a power of two, exactly, before its Gram matrix is formed,
    so the Gram matrix neither overflows nor underflows at any of SCALES; its
    rounding, O(n * eps) * ||m||_2^2 for n <= 60, and the extreme eigenvalue's
    error move the square root by well under 1e-13 relative. Tolerance: 1e-12
    relative, and exactly 0 for the zero matrix.
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
    return draw(st.sampled_from([1.0, 1e-300, 1e300])) * m


@settings(max_examples=400)
@given(lopsided_bands())
def test_is_symmetric_matches_dense_formula(m):
    """is_symmetric, which reads only the in-band diagonals of a narrow band,
    gives exactly the dense formula's answer, and _bandwidths the largest
    i - j and j - i over the nonzero entries."""
    scale = np.max(np.abs(m))
    dense = scale == 0.0 or np.max(np.abs(m - m.T)) <= linalg.SYM_TOL * scale
    assert linalg.is_symmetric(m) == dense
    rows, cols = np.nonzero(m)
    expected = (int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0)))
    assert linalg._bandwidths(m) == expected


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
