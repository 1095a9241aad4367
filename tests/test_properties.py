"""Property tests of the fitting entry points and the band arithmetic.

Degenerate inputs fail with typed errors, never with NaNs: every fitting
entry point either returns finite values (with positive residual
variances where it reports them) or raises a BandcholError subclass or a
ValueError; a bare LinAlgError, itself a ValueError, is a failure.
Inputs mix duplicate, zero and constant columns, sample sizes close to
the bandwidth and scales from 1e-8 to 1e160. On Gaussian data, the
batched regressions match a per-column least-squares oracle. The
posterior-mode grid and log_marginal_k match a per-bandwidth evaluation
over _regress, errors included.

compose of a coefficient band matches the dense product built from
lower(band), norm_spectral matches the dense symmetric eigensolver on
either side of its switch to the banded one, CholeskyFactor rejects
every malformed band, and the CSV reader's fast path agrees with its
csv-module path on arbitrary small files.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bandchol.bandwidth import default_log_k_prior, log_marginal_k, select_k_posterior_mode
from bandchol.bayes import PriorConfig, fit_posterior, ig_cdf, max_bandwidth, plug_in_estimator
from bandchol.competitors import bl_banded_estimator, graphical_mle_banded
from bandchol.errors import (
    BandcholError,
    DegenerateResidual,
    NonFiniteLogPosterior,
    SingularDesign,
)
from bandchol import cli, linalg, stats
from bandchol.mcd import CholeskyFactor, compose
from bandchol.stats import _regress, as_data_matrix, banded_regression, gram_matrix
from conftest import lower, random_band


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


def outcome(fn, *args):
    """fn(*args), or None when it raised a typed error or a ValueError."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as err:
        pytest.fail(f"{fn.__name__} raised a bare LinAlgError: {err}")
    except (BandcholError, ValueError):
        return None


def assert_finite(name, *arrays):
    for a in arrays:
        assert np.all(np.isfinite(a)), f"{name} returned non-finite values"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
def regression_data(draw):
    p = draw(st.integers(1, 12))
    k = draw(st.integers(0, p + 1))
    n = draw(st.integers(max(1, min(k, p - 1) - 1), k + 10))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    return x, k


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
        g = gram_matrix(x)
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


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
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
def band_factors(draw):
    p = draw(st.integers(1, 40))
    k = draw(st.integers(0, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_band(rng, p, k, 10.0 ** draw(st.integers(-3, 1)))
    d = 10.0 ** rng.uniform(-2.0, 2.0, p)
    return a, d


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
    switch = p // linalg.BANDED_EIG_RATIO
    b = draw(st.sampled_from(sorted({0, min(1, p - 1), switch, min(switch + 1, p - 1), p - 1})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((p, p))
    m = m + m.T
    m[np.abs(np.subtract.outer(np.arange(p), np.arange(p))) > b] = 0.0
    return m


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(symmetric_bands())
def test_norm_spectral_matches_dense_eigensolver(m):
    oracle = np.max(np.abs(np.linalg.eigvalsh(m)))
    assert linalg.norm_spectral(m) == pytest.approx(oracle, rel=1e-12, abs=0.0)


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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
