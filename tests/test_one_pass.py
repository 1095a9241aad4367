"""The one-pass input checks and the band builders against the
implementations they replaced, kept in oracles.py, and the graphical MLE
against its clique form.

CholeskyFactor, norm_l1, norm_linf, norm_fro and as_data_matrix raise the
same exception type with the same message as their oracles, warn the same
RuntimeWarnings, and return bit-identical floats. The inputs are finite,
seeded with NaN or infinities, of the wrong shape or type, with nonzero
padded slots or nonpositive variances, or have finite entries whose sums
overflow. The graphical MLE is the BL estimator's band path, bit for bit or
error for error, on Gaussian data, p <= 40 and every k < p, and on
collinear and constant columns. It matches the clique-by-clique loop
within 1e-12 of its largest entry on Gaussian data, and where the loop
finds a singular clique the regression raises SingularDesign or
DegenerateResidual. The nested coefficients, whose inverse factors
now come from the shared row recursion, are bit-identical to the loop that
ran it inline. The back-substitution on blocks-last copies, stacks of one
and of several right-hand sides, K = 0 and 1 included, the nested factor's
residual variances and log determinants, and compose dividing its scratch
band once are bit-identical to the formulas they replaced.
fit_posterior, the posterior-mode grid and the resampler scan the data
for non-finite entries once per call; a NestedFactor still scans data it
was not built from.
fit_posterior and the resampler never compute a nested factor's log
determinants, which only the posterior-mode grid reads.
compose and posterior_mean_omega, whose bands now come from
mcd._compose_bands and mcd._add_block_inverses, are bit-identical to
compose and to the posterior mean's np.add.at scatter into a dense matrix.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainccinv

import oracles
from bandchol import bandwidth, linalg, stats
from bandchol.bandwidth import log_marginal_k, select_k_posterior_mode, select_k_resampling
from bandchol.bayes import PriorConfig, fit_posterior, posterior_mean_omega
from bandchol.competitors import bl_banded_estimator, graphical_mle_banded
from bandchol.errors import BandcholError, DegenerateResidual, SingularDesign
from bandchol.linalg import norm_fro, norm_l1, norm_linf
from bandchol.mcd import CholeskyFactor, compose
from bandchol.stats import as_data_matrix, banded_regression, gram_band
from conftest import random_band

NORMS = {"l1": (norm_l1, oracles.norm_l1), "linf": (norm_linf, oracles.norm_linf),
         "fro": (norm_fro, oracles.norm_fro)}


def run(fn, *args):
    """(outcome, warned): outcome is ("ok", value) or ("raised", type,
    message), and warned the (category, message) of every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ("ok", fn(*args))
        except Exception as err:  # noqa: BLE001 - the type is compared
            outcome = ("raised", type(err), str(err))
    return outcome, [(w.category, str(w.message)) for w in caught]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(got, want):
    """Same warnings and either the same exception or bit-identical values."""
    (got_outcome, got_warned), (want_outcome, want_warned) = got, want
    assert got_warned == want_warned
    assert got_outcome[0] == want_outcome[0], (got_outcome, want_outcome)
    if got_outcome[0] == "raised":
        assert got_outcome == want_outcome
        return
    got_value, want_value = got_outcome[1], want_outcome[1]
    assert type(got_value) is type(want_value)
    if isinstance(want_value, tuple):
        assert all(same_bits(g, w) for g, w in zip(got_value, want_value))
    else:
        assert same_bits(got_value, want_value)


def seed_faults(draw, rng, x):
    """x with some entries set to NaN, +-inf or +-1.5e308 (whose sums
    overflow), as drawn."""
    if x.size:
        flat = x.reshape(-1)
        for fault in draw(st.lists(st.sampled_from(["nan", "inf", "-inf", "huge", "-huge"]),
                                   max_size=4)):
            value = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                     "huge": 1.5e308, "-huge": -1.5e308}[fault]
            count = draw(st.integers(1, 3))
            flat[rng.integers(0, flat.size, count)] = value
    return x


@st.composite
def arrays(draw):
    """Arrays of 0 to 3 dimensions, mostly matrices, empty ones included, at
    scales up to 1e300, with faults seeded, sometimes as lists or integers."""
    ndim = draw(st.sampled_from([0, 1, 2, 2, 2, 2, 3]))
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=ndim, max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** draw(st.integers(-300, 300)) * rng.standard_normal(shape)
    x = seed_faults(draw, rng, np.asarray(x))
    form = draw(st.sampled_from(["array", "array", "list", "int"]))
    if form == "list":
        return x.tolist()
    if form == "int" and np.all(np.isfinite(x)) and np.all(np.abs(x) < 2**62):
        return np.round(x).astype(np.int64)
    return x


@settings(max_examples=400)
@given(arrays(), st.sampled_from(sorted(NORMS)))
def test_norms_match_check_first_oracles(m, name):
    new, old = NORMS[name]
    assert_same(run(new, m), run(old, m))


@settings(max_examples=200)
@given(arrays())
def test_as_data_matrix_matches_oracle(x):
    assert_same(run(as_data_matrix, x), run(oracles.as_data_matrix, x))


def test_overflowing_sums_warn_as_before():
    # finite entries whose column and row sums overflow, alone and next to
    # a NaN, which the oracle rejects before it sums anything
    m = np.full((3, 3), 1.5e308)
    for bad in (m, np.where(np.eye(3) > 0, np.nan, m)):
        for new, old in NORMS.values():
            got, want = run(new, bad), run(old, bad)
            assert_same(got, want)
        assert run(norm_l1, bad)[1] == ([] if np.isnan(bad).any()
                                        else [(RuntimeWarning, "overflow encountered in reduce")])


@st.composite
def factor_inputs(draw):
    """(a, d) for CholeskyFactor: valid bands and every way to break one."""
    p = draw(st.integers(1, 9))
    k = draw(st.integers(0, p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_band(rng, p, k, scale=10.0 ** draw(st.integers(-200, 200)))
    d = rng.uniform(0.5, 2.0, p)
    # value faults first, then the shape and type faults that change the arrays' kind
    order = ["a non-finite", "d non-finite", "padded slot", "d not positive", "too wide",
             "a shape", "d shape", "lists"]
    for fault in sorted(draw(st.lists(st.sampled_from(order), max_size=2, unique=True)),
                        key=order.index):
        if fault == "a non-finite" and a.size:
            a = seed_faults(draw, rng, a.copy())
        elif fault == "d non-finite":
            d = seed_faults(draw, rng, d.copy())
        elif fault == "padded slot" and k:
            row = draw(st.integers(0, k - 1))
            a = a.copy()
            a[row, draw(st.integers(0, k - 1 - row))] = draw(st.sampled_from([1.0, -1e-300,
                                                                              -0.0]))
        elif fault == "too wide":
            a = np.hstack([draw(st.sampled_from([np.zeros, np.ones]))((p, p - k)), a])
        elif fault == "d not positive":
            d = d.copy()
            d[draw(st.integers(0, p - 1))] = draw(st.sampled_from([0.0, -0.0, -1.0, -1e-300]))
        elif fault == "a shape":
            a = draw(st.sampled_from([a.reshape(-1), a[None], a[:-1], np.float64(1.0)]))
        elif fault == "d shape":
            d = draw(st.sampled_from([d[:-1], np.append(d, 1.0), d[None], d[:, None]]))
        elif fault == "lists":
            a, d = np.asarray(a).tolist(), np.asarray(d).tolist()
    return a, d


def stored(a, d):
    factor = CholeskyFactor(a=a, d=d)
    return factor.a, factor.d


@settings(max_examples=400)
@given(factor_inputs())
def test_cholesky_factor_checks_match_oracle(case):
    assert_same(run(stored, *case), run(oracles.cholesky_factor_checks, *case))


@st.composite
def mle_cases(draw):
    """Gaussian data, p <= 40, k < p and n from k + 2, at scales 1e-8..1e8;
    with edits, some columns are duplicates, combinations of two others,
    constant or zero."""
    p = draw(st.integers(1, 40))
    k = draw(st.integers(0, p - 1))
    n = draw(st.integers(k + 2, k + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** draw(st.integers(-8, 8)) * rng.standard_normal((n, p))
    columns = st.integers(0, p - 1)
    edits = draw(st.lists(st.one_of(
        st.tuples(st.just("duplicate"), columns, columns),
        st.tuples(st.just("combination"), columns, columns, columns),
        st.tuples(st.just("constant"), columns, st.floats(-3.0, 3.0)),
        st.tuples(st.just("zero"), columns),
    ), max_size=3))
    for edit in edits:
        if edit[0] == "duplicate":
            x[:, edit[1]] = x[:, edit[2]]
        elif edit[0] == "combination":
            x[:, edit[1]] = 0.5 * x[:, edit[2]] - 2.0 * x[:, edit[3]]
        elif edit[0] == "constant":
            x[:, edit[1]] = edit[2]
        else:
            x[:, edit[1]] = 0.0
    width = draw(st.one_of(st.none(), st.integers(k, p - 1)))
    return x, k, width, bool(edits)


@settings(max_examples=200)
@given(mle_cases())
def test_batched_mle_matches_clique_loop(case):
    """The MLE is the BL estimator's band path: the same bits, or the same
    error, on every input. Against the clique loop, where a block is nearly
    singular its inverse is rounding, so values are compared on Gaussian
    data only; where the loop finds a singular clique, the regression names
    a singular design or a degenerate residual."""
    x, k, width, degenerate = case
    # a constant edit can be tiny enough that its column's second moment
    # underflows: gram_band raises, and so do all three fits without it
    banded = run(gram_band, x, max(k, width or 0))[0]
    data = x if width is None or banded[0] == "raised" else banded[1]
    got, bl = (run(fn, data, k)[0] for fn in (graphical_mle_banded, bl_banded_estimator))
    want = run(oracles.graphical_mle_loop, x, k)[0]
    assert got[0] == bl[0], (got, bl)
    if got[0] == "raised":
        assert got == bl
    else:
        assert same_bits(got[1], bl[1])
        np.testing.assert_array_equal(got[1], got[1].T)
    if want[0] == "raised":
        if want[1] is oracles.SingularClique:
            assert got[1] in (SingularDesign, DegenerateResidual), got
        else:
            assert got == want and want[1:] == banded[1:]
    elif not degenerate:
        assert got[0] == "ok", got
        assert np.max(np.abs(got[1] - want[1])) <= 1e-12 * np.max(np.abs(want[1]))


@st.composite
def nested_factors(draw):
    """The (p, K+1, K+1) nearest-first Cholesky factors of a Gram band of
    Gaussian data, K < p, at scales 1e-8..1e8."""
    p = draw(st.integers(1, 30))
    kmax = draw(st.integers(0, p - 1))
    n = draw(st.integers(kmax + 2, kmax + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** draw(st.integers(-8, 8)) * rng.standard_normal((n, p))
    return np.linalg.cholesky(stats._nearest_first_blocks(gram_band(x, kmax).band, kmax))


@settings(max_examples=200)
@given(nested_factors())
def test_nested_coefficients_match_inline_recursion(low):
    assert np.array_equal(stats._nested_coefficients(low), oracles.nested_coefficients(low))


def data_scans(fn, *args):
    """How many times fn(*args) checks the data for non-finite entries."""
    real = stats.check_finite
    names = []

    def counted(m, name="matrix"):
        names.append(name)
        return real(m, name)

    with mock.patch.object(stats, "check_finite", counted):
        fn(*args)
    return names.count("data")


def test_fits_scan_the_data_once():
    # once from the rows, and not at all from a GramBand, whose gram_band
    # scanned them
    x = np.random.default_rng(3).standard_normal((40, 12))
    stat = gram_band(x, 4)
    for fn, args in ((fit_posterior, (PriorConfig(k=3),)), (select_k_posterior_mode, (4,)),
                     (log_marginal_k, (2,)), (bl_banded_estimator, (3,)),
                     (graphical_mle_banded, (3,))):
        assert data_scans(fn, x, *args) == 1, fn.__name__
        assert data_scans(fn, stat, *args) == 0, fn.__name__


def test_resampling_scans_the_data_once():
    # every k's fit reads the GramBand of the estimation rows and its factor,
    # and the reference fit the GramBand of its rows, all rows already
    # checked as part of x
    x = np.random.default_rng(3).standard_normal((40, 12))
    assert data_scans(select_k_resampling, x, 3, 2, 5) == 1


def test_nested_factor_scans_data_it_was_not_built_from():
    # a factor's fit scans rows it is given, which it was not built from, and
    # not the GramBand it was: NaN data of x's shape still raises the band
    # path's ValueError
    x = np.random.default_rng(5).standard_normal((30, 8))
    stat = gram_band(x, 3)
    nested = stats._factor_nested(stat, 3)
    assert data_scans(bl_banded_estimator, stat, 2, nested) == 0
    assert data_scans(bl_banded_estimator, x, 2, nested) == 1
    assert same_bits(bl_banded_estimator(x, 2, gram=nested),
                     bl_banded_estimator(stat, 2, gram=nested))
    bad = x.copy()
    bad[4, 5] = np.nan
    want = run(bl_banded_estimator, bad, 2)
    assert want[0][:2] == ("raised", ValueError)
    assert run(bl_banded_estimator, bad, 2, nested) == want


@st.composite
def triangular_stacks(draw):
    """(low, x): p lower triangular K x K factors, K = 0..6, with positive
    diagonals at scales 1e-8..1e8, maybe padded as the band fits pad them
    (factor j < K the identity in its first K - j slots, with zero
    right-hand sides there), and right-hand sides of shape (p, K) or
    (draws, p, K), contiguous or, as _regress passes them, reversed along
    the last axis."""
    p = draw(st.integers(1, 12))
    kmax = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 8))
    slots = np.arange(kmax)
    low = np.tril(scale * rng.standard_normal((p, kmax, kmax)), -1)
    low[:, slots, slots] = scale * rng.uniform(0.1, 2.0, (p, kmax))
    shape = draw(st.sampled_from([(p, kmax), (draw(st.integers(1, 4)), p, kmax)]))
    x = np.empty(shape)
    if draw(st.booleans()):
        x = np.empty(shape)[..., ::-1]
    x[...] = rng.standard_normal(shape)
    if draw(st.booleans()):
        for j in range(min(p, kmax)):
            pad = kmax - j
            low[j, :pad] = 0.0
            low[j, :, :pad] = 0.0
            low[j, slots[:pad], slots[:pad]] = 1.0
            x[..., j, :pad] = 0.0
    return low, x


@settings(max_examples=300)
@given(triangular_stacks())
def test_solve_lower_transposed_matches_row_formula(case):
    low, x = case
    want = oracles.solve_lower_transposed(low, x.copy())
    with np.errstate(all="ignore"):
        got = linalg._solve_lower_transposed(low, x)
    assert got is x and same_bits(x, want)


@st.composite
def nested_bands(draw):
    """(stat, K): a GramBand of width K < p of Gaussian data at scales
    1e-8..1e8, with n from K - 2, so some factorizations fail or are
    untrusted, and some columns duplicated."""
    p = draw(st.integers(1, 30))
    kmax = draw(st.integers(0, p - 1))
    n = draw(st.integers(max(1, kmax - 2), kmax + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** draw(st.integers(-8, 8)) * rng.standard_normal((n, p))
    for j, i in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                              max_size=2)):
        x[:, j] = x[:, i]
    return gram_band(x, kmax), kmax


@settings(max_examples=300)
@given(nested_bands())
def test_nested_residual_variances_match_row_prefix_sums(case):
    stat, kmax = case
    with np.errstate(all="ignore"):
        want = oracles.nested_dhat_logdet(stat.band, kmax)
        nested = stats._factor_nested(stat, kmax)
        assert "logdet" not in vars(nested)
        got = None if nested.low is None else (nested.dhat, nested.logdet)
    assert (got is None) == (want is None)
    if want is not None:
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@settings(max_examples=200)
@given(factor_inputs())
def test_compose_matches_negate_then_divide(case):
    (outcome, _) = run(stored, *case)
    if outcome[0] == "ok":
        factor = CholeskyFactor(*outcome[1])
        assert same_bits(compose(factor), oracles.compose(factor))


def factors_seen(fn, *args):
    """The NestedFactors that fn(*args) builds in its fits and passes as
    gram= to bl_banded_estimator, after the call."""
    seen = []
    real_factor, real_bl = stats._factor_nested, bandwidth.bl_banded_estimator

    def factor_nested(stat, kmax):
        seen.append(real_factor(stat, kmax))
        return seen[-1]

    def bl(data, k, gram=None):
        if isinstance(gram, stats.NestedFactor):
            seen.append(gram)
        return real_bl(data, k, gram=gram)

    with mock.patch.object(stats, "_factor_nested", factor_nested), \
            mock.patch.object(bandwidth, "_factor_nested", factor_nested), \
            mock.patch.object(bandwidth, "bl_banded_estimator", bl):
        fn(*args)
    return seen


def test_log_determinants_wait_for_the_grid():
    x = np.random.default_rng(4).standard_normal((40, 12))
    for fn, args in ((fit_posterior, (x, PriorConfig(k=3))),
                     (select_k_resampling, (x, 3, 2, 5))):
        seen = factors_seen(fn, *args)
        assert seen and all("logdet" not in vars(f) for f in seen), fn.__name__
    # the grid reads them, from its one factorization
    seen = factors_seen(select_k_posterior_mode, x, 4)
    assert len(seen) == 1 and "logdet" in vars(seen[0])


@st.composite
def band_builder_cases(draw):
    """(x, k, width, cap): Gaussian data, p <= 12, k from 0 past p - 1, so
    keff = p - 1 occurs, and n from keff + 2, at scales 1e-3..1e3; maybe a
    duplicate, constant or zero column, a Gram band of width keff..p-1, and
    a cap M of 3, 1e6, infinity or, as "tiny", the largest cap that leaves
    some column a truncation mass of 1e-150."""
    p = draw(st.integers(1, 12))
    k = draw(st.integers(0, p + 1))
    keff = min(k, p - 1)
    n = draw(st.integers(keff + 2, keff + 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** draw(st.integers(-3, 3)) * rng.standard_normal((n, p))
    columns = st.integers(0, p - 1)
    for kind, j, i in draw(st.lists(st.tuples(st.sampled_from(["duplicate", "constant",
                                                               "zero"]), columns, columns),
                                    max_size=2)):
        x[:, j] = {"duplicate": x[:, i], "constant": 1.5, "zero": 0.0}[kind]
    width = draw(st.one_of(st.none(), st.integers(keff, p - 1)))
    return x, k, width, draw(st.sampled_from([3.0, 1e6, np.inf, "tiny"]))


@settings(max_examples=300)
@given(band_builder_cases())
def test_band_builders_match_dense_oracles(case):
    x, k, width, cap = case
    data = x if width is None else gram_band(x, width)
    try:
        if cap == "tiny":
            base = fit_posterior(data, PriorConfig(k))
            cap = float(np.max(base.ig_rate / gammainccinv(base.ig_shape, 1e-150)))
        model = fit_posterior(data, PriorConfig(k, M=cap))
    except (ValueError, BandcholError):
        # inadmissible, degenerate or without truncation mass: nothing to compose
        return
    factor = banded_regression(data, k)
    assert same_bits(compose(factor), oracles.compose(factor))
    assert_same(run(posterior_mean_omega, model), run(oracles.posterior_mean_scatter, model))
