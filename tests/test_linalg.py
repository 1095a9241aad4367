"""Norms, extreme eigenvalues, and the SPD factorization."""

from unittest import mock

import numpy as np
import pytest

from bandchol import linalg
from bandchol.errors import SingularMatrix
from conftest import widest_bisected_band


def random_spd(rng, p, cond=100.0):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    vals = np.exp(np.linspace(0.0, np.log(cond), p))
    return (q * vals) @ q.T


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_spectral_identity():
    assert linalg.norm_spectral(np.eye(3)) == 1.0


def test_norm_spectral_nilpotent():
    assert linalg.norm_spectral(np.array([[0.0, 2.0], [0.0, 0.0]])) == 2.0


def test_norm_spectral_of_vector_and_empty_input():
    with pytest.raises(ValueError, match="norm_spectral expects a matrix"):
        linalg.norm_spectral(np.ones(3))
    assert linalg.norm_spectral(np.zeros((0, 0))) == 0.0


def test_norm_spectral_general_matches_svd():
    # largest singular value of [[1,2],[3,4]], frozen from np.linalg.svd
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.norm_spectral(m) == pytest.approx(5.464985704219043, abs=1e-12)


def test_norm_spectral_uses_banded_solver_on_narrow_bands(monkeypatch):
    # a symmetric input of order p and lower bandwidth b goes to the
    # Cholesky bisection on its band when BAND_BISECTION_LIMIT * b^2 <= p^3,
    # to the dense tridiagonal reduction otherwise
    band_calls, dense_calls = [], []
    band_norm, dense_extremes = linalg._band_norm, linalg._dense_extremes

    def counted_band(band):
        band_calls.append(band.shape)
        return band_norm(band)

    def counted_dense(m):
        dense_calls.append(m.shape)
        return dense_extremes(m)

    monkeypatch.setattr(linalg, "_band_norm", counted_band)
    monkeypatch.setattr(linalg, "_dense_extremes", counted_dense)
    p = 200
    switch = widest_bisected_band(p)
    idx = np.arange(p)
    for b, banded in ((0, True), (switch, True), (switch + 1, False)):
        m = np.where(np.abs(idx[:, None] - idx) <= b, 1.0 / (1.0 + idx[:, None] + idx), 0.0)
        expected = np.max(np.abs(np.linalg.eigvalsh(m)))
        band_calls.clear()
        dense_calls.clear()
        assert linalg.norm_spectral(m) == pytest.approx(expected, rel=1e-13)
        assert band_calls == ([(b + 1, p)] if banded else [])
        assert dense_calls == ([] if banded else [(p, p)])
    # p = 500, b = 4, the bandwidth of a P-loss draw at k = 4, bisects
    assert 4 <= widest_bisected_band(500)


def test_band_norm_with_top_eigenvector_orthogonal_to_start():
    """2 x 2 blocks [[0, -1], [-1, 0]], plus shift * I: the constant start
    vector is an eigenvector of lambda_min = shift - 1, so the Lanczos run
    stops after one step with both Ritz pairs on it. Unshifted, -M's pair
    has the norm, 1, as its Rayleigh quotient, and one test shows that
    lambda_max cannot exceed it. At shift 0.5 the norm is lambda_max = 1.5,
    on which neither the Ritz pair nor the inverse iteration from it gets a
    hold, and the search falls back to plain bisection; both stay within
    the bound of 2 * 51 + 1 factorizations."""
    p = 100
    for shift in (0.0, 0.5):
        m = shift * np.eye(p)
        for i in range(0, p, 2):
            m[i, i + 1] = m[i + 1, i] = -1.0
        calls = []
        real = linalg.dpbtrf

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        with mock.patch.object(linalg, "dpbtrf", counted):
            got = linalg.norm_spectral(m)
        assert calls and all(shape == (2, p) for shape in calls)
        assert got == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(m))), rel=1e-12, abs=0.0)
        assert len(calls) <= 2 * 51 + 1


def test_p_loss_draw_differences_take_few_factorizations():
    """The k = 4 posterior-draw differences from an ar4 truth at p = 200,
    five seeds of ten draws, each take at most 20 dpbtrf calls.

    Each end of the spectrum starts from a Lanczos Ritz pair whose Rayleigh
    quotient is already the lower end of its bracket. A trial just above it
    succeeds, and inverse iteration from the Ritz vector brings the quotient
    within the stopping width in about two more. With one test between the
    ends, and the second end searched only when that test fails, a norm
    takes about 5. 20 leaves room for a dozen failed or unproductive
    guesses, which the search makes only while its remaining factorizations
    can still bisect the bracket. These draws took 5 at the median and at
    most 13, where the search from the Gershgorin bracket alone took up to
    61 when a failed early guess left it plain bisection.
    """
    from bandchol import bayes
    from bandchol.mcd import CholeskyFactor, compose
    from bandchol.simulate import TrueModelSpec, sample_gaussian

    sigma, omega0 = TrueModelSpec("ar4", 200).build()
    model = bayes.fit_posterior(sample_gaussian(sigma, 200, np.random.default_rng(0)),
                                bayes.PriorConfig(4))
    counts = []
    real = linalg.dpbtrf

    def counted(*args, **kwargs):
        counts[-1] += 1
        return real(*args, **kwargs)

    with mock.patch.object(linalg, "dpbtrf", counted):
        for seed in range(5):
            d, a = bayes._sample_columns(model, 10, np.random.default_rng(seed))
            for s in range(10):
                counts.append(0)
                linalg.norm_spectral(compose(CholeskyFactor(a=a[s], d=d[s])) - omega0)
    assert len(counts) == 50 and min(counts) > 0
    assert max(counts) <= 20


def test_norm_l1_linf_max():
    m = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert linalg.norm_l1(m) == 6.0
    assert linalg.norm_linf(m) == 7.0


def test_norm_fro():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.norm_fro(m) == pytest.approx(5.477225575051661, abs=1e-12)
    assert linalg.norm_fro(np.zeros((4, 4))) == 0.0


def test_norm_fro_of_huge_finite_entries():
    # the squares of 1e160 overflow; a power-of-two scale keeps the norm
    # finite, equal to the spectral norm, and (RuntimeWarnings being errors
    # in this suite) free of an overflow warning
    m = np.array([[1e160, 0.0], [0.0, 1.0]])
    assert linalg.norm_fro(m) == 1e160 == linalg.norm_spectral(m)
    assert linalg.norm_fro(-m.T) == 1e160
    # only a norm above the largest float still overflows, and warns
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert linalg.norm_fro(np.full((2, 2), 1e308)) == np.inf


def test_norms_reject_non_finite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    for fn in (linalg.norm_spectral, linalg.norm_l1, linalg.norm_linf,
               linalg.norm_fro):
        with pytest.raises(ValueError):
            fn(bad)
    # norm_spectral checks a narrow band on its diagonals only; a NaN or
    # infinity off them widens the band to reach it
    p = 60
    tri = np.diag(np.full(p, 2.0)) + np.diag(np.full(p - 1, -1.0), 1) \
        + np.diag(np.full(p - 1, -1.0), -1)
    assert linalg.norm_spectral(tri) == pytest.approx(4.0, rel=1e-2)
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((30, 30), (30, 31), (31, 30), (5, 40), (50, 2), (p - 1, 0), (0, p - 1)):
            m = tri.copy()
            m[i, j] = value
            for fn in (linalg.norm_spectral, linalg.norm_l1, linalg.norm_linf,
                       linalg.norm_fro):
                with pytest.raises(ValueError, match="non-finite"):
                    fn(m)


def test_spectral_bounded_by_l1_linf():
    # ||m||_2^2 <= ||m||_1 * ||m||_inf for random matrices
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
        spec = linalg.norm_spectral(m)
        assert spec <= np.sqrt(linalg.norm_l1(m) * linalg.norm_linf(m)) + 1e-10


def test_symmetric_l1_equals_linf():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        assert linalg.norm_l1(m) == pytest.approx(linalg.norm_linf(m), rel=1e-15)


def test_infinite_entries_are_not_symmetric():
    # an infinite scale fails without computing inf - inf, on the dense
    # formula (p = 2) and on the band read (p = 30)
    upper = np.array([[1.0, np.inf], [0.0, 1.0]])
    wide = np.eye(30)
    wide[0, 1] = np.inf
    pair = np.eye(30)
    pair[0, 1] = pair[1, 0] = np.inf
    for m, band_read in ((upper, False), (np.diag([np.inf, 1.0]), False), (wide, True),
                         (pair, True)):
        assert (linalg._symmetric_within(m, 1)[1] is not None) == band_read
        assert not linalg.is_symmetric(m)


def test_empty_matrix_is_symmetric_with_no_bandwidth():
    empty = np.zeros((0, 0))
    assert linalg._bandwidths(empty) == (0, 0)
    assert linalg.is_symmetric(empty)


# ---------------------------------------------------------------------------
# eigenvalues and factorizations
# ---------------------------------------------------------------------------

def test_eig_extremes_simple():
    assert linalg._dense_extremes(np.eye(4)) == (1.0, 1.0)
    lmin, lmax = linalg._dense_extremes(np.diag([2.0, 0.5]))
    assert (lmin, lmax) == (0.5, 2.0)


def test_eig_extremes_ar1_frozen():
    # frozen from the dense symmetric eigensolver
    idx = np.arange(10)
    sig = 0.3 ** np.abs(idx[:, None] - idx[None, :])
    lmin, lmax = linalg._dense_extremes(sig)
    assert lmin == pytest.approx(0.5470227249594707, abs=1e-9)
    assert lmax == pytest.approx(1.7807220413199754, abs=1e-9)


def test_eig_extremes_bound_rayleigh_quotients():
    rng = np.random.default_rng(8)
    m = random_spd(rng, 12)
    lmin, lmax = linalg._dense_extremes(m)
    for _ in range(50):
        v = rng.standard_normal(12)
        q = v @ m @ v / (v @ v)
        assert lmin - 1e-10 <= q <= lmax + 1e-10


def test_spd_cholesky_diagonal():
    m, low = linalg._spd_factor(np.diag([4.0, 9.0]))
    np.testing.assert_array_equal(m, np.diag([4.0, 9.0]))
    np.testing.assert_allclose(low, np.diag([2.0, 3.0]))


def test_spd_cholesky_reconstructs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_spd(rng, 20, cond=1e6)
        low = linalg._spd_factor(m)[1]
        np.testing.assert_allclose(low @ low.T, m, atol=1e-10 * np.max(np.abs(m)))


def test_spd_cholesky_rejects_indefinite():
    with pytest.raises(SingularMatrix, match="covariance matrix is not positive definite"):
        linalg._spd_factor(np.diag([1.0, -1.0]), "covariance matrix")


def test_spd_factor_symmetrizes_and_validates():
    m = np.array([[2.0, 0.3], [0.3 + 1e-14, 1.0]])
    out, low = linalg._spd_factor(m)
    np.testing.assert_array_equal(out, out.T)
    np.testing.assert_array_equal(low, np.linalg.cholesky(out))
    with pytest.raises(ValueError, match="not symmetric"):
        linalg._spd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(SingularMatrix):
        linalg._spd_factor(np.diag([1.0, 0.0]))
    # a non-square array is neither symmetric nor a factorable matrix
    assert not linalg.is_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
        linalg._spd_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^covariance matrix is empty$"):
        linalg._spd_factor(np.zeros((0, 0)), "covariance matrix")
