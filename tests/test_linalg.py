"""Norms, banding operators, and SPD helpers."""

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


def test_norm_l1_linf_max():
    m = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert linalg.norm_l1(m) == 6.0
    assert linalg.norm_linf(m) == 7.0


def test_norm_fro():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.norm_fro(m) == pytest.approx(5.477225575051661, abs=1e-12)
    assert linalg.norm_fro(np.zeros((4, 4))) == 0.0


def test_norms_reject_non_finite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    for fn in (linalg.norm_spectral, linalg.norm_l1, linalg.norm_linf,
               linalg.norm_fro):
        with pytest.raises(ValueError):
            fn(bad)


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


# ---------------------------------------------------------------------------
# banding
# ---------------------------------------------------------------------------

def test_band_matrix_k0_keeps_diagonal():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(linalg.band_matrix(m, 0), np.diag([1.0, 4.0]))
    np.testing.assert_array_equal(linalg.band_matrix(np.eye(3), 0), np.eye(3))


def test_band_matrix_against_indicator_oracle():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 5))
    for k in range(5):
        oracle = np.array([[m[i, j] if abs(i - j) <= k else 0.0
                            for j in range(5)] for i in range(5)])
        np.testing.assert_array_equal(linalg.band_matrix(m, k), oracle)


def test_band_matrix_idempotent_and_monotone():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 8))
    for k in range(8):
        banded = linalg.band_matrix(m, k)
        np.testing.assert_array_equal(linalg.band_matrix(banded, k), banded)
        # widening the band only adds entries
        wider = linalg.band_matrix(m, k + 1)
        mask = banded != 0
        np.testing.assert_array_equal(wider[mask], banded[mask])


# ---------------------------------------------------------------------------
# eigenvalues and factorizations
# ---------------------------------------------------------------------------

def test_eig_extremes_simple():
    assert linalg.eig_extremes(np.eye(4)) == (1.0, 1.0)
    lmin, lmax = linalg.eig_extremes(np.diag([2.0, 0.5]))
    assert (lmin, lmax) == (0.5, 2.0)


def test_eig_extremes_ar1_frozen():
    # frozen from the dense symmetric eigensolver
    idx = np.arange(10)
    sig = 0.3 ** np.abs(idx[:, None] - idx[None, :])
    lmin, lmax = linalg.eig_extremes(sig)
    assert lmin == pytest.approx(0.5470227249594707, abs=1e-9)
    assert lmax == pytest.approx(1.7807220413199754, abs=1e-9)


def test_eig_extremes_bound_rayleigh_quotients():
    rng = np.random.default_rng(8)
    m = random_spd(rng, 12)
    lmin, lmax = linalg.eig_extremes(m)
    for _ in range(50):
        v = rng.standard_normal(12)
        q = v @ m @ v / (v @ v)
        assert lmin - 1e-10 <= q <= lmax + 1e-10


def test_eig_extremes_requires_symmetry():
    with pytest.raises(ValueError):
        linalg.eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_spd_cholesky_diagonal():
    np.testing.assert_allclose(linalg.spd_cholesky(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]))


def test_spd_cholesky_reconstructs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_spd(rng, 20, cond=1e6)
        low = linalg.spd_cholesky(m)
        np.testing.assert_allclose(low @ low.T, m, atol=1e-10 * np.max(np.abs(m)))


def test_spd_cholesky_rejects_indefinite():
    with pytest.raises(SingularMatrix):
        linalg.spd_cholesky(np.diag([1.0, -1.0]))


def test_spd_solve_residual():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m = random_spd(rng, 15, cond=1e4)
        rhs = rng.standard_normal(15)
        x = linalg.spd_solve(m, rhs)
        assert np.linalg.norm(m @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
    np.testing.assert_allclose(linalg.spd_solve(np.eye(3), np.arange(3.0)),
                               np.arange(3.0))


def test_as_spd_symmetrizes_and_validates():
    m = np.array([[2.0, 0.3], [0.3 + 1e-14, 1.0]])
    out = linalg.as_spd(m)
    np.testing.assert_array_equal(out, out.T)
    with pytest.raises(ValueError):
        linalg.as_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(SingularMatrix):
        linalg.as_spd(np.diag([1.0, 0.0]))
