"""Modified Cholesky decomposition of precision matrices.

A precision matrix factors as omega = (I - A)' D^{-1} (I - A) with A
strictly lower triangular and D = diag(d) positive. Row j of A holds the
coefficients of the regression of coordinate j on its predecessors, and
d_j is the innovation variance of that regression. Banding A by k is the
same as truncating each regression to the k closest predecessors.

A k-banded A is stored as its (p, k) coefficient band, the layout of
BandedRegressionStats.ahat: row j holds the coefficients on coordinates
j-k, ..., j-1, nearest last, and the slots left of the first coordinate
are zero. decompose returns the full band, k = p - 1, from one Cholesky
factorization. A k-banded omega is built as its (k+1, p) lower bands, row s
holding (c+s, c), and written dense once by _dense_symmetric; the only band
builders are _compose_bands (O(p k^2)), which compose and every estimator
densify, and _add_block_inverses, the posterior mean's block-inverse sum.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .stats import GramBand, _dense_to_band, _regress


@lru_cache(maxsize=32)
def _padded_slots(k):
    """Read-only (k, k) mask of the slots of rows j < k of a k-wide band that
    lie before the first coordinate: the k - j slots j + c < k."""
    mask = np.add.outer(np.arange(k), np.arange(k)) < k
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class CholeskyFactor:
    """Pair (A, d): A as its (p, k) coefficient band a, k < p, and the
    innovation variances d, all positive; each check is one pass over an array."""

    a: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = linalg.check_finite(self.a, "coefficient band")
        d = linalg.check_finite(self.d, "innovation variances")
        if a.ndim != 2 or d.shape != (a.shape[0],):
            raise ValueError("coefficient band must have shape (p, k) and d shape (p,)")
        p, k = a.shape
        if k >= p:
            raise ValueError(f"coefficient band must have fewer than p = {p} columns, got {k}")
        if np.count_nonzero(a[:k][_padded_slots(k)]):
            raise ValueError("coefficient band must be zero before the first coordinate")
        if (d <= 0.0).any():
            raise ValueError("innovation variances must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def p(self):
        return self.a.shape[0]


def compose(factor):
    """omega = (I - A)' D^{-1} (I - A), dense: symmetric positive definite by
    construction, and exactly k-banded for a k-wide coefficient band."""
    return _dense_symmetric(_compose_bands(factor))


def _compose_bands(factor):
    """The (k+1, p) lower bands of compose(factor), k the factor's band width.
    The einsum overflows silently, and _dense_symmetric rejects the result;
    the divide could warn only where some a / sqrt(d) exceeds the largest
    float, which no fit's coefficients and residual variances reach."""
    p, k = factor.a.shape
    # b[m, t] = B[m, m-t] for B = D^{-1/2} (I - A), zero left of column 0,
    # past slot k and past the last row
    b = np.zeros((p + 2 * k, 2 * k + 1))
    root = np.sqrt(factor.d)
    b[:p, 0] = 1.0 / root
    # a / (-root) is -(a / root) exactly
    np.divide(factor.a[:, ::-1], -root[:, None], out=b[:p, 1:k + 1])
    # omega[c+s, c] = sum_t B[c+s+t, c+s] * B[c+s+t, c]
    #              = sum_t b[c+s+t, t] * b[c+s+t, t+s],
    # for every offset s at once from two strided views of b; the terms that
    # leave the band or the matrix read its zeros
    s0, s1 = b.strides
    left = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0, s0, s0 + s1))
    right = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0 + s1, s0, s0 + s1))
    return np.einsum("sct,sct->sc", left, right)


def _dense_symmetric(bands):
    """The dense symmetric matrix with entries (c+s, c) and (c, c+s) bands[s, c]
    of (k+1, p) lower bands, zero past c = p-1-s. The strided writes of those
    zeros land in k spare rows below it or, from the upper band, in its
    strictly lower part, which the lower band is written over next.

    Every estimate is densified here once, so this is where one whose
    entries overflowed is rejected: ValueError unless every band entry is
    finite. No bound on the data's second moments alone prevents that, as a
    near collinear column at a small scale can have entries of order
    1 / (residual variance) times huge coefficients.
    """
    if not np.isfinite(bands).all():
        raise ValueError("precision matrix entries overflow; rescale the data")
    k, p = bands.shape[0] - 1, bands.shape[1]
    full = np.zeros((p + k, p))
    e = full.itemsize
    np.ndarray((k + 1, p), buffer=full, strides=(e, (p + 1) * e))[:] = bands
    np.ndarray((k + 1, p), buffer=full, strides=(p * e, (p + 1) * e))[:] = bands
    return full[:p]


def _add_block_inverses(bands, low, n):
    """Add S^{-1} / n, S = L L' for L = low[c], into the bands: entry (b + s, b)
    of block c goes to bands[s, c + b - w], w = low.shape[1], unless c + b < w
    (padding). An entry that overflows is left for _dense_symmetric to reject."""
    w = low.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        m = linalg._invert_lower(low)
        # S^{-1} = M'M for M = L^{-1}; b descends, so each entry sums its blocks in ascending c
        inv = m.swapaxes(1, 2) @ m / n
        for b in range(w - 1, -1, -1):
            bands[:w - b, :len(low) - w + b] += inv[w - b:, b:, b].T


def decompose(omega):
    """Recover the factor (A, d) of an SPD precision matrix, A as its full band.

    One Cholesky factorization, of the reversed matrix: with J the exchange
    matrix, J omega J = L L', and T = J L' J is lower triangular with
    omega = T' T. Then d = diag(T)^{-2} and A = I - diag(T)^{-1} T. J omega J
    is SPD exactly when omega is.
    """
    low = linalg._spd_factor(np.flip(omega), "precision matrix")[1]
    p = low.shape[0]
    t = low[::-1, ::-1].T
    tdiag = np.diag(t).copy()
    # after p-1 zero columns, row j of -T/diag(T) holds the coefficients
    # on columns 0, ..., j-1 in columns p-1, ..., p+j-2, so its band
    # (columns j-p+1, ..., j-1, nearest last) is wide[j, j:j+p-1]
    wide = np.zeros((p, 2 * p - 1))
    wide[:, p - 1:] = -t / tdiag[:, None]
    s0, s1 = wide.strides
    a = np.ndarray((p, p - 1), buffer=wide, strides=(s0 + s1, s1)).copy()
    return CholeskyFactor(a=a, d=1.0 / tdiag**2)


def population_coefficients(sigma, k):
    """Banded regression coefficients implied by a covariance matrix.

    For each coordinate j, regress on the k closest predecessors under
    sigma: a_j solves sigma[Z_j, Z_j] a_j = sigma[Z_j, j], and d_j is the
    residual variance. k >= p - 1 reproduces decompose(inv(sigma)).
    Raises DegenerateResidual(j) when coordinate j is a numerically exact
    combination of its predecessors.
    """
    sigma = linalg._spd_factor(sigma, "covariance matrix")[0]
    linalg._integer("k", k, 0)
    st = _regress(GramBand(np.inf, _dense_to_band(sigma, min(k, sigma.shape[0] - 1))), k)
    return CholeskyFactor(a=st.ahat, d=st.dhat)
