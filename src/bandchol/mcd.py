"""Modified Cholesky decomposition of precision matrices.

A precision matrix factors as omega = (I - A)' D^{-1} (I - A) with A
strictly lower triangular and D = diag(d) positive. Row j of A holds the
coefficients of the regression of coordinate j on its predecessors, and
d_j is the innovation variance of that regression. Banding A by k is the
same as truncating each regression to the k closest predecessors.

A k-banded A is stored as its (p, k) coefficient band, the layout of
BandedRegressionStats.ahat: row j holds the coefficients on coordinates
j-k, ..., j-1, nearest last, and the slots left of the first coordinate
are zero. compose builds omega from the bands in O(p k^2) and returns it
dense; decompose returns the full band, k = p - 1, from one Cholesky
factorization.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .stats import _dense_to_band, _regress


@dataclass(frozen=True)
class CholeskyFactor:
    """Pair (A, d): A as its (p, k) coefficient band a, k < p, and the
    innovation variances d, all positive."""

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
        # row j < k has k - j slots before the first coordinate
        slots = np.arange(k)
        if np.any(a[:k][slots[:, None] + slots < k] != 0.0):
            raise ValueError("coefficient band must be zero before the first coordinate")
        if np.any(d <= 0.0):
            raise ValueError("innovation variances must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def p(self):
        return self.a.shape[0]


def compose(factor):
    """Assemble omega = (I - A)' D^{-1} (I - A) as a dense symmetric matrix.

    The result is symmetric positive definite by construction, and exactly
    k-banded for a k-wide coefficient band.
    """
    p, k = factor.a.shape
    # b[m, t] = B[m, m-t] for B = D^{-1/2} (I - A), zero left of column 0,
    # past slot k and past the last row
    b = np.zeros((p + 2 * k, 2 * k + 1))
    b[:p, 0] = 1.0
    b[:p, 1:k + 1] = -factor.a[:, ::-1]
    b[:p, :k + 1] /= np.sqrt(factor.d)[:, None]
    # omega[c+s, c] = sum_t B[c+s+t, c+s] * B[c+s+t, c]
    #              = sum_t b[c+s+t, t] * b[c+s+t, t+s],
    # for every offset s at once from two strided views of b; the terms that
    # leave the band or the matrix read its zeros
    s0, s1 = b.strides
    left = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0, s0, s0 + s1))
    right = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0 + s1, s0, s0 + s1))
    bands = np.einsum("sct,sct->sc", left, right)
    # bands[s, c] goes to omega[c, c+s] and omega[c+s, c]. Past c = p-1-s it
    # is zero, and the strided writes of those zeros land in k spare rows
    # below omega or, from the upper band, in its strictly lower part, which
    # the lower band is written over next.
    full = np.zeros((p + k, p))
    e = full.itemsize
    np.ndarray((k + 1, p), buffer=full, strides=(e, (p + 1) * e))[:] = bands
    np.ndarray((k + 1, p), buffer=full, strides=(p * e, (p + 1) * e))[:] = bands
    return full[:p]


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
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    st = _regress(_dense_to_band(sigma, min(k, sigma.shape[0] - 1)), k, np.inf)
    return CholeskyFactor(a=st.ahat, d=st.dhat)
