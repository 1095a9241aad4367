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
dense; decompose returns the full band, k = p - 1.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .stats import _regress


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


def _reversed_factor(omega):
    """_spd_factor's symmetrized omega and decompose(omega), from one Cholesky
    factorization: with J the exchange matrix, J omega J = L L', and
    T = J L' J is lower triangular with omega = T' T. Then d = diag(T)^{-2}
    and A = I - diag(T)^{-1} T. J omega J is SPD exactly when omega is."""
    rev, low = linalg._spd_factor(np.flip(omega), "precision matrix")
    p = rev.shape[0]
    t = low[::-1, ::-1].T
    tdiag = np.diag(t).copy()
    # after p-1 zero columns, row j of -T/diag(T) holds the coefficients
    # on columns 0, ..., j-1 in columns p-1, ..., p+j-2, so its band
    # (columns j-p+1, ..., j-1, nearest last) is wide[j, j:j+p-1]
    wide = np.zeros((p, 2 * p - 1))
    wide[:, p - 1:] = -t / tdiag[:, None]
    s0, s1 = wide.strides
    a = np.ndarray((p, p - 1), buffer=wide, strides=(s0 + s1, s1)).copy()
    return np.flip(rev), CholeskyFactor(a=a, d=1.0 / tdiag**2)


def decompose(omega):
    """Recover the factor (A, d) of an SPD precision matrix, A as its full band,
    by the reversed Cholesky factorization of _reversed_factor."""
    return _reversed_factor(omega)[1]


def population_coefficients(sigma, k):
    """Banded regression coefficients implied by a covariance matrix.

    For each coordinate j, regress on the k closest predecessors under
    sigma: a_j solves sigma[Z_j, Z_j] a_j = sigma[Z_j, j], and d_j is the
    residual variance. k >= p - 1 reproduces decompose(inv(sigma)).
    Raises DegenerateResidual(j) when coordinate j is a numerically exact
    combination of its predecessors.
    """
    sigma = linalg._spd_factor(sigma, "covariance matrix")[0]
    st = _regress(sigma, k, np.inf)
    return CholeskyFactor(a=st.ahat, d=st.dhat)


# ---------------------------------------------------------------------------
# decay classes of precision matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSpec:
    """Nonincreasing decay bound gamma(k) on off-band mass.

    kind "polynomial": gamma(k) = c * k^(-alpha)
    kind "exponential": gamma(k) = c * exp(-beta * k)
    kind "exact": no constraint up to k0, zero beyond
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    c: float = 1.0
    k0: int = 0

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential", "exact"):
            raise ValueError(f"unknown gamma kind {self.kind!r}")
        if self.kind == "polynomial" and (self.alpha <= 0 or self.c <= 0):
            raise ValueError("polynomial decay needs alpha > 0 and c > 0")
        if self.kind == "exponential" and (self.beta <= 0 or self.c <= 0):
            raise ValueError("exponential decay needs beta > 0 and c > 0")
        if self.kind == "exact" and self.k0 < 0:
            raise ValueError("exact banding needs k0 >= 0")

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        if np.any(k < 1):
            raise ValueError("gamma(k) is defined for k >= 1")
        if self.kind == "polynomial":
            out = self.c * k**-self.alpha
        elif self.kind == "exponential":
            out = self.c * np.exp(-self.beta * k)
        else:
            out = np.where(k > self.k0, 0.0, np.inf)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ClassReport:
    """Membership report for the decay classes of a precision matrix."""

    eps0_ok: bool
    factor_profile: np.ndarray
    omega_profile: np.ndarray
    member_u: bool
    member_ustar: bool


def class_membership(omega, eps0, gamma, scale=1.0):
    """Check the decay-class membership of a precision matrix.

    factor_profile[k-1] = max_i sum_{j < i-k} |a_ij| for the Cholesky
    coefficients A of omega; omega_profile[k-1] is the analogous off-band
    row mass of omega itself. Membership compares each profile against
    scale * gamma(k) over 1 <= k <= p-1 and requires all eigenvalues of
    omega inside [eps0, 1/eps0].
    """
    omega, factor = _reversed_factor(omega)
    if not 0 < eps0 <= 1:
        raise ValueError("eps0 must lie in (0, 1]")
    if scale <= 0:
        raise ValueError("scale must be positive")
    p = omega.shape[0]
    if p < 2:
        raise ValueError("profiles need p >= 2")
    lmin, lmax = linalg.eig_extremes(omega)
    eps0_ok = bool(eps0 <= lmin and lmax <= 1.0 / eps0)
    a = factor.a
    ks = np.arange(1, p)
    # band slots 0 .. p-2-k hold the coefficients more than k places away
    factor_profile = np.array([linalg.norm_linf(a[:, :p - 1 - k]) for k in ks])
    omega_profile = np.array(
        [linalg.norm_linf(omega - linalg.band_matrix(omega, k)) for k in ks]
    )
    bound = scale * gamma(ks)
    member_u = eps0_ok and bool(np.all(factor_profile <= bound))
    member_ustar = eps0_ok and bool(np.all(omega_profile <= bound))
    return ClassReport(
        eps0_ok=eps0_ok,
        factor_profile=factor_profile,
        omega_profile=omega_profile,
        member_u=member_u,
        member_ustar=member_ustar,
    )
