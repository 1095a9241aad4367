"""Modified Cholesky decomposition of precision matrices.

A precision matrix factors as omega = (I - A)' D^{-1} (I - A) with A
strictly lower triangular and D = diag(d) positive. Row j of A holds the
coefficients of the regression of coordinate j on its predecessors, and
d_j is the innovation variance of that regression. Banding A by k is the
same as truncating each regression to the k closest predecessors.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .stats import _regress


@dataclass(frozen=True)
class CholeskyFactor:
    """Pair (A, d) of regression coefficients and innovation variances."""

    a: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = linalg.check_finite(self.a, "coefficient matrix")
        d = linalg.check_finite(self.d, "innovation variances")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if d.shape != (a.shape[0],):
            raise ValueError("innovation variances must match the matrix order")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("coefficient matrix must be strictly lower triangular")
        if np.any(d <= 0.0):
            raise ValueError("innovation variances must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def p(self):
        return self.a.shape[0]


def compose(factor):
    """Assemble omega = (I - A)' D^{-1} (I - A).

    The result is symmetric positive definite by construction, and is
    exactly k-banded whenever A is k-banded.
    """
    # I - A is built in place: at large p these p x p arrays set the peak
    # memory of an estimate
    b = np.eye(factor.p)
    b -= factor.a
    b /= np.sqrt(factor.d)[:, None]
    omega = b.T @ b
    return (omega + omega.T) / 2.0


def decompose(omega):
    """Recover the factor (A, d) of an SPD precision matrix.

    Uses the reversed Cholesky factorization: with J the exchange matrix,
    J omega J = L L', and T = J L' J is lower triangular with
    omega = T' T. Then d = diag(T)^{-2} and A = I - diag(T)^{-1} T.
    """
    omega = linalg.as_spd(omega, "precision matrix")
    low = np.linalg.cholesky(omega[::-1, ::-1])
    t = low[::-1, ::-1].T
    tdiag = np.diag(t).copy()
    a = -t / tdiag[:, None]
    np.fill_diagonal(a, 0.0)
    return CholeskyFactor(a=a, d=1.0 / tdiag**2)


def population_coefficients(sigma, k):
    """Banded regression coefficients implied by a covariance matrix.

    For each coordinate j, regress on the k closest predecessors under
    sigma: a_j solves sigma[Z_j, Z_j] a_j = sigma[Z_j, j], and d_j is the
    residual variance. k >= p - 1 reproduces decompose(inv(sigma)).
    Raises DegenerateResidual(j) when coordinate j is a numerically exact
    combination of its predecessors.
    """
    sigma = linalg.as_spd(sigma, "covariance matrix")
    st = _regress(sigma, k, np.inf)
    return CholeskyFactor(a=st.coefficient_matrix(), d=st.dhat)


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
    omega = linalg.as_spd(omega, "precision matrix")
    if not 0 < eps0 <= 1:
        raise ValueError("eps0 must lie in (0, 1]")
    if scale <= 0:
        raise ValueError("scale must be positive")
    p = omega.shape[0]
    if p < 2:
        raise ValueError("profiles need p >= 2")
    lmin, lmax = linalg.eig_extremes(omega)
    eps0_ok = bool(eps0 <= lmin and lmax <= 1.0 / eps0)
    a = decompose(omega).a
    ks = np.arange(1, p)
    factor_profile = np.array([linalg.norm_linf(a - linalg.band_matrix(a, k)) for k in ks])
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
