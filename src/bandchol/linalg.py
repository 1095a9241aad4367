"""Matrix norms, banding operators, and SPD helpers.

All functions accept anything convertible to a float ndarray and reject
non-finite entries. Symmetry is always checked in relative terms against
the largest entry magnitude. Inputs are dense matrices; norm_spectral finds
the bandwidth of a symmetric input and solves a narrow band with the
banded eigensolver, a wide one with the dense solver.
"""

import numpy as np
from scipy.linalg import cho_solve, eigvals_banded

from .errors import SingularMatrix

SYM_TOL = 1e-12
# norm_spectral solves a symmetric matrix of order p and lower bandwidth b
# as a band when BANDED_EIG_RATIO * b <= p. Timed against eigvalsh for
# p = 50...1000 (one thread, 2-core Xeon at 2.0 GHz), the banded solver
# broke even at p/b of about 12 to 16 and was 1.15x to 1.7x faster at p/b
# of 25 to 31 for p >= 100; the margin covers a faster dense solver.
BANDED_EIG_RATIO = 25


def check_finite(m, name="matrix"):
    """Convert to a float ndarray, rejecting NaN and infinity."""
    out = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def is_symmetric(m, tol=SYM_TOL):
    """True when m equals its transpose to relative tolerance tol."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return True
    return np.max(np.abs(m - m.T)) <= tol * scale


def as_spd(m, name="matrix"):
    """Validate a symmetric positive definite matrix.

    Symmetry is required up to relative tolerance 1e-12; the returned copy
    is exactly symmetrized. Positive definiteness is established through a
    Cholesky factorization, which fails exactly when the smallest
    eigenvalue is not positive.
    """
    return _spd_factor(m, name)[0]


def _spd_factor(m, name="matrix"):
    """as_spd's symmetrized copy of m and the lower Cholesky factor that
    established its positive definiteness."""
    m = check_finite(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not is_symmetric(m):
        raise ValueError(f"{name} is not symmetric to relative tolerance {SYM_TOL}")
    m = (m + m.T) / 2.0
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SingularMatrix(f"{name} is not positive definite") from None
    return m, low


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _symmetric_eigvals(m):
    """Eigenvalues of a symmetric matrix from its lower triangle, as eigvalsh."""
    p = m.shape[0]
    # the lower bandwidth, from each row's first nonzero entry; an all-zero
    # row i counts as reaching back to column 0, which only widens the band
    b = max(int(np.max(np.arange(p) - np.argmax(m != 0, axis=1))), 0)
    if BANDED_EIG_RATIO * b > p:
        return np.linalg.eigvalsh(m)
    band = np.zeros((b + 1, p))
    for i in range(b + 1):
        band[i, :p - i] = np.diagonal(m, -i)
    return eigvals_banded(band, lower=True, check_finite=False)


def norm_spectral(m):
    """Largest singular value.

    Symmetric inputs use a symmetric eigensolver directly, the banded one
    when their bandwidth is narrow; general inputs go through the Gram
    matrix m.T @ m.
    """
    m = check_finite(m)
    if m.ndim != 2:
        raise ValueError("norm_spectral expects a matrix")
    if m.size == 0:
        return 0.0
    if is_symmetric(m):
        return float(np.max(np.abs(_symmetric_eigvals(m))))
    gram = m.T @ m
    gram = (gram + gram.T) / 2.0
    # eigvalsh can return a tiny negative value for a rank-deficient Gram
    return float(np.sqrt(max(np.max(np.linalg.eigvalsh(gram)), 0.0)))


def norm_l1(m):
    """Maximum absolute column sum."""
    m = check_finite(m)
    return float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0


def norm_linf(m):
    """Maximum absolute row sum."""
    m = check_finite(m)
    return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0


def norm_fro(m):
    """Frobenius norm."""
    m = check_finite(m)
    return float(np.sqrt(np.sum(m * m)))


# ---------------------------------------------------------------------------
# banding operators
# ---------------------------------------------------------------------------

def band_matrix(m, k):
    """Zero out every entry with |i - j| > k."""
    m = check_finite(m)
    if m.ndim != 2:
        raise ValueError("band_matrix expects a matrix")
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    rows = np.arange(m.shape[0])[:, None]
    cols = np.arange(m.shape[1])[None, :]
    return np.where(np.abs(rows - cols) <= k, m, 0.0)


# ---------------------------------------------------------------------------
# symmetric eigenvalues and SPD factorizations
# ---------------------------------------------------------------------------

def eig_extremes(m):
    """Smallest and largest eigenvalue of a symmetric matrix."""
    m = check_finite(m)
    if not is_symmetric(m):
        raise ValueError("eig_extremes requires a symmetric matrix")
    vals = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(vals[0]), float(vals[-1])


def spd_cholesky(m, name="matrix"):
    """Lower Cholesky factor of an SPD matrix, raising SingularMatrix on failure."""
    m = check_finite(m, name)
    try:
        return np.linalg.cholesky((m + m.T) / 2.0)
    except np.linalg.LinAlgError:
        raise SingularMatrix(f"{name} is not positive definite") from None


def spd_solve(m, rhs):
    """Solve m @ x = rhs for SPD m via its Cholesky factor."""
    low = spd_cholesky(m)
    rhs = check_finite(rhs, "rhs")
    return cho_solve((low, True), rhs)


NORMS_BY_NAME = {
    "spectral": norm_spectral,
    "l1": norm_l1,
    "linf": norm_linf,
    "fro": norm_fro,
}
