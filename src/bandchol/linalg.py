"""Matrix norms, banding operators, and SPD helpers.

All functions accept anything convertible to a float ndarray and reject
non-finite entries. Symmetry is always checked in relative terms against
the largest entry magnitude; the check finds the lower and upper bandwidth
in one scan for nonzeros and reads only the diagonals inside a narrow
band. Inputs are dense matrices. norm_spectral takes a narrow symmetric
band to a bisection for its extreme eigenvalues by Cholesky factorizations
of the band, O(p b^2) each. Every other spectral quantity, the norm of a
wide symmetric or a general matrix and eig_extremes, comes from one
Householder reduction to tridiagonal form, O(p^3), and a bisection of the
tridiagonal for its two extreme eigenvalues only.
"""

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpbtrf, dstebz, dsytrd, dsytrd_lwork

from .errors import SingularMatrix

SYM_TOL = 1e-12
# norm_spectral bisects a symmetric matrix of order p and lower bandwidth b
# on its band (_band_norm) when BAND_BISECTION_LIMIT * b^2 <= p^3, and takes
# _dense_extremes otherwise. Timed against each other (one thread, 2-core
# Xeon at 2.0 GHz, medians over seven random bands, ms, bisection/dense):
#   p = 50:   b = 0  0.025/0.048   b = 1  0.28/0.076   b = 2  0.18/0.084
#   p = 100:  b = 2  0.22/0.26     b = 4  0.46/0.26    b = 6  0.55/0.28
#   p = 200:  b = 4  0.80/0.92     b = 6  0.61/0.92    b = 8  1.16/0.94
#   p = 300:  b = 12 1.35/2.27     b = 16 3.19/2.63    b = 20 3.95/2.31
#   p = 500:  b = 4  1.23/6.82     b = 24 7.36/6.86    b = 40 14.6/6.97
#   p = 700:  b = 32 9.00/21.8     b = 40 28.9/26.6    b = 56 33.1/28.0
#   p = 1000: b = 16 10.2/75.0     b = 64 29.9/73.8    b = 128 45.0/77.8
# The even point grows about as b^2 ~ p^3 / 160000 (b near 2, 8, 14, 28,
# 45 at p = 100 ... 700, above 128 at p = 1000; a fixed ratio p/b misses
# one end or the other), and the limit sits a little on the dense side:
# the widest bisected band is b = 0, 2, 6, 11, 25, 41, 70 at p = 50, 100,
# 200, 300, 500, 700, 1000.
BAND_BISECTION_LIMIT = 200_000
# is_symmetric reads only the 2w + 1 in-band diagonals of a matrix whose
# wider bandwidth w has SYM_SCAN_RATIO * w <= p, one strided read each, and
# takes the dense formula over all p^2 entries otherwise
SYM_SCAN_RATIO = 25


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
    return _symmetric_within(m, max(_bandwidths(m)), tol)


def _row_spans(mask):
    """First and last True column of each row of a boolean matrix, and
    whether the row has one at all (both spans read 0 and p-1 if not)."""
    first = np.argmax(mask, axis=1)
    last = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    return first, last, mask[np.arange(len(mask)), first]


def _bandwidths(m):
    """Lower and upper bandwidth of a square matrix: the largest i - j and
    j - i over its nonzero entries m[i, j], and 0 when there are none."""
    p = m.shape[0]
    if p and m[-1, 0] != 0 and m[0, -1] != 0:
        return p - 1, p - 1
    first, last, has = _row_spans(m != 0)
    rows = np.arange(p)
    return (int(np.max((rows - first)[has], initial=0)),
            int(np.max((last - rows)[has], initial=0)))


def _symmetric_within(m, width, tol):
    """is_symmetric for a square m with no nonzero entry more than width
    diagonals off the main one.

    Outside that band m and m.T are both exactly zero, so the largest entry
    and the largest |m - m.T| are found on the 2 * width + 1 diagonals in
    it, in O(p * width). A wide band takes the dense formula, which is then
    the cheaper one.
    """
    if SYM_SCAN_RATIO * width > m.shape[0]:
        scale = np.max(np.abs(m))
        return scale == 0.0 or np.max(np.abs(m - m.T)) <= tol * scale
    scale = np.max(np.abs(np.diagonal(m)))
    asym = 0.0
    for d in range(1, width + 1):
        below, above = np.diagonal(m, -d), np.diagonal(m, d)
        scale = max(scale, np.max(np.abs(below)), np.max(np.abs(above)))
        asym = max(asym, np.max(np.abs(below - above)))
    return scale == 0.0 or asym <= tol * scale


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

def _lower_band(m, b):
    """The lower band of a square m in LAPACK storage: row d holds diagonal
    -d, padded with zeros at the end; Fortran order, as dpbtrf reads it."""
    p = m.shape[0]
    band = np.zeros((b + 1, p), order="F")
    for d in range(b + 1):
        band[d, :p - d] = np.diagonal(m, -d)
    return band


def _top_eigenvalue(minus_band, lo, hi, tol):
    """Bisect lo <= lambda_max(A) <= hi down to a width of at most tol.

    minus_band is -A in the storage of _lower_band. sigma * I - A has a
    Cholesky factor exactly when sigma > lambda_max(A), so each dpbtrf
    moves one end of the bracket to its midpoint. Returns the upper end.
    """
    work = np.empty_like(minus_band, order="F")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        work[...] = minus_band
        work[0] += mid
        if dpbtrf(work, lower=1, overwrite_ab=1)[1] == 0:
            hi = mid
        else:
            lo = mid
    return hi


def _band_norm(band):
    """Spectral norm of a symmetric band, max(lambda_max, -lambda_min), by
    bisection on Cholesky factorizations (Barth, Martin & Wilkinson 1967).

    band is the lower band, of lower bandwidth b, from _lower_band. It is
    scaled by an exact power of two to entries below 1 in magnitude, so no
    step overflows, and only entries some 1e-308 times smaller than the
    largest can underflow. lambda_max is bisected first, then one
    more dpbtrf, of lambda_max * I + M, tells whether -lambda_min can exceed
    it, and only then is lambda_max(-M) bisected. Each bracket starts at
    the largest diagonal entry and the Gershgorin bound, at most ||M||_inf
    apart, and stops at a width of at most 4 * eps * ||M||_inf. A rounded
    midpoint is off by at most eps/2 * ||M||_inf, so k halvings leave a
    width of at most 2^-k * ||M||_inf + eps * ||M||_inf, and 51 halvings
    suffice: a norm costs at most 2 * 51 + 1 factorizations of O(p b^2)
    each. Since
    ||M||_inf <= sqrt(2b + 1) * ||M||_2 for at most 2b + 1 entries in a
    row, the returned upper end of the bracket is within a relative
    4 * eps * sqrt(2b + 1) of the norm, plus the rounding of the Cholesky
    tests and of the Gershgorin bound, each O(b * eps) relative.
    """
    peak = np.max(np.abs(band))
    if peak == 0.0:
        return 0.0
    exponent = int(np.frexp(peak)[1])
    band = np.ldexp(band, -exponent)
    b, p = band.shape[0] - 1, band.shape[1]
    # row sums of |M|: row i holds diagonal -d at band[d, i - d] and, by
    # symmetry, diagonal d at band[d, i]
    rows = np.abs(band).sum(axis=0)
    for d in range(1, b + 1):
        rows[d:] += np.abs(band[d, :p - d])
    diag = band[0]
    radius = rows - np.abs(diag)
    tol = 4.0 * np.finfo(float).eps * np.max(rows)
    top = _top_eigenvalue(-band, np.max(diag), np.max(diag + radius), tol)
    shifted = np.array(band, order="F")
    shifted[0] += top
    if dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0:
        # top * I + M is positive definite: -lambda_min < lambda_max
        return float(np.ldexp(top, exponent))
    bottom = _top_eigenvalue(band, max(top, np.max(-diag)), np.max(radius - diag), tol)
    return float(np.ldexp(max(top, bottom), exponent))


def _dense_extremes(m):
    """Smallest and largest eigenvalue of a symmetric m, read from its lower
    triangle as eigvalsh reads it.

    m is scaled by an exact power of two to entries below 1 in magnitude,
    as in _band_norm. LAPACK dsytrd reduces it by Householder reflections
    to a symmetric tridiagonal T with the same eigenvalues, in O(p^3): the
    reduction eigvalsh makes before it finds all p eigenvalues. Here dstebz
    bisects T by Sturm counts for the eigenvalues of index 1 and p alone,
    O(p) per step, each to LAPACK's default absolute tolerance (abstol = 0),
    about eps * ||T||_1.
    """
    p = m.shape[0]
    exponent = int(np.frexp(np.max(np.abs(m)))[1])
    # the transpose is the Fortran-ordered array LAPACK reads in place, and
    # its upper triangle is m's lower one
    _, diag, off, _, _ = dsytrd(np.ldexp(m.T, -exponent), lower=0,
                                lwork=int(dsytrd_lwork(p)[0]), overwrite_a=1)
    if p == 1:
        # scipy's dstebz wrapper rejects the empty off-diagonal of order 1
        off = np.zeros(1)
    extremes = []
    for i in (1, p):
        _, vals, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, i, i, 0.0, b"E")
        if info:
            raise np.linalg.LinAlgError("tridiagonal bisection did not converge")
        extremes.append(float(np.ldexp(vals[0], exponent)))
    return tuple(extremes)


def norm_spectral(m):
    """Largest singular value.

    A symmetric input of order p and lower bandwidth b is its largest
    absolute eigenvalue: by Cholesky bisection on its lower band when
    BAND_BISECTION_LIMIT * b^2 <= p^3 (see _band_norm), from _dense_extremes
    otherwise. General inputs go through the Gram matrix m.T @ m, formed
    after scaling m by a power of two so that it cannot overflow.
    """
    m = check_finite(m)
    if m.ndim != 2:
        raise ValueError("norm_spectral expects a matrix")
    if m.size == 0:
        return 0.0
    p = m.shape[0]
    if p == m.shape[1]:
        lower, upper = _bandwidths(m)
        if _symmetric_within(m, max(lower, upper), SYM_TOL):
            if BAND_BISECTION_LIMIT * lower * lower <= p ** 3:
                return _band_norm(_lower_band(m, lower))
            lo, hi = _dense_extremes(m)
            return max(-lo, hi)
    exponent = int(np.frexp(np.max(np.abs(m)))[1])
    m = np.ldexp(m, -exponent)
    gram = m.T @ m
    gram = (gram + gram.T) / 2.0
    # the top eigenvalue of a nonzero Gram matrix is positive; the clamp
    # only guards the square root
    return float(np.ldexp(np.sqrt(max(_dense_extremes(gram)[1], 0.0)), exponent))


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
    return _dense_extremes((m + m.T) / 2.0)


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
