"""Matrix norms, the symmetry check, and the SPD factorization.

All functions accept anything convertible to a float ndarray and reject
non-finite entries in one pass: one reduction in check_finite, and none in
norm_l1, norm_linf and norm_fro unless the norm is not finite. Symmetry is
always checked in relative terms against the largest entry magnitude, after
one scan for nonzeros finds the lower and upper bandwidth; a matrix whose
largest magnitude is infinite or NaN is not symmetric, and no entries are
subtracted to say so. _bands is the one reader of a square matrix's band:
is_symmetric and norm_spectral read a narrow one once, for the symmetry
test and, in norm_spectral, the check for non-finite entries and the band
it searches. Inputs are dense matrices.
norm_spectral brackets the extreme eigenvalues of a narrow symmetric band by
Cholesky factorizations of its shifts, O(p b^2) each, at trial points that
the Rayleigh quotients of inverse iteration steps on the same factors guide,
in at most as many factorizations as plain bisection. The norm of a wide
symmetric matrix comes from one Householder reduction to tridiagonal form,
O(p^3), and a bisection of the tridiagonal for its two extreme eigenvalues
only; that of a general matrix is its largest singular value from the SVD.

_spd_factor is the one step that validates and factors an SPD input,
_solve_lower_transposed the one back-substitution on a stack of padded
band factors, shared by stats._regress (nearest first) and the sampler,
and _invert_lower the one inversion of a stack of triangular factors,
shared by stats._nested_coefficients and, for the posterior mean,
mcd._add_block_inverses. The back-substitution runs on blocks-last copies,
the p factors along the last, contiguous axis, so that each of its k steps
is a few whole-row operations; the inversion keeps its per-row batched
matmul, whose summation order the nested coefficients' exact tests pin.
"""

import math
import numbers

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstebz, dsytrd, dsytrd_lwork

from .errors import SingularMatrix

SYM_TOL = 1e-12
# norm_spectral searches a symmetric matrix of order p and lower bandwidth
# b on its band (_band_norm) when BAND_BISECTION_LIMIT * b^2 <= p^3, and
# takes _dense_extremes otherwise. Timed against each other (one thread,
# 2-core Xeon at 2.0 GHz, medians over seven random bands, best of three
# calls each, ms, band search/dense):
#   p = 50:   b = 0  0.062/0.113   b = 1  0.42/0.16    b = 2  0.29/0.19
#   p = 100:  b = 2  0.33/0.54     b = 4  0.56/0.54    b = 6  0.53/0.57
#   p = 200:  b = 4  0.90/1.80     b = 6  1.00/1.80    b = 8  0.64/1.76
#   p = 300:  b = 12 1.94/4.08     b = 16 2.37/4.08    b = 20 1.60/4.03
#   p = 500:  b = 4  1.56/12.8     b = 24 3.42/13.5    b = 40 8.88/13.8
#   p = 700:  b = 32 10.3/38.5     b = 40 12.3/37.5    b = 56 13.4/37.9
#   p = 1000: b = 16 3.49/98.8     b = 64 19.0/105     b = 128 32.7/102
# Plain bisection, 51 factorizations per extreme, took 1.4 to 4.2 times as
# long for b >= 1 in the same run (7.04, 33.3 and 138 ms at p = 1000), and
# its even point grew about as b^2 ~ p^3 / 160000. The limit was set for
# it: the widest band searched is b = 0, 2, 6, 11, 25, 41, 70 at p = 50,
# 100, 200, 300, 500, 700, 1000, below the guided search's even point.
BAND_BISECTION_LIMIT = 200_000
# factorizations at most per extreme eigenvalue in _top_eigenvalue
BISECTION_STEPS = 51
# the symmetry test reads only the 2w + 1 in-band diagonals (_bands) of a
# matrix whose wider bandwidth w has SYM_SCAN_RATIO * w <= p, and takes the
# dense formula over all p^2 entries otherwise
SYM_SCAN_RATIO = 25


def check_finite(m, name="matrix"):
    """Convert to a float ndarray, rejecting NaN and infinity."""
    out = np.asarray(m, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _integer(name, value, minimum=None):
    """Reject value unless it is an int or a numpy integer, not a bool, and
    >= minimum if given: a type test that scans nothing. The ValueError names
    the argument, or the JSON path of a config field."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name}: expected an integer{bound}, got {value!r}")


def _real(name, value, valid, expected):
    """value as a float, if it is a real number, not a bool, that valid
    accepts; the ValueError names the argument as _integer's does."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not valid(value):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")
    return float(value)


def is_symmetric(m):
    """True when m equals its transpose to relative tolerance SYM_TOL."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return _symmetric_within(m, max(_bandwidths(m)))[0]


def _row_spans(mask):
    """First and last True column of each row of a boolean matrix, and
    whether the row has one at all (both spans read 0 and p-1 if not)."""
    first = np.argmax(mask, axis=1)
    last = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    return first, last, mask[np.arange(len(mask)), first]


def _bandwidths(m):
    """Lower and upper bandwidth of a square matrix: the largest i - j and
    j - i over its nonzero entries m[i, j], and 0 when there are none. NaN
    and infinities count as nonzero."""
    p = m.shape[0]
    if p and m[-1, 0] != 0 and m[0, -1] != 0:
        return p - 1, p - 1
    first, last, has = _row_spans(m != 0)
    idx = np.arange(p)
    return int(np.max((idx - first)[has], initial=0)), int(np.max((last - idx)[has], initial=0))


def _bands(m, w):
    """The lower and upper bands of a square m within w of the diagonal, one
    read of each diagonal: the (w + 1, p) halves of one array, row d holding
    diagonal -d or d, zero-padded at the end; the lower bands of m and m.T in
    LAPACK storage, each in Fortran order, as dpbtrf reads it."""
    p = m.shape[0]
    lower, upper = bands = np.zeros((2, p, w + 1)).transpose(0, 2, 1)
    lower[0] = upper[0] = np.diagonal(m)
    for d in range(1, w + 1):
        lower[d, :p - d] = np.diagonal(m, -d)
        upper[d, :p - d] = np.diagonal(m, d)
    return bands


def _symmetric_within(m, width, finite=False):
    """is_symmetric for a square m with no nonzero entry more than width
    diagonals off the main one, and the _bands(m, width) that a narrow band,
    SYM_SCAN_RATIO * width <= p, is tested on in O(p * width), as m and m.T
    are both exactly zero off it; None for a wide band, which takes the dense
    formula, then the cheaper one. A non-finite entry fails both tests, or,
    with finite, raises check_finite's ValueError before any arithmetic."""
    bands = None if SYM_SCAN_RATIO * width > m.shape[0] else _bands(m, width)
    entries = m if bands is None else bands
    if finite:
        check_finite(entries)
    lower, upper = (m, m.T) if bands is None else bands
    scale = np.max(np.abs(entries))
    # an infinite or NaN scale fails before inf - inf can warn
    symmetric = np.isfinite(scale) and (
        scale == 0.0 or np.max(np.abs(lower - upper)) <= SYM_TOL * scale)
    return symmetric, bands


def _spd_factor(m, name="matrix"):
    """Validate a symmetric positive definite matrix and factor it.

    Returns the exactly symmetrized copy of m and its lower Cholesky factor.
    Symmetry is required up to relative tolerance SYM_TOL. Positive
    definiteness is established by the factorization, which fails, raising
    SingularMatrix, exactly when the smallest eigenvalue is not positive.
    """
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


def _solve_lower_transposed(low, x):
    """Solve L' y = x in place, for (p, k, k) lower factors L and x of shape
    (..., p, k), and return x.

    Back-substitution over the k slots, last first, for all factors at once:
    slot i is final once divided by L[i, i], and its term L[i, :i] * y_i
    leaves the slots before it. A padded slot (identity factor, zero
    right-hand side) gets no term from the real slots and keeps y = 0.
    The slots run on blocks-last copies, (k, ..., p) of x and, at step i,
    (i + 1, p) of row i of L's lower triangle, so that every step reads
    and writes contiguous rows; each entry takes the same operations in the
    same order as on x itself.
    """
    k = low.shape[-1]
    # shaped to broadcast over x's leading axes
    shape = (1,) * (x.ndim - 2) + (low.shape[0],)
    y = np.moveaxis(x, -1, 0).copy()
    for i in range(k - 1, -1, -1):
        # L[:, i, r] as row r
        row = np.ascontiguousarray(low[:, i, :i + 1].T).reshape((i + 1,) + shape)
        y[i] /= row[i]
        y[:i] -= row[:i] * y[i]
    x[...] = np.moveaxis(y, 0, -1)
    return x


def _invert_lower(low):
    """The inverses M = L^{-1} of (p, k, k) lower triangular factors L, row
    by row for all factors at once: M[i] = (e_i - L[i, :i] M[:i]) / L[i, i]."""
    m = np.zeros(low.shape)
    for i in range(low.shape[-1]):
        row = m[:, i, :i + 1]
        row[:, i] = 1.0
        if i:
            row[:, :i] -= np.matmul(low[:, i, None, :i], m[:, :i, :i])[:, 0]
        row /= low[:, i, i, None]
    return m


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _top_eigenvalue(minus_band, lo, hi, tol):
    """Narrow lo <= lambda_max(A) <= hi down to a width of at most tol, in at
    most BISECTION_STEPS factorizations, and return the upper end.

    minus_band is -A in the storage of _bands; lo, hi and hi - lo are at
    most ||A||_inf = tol / (4 eps) in magnitude. sigma * I - A has a Cholesky
    factor exactly when sigma > lambda_max(A), so a dpbtrf at a trial point
    sigma moves one end of the bracket to it.

    Each factor also makes a step of inverse iteration: one dpbtrs solves
    (sigma I - A) w = v for a unit vector v, at first the constant one. The
    Rayleigh quotient rho = sigma - v'w / w'w of A at w is a lower bound on
    lambda_max and raises lo, and as (sigma I - A) w = v, some eigenvalue lies
    within r = ||(sigma - rho) w - v|| / ||w|| of rho. The next trial is
    rho + max(r, tol / 2), and v becomes w / ||w||. As v turns toward the top
    eigenvector, rho tends to lambda_max and r to 0; where r bounds another
    eigenvalue, the trial fails and raises lo instead.

    The trial is the midpoint when that guess lies outside the bracket or no
    factorization is spare. A rounded midpoint is off by at most
    delta = eps/2 * max(|lo|, |hi|), so j midpoints leave a width of at most
    2 delta + 2^-j (hi - lo - 2 delta), at most tol from
    j = ceil(log2((hi - lo - 2 delta) / (tol - 2 delta))) on. That count is
    at most 51 for the first bracket, never grows, and drops by one at each
    midpoint. A guess is tried only while the factorizations made, plus one,
    plus the count are at most BISECTION_STEPS = 51, so the bound of pure
    bisection holds.
    """
    eps = np.finfo(float).eps
    work = np.empty_like(minus_band, order="F")
    p = minus_band.shape[1]
    v = np.full(p, p ** -0.5)
    guess, used = math.nan, 0
    while hi - lo > tol:
        twice_delta = eps * max(abs(lo), abs(hi))
        needed = math.ceil(math.log2((hi - lo - twice_delta) / (tol - twice_delta)))
        spare = used + 1 + needed <= BISECTION_STEPS
        sigma = guess if spare and lo < guess < hi else 0.5 * (lo + hi)
        work[...] = minus_band
        work[0] += sigma
        used += 1
        factor, info = dpbtrf(work, lower=1, overwrite_ab=1)
        if info:
            lo, guess = sigma, math.nan
            continue
        hi = sigma
        w = dpbtrs(factor, v, lower=1)[0]
        norm_w = math.sqrt(w @ w)
        rho = sigma - (v @ w) / norm_w ** 2
        # rounding may put rho past sigma
        lo = min(max(lo, rho), hi)
        resid = (sigma - rho) * w - v
        guess = rho + max(math.sqrt(resid @ resid) / norm_w, 0.5 * tol)
        v = w / norm_w
    return hi


def _band_norm(band):
    """Spectral norm of a symmetric band, max(lambda_max, -lambda_min), by
    Cholesky tests of its shifts (Barth, Martin & Wilkinson 1967) at trial
    points from Rayleigh quotients, or bisection's midpoints (_top_eigenvalue).

    band is the lower band, of lower bandwidth b, from _bands. It is
    scaled by an exact power of two to entries below 1 in magnitude, so no
    step overflows, and only entries some 1e-308 times smaller than the
    largest can underflow. lambda_max is found first, then one more dpbtrf,
    of lambda_max * I + M, tells whether -lambda_min can exceed it, and only
    then is lambda_max(-M) found. Each bracket starts at the largest
    diagonal entry and the Gershgorin bound, at most ||M||_inf apart, and
    stops at a width of at most 4 * eps * ||M||_inf within 51
    factorizations of O(p b^2) each, the count of plain bisection: a norm
    costs at most 2 * 51 + 1 of them, and 8 to 19 on the differences of
    k = 4 posterior draws from an ar4 truth at p = 500. Since
    ||M||_inf <= sqrt(2b + 1) * ||M||_2 for at most 2b + 1 entries in a
    row, the returned upper end of the bracket is within a relative
    4 * eps * sqrt(2b + 1) of the norm, plus the rounding of the Cholesky
    tests, of the Gershgorin bound and of the band solve behind each
    Rayleigh quotient, each O(b * eps) relative.
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
    otherwise. A general input's comes from the SVD.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("norm_spectral expects a matrix")
    if m.size == 0:
        return 0.0
    p = m.shape[0]
    if p != m.shape[1]:
        check_finite(m)
    else:
        lower, upper = _bandwidths(m)
        symmetric, bands = _symmetric_within(m, max(lower, upper), finite=True)
        if symmetric:
            if BAND_BISECTION_LIMIT * lower * lower <= p ** 3:
                band = (_bands(m, lower) if bands is None else bands)[0, :lower + 1]
                # Fortran order: _band_norm's Gershgorin row sums depend on the layout
                return _band_norm(np.asfortranarray(band))
            lo, hi = _dense_extremes(m)
            return max(-lo, hi)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _checked_norm(m, norm):
    """norm(m), 0 if m is empty, as if check_finite(m) ran first: it runs, and norm
    warns on overflow, unless m is a matrix whose norm, overflow ignored, is finite.
    A finite matrix whose sums overflow, as the Frobenius norm's squares do from
    entries near 1e154, is taken again at a power-of-two scale, as in _band_norm,
    so only a norm above the largest float overflows."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 2 and m.size:
        with np.errstate(over="ignore", invalid="ignore"):
            out = norm(m)
            if not np.isfinite(out) and np.isfinite(m).all():
                exponent = int(np.frexp(np.max(np.abs(m)))[1])
                out = np.ldexp(norm(np.ldexp(m, -exponent)), exponent)
        if np.isfinite(out):
            return float(out)
    return float(norm(check_finite(m))) if m.size else 0.0


def norm_l1(m):
    """Maximum absolute column sum."""
    return _checked_norm(m, lambda m: np.abs(m).sum(axis=0).max())


def norm_linf(m):
    """Maximum absolute row sum."""
    return _checked_norm(m, lambda m: np.abs(m).sum(axis=1).max())


def norm_fro(m):
    """Frobenius norm."""
    return _checked_norm(m, lambda m: np.sqrt((m * m).sum()))


NORMS_BY_NAME = {
    "spectral": norm_spectral,
    "l1": norm_l1,
    "linf": norm_linf,
    "fro": norm_fro,
}
