"""Matrix norms, the symmetry check, and the SPD factorization.

All functions accept anything convertible to a float ndarray and reject
non-finite entries in one pass: one reduction in check_finite, and none in
norm_l1, norm_linf and norm_fro unless the norm is not finite. _band_read
is the one reader of a square matrix's band: a forward scan for each row's
first nonzero finds the lower bandwidth, and the band is read once
(_bands) when it is narrow and holds every nonzero entry. is_symmetric and
norm_spectral share that read (_symmetric), which checks symmetry in
relative terms against the largest entry magnitude on the band's diagonals,
or by the dense formula for any other matrix; a matrix whose largest
magnitude is infinite or NaN is not symmetric, and no entries are
subtracted to say so. In norm_spectral the same read gives the check for
non-finite entries and the band it searches. _minus_within reads a
truth's band the same way and subtracts it, on that band alone, from
matrices that vanish off it, as bayes.estimate_p_loss does for each draw.
stats.population_coefficients reads a covariance matrix's band through
_bands. Inputs are dense matrices.
norm_spectral brackets the extreme eigenvalues of a narrow symmetric band by
Cholesky factorizations of its shifts, O(p b^2) each, starting from the
Ritz pairs of a few Lanczos steps, O(p b) each, at trial points that the
Rayleigh quotients of inverse iteration steps on the same factors guide,
in at most as many factorizations as plain bisection. The norm of a wide
symmetric matrix comes from one Householder reduction to tridiagonal form,
O(p^3), and a bisection of the tridiagonal for its two extreme eigenvalues
only; that of a general matrix is its largest singular value from the SVD.

_spd_factor is the one step that validates and factors an SPD input,
_solve_lower_transposed the one back-substitution on a stack of padded
band factors, shared by stats._regress (nearest first) and the sampler,
and _invert_lower the one inversion of a stack of triangular factors,
shared by stats._nested_coefficients and mcd._add_block_inverses (the
posterior mean). Both step through the k slots on blocks-last copies, the
p factors along the last, contiguous axis; the inverse keeps that layout.
"""

import math
import numbers

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstebz, dsytrd, dsytrd_lwork

from .errors import SingularMatrix

SYM_TOL = 1e-12
# norm_spectral searches a symmetric matrix of order p and lower bandwidth
# b on its band (_band_norm) when BAND_BISECTION_LIMIT * b^2 <= p^3, and
# takes _dense_extremes otherwise. Timed against each other by
# tools/norm_sweep.py (one thread, 2-core Xeon at 2.0 GHz, medians over
# seven random bands, best of three calls each, ms, band search/dense):
#   p = 50:   b = 0   0.003/0.048  b = 1   0.166/0.081  b = 4   0.177/0.092
#   p = 100:  b = 4   0.262/0.316  b = 6   0.263/0.307  b = 8   0.320/0.306
#   p = 200:  b = 8   0.442/1.12   b = 16  0.506/1.13   b = 32  0.736/1.11
#   p = 300:  b = 16  0.746/2.71   b = 32  0.866/2.79   b = 64  1.71/2.97
#   p = 500:  b = 40  1.74/10.1    b = 80  2.93/10.0    b = 160 6.30/9.98
#   p = 700:  b = 80  4.07/25.6    b = 160 8.18/24.9    b = 320 24.3/24.8
#   p = 1000: b = 128 9.52/82.8    b = 256 24.0/81.9    b = 512 76.2/82.1
# The search's even point lies at b = 7 at p = 100, where the limit puts it,
# and grows faster than p^1.5: past b = 32 at p = 200 and b = 160 at
# p = 500, about b = 320 at p = 700, past b = 512 at p = 1000. At p = 50
# the dense routine is faster from b = 1 on, by under 0.1 ms. The widest
# band searched is b = 2, 7, 20, 36, 79, 130, 223 at p = 50, 100, 200, 300,
# 500, 700, 1000.
BAND_BISECTION_LIMIT = 20_000
# factorizations at most per extreme eigenvalue in _top_eigenvalue
BISECTION_STEPS = 51
# the Ritz pairs that start each band search of lower bandwidth b come from
# LANCZOS_STEPS + b // 2 Lanczos steps, O(p b) each, a few trials' worth of
# factorizations, O(p b^2) each
LANCZOS_STEPS = 6
# the symmetry test reads only the 2b + 1 in-band diagonals (_bands) of a
# matrix whose lower bandwidth b has SYM_SCAN_RATIO * b <= p and no nonzero
# above its band, and takes the dense formula over all p^2 entries otherwise
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
    return _symmetric(m, _band_read(m)[1])


def _band_read(m):
    """The lower bandwidth b of a square m, the largest i - j over its
    nonzero entries m[i, j] and 0 when there are none, and _bands(m, b) when
    that band is narrow, SYM_SCAN_RATIO * b <= p, and holds every nonzero
    entry of m, else None. NaN and infinities count as nonzero.

    b comes from each row's first nonzero, a forward scan that stops there,
    and is p - 1, with no scan, when the bottom-left entry is nonzero. The band
    holds every nonzero entry when its diagonals hold as many as m does. A
    matrix with a nonzero above its lower band is symmetric to tolerance at
    best, so it takes the dense formula."""
    p = m.shape[0]
    if not p:
        return 0, None
    if p > 1 and m[-1, 0] != 0:
        return p - 1, None
    mask = m != 0
    idx = np.arange(p)
    first = np.argmax(mask, axis=1)
    b = int(np.max((idx - first)[mask[idx, first]], initial=0))
    if SYM_SCAN_RATIO * b > p:
        return b, None
    bands = _bands(m, b)
    # the diagonal is in both halves
    inside = np.count_nonzero(bands) - np.count_nonzero(bands[1, 0])
    return b, bands if inside == np.count_nonzero(mask) else None


def _skewed(m, w):
    """The (p - 2w, 2w + 1) view of a square m, 2w < p, whose row i is
    m[w + i, i:i + 2w + 1]: the rows of its band within w of the diagonal
    that the matrix does not cut off, one strided view for any layout."""
    p = m.shape[0]
    row, col = m.strides
    return np.lib.stride_tricks.as_strided(m[w:], (p - 2 * w, 2 * w + 1), (row + col, col))


def _minus_within(m0, w):
    """The function m -> (m -= m0), in place, for square m of m0's order that
    are +0 more than w diagonals off the main one. When m0's band holds its
    every nonzero entry (_band_read), m0 is +-0 more than v = max(w, b0)
    diagonals off, b0 its lower bandwidth, and a narrow band,
    SYM_SCAN_RATIO * v <= p, is copied out of m0 once, its uncut rows
    through _skewed and its v x 2v corners whole, and subtracted from each m
    in O(p v); every entry left out is +0 - (+-0) = +0, which m already
    holds. Any other m0 is subtracted whole."""
    p = m0.shape[0]
    b0, bands = _band_read(m0)
    w = max(w, b0)
    if bands is None or SYM_SCAN_RATIO * w > p:
        return lambda m: np.subtract(m, m0, out=m)
    rows = _skewed(m0, w).copy()
    top, bottom = m0[:w, :2 * w].copy(), m0[p - w:, p - 2 * w:].copy()

    def subtract(m):
        _skewed(m, w)[...] -= rows
        m[:w, :2 * w] -= top
        m[p - w:, p - 2 * w:] -= bottom
        return m

    return subtract


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


def _symmetric(m, bands, finite=False):
    """is_symmetric for a square m whose _band_read gave bands: tested on
    them in O(p b), as m and m.T are both exactly zero off them, or, for
    None, by the dense formula. A non-finite entry fails both tests, or,
    with finite, raises check_finite's ValueError before any arithmetic."""
    entries = m if bands is None else bands
    if finite:
        check_finite(entries)
    lower, upper = (m, m.T) if bands is None else bands
    scale = np.max(np.abs(entries), initial=0.0)
    # an infinite or NaN scale fails before inf - inf can warn
    return np.isfinite(scale) and (
        scale == 0.0 or np.max(np.abs(lower - upper)) <= SYM_TOL * scale)


def _spd_factor(m, name="matrix"):
    """Validate a symmetric positive definite matrix and factor it.

    Returns the exactly symmetrized copy of m and its lower Cholesky factor.
    An empty m is rejected. Symmetry is required up to relative tolerance
    SYM_TOL. Positive definiteness is established by the factorization,
    which fails, raising SingularMatrix, exactly when the smallest
    eigenvalue is not positive.
    """
    m = check_finite(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{name} is empty")
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
    """The inverses M = L^{-1} of (p, k, k) lower triangular factors L, as a
    blocks-last (k, k, p) array: M[i] = (e_i - L[i, :i] M[:i]) / L[i, i] for
    all factors at once, one contraction over contiguous p-long rows per i."""
    low = np.ascontiguousarray(low.transpose(1, 2, 0))
    m = np.zeros(low.shape)
    for i in range(low.shape[0]):
        row = m[i, :i + 1]
        row[i] = 1.0
        row[:i] -= np.einsum("sc,src->rc", low[i, :i], m[:i, :i])
        row /= low[i, i]
    return m


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _ritz_pairs(band, tol):
    """The extreme Ritz pairs of LANCZOS_STEPS + b // 2 Lanczos steps on the
    symmetric band M (the lower band of _bands, Fortran order), from the
    constant unit vector. For M and for -M in turn: the unit Ritz vector y,
    the Rayleigh quotient rho at y, the residual r = ||(+-M) y - rho y||,
    and the next Ritz value, an estimate of the second eigenvalue from
    below (nan after one step). Each step is one band product, O(p b); a
    step whose next vector is shorter than tol ends the run, as the Krylov
    space is then invariant. rho is the Rayleigh quotient of y itself, so it
    bounds lambda_max from below however far the basis strays from
    orthogonality, and some eigenvalue lies within r of it."""
    b, p = band.shape[0] - 1, band.shape[1]
    basis = np.empty((min(LANCZOS_STEPS + b // 2, p) + 1, p))
    basis[0] = p ** -0.5
    alpha, beta = [], [0.0]
    # w holds the previous basis vector, which the band product scales and
    # subtracts: w = M q - beta w
    w = np.zeros(p)
    for q, after in zip(basis, basis[1:]):
        dsbmv(b, 1.0, band, q, beta=-beta[-1], y=w, lower=1, overwrite_y=1)
        alpha.append(q @ w)
        w -= alpha[-1] * q
        beta.append(math.sqrt(w @ w))
        if beta[-1] <= tol:
            break
        np.divide(w, beta[-1], out=after)
        w[...] = q
    steps = len(alpha)
    vals, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[1:steps], 1), UPLO="U")
    pairs = []
    for sign, s, below in ((1.0, vecs[:, -1], vals[-2:-1]), (-1.0, vecs[:, 0], -vals[1:2])):
        y = s @ basis[:steps]
        y /= math.sqrt(y @ y)
        my = dsbmv(b, sign, band, y, lower=1)
        rho = y @ my
        my -= rho * y
        pairs.append((y, rho, math.sqrt(my @ my), below[0] if steps > 1 else math.nan))
    return pairs


def _halvings(width, tol, twice_delta):
    """Midpoints that bring a bracket this wide to at most tol (_top_eigenvalue)."""
    if width <= tol:
        return 0
    return math.ceil(math.log2((width - twice_delta) / (tol - twice_delta)))


def _guesses(rho, r, below, tol):
    """Two trial points just above lambda_max(A), from a unit vector with
    Rayleigh quotient rho and residual r, and below, an estimate of the next
    eigenvalue lambda_2 (nan for none): rho plus four times r^2 / (rho -
    below), Temple's bound on lambda_max - rho had below been lambda_2, with
    room for below to lie under lambda_2, as a Ritz value does; and rho plus
    r, within which some eigenvalue lies. The first is no further than the
    second, and each at least tol / 2 above rho."""
    temple = 4.0 * r * r / (rho - below) if rho > below else r
    return rho + max(min(temple, r), 0.5 * tol), rho + max(r, 0.5 * tol)


def _top_eigenvalue(minus_band, lo, hi, tol, start):
    """Narrow lo <= lambda_max(A) <= hi down to a width of at most tol, in at
    most BISECTION_STEPS factorizations, and return the upper end.

    minus_band is -A in the storage of _bands; lo, hi and hi - lo are at
    most ||A||_inf = tol / (4 eps) in magnitude. sigma * I - A has a Cholesky
    factor exactly when sigma > lambda_max(A), so a dpbtrf at a trial point
    sigma moves one end of the bracket to it. start holds a unit Ritz vector
    v of A, its Rayleigh quotient rho, already in lo, its residual r and
    below, an estimate of the second eigenvalue lambda_2 (_ritz_pairs).

    Each factor also makes a step of inverse iteration: one dpbtrs solves
    (sigma I - A) w = v. The Rayleigh quotient rho = sigma - v'w / w'w of A
    at w is a lower bound on lambda_max and raises lo, and as
    (sigma I - A) w = v, some eigenvalue lies within
    r = ||(sigma - rho) w - v|| / ||w|| of rho; v becomes w / ||w||. The next
    trial is the nearer of two guesses (_guesses): rho plus Temple's bound
    from below, four times r^2 / (rho - below), or rho + r. As v turns
    toward the top eigenvector, rho tends to lambda_max and r to 0. A failed
    trial raises lo; the next is then rho + r, and the quotient stands in
    for below from then on.

    A rounded midpoint is off by at most delta = eps/2 * max(|lo|, |hi|), so
    j midpoints leave a width of at most 2 delta + 2^-j (width - 2 delta),
    at most tol from j = ceil(log2((width - 2 delta) / (tol - 2 delta))) on
    (_halvings). That count is at most 51 for the first bracket, never
    grows, and drops by one at each midpoint. After n factorizations the
    remaining 50 - n after the next one can bisect any bracket up to
    reach = 2^(50 - n) (tol - 2 delta) + 2 delta wide. So the guess is moved
    toward the midpoint just far enough that either outcome leaves a bracket
    within reach, into [hi - reach, lo + reach], and the trial is the
    midpoint when the guess lies outside the bracket, as after a failed
    trial, or rounding leaves one side past reach. Each trial so keeps the
    factorizations made plus the count at most BISECTION_STEPS = 51, the
    bound of plain bisection. The first bracket leaves little room, but a
    guess moved into it still leaves the rest enough to bisect whichever way
    it goes; the first trial, just above the Ritz value, usually succeeds,
    and then the bracket is as narrow as the Ritz residual and later
    guesses move freely.
    """
    eps = np.finfo(float).eps
    work = np.empty_like(minus_band, order="F")
    v, rho, r, below = start
    guess, fallback = _guesses(rho, r, below, tol)
    w, resid = np.empty((len(v), 1)), np.empty(len(v))
    used = 0
    while hi - lo > tol:
        twice_delta = eps * max(abs(lo), abs(hi))
        # the factorizations left after this one bisect any bracket up to reach wide
        left = BISECTION_STEPS - used - 1
        reach = 2.0 ** left * (tol - twice_delta) + twice_delta
        sigma = 0.5 * (lo + hi)
        if lo < guess < hi:
            trial = min(max(guess, hi - reach), lo + reach)
            if max(_halvings(trial - lo, tol, twice_delta),
                   _halvings(hi - trial, tol, twice_delta)) <= left:
                sigma = trial
        work[...] = minus_band
        work[0] += sigma
        used += 1
        factor, info = dpbtrf(work, lower=1, overwrite_ab=1)
        if info:
            # below was too low an estimate of lambda_2, so the quotient now
            # stands in for it: later guesses take the quotient's rise since
            # then as the gap. The next trial is rho + r
            lo, guess, fallback, below = sigma, fallback, math.nan, rho
            continue
        hi = sigma
        if hi - lo <= tol:
            break
        w[:, 0] = v
        dpbtrs(factor, w, lower=1, overwrite_b=1)
        x = w[:, 0]
        norm_w = math.sqrt(x @ x)
        rho = sigma - (v @ x) / norm_w ** 2
        # rounding may put rho past sigma
        lo = min(max(lo, rho), hi)
        np.multiply(x, sigma - rho, out=resid)
        resid -= v
        r = math.sqrt(resid @ resid) / norm_w
        guess, fallback = _guesses(rho, r, below, tol)
        v = x / norm_w
    return hi


def _band_norm(band):
    """Spectral norm of a symmetric band, max(lambda_max, -lambda_min), by
    Cholesky tests of its shifts (Barth, Martin & Wilkinson 1967) at trial
    points from Rayleigh quotients, or bisection's midpoints (_top_eigenvalue).

    band is the lower band, of lower bandwidth b, from _bands, in any
    memory order; the norm of a diagonal one, b = 0, is its largest entry
    magnitude. Any other is scaled, into a Fortran-ordered copy, by an
    exact power of two to entries below 1 in magnitude, so no step
    overflows, and only entries some 1e-308 times smaller than the largest
    can underflow. A few Lanczos steps (_ritz_pairs) give a Ritz
    pair at each end of the spectrum; the end whose Rayleigh quotient, of M
    or of -M, is the larger is searched first, then one more dpbtrf tells
    whether the other end can exceed it, and only then is the other one
    searched. Each bracket starts at the larger of its Rayleigh quotient and
    the largest diagonal entry, with the Gershgorin bound at most ||M||_inf
    above that entry, and stops at a width of at most 4 * eps * ||M||_inf
    within 51 factorizations of O(p b^2) each, the count of plain bisection:
    a norm costs at most 2 * 51 + 1 of them. On the differences of k = 4
    posterior draws from an ar4 truth at p = 500 it costs 5 to 6 (quartiles
    over 200 draws) and at most 12, on random bands with b up to 64 at p =
    100 to 1000 4 to 6 and at most 15 (tools/norm_sweep.py). Since
    ||M||_inf <= sqrt(2b + 1) * ||M||_2 for at most 2b + 1 entries in a
    row, the returned upper end of the bracket is within a relative
    4 * eps * sqrt(2b + 1) of the norm, plus the rounding of the Cholesky
    tests, of the Gershgorin bound and of the band products and solves
    behind each Rayleigh quotient, each O(b * eps) relative.
    """
    peak = np.max(np.abs(band))
    if peak == 0.0 or band.shape[0] == 1:
        # a diagonal matrix's norm is its largest entry magnitude
        return float(peak)
    exponent = int(np.frexp(peak)[1])
    band = np.ldexp(band, -exponent, order="F")
    b, p = band.shape[0] - 1, band.shape[1]
    # row sums of |M|: row i holds diagonal -d at band[d, i - d] and, by
    # symmetry, diagonal d at band[d, i]
    mags = np.abs(band)
    rows = mags.sum(axis=0)
    for d in range(1, b + 1):
        rows[d:] += mags[d, :p - d]
    diag = band[0]
    radius = rows - mags[0]
    tol = 4.0 * np.finfo(float).eps * np.max(rows)
    top, bottom = _ritz_pairs(band, tol)
    # lambda_max of M and of -M: minus the matrix searched, the bracket and
    # the start, the larger Rayleigh quotient first
    ends = [(-band, max(np.max(diag), top[1]), np.max(diag + radius), top),
            (band, max(-np.min(diag), bottom[1]), np.max(radius - diag), bottom)]
    if bottom[1] > top[1]:
        ends.reverse()
    (minus, lo, hi, start), (other, other_lo, other_hi, other_start) = ends
    first = _top_eigenvalue(minus, min(lo, hi), hi, tol, start)
    shifted = np.array(other, order="F")
    shifted[0] += first
    if dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0:
        # first * I minus the other end's matrix is positive definite
        return float(np.ldexp(first, exponent))
    second = _top_eigenvalue(other, min(max(first, other_lo), other_hi), other_hi, tol,
                             other_start)
    return float(np.ldexp(max(first, second), exponent))


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
        b, bands = _band_read(m)
        if _symmetric(m, bands, finite=True):
            if BAND_BISECTION_LIMIT * b * b <= p ** 3:
                return _band_norm((_bands(m, b) if bands is None else bands)[0])
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
