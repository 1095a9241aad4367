"""Column-wise banded least-squares regressions of a data matrix.

All moments are raw (uncentered) with divisor n: var(X_j) is the mean of
squares of column j, and the Gram blocks feeding each regression are taken
from X'X / n. At bandwidth k every regression reads only the second moments
within k of the diagonal, so the fits read them from gram_band(data, w),
w >= k: X'X / n restricted to |i - j| <= w and stored as a padded row band
whose first w rows, the identity's band, pad the missing predecessors of the
first columns. It costs O(n p (GRAM_TILE + w)) flops and O(p w) memory,
where the dense X'X / n costs O(n p^2) and O(p^2); every Gram block is a
zero-copy strided view of it (_predecessor_blocks). With the row count n it
is a GramBand, all that a fit at a bandwidth up to w reads of the data, so
every fit takes one in place of the rows, and population_coefficients fits
a covariance matrix's band. Every fit factors the blocks in one order,
nearest first, into a NestedFactor of width K, from which every bandwidth
k <= K is read: the posterior-mode grid reads every k's residual variances
and log determinants, and _regress, the one fit at a bandwidth, reads its
factor (A, d), a mcd.CholeskyFactor's band and d, from a trusted factor
shared by every k (the resampler's, through bl_banded_estimator's gram=) or
else from its own. Public column indices, as in error messages, are 1-based.
Which bandwidths the posterior admits is decided in bayes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateResidual, SingularDesign
from .linalg import _bands, _integer, _invert_lower, _solve_lower_transposed, _spd_factor
from .linalg import check_finite
from .mcd import CholeskyFactor

# a residual variance at most this fraction of its column's second moment
# counts as an exact fit
RESIDUAL_FLOOR = 1e-14
# a squared Cholesky pivot at most this fraction of its diagonal entry
# sends the batch to the column-by-column checks
PIVOT_RECHECK = 1e-10
# columns per BLAS product in gram_band
GRAM_TILE = 64
# the smallest second moment g_jj of a nonzero column that gram_band accepts
_MOMENT_FLOOR = 1.0 / (RESIDUAL_FLOOR * np.finfo(float).max)


def as_data_matrix(x):
    """Validate an n x p data matrix of finite floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"data must be a 2-D matrix, got ndim={x.ndim}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"data must be nonempty, got shape {x.shape}")
    return check_finite(x, "data")


@dataclass(frozen=True)
class GramBand:
    """The row count n of the data (np.inf for a population covariance) and
    gram_band's read-only padded row band of X'X / n."""

    n: int
    band: np.ndarray = field(repr=False)

    @property
    def width(self):
        return self.band.shape[1] // 2

    @property
    def p(self):
        return self.band.shape[0] - self.width

    @property
    def shape(self):  # the data's, as np.shape reads it
        return self.n, self.p


def gram_band(data, width):
    """GramBand of the data: X'X / n within width w of the diagonal.

    w is width clamped to p - 1. Row w + i, column w + d of the (p + w,
    2w + 1) band holds g[i, i+d] of g = X'X / n, and 0 where i + d lies
    outside 0..p-1; the first w rows hold 1 in the centre column and 0
    elsewhere, the identity's band. Raises ValueError when the moments
    overflow: when some entry of g is not finite or would not be once
    symmetrized as (g + g') / 2; and when they underflow: when a column
    with a nonzero entry has g_jj < _MOMENT_FLOOR, zero included.

    Each tile of GRAM_TILE columns c0..c1-1 takes one BLAS product
    x[:, c0:c1]' x[:, c0:c1+w]: read along its diagonals, its row c0 + a
    holds g[c0+a, c0+a+d], d = 0..w, which is band row c0 + a to the
    right of the centre and, g being symmetric, band row c0 + a + d at
    column w - d. Two strided views of the band take both halves of a tile
    in one assignment each. numpy computes a block times its own transpose
    by a symmetric rank-k update, whose rounding differs from the general
    product, so the right factor reaches at least one column past the tile
    whenever there is one: every tile but the last then takes the general
    product whatever w is, and a band's entries do not depend on its width.
    The sum g + g' overflows where an entry exceeds half the largest float,
    so no band entry may; by Cauchy-Schwarz an entry off the band exceeds
    it only where a diagonal entry does.

    The floor: every fit divides by residual variances d_j and accepts one
    only above RESIDUAL_FLOOR * g_jj, so 1 / d_j < 1 / (RESIDUAL_FLOOR *
    g_jj), at most the largest float F exactly when g_jj >= _MOMENT_FLOOR =
    1 / (RESIDUAL_FLOOR * F), about 5.6e-295 (standard normal data times
    about 1e-147). No bound on the band covers a coefficient's size, so an
    estimate of near-collinear columns can still overflow at such scales;
    mcd._dense_symmetric rejects it. Only columns below the floor are read
    again, for a nonzero entry, at most one pass over the data; an all-zero
    column is left to the fits' typed errors.
    """
    x = as_data_matrix(data)
    _integer("width", width)
    if width < 0:
        raise ValueError("band width must be nonnegative")
    return GramBand(x.shape[0], _gram_band(x, width))


def _gram_band(x, width):
    """gram_band of a validated data matrix x and a nonnegative width."""
    n, p = x.shape
    w = min(int(width), p - 1)
    band, upper, lower = _padded_band(p, w)
    # columns past a tile that its product reaches, at least one (see above)
    past = max(w, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, p, GRAM_TILE):
            c1 = min(c0 + GRAM_TILE, p)
            reach = min(c1 + past, p) - c0
            prod = np.zeros((c1 - c0, c1 - c0 + past))
            np.matmul(x[:, c0:c1].T, x[:, c0:c0 + reach], out=prod[:, :reach])
            s0, s1 = prod.strides
            diagonals = np.ndarray((c1 - c0, w + 1), buffer=prod, strides=(s0 + s1, s1))
            upper[c0:c1] = diagonals
            lower[c0:c1] = diagonals
        band = band[:p + w]
        band /= n
    if not np.all(np.abs(band) <= np.finfo(float).max / 2.0):
        raise ValueError("second moments X'X/n overflow; rescale the data")
    small = band[w:, w] < _MOMENT_FLOOR
    if small.any() and x[:, small].any():
        raise ValueError("second moments X'X/n underflow; rescale the data")
    band[:w, w] = 1.0
    band.flags.writeable = False
    return band


def _padded_band(p, w):
    """A zero padded row band of width w with w spare rows, and its two (p,
    w + 1) views whose row i, column d write g[i, i+d] to band row w + i,
    column w + d and to row w + i + d, column w - d; the spare rows, cut off
    as band[:p + w], take the second view's zeros from past the last column."""
    cols = 2 * w + 1
    band = np.zeros((p + 2 * w, cols))
    e = band.itemsize
    centre = (w * cols + w) * e
    upper = np.ndarray((p, w + 1), buffer=band, offset=centre, strides=(cols * e, e))
    lower = np.ndarray((p, w + 1), buffer=band, offset=centre,
                       strides=(cols * e, (cols - 1) * e))
    return band, upper, lower


def _rows_or_band(data):
    """data itself if it is a GramBand, else the validated data matrix."""
    return data if isinstance(data, GramBand) else as_data_matrix(data)


def _band_at(data, k):
    """The GramBand at bandwidth k of _rows_or_band's data: gram_band of the
    rows, or a GramBand viewed at width keff = min(k, p-1), the numbers of
    gram_band(rows, keff); ValueError if it is narrower than keff."""
    if not isinstance(data, GramBand):
        return GramBand(data.shape[0], _gram_band(data, k))
    keff, w = min(k, data.p - 1), data.width
    if keff > w:
        raise ValueError(f"a fit at bandwidth {k} needs gram_band(data, w) with "
                         f"w >= {keff}; got w = {w}")
    return GramBand(data.n, data.band[w - keff:, w - keff:w + keff + 1])


def _check_columns(blocks, n):
    """Name the column behind a failed or nearly singular batched factorization.

    blocks are the batch's, nearest first (_nearest_first_blocks). A
    batched factorization does not say which block failed, and near a
    singular block rounding decides whether it fails at all. So the checks
    are repeated column by column on the real Gram blocks: SingularDesign
    at the first column whose predecessor block is wider than n or cannot
    be factored and solved comes before DegenerateResidual at the first
    column that its predecessors fit exactly. Returns when neither is found.
    """
    keff = blocks.shape[1] - 1
    dhat = np.empty(len(blocks))
    for j, block in enumerate(blocks):
        kj = min(j, keff)
        if kj > n:
            raise SingularDesign(j + 1, f"{kj} predecessors from {n} rows")
        # the real predecessors, then column j, without the padded slots
        real = np.append(np.arange(kj), keff)
        block = block[real[:, None], real]
        # scaled by an even power of two, so that the solve and the Cholesky
        # factors scale exactly, to entries below 1 in magnitude: c' S^{-1} c,
        # whose terms are huge on a nearly singular S of huge entries, then
        # cannot overflow (smaller entries are left as they are)
        exponent = 2 * max(0, (int(np.frexp(np.max(np.abs(block)))[1]) + 1) // 2)
        block = np.ldexp(block, -exponent)
        shat, chat = block[:kj, :kj], block[:kj, kj]
        try:
            np.linalg.cholesky(shat)
            coef = np.linalg.solve(shat, chat)
        except np.linalg.LinAlgError:
            raise SingularDesign(j + 1) from None
        try:
            np.linalg.cholesky(block)
            dhat[j] = np.ldexp(max(block[kj, kj] - chat @ coef, 0.0), exponent)
        except np.linalg.LinAlgError:
            dhat[j] = 0.0
    bad = np.nonzero(dhat <= RESIDUAL_FLOOR * blocks[:, keff, keff])[0]
    if bad.size:
        raise DegenerateResidual(bad[0] + 1, float(dhat[bad[0]]))


def _predecessor_blocks(band, keff):
    """Read-only (p, keff+1, keff+1) view of the Gram blocks of columns j-keff, ..., j.

    band is a padded row band of width w >= keff, gram_band's layout, which
    holds g[i, c] at row w + i, column w + c - i. Entry (a, b) of column j's
    block, g[j-keff+a, j-keff+b], is then band[w-keff+j+a, w+b-a], so one
    strided view with strides (s0, s0 - s1, s1) gives every block without a
    copy. Where j-keff+a < 0 it reads the band's identity rows: the missing
    predecessors of the first columns enter as unit-variance coordinates
    uncorrelated with the rest, which leaves the real block's factor as is.
    """
    w = band.shape[1] // 2
    p = band.shape[0] - w
    s0, s1 = band.strides
    return np.lib.stride_tricks.as_strided(
        band[w - keff:, w:], (p, keff + 1, keff + 1), (s0, s0 - s1, s1), writeable=False)


def _nearest_first_blocks(band, kmax):
    """The (p, K+1, K+1) blocks of _predecessor_blocks at K = kmax in the
    order [j-1, ..., j-K, j], nearest first, the padded slots last but one."""
    order = np.append(np.arange(kmax - 1, -1, -1), kmax)
    return _predecessor_blocks(band, kmax)[:, order[:, None], order]


@dataclass(frozen=True)
class NestedFactor:
    """One factorization of every column's Gram block at width K, read at
    every bandwidth k <= K.

    The regressions on the 1, 2, ..., K nearest predecessors are nested
    (the order recursion of Levinson and Durbin, which Pourahmadi (1999)
    applied to the modified Cholesky factor). Ordered nearest first as
    [j-1, ..., j-K, j], column j's block factors as L = [[L_S, 0], [l', .]],
    and at bandwidth k

        dhat_k = g_jj - sum_{i<k} l_i^2,  logdet_k = 2 sum_{i<k} log L_S[i, i],

        a_k[r] = sum_{i<k} M[i, r] l_i,  M = L_S^{-1},

    a_k the coefficients nearest first: a_k solves L_S[:k, :k]' a = l[:k],
    and the leading block of L_S^{-1} is the inverse of L_S's leading block.
    low holds L, (p, K+1, K+1); the rows of dhat and logdet, (K + 1, p), and
    of coef, (K, p, K), are k = 0, ..., K and k = 1, ..., K. logdet, which
    only the posterior-mode grid reads, and coef, which only _regress reads
    of a shared factor, are computed on their first read. low and dhat are
    None where the Cholesky factorization failed.

    The factor is trusted when no block is wider than n and every squared
    pivot lies above PIVOT_RECHECK of its diagonal entry. The last pivot is
    dhat_K, the smallest dhat_k, so every residual variance then lies 10^4
    times above RESIDUAL_FLOOR, far beyond rounding, and no block is near
    singular. An untrusted factor's values stand where _check_columns on
    its blocks returns.
    """

    stat: GramBand
    width: int
    trusted: bool
    low: np.ndarray = field(default=None, repr=False)
    dhat: np.ndarray = field(default=None, repr=False)

    @property
    def p(self):
        return self.stat.p

    @cached_property
    def logdet(self):
        diag = np.diagonal(self.low, axis1=1, axis2=2)[:, :self.width]
        return np.vstack([np.zeros(self.p), 2.0 * np.cumsum(np.log(diag), axis=1).T])

    @cached_property
    def coef(self):
        return _nested_coefficients(self.low)


def _factor_nested(stat, kmax):
    """The NestedFactor at width kmax <= p - 1 of a GramBand at least as wide."""
    blocks = _nearest_first_blocks(stat.band, kmax)
    try:
        low = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return NestedFactor(stat=stat, width=kmax, trusted=False)
    diag = np.diagonal(low, axis1=1, axis2=2)
    trusted = bool(kmax <= stat.n and np.all(
        diag ** 2 > PIVOT_RECHECK * np.diagonal(blocks, axis1=1, axis2=2)))
    # rows k = 0, ..., kmax: g_jj less the prefix sums of l_i^2, taken down
    # the contiguous rows of l' (the sum of each column is the same in order)
    dhat = np.empty((kmax + 1, len(low)))
    dhat[0] = blocks[:, kmax, kmax]
    np.cumsum(np.square(low[:, kmax, :kmax].T), axis=0, out=dhat[1:])
    np.subtract(dhat[0], dhat[1:], out=dhat[1:])
    return NestedFactor(stat=stat, width=kmax, trusted=trusted, low=low, dhat=dhat)


def _nested_coefficients(factor):
    """coef[k-1, j, r] = a_k[r] = sum_{i<k} M[i, r] l[j, i], M = low[j]^{-1},
    for the (p, K+1, K+1) lower factors [[low, 0], [l', .]]: a_{i+1} =
    a_i + l_i M[i], added in order of i on _invert_lower's blocks-last
    (K, K, p) inverse, whose rows are contiguous, and returned as a (K, p, K) view."""
    kmax = factor.shape[1] - 1
    m = _invert_lower(factor[:, :kmax, :kmax])
    l = np.ascontiguousarray(factor[:, kmax, :kmax].T)
    coef = np.multiply(m, l[:, None, :], out=m)
    for i in range(1, kmax):
        coef[i] += coef[i - 1]
    return coef.transpose(0, 2, 1)


def _regress(stat, k, nested=None):
    """Least squares of every coordinate on its k closest predecessors.

    stat is a GramBand at least min(k, p-1) wide, k is nonnegative, and
    nested is None or a NestedFactor of stat at least keff = min(k, p-1)
    wide. Returns (ahat, dhat), banded_regression's a and d: a trusted nested
    gives views of row keff of its coefficients and dhat. Else the fit raises
    as banded_regression does, dhat is row keff of the factor at width keff
    (nested, if that wide, or factored here) and ahat one back-substitution
    on it.
    """
    keff = min(k, stat.p - 1)
    if nested is not None and nested.trusted:
        # nearest first into the band's nearest-last slots
        ahat = nested.coef[keff - 1, :, keff - 1::-1] if keff else np.zeros((stat.p, 0))
        return ahat, nested.dhat[keff]
    if nested is None or nested.width != keff:
        nested = _factor_nested(stat, keff)
    if not nested.trusted:
        # raises whenever the batched factorization failed
        _check_columns(_nearest_first_blocks(stat.band, keff), stat.n)
    dhat = nested.dhat[keff]
    bad = np.nonzero(dhat <= RESIDUAL_FLOOR * nested.dhat[0])[0]
    if bad.size:
        raise DegenerateResidual(bad[0] + 1, float(dhat[bad[0]]))
    # L_S' a = l gives the coefficients nearest first, here in a reversed view
    # that leaves them nearest last; a padded slot has l = 0 and stays 0
    ahat = np.empty((stat.p, keff))
    ahat[:, ::-1] = nested.low[:, keff, :keff]
    _solve_lower_transposed(nested.low[:, :keff, :keff], ahat[:, ::-1])
    return ahat, dhat


def _regress_nested(stat, k_values):
    """Residual variances and predecessor log determinants at several bandwidths.

    Row i of dhat and of logdet, both (len(k_values), p), holds every
    column's residual variance and the log determinant of its predecessor
    Gram block (padded slots add log 1 = 0) at bandwidth k_values[i], as
    _regress fits it. k_values are nonnegative and ascend, and the GramBand
    stat is at least min(k_values[-1], p-1) wide. One NestedFactor at the
    widest k serves every k where it is trusted; otherwise each k takes its
    own, and _regress raises its errors on that one where it is untrusted.
    Returns (dhat, logdet, err): err is None, or the error that _regress
    raised at the smallest k, and then the rows stop before that k.
    """
    keffs = np.minimum(k_values, stat.p - 1)
    nested = _factor_nested(stat, int(keffs[-1]))
    if nested.trusted:
        return nested.dhat[keffs], nested.logdet[keffs], None
    dhat, logdet = np.empty((2, len(k_values), stat.p))
    for i, k in enumerate(k_values):
        factor = nested if keffs[i] == keffs[-1] else _factor_nested(stat, int(keffs[i]))
        if not factor.trusted:
            try:
                _regress(stat, int(k), factor)
            except (SingularDesign, DegenerateResidual) as err:
                return dhat[:i], logdet[:i], err
        dhat[i], logdet[i] = factor.dhat[-1], factor.logdet[-1]
    return dhat, logdet, None


def banded_regression(data, k):
    """The sample factor CholeskyFactor(a=ahat, d=dhat) at bandwidth k: row j
    of the (p, keff) band ahat, keff = min(k, p-1), and dhat_j are the least-
    squares coefficients and divisor-n residual variance of column j on its
    min(j-1, k) closest predecessors.

    data is the n x p data matrix or a GramBand of it at least keff wide,
    from which the fit is bit for bit the one from the rows. Raises
    SingularDesign(j) when column j's predecessor block is singular, and
    DegenerateResidual(j) when column j's residual variance is at most
    RESIDUAL_FLOOR times its second moment.
    """
    data = _rows_or_band(data)
    _integer("k", k, 0)
    return CholeskyFactor(*_regress(_band_at(data, k), k))


def population_coefficients(sigma, k):
    """Banded regression coefficients implied by a covariance matrix.

    For each coordinate j, regress on the k closest predecessors under
    sigma: a_j solves sigma[Z_j, Z_j] a_j = sigma[Z_j, j], and d_j is the
    residual variance. k >= p - 1 reproduces mcd.decompose(inv(sigma)).
    Raises DegenerateResidual(j) when coordinate j is a numerically exact
    combination of its predecessors.
    """
    sigma = _spd_factor(sigma, "covariance matrix")[0]
    _integer("k", k, 0)
    p = sigma.shape[0]
    w = min(k, p - 1)
    band, upper, lower = _padded_band(p, w)
    # sigma is exactly symmetric, so its upper diagonals serve both halves
    upper[:] = lower[:] = _bands(sigma, w)[1].T
    band = band[:p + w]
    band[:w, w] = 1.0
    return CholeskyFactor(*_regress(GramBand(np.inf, band), k))
