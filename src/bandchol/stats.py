"""Column-wise banded least-squares regressions of a data matrix.

All moments are raw (uncentered) with divisor n: var(X_j) is the mean of
squares of column j, and the Gram blocks feeding each regression are taken
from X'X / n. At bandwidth k every regression reads only the second
moments within k of the diagonal, so the fits read them from
gram_band(data, w), w >= k: X'X / n restricted to |i - j| <= w and stored
as a padded row band of shape (p + w, 2w + 1). Row w + i, column w + d
holds g[i, i+d] (zero where i + d falls outside the matrix), and the first
w rows hold the identity's band, which pads the missing predecessors of
the first columns. The band costs O(n p (GRAM_TILE + w)) flops and
O(p w) memory, where the dense gram_matrix costs O(n p^2) and O(p^2);
every Gram block is a zero-copy strided view of it (_predecessor_blocks).
Each public gram= argument takes such a band, at least as wide as the
bandwidth it fits. Column indices in the public API are 1-based, matching
the math convention for ordered coordinates; error messages use the same
numbering. Which bandwidths the posterior admits is decided in bayes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateResidual, SingularDesign
from .linalg import _solve_lower_transposed

# a residual variance at most this fraction of its column's second moment
# counts as an exact fit
RESIDUAL_FLOOR = 1e-14
# a squared Cholesky pivot at most this fraction of its diagonal entry
# sends the batch to the column-by-column checks
PIVOT_RECHECK = 1e-10
# columns per BLAS product in gram_band
GRAM_TILE = 64


def as_data_matrix(x):
    """Validate an n x p data matrix of finite floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"data must be a 2-D matrix, got ndim={x.ndim}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"data must be nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite entries")
    return x


def gram_matrix(x):
    """Raw second-moment matrix X'X / n; ValueError when it overflows."""
    x = as_data_matrix(x)
    # checked after the symmetrization, whose sum can overflow too
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.T @ x / x.shape[0]
        g = (g + g.T) / 2.0
    if not np.all(np.isfinite(g)):
        raise ValueError("second moments X'X/n overflow; rescale the data")
    return g


def gram_band(data, width):
    """X'X / n within width w of the diagonal, as a read-only padded row band.

    w is width clamped to p - 1. Row w + i, column w + d of the (p + w,
    2w + 1) result holds g[i, i+d] of g = X'X / n, and 0 where i + d lies
    outside 0..p-1; the first w rows hold 1 in the centre column and 0
    elsewhere, the identity's band. Raises gram_matrix's ValueError when
    the moments overflow.

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
    gram_matrix checks its symmetrization g + g' for overflow, so no entry
    may exceed half the largest float; by Cauchy-Schwarz an entry off the
    band exceeds it only where a diagonal entry does.
    """
    x = as_data_matrix(data)
    if width < 0:
        raise ValueError("band width must be nonnegative")
    n, p = x.shape
    w = min(int(width), p - 1)
    cols = 2 * w + 1
    # w spare rows below take the lower half's zeros from past the last column
    band = np.zeros((p + 2 * w, cols))
    e = band.itemsize
    centre = (w * cols + w) * e
    upper = np.ndarray((p, w + 1), buffer=band, offset=centre, strides=(cols * e, e))
    lower = np.ndarray((p, w + 1), buffer=band, offset=centre,
                       strides=(cols * e, (cols - 1) * e))
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
    band[:w, w] = 1.0
    band.flags.writeable = False
    return band


def _dense_to_band(m, w):
    """The padded row band of width w, gram_band's layout, of a dense symmetric
    matrix m, in O(p w)."""
    p = m.shape[0]
    band = np.zeros((p + w, 2 * w + 1))
    band[:w, w] = 1.0
    rows, offsets = np.indices((p, 2 * w + 1))
    cols = rows + offsets - w
    inside = (cols >= 0) & (cols < p)
    band[w:][inside] = m[rows[inside], cols[inside]]
    return band


def _checked_band(gram, p, keff):
    """A gram= argument as gram_band(data, w) of data with p columns, w >= keff.

    ValueError for anything else, such as the dense gram_matrix, a band of
    data with another number of columns, or a band narrower than keff.
    """
    gram = np.ascontiguousarray(gram, dtype=float)
    w = (gram.shape[-1] - 1) // 2 if gram.ndim == 2 else -1
    if gram.shape != (p + w, 2 * w + 1) or not keff <= w <= p - 1:
        raise ValueError(
            f"gram must be gram_band(data, w) of the data's {p} columns with w >= {keff}, "
            f"a ({p} + w, 2w + 1) band; got shape {gram.shape}")
    return gram


@dataclass
class BandedRegressionStats:
    """Per-column least-squares statistics at a common bandwidth k.

    Column j (1-based) regresses on its kj[j-1] = min(j-1, k) closest
    predecessors. Banded arrays are indexed 0-based by column and hold
    keff = min(k, p-1) slots for the predecessors j-keff, ..., j-1, of
    which the trailing kj are real: ahat (p, keff) holds the coefficients
    and is zero in the padded slots, the band layout of mcd.CholeskyFactor,
    and shat_chol (p, keff, keff) holds
    the lower Cholesky factors of the predecessor Gram blocks, padded with
    the identity.
    """

    n: int
    p: int
    kj: np.ndarray
    dhat: np.ndarray
    ahat: np.ndarray = field(repr=False)
    shat_chol: np.ndarray = field(repr=False)


def _check_columns(blocks, n):
    """Name the column behind a failed or nearly singular batched factorization.

    A batched factorization does not say which block failed, and near a
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
        lo = keff - kj
        # scaled by an even power of two, so that the solve and the Cholesky
        # factors scale exactly, to real entries below 1 in magnitude:
        # c' S^{-1} c, whose terms are huge on a nearly singular S of huge
        # entries, then cannot overflow (smaller entries are left as they are)
        exponent = 2 * max(0, (int(np.frexp(np.max(np.abs(block[lo:, lo:])))[1]) + 1) // 2)
        block = np.ldexp(block, -exponent)
        shat, chat = block[lo:keff, lo:keff], block[lo:keff, keff]
        try:
            np.linalg.cholesky(shat)
            coef = np.linalg.solve(shat, chat)
        except np.linalg.LinAlgError:
            raise SingularDesign(j + 1) from None
        try:
            np.linalg.cholesky(block)
            dhat[j] = np.ldexp(max(block[keff, keff] - chat @ coef, 0.0), exponent)
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


def _regress(band, k, n):
    """Least squares of every coordinate on its k closest predecessors.

    band holds the second moments as a padded row band of width at least
    min(k, p-1) (gram_band's layout), built from n rows (np.inf for a
    population covariance). k is nonnegative. Raises as banded_regression does.
    """
    w = band.shape[1] // 2
    p = band.shape[0] - w
    keff = min(k, p - 1)
    blocks = _predecessor_blocks(band, keff)
    try:
        low = np.linalg.cholesky(blocks)
        pivots = np.diagonal(low, axis1=1, axis2=2) ** 2
        # blocks wider than n are singular, whatever rounding lets through
        recheck = keff > n or np.any(
            pivots <= PIVOT_RECHECK * np.diagonal(blocks, axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        recheck = True
    if recheck:
        # raises whenever the batched factorization failed
        _check_columns(blocks, n)

    # with L the factor of [[S, c], [c', v]]: S = L_S L_S' and the last row
    # is (l', sqrt(v - c' S^{-1} c)) with l = L_S^{-1} c, so ahat solves
    # L_S' ahat = l; a padded slot has l = 0 and keeps a zero coefficient
    shat_chol = low[:, :keff, :keff].copy()
    ahat = _solve_lower_transposed(shat_chol, low[:, keff, :keff].copy())
    dhat = pivots[:, keff]
    bad = np.nonzero(dhat <= RESIDUAL_FLOOR * band[w:, w])[0]
    if bad.size:
        raise DegenerateResidual(bad[0] + 1, float(dhat[bad[0]]))
    return BandedRegressionStats(n=n, p=p, kj=np.minimum(np.arange(p), keff), dhat=dhat,
                                 ahat=ahat, shat_chol=shat_chol)


def _regress_nested(band, k_values, n):
    """Residual variances and predecessor log determinants at several bandwidths.

    Row i of dhat and of logdet, both (len(k_values), p), holds what
    _regress(band, k_values[i], n) gives every column, up to rounding: its
    residual variance and the log determinant of its predecessor Gram block
    (padded slots add log 1 = 0). k_values are nonnegative and ascend,
    and band is at least min(k_values[-1], p-1) wide.

    The regressions on the 1, 2, ..., K nearest predecessors are nested
    (the order recursion of Levinson and Durbin, which Pourahmadi (1999)
    applied to the modified Cholesky factor), so one factorization serves
    every k <= K. Ordered nearest first as [j-1, ..., j-K, j], column j's
    block factors as L = [[L_S, 0], [l', .]], and at bandwidth k

        dhat_k = g_jj - sum_{i<k} l_i^2,  logdet_k = 2 sum_{i<k} log L_S[i, i].

    These values stand only where no block is wider than n and every squared
    pivot lies above PIVOT_RECHECK of its diagonal entry. The last pivot is
    dhat_K, the smallest dhat_k, so every residual variance then lies 10^4
    times above RESIDUAL_FLOOR, far beyond the rounding of either order, and
    no block is near singular. Otherwise _regress runs at each k in turn,
    which gives its values and raises its errors. Returns (dhat, logdet,
    err): err is None, or the error that _regress raised at the smallest k,
    and then the rows stop before that k.
    """
    w = band.shape[1] // 2
    p = band.shape[0] - w
    keffs = np.minimum(k_values, p - 1)
    kmax = int(keffs[-1])
    order = np.append(np.arange(kmax - 1, -1, -1), kmax)
    blocks = _predecessor_blocks(band, kmax)[:, order[:, None], order]
    try:
        low = np.linalg.cholesky(blocks)
        diag = np.diagonal(low, axis1=1, axis2=2)
        trusted = kmax <= n and np.all(
            diag ** 2 > PIVOT_RECHECK * np.diagonal(blocks, axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        trusted = False
    if trusted:
        gjj = band[w:, w]
        # rows k = 0, ..., kmax
        dhat = np.vstack([gjj, gjj - np.cumsum(low[:, kmax, :kmax] ** 2, axis=1).T])
        logdet = np.vstack([np.zeros(p), 2.0 * np.cumsum(np.log(diag[:, :kmax]), axis=1).T])
        return dhat[keffs], logdet[keffs], None
    dhat = np.empty((len(k_values), p))
    logdet = np.empty((len(k_values), p))
    for i, k in enumerate(k_values):
        try:
            st = _regress(band, int(k), n)
        except (SingularDesign, DegenerateResidual) as err:
            return dhat[:i], logdet[:i], err
        dhat[i] = st.dhat
        logdet[i] = 2.0 * np.sum(np.log(np.diagonal(st.shat_chol, axis1=1, axis2=2)), axis=1)
    return dhat, logdet, None


def banded_regression(data, k, gram=None):
    """Least-squares fit of every column on its k closest predecessors.

    gram may be gram_band(data, w) with w >= min(k, p-1), computed once to
    share work across bandwidths; the fit is then bit-identical to the one
    without it. Raises SingularDesign(j) when column j's predecessor block
    is singular, and DegenerateResidual(j) when column j's residual
    variance is at most RESIDUAL_FLOOR times its second moment.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    band = gram_band(x, k) if gram is None else _checked_band(gram, p, min(k, p - 1))
    return _regress(band, k, n)
