"""Column-wise banded least-squares regressions of a data matrix.

All moments are raw (uncentered) with divisor n: var(X_j) is the mean of
squares of column j, and the Gram blocks feeding each regression are taken
from X'X / n. Column indices in the public API are 1-based, matching the
math convention for ordered coordinates; error messages use the same
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


def _predecessor_blocks(g, keff):
    """Read-only (p, keff+1, keff+1) view of the Gram blocks of columns j-keff, ..., j.

    Copied into the lower-right corner of an identity of order p + keff, g
    holds the Gram block of columns j-keff, ..., j in the diagonal window
    at offset j, so one strided view gives every block without a gather.
    The leading identity pads the missing predecessors of the first columns
    as unit-variance coordinates uncorrelated with the rest, which leaves
    the real block's factor as is.
    """
    p = g.shape[0]
    padded = np.eye(p + keff)
    padded[keff:, keff:] = g
    s0, s1 = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, (p, keff + 1, keff + 1), (s0 + s1, s0, s1), writeable=False)


def _regress(g, k, n):
    """Least squares of every coordinate of g on its k closest predecessors.

    g is a second-moment matrix built from n rows (np.inf for a population
    covariance). Raises as banded_regression does, for coordinates of g.
    """
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    p = g.shape[0]
    keff = min(k, p - 1)
    blocks = _predecessor_blocks(g, keff)
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
    bad = np.nonzero(dhat <= RESIDUAL_FLOOR * np.diagonal(g))[0]
    if bad.size:
        raise DegenerateResidual(bad[0] + 1, float(dhat[bad[0]]))
    return BandedRegressionStats(n=n, p=p, kj=np.minimum(np.arange(p), keff), dhat=dhat,
                                 ahat=ahat, shat_chol=shat_chol)


def _regress_nested(g, k_values, n):
    """Residual variances and predecessor log determinants at several bandwidths.

    Row i of dhat and of logdet, both (len(k_values), p), holds what
    _regress(g, k_values[i], n) gives every column, up to rounding: its
    residual variance and the log determinant of its predecessor Gram block
    (padded slots add log 1 = 0). k_values ascend.

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
    if min(k_values) < 0:
        raise ValueError("bandwidth k must be nonnegative")
    p = g.shape[0]
    keffs = np.minimum(k_values, p - 1)
    kmax = int(keffs[-1])
    order = np.append(np.arange(kmax - 1, -1, -1), kmax)
    blocks = _predecessor_blocks(g, kmax)[:, order[:, None], order]
    try:
        low = np.linalg.cholesky(blocks)
        diag = np.diagonal(low, axis1=1, axis2=2)
        trusted = kmax <= n and np.all(
            diag ** 2 > PIVOT_RECHECK * np.diagonal(blocks, axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        trusted = False
    if trusted:
        gjj = np.diagonal(g)
        # rows k = 0, ..., kmax
        dhat = np.vstack([gjj, gjj - np.cumsum(low[:, kmax, :kmax] ** 2, axis=1).T])
        logdet = np.vstack([np.zeros(p), 2.0 * np.cumsum(np.log(diag[:, :kmax]), axis=1).T])
        return dhat[keffs], logdet[keffs], None
    dhat = np.empty((len(k_values), p))
    logdet = np.empty((len(k_values), p))
    for i, k in enumerate(k_values):
        try:
            st = _regress(g, int(k), n)
        except (SingularDesign, DegenerateResidual) as err:
            return dhat[:i], logdet[:i], err
        dhat[i] = st.dhat
        logdet[i] = 2.0 * np.sum(np.log(np.diagonal(st.shat_chol, axis1=1, axis2=2)), axis=1)
    return dhat, logdet, None


def banded_regression(data, k, gram=None):
    """Least-squares fit of every column on its k closest predecessors.

    A precomputed gram_matrix(data) can be passed to share work across
    bandwidths. Raises SingularDesign(j) when column j's predecessor block
    is singular, and DegenerateResidual(j) when column j's residual
    variance is at most RESIDUAL_FLOOR times its second moment.
    """
    x = as_data_matrix(data)
    return _regress(gram_matrix(x) if gram is None else gram, k, x.shape[0])
