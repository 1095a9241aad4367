"""Column-wise banded regression statistics of a data matrix.

All moments are raw (uncentered) with divisor n: var(X_j) is the mean of
squares of column j, and the Gram blocks feeding each regression are taken
from X'X / n. Column indices in the public API are 1-based, matching the
math convention for ordered coordinates; error messages use the same
numbering.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateResidual, SingularDesign

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
    """Raw second-moment matrix X'X / n."""
    x = as_data_matrix(x)
    g = x.T @ x / x.shape[0]
    return (g + g.T) / 2.0


def _band_to_lower(band):
    """Scatter a (p, keff) band array into a strictly lower p x p matrix.

    Row j of the band holds the entries of columns j-keff, ..., j-1; slots
    left of the first column are dropped.
    """
    p, keff = band.shape
    rows = np.arange(p)[:, None].repeat(keff, axis=1)
    cols = rows - keff + np.arange(keff)
    real = cols >= 0
    out = np.zeros((p, p))
    out[rows[real], cols[real]] = band[real]
    return out


@dataclass
class BandedRegressionStats:
    """Per-column least-squares statistics at a common bandwidth k.

    Column j (1-based) regresses on its kj[j-1] = min(j-1, k) closest
    predecessors. Banded arrays are indexed 0-based by column and hold
    keff = min(k, p-1) slots for the predecessors j-keff, ..., j-1, of
    which the trailing kj are real: ahat (p, keff) holds the coefficients
    and is zero in the padded slots, and shat_chol (p, keff, keff) holds
    the lower Cholesky factors of the predecessor Gram blocks, padded with
    the identity. nj = n + nu0 - kj - 4 is the posterior degrees-of-
    freedom vector used downstream.
    """

    n: int
    p: int
    k: int
    nu0: float
    kj: np.ndarray
    dhat: np.ndarray
    nj: np.ndarray
    ahat: np.ndarray = field(repr=False)
    shat_chol: np.ndarray = field(repr=False)

    def coefficient_matrix(self):
        """Strictly lower triangular matrix with row j holding ahat_j."""
        return _band_to_lower(self.ahat)


def _check_columns(blocks):
    """Name the column behind a failed or nearly singular batched factorization.

    A batched factorization does not say which block failed, and near a
    singular block rounding decides whether it fails at all. So the checks
    are repeated column by column on the real Gram blocks: SingularDesign
    at the first column whose predecessor block cannot be factored and
    solved comes before DegenerateResidual at the first column that its
    predecessors fit exactly. Returns when neither is found.
    """
    keff = blocks.shape[1] - 1
    dhat = np.empty(len(blocks))
    for j, block in enumerate(blocks):
        lo = max(keff - j, 0)
        shat, chat = block[lo:keff, lo:keff], block[lo:keff, keff]
        try:
            np.linalg.cholesky(shat)
            coef = np.linalg.solve(shat, chat)
        except np.linalg.LinAlgError:
            raise SingularDesign(j + 1) from None
        try:
            np.linalg.cholesky(block)
            dhat[j] = max(block[keff, keff] - chat @ coef, 0.0)
        except np.linalg.LinAlgError:
            dhat[j] = 0.0
    bad = np.nonzero(dhat <= RESIDUAL_FLOOR)[0]
    if bad.size:
        raise DegenerateResidual(bad[0] + 1, float(dhat[bad[0]]))


def banded_regression(data, k, nu0=2.0, gram=None, enforce_dof=True):
    """Least-squares fit of every column on its k closest predecessors.

    Requires n + nu0 - min(k, p-1) - 4 > 0 so that every nj is positive;
    enforce_dof=False skips that requirement for estimators that use only
    the least-squares statistics. A precomputed gram_matrix(data) can be
    passed to share work across bandwidths. Raises SingularDesign(j) when
    a Gram block cannot be factored and DegenerateResidual(j) when a
    residual variance falls to zero.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    keff = min(k, p - 1)
    if enforce_dof and n + nu0 - keff - 4 <= 0:
        raise ValueError(
            f"need n + nu0 - min(k, p-1) - 4 > 0, got n={n}, nu0={nu0}, k={k}"
        )
    g = gram_matrix(x) if gram is None else gram

    # Gram block of columns j-keff, ..., j for every column j. Predecessors
    # left of the first column are padded as unit-variance coordinates
    # uncorrelated with the rest, which leaves the real block's factor as is.
    idx = np.arange(p)[:, None] - keff + np.arange(keff + 1)
    real = idx >= 0
    blocks = np.where(real[:, :, None] & real[:, None, :],
                      g[idx[:, :, None], idx[:, None, :]], np.eye(keff + 1))
    try:
        low = np.linalg.cholesky(blocks)
        pivots = np.diagonal(low, axis1=1, axis2=2) ** 2
        recheck = np.any(pivots <= PIVOT_RECHECK * np.diagonal(blocks, axis1=1, axis2=2))
    except np.linalg.LinAlgError:
        recheck = True
    if recheck:
        # raises whenever the batched factorization failed
        _check_columns(blocks)

    # with L the factor of [[S, c], [c', v]]: S = L_S L_S', the last row
    # is (L_S^{-1} c, sqrt(v - c' S^{-1} c)), so ahat = L_S^{-T} L_S^{-1} c
    shat_chol = np.ascontiguousarray(low[:, :keff, :keff])
    ahat = np.linalg.solve(shat_chol.transpose(0, 2, 1), low[:, keff, :keff, None])[:, :, 0]
    dhat = pivots[:, keff]
    bad = np.nonzero(dhat <= RESIDUAL_FLOOR)[0]
    if bad.size:
        raise DegenerateResidual(bad[0] + 1, float(dhat[bad[0]]))

    kj = np.minimum(np.arange(p), keff)
    nj = n + nu0 - kj - 4
    return BandedRegressionStats(
        n=n, p=p, k=int(k), nu0=float(nu0), kj=kj, dhat=dhat, nj=nj,
        ahat=ahat, shat_chol=shat_chol,
    )
