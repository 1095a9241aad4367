"""Frequentist banded precision estimators used as baselines.

Both estimators share the raw divisor-n moments of the posterior model but
use plain least-squares plug-ins instead of posterior means. A banded
Gaussian autoregression and the decomposable graphical model on the banded
adjacency describe the same family, so their likelihoods peak at the same
matrix (Lauritzen 1996): graphical_mle_banded is bl_banded_estimator's band
path under the MLE's own sample-size rule, and a simulation's MLE is its
BL2 fit. Both fit through stats, whose _regress reads a shared NestedFactor.
"""

import numpy as np

from .linalg import _integer
from .mcd import CholeskyFactor, compose
from .stats import NestedFactor, _regress, _rows_or_band, banded_regression


def bl_banded_estimator(data, k, gram=None):
    """Banded regression estimator (I - Ahat)' diag(1/dhat) (I - Ahat).

    Ahat and dhat are the column-wise least-squares coefficients and
    divisor-n residual variances at bandwidth k, fitted by banded_regression
    from data, the n x p data matrix or a GramBand of it.

    gram is None or a stats.NestedFactor of the data at least min(k, p-1)
    wide, which select_k_resampling shares with every k of its grid and
    stats._regress reads: the fit is the band path's up to rounding. Any
    other gram, or a factor of another shape or too narrow, raises ValueError.
    """
    _integer("k", k, 0)
    if gram is None:
        return _band_estimate(data, k)
    if not isinstance(gram, NestedFactor):
        raise ValueError("gram must be a stats.NestedFactor; pass a GramBand as data")
    (n, p), keff = _rows_or_band(data).shape, min(k, gram.p - 1)
    if (n, p) != gram.stat.shape or keff > gram.width:
        raise ValueError(
            f"gram must be a NestedFactor of {n} x {p} data with width >= {keff}; "
            f"got one of {gram.stat.n} x {gram.p} data with width {gram.width}")
    return _band_estimate(data, k, gram)


def _band_estimate(data, k, nested=None):
    """bl_banded_estimator by banded_regression, or from the data's factor nested."""
    if nested is None:
        return compose(banded_regression(data, k))
    return compose(CholeskyFactor(*_regress(nested.stat, k, nested)))


def graphical_mle_banded(data, k):
    """Maximum likelihood precision matrix of the k-banded graphical model.

    The banded graph is decomposable, so the MLE is the banded regression
    estimator, computed as bl_banded_estimator computes it from data, the
    n x p data matrix or a GramBand of it. Requires more observations than
    the clique size min(k, p-1) + 1; the bound is checked on the data's
    shape, before the data is validated. Raises SingularDesign(j) or
    DegenerateResidual(j) as banded_regression does.
    """
    _integer("k", k, 0)
    dims = np.shape(data)
    if len(dims) == 2 and dims[0] <= min(k, dims[1] - 1) + 1:
        raise ValueError(f"need n > min(k, p-1) + 1, got n={dims[0]}, k={k}")
    return _band_estimate(data, k)
