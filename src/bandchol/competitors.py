"""Frequentist banded precision estimators used as baselines.

Both estimators share the raw divisor-n moments of the posterior model but
use plain least-squares plug-ins instead of posterior means. The regression
form and the graphical maximum likelihood form coincide: a banded Gaussian
autoregression and the decomposable graphical model on the banded adjacency
describe the same family, so their likelihoods peak at the same matrix
(Lauritzen 1996). The MLE is therefore computed by the regression: it is
bl_banded_estimator's band path under the MLE's own sample-size rule, and
its band comes from mcd._compose_bands alone.
"""

import numpy as np

from .linalg import _integer
from .mcd import CholeskyFactor, compose
from .stats import NestedFactor, banded_regression


def bl_banded_estimator(data, k, gram=None):
    """Banded regression estimator (I - Ahat)' diag(1/dhat) (I - Ahat).

    Ahat and dhat are the column-wise least-squares coefficients and
    divisor-n residual variances at bandwidth k. gram may be
    gram_band(data, w) with w >= min(k, p-1), as in banded_regression.

    gram may also be a stats.NestedFactor of the data at least min(k, p-1)
    wide, which select_k_resampling shares with every k of its grid. A
    trusted one gives Ahat and dhat from every k's coefficients, equal to
    the band path's up to rounding; an untrusted one fits on its band, as
    the band path does. One of another shape, or too narrow, raises
    ValueError.
    """
    _integer("k", k, 0)
    if isinstance(gram, NestedFactor):
        fit = gram.fit(data, k)
        if fit is not None:
            return compose(CholeskyFactor(a=fit[0], d=fit[1]))
        gram = gram.band
    return _band_estimate(data, k, gram)


def _band_estimate(data, k, gram):
    """bl_banded_estimator from a Gram band, or from the data when gram is None."""
    st = banded_regression(data, k, gram=gram)
    return compose(CholeskyFactor(a=st.ahat, d=st.dhat))


def graphical_mle_banded(data, k, gram=None):
    """Maximum likelihood precision matrix of the k-banded graphical model.

    The banded graph is decomposable, so the MLE is the banded regression
    estimator, computed as bl_banded_estimator computes it from a Gram band.
    Requires more observations than the clique size min(k, p-1) + 1; the
    bound is checked on the data's shape, before the data is validated.
    gram may be gram_band(data, w) with w >= min(k, p-1). Raises
    SingularDesign(j) or DegenerateResidual(j) as banded_regression does.
    """
    _integer("k", k, 0)
    dims = np.shape(data)
    if len(dims) == 2 and dims[0] <= min(k, dims[1] - 1) + 1:
        raise ValueError(f"need n > min(k, p-1) + 1, got n={dims[0]}, k={k}")
    return _band_estimate(data, k, gram)
