"""Frequentist banded precision estimators used as baselines.

Both estimators share the raw divisor-n moments of the posterior model but
use plain least-squares plug-ins instead of posterior means. The
regression form and the graphical maximum likelihood form coincide: a
banded Gaussian autoregression and the decomposable graphical model on
the banded adjacency describe the same family, so their likelihoods peak
at the same matrix.
"""

import numpy as np
from scipy.linalg import cho_solve

from .errors import SingularClique
from .mcd import CholeskyFactor, compose
from .stats import (
    NestedFactor,
    _checked_band,
    _predecessor_blocks,
    as_data_matrix,
    banded_regression,
    gram_band,
)


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
    if isinstance(gram, NestedFactor):
        fit = gram.fit(data, k)
        if fit is not None:
            return compose(CholeskyFactor(a=fit[0], d=fit[1]))
        gram = gram.band
    st = banded_regression(data, k, gram=gram)
    return compose(CholeskyFactor(a=st.ahat, d=st.dhat))


def graphical_mle_banded(data, k, gram=None):
    """Maximum likelihood precision matrix of the k-banded graphical model.

    The banded graph is decomposable with cliques {j, ..., j + k} and
    separators of size k, so the MLE is the sum of padded clique-block
    inverses of the sample second-moment matrix minus the padded
    separator-block inverses. Requires more observations than the clique
    size min(k, p-1) + 1. gram may be gram_band(data, w) with
    w >= min(k, p-1); every clique and separator block is read from its
    band, as in banded_regression.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    keff = min(k, p - 1)
    if n <= keff + 1:
        raise ValueError(f"need n > min(k, p-1) + 1, got n={n}, k={k}")
    band = gram_band(x, keff) if gram is None else _checked_band(gram, p, keff)
    # clique c = {c, ..., c + keff} is the block of column c + keff
    blocks = _predecessor_blocks(band, keff)
    omega = np.zeros((p, p))
    ncliques = p - keff
    width = keff + 1
    eye = np.eye(width)
    for c in range(ncliques):
        sl = slice(c, c + width)
        try:
            low = np.linalg.cholesky(blocks[c + keff])
        except np.linalg.LinAlgError:
            raise SingularClique(c + 1) from None
        omega[sl, sl] += cho_solve((low, True), eye)
    if keff >= 1:
        eye_sep = np.eye(keff)
        for c in range(ncliques - 1):
            sl = slice(c + 1, c + 1 + keff)
            try:
                low = np.linalg.cholesky(blocks[c + keff, 1:, 1:])
            except np.linalg.LinAlgError:
                raise SingularClique(c + 1) from None
            omega[sl, sl] -= cho_solve((low, True), eye_sep)
    return (omega + omega.T) / 2.0
