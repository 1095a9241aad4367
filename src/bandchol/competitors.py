"""Frequentist banded precision estimators used as baselines.

Both estimators share the raw divisor-n moments of the posterior model but
use plain least-squares plug-ins instead of posterior means. The regression
form and the graphical maximum likelihood form coincide: a banded Gaussian
autoregression and the decomposable graphical model on the banded adjacency
describe the same family, so their likelihoods peak at the same matrix. The
MLE is computed in the graphical form: mcd._add_block_inverses, the only band
builder here, sums batched clique and separator inverses into bands.
"""

import numpy as np

from .errors import SingularClique
from .linalg import _integer
from .mcd import CholeskyFactor, _add_block_inverses, _dense_symmetric, compose
from .stats import (NestedFactor, _checked_band, _gram_band, _predecessor_blocks,
                    as_data_matrix, banded_regression)


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
    st = banded_regression(data, k, gram=gram)
    return compose(CholeskyFactor(a=st.ahat, d=st.dhat))


def graphical_mle_banded(data, k, gram=None):
    """Maximum likelihood precision matrix of the k-banded graphical model.

    The banded graph is decomposable with cliques {j, ..., j + k} and
    separators of size k, so the MLE is the sum of padded clique-block
    inverses of the sample second-moment matrix minus the padded
    separator-block inverses (Lauritzen 1996), each kind factored and
    inverted in one batch and summed into the k + 1 lower bands of the
    result. Requires more observations than the clique size min(k, p-1) + 1.
    gram may be gram_band(data, w) with w >= min(k, p-1); every block is read
    from its band. SingularClique(c) names the first clique c, else the
    first separator after clique c, without a Cholesky factor.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    _integer("k", k, 0)
    keff = min(k, p - 1)
    if n <= keff + 1:
        raise ValueError(f"need n > min(k, p-1) + 1, got n={n}, k={k}")
    band = _gram_band(x, keff) if gram is None else _checked_band(gram, p, keff)
    # clique c = {c, ..., c + keff} is the block of column c + keff, and the
    # separator of cliques c and c + 1 its trailing keff x keff block
    cliques = _predecessor_blocks(band, keff)[keff:]
    bands = np.zeros((keff + 1, p))
    for blocks, first, divisor in ((cliques, 0, 1.0), (cliques[:-1, 1:, 1:], 1, -1.0)):
        try:
            low = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            # a batch fails as a whole: factor one by one to name the first
            low = np.empty(blocks.shape)
            for c, block in enumerate(blocks):
                try:
                    low[c] = np.linalg.cholesky(block)
                except np.linalg.LinAlgError:
                    raise SingularClique(c + 1) from None
        _add_block_inverses(bands, low, first, divisor)
    return _dense_symmetric(bands)
