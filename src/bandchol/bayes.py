"""Conjugate posterior over banded Cholesky factors and its estimators.

The model treats each column j of the data as a Gaussian autoregression on
its kj = min(j-1, k) closest predecessors. Under a flat prior on the
in-band coefficients and the improper density d^(nu0/2 - 1) on (0, M] for
each innovation variance, the posterior factorizes over columns:

    d_j | X   ~ inverse-gamma(nj/2, rate n*dhat_j/2) truncated to (0, M]
    a_j | d_j ~ normal(ahat_j, (d_j/n) * shat_j^{-1})

with nj = n + nu0 - kj - 4, the hats the a and d of banded_regression's
factor and shat_j from the Gram band; a PosteriorModel keeps n, ahat and
the band, and reads kj off ahat's shape. A bandwidth k is admissible when
every nj is positive, that is when k <= max_bandwidth(n, p, nu0). The
plug-in estimator composes E(a_j) = ahat_j and E(1/d_j) = nj / (n*dhat_j),
ignoring the truncation (negligible for large M) and the coefficients'
spread; posterior_mean_omega is exact, its bands built by mcd._compose_bands
and mcd._add_block_inverses, whose only caller it is. estimate_p_loss takes
its Monte Carlo error at a power-of-two scale, so norms whose squares would
overflow still give a finite one.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammainccinv

from . import linalg
from .errors import TruncationMassZero
from .mcd import CholeskyFactor, _add_block_inverses, _compose_bands, _dense_symmetric, compose
from .stats import _band_at, _predecessor_blocks, _regress, _rows_or_band

TRUNC_MASS_FLOOR = 1e-300
# the norms a loss is measured in
LOSSES = ("spectral", "linf", "fro")


@dataclass(frozen=True)
class PriorConfig:
    """Bandwidth k, variance cap M, and shape offset nu0 of the prior."""

    k: int
    M: float = 1e6
    nu0: float = 2.0

    def __post_init__(self):
        linalg._integer("k", self.k, 0)
        linalg._real("M", self.M, lambda v: v > 0, "a positive number")
        linalg._real("nu0", self.nu0, math.isfinite, "a finite number")


def ig_cdf(x, shape, rate):
    """P(d <= x) for d inverse-gamma with the given shape and rate.

    Equals the regularized upper incomplete gamma function Q(shape, rate/x).
    A ratio that overflows is infinite, where the probability is 0.
    """
    with np.errstate(over="ignore"):
        return gammaincc(shape, rate / x)


@dataclass
class PosteriorModel:
    """Column posteriors fitted from n rows under the cap M, centred on the
    (p, keff) coefficient band ahat, and the data's Gram band at width keff."""

    n: int
    ahat: np.ndarray = field(repr=False)
    ig_shape: np.ndarray
    ig_rate: np.ndarray
    trunc_mass: np.ndarray
    M: float
    gram: np.ndarray = field(repr=False)

    @property
    def p(self):
        return self.ahat.shape[0]

    @property
    def kj(self):
        """Column j's predecessor count min(j-1, keff), 1-based j."""
        return np.minimum(np.arange(self.p), self.ahat.shape[1])


def max_bandwidth(n, p, nu0):
    """Largest bandwidth k <= p - 1 whose posterior degrees of freedom
    n + nu0 - k - 4 are positive; negative when not even k = 0 is."""
    linalg._integer("n", n)
    linalg._integer("p", p)
    linalg._real("nu0", nu0, math.isfinite, "a finite number")
    return min(p - 1, int(np.ceil(n + nu0 - 4)) - 1)


def _check_admissible(data, k, nu0):
    """ValueError when bandwidth k leaves a column without positive degrees
    of freedom n + nu0 - kj - 4.

    The bound is checked on the shape of the data, rows or a GramBand,
    before the regressions validate the data, so its ValueError comes
    before SingularDesign or DegenerateResidual.
    """
    dims = np.shape(data)
    if len(dims) == 2 and min(k, dims[1] - 1) > max_bandwidth(*dims, nu0):
        raise ValueError(f"need n + nu0 - min(k, p-1) - 4 > 0, got n={dims[0]}, "
                         f"nu0={nu0}, k={k}")


def _conjugate_terms(n, kj, dhat, prior):
    """(shape, rate, mass) of the columns' inverse-gamma posteriors: shape nj/2,
    rate n*dhat/2 and the mass below M, elementwise over kj and dhat of any
    one shape, such as one bandwidth's (p,) or a grid's (bandwidths, p). A
    mass below TRUNC_MASS_FLOOR is 0, so the fit and the posterior-mode grid
    reject the same columns."""
    shape = (n + prior.nu0 - kj - 4) / 2.0
    rate = n * dhat / 2.0
    mass = ig_cdf(prior.M, shape, rate)
    return shape, rate, np.where(mass < TRUNC_MASS_FLOOR, 0.0, mass)


def fit_posterior(data, prior):
    """Fit the column posteriors at the prior's bandwidth.

    data is the n x p data matrix or a GramBand of it, as in
    banded_regression. Raises ValueError when k exceeds max_bandwidth, and
    TruncationMassZero(j) when the cap M leaves column j's posterior
    without numerical mass.
    """
    _check_admissible(data, prior.k, prior.nu0)
    stat = _band_at(_rows_or_band(data), prior.k)
    ahat, dhat = _regress(stat, prior.k)
    kj = np.minimum(np.arange(stat.p), ahat.shape[1])
    shape, rate, mass = _conjugate_terms(stat.n, kj, dhat, prior)
    bad = np.nonzero(mass == 0.0)[0]
    if bad.size:
        j = bad[0]
        raise TruncationMassZero(j + 1, prior.M, rate[j] / shape[j])
    return PosteriorModel(n=stat.n, ahat=ahat, ig_shape=shape, ig_rate=rate, trunc_mass=mass,
                          M=prior.M, gram=stat.band)


def plug_in_estimator(model):
    """Compose the posterior means into a precision matrix estimate.

    Returns (I - Ahat)' diag(nj / (n*dhat_j)) (I - Ahat).
    """
    d = model.ig_rate / model.ig_shape
    return compose(CholeskyFactor(a=model.ahat, d=d))


def _predecessor_factors(model):
    """Natural-order Cholesky factors L of the identity-padded predecessor blocks."""
    keff = model.ahat.shape[1]
    return np.linalg.cholesky(_predecessor_blocks(model.gram, keff)[:, :keff, :keff])


def _sample_columns(model, draws, rng):
    """Vectorized posterior draws, one RNG substream per column.

    Returns (d, a) where d has shape (draws, p) and a is a (draws, p, keff)
    band array of coefficients, zero in the padded slots like ahat.
    Column j's substream gives its draws uniforms, then its draws x kj
    standard normals. Innovation variances come from the truncated
    inverse-gamma via the inverse upper-tail CDF on the precision scale,
    which stays accurate when the truncation mass is tiny.
    """
    p, keff = model.ahat.shape
    u = np.empty((draws, p))
    # the normals z, turned into L^{-T} z in place below
    w = np.zeros((draws, p, keff))
    for j, (gen, kj) in enumerate(zip(rng.spawn(p), model.kj)):
        u[:, j] = gen.random(draws)
        if kj:
            w[:, j, keff - kj:] = gen.standard_normal((draws, kj))
    tail = (1.0 - u) * model.trunc_mass
    d = 1.0 / (gammainccinv(model.ig_shape, tail) / model.ig_rate)
    # cov = (d/n) L^{-T} L^{-1}, so w = L^{-T} z solves L' w = z for all draws
    # and columns at once; the padded slots, where z is 0, stay 0
    linalg._solve_lower_transposed(_predecessor_factors(model), w)
    a = model.ahat + (np.sqrt(1.0 / model.n) * np.sqrt(d))[..., None] * w
    return d, a


def sample_posterior(model, rng):
    """Draw one factor (A, d) from the joint posterior."""
    d, a = _sample_columns(model, 1, np.random.default_rng(rng))
    return CholeskyFactor(a=a[0], d=d[0])


def posterior_mean_omega(model):
    """The exact posterior mean of omega, keff-banded, in O(p keff^2).

    a_j | d_j has mean ahat_j and covariance (d_j/n) shat_j^{-1}, and 1/d_j is
    gamma(shape, rate) on [1/M, inf), so E[omega | X] = compose(Ahat, 1/E[1/d])
    + (1/n) sum_j pad(shat_j^{-1}), with shat_j^{-1} = M'M for M = L^{-1} and
    E[1/d_j] = (shape/rate) Q(shape + 1, rate/M) / Q(shape, rate/M), Q = gammaincc.
    """
    gain = ig_cdf(model.M, model.ig_shape + 1.0, model.ig_rate) / model.trunc_mass
    d = model.ig_rate / model.ig_shape / gain
    bands = _compose_bands(CholeskyFactor(a=model.ahat, d=d))
    _add_block_inverses(bands, _predecessor_factors(model), model.n)
    return _dense_symmetric(bands)


def estimate_p_loss(model, omega0, draws, norm="spectral", rng=0):
    """Posterior-expected distance E || omega - omega0 || and its MC error.

    norm is one of LOSSES: "spectral", "linf", "fro". Returns (mean, stderr) over
    the requested number of draws; stderr uses the sample standard
    deviation with ddof=1 (zero when draws == 1).
    """
    if norm not in LOSSES:
        raise ValueError(f"unsupported norm {norm!r}")
    omega0 = linalg.check_finite(omega0, "omega0")
    if omega0.shape != (model.p, model.p):
        raise ValueError("omega0 must match the model dimension")
    linalg._integer("draws", draws, 1)
    fn = linalg.NORMS_BY_NAME[norm]
    # a draw is +0 past keff diagonals; _minus_within reads omega0's band
    minus_omega0 = linalg._minus_within(omega0, model.ahat.shape[1])
    d, a = _sample_columns(model, draws, np.random.default_rng(rng))
    vals = np.empty(draws)
    for s in range(draws):
        # each draw is a fresh matrix, so omega0 is subtracted in place
        vals[s] = fn(minus_omega0(compose(CholeskyFactor(a=a[s], d=d[s]))))
    stderr = 0.0
    if draws > 1:
        # the deviations are squared, so they are taken at a power-of-two
        # scale that cannot overflow and leaves every rounding as it was
        exponent = int(np.frexp(np.max(vals))[1])
        spread = np.ldexp(np.std(np.ldexp(vals, -exponent), ddof=1), exponent)
        stderr = float(spread / np.sqrt(draws))
    return float(np.mean(vals)), stderr
