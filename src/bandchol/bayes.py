"""Conjugate posterior over banded Cholesky factors and its estimators.

The model treats each column j of the data as a Gaussian autoregression on
its min(j-1, k) closest predecessors. Under a flat prior on the in-band
coefficients and the improper density d^(nu0/2 - 1) on (0, M] for each
innovation variance, the posterior factorizes over columns:

    d_j | X   ~ inverse-gamma(nj/2, rate n*dhat_j/2) truncated to (0, M]
    a_j | d_j ~ normal(ahat_j, (d_j/n) * shat_j^{-1})

with nj = n + nu0 - min(j-1, k) - 4 and the hatted quantities from
banded_regression. The plug-in estimator composes the posterior means
E(a_j) = ahat_j and E(1/d_j) = nj / (n*dhat_j), the latter ignoring the
truncation (negligible for large M).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincc, gammainccinv

from . import linalg
from .errors import TruncationMassZero
from .mcd import CholeskyFactor, compose
from .stats import _band_to_lower, banded_regression

TRUNC_MASS_FLOOR = 1e-300


@dataclass(frozen=True)
class PriorConfig:
    """Bandwidth k, variance cap M, and shape offset nu0 of the prior."""

    k: int
    M: float = 1e6
    nu0: float = 2.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("bandwidth k must be nonnegative")
        if not self.M > 0:
            raise ValueError("variance cap M must be positive")
        if not np.isfinite(self.nu0):
            raise ValueError("nu0 must be finite")


def ig_cdf(x, shape, rate):
    """P(d <= x) for d inverse-gamma with the given shape and rate.

    Equals the regularized upper incomplete gamma function Q(shape, rate/x).
    """
    return gammaincc(shape, rate / x)


@dataclass
class PosteriorModel:
    """Closed-form column posteriors fitted to one data matrix."""

    stats: object
    prior: PriorConfig
    ig_shape: np.ndarray
    ig_rate: np.ndarray
    trunc_mass: np.ndarray

    @property
    def n(self):
        return self.stats.n

    @property
    def p(self):
        return self.stats.p


def fit_posterior(data, prior, gram=None):
    """Fit the column posteriors at the prior's bandwidth.

    Raises TruncationMassZero(j) when the cap M leaves column j's
    innovation-variance posterior without numerical mass.
    """
    st = banded_regression(data, prior.k, nu0=prior.nu0, gram=gram)
    shape = st.nj / 2.0
    rate = st.n * st.dhat / 2.0
    mass = ig_cdf(prior.M, shape, rate)
    bad = np.nonzero(mass < TRUNC_MASS_FLOOR)[0]
    if bad.size:
        raise TruncationMassZero(bad[0] + 1, prior.M)
    return PosteriorModel(
        stats=st, prior=prior, ig_shape=shape, ig_rate=rate, trunc_mass=mass
    )


def plug_in_estimator(model):
    """Compose the posterior means into a precision matrix estimate.

    Returns (I - Ahat)' diag(nj / (n*dhat_j)) (I - Ahat).
    """
    st = model.stats
    a = st.coefficient_matrix()
    d = st.n * st.dhat / st.nj
    return compose(CholeskyFactor(a=a, d=d))


def _sample_columns(model, draws, rng):
    """Vectorized posterior draws, one RNG substream per column.

    Returns (d, a) where d has shape (draws, p) and a is a (draws, p, keff)
    band array of coefficients, zero in the padded slots like ahat.
    Innovation variances come from the truncated inverse-gamma via the
    inverse upper-tail CDF on the precision scale, which stays accurate
    when the truncation mass is tiny.
    """
    st = model.stats
    p, keff = st.ahat.shape
    streams = rng.spawn(p)
    d = np.empty((draws, p))
    a = np.zeros((draws, p, keff))
    scale = np.sqrt(1.0 / st.n)
    for j in range(p):
        gen = streams[j]
        u = 1.0 - gen.random(draws)
        tail = u * model.trunc_mass[j]
        theta = gammainccinv(model.ig_shape[j], tail) / model.ig_rate[j]
        d[:, j] = 1.0 / theta
        kj = st.kj[j]
        if kj == 0:
            continue
        z = gen.standard_normal((draws, kj))
        # cov = (d/n) shat^{-1} = (d/n) L^{-T} L^{-1}, so map z through L^{-T},
        # with L the trailing kj block of the padded factor
        lo = keff - kj
        w = solve_triangular(st.shat_chol[j, lo:, lo:], z.T, trans="T", lower=True).T
        a[:, j, lo:] = st.ahat[j, lo:] + (scale * np.sqrt(d[:, j]))[:, None] * w
    return d, a


def sample_posterior(model, rng):
    """Draw one factor (A, d) from the joint posterior."""
    d, a = _sample_columns(model, 1, np.random.default_rng(rng))
    return CholeskyFactor(a=_band_to_lower(a[0]), d=d[0])


def _iter_composed(model, draws, rng):
    """Yield composed precision draws omega_s without storing them all."""
    d, a = _sample_columns(model, draws, np.random.default_rng(rng))
    for s in range(draws):
        yield compose(CholeskyFactor(a=_band_to_lower(a[s]), d=d[s]))


def posterior_mean_omega(model, draws, rng):
    """Monte Carlo average of composed posterior draws."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    total = np.zeros((model.p, model.p))
    for omega in _iter_composed(model, draws, rng):
        total += omega
    return total / draws


def estimate_p_loss(model, omega0, draws, norm="spectral", rng=0):
    """Posterior-expected distance E || omega - omega0 || and its MC error.

    norm is one of "spectral", "linf", "fro". Returns (mean, stderr) over
    the requested number of draws; stderr uses the sample standard
    deviation with ddof=1 (zero when draws == 1).
    """
    if norm not in ("spectral", "linf", "fro"):
        raise ValueError(f"unsupported norm {norm!r}")
    omega0 = linalg.check_finite(omega0, "omega0")
    if omega0.shape != (model.p, model.p):
        raise ValueError("omega0 must match the model dimension")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    fn = linalg.NORMS_BY_NAME[norm]
    vals = np.empty(draws)
    for s, omega in enumerate(_iter_composed(model, draws, rng)):
        vals[s] = fn(omega - omega0)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
    return float(np.mean(vals)), stderr
