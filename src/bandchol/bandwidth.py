"""Bandwidth selection: marginal posterior mode and split-resampling risk.

The posterior over the bandwidth k integrates the column regressions out
in closed form. Up to an additive constant shared by all k,

    log pi(k | X) = log pi(k)
        + sum_{j>=2} [ -0.5 * logdet(n * shat_j / (2*pi))
                       + lgamma(nj/2) - (nj/2) * log(n * dhat_j / 2) ]
        + sum_{j>=1} log F_IG(M; nj/2, n * dhat_j / 2)

where F_IG is the inverse-gamma CDF accounting for the cap M on the
innovation variances. The default prior on k is proportional to
exp(-k^4), which concentrates on very small bandwidths unless the data
strongly favor a wider band.

The resampling selector repeatedly splits the rows into a small
estimation group and a large reference group, compares the banded
regression estimator at each candidate k against a wide-band reference
estimate in matrix l1 norm, and picks the k with the smallest average
distance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bayes import PriorConfig, ig_cdf
from .errors import (
    DegenerateResidual,
    EmptyGrid,
    NonFiniteLogPosterior,
    SingularDesign,
)
from .competitors import bl_banded_estimator
from .linalg import norm_l1
from .stats import as_data_matrix, banded_regression, gram_matrix


def default_log_k_prior(k):
    """log of the bandwidth prior pi(k) proportional to exp(-k^4)."""
    return -float(k) ** 4


@dataclass(frozen=True)
class BandwidthPosterior:
    """Log posterior over a bandwidth grid and its mode."""

    k_values: np.ndarray
    log_posterior: np.ndarray
    mode: int


@dataclass(frozen=True)
class ResamplingSelection:
    """Average resampling risk over a bandwidth grid and its minimizer."""

    k_values: np.ndarray
    risk: np.ndarray
    mode: int


def log_marginal_k(data, k, prior=None, log_k_prior=default_log_k_prior, gram=None):
    """Unnormalized log posterior of bandwidth k.

    prior supplies the cap M and shape offset nu0; its own bandwidth field
    is ignored in favor of the k argument. Raises NonFiniteLogPosterior
    when the value is NaN or infinite, which happens when some residual
    variance underflows or the cap M removes all posterior mass.
    """
    if prior is None:
        prior = PriorConfig(k=0)
    st = banded_regression(data, k, nu0=prior.nu0, gram=gram)
    n = st.n
    log_n_2pi = np.log(n / (2.0 * np.pi))
    # padded slots of the factors hold ones and add log 1 = 0
    logdet = 2.0 * np.sum(np.log(np.diagonal(st.shat_chol, axis1=1, axis2=2)), axis=1)
    half_nj = st.nj / 2.0
    rate = n * st.dhat / 2.0
    col_terms = (
        -0.5 * (st.kj * log_n_2pi + logdet)
        + gammaln(half_nj)
        - half_nj * np.log(rate)
    )
    with np.errstate(divide="ignore"):
        trunc_terms = np.log(ig_cdf(prior.M, half_nj, rate))
    total = float(log_k_prior(k) + np.sum(col_terms[1:]) + np.sum(trunc_terms))
    if not np.isfinite(total):
        raise NonFiniteLogPosterior(k, total)
    return total


def select_k_posterior_mode(data, kmax, prior=None, log_k_prior=default_log_k_prior,
                            gram=None):
    """Evaluate the bandwidth posterior on 1..kmax and return its mode.

    Ties resolve to the smallest k. kmax may not exceed
    min(n + nu0 - 5, p - 1), the largest bandwidth with positive
    posterior degrees of freedom that is still distinguishable at width p.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if prior is None:
        prior = PriorConfig(k=0)
    if kmax < 1:
        raise EmptyGrid(f"bandwidth grid 1..{kmax} is empty")
    if kmax > min(n + prior.nu0 - 5, p - 1):
        raise ValueError(
            f"kmax={kmax} exceeds min(n + nu0 - 5, p - 1) = "
            f"{min(n + prior.nu0 - 5, p - 1)}"
        )
    g = gram_matrix(x) if gram is None else gram
    k_values = np.arange(1, kmax + 1)
    log_post = np.array(
        [log_marginal_k(x, int(k), prior, log_k_prior, gram=g) for k in k_values]
    )
    # argmax returns the first maximizer, hence the smallest k on ties
    mode = int(k_values[int(np.argmax(log_post))])
    return BandwidthPosterior(k_values=k_values, log_posterior=log_post, mode=mode)


def select_k_resampling(data, kmax, splits=50, ref_bandwidth=20, rng=0,
                        max_retries=10):
    """Pick the bandwidth minimizing the average split-resampling risk.

    Each split sends floor(n/3) rows to the estimation group and the rest
    to the reference group. The risk of k is the matrix l1 distance
    between the estimation-group banded estimator at k and the
    reference-group estimator at ref_bandwidth, averaged over splits.
    Splits that hit a singular design are redrawn, at most max_retries
    times each. Ties resolve to the smallest k.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if kmax < 1:
        raise EmptyGrid(f"bandwidth grid 1..{kmax} is empty")
    if n < 6:
        raise ValueError(f"resampling needs n >= 6, got n={n}")
    if not 1 <= ref_bandwidth <= min(n - 1, p - 1):
        raise ValueError(
            f"ref_bandwidth={ref_bandwidth} must lie in 1..min(n-1, p-1) = "
            f"{min(n - 1, p - 1)}"
        )
    if splits < 1:
        raise ValueError("splits must be at least 1")
    rng = np.random.default_rng(rng)
    n1 = n // 3
    k_values = np.arange(1, kmax + 1)
    risk = np.zeros(kmax)
    for _ in range(splits):
        last_err = None
        for _ in range(max_retries):
            perm = rng.permutation(n)
            try:
                ref = bl_banded_estimator(x[perm[n1:]], ref_bandwidth)
                g1 = x[perm[:n1]]
                gram1 = gram_matrix(g1)
                dists = [
                    norm_l1(bl_banded_estimator(g1, int(k), gram=gram1) - ref)
                    for k in k_values
                ]
                break
            except (SingularDesign, DegenerateResidual) as err:
                last_err = err
        else:
            raise last_err
        risk += dists
    risk /= splits
    mode = int(k_values[int(np.argmin(risk))])
    return ResamplingSelection(k_values=k_values, risk=risk, mode=mode)
