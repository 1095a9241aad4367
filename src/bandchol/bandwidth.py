"""Bandwidth selection: marginal posterior mode and split-resampling risk.

The posterior over the bandwidth k integrates the conjugate column
posteriors of bayes out in closed form. Up to an additive constant shared
by all k,

    log pi(k | X) = log pi(k)
        + sum_{j>=2} [ -0.5 * logdet(n * shat_j / (2*pi))
                       + lgamma(nj/2) - (nj/2) * log(n * dhat_j / 2) ]
        + sum_{j>=1} log F_IG(M; nj/2, n * dhat_j / 2)

where nj are the posterior degrees of freedom and F_IG(M) the truncation
mass below the cap M on the innovation variances, both from bayes. The
default prior on k is proportional to exp(-k^4), which concentrates on
very small bandwidths unless the data strongly favor a wider band.

The whole grid k = 1..kmax comes from one factorization. Column j's
regressions on its 1, 2, ..., kmax nearest predecessors are nested, so one
Cholesky factor of its Gram block, ordered nearest first as in every fit,
holds dhat_j and logdet(shat_j) for every k (stats._regress_nested);
log_marginal_k is the last row of the same computation. Where that factor
is too close to singular to trust, each k is factored on its own, and the
grid raises what the fit raises at the smallest failing k. The mode's
normalized probability and its log-gap to the runner-up say how clearly
the data pick it.

The resampling selector repeatedly splits the rows into a small
estimation group and a large reference group, compares the banded
regression estimator at each candidate k against a wide-band reference
estimate in matrix l1 norm, and picks the k with the smallest average
distance. Within a split, one nested factorization of the estimation
group's Gram blocks gives every candidate's fit, which stats._regress, the
kernel of every fit, reads from it where it is trusted (stats.NestedFactor).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bayes import PriorConfig, _check_admissible, _conjugate_terms, max_bandwidth
from .errors import (
    DegenerateResidual,
    EmptyGrid,
    NonFiniteLogPosterior,
    SingularDesign,
    TruncationMassZero,
)
from .competitors import bl_banded_estimator
from .linalg import _integer, norm_l1
from .stats import GramBand, _band_at, _factor_nested, _regress_nested, _rows_or_band
from .stats import as_data_matrix

# redraws of a split whose estimation group hits a singular design
MAX_RETRIES = 10

# default widest bandwidth tried, splits and reference bandwidth of the selectors
KMAX_CAP = 20
SPLITS = 50
REF_BANDWIDTH = 20


def default_log_k_prior(k):
    """log of the bandwidth prior pi(k) proportional to exp(-k^4)."""
    return -float(k) ** 4


@dataclass(frozen=True)
class BandwidthPosterior:
    """Log posterior over a bandwidth grid and its mode."""

    k_values: np.ndarray
    log_posterior: np.ndarray
    mode: int

    @property
    def mode_probability(self):
        """Posterior probability of the mode, normalized over the grid."""
        return float(1.0 / np.sum(np.exp(self.log_posterior - np.max(self.log_posterior))))

    @property
    def log_gap(self):
        """Log posterior of the mode minus the runner-up's; None on a one-point grid."""
        if len(self.log_posterior) < 2:
            return None
        top2 = np.partition(self.log_posterior, -2)[-2:]
        return float(top2[1] - top2[0])


@dataclass(frozen=True)
class ResamplingSelection:
    """Average resampling risk over a bandwidth grid and its minimizer."""

    k_values: np.ndarray
    risk: np.ndarray
    mode: int

    @property
    def margin(self):
        """Average risk of the runner-up minus the chosen k's; None on a one-point grid."""
        if len(self.risk) < 2:
            return None
        low2 = np.partition(self.risk, 1)[:2]
        return float(low2[1] - low2[0])


def _log_posterior(data, k_values, prior, log_k_prior):
    """Unnormalized log posterior at each of the ascending bandwidths k_values.

    One nested factorization gives every k (stats._regress_nested), and the
    column terms are evaluated over the (bandwidths, p) arrays at once. The
    smallest k that fails raises, as evaluating them one by one would: its
    SingularDesign or DegenerateResidual first, else NonFiniteLogPosterior.
    data is stats._rows_or_band's, a GramBand at least min(k_values[-1],
    p-1) wide or validated rows.
    """
    n, p = data.shape
    dhat, logdet, err = _regress_nested(_band_at(data, int(k_values[-1])), k_values)
    done = k_values[:len(dhat)]
    kj = np.minimum(np.arange(p), done[:, None])
    half_nj, rate, mass = _conjugate_terms(n, kj, dhat, prior)
    col_terms = (
        -0.5 * (kj * np.log(n / (2.0 * np.pi)) + logdet)
        + gammaln(half_nj)
        - half_nj * np.log(rate)
    )
    with np.errstate(divide="ignore"):
        trunc_terms = np.log(mass)
    total = (np.array([log_k_prior(int(k)) for k in done], dtype=float)
             + np.sum(col_terms[:, 1:], axis=1) + np.sum(trunc_terms, axis=1))
    bad = np.nonzero(~np.isfinite(total))[0]
    if bad.size:
        i = bad[0]
        zero = np.nonzero(mass[i] == 0.0)[0]
        cause = None
        if zero.size:
            j = zero[0]
            cause = TruncationMassZero(j + 1, prior.M, rate[i, j] / half_nj[i, j])
        raise NonFiniteLogPosterior(done[i], total[i], cause)
    if err is not None:
        raise err
    return total


def log_marginal_k(data, k, prior=None, log_k_prior=default_log_k_prior):
    """Unnormalized log posterior of bandwidth k.

    The value is the last row of the grid computation of
    select_k_posterior_mode with kmax = k, from the same data, rows or a
    GramBand, and the same one factorization. prior supplies the cap M and
    shape offset nu0; its own bandwidth field is ignored in favor of the k
    argument. Raises ValueError when k exceeds max_bandwidth, and
    NonFiniteLogPosterior when the value is NaN or infinite, which happens
    when some residual variance underflows or the cap M removes all
    posterior mass; the error then names the column whose mass is zero.
    """
    _integer("k", k, 0)
    if prior is None:
        prior = PriorConfig(k=0)
    _check_admissible(data, k, prior.nu0)
    return float(_log_posterior(_rows_or_band(data), np.array([k]), prior, log_k_prior)[0])


def select_k_posterior_mode(data, kmax, prior=None, log_k_prior=default_log_k_prior):
    """Evaluate the bandwidth posterior on 1..kmax and return its mode.

    The whole grid comes from one nested factorization of each column's
    Gram block and raises what log_marginal_k at k = 1, ..., kmax in turn
    would. Ties resolve to the smallest k. kmax may not exceed
    max_bandwidth(n, p, nu0), the largest bandwidth the posterior admits.
    data is the n x p data matrix or a GramBand of it at least min(kmax,
    p-1) wide, which can then serve the fit at the chosen k; the grid is
    bit for bit the one from the rows.
    """
    data = _rows_or_band(data)
    n, p = data.shape
    if prior is None:
        prior = PriorConfig(k=0)
    _integer("kmax", kmax)
    if kmax < 1:
        raise EmptyGrid(f"bandwidth grid 1..{kmax} is empty")
    cap = max_bandwidth(n, p, prior.nu0)
    if kmax > cap:
        raise ValueError(f"kmax={kmax} exceeds the largest admissible bandwidth {cap}")
    k_values = np.arange(1, kmax + 1)
    log_post = _log_posterior(data, k_values, prior, log_k_prior)
    # argmax returns the first maximizer, hence the smallest k on ties
    mode = int(k_values[int(np.argmax(log_post))])
    return BandwidthPosterior(k_values=k_values, log_posterior=log_post, mode=mode)


def _split_widths(n):
    """Widest bandwidths a split of n rows fits: on n//3 rows, on the rest."""
    return n // 3 - 1, n - n // 3 - 1


def _check_resampling(n, p, kmax, ref_bandwidth, names=("kmax", "ref_bandwidth")):
    """Reject data too small to split, and a grid or reference bandwidth
    that its splits cannot fit.

    A split fits every k on its n//3 estimation rows and the reference on
    the other rows. A fit on as many predecessors as rows is exact or
    singular whatever the rows hold, so min(kmax, p-1) must stay below the
    first group's size and ref_bandwidth, at most p-1, below the second's
    (_split_widths). names are how the caller calls kmax and ref_bandwidth.
    """
    if n < 6:
        raise ValueError(f"resampling needs n >= 6, got n={n}")
    widest, widest_ref = _split_widths(n)
    if min(kmax, p - 1) > widest:
        raise ValueError(
            f"{names[0]}={kmax} exceeds n//3 - 1 = {widest}: a split fits each "
            f"bandwidth on its {widest + 1} estimation rows")
    if not 1 <= ref_bandwidth <= min(widest_ref, p - 1):
        raise ValueError(
            f"{names[1]}={ref_bandwidth} must lie in 1..min(n - n//3 - 1, p-1) = "
            f"{min(widest_ref, p - 1)}: a split fits the reference on its "
            f"{widest_ref + 1} other rows")


def select_k_resampling(data, kmax, splits=SPLITS, ref_bandwidth=REF_BANDWIDTH, rng=0):
    """Pick the bandwidth minimizing the average split-resampling risk.

    Each split sends floor(n/3) rows to the estimation group and the rest
    to the reference group. The risk of k is the matrix l1 distance
    between the estimation-group banded estimator at k and the
    reference-group estimator at ref_bandwidth, averaged over splits.
    Splits that hit a singular design are redrawn, at most MAX_RETRIES
    times each. Ties resolve to the smallest k. ValueError unless
    min(kmax, p-1) <= n//3 - 1 and 1 <= ref_bandwidth <= min(n - n//3 - 1,
    p-1): wider bands are exact or singular fits in every split.

    Each split attempt takes the GramBands of both groups, rows checked as
    part of data, and factors the estimation group's once at width
    min(kmax, p-1). Every k's bl_banded_estimator of that GramBand reads
    its fit from the stats.NestedFactor through gram=, as stats._regress
    reads a shared factor. The reference is fitted from its GramBand, and
    subtracted in place from each k's fresh estimate. A GramBand holds no
    rows to split, so it raises ValueError.
    """
    if isinstance(data, GramBand):
        raise ValueError("select_k_resampling splits rows, which a GramBand does not hold")
    x = as_data_matrix(data)
    n, p = x.shape
    _integer("kmax", kmax)
    _integer("splits", splits, 1)
    _integer("ref_bandwidth", ref_bandwidth)
    if kmax < 1:
        raise EmptyGrid(f"bandwidth grid 1..{kmax} is empty")
    _check_resampling(n, p, kmax, ref_bandwidth)
    rng = np.random.default_rng(rng)
    n1 = n // 3
    k_values = np.arange(1, kmax + 1)
    risk = np.zeros(kmax)
    for _ in range(splits):
        for _ in range(MAX_RETRIES):
            perm = rng.permutation(n)
            try:
                ref = bl_banded_estimator(_band_at(x[perm[n1:]], ref_bandwidth), ref_bandwidth)
                g1 = _band_at(x[perm[:n1]], kmax)
                nested = _factor_nested(g1, g1.width)
                dists = []
                for k in k_values:
                    # each estimate is a fresh matrix
                    omega = bl_banded_estimator(g1, int(k), gram=nested)
                    omega -= ref
                    dists.append(norm_l1(omega))
                break
            except (SingularDesign, DegenerateResidual) as err:
                last_err = err
        else:
            raise last_err
        risk += dists
    risk /= splits
    mode = int(k_values[int(np.argmin(risk))])
    return ResamplingSelection(k_values=k_values, risk=risk, mode=mode)
