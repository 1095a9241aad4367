"""Shared pytest hooks and test helpers.

Every hypothesis property test is deterministic: the profile loaded here
derandomizes it, keeps no example database and sets no deadline, so a
test's @settings states only its max_examples. The acceptance report is
surfaced in the terminal summary. lower(band)
builds the dense strictly lower A of a coefficient band for oracles,
random_band draws a band, and widest_bisected_band gives the switch of
norm_spectral between its band and dense paths. BAND_FITS calls each
public fit that takes the data or a GramBand of it.
"""

import math

import numpy as np
from hypothesis import settings

from bandchol import linalg
from bandchol.bandwidth import log_marginal_k, select_k_posterior_mode
from bandchol.bayes import PriorConfig, fit_posterior, plug_in_estimator
from bandchol.competitors import bl_banded_estimator, graphical_mle_banded
from bandchol.stats import banded_regression

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# every public fit of the data or a GramBand of it, at bandwidth k
BAND_FITS = {
    "banded_regression": banded_regression,
    "bl_banded_estimator": bl_banded_estimator,
    "graphical_mle_banded": graphical_mle_banded,
    "fit_posterior": lambda data, k: fit_posterior(data, PriorConfig(k)),
    "plug_in_estimator": lambda data, k: plug_in_estimator(fit_posterior(data, PriorConfig(k))),
    "log_marginal_k": log_marginal_k,
    "select_k_posterior_mode": select_k_posterior_mode,
}


def lower(band):
    """Dense strictly lower p x p matrix of a (p, k) coefficient band.

    Row j of the band holds the coefficients on columns j-k, ..., j-1;
    slots left of column 0 are dropped.
    """
    band = np.asarray(band, dtype=float)
    p, k = band.shape
    out = np.zeros((p, p))
    for j in range(p):
        for s in range(k):
            if j - k + s >= 0:
                out[j, j - k + s] = band[j, s]
    return out


def random_band(rng, p, k, scale=1.0):
    """A (p, k) coefficient band of normal entries, zero before the first coordinate."""
    real = np.add.outer(np.arange(p), np.arange(k)) >= k
    return np.where(real, scale * rng.standard_normal((p, k)), 0.0)


def widest_bisected_band(p):
    """The largest lower bandwidth that norm_spectral bisects at order p."""
    return math.isqrt(p ** 3 // linalg.BAND_BISECTION_LIMIT)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)
