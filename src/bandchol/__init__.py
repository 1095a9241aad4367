"""Bayesian precision-matrix estimation with banded Cholesky priors."""

from .bandwidth import (
    BandwidthPosterior,
    ResamplingSelection,
    default_log_k_prior,
    log_marginal_k,
    select_k_posterior_mode,
    select_k_resampling,
)
from .bayes import (
    PosteriorModel,
    PriorConfig,
    estimate_p_loss,
    fit_posterior,
    ig_cdf,
    max_bandwidth,
    plug_in_estimator,
    posterior_mean_omega,
    sample_posterior,
)
from .competitors import bl_banded_estimator, graphical_mle_banded
from .errors import (
    BandcholError,
    DegenerateResidual,
    EmptyGrid,
    ExperimentFailed,
    NonFiniteLogPosterior,
    SingularDesign,
    SingularMatrix,
    TruncationMassZero,
)
from .mcd import CholeskyFactor, compose, decompose
from .simulate import (
    ExperimentConfig,
    ExperimentResult,
    RepRecord,
    TrueModelSpec,
    ar1_precision,
    evaluate_losses,
    make_ar1_cov,
    make_ar4_precision,
    make_fgn_cov,
    run_experiment,
    sample_gaussian,
)
from .stats import GramBand, banded_regression, gram_band, population_coefficients

__version__ = "0.1.0"
