"""Seeded simulation experiments over known precision structures.

An experiment draws Gaussian data from a chosen truth, selects a
bandwidth, forms the requested estimators, and records losses against the
true precision matrix over many replications. FITS and ESTIMATORS are the
one list of estimators, which bandchol estimate shares: each simulation
name is a fit at the bandwidth of one selector, and a replication runs
only the selectors its estimators read. Replication r derives its
RNG streams from (seed, r) by counter-based mixing, so results do not
depend on worker count or scheduling, and a rerun with the same config is
byte-identical. Each process builds a truth once and keeps the Cholesky
factor of its covariance, which draws every replication's data.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import get_context

import numpy as np
from scipy.linalg import cho_solve

from . import linalg
from .bandwidth import KMAX_CAP, REF_BANDWIDTH, SPLITS, _check_resampling
from .bandwidth import select_k_posterior_mode, select_k_resampling
from .bayes import LOSSES, PriorConfig, fit_posterior, max_bandwidth, plug_in_estimator
from .competitors import bl_banded_estimator, graphical_mle_banded
from .errors import BandcholError, EmptyGrid, ExperimentFailed, SingularMatrix
from .linalg import _integer, _real
from .stats import gram_band

# the parameter each true model variant reads
VARIANTS = {"ar1": "rho", "ar4": "coeffs", "fgn": "hurst"}
# the fourth-order autoregression's precision entries on lags 1..4
AR4_COEFFS = (0.4, 0.2, 0.2, 0.1)


# ---------------------------------------------------------------------------
# true models
# ---------------------------------------------------------------------------

def _check_ar1(rho, p):
    _real("rho", rho, lambda v: abs(v) < 1, "a number with |rho| < 1")
    _integer("p", p, 1)


def make_ar1_cov(rho, p):
    """Covariance with entries rho^|i-j| (first-order autoregression)."""
    _check_ar1(rho, p)
    idx = np.arange(p)
    return float(rho) ** np.abs(idx[:, None] - idx[None, :])


def ar1_precision(rho, p):
    """Closed-form tridiagonal inverse of make_ar1_cov(rho, p)."""
    _check_ar1(rho, p)
    if p == 1:
        return np.array([[1.0]])
    scale = 1.0 / (1.0 - rho * rho)
    omega = np.zeros((p, p))
    np.fill_diagonal(omega, (1.0 + rho * rho) * scale)
    omega[0, 0] = omega[-1, -1] = scale
    off = -rho * scale
    idx = np.arange(p - 1)
    omega[idx, idx + 1] = off
    omega[idx + 1, idx] = off
    return omega


def make_ar4_precision(p, coeffs=AR4_COEFFS):
    """Banded Toeplitz precision: unit diagonal, coeffs on lags 1..4."""
    _integer("p", p, 5)
    if len(coeffs) != 4:
        raise ValueError("coeffs must supply lags 1..4")
    omega = np.eye(p)
    for lag, value in enumerate(coeffs, start=1):
        idx = np.arange(p - lag)
        omega[idx, idx + lag] = value
        omega[idx + lag, idx] = value
    return omega


@lru_cache(maxsize=8)
def _ar4_factor(p, coeffs):
    """Cholesky factor of make_ar4_precision(p, coeffs); ValueError if not SPD."""
    try:
        return linalg._spd_factor(make_ar4_precision(p, coeffs), "precision matrix")[1]
    except SingularMatrix:
        raise ValueError(f"model.coeffs: {list(coeffs)} give no positive definite "
                         f"precision matrix at p = {p}") from None


def make_fgn_cov(hurst, p):
    """Covariance of fractional Gaussian noise increments with index hurst."""
    _real("hurst", hurst, lambda v: 0 < v < 1, "a number in (0, 1)")
    _integer("p", p, 1)
    idx = np.arange(p)
    m = np.abs(idx[:, None] - idx[None, :]).astype(float)
    h2 = 2.0 * hurst
    return 0.5 * ((m + 1.0) ** h2 - 2.0 * m**h2 + np.abs(m - 1.0) ** h2)


def _names(path, value, allowed):
    """value as a tuple, if it is a nonempty list of distinct names from allowed."""
    if (not isinstance(value, (list, tuple)) or not value
            or any(v not in allowed for v in value) or len(set(value)) < len(value)):
        raise ValueError(f"{path}: expected a nonempty list of distinct names from "
                         f"{list(allowed)}, got {value!r}")
    return tuple(value)


def _object(path, d, known, required=()):
    """Reject d unless it is a JSON object with only known keys and every required one."""
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object, got {d!r}")
    if set(d) - set(known):
        raise ValueError(f"{path}: unknown fields {sorted(set(d) - set(known))}")
    for name in required:
        if name not in d:
            raise ValueError(f"{path}: required field {name!r} is missing")


@dataclass(frozen=True)
class TrueModelSpec:
    """Declarative description of the data-generating truth. Every field is
    checked, whichever variant reads it."""

    variant: str
    p: int
    rho: float = 0.3
    coeffs: tuple = AR4_COEFFS
    hurst: float = 0.7

    def __post_init__(self):
        if self.variant not in list(VARIANTS):  # a list: a JSON list is unhashable
            raise ValueError(f"model.variant: unknown variant {self.variant!r}, "
                             f"expected one of {list(VARIANTS)}")
        _integer("p", self.p, 1)
        _real("model.rho", self.rho, lambda v: abs(v) < 1, "a number with |rho| < 1")
        _real("model.hurst", self.hurst, lambda v: 0 < v < 1, "a number in (0, 1)")
        if not isinstance(self.coeffs, (list, tuple)) or len(self.coeffs) != 4:
            raise ValueError("model.coeffs: expected a list of 4 numbers for lags "
                             f"1..4, got {self.coeffs!r}")
        object.__setattr__(self, "coeffs", tuple(
            _real(f"model.coeffs[{i}]", c, math.isfinite, "a finite number")
            for i, c in enumerate(self.coeffs)))
        if self.variant == "ar4":
            if self.p < 5:
                raise ValueError("p: the ar4 model's fourth-order band needs p >= 5")
            _ar4_factor(self.p, self.coeffs)

    def build(self):
        """Return (sigma, omega): the covariance and precision of the truth."""
        return self._build()[:2]

    def _build(self):
        """build()'s (sigma, omega) and, when inverting sigma factored it
        (fgn), sigma's lower Cholesky factor as sample_gaussian checks and
        factors it; None otherwise."""
        if self.variant == "ar1":
            return make_ar1_cov(self.rho, self.p), ar1_precision(self.rho, self.p), None
        if self.variant == "ar4":
            sigma = cho_solve((_ar4_factor(self.p, self.coeffs), True), np.eye(self.p))
            return (sigma + sigma.T) / 2.0, make_ar4_precision(self.p, self.coeffs), None
        sigma = make_fgn_cov(self.hurst, self.p)
        low = linalg._spd_factor(sigma, "covariance matrix")[1]
        omega = cho_solve((low, True), np.eye(self.p))
        return sigma, (omega + omega.T) / 2.0, low

    def to_dict(self):
        name = VARIANTS[self.variant]
        value = getattr(self, name)
        return {"variant": self.variant, name: list(value) if name == "coeffs" else value}

    @classmethod
    def from_dict(cls, d, p):
        """Build the truth from a config's model object and its p: the
        variant and no parameter but the one that variant reads."""
        _object("model", d, ("variant", *VARIANTS.values()), required=("variant",))
        variant = d["variant"]
        # an unknown variant is named by __post_init__
        extra = set(d) - {"variant", VARIANTS[variant]} if variant in list(VARIANTS) else ()
        if extra:
            raise ValueError(f"model.{min(extra)}: the {variant} model does not read it")
        return cls(p=p, **d)


@lru_cache(maxsize=8)
def _truth(model):
    """(low, omega): the lower Cholesky factor of the truth's covariance,
    checked and factored as sample_gaussian does, and its precision. The
    factor is build()'s when build() made one."""
    sigma, omega, low = model._build()
    if low is None:
        low = linalg._spd_factor(sigma, "covariance matrix")[1]
    return low, omega


def _draw(low, n, rng):
    """n rows of N(0, low @ low.T) from the Generator rng."""
    return rng.standard_normal((n, low.shape[0])) @ low.T


def sample_gaussian(sigma, n, rng):
    """n rows drawn from N(0, sigma), as L z with L the Cholesky factor."""
    _, low = linalg._spd_factor(sigma, "covariance matrix")
    _integer("n", n, 1)
    return _draw(low, n, np.random.default_rng(rng))


def evaluate_losses(estimate, truth, losses=LOSSES):
    """Matrix norms of estimate - truth, keyed by loss name."""
    estimate = linalg.check_finite(estimate, "estimate")
    truth = linalg.check_finite(truth, "truth")
    if estimate.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: estimate {estimate.shape} vs truth {truth.shape}"
        )
    diff = estimate - truth
    out = {}
    for name in losses:
        if name not in LOSSES:
            raise ValueError(f"unknown loss {name!r}")
        out[name] = linalg.NORMS_BY_NAME[name](diff)
    return out


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

# fit name -> the dense estimate at bandwidth k from stat, the data's GramBand
# at least min(k, p-1) wide (or the data itself), and prior, the variance
# prior's M and nu0 as PriorConfig keywords: the posterior plug-in, the
# banded regression estimator and the banded graphical MLE
FITS = {
    "LL": lambda stat, k, prior: plug_in_estimator(fit_posterior(stat, PriorConfig(k, **prior))),
    "BL": lambda stat, k, prior: bl_banded_estimator(stat, k),
    "MLE": lambda stat, k, prior: graphical_mle_banded(stat, k),
}

# simulation estimator -> (the RepRecord field holding its bandwidth, its fit):
# k_mode from the posterior-mode grid, k_bl from the resampling selector
ESTIMATORS = {"LL": ("k_mode", "LL"), "BL1": ("k_bl", "BL"),
              "BL2": ("k_mode", "BL"), "MLE": ("k_mode", "MLE")}


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

# JSON key -> ExperimentConfig field, in each nested object of a config
SECTIONS = {
    "selection": {"kmax": "kmax", "splits": "splits", "reference_bandwidth": "ref_bandwidth"},
    "prior": {"M": "cap", "nu0": "nu0"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one simulation experiment. Construction
    checks every field: a bad one raises a ValueError naming its JSON path,
    and an empty bandwidth grid raises EmptyGrid."""

    model: TrueModelSpec
    n: int
    reps: int = 100
    seed: int = 0
    estimators: tuple = tuple(ESTIMATORS)
    losses: tuple = LOSSES
    kmax: int = KMAX_CAP
    splits: int = SPLITS
    ref_bandwidth: int = REF_BANDWIDTH
    cap: float = PriorConfig.M
    nu0: float = PriorConfig.nu0

    def __post_init__(self):
        _integer("n", self.n, 1)
        _integer("reps", self.reps, 1)
        _integer("seed", self.seed, 0)
        object.__setattr__(self, "estimators",
                           _names("estimators", self.estimators, tuple(ESTIMATORS)))
        object.__setattr__(self, "losses", _names("losses", self.losses, LOSSES))
        _integer("selection.splits", self.splits, 1)
        _integer("selection.reference_bandwidth", self.ref_bandwidth, 1)
        object.__setattr__(self, "cap", _real("prior.M", self.cap, lambda v: v > 0,
                                              "a positive number"))
        object.__setattr__(self, "nu0", _real("prior.nu0", self.nu0, math.isfinite,
                                              "a finite number"))
        _integer("selection.kmax", self.kmax)
        if self.kmax < 1:
            raise EmptyGrid(f"selection.kmax: bandwidth grid 1..{self.kmax} is empty")
        widest = max_bandwidth(self.n, self.p, self.nu0)
        if self.kmax > widest:
            raise ValueError(f"selection.kmax={self.kmax} exceeds the largest "
                             f"admissible bandwidth {widest}")
        if any(ESTIMATORS[est][0] == "k_bl" for est in self.estimators):
            _check_resampling(self.n, self.p, self.kmax, self.ref_bandwidth,
                              names=("selection.kmax", "selection.reference_bandwidth"))

    @property
    def p(self):
        return self.model.p

    def to_dict(self):
        """JSON-ready echo of every field, defaults included."""
        out = {
            "model": self.model.to_dict(),
            "n": self.n,
            "p": self.p,
            "reps": self.reps,
            "seed": self.seed,
            "estimators": list(self.estimators),
            "losses": list(self.losses),
        }
        for section, keys in SECTIONS.items():
            out[section] = {key: getattr(self, name) for key, name in keys.items()}
        return out

    @classmethod
    def from_dict(cls, d):
        """Build a config from a parsed JSON dict, naming bad fields; a
        missing key takes the field's default."""
        _object("config", d, ("model", "n", "p", "reps", "seed", "estimators", "losses",
                              *SECTIONS), required=("model", "n", "p"))
        kwargs = {key: value for key, value in d.items() if key not in ("model", "p", *SECTIONS)}
        for section, keys in SECTIONS.items():
            given = d.get(section, {})
            _object(section, given, keys)
            kwargs.update((keys[key], value) for key, value in given.items())
        return cls(model=TrueModelSpec.from_dict(d["model"], d["p"]), **kwargs)


@dataclass
class RepRecord:
    """Outcome of one replication; wall time stays out of serialized output."""

    rep: int
    k_mode: int = None
    k_bl: int = None
    losses: dict = field(default_factory=dict)
    error: str = None
    wall_time_s: float = 0.0


@dataclass
class ExperimentResult:
    """All replication records plus the mean/sd summary table."""

    config: ExperimentConfig
    records: list
    summary: dict
    n_failed: int


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _rep_streams(seed, rep):
    """Independent generators for data and resampling, mixed from (seed, rep)."""
    data_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, 0)))
    split_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, 1)))
    return data_rng, split_rng


def _run_rep(config, rep):
    start = time.perf_counter()
    record = RepRecord(rep=rep)
    low, omega0 = _truth(config.model)
    data_rng, split_rng = _rep_streams(config.seed, rep)
    data = _draw(low, config.n, data_rng)
    try:
        # every bandwidth below is at most kmax, so one band serves the
        # grid and every estimator
        stat = gram_band(data, config.kmax)
        prior = {"M": config.cap, "nu0": config.nu0}
        sources = {ESTIMATORS[est][0] for est in config.estimators}
        if "k_mode" in sources:
            record.k_mode = select_k_posterior_mode(stat, config.kmax,
                                                    prior=PriorConfig(0, **prior)).mode
        if "k_bl" in sources:
            record.k_bl = select_k_resampling(
                data, config.kmax, splits=config.splits,
                ref_bandwidth=config.ref_bandwidth, rng=split_rng,
            ).mode
        # every fit runs before any loss, so a failed fit leaves no losses
        estimates = {}
        for est in config.estimators:
            source, fit = ESTIMATORS[est]
            estimates[est] = FITS[fit](stat, getattr(record, source), prior)
        for est in config.estimators:
            record.losses[est] = evaluate_losses(estimates[est], omega0, config.losses)
    except BandcholError as err:
        record.error = f"{type(err).__name__}: {err}"
    record.wall_time_s = time.perf_counter() - start
    return record


def _rep_task(args):
    return _run_rep(*args)


def run_experiment(config, workers=1):
    """Run every replication and aggregate mean/sd losses.

    Replications are independent and seeded individually, so the result is
    identical for any worker count. Raises ExperimentFailed when more than
    5 percent of replications hit numerical errors; failed replications
    are excluded from the summary but kept in the records. workers is an
    integer >= 1, or None for one.
    """
    if workers is not None:
        _integer("workers", workers, 1)
    tasks = [(config, rep) for rep in range(config.reps)]
    if workers is not None and workers > 1 and config.reps > 1:
        ctx = get_context("spawn")
        chunk = max(1, config.reps // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            records = list(pool.map(_rep_task, tasks, chunksize=chunk))
    else:
        records = [_rep_task(task) for task in tasks]

    failed = [rec for rec in records if rec.error is not None]
    if len(failed) > 0.05 * config.reps:
        raise ExperimentFailed(
            f"{len(failed)} of {config.reps} replications failed; first: "
            f"{failed[0].error}"
        )
    summary = {}
    good = [rec for rec in records if rec.error is None]
    for est in config.estimators:
        summary[est] = {}
        for loss in config.losses:
            vals = np.array([rec.losses[est][loss] for rec in good])
            sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            summary[est][loss] = {"mean": float(np.mean(vals)), "sd": sd}
    return ExperimentResult(
        config=config, records=records, summary=summary, n_failed=len(failed)
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value):
    return format(float(value), ".17g")


def records_csv_text(result):
    """One CSV row per replication, deterministic down to the byte."""
    config = result.config
    header = ["rep", "k_mode", "k_bl"]
    for est in config.estimators:
        for loss in config.losses:
            header.append(f"{est}_{loss}")
    header.append("error")
    lines = [",".join(header)]
    for rec in result.records:
        row = [
            str(rec.rep),
            "" if rec.k_mode is None else str(rec.k_mode),
            "" if rec.k_bl is None else str(rec.k_bl),
        ]
        for est in config.estimators:
            for loss in config.losses:
                if rec.error is None:
                    row.append(_fmt(rec.losses[est][loss]))
                else:
                    row.append("")
        row.append("" if rec.error is None else rec.error.replace(",", ";"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_payload(result):
    """JSON-ready summary: config echo, loss table, failure count."""
    return {
        "config": result.config.to_dict(),
        "summary": result.summary,
        "replications": result.config.reps,
        "failed": result.n_failed,
    }
