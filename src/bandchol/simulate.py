"""Seeded simulation experiments over known precision structures.

An experiment draws Gaussian data from a chosen truth, selects a
bandwidth, forms the requested estimators, and records losses against the
true precision matrix over many replications. Replication r derives its
RNG streams from (seed, r) by counter-based mixing, so results do not
depend on worker count or scheduling, and a rerun with the same config is
byte-identical. Each process builds a truth once and keeps the Cholesky
factor of its covariance, which draws every replication's data.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import get_context

import numpy as np
from scipy.linalg import cho_solve

from . import linalg
from .bandwidth import _check_resampling, select_k_posterior_mode, select_k_resampling
from .bayes import PriorConfig, fit_posterior, max_bandwidth, plug_in_estimator
from .competitors import bl_banded_estimator, graphical_mle_banded
from .errors import BandcholError, EmptyGrid, ExperimentFailed
from .stats import gram_matrix

ESTIMATORS = ("LL", "BL1", "BL2", "MLE")
LOSSES = ("spectral", "linf", "fro")
MODE_BASED = ("LL", "BL2", "MLE")


# ---------------------------------------------------------------------------
# true models
# ---------------------------------------------------------------------------

def make_ar1_cov(rho, p):
    """Covariance with entries rho^|i-j| (first-order autoregression)."""
    if not abs(rho) < 1:
        raise ValueError("ar1 needs |rho| < 1")
    if p < 1:
        raise ValueError("p must be positive")
    idx = np.arange(p)
    return float(rho) ** np.abs(idx[:, None] - idx[None, :])


def ar1_precision(rho, p):
    """Closed-form tridiagonal inverse of make_ar1_cov(rho, p)."""
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


def make_ar4_precision(p, coeffs=(0.4, 0.2, 0.2, 0.1)):
    """Banded Toeplitz precision: unit diagonal, coeffs on lags 1..4."""
    if p < 5:
        raise ValueError("fourth-order band needs p >= 5")
    if len(coeffs) != 4:
        raise ValueError("coeffs must supply lags 1..4")
    omega = np.eye(p)
    for lag, value in enumerate(coeffs, start=1):
        idx = np.arange(p - lag)
        omega[idx, idx + lag] = value
        omega[idx + lag, idx] = value
    return omega


def make_fgn_cov(hurst, p):
    """Covariance of fractional Gaussian noise increments with index hurst."""
    if not 0 < hurst < 1:
        raise ValueError("hurst index must lie in (0, 1)")
    if p < 1:
        raise ValueError("p must be positive")
    idx = np.arange(p)
    m = np.abs(idx[:, None] - idx[None, :]).astype(float)
    h2 = 2.0 * hurst
    return 0.5 * ((m + 1.0) ** h2 - 2.0 * m**h2 + np.abs(m - 1.0) ** h2)


@dataclass(frozen=True)
class TrueModelSpec:
    """Declarative description of the data-generating truth."""

    variant: str
    p: int
    rho: float = 0.3
    coeffs: tuple = (0.4, 0.2, 0.2, 0.1)
    hurst: float = 0.7

    def __post_init__(self):
        if self.variant not in ("ar1", "ar4", "fgn"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.p < 1:
            raise ValueError("model.p must be positive")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.variant == "ar1" and not abs(self.rho) < 1:
            raise ValueError("model.rho: |rho| < 1 required")
        if self.variant == "ar4":
            if self.p < 5:
                raise ValueError("model: fourth-order band needs p >= 5")
            if len(self.coeffs) != 4:
                raise ValueError("model.coeffs: must supply lags 1..4")
        if self.variant == "fgn" and not 0 < self.hurst < 1:
            raise ValueError("model.hurst: must lie in (0, 1)")

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
            omega = make_ar4_precision(self.p, self.coeffs)
            low = linalg._spd_factor(omega, "precision matrix")[1]
            sigma = cho_solve((low, True), np.eye(self.p))
            return (sigma + sigma.T) / 2.0, omega, None
        sigma = make_fgn_cov(self.hurst, self.p)
        low = linalg._spd_factor(sigma, "covariance matrix")[1]
        omega = cho_solve((low, True), np.eye(self.p))
        return sigma, (omega + omega.T) / 2.0, low

    def to_dict(self):
        out = {"variant": self.variant}
        if self.variant == "ar1":
            out["rho"] = self.rho
        elif self.variant == "ar4":
            out["coeffs"] = list(self.coeffs)
        else:
            out["hurst"] = self.hurst
        return out

    @classmethod
    def from_dict(cls, d, p):
        known = {"variant", "rho", "coeffs", "hurst"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"model: unknown fields {sorted(extra)}")
        if "variant" not in d:
            raise ValueError("model.variant: required")
        kwargs = {k: d[k] for k in ("rho", "hurst") if k in d}
        if "coeffs" in d:
            kwargs["coeffs"] = tuple(d["coeffs"])
        return cls(variant=d["variant"], p=p, **kwargs)


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
    if n < 1:
        raise ValueError("n must be positive")
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
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one simulation experiment."""

    model: TrueModelSpec
    n: int
    reps: int = 100
    seed: int = 0
    estimators: tuple = ESTIMATORS
    losses: tuple = LOSSES
    kmax: int = 20
    splits: int = 50
    ref_bandwidth: int = 20
    cap: float = 1e6
    nu0: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "losses", tuple(self.losses))
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r}")
        if not self.estimators:
            raise ValueError("estimators must be nonempty")
        for loss in self.losses:
            if loss not in LOSSES:
                raise ValueError(f"unknown loss {loss!r}")
        if not self.losses:
            raise ValueError("losses must be nonempty")

    @property
    def p(self):
        return self.model.p

    def to_dict(self):
        """JSON-ready echo of every field, defaults included."""
        return {
            "model": self.model.to_dict(),
            "n": self.n,
            "p": self.p,
            "reps": self.reps,
            "seed": self.seed,
            "estimators": list(self.estimators),
            "losses": list(self.losses),
            "selection": {
                "kmax": self.kmax,
                "splits": self.splits,
                "reference_bandwidth": self.ref_bandwidth,
            },
            "prior": {"M": self.cap, "nu0": self.nu0},
        }

    @classmethod
    def from_dict(cls, d):
        """Build a config from a parsed JSON dict, naming bad fields."""
        if not isinstance(d, dict):
            raise ValueError("config: expected a JSON object")
        known = {"model", "n", "p", "reps", "seed", "estimators", "losses",
                 "selection", "prior"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"config: unknown fields {sorted(extra)}")
        for name in ("model", "n", "p"):
            if name not in d:
                raise ValueError(f"{name}: required")
        def _int(path, value, minimum=1):
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ValueError(f"{path}: expected integer >= {minimum}, got {value!r}")
            return value
        p = _int("p", d["p"])
        if not isinstance(d["model"], dict):
            raise ValueError("model: expected an object")
        model = TrueModelSpec.from_dict(d["model"], p)
        selection = d.get("selection", {})
        if not isinstance(selection, dict):
            raise ValueError("selection: expected an object")
        prior = d.get("prior", {})
        if not isinstance(prior, dict):
            raise ValueError("prior: expected an object")
        extra = set(selection) - {"kmax", "splits", "reference_bandwidth"}
        if extra:
            raise ValueError(f"selection: unknown fields {sorted(extra)}")
        extra = set(prior) - {"M", "nu0"}
        if extra:
            raise ValueError(f"prior: unknown fields {sorted(extra)}")
        cap = prior.get("M", 1e6)
        if not isinstance(cap, (int, float)) or cap <= 0:
            raise ValueError(f"prior.M: expected positive number, got {cap!r}")
        nu0 = prior.get("nu0", 2.0)
        if not isinstance(nu0, (int, float)):
            raise ValueError(f"prior.nu0: expected number, got {nu0!r}")
        return cls(
            model=model,
            n=_int("n", d["n"]),
            reps=_int("reps", d.get("reps", 100)),
            seed=_int("seed", d.get("seed", 0), minimum=0),
            estimators=tuple(d.get("estimators", list(ESTIMATORS))),
            losses=tuple(d.get("losses", list(LOSSES))),
            kmax=_int("selection.kmax", selection.get("kmax", 20)),
            splits=_int("selection.splits", selection.get("splits", 50)),
            ref_bandwidth=_int(
                "selection.reference_bandwidth",
                selection.get("reference_bandwidth", 20),
            ),
            cap=float(cap),
            nu0=float(nu0),
        )


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
        gram = gram_matrix(data)
        estimates = {}
        if any(est in MODE_BASED for est in config.estimators):
            sel = select_k_posterior_mode(
                data, config.kmax, prior=PriorConfig(0, M=config.cap, nu0=config.nu0),
                gram=gram,
            )
            record.k_mode = sel.mode
        if "BL1" in config.estimators:
            record.k_bl = select_k_resampling(
                data, config.kmax, splits=config.splits,
                ref_bandwidth=config.ref_bandwidth, rng=split_rng,
            ).mode
        for est in config.estimators:
            if est == "LL":
                model = fit_posterior(
                    data, PriorConfig(record.k_mode, M=config.cap, nu0=config.nu0),
                    gram=gram,
                )
                estimates[est] = plug_in_estimator(model)
            elif est == "BL2":
                estimates[est] = bl_banded_estimator(data, record.k_mode, gram=gram)
            elif est == "MLE":
                estimates[est] = graphical_mle_banded(data, record.k_mode, gram=gram)
            else:
                estimates[est] = bl_banded_estimator(data, record.k_bl, gram=gram)
        for est in config.estimators:
            record.losses[est] = evaluate_losses(estimates[est], omega0, config.losses)
    except BandcholError as err:
        record.error = f"{type(err).__name__}: {err}"
    record.wall_time_s = time.perf_counter() - start
    return record


def _rep_task(args):
    return _run_rep(*args)


def _validate_runtime(config):
    if config.kmax < 1:
        raise EmptyGrid(f"bandwidth grid 1..{config.kmax} is empty")
    cap = max_bandwidth(config.n, config.p, config.nu0)
    if config.kmax > cap:
        raise ValueError(f"selection.kmax={config.kmax} exceeds the largest "
                         f"admissible bandwidth {cap}")
    if "BL1" in config.estimators:
        _check_resampling(config.n, config.p, config.ref_bandwidth)


def run_experiment(config, workers=1):
    """Run every replication and aggregate mean/sd losses.

    Replications are independent and seeded individually, so the result is
    identical for any worker count. Raises ExperimentFailed when more than
    5 percent of replications hit numerical errors; failed replications
    are excluded from the summary but kept in the records.
    """
    _validate_runtime(config)
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
