"""Truth generators, replication harness, and deterministic serialization."""

import json
import pathlib

import numpy as np
import pytest

from bandchol import linalg, simulate
from bandchol.bayes import PriorConfig, max_bandwidth
from bandchol.errors import EmptyGrid, ExperimentFailed, SingularDesign, SingularMatrix
from bandchol.linalg import norm_fro, norm_linf, norm_spectral
from bandchol.simulate import (
    ExperimentConfig,
    TrueModelSpec,
    ar1_precision,
    evaluate_losses,
    make_ar1_cov,
    make_ar4_precision,
    make_fgn_cov,
    records_csv_text,
    run_experiment,
    sample_gaussian,
    summary_payload,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# truth generators
# ---------------------------------------------------------------------------

def test_ar1_cov_values():
    np.testing.assert_allclose(
        make_ar1_cov(0.3, 3),
        [[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]],
    )


def test_ar1_precision_inverts_cov():
    omega = ar1_precision(0.3, 10)
    np.testing.assert_allclose(omega, np.linalg.inv(make_ar1_cov(0.3, 10)),
                               atol=1e-10)
    # tridiagonal by construction
    idx = np.arange(10)
    np.testing.assert_array_equal(omega[np.abs(idx[:, None] - idx) > 1], 0.0)


@pytest.mark.parametrize("rho, p", [(1.0, 5), (1.5, 4), (0.3, 0)])
def test_ar1_precision_rejects_what_make_ar1_cov_rejects(rho, p):
    # |rho| = 1 divided by zero, |rho| > 1 gave an indefinite matrix and
    # p = 0 indexed out of range
    with pytest.raises(ValueError) as cov:
        make_ar1_cov(rho, p)
    with pytest.raises(ValueError) as precision:
        ar1_precision(rho, p)
    assert str(precision.value) == str(cov.value)


def test_ar4_precision_values():
    omega = make_ar4_precision(8)
    np.testing.assert_allclose(omega[0, :6], [1.0, 0.4, 0.2, 0.2, 0.1, 0.0])
    np.testing.assert_array_equal(omega, omega.T)
    for p in (10, 100, 500):
        assert np.linalg.eigvalsh(make_ar4_precision(p))[0] > 0.0


def test_fgn_cov_values():
    np.testing.assert_array_equal(make_fgn_cov(0.5, 6), np.eye(6))
    sigma = make_fgn_cov(0.7, 40)
    assert sigma[0, 1] == pytest.approx(0.3195079107728942, abs=1e-15)
    # stationary: constant along diagonals
    assert sigma[10, 11] == sigma[0, 1] and sigma[3, 7] == sigma[0, 4]
    assert np.linalg.eigvalsh(sigma)[0] > 0.0


def test_true_model_spec_build_and_validate():
    for spec in (TrueModelSpec("ar1", 12, rho=0.3),
                 TrueModelSpec("ar4", 12),
                 TrueModelSpec("fgn", 12, hurst=0.7)):
        sigma, omega = spec.build()
        np.testing.assert_allclose(sigma @ omega, np.eye(12), atol=1e-8)
    with pytest.raises(ValueError):
        TrueModelSpec("ar2", 10)
    with pytest.raises(ValueError):
        TrueModelSpec("ar1", 10, rho=1.0)
    with pytest.raises(ValueError):
        TrueModelSpec("ar4", 4)
    with pytest.raises(ValueError):
        TrueModelSpec("ar4", 10, coeffs=(0.4, 0.2))
    with pytest.raises(ValueError):
        TrueModelSpec("fgn", 10, hurst=0.0)
    # whether ar4 coefficients give a positive definite precision matrix
    # depends on p: these pass at p = 5 (smallest eigenvalue 0.10) and fail
    # at p = 8 (-0.65)
    TrueModelSpec("ar4", 5, coeffs=(0.9, 0.9, 0.9, 0.9))
    with pytest.raises(ValueError, match=r"model\.coeffs: .* at p = 8"):
        TrueModelSpec("ar4", 8, coeffs=(0.9, 0.9, 0.9, 0.9))


def test_ar4_precision_factored_once_per_process(monkeypatch):
    # the construction check factors the precision matrix, and build() and
    # the replications' cached truth reuse that factor
    simulate._ar4_factor.cache_clear()
    simulate._truth.cache_clear()
    factored = []
    real_factor = linalg._spd_factor

    def factor(m, name):
        factored.append(name)
        return real_factor(m, name)

    monkeypatch.setattr(linalg, "_spd_factor", factor)
    spec = TrueModelSpec("ar4", 11)
    sigma, omega = spec.build()
    simulate._truth(TrueModelSpec("ar4", 11))
    assert factored == ["precision matrix", "covariance matrix"]
    np.testing.assert_allclose(sigma @ omega, np.eye(11), atol=1e-8)
    simulate._truth.cache_clear()


def test_model_dict_round_trip():
    spec = TrueModelSpec("ar4", 20, coeffs=(0.5, 0.1, 0.1, 0.05))
    again = TrueModelSpec.from_dict(spec.to_dict(), 20)
    assert again == spec
    with pytest.raises(ValueError):
        TrueModelSpec.from_dict({"variant": "ar1", "shape": 3}, 10)
    with pytest.raises(ValueError):
        TrueModelSpec.from_dict({"rho": 0.3}, 10)


# ---------------------------------------------------------------------------
# sampling and losses
# ---------------------------------------------------------------------------

def test_sample_gaussian_deterministic():
    sigma = make_ar1_cov(0.3, 5)
    a = sample_gaussian(sigma, 7, np.random.default_rng(3))
    b = sample_gaussian(sigma, 7, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7, 5)


def test_sample_gaussian_factors_sigma_once(monkeypatch):
    # the Cholesky factor that validates sigma also draws the rows, so the
    # draws equal L z for the factor of the symmetrized sigma, bit for bit
    sigma = make_ar1_cov(0.4, 6)
    sigma[0, 5] += 1e-14
    low = np.linalg.cholesky((sigma + sigma.T) / 2.0)
    expected = np.random.default_rng(3).standard_normal((9, 6)) @ low.T
    calls = []
    real = np.linalg.cholesky

    def counted(m):
        calls.append(1)
        return real(m)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    x = sample_gaussian(sigma, 9, np.random.default_rng(3))
    assert len(calls) == 1
    np.testing.assert_array_equal(x, expected)
    with pytest.raises(ValueError, match="not symmetric"):
        sample_gaussian(np.array([[1.0, 0.5], [0.0, 1.0]]), 3, 0)
    with pytest.raises(SingularMatrix):
        sample_gaussian(np.diag([1.0, 0.0]), 3, 0)
    with pytest.raises(ValueError, match="^n: expected an integer >= 1, got 0"):
        sample_gaussian(sigma, 0, 0)


@pytest.mark.parametrize("model", [TrueModelSpec("ar1", 8, rho=0.4),
                                   TrueModelSpec("ar4", 9),
                                   TrueModelSpec("fgn", 10, hurst=0.8)])
def test_replication_data_from_cached_factor(monkeypatch, model):
    # a replication draws its data from the truth's cached factor, bit for
    # bit as sample_gaussian draws them from sigma. Every SPD factorization
    # of the truth goes through _spd_factor, once for all replications of
    # the model: the one through which build() inverts the matrix it starts
    # from (omega for ar4, sigma for fgn) and, for ar1 and ar4, sigma's for
    # the draws. fgn draws from the factor of sigma that build() made
    config = small_config(model=model, reps=3, estimators=("LL",), losses=("fro",))
    simulate._truth.cache_clear()
    simulate._ar4_factor.cache_clear()
    data, factored = [], []
    real_gram, real_factor = simulate.gram_band, linalg._spd_factor

    def gram(x, width):
        data.append(x)
        return real_gram(x, width)

    def factor(m, name):
        factored.append(name)
        return real_factor(m, name)

    monkeypatch.setattr(simulate, "gram_band", gram)
    monkeypatch.setattr(linalg, "_spd_factor", factor)
    for rep in range(config.reps):
        simulate._run_rep(config, rep)
    assert factored == {"ar1": ["covariance matrix"],
                        "ar4": ["precision matrix", "covariance matrix"],
                        "fgn": ["covariance matrix"]}[model.variant]
    monkeypatch.undo()
    sigma = model.build()[0]
    for rep, x in enumerate(data):
        data_rng = simulate._rep_streams(config.seed, rep)[0]
        np.testing.assert_array_equal(x, sample_gaussian(sigma, config.n, data_rng))
    simulate._truth.cache_clear()


def test_sample_gaussian_moments():
    sigma = make_ar1_cov(0.5, 3)
    x = sample_gaussian(sigma, 200_000, np.random.default_rng(4))
    np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(x.T @ x / x.shape[0], sigma, atol=0.02)


def test_evaluate_losses_matches_norms():
    rng = np.random.default_rng(5)
    est = rng.standard_normal((6, 6))
    est = (est + est.T) / 2.0
    truth = np.eye(6)
    out = evaluate_losses(est, truth)
    diff = est - truth
    assert out["spectral"] == pytest.approx(norm_spectral(diff))
    assert out["linf"] == pytest.approx(norm_linf(diff))
    assert out["fro"] == pytest.approx(norm_fro(diff))
    only = evaluate_losses(est, truth, losses=("fro",))
    assert set(only) == {"fro"}


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def small_config(**overrides):
    base = dict(
        model=TrueModelSpec("ar1", 10, rho=0.3),
        n=40,
        reps=3,
        seed=0,
        estimators=("LL", "BL1", "BL2", "MLE"),
        losses=("spectral", "fro"),
        kmax=3,
        splits=4,
        ref_bandwidth=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(ValueError, match="estimators"):
        small_config(estimators=("LL", "LL"))
    # a default grid wider than a split's n//3 - 1 = 15 rows can fit, when
    # BL1 resamples, and a reference wider than the other 34 rows can fit
    with pytest.raises(ValueError, match="selection.kmax"):
        ExperimentConfig(model=TrueModelSpec("ar1", 30), n=50, estimators=("BL1",))
    with pytest.raises(ValueError, match="selection.reference_bandwidth"):
        ExperimentConfig(model=TrueModelSpec("ar1", 40), n=50, estimators=("BL1",),
                         kmax=15, ref_bandwidth=34)
    ExperimentConfig(model=TrueModelSpec("ar1", 30), n=50, estimators=("BL1",), kmax=15)
    ExperimentConfig(model=TrueModelSpec("ar1", 30), n=50, estimators=("LL",))
    with pytest.raises(ValueError):
        small_config(estimators=("LL", "XX"))
    with pytest.raises(ValueError):
        small_config(losses=())
    with pytest.raises(ValueError):
        small_config(n=0)


def test_config_dict_round_trip():
    config = small_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict({"n": 10})
    assert "model" in str(info.value)
    bad = config.to_dict()
    bad["selection"]["splits"] = "many"
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict(bad)
    assert "splits" in str(info.value)


def test_config_checks_run_at_construction():
    # a config built in Python fails as the same config read from a file
    # does, and a key a file leaves out takes the field's default
    model = TrueModelSpec("ar1", 100)
    with pytest.raises(ValueError) as built:
        ExperimentConfig(model, n=100, splits=0)
    bad = ExperimentConfig(model, n=100).to_dict()
    bad["selection"]["splits"] = 0
    with pytest.raises(ValueError) as read:
        ExperimentConfig.from_dict(bad)
    assert str(built.value) == str(read.value)
    assert str(built.value).startswith("selection.splits:")
    minimal = {"model": {"variant": "ar1"}, "n": 100, "p": 100}
    assert ExperimentConfig.from_dict(minimal) == ExperimentConfig(model, n=100)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_configs_parse_and_round_trip(path):
    config = ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    # a prior given as integers echoes as floats
    assert isinstance(config.to_dict()["prior"]["nu0"], float)


def test_run_experiment_deterministic():
    config = small_config()
    first = run_experiment(config)
    second = run_experiment(config)
    assert records_csv_text(first) == records_csv_text(second)
    assert summary_payload(first) == summary_payload(second)
    assert first.n_failed == 0
    for rec in first.records:
        assert rec.k_mode in (1, 2, 3) and rec.k_bl in (1, 2, 3)
        assert set(rec.losses) == {"LL", "BL1", "BL2", "MLE"}


def test_estimator_table_is_the_list_of_names():
    # a config accepts exactly the table's names, by default all of them, and
    # each is a FITS entry at a RepRecord bandwidth; FITS has no unused fit
    assert small_config(estimators=ExperimentConfig.estimators).estimators == \
        tuple(simulate.ESTIMATORS) == ("LL", "BL1", "BL2", "MLE")
    for name, (source, fit) in simulate.ESTIMATORS.items():
        assert small_config(estimators=(name,)).estimators == (name,)
        assert source in ("k_mode", "k_bl") and fit in simulate.FITS
    assert {fit for _, fit in simulate.ESTIMATORS.values()} == set(simulate.FITS)
    with pytest.raises(ValueError, match=r"\['LL', 'BL1', 'BL2', 'MLE'\], got \['BL'\]"):
        small_config(estimators=["BL"])
    with pytest.raises(ValueError, match="estimators"):
        small_config(estimators=[["LL"]])


@pytest.mark.parametrize("estimators", [("LL",), ("BL2", "MLE"), ("BL1",), ("MLE", "BL1")])
def test_replication_runs_only_the_selectors_its_estimators_read(monkeypatch, estimators):
    # k_mode comes from the posterior-mode grid and k_bl from the resampler;
    # a selector no requested estimator reads is never called, and every
    # estimator's losses are those of the run with all four
    full = run_experiment(small_config(reps=2)).records
    needs = {simulate.ESTIMATORS[est][0] for est in estimators}
    for source, name in (("k_mode", "select_k_posterior_mode"), ("k_bl", "select_k_resampling")):
        if source not in needs:
            monkeypatch.setattr(simulate, name,
                                lambda *a, name=name, **kw: pytest.fail(f"{name} ran"))
    records = run_experiment(small_config(reps=2, estimators=estimators)).records
    for rec, whole in zip(records, full):
        assert rec.error is None
        assert rec.k_mode == (whole.k_mode if "k_mode" in needs else None)
        assert rec.k_bl == (whole.k_bl if "k_bl" in needs else None)
        assert rec.losses == {est: whole.losses[est] for est in estimators}


def test_failed_fit_leaves_no_losses(monkeypatch):
    # every fit runs before any loss, so a replication whose second fit
    # fails records the error and no losses of the first
    def singular(stat, k, prior):
        raise SingularDesign(2)

    monkeypatch.setitem(simulate.FITS, "MLE", singular)
    rec = simulate._run_rep(small_config(estimators=("LL", "MLE")), 0)
    assert rec.error == f"SingularDesign: {SingularDesign(2)}"
    assert rec.losses == {} and rec.k_mode is not None


def test_run_experiment_worker_count_invariant():
    config = small_config(reps=4)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    assert records_csv_text(serial) == records_csv_text(parallel)
    assert summary_payload(serial) == summary_payload(parallel)


def test_run_experiment_single_rep_sd_zero():
    result = run_experiment(small_config(reps=1, estimators=("LL",)))
    for loss_stats in result.summary["LL"].values():
        assert loss_stats["sd"] == 0.0


@pytest.mark.parametrize("name, call", [
    ("M", lambda: PriorConfig(k=1, M=True)),
    ("M", lambda: PriorConfig(k=1, M=np.array([3.0]))),
    ("M", lambda: PriorConfig(k=1, M="5")),
    ("M", lambda: PriorConfig(k=1, M=0.0)),
    ("nu0", lambda: PriorConfig(k=1, nu0=True)),
    ("nu0", lambda: PriorConfig(k=1, nu0=np.inf)),
    ("nu0", lambda: max_bandwidth(10, 5, "2")),
    ("n", lambda: max_bandwidth(10.5, 5, 2.0)),
    ("p", lambda: make_ar1_cov(0.3, 2.5)),
    ("rho", lambda: make_ar1_cov(True, 3)),
    ("p", lambda: make_fgn_cov(0.7, 2.5)),
    ("hurst", lambda: make_fgn_cov("0.7", 3)),
    ("p", lambda: ar1_precision(0.3, 2.5)),
    ("p", lambda: make_ar4_precision(6.5)),
    ("p", lambda: make_ar4_precision(4)),
    ("n", lambda: sample_gaussian(np.eye(3), 2.5, 0)),
    ("workers", lambda: run_experiment(small_config(reps=1), workers=2.5)),
    ("workers", lambda: run_experiment(small_config(reps=1), workers=0)),
], ids=["M-bool", "M-array", "M-string", "M-zero", "nu0-bool", "nu0-inf",
        "max_bandwidth-nu0", "max_bandwidth-n", "ar1_cov-p", "ar1_cov-rho", "fgn_cov-p",
        "fgn_cov-hurst", "ar1_precision-p", "ar4-p", "ar4-p-small", "sample_gaussian-n",
        "workers-float", "workers-zero"])
def test_public_numbers_raise_named_value_errors(monkeypatch, name, call):
    # a bool, an array, a string, a float where an integer belongs, or a value
    # out of range raises a ValueError that names the argument, before any work
    monkeypatch.setattr(simulate, "_run_rep", lambda *args: pytest.fail("replication ran"))
    with pytest.raises(ValueError, match=f"^{name}: expected "):
        call()


def test_run_experiment_workers_none_runs_serially():
    config = small_config(reps=2, estimators=("LL",))
    assert records_csv_text(run_experiment(config, workers=None)) == \
        records_csv_text(run_experiment(config, workers=1))


def test_empty_grid_is_rejected_before_any_replication(monkeypatch):
    # kmax = 0 is bad input, refused up front, not a failure of every replication
    monkeypatch.setattr(simulate, "_run_rep", lambda *args: pytest.fail("replication ran"))
    with pytest.raises(EmptyGrid, match="1..0 is empty"):
        run_experiment(small_config(kmax=0))


def test_run_experiment_failure_threshold():
    # a cap far below every innovation variance kills each replication
    config = small_config(estimators=("LL",), cap=1e-12)
    with pytest.raises(ExperimentFailed):
        run_experiment(config)


def test_records_csv_shape():
    config = small_config(reps=2, estimators=("LL", "BL1"), losses=("fro",))
    result = run_experiment(config)
    text = records_csv_text(result)
    lines = text.splitlines()
    assert lines[0] == "rep,k_mode,k_bl,LL_fro,BL1_fro,error"
    assert len(lines) == 3 and text.endswith("\n")
    for line in lines[1:]:
        assert line.endswith(",")  # empty error field


def test_summary_payload_shape():
    config = small_config(reps=2, estimators=("LL",), losses=("spectral",))
    payload = summary_payload(run_experiment(config))
    assert payload["replications"] == 2 and payload["failed"] == 0
    assert payload["config"]["model"] == {"variant": "ar1", "rho": 0.3}
    assert set(payload["summary"]["LL"]["spectral"]) == {"mean", "sd"}
