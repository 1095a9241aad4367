"""End-to-end command line behavior: files in, files out, exit codes."""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

import bandchol
from bandchol import cli
from bandchol.bayes import PriorConfig, fit_posterior, plug_in_estimator
from bandchol.bandwidth import select_k_posterior_mode, select_k_resampling
from bandchol.cli import default_sidecar, main, resolve_threads
from bandchol.errors import TruncationMassZero
from bandchol.simulate import FITS
from bandchol.stats import as_data_matrix
from bandchol.simulate import TrueModelSpec, make_ar1_cov, sample_gaussian


def write_data(path, n=60, p=8, seed=0, header=False, shift=0.0):
    sigma = make_ar1_cov(0.3, p)
    x = sample_gaussian(sigma, n, np.random.default_rng(seed)) + shift
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(f"c{j}" for j in range(p)) + "\n")
        for row in x:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    return x


def test_default_sidecar_path():
    assert default_sidecar("/tmp/out.csv") == "/tmp/out.json"
    assert default_sidecar("run/omega") == "run/omega.json"


def test_resolve_threads():
    assert resolve_threads(3) == 3
    assert resolve_threads(None) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_threads(0)


WRITER_CASES = {
    "banded": np.diag(np.arange(1.0, 7.0)) + np.diag([0.5, -0.25, 1e-300, 3.0, 1e300], -1)
              + np.diag([0.5, -0.25, 1e-300, 3.0, 1e300], 1),
    "dense": np.random.default_rng(3).standard_normal((5, 4)) * 10.0 ** np.arange(-2, 2),
    "all zero": np.zeros((3, 4)),
    "signed zeros": np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 1.5], [0.0, 0.0, 0.0]]),
    "1x1": np.array([[2.0 / 3.0]]),
    "1x1 zero": np.array([[0.0]]),
    "single row": np.array([[0.0, 0.0, 1.0, -2.0, 0.0, 0.0]]),
    "integers": np.array([[0, 3], [0, 0]]),
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_write_matrix_csv_matches_savetxt_bytes(tmp_path, name):
    m = WRITER_CASES[name]
    cli.write_matrix_csv(tmp_path / "fast.csv", m)
    np.savetxt(tmp_path / "savetxt.csv", m, fmt="%.17g", delimiter=",")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_estimate_explicit_k_matches_library(tmp_path):
    data = tmp_path / "data.csv"
    x = write_data(data)
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--k", "2"]) == 0
    written = np.loadtxt(out, delimiter=",")
    expected = plug_in_estimator(fit_posterior(x, PriorConfig(k=2)))
    # 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(written, expected)
    sidecar = json.loads((tmp_path / "omega.json").read_text())
    assert sidecar["result"] == {"bandwidth": 2, "bandwidth_source": "explicit"}
    assert sidecar["parameters"]["estimator"] == "ll"
    assert sidecar["parameters"]["seed"] == 0
    assert sidecar["input"]["n"] == 60 and sidecar["input"]["p"] == 8
    assert "threads" not in json.dumps(sidecar)
    # --threads belongs to simulate only
    for command in ("estimate", "bandwidth"):
        with pytest.raises(SystemExit):
            main([command, str(data), "-o", str(out), "--threads", "1"])


def test_estimate_selected_k_matches_explicit(tmp_path):
    data = tmp_path / "data.csv"
    x = write_data(data)
    selected = tmp_path / "sel.csv"
    explicit = tmp_path / "exp.csv"
    assert main(["estimate", str(data), "-o", str(selected),
                 "--select-k", "mode"]) == 0
    mode = select_k_posterior_mode(x, 7).mode
    assert main(["estimate", str(data), "-o", str(explicit),
                 "--k", str(mode)]) == 0
    assert selected.read_bytes() == explicit.read_bytes()
    sidecar = json.loads((tmp_path / "sel.json").read_text())
    assert sidecar["result"]["bandwidth_source"] == "mode"
    assert sidecar["result"]["bandwidth"] == mode
    assert sidecar["parameters"]["kmax"] == 7
    # the mode's normalized posterior probability and log-gap to the runner-up
    post = select_k_posterior_mode(x, 7)
    weights = np.exp(post.log_posterior - post.log_posterior.max())
    assert sidecar["result"]["mode_probability"] == pytest.approx(1.0 / weights.sum(), rel=1e-12)
    runner_up = np.sort(post.log_posterior)[-2]
    assert sidecar["result"]["mode_log_gap"] == pytest.approx(
        post.log_posterior.max() - runner_up, rel=1e-12)
    assert 0.0 < sidecar["result"]["mode_probability"] <= 1.0
    assert sidecar["result"]["mode_log_gap"] >= 0.0


def test_one_gram_matrix_per_command(tmp_path, monkeypatch):
    # the posterior-mode grid and the estimator share one band of X'X/n,
    # and the package has no dense p x p Gram matrix to build; every band,
    # through the public gram_band or from already validated data, is one
    # _gram_band
    data = tmp_path / "data.csv"
    write_data(data)
    bands = []
    real_band = bandchol.stats._gram_band

    def counted(x, width):
        bands.append(width)
        return real_band(x, width)

    modules = (bandchol.stats, bandchol.cli, bandchol.bandwidth, bandchol.bayes,
               bandchol.competitors, bandchol.simulate)
    for module in modules:
        monkeypatch.setattr(module, "_gram_band", counted, raising=False)
    for estimator in ("ll", "bl", "mle"):
        bands.clear()
        assert main(["estimate", str(data), "-o", str(tmp_path / "omega.csv"),
                     "--estimator", estimator]) == 0
        assert len(bands) == 1, estimator
    bands.clear()
    assert main(["bandwidth", str(data), "-o", str(tmp_path / "profile.csv")]) == 0
    assert len(bands) == 1
    assert not any(hasattr(module, "gram_matrix") for module in (bandchol, *modules))


@pytest.mark.parametrize("argv, flag", [
    (["estimate", "--nu0", "nan", "--k", "2", "--estimator", "bl", "--kmax", "3"], "--nu0"),
    (["estimate", "--cap", "-1", "--estimator", "bl", "--k", "3"], "--cap"),
    (["estimate", "--cap", "0", "--select-k", "resampling", "--splits", "2"], "--cap"),
    (["bandwidth", "--nu0", "inf", "--scheme", "resampling", "--splits", "2"], "--nu0"),
])
def test_prior_flags_are_checked_for_every_command(tmp_path, capsys, argv, flag):
    # every sidecar echoes --cap and --nu0, so both are checked as PriorConfig
    # checks M and nu0, whether or not the command's fit or grid reads them
    assert_rejected_before_reading(tmp_path, capsys, argv, f"{flag}: expected a ")


@pytest.mark.parametrize("argv, flag", [
    (["estimate", "--splits", "0", "--seed", "-1"], "--seed"),
    (["estimate", "--splits", "0"], "--splits"),
    (["estimate", "--select-k", "resampling", "--seed", "-1"], "--seed"),
    (["estimate", "--select-k", "resampling", "--splits", "-2"], "--splits"),
    (["bandwidth", "--splits", "-2"], "--splits"),
    (["bandwidth", "--seed", "-3"], "--seed"),
    (["bandwidth", "--scheme", "resampling", "--seed", "-3"], "--seed"),
    (["bandwidth", "--scheme", "resampling", "--splits", "0"], "--splits"),
])
def test_seed_and_splits_are_checked_for_every_scheme(tmp_path, capsys, argv, flag):
    # every sidecar echoes --seed and --splits, so a negative seed or fewer
    # than one split is bad input under either scheme, as select_k_resampling
    # checks them
    assert_rejected_before_reading(tmp_path, capsys, argv, f"{flag}: expected an integer >= ")


def assert_rejected_before_reading(tmp_path, capsys, argv, message):
    """argv exits 2 with one line that starts with message, writes no file,
    and fails the same way when its data file is missing."""
    data = tmp_path / "data.csv"
    write_data(data)
    assert main([argv[0], str(data), "-o", str(tmp_path / "out.csv"), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bandchol: {message}") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["data.csv"]
    # before the data is read
    assert main([argv[0], str(tmp_path / "missing.csv"), "-o", str(tmp_path / "out.csv"),
                 *argv[1:]]) == 2
    assert capsys.readouterr().err == err


def test_json_is_strict(tmp_path, capsys):
    # a number JSON cannot hold fails the write before the file is opened; an
    # infinite cap is a valid prior, but its sidecar cannot echo it, so the
    # command fails as bad input naming --cap and leaves no file
    path = tmp_path / "out.json"
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_json(str(path), {"M": value})
        assert not path.exists()
    data = tmp_path / "data.csv"
    write_data(data)
    assert main(["estimate", str(data), "-o", str(tmp_path / "omega.csv"), "--cap", "inf"]) == 2
    assert capsys.readouterr().err.startswith("bandchol: --cap: expected a finite ")
    assert os.listdir(tmp_path) == ["data.csv"]


def reached(*args, **kwargs):
    raise AssertionError("reached")


@pytest.mark.parametrize("command", [
    ["estimate", "-o", "omega.csv"],
    ["estimate", "-o", "omega.csv", "--select-k", "resampling", "--splits", "2"],
    ["bandwidth", "-o", "profile.csv", "--scheme", "both", "--splits", "2"],
])
def test_infinite_cap_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    # no strict sidecar can echo an infinite cap, so it is bad input before
    # the data is read, any bandwidth is selected or any fit runs
    data = tmp_path / "data.csv"
    write_data(data)
    for name in ("read_data_csv", "select_k_posterior_mode", "select_k_resampling"):
        monkeypatch.setattr(cli, name, reached)
    monkeypatch.setitem(cli.FITS, "BL", reached)
    monkeypatch.setitem(cli.FITS, "LL", reached)
    name, flag, out, *rest = command
    assert main([name, str(data), flag, str(tmp_path / out), *rest, "--cap", "inf"]) == 2
    assert capsys.readouterr().err == (
        "bandchol: --cap: expected a finite positive number, got inf\n")
    assert os.listdir(tmp_path) == ["data.csv"]


@pytest.mark.parametrize("cap", ["Infinity", "1e400"])
def test_simulate_rejects_infinite_cap_before_any_replication(tmp_path, capsys, monkeypatch,
                                                              cap):
    # summary.json echoes prior.M, which json.load reads as inf from either
    # text; no replication runs and no output directory is made
    monkeypatch.setattr(cli, "run_experiment", reached)
    cfg = tmp_path / "config.json"
    cfg.write_text((CONFIG_DIR / "smoke.json").read_text().rstrip()[:-1]
                   + f', "prior": {{"M": {cap}}}}}\n')
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(out_dir),
                 "--threads", "1"]) == 2
    assert capsys.readouterr().err == "bandchol: prior.M: expected a finite number, got inf\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [[], ["--k", "2", "--estimator", "mle"]])
def test_estimate_scans_the_data_once(tmp_path, monkeypatch, flags):
    # read_data_csv checks the rows; the grid and the fit read their GramBand
    data = tmp_path / "data.csv"
    write_data(data)
    names = []
    real = bandchol.stats.check_finite

    def counted(m, name="matrix"):
        names.append(name)
        return real(m, name)

    monkeypatch.setattr(bandchol.stats, "check_finite", counted)
    assert main(["estimate", str(data), "-o", str(tmp_path / "omega.csv"), *flags]) == 0
    assert names.count("data") == 1


def test_estimate_resampling_scheme(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data, n=45, p=6)
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--select-k",
                 "resampling", "--splits", "5", "--seed", "4"]) == 0
    sidecar = json.loads((tmp_path / "omega.json").read_text())
    assert sidecar["result"]["bandwidth_source"] == "resampling"
    assert sidecar["parameters"]["seed"] == 4
    assert sidecar["parameters"]["splits"] == 5


def test_estimate_bl_and_mle_agree(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data)
    bl_out = tmp_path / "bl.csv"
    mle_out = tmp_path / "mle.csv"
    assert main(["estimate", str(data), "-o", str(bl_out),
                 "--estimator", "bl", "--k", "2"]) == 0
    assert main(["estimate", str(data), "-o", str(mle_out),
                 "--estimator", "mle", "--k", "2"]) == 0
    # graphical_mle_banded is the BL fit: the files match byte for byte
    assert bl_out.read_bytes() == mle_out.read_bytes()


@pytest.mark.parametrize("estimator", sorted(FITS))
@pytest.mark.parametrize("selection", ["mode", "resampling", "explicit"])
def test_estimate_writes_the_library_selection_and_table_fit(tmp_path, estimator, selection):
    # at n = 45, p = 16 the default grid is 1..min(20, p-1, n//3 - 1 with
    # resampling) and the reference bandwidth min(20, p-1): every
    # --estimator is its simulate.FITS entry at the k the library selects
    data = tmp_path / "data.csv"
    x = write_data(data, n=45, p=16)
    argv = ["estimate", str(data), "-o", str(tmp_path / "omega.csv"),
            "--estimator", estimator.lower(), "--splits", "4", "--seed", "3"]
    if selection == "mode":
        k = select_k_posterior_mode(x, 15, prior=PriorConfig(0)).mode
    elif selection == "resampling":
        argv += ["--select-k", "resampling"]
        k = select_k_resampling(x, 14, splits=4, ref_bandwidth=15,
                                rng=np.random.default_rng(3)).mode
    else:
        argv += ["--k", "3"]
        k = 3
    assert main(argv) == 0
    cli.write_matrix_csv(tmp_path / "library.csv", FITS[estimator](x, k, PriorConfig(0)))
    assert (tmp_path / "omega.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    result = json.loads((tmp_path / "omega.json").read_text())["result"]
    assert result["bandwidth"] == k
    assert result["bandwidth_source"] == selection


def test_estimator_choices_are_the_fit_table():
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions if action.choices
                      and "estimate" in action.choices)
    estimate = subparsers.choices["estimate"]
    choices = next(action.choices for action in estimate._actions
                   if action.dest == "estimator")
    assert list(choices) == [name.lower() for name in FITS] == ["ll", "bl", "mle"]


def test_estimate_header_and_center(tmp_path):
    plain = tmp_path / "plain.csv"
    x = write_data(plain, shift=5.0)
    headed = tmp_path / "headed.csv"
    write_data(headed, shift=5.0, header=True)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["estimate", str(plain), "-o", str(out_a),
                 "--center", "--k", "1"]) == 0
    assert main(["estimate", str(headed), "-o", str(out_b),
                 "--header", "--center", "--k", "1"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    centered = x - x.mean(axis=0)
    expected = plug_in_estimator(fit_posterior(centered, PriorConfig(k=1)))
    np.testing.assert_array_equal(np.loadtxt(out_a, delimiter=","), expected)


def test_bandwidth_both_schemes(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data, n=45, p=6)
    out = tmp_path / "profile.csv"
    assert main(["bandwidth", str(data), "-o", str(out), "--scheme", "both",
                 "--kmax", "3", "--splits", "5"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,k,value"
    schemes = [line.split(",")[0] for line in lines[1:]]
    assert schemes == ["mode"] * 3 + ["resampling"] * 3
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert set(sidecar["result"]) == {"selected", "mode_probability", "mode_log_gap",
                                      "resampling_risk_margin"}
    assert set(sidecar["result"]["selected"]) == {"mode", "resampling"}
    # the margin is the runner-up's risk minus the chosen k's, as printed
    risks = np.array([float(line.split(",")[2]) for line in lines[4:]])
    assert sidecar["result"]["selected"]["resampling"] == 1 + int(np.argmin(risks))
    assert sidecar["result"]["resampling_risk_margin"] == np.sort(risks)[1] - risks.min()
    assert sidecar["result"]["resampling_risk_margin"] >= 0.0
    assert sidecar["result"]["selected"]["mode"] in (1, 2, 3)
    values = np.array([float(line.split(",")[2]) for line in lines[1:4]])
    assert sidecar["result"]["mode_probability"] == pytest.approx(
        1.0 / np.exp(values - values.max()).sum(), rel=1e-12)
    assert sidecar["result"]["mode_log_gap"] == pytest.approx(
        values.max() - np.sort(values)[-2], rel=1e-12)
    assert main(["bandwidth", str(data), "-o", str(out), "--scheme", "resampling",
                 "--kmax", "3", "--splits", "5"]) == 0
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert set(sidecar["result"]) == {"selected", "resampling_risk_margin"}
    margin = sidecar["result"]["resampling_risk_margin"]
    # estimate reports the same margin for the same splits
    assert main(["estimate", str(data), "-o", str(tmp_path / "omega.csv"), "--select-k",
                 "resampling", "--kmax", "3", "--splits", "5"]) == 0
    sidecar = json.loads((tmp_path / "omega.json").read_text())
    assert sidecar["result"]["resampling_risk_margin"] == margin
    # a one-point grid has no runner-up
    assert main(["bandwidth", str(data), "-o", str(out), "--scheme", "resampling",
                 "--kmax", "1", "--splits", "5"]) == 0
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert sidecar["result"]["resampling_risk_margin"] is None


def test_resampling_grid_a_split_cannot_fit_is_bad_input(tmp_path, capsys):
    # at n = 50 a split fits each k on 16 rows: --kmax 20 (p = 30) would
    # leave every split an exact fit at k = 16; at n = 20 the reference
    # meets 14 rows, too few for --ref-bandwidth 19
    data = tmp_path / "data.csv"
    write_data(data, n=50, p=30)
    profile, omega = str(tmp_path / "profile.csv"), str(tmp_path / "omega.csv")
    for argv in (["bandwidth", str(data), "-o", profile, "--scheme", "resampling"],
                 ["estimate", str(data), "-o", omega, "--select-k", "resampling"]):
        assert main(argv + ["--kmax", "20"]) == 2
        err = capsys.readouterr().err
        assert "--kmax=20" in err and "numerical failure" not in err
    small = tmp_path / "small.csv"
    write_data(small, n=20, p=25)
    assert main(["estimate", str(small), "-o", omega, "--select-k", "resampling",
                 "--ref-bandwidth", "19"]) == 2
    assert "--ref-bandwidth=19" in capsys.readouterr().err
    assert not os.path.exists(profile) and not os.path.exists(omega)


def test_resampling_default_grid_fits_every_split(tmp_path):
    # the default kmax and reference bandwidth are capped at what the
    # splits fit, n//3 - 1 = 15 and n - n//3 - 1 = 33, and echoed as used
    data = tmp_path / "data.csv"
    write_data(data, n=50, p=30)
    profile = tmp_path / "profile.csv"
    assert main(["bandwidth", str(data), "-o", str(profile), "--scheme", "both",
                 "--splits", "3"]) == 0
    parameters = json.loads((tmp_path / "profile.json").read_text())["parameters"]
    assert parameters["kmax"] == 15 and parameters["reference_bandwidth"] == 20
    assert len(profile.read_text().splitlines()) == 1 + 2 * 15
    assert main(["estimate", str(data), "-o", str(tmp_path / "omega.csv"), "--select-k",
                 "resampling", "--splits", "3"]) == 0
    parameters = json.loads((tmp_path / "omega.json").read_text())["parameters"]
    assert parameters["kmax"] == 15 and parameters["reference_bandwidth"] == 20
    # the posterior mode alone keeps its own default grid
    assert main(["bandwidth", str(data), "-o", str(profile)]) == 0
    assert json.loads((tmp_path / "profile.json").read_text())["parameters"]["kmax"] == 20
    small = tmp_path / "small.csv"
    write_data(small, n=20, p=25)
    assert main(["bandwidth", str(small), "-o", str(profile), "--scheme", "resampling",
                 "--splits", "3"]) == 0
    parameters = json.loads((tmp_path / "profile.json").read_text())["parameters"]
    assert parameters["kmax"] == 5 and parameters["reference_bandwidth"] == 13


def test_bandwidth_two_columns(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data, p=2)
    out = tmp_path / "profile.csv"
    assert main(["bandwidth", str(data), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("mode,1,")
    # a one-point grid gives the mode all the mass and no runner-up
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert sidecar["result"]["mode_probability"] == 1.0
    assert sidecar["result"]["mode_log_gap"] is None


def test_simulate_reruns_byte_identical(tmp_path):
    config = {
        "model": {"variant": "ar1", "rho": 0.3},
        "n": 30,
        "p": 8,
        "reps": 2,
        "estimators": ["LL", "BL1"],
        "losses": ["fro"],
        "selection": {"kmax": 2, "splits": 3, "reference_bandwidth": 3},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--output-dir",
                 str(dir_a), "--threads", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--output-dir",
                 str(dir_b), "--threads", "2"]) == 0
    assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    assert (dir_a / "summary.json").read_bytes() == (dir_b / "summary.json").read_bytes()
    summary = json.loads((dir_a / "summary.json").read_text())
    assert summary["replications"] == 2 and summary["failed"] == 0
    assert summary["config"]["selection"]["kmax"] == 2


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": {"variant": "ar1"}, "n": 30}))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(out_dir)]) == 2
    assert "p" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg),
                 "--output-dir", str(out_dir)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing), "--output-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"bandchol: cannot read {missing}: ")
    assert not out_dir.exists()


def test_simulate_unwritable_summary_is_bad_input(tmp_path, capsys):
    # summary.json is opened after the replications ran; a directory in its
    # place exits 2 with one line naming it
    (tmp_path / "summary.json").mkdir()
    assert main(["simulate", "--config", str(CONFIG_DIR / "smoke.json"),
                 "--output-dir", str(tmp_path), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bandchol: cannot write {tmp_path / 'summary.json'}: ")
    assert err.count("\n") == 1 and not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("field, edit", [
    ("model.rho", {"model": {"variant": "ar1", "rho": "0.3"}}),
    ("model.hurst", {"model": {"variant": "fgn", "hurst": None}}),
    ("model.coeffs", {"model": {"variant": "ar4", "coeffs": 5}}),
    ("model.rho", {"model": {"variant": "ar4", "rho": [1]}}),
    ("model.rho", {"model": {"variant": "fgn", "rho": 0.9}}),
    ("estimators", {"estimators": 5}),
    ("losses", {"losses": None}),
    ("estimators", {"estimators": "LL"}),
    ("model.coeffs", {"model": {"variant": "ar4", "coeffs": ["a", 1, 2, 3]}}),
    ("prior.M", {"prior": {"M": True}}),
    ("estimators", {"estimators": ["LL", "LL"]}),
    ("losses", {"losses": ["fro", "fro"]}),
    ("selection.kmax", {"n": 50, "p": 30, "estimators": ["BL1"], "selection": {}}),
    ("model.coeffs", {"model": {"variant": "ar4", "coeffs": [0.9, 0.9, 0.9, 0.9]}}),
    ("selection: expected a JSON object", {"selection": [2]}),
    ("selection.kmax=7 exceeds the largest admissible bandwidth 6 (the MLE",
     {"n": 8, "p": 10, "estimators": ["MLE"], "selection": {"kmax": 7}, "prior": {"nu0": 4}}),
], ids=["rho-string", "hurst-null", "coeffs-number", "rho-list-under-ar4", "rho-under-fgn",
        "estimators-number", "losses-null", "estimators-string", "coeffs-string-entry",
        "M-true", "estimators-repeated", "losses-repeated", "kmax-beyond-split",
        "coeffs-not-positive-definite", "selection-not-object", "kmax-beyond-mle"])
def test_simulate_names_malformed_field(tmp_path, capsys, field, edit):
    # a field of the wrong type is bad input that names the field, not a
    # TypeError, and "M": true is not read as 1.0; a repeated name, a
    # default grid wider than a resampling split can fit, a grid wider than
    # the MLE admits, and ar4 coefficients whose precision matrix is not
    # positive definite at this p, name theirs too, and so does a parameter
    # the model does not read
    config = {"model": {"variant": "ar1", "rho": 0.3}, "n": 30, "p": 8, "reps": 1,
              "estimators": ["LL"], "losses": ["fro"], "selection": {"kmax": 2}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**config, **edit}))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(out_dir),
                 "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out_dir.exists()


SELECTING_COMMANDS = [
    ["estimate", "-o", "omega.csv"],
    ["estimate", "-o", "omega.csv", "--select-k", "resampling"],
    ["bandwidth", "-o", "profile.csv"],
    ["bandwidth", "-o", "profile.csv", "--scheme", "resampling"],
]


@pytest.mark.parametrize("command", SELECTING_COMMANDS)
def test_empty_bandwidth_grid_is_bad_input(tmp_path, capsys, command):
    # --kmax 0 leaves no bandwidth to select from: bad input (exit 2), not
    # a numerical failure (exit 3)
    data = tmp_path / "data.csv"
    write_data(data)
    name, flag, out, *rest = command
    argv = [name, str(data), flag, str(tmp_path / out), "--kmax", "0", *rest]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "bandwidth grid 1..0 is empty" in err and "numerical failure" not in err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("n, p", [(4, 1), (3, 5)])
@pytest.mark.parametrize("command", SELECTING_COMMANDS)
def test_empty_default_grid_names_its_sizes(tmp_path, capsys, command, n, p):
    # without --kmax the grid is empty when p = 1 or n + nu0 <= 5; the
    # message names the sizes behind it, not a grid that no flag set, and
    # the fit that needs no selection
    data = tmp_path / "data.csv"
    write_data(data, n=n, p=p)
    name, flag, out, *rest = command
    assert main([name, str(data), flag, str(tmp_path / out), *rest]) == 2
    err = capsys.readouterr().err
    assert f"n={n}, p={p} and nu0=2.0" in err and "--k 0" in err, err
    assert "1..0" not in err and "numerical failure" not in err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command, unwritable", [
    (["estimate", "{data}", "-o", "{missing}/omega.csv"], "{missing}/omega.csv"),
    (["estimate", "{data}", "-o", "{tmp}/omega.csv", "--sidecar", "{missing}/s.json"],
     "{missing}/s.json"),
    (["bandwidth", "{data}", "-o", "{missing}/profile.csv"], "{missing}/profile.csv"),
    (["bandwidth", "{data}", "-o", "{tmp}/profile.csv", "--sidecar", "{missing}/s.json"],
     "{missing}/s.json"),
    (["simulate", "--config", "{config}", "--output-dir", "{data}"], "{data}"),
    (["estimate", "{data}", "-o", "{tmp}"], "{tmp}"),
], ids=["estimate-output", "estimate-sidecar", "bandwidth-output", "bandwidth-sidecar",
        "simulate-output-dir", "estimate-output-directory"])
def test_unwritable_output_is_bad_input(tmp_path, capsys, monkeypatch, command, unwritable):
    # an output path in a missing directory or that is a directory, or an
    # output directory that is a file, exits 2 with one line naming it and
    # no traceback, and leaves no file behind: every output path is checked
    # before the fit, and simulate checks its directory before it runs a
    # replication
    paths = {"data": tmp_path / "data.csv", "missing": tmp_path / "missing",
             "tmp": tmp_path, "config": CONFIG_DIR / "smoke.json"}
    write_data(paths["data"])
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("ran"))
    assert main([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bandchol: cannot write {unwritable.format(**paths)}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [f.name for f in tmp_path.iterdir()] == ["data.csv"]


def test_parse_error_exit_code_and_line_number(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0\n3.0,oops\n")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "oops" in err


@pytest.mark.parametrize("text, header", [
    ("1,2\n3,4\n", False),
    ("a,b\n1,2\n3,4\n", True),
    ("1,2\n\n3,4\n\n", False),
    ("1,2\n   \n3,4\n", False),
    ('"1",2\n3," 4"\n', False),
    ('"a,b",c\n1,2\n', True),
    ("1,2\n3\n", False),
    ("# note\n1,2\n", False),
    ("1,2\n# note\n", True),
    ("1,2,\n3,4,\n", False),
    ("1_0,2\n3,4\n", False),
    ("1,2\r\n3,4\r\n", False),
    ("", False),
    ("a,b\n", True),
    ("\n  \n", False),
    ("1,inf\n3,4\n", False),
])
def test_csv_fast_path_matches_csv_module(tmp_path, text, header):
    # np.loadtxt and the csv-module loop give the same matrix or the same error
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())

    def outcome(read):
        try:
            return "ok", read()
        except ValueError as err:
            return "error", str(err)

    def with_csv_module():
        with open(path, newline="") as fh:
            return as_data_matrix(cli._parse_csv(fh, str(path), header))

    fast = outcome(lambda: cli.read_data_csv(str(path), header=header))
    slow = outcome(with_csv_module)
    assert fast[0] == slow[0]
    if fast[0] == "ok":
        np.testing.assert_array_equal(fast[1], slow[1])
    else:
        assert fast[1] == slow[1]


def test_csv_plain_file_skips_csv_module(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    x = write_data(path, n=5, p=3)
    monkeypatch.setattr(cli, "_parse_csv", None)
    np.testing.assert_array_equal(cli.read_data_csv(str(path)), x)


def test_variance_cap_is_absolute(tmp_path, capsys):
    # innovation variances near 1e8 lie above the default cap M = 1e6
    data = tmp_path / "data.csv"
    x = 1e4 * np.random.default_rng(3).standard_normal((100, 10))
    np.savetxt(data, x, delimiter=",", fmt="%.17g")
    scale = r"variance scale n\*dhat/nj is [0-9.]+e\+07, .* in squared data units"
    with pytest.raises(TruncationMassZero, match=scale):
        fit_posterior(x, PriorConfig(k=1))
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--k", "1"]) == 3
    err = capsys.readouterr().err
    assert "d_1 on (0, 1e+06]" in err and "squared data units" in err
    assert main(["estimate", str(data), "-o", str(out), "--k", "1", "--cap", "1e12"]) == 0
    assert main(["estimate", str(data), "-o", str(out), "--cap", "1e12"]) == 0


def test_mode_selection_names_variance_cap(tmp_path, capsys):
    # the posterior-mode grid fails on the same data as fit_posterior above,
    # and its -inf log posterior names the column, the cap and the scale
    data = tmp_path / "data.csv"
    x = 1e4 * np.random.default_rng(3).standard_normal((100, 10))
    np.savetxt(data, x, delimiter=",", fmt="%.17g")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "log posterior at bandwidth 1 is -inf" in err
    assert "d_1 on (0, 1e+06]" in err
    assert re.search(r"variance scale n\*dhat/nj is [0-9.]+e\+07, .* in squared data units",
                     err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "bandwidth"])
def test_truncation_floor_fails_both_commands(tmp_path, capsys, command):
    # at M = 0.039 column 1's mass at k = 1 lies between 0 and the floor
    # bayes.TRUNC_MASS_FLOOR: the grid rejects k = 1 as the fit does, so
    # estimate no longer selects a k it cannot fit, and bandwidth agrees
    data = tmp_path / "data.csv"
    np.savetxt(data, np.random.default_rng(0).standard_normal((50, 3)), delimiter=",",
               fmt="%.17g")
    out = tmp_path / "out.csv"
    assert main([command, str(data), "-o", str(out), "--cap", "0.039", "--kmax", "2"]) == 3
    err = capsys.readouterr().err
    assert "log posterior at bandwidth 1 is -inf: posterior mass of d_1 on (0, 0.039]" in err
    assert not out.exists()


def test_overflowing_moments_exit_code(tmp_path, capsys):
    data = tmp_path / "data.csv"
    x = write_data(data, n=20, p=4)
    np.savetxt(data, 1e160 * x, delimiter=",", fmt="%.17g")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out)]) == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e-156, 1e-161, 1e-170])
@pytest.mark.parametrize("flags", [[], ["--estimator", "mle", "--k", "1"]])
def test_underflowing_moments_exit_code(tmp_path, capsys, scale, flags):
    # moments below stats._MOMENT_FLOOR, or flushed to zero, are bad input
    # (exit 2), not a non-finite estimate or a SingularDesign (exit 3)
    data = tmp_path / "data.csv"
    np.savetxt(data, scale * np.random.default_rng(0).standard_normal((30, 6)),
               delimiter=",", fmt="%.17g")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), *flags]) == 2
    assert "underflow" in capsys.readouterr().err
    assert not out.exists()


def test_default_kmax_is_largest_admissible_bandwidth(tmp_path):
    # n + nu0 - k - 4 > 0 admits k = 8 at n=10 and nu0=2.5
    data = tmp_path / "data.csv"
    write_data(data, n=10, p=20)
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--nu0", "2.5"]) == 0
    assert json.loads((tmp_path / "omega.json").read_text())["parameters"]["kmax"] == 8


def test_numerical_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 4))
    x[:, 1] = x[:, 0]
    data = tmp_path / "data.csv"
    np.savetxt(data, x, delimiter=",", fmt="%.17g")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--estimator", "bl",
                 "--k", "2"]) == 3
    assert "numerical failure" in capsys.readouterr().err



def test_collinear_mle_exit_code(tmp_path, capsys):
    # column 4 is an exact combination of columns 2 and 3
    x = np.random.default_rng(0).standard_normal((12, 5))
    x[:, 3] = 0.5 * x[:, 1] - 2.0 * x[:, 2]
    data = tmp_path / "data.csv"
    np.savetxt(data, x, delimiter=",", fmt="%.17g")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--estimator", "mle",
                 "--k", "2"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "column 4 " in lines[0], lines
    assert not out.exists()


def console_script():
    """The bandchol command and its environment: the installed executable
    when one is on PATH, else the entry point that pyproject.toml declares
    under [project.scripts], run by this interpreter with src on PYTHONPATH."""
    exe = shutil.which("bandchol")
    if exe:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        module, func = tomllib.load(fh)["project"]["scripts"]["bandchol"].split(":")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return ([sys.executable, "-c", f"from {module} import {func}; {func}()"],
            dict(os.environ, PYTHONPATH=path))


def test_console_script_subprocess(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data, n=30, p=4)
    out = tmp_path / "omega.csv"
    command, env = console_script()
    proc = subprocess.run(
        command + ["estimate", str(data), "-o", str(out), "--k", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert np.loadtxt(out, delimiter=",").shape == (4, 4)


def test_bundled_smoke_config(tmp_path):
    cfg = CONFIG_DIR / "smoke.json"
    dirs = (tmp_path / "a", tmp_path / "b")
    start = time.perf_counter()
    assert main(["simulate", "--config", str(cfg), "--output-dir",
                 str(dirs[0]), "--threads", "1"]) == 0
    assert time.perf_counter() - start < 10.0
    assert main(["simulate", "--config", str(cfg), "--output-dir",
                 str(dirs[1]), "--threads", "1"]) == 0
    for name in ("results.csv", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_bundled_reference_config(tmp_path):
    # the full default-scale experiment; takes about a minute
    cfg = CONFIG_DIR / "ar1_n100_p100.json"
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output-dir",
                 str(out_dir), "--threads", "1"]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())["summary"]
    assert set(summary) == {"LL", "BL1", "BL2", "MLE"}
    assert abs(summary["LL"]["spectral"]["mean"] - 0.720) <= 0.05
    for loss in ("spectral", "linf", "fro"):
        # one fit at the same selected bandwidth, scored once
        assert summary["BL2"][loss]["mean"] == summary["MLE"][loss]["mean"]


def test_module_invocation_subprocess(tmp_path):
    # the child imports the bandchol under test, installed or not
    src = str(pathlib.Path(bandchol.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bandchol", "estimate", "missing.csv",
         "-o", str(tmp_path / "x.csv"), "--k", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr
    data = tmp_path / "data.csv"
    write_data(data, n=30, p=4)
    out = tmp_path / "omega.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bandchol", "estimate", str(data), "-o", str(out), "--k", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert np.loadtxt(out, delimiter=",").shape == (4, 4)
