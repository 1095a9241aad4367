"""End-to-end command line behavior: files in, files out, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

import bandchol
from bandchol.bayes import PriorConfig, fit_posterior, plug_in_estimator
from bandchol.bandwidth import select_k_posterior_mode
from bandchol.cli import default_sidecar, main, resolve_threads
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


def test_resolve_threads_env():
    saved = os.environ.pop("BANDCHOL_THREADS", None)
    try:
        assert resolve_threads(3) == 3
        os.environ["BANDCHOL_THREADS"] = "2"
        assert resolve_threads(None) == 2
        assert resolve_threads(5) == 5  # flag wins over the environment
        os.environ["BANDCHOL_THREADS"] = "two"
        with pytest.raises(ValueError):
            resolve_threads(None)
        with pytest.raises(ValueError):
            resolve_threads(0)
    finally:
        os.environ.pop("BANDCHOL_THREADS", None)
        if saved is not None:
            os.environ["BANDCHOL_THREADS"] = saved


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
    bl = np.loadtxt(bl_out, delimiter=",")
    mle = np.loadtxt(mle_out, delimiter=",")
    assert np.max(np.abs(bl - mle)) <= 1e-8


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
    assert set(sidecar["result"]["selected"]) == {"mode", "resampling"}
    assert sidecar["result"]["selected"]["mode"] in (1, 2, 3)


def test_bandwidth_two_columns(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data, p=2)
    out = tmp_path / "profile.csv"
    assert main(["bandwidth", str(data), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("mode,1,")


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


def test_parse_error_exit_code_and_line_number(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("1.0,2.0\n3.0,oops\n")
    out = tmp_path / "omega.csv"
    assert main(["estimate", str(data), "-o", str(out), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "oops" in err


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


def test_console_script_subprocess(tmp_path):
    data = tmp_path / "data.csv"
    write_data(data, n=30, p=4)
    out = tmp_path / "omega.csv"
    proc = subprocess.run(
        ["bandchol", "estimate", str(data), "-o", str(out), "--k", "1"],
        capture_output=True, text=True,
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
        # same selected bandwidth, provably identical estimates
        assert summary["BL2"][loss]["mean"] == pytest.approx(
            summary["MLE"][loss]["mean"], abs=1e-8)


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
