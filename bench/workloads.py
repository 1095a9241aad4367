"""The benchmark's workloads: inputs, one op, and the checks on its output.

Each workload builds its inputs from a seed in prepare(), runs one
operation per op() call (op i uses seed base + i where the op is seeded),
and judges the output in evaluate(), which returns the problems found and
a digest of the output for comparison with the recorded reference.
"""

import json
import os
from dataclasses import dataclass, replace

import numpy as np

import bandchol as bc
from bandchol import cli

REL_TOL = 1e-8


def child_env():
    """Environment for a child Python that imports this same bandchol."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def rel_close(a, b):
    """True when a and b have one shape and agree to REL_TOL relative."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.finfo(float).tiny)
    return bool(np.all(np.abs(a - b) <= REL_TOL * scale))


@dataclass
class SimState:
    config: object
    # built in every set-up, as a fresh process builds it on its first op
    truth: tuple


class SimWorkload:
    """One replication of run_experiment with a per-op seed."""

    seeded_ops = True

    def __init__(self, name, config, smoke_config):
        self.name = name
        self._config, self._smoke_config = config, smoke_config

    def prepare(self, seed, smoke, workdir):
        config = replace(self._smoke_config if smoke else self._config, seed=seed)
        return SimState(config=config, truth=config.model.build())

    def op(self, state, i):
        return bc.run_experiment(replace(state.config, seed=state.config.seed + i))

    traced_op = op

    def evaluate(self, state, result):
        config = state.config
        problems = []
        if result.n_failed:
            problems.append(f"{result.n_failed} failed replications")
        rec = result.records[0]
        if rec.error is not None:
            problems.append(f"replication error: {rec.error}")
            return problems, None
        for est, losses in rec.losses.items():
            for loss, value in losses.items():
                if not np.isfinite(value):
                    problems.append(f"{est} {loss} loss is {value}")
        for label, k in (("k_mode", rec.k_mode), ("k_bl", rec.k_bl)):
            if k is not None and not 1 <= k <= config.kmax:
                problems.append(f"{label}={k} outside 1..{config.kmax}")
        if "BL2" in rec.losses and "MLE" in rec.losses:
            for loss in config.losses:
                bl2, mle = rec.losses["BL2"][loss], rec.losses["MLE"][loss]
                if not rel_close(bl2, mle):
                    problems.append(f"BL2 {loss} {bl2!r} differs from MLE {mle!r}")
        digest = {
            "exact": {"k_mode": rec.k_mode, "k_bl": rec.k_bl},
            "close": {f"{est}.{loss}": value
                      for est, losses in rec.losses.items() for loss, value in losses.items()},
        }
        return problems, digest


RHO = 0.3
CSV_CHUNK_ROWS = 200


def ar1_rows(z, rho):
    """Map standard normal rows z to rows of a stationary ar1(rho) process.

    Each row is N(0, Sigma) with Sigma_ij = rho^|i-j|, without forming
    Sigma, so the rows can be generated and written in small chunks.
    """
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    s = np.sqrt(1.0 - rho * rho)
    for j in range(1, z.shape[1]):
        x[:, j] = rho * x[:, j - 1] + s * z[:, j]
    return x


def flush_to_disk(fh):
    """Write a file's dirty pages out now, so that their write-back does not
    land inside a later timed op."""
    fh.flush()
    os.fsync(fh.fileno())


@dataclass
class CliState:
    data: str
    output: str
    sidecar: str
    p: int


class CliEstimateWorkload:
    """`bandchol estimate data.csv -o omega.csv` through the CLI entry point.

    Every op reads the same CSV, written once per prepare() from the seed;
    the command runs with its defaults, so its ops are identical. The op
    calls cli.main in-process; the cost of starting a fresh process and
    importing bandchol.cli is measured in set-up, as cli.import_s.
    """

    seeded_ops = False

    def __init__(self, name, n, p, smoke_n, smoke_p):
        self.name = name
        self._size, self._smoke_size = (n, p), (smoke_n, smoke_p)

    def prepare(self, seed, smoke, workdir):
        n, p = self._smoke_size if smoke else self._size
        rng = np.random.default_rng(seed)
        data = os.path.join(workdir, "data.csv")
        with open(data, "w") as fh:
            for start in range(0, n, CSV_CHUNK_ROWS):
                rows = ar1_rows(rng.standard_normal((min(CSV_CHUNK_ROWS, n - start), p)), RHO)
                np.savetxt(fh, rows, delimiter=",", fmt="%.17g")
            flush_to_disk(fh)
        output = os.path.join(workdir, "omega.csv")
        return CliState(data=data, output=output, sidecar=cli.default_sidecar(output), p=p)

    def op(self, state, i):
        for path in (state.output, state.sidecar):
            if os.path.exists(path):
                os.remove(path)
        return cli.main(["estimate", state.data, "-o", state.output])

    traced_op = op

    def evaluate(self, state, code):
        if code != 0:
            return [f"exit code {code}"], None
        for path in (state.output, state.sidecar):
            with open(path) as fh:
                flush_to_disk(fh)
        omega = np.loadtxt(state.output, delimiter=",", ndmin=2)
        with open(state.sidecar) as fh:
            k = json.load(fh)["result"]["bandwidth"]
        problems = []
        if omega.shape != (state.p, state.p):
            return [f"omega has shape {omega.shape}, expected {(state.p, state.p)}"], None
        if not np.array_equal(omega, omega.T):
            problems.append("omega is not symmetric")
        if np.any(np.triu(omega, k + 1)):
            problems.append(f"omega has entries outside bandwidth {k}")
        digest = {
            "exact": {"bandwidth": k},
            "close": {f"diag{d}": np.diagonal(omega, d).tolist() for d in range(k + 1)},
        }
        return problems, digest


@dataclass
class PLossState:
    model: object
    omega0: np.ndarray
    draws: int
    seed: int


class PLossWorkload:
    """estimate_p_loss over posterior draws of a model fitted in prepare()."""

    seeded_ops = True

    def __init__(self, name, n, p, k, draws, smoke_n, smoke_p, smoke_draws):
        self.name, self.k = name, k
        self._size, self._smoke_size = (n, p, draws), (smoke_n, smoke_p, smoke_draws)

    def prepare(self, seed, smoke, workdir):
        n, p, draws = self._smoke_size if smoke else self._size
        sigma, omega0 = bc.TrueModelSpec("ar4", p).build()
        x = bc.sample_gaussian(sigma, n, np.random.default_rng(seed))
        model = bc.fit_posterior(x, bc.PriorConfig(self.k))
        return PLossState(model=model, omega0=omega0, draws=draws, seed=seed)

    def op(self, state, i):
        return bc.estimate_p_loss(state.model, state.omega0, draws=state.draws,
                                  norm="spectral", rng=state.seed + i)

    traced_op = op

    def evaluate(self, state, outcome):
        mean, stderr = outcome
        problems = []
        if not (np.isfinite(mean) and mean > 0):
            problems.append(f"P-loss mean is {mean}")
        if not stderr > 0:
            problems.append(f"P-loss stderr is {stderr}")
        return problems, {"exact": {}, "close": {"mean": mean, "stderr": stderr}}


# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            "sim_ar4_p100",
            config=bc.ExperimentConfig(model=bc.TrueModelSpec("ar4", 100), n=100, reps=1,
                                       kmax=20, splits=50, ref_bandwidth=20),
            smoke_config=bc.ExperimentConfig(model=bc.TrueModelSpec("ar4", 20), n=30, reps=1,
                                             kmax=4, splits=3, ref_bandwidth=8),
        ),
        SimWorkload(
            "sim_fgn_ll_p500",
            config=bc.ExperimentConfig(model=bc.TrueModelSpec("fgn", 500, hurst=0.7), n=500,
                                       reps=1, estimators=("LL",), kmax=20),
            smoke_config=bc.ExperimentConfig(model=bc.TrueModelSpec("fgn", 30, hurst=0.7),
                                             n=30, reps=1, estimators=("LL",), kmax=4),
        ),
        CliEstimateWorkload("cli_estimate_p1000", n=1000, p=1000, smoke_n=40, smoke_p=20),
        PLossWorkload("ploss_ar4_p500", n=500, p=500, k=4, draws=10,
                      smoke_n=30, smoke_p=30, smoke_draws=3),
    )
}
