"""Runs one workload: set-up, timed phases, checks, metrics and results file.

A run times fresh imports, sets the workload up SETUP_REPEATS times (each
set-up ends with the warm-up op 0), then runs ops in a closed loop (each
op starts after the previous one and its checks end) until the phase has
lasted the requested seconds. With tracing on, the time is split between
an untraced phase and a traced phase, and the traced phase's spans give
the per-layer metrics.

Host-speed calibration. The host is shared, and its speed for this kind
of code switches between states about 1.6x apart over seconds to tens of
seconds. After every op the harness times calibrate(), a fixed piece of
numpy and interpreter work that is not bandchol code, and scales the
op's wall time by CALIBRATION_NOMINAL_S over the mean of the calibrations
just before and just after the op: the reported times are wall time at
the host speed at which calibrate() takes CALIBRATION_NOMINAL_S. The
fresh-process imports in set-up are not scaled. The results file keeps the raw wall times.
"""

import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
from threads import THREAD_VARS
from workloads import WORKLOADS, child_env, rel_close

SETUP_REPEATS = 3
CALIBRATION_NOMINAL_S = 0.02
CALIBRATION_REPEATS = 5
DEFAULT_SEED = 0
REFERENCE_OPS = 3
IMPORT_REPEATS = 3

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_environment():
    """Versions, BLAS, thread settings and hardware of this run."""
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if sha else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# references recorded at the default seed
# ---------------------------------------------------------------------------

def load_reference(name):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def compare_digest(digest, ref):
    """Problems found comparing an op's digest with its reference digest."""
    problems = []
    for key, value in ref["exact"].items():
        if digest["exact"].get(key) != value:
            problems.append(f"{key}={digest['exact'].get(key)!r}, reference {value!r}")
    for key, value in ref["close"].items():
        if key not in digest["close"] or not rel_close(digest["close"][key], value):
            problems.append(f"{key} differs from the reference by more than 1e-8 relative")
    return problems


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

_CAL_SMALL = np.random.default_rng(0).standard_normal((20, 20))
_CAL_MEDIUM = np.random.default_rng(1).standard_normal((300, 300))
_CAL_MEDIUM = _CAL_MEDIUM + _CAL_MEDIUM.T


def calibrate():
    """Wall time of a fixed mix of small numpy calls and a dense eigensolve.

    The median of CALIBRATION_REPEATS short repeats, times their number,
    so that a brief stall does not count as a change of host speed.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0.0
        for _ in range(300):
            total += float(np.sum(np.log(np.abs(np.diag(_CAL_SMALL)) + 1.0)))
        np.linalg.eigvalsh(_CAL_MEDIUM[:180, :180])
        times.append(time.perf_counter() - start)
    return statistics.median(times) * CALIBRATION_REPEATS


class Ledger:
    """Times, failures and digests of the ops a run attempted."""

    def __init__(self, workload, reference, keep_digests):
        self.workload, self.state = workload, None
        self.reference, self.keep_digests = reference, keep_digests
        self.attempted = 0
        self.failures = []
        self.digests = {}
        calibrate()  # the first call also pays one-time set-up of the routines it uses
        self.calibrations = [calibrate()]

    def key(self, i):
        return str(i if self.workload.seeded_ops else 0)

    def normalised(self, wall):
        """Host-normalised time of the last op, whose wall time is given."""
        return wall * CALIBRATION_NOMINAL_S / statistics.fmean(self.calibrations[-2:])

    def run(self, op, i):
        """Run op i, check its output, calibrate; return the op's wall time."""
        self.attempted += 1
        start = time.perf_counter()
        elapsed = None
        try:
            outcome = op(self.state, i)
            elapsed = time.perf_counter() - start
            problems, digest = self.workload.evaluate(self.state, outcome)
        except Exception:
            if elapsed is None:
                elapsed = time.perf_counter() - start
            problems, digest = [traceback.format_exc(limit=3)], None
        key = self.key(i)
        if digest is not None:
            if self.reference is not None and key in self.reference["ops"]:
                problems += compare_digest(digest, self.reference["ops"][key])
            if self.keep_digests and int(key) < REFERENCE_OPS:
                self.digests[key] = digest
        if problems:
            self.failures.append({"op": i, "problems": problems})
        # after the checks, which flush the op's output files to disk
        self.calibrations.append(calibrate())
        return elapsed

    def phase(self, op, first, seconds, tracer=None):
        """Run ops first, first+1, ... until the phase has lasted seconds.

        Returns the ops' wall times and host-normalised times. With a
        tracer, each op's spans carry the op's index as their id.
        """
        walls, scaled = [], []
        start = time.perf_counter()
        i = first
        while not walls or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.op = i
            walls.append(self.run(op, i))
            scaled.append(self.normalised(walls[-1]))
            i += 1
        return walls, scaled


# timed inside the child: the wait for a child's exit adds noise in steps of
# about 50 ms on a shared host, and interpreter start-up is not bandchol's
IMPORT_PROBE = "import time; t = time.perf_counter(); import bandchol.cli; " \
               "print(time.perf_counter() - t)"


def import_seconds():
    """Median time a fresh interpreter spends in `import bandchol.cli`."""
    env = child_env()
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name, seed, seconds, trace, results_dir, smoke=False,
                 record_reference=False):
    """Run one workload and return its results record.

    Set-up time is the median time of IMPORT_REPEATS fresh imports of
    bandchol.cli plus the median host-normalised time of SETUP_REPEATS
    set-ups, each of which prepares the inputs and runs the warm-up op 0.
    The record holds the end-to-end metrics, the per-layer metrics when
    traced, the failures and the run environment.
    """
    workload = WORKLOADS[name]
    reference = None if smoke or seed != DEFAULT_SEED else load_reference(name)
    os.makedirs(results_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results_dir, prefix=f"{name}.") as workdir:
        ledger = Ledger(workload, None if record_reference else reference,
                        keep_digests=record_reference)
        import_s = import_seconds()
        setup_walls, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ledger.state = workload.prepare(seed, smoke, workdir)
            prepare_s = time.perf_counter() - start
            setup_walls.append(prepare_s + ledger.run(workload.op, 0))
            setup_scaled.append(ledger.normalised(setup_walls[-1]))
        setup_wall = import_s + statistics.median(setup_walls)
        setup_s = import_s + statistics.median(setup_scaled)

        if not trace:
            walls, scaled = ledger.phase(workload.op, 1, seconds)
        else:
            walls, scaled = ledger.phase(workload.op, 1, seconds / 2.0)
            first = 1 + len(walls)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_walls, traced = ledger.phase(workload.traced_op, first, seconds / 2.0,
                                                    tracer)
            finally:
                tracer.remove()

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(scaled),
        "ops_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": max(rss, children_rss),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "smoke": smoke,
        "environment": run_environment(),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "op_p50_samples": len(scaled),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failed_frac": len(ledger.failures) / ledger.attempted,
        "failures": ledger.failures,
        "wall": {
            "setup_s": setup_wall,
            "op_p50_s": statistics.median(walls),
            "ops_per_s": len(walls) / sum(walls),
            "import_s": import_s,
            "set_ups_s": setup_walls,
            "op_s": walls,
        },
        "rss_mb": {"self": rss, "children": children_rss},
        "calibration_s": ledger.calibrations,
    }
    if trace:
        layer = spans.layer_metrics(tracer.spans, list(range(first, first + len(traced))))
        layer["cli.import_s"] = import_s
        layer["trace_overhead_frac"] = statistics.median(traced) / metrics["op_p50_s"] - 1.0
        units = per_layer_units()
        record["per_layer"] = {k: {"value": layer[k], "unit": units[k]} for k in units}
        record["wall"]["traced_op_s"] = traced_walls
        if reference and "counts" in reference:
            record["pinned_counts"] = {
                k: {"expected": v, "measured": layer[k]} for k, v in reference["counts"].items()
            }
        spans_path = Path(results_dir) / f"{name}.seed{seed}.spans.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path)
    if record_reference:
        record["reference"] = {"seed": seed, "ops": ledger.digests}
        if trace:
            record["reference"]["counts"] = {
                f"{fn}.calls": layer[f"{fn}.calls"] for fn in spans.COUNTED
            }
    return record


def per_layer_units():
    """Units of every per-layer metric, in report order."""
    units = spans.metric_names()
    units["cli.import_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


def result_line(record):
    """The benchmark's one-line result: correctness, op counts and metrics."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
