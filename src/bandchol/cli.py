"""Command line interface: estimate, bandwidth, simulate.

Matrices travel as CSV files with 17 significant digits, so a written
estimate reparses to the same floats. Every command writes a JSON sidecar
echoing its fully resolved parameters, defaults and seed included. The
one execution-only knob, simulate --threads, never appears in outputs and
never changes results, so reruns are byte-identical. A bandwidth chosen by
posterior mode is reported in the sidecar with its normalized posterior
probability and its log-gap to the runner-up, and one chosen by resampling
with its risk margin over the runner-up (each null on a one-point grid).
Exit codes: 0 success, 2 bad input (an unreadable input, an unwritable
output or a number JSON cannot hold among them), 3 numerical failure.
estimate and bandwidth share one opening (_prepare), one bandwidth
selection (_select) and one sidecar writer: they check the prior's flags
and every output path before they read the data and write nothing until
the fit is done, so a command that fails leaves no file behind. estimate's
--estimator names are simulate.FITS's in lower case, and each is fitted
from the data's GramBand by its FITS entry, as the simulation fits it.
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from .bandwidth import (
    KMAX_CAP,
    REF_BANDWIDTH,
    SPLITS,
    _check_resampling,
    _split_widths,
    select_k_posterior_mode,
    select_k_resampling,
)
from .bayes import PriorConfig, max_bandwidth
from .errors import BandcholError, EmptyGrid
from .linalg import _real, _row_spans
from .simulate import FITS, ExperimentConfig, records_csv_text, run_experiment, summary_payload
from .stats import _band_at, as_data_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

MATRIX_FMT = "%.17g"


# ---------------------------------------------------------------------------
# file handling
# ---------------------------------------------------------------------------

def read_data_csv(path, header=False, center=False):
    """Load an observations-by-variables CSV, reporting bad lines by number.

    np.loadtxt reads a plain numeric file. A file it rejects is read again
    by _parse_csv, which accepts what the csv module and float() accept,
    such as whitespace-only lines and quoted numbers, or names the bad line.
    """
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    with fh:
        try:
            with warnings.catch_warnings():
                # a file without data rows warns; _parse_csv reports it
                warnings.simplefilter("ignore", UserWarning)
                x = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                               skiprows=int(header))
        except ValueError:
            x = None
        if x is None or x.size == 0:
            fh.seek(0)
            x = _parse_csv(fh, path, header)
    x = as_data_matrix(x)
    if center:
        x = x - x.mean(axis=0)
    return x


def _parse_csv(fh, path, header):
    """Rows of a CSV file through csv.reader and float(), naming a bad line."""
    rows = []
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if header and lineno == 1:
            continue
        if not row or all(tok.strip() == "" for tok in row):
            continue
        values = []
        for tok in row:
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {tok.strip()!r} "
                    "as a number"
                ) from None
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError(f"{path}: rows have inconsistent lengths {sorted(widths)}")
    return np.array(rows)


def _create(path):
    """open(path, "w"), an OSError raised as the ValueError of bad input."""
    try:
        return open(path, "w")
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err}") from None


def _check_writable(*paths):
    """Raise _create's ValueError for the first path that it could not open,
    without creating any: each must lie in an existing directory, writable
    like the file itself if it exists, and not be a directory."""
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {path}: no such directory {directory!r}")
        if os.path.isdir(path) or not os.access(
                path if os.path.exists(path) else directory, os.W_OK):
            raise ValueError(f"cannot write {path}: not a writable file")


def write_matrix_csv(path, m):
    """Write the matrix m byte for byte as np.savetxt(path, m, fmt=MATRIX_FMT,
    delimiter=",") does, formatting only the span of each row from its first
    to its last entry that is not +0.0. The +0.0 entries around it print as
    0, as MATRIX_FMT prints them (-0.0 prints as -0, so it counts as
    nonzero), and a banded estimate costs O(p k) formatting, not O(p^2).
    """
    m = np.asarray(m)
    first, last, has = _row_spans((m != 0) | np.signbit(m))
    width = m.shape[1]
    # the format of a span of w entries is a prefix of the full row's
    full = ",".join([MATRIX_FMT] * width)
    unit = len(MATRIX_FMT) + 1
    zero_row = ",".join(["0"] * width)
    with _create(path) as fh:
        for row, lo, hi, nonzero in zip(m, first, last, has):
            if nonzero:
                span = full[:unit * (hi - lo + 1) - 1] % tuple(row[lo:hi + 1])
                fh.write("0," * lo + span + ",0" * (width - 1 - hi) + "\n")
            else:
                fh.write(zero_row + "\n")


def write_json(path, payload):
    """payload as strict JSON: NaN or infinity raises ValueError before the file opens."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with _create(path) as fh:
        fh.write(text + "\n")


def default_sidecar(output_path):
    root, _ = os.path.splitext(output_path)
    return root + ".json"


def resolve_threads(value):
    """--threads flag, by default all cores."""
    if value is None:
        value = os.cpu_count() or 1
    if value < 1:
        raise ValueError("threads must be at least 1")
    return value


def _selection_grid(args, n, p, resampling):
    """--kmax and --ref-bandwidth, by default the widest the data admit, capped.

    When a resampling scheme runs, the defaults are also capped at the
    widest bands its splits can fit (bandwidth._split_widths), and a
    nonempty grid is checked as select_k_resampling checks it, naming the
    flags.
    """
    kmax = args.kmax if args.kmax is not None else min(KMAX_CAP, max_bandwidth(n, p, args.nu0))
    ref = args.ref_bandwidth if args.ref_bandwidth is not None \
        else max(1, min(REF_BANDWIDTH, n - 1, p - 1))
    if resampling:
        widest, widest_ref = _split_widths(n)
        if args.kmax is None:
            kmax = min(kmax, max(1, widest))
        if args.ref_bandwidth is None:
            ref = max(1, min(ref, widest_ref))
        if kmax >= 1:
            _check_resampling(n, p, kmax, ref, names=("--kmax", "--ref-bandwidth"))
    return kmax, ref


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _prepare(args, resampling):
    """(sidecar, prior, data, kmax, ref) of estimate or bandwidth. Every
    output path, and the --cap and --nu0 that every sidecar echoes, as
    PriorConfig checks them and finite, as strict JSON holds them, are
    checked before the data is read, and prior is their PriorConfig."""
    _real("--cap", args.cap, lambda v: 0 < v < math.inf, "a finite positive number")
    _real("--nu0", args.nu0, math.isfinite, "a finite number")
    sidecar = args.sidecar or default_sidecar(args.output)
    _check_writable(args.output, sidecar)
    x = read_data_csv(args.data, header=args.header, center=args.center)
    return (sidecar, PriorConfig(0, M=args.cap, nu0=args.nu0), x,
            *_selection_grid(args, *x.shape, resampling))


def _select(scheme, args, prior, data, kmax, ref):
    """(k, diagnostics, profile) of scheme on 1..kmax: the chosen bandwidth,
    how clearly it won (the mode's normalized probability and log-gap to the
    runner-up, or the runner-up's average risk minus its own; each null on a
    one-point grid) and the log posterior under prior or risk at each k. data
    is the rows, or for the mode a GramBand of them at least min(kmax, p-1) wide.
    A default kmax below 1 raises EmptyGrid naming the sizes behind it."""
    if kmax < 1 and args.kmax is None:
        n, p = np.shape(data)
        raise EmptyGrid(f"no bandwidth to select: n={n}, p={p} and nu0={args.nu0} admit no "
                        "k >= 1 (k <= p - 1, n + nu0 - k - 4 > 0); estimate --k 0 fits without one")
    if scheme == "mode":
        post = select_k_posterior_mode(data, kmax, prior=prior)
        return (post.mode, {"mode_probability": post.mode_probability,
                            "mode_log_gap": post.log_gap}, post.log_posterior)
    sel = select_k_resampling(data, kmax, splits=args.splits, ref_bandwidth=ref,
                              rng=np.random.default_rng(args.seed))
    return sel.mode, {"resampling_risk_margin": sel.margin}, sel.risk


def _write_sidecar(path, args, x, parameters, result):
    """The JSON sidecar of estimate or bandwidth: the input, every resolved
    parameter, defaults and seed included, the result and the output path."""
    n, p = x.shape
    write_json(path, {
        "command": args.command,
        "input": {"path": args.data, "header": bool(args.header),
                  "center": bool(args.center), "n": n, "p": p},
        "parameters": {**parameters, "splits": args.splits, "M": args.cap,
                       "nu0": args.nu0, "seed": args.seed},
        "result": result,
        "output": args.output,
    })


def cmd_estimate(args):
    resampling = args.k is None and args.select_k == "resampling"
    sidecar, prior, x, kmax, ref = _prepare(args, resampling)
    # one GramBand of the rows, which read_data_csv checked, serves the
    # posterior-mode grid and the fit at any bandwidth up to its width
    stat = _band_at(x, max(0, args.k if args.k is not None else kmax))
    if args.k is not None:
        k, source, diagnostics = args.k, "explicit", {}
    else:
        k, diagnostics, _ = _select(args.select_k, args, prior, x if resampling else stat,
                                    kmax, ref)
        source = args.select_k
    omega = FITS[args.estimator.upper()](stat, k, prior)
    # the sidecar first: its strict JSON is the one write that can still fail
    _write_sidecar(sidecar, args, x, {
        "estimator": args.estimator, "k": args.k, "select_k": args.select_k,
        "kmax": kmax, "reference_bandwidth": ref,
    }, {"bandwidth": int(k), "bandwidth_source": source, **diagnostics})
    write_matrix_csv(args.output, omega)
    return EXIT_OK


def cmd_bandwidth(args):
    schemes = ("mode", "resampling") if args.scheme == "both" else (args.scheme,)
    sidecar, prior, x, kmax, ref = _prepare(args, "resampling" in schemes)
    lines = ["scheme,k,value"]
    selected = {}
    result = {"selected": selected}
    for scheme in schemes:
        selected[scheme], diagnostics, profile = _select(scheme, args, prior, x, kmax, ref)
        result.update(diagnostics)
        lines += [f"{scheme},{k},{format(value, '.17g')}"
                  for k, value in enumerate(profile, start=1)]
    _write_sidecar(sidecar, args, x, {
        "scheme": args.scheme, "kmax": kmax, "reference_bandwidth": ref,
    }, result)
    with _create(args.output) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args):
    workers = resolve_threads(args.threads)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read {args.config}: {err}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{args.config}: invalid JSON: {err}") from None
    config = ExperimentConfig.from_dict(raw)
    # summary.json echoes the cap, which strict JSON holds only when finite
    _real("prior.M", config.cap, math.isfinite, "a finite number")
    # made before the replications run, so an unwritable directory costs no work
    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as err:
        raise ValueError(f"cannot write {args.output_dir}: {err}") from None
    result = run_experiment(config, workers=workers)
    results_path = os.path.join(args.output_dir, "results.csv")
    summary_path = os.path.join(args.output_dir, "summary.json")
    write_json(summary_path, summary_payload(result))
    with _create(results_path) as fh:
        fh.write(records_csv_text(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_data_flags(sub):
    sub.add_argument("data", help="CSV of observations (rows) by variables (columns)")
    sub.add_argument("--header", action="store_true",
                     help="skip the first line of the data file")
    sub.add_argument("--center", action="store_true",
                     help="subtract column means before fitting")


def _add_model_flags(sub):
    sub.add_argument("--kmax", type=int, default=None,
                     help="largest bandwidth on the selection grid (default: the "
                          f"largest admissible bandwidth, at most {KMAX_CAP}, and with "
                          "resampling at most n//3 - 1)")
    sub.add_argument("--nu0", type=float, default=PriorConfig.nu0,
                     help="shape offset of the variance prior (default %(default)s)")
    sub.add_argument("--cap", type=float, default=PriorConfig.M, metavar="M",
                     help="upper truncation M of the variance prior, absolute, in "
                          "squared data units (default %(default)s)")
    sub.add_argument("--splits", type=int, default=SPLITS,
                     help="resampling splits (default %(default)s)")
    sub.add_argument("--ref-bandwidth", type=int, default=None,
                     help="reference bandwidth of the resampling scheme "
                          f"(default min({REF_BANDWIDTH}, n-1, p-1), with resampling at most "
                          "n - n//3 - 1)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for any randomized step (default %(default)s)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bandchol",
        description="Banded Cholesky precision estimation, bandwidth selection, "
                    "and simulation experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="estimate a precision matrix from data")
    _add_data_flags(est)
    est.add_argument("--output", "-o", required=True, help="output matrix CSV path")
    est.add_argument("--sidecar", default=None,
                     help="JSON sidecar path (default: output with .json suffix)")
    est.add_argument("--estimator", choices=[name.lower() for name in FITS], default="ll",
                     help="posterior plug-in (ll), banded regression (bl), or "
                          "graphical MLE (mle)")
    est.add_argument("--k", type=int, default=None,
                     help="explicit bandwidth; overrides --select-k")
    est.add_argument("--select-k", choices=("mode", "resampling"), default="mode",
                     help="bandwidth selection scheme when --k is absent")
    _add_model_flags(est)
    est.set_defaults(func=cmd_estimate)

    bw = subs.add_parser("bandwidth", help="evaluate bandwidth selection profiles")
    _add_data_flags(bw)
    bw.add_argument("--output", "-o", required=True, help="profile CSV path")
    bw.add_argument("--sidecar", default=None,
                    help="JSON sidecar path (default: output with .json suffix)")
    bw.add_argument("--scheme", choices=("mode", "resampling", "both"),
                    default="mode", help="which profiles to compute")
    _add_model_flags(bw)
    bw.set_defaults(func=cmd_bandwidth)

    sim = subs.add_parser("simulate", help="run a simulation experiment from a config")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--output-dir", required=True,
                     help="directory for results.csv and summary.json")
    sim.add_argument("--threads", type=int, default=None,
                     help="replication workers (default: all cores); never "
                          "changes results")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BandcholError as err:
        print(f"bandchol: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"bandchol: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
