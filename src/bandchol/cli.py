"""Command line interface: estimate, bandwidth, simulate.

Matrices travel as CSV files with 17 significant digits, so a written
estimate reparses to the same floats. Every command writes a JSON sidecar
echoing its fully resolved parameters, defaults and seed included. The
one execution-only knob, simulate --threads, never appears in outputs and
never changes results, so reruns are byte-identical. Exit codes: 0
success, 2 bad input, 3 numerical failure.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .bandwidth import select_k_posterior_mode, select_k_resampling
from .bayes import PriorConfig, fit_posterior, plug_in_estimator
from .competitors import bl_banded_estimator, graphical_mle_banded
from .errors import BandcholError
from .simulate import ExperimentConfig, records_csv_text, run_experiment, summary_payload
from .stats import as_data_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

MATRIX_FMT = "%.17g"


# ---------------------------------------------------------------------------
# file handling
# ---------------------------------------------------------------------------

def read_data_csv(path, header=False, center=False):
    """Load an observations-by-variables CSV, reporting bad lines by number."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    with fh:
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
    x = as_data_matrix(np.array(rows))
    if center:
        x = x - x.mean(axis=0)
    return x


def write_matrix_csv(path, m):
    np.savetxt(path, np.asarray(m), delimiter=",", fmt=MATRIX_FMT)


def write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def default_sidecar(output_path):
    root, _ = os.path.splitext(output_path)
    return root + ".json"


def resolve_threads(value):
    """--threads flag, then BANDCHOL_THREADS, then all cores."""
    if value is None:
        env = os.environ.get("BANDCHOL_THREADS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise ValueError(
                    f"BANDCHOL_THREADS={env!r} is not an integer"
                ) from None
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise ValueError("threads must be at least 1")
    return value


def _default_kmax(n, p, nu0):
    # largest grid allowed by the selection preconditions, capped at 20
    return min(20, p - 1, int(np.floor(n + nu0 - 5 + 1e-12)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _input_echo(args, n, p):
    return {
        "path": args.data,
        "header": bool(args.header),
        "center": bool(args.center),
        "n": n,
        "p": p,
    }


def cmd_estimate(args):
    x = read_data_csv(args.data, header=args.header, center=args.center)
    n, p = x.shape
    kmax = args.kmax if args.kmax is not None else _default_kmax(n, p, args.nu0)
    splits = args.splits
    ref = args.ref_bandwidth if args.ref_bandwidth is not None \
        else max(1, min(20, n - 1, p - 1))
    prior_kwargs = {"M": args.cap, "nu0": args.nu0}

    if args.k is not None:
        k, source = args.k, "explicit"
    elif args.select_k == "mode":
        k = select_k_posterior_mode(x, kmax, prior=PriorConfig(0, **prior_kwargs)).mode
        source = "mode"
    else:
        k = select_k_resampling(
            x, kmax, splits=splits, ref_bandwidth=ref,
            rng=np.random.default_rng(args.seed),
        ).mode
        source = "resampling"

    if args.estimator == "ll":
        omega = plug_in_estimator(fit_posterior(x, PriorConfig(k, **prior_kwargs)))
    elif args.estimator == "bl":
        omega = bl_banded_estimator(x, k)
    else:
        omega = graphical_mle_banded(x, k)

    write_matrix_csv(args.output, omega)
    sidecar = args.sidecar or default_sidecar(args.output)
    write_json(sidecar, {
        "command": "estimate",
        "input": _input_echo(args, n, p),
        "parameters": {
            "estimator": args.estimator,
            "k": args.k,
            "select_k": args.select_k,
            "kmax": kmax,
            "splits": splits,
            "reference_bandwidth": ref,
            "M": args.cap,
            "nu0": args.nu0,
            "seed": args.seed,
        },
        "result": {"bandwidth": int(k), "bandwidth_source": source},
        "output": args.output,
    })
    return EXIT_OK


def cmd_bandwidth(args):
    x = read_data_csv(args.data, header=args.header, center=args.center)
    n, p = x.shape
    kmax = args.kmax if args.kmax is not None else _default_kmax(n, p, args.nu0)
    ref = args.ref_bandwidth if args.ref_bandwidth is not None \
        else max(1, min(20, n - 1, p - 1))
    schemes = ("mode", "resampling") if args.scheme == "both" else (args.scheme,)

    lines = ["scheme,k,value"]
    selected = {}
    if "mode" in schemes:
        post = select_k_posterior_mode(x, kmax, prior=PriorConfig(0, M=args.cap,
                                                                  nu0=args.nu0))
        selected["mode"] = post.mode
        for k, value in zip(post.k_values, post.log_posterior):
            lines.append(f"mode,{k},{format(value, '.17g')}")
    if "resampling" in schemes:
        res = select_k_resampling(
            x, kmax, splits=args.splits, ref_bandwidth=ref,
            rng=np.random.default_rng(args.seed),
        )
        selected["resampling"] = res.mode
        for k, value in zip(res.k_values, res.risk):
            lines.append(f"resampling,{k},{format(value, '.17g')}")
    with open(args.output, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    sidecar = args.sidecar or default_sidecar(args.output)
    write_json(sidecar, {
        "command": "bandwidth",
        "input": _input_echo(args, n, p),
        "parameters": {
            "scheme": args.scheme,
            "kmax": kmax,
            "splits": args.splits,
            "reference_bandwidth": ref,
            "M": args.cap,
            "nu0": args.nu0,
            "seed": args.seed,
        },
        "result": {"selected": selected},
        "output": args.output,
    })
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
    result = run_experiment(config, workers=workers)
    os.makedirs(args.output_dir, exist_ok=True)
    results_path = os.path.join(args.output_dir, "results.csv")
    summary_path = os.path.join(args.output_dir, "summary.json")
    with open(results_path, "w") as fh:
        fh.write(records_csv_text(result))
    write_json(summary_path, summary_payload(result))
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
                     help="largest bandwidth on the selection grid "
                          "(default: min(20, p-1, n+nu0-5))")
    sub.add_argument("--nu0", type=float, default=2.0,
                     help="shape offset of the variance prior (default 2)")
    sub.add_argument("--cap", type=float, default=1e6, metavar="M",
                     help="upper truncation M of the variance prior (default 1e6)")
    sub.add_argument("--splits", type=int, default=50,
                     help="resampling splits (default 50)")
    sub.add_argument("--ref-bandwidth", type=int, default=None,
                     help="reference bandwidth of the resampling scheme "
                          "(default min(20, n-1, p-1))")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for any randomized step (default 0)")


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
    est.add_argument("--estimator", choices=("ll", "bl", "mle"), default="ll",
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
                     help="replication workers (default: all cores, or "
                          "BANDCHOL_THREADS); never changes results")
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
