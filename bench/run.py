"""Run one benchmark workload, or all of them, and print the metrics.

    python3 bench/run.py --workload sim_ar4_p100 --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --workload all

A single workload prints one line per metric, then, as its last line, a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A results file with the run environment, the op durations and any
failures goes to --results-dir. `--workload all` runs every workload in a
fresh process, one after the other, so that each peak RSS is its own.

bandchol is imported from the src/ directory next to this one; the run
exits with code 2, printing no result, when it is missing.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import threads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("sim_ar4_p100", "sim_fgn_ll_p500", "cli_estimate_p1000", "ploss_ar4_p500")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; op i uses seed + i (default 0, the reference seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: split the time between an untraced and a traced phase "
                             "and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that run in seconds; skips the reference check")
    parser.add_argument("--results-dir", default=str(BENCH_DIR / "results"))
    parser.add_argument("--record-reference", action="store_true",
                        help="write the default seed's outputs (and, traced, the call "
                             "counts) to bench/reference/")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads.pin()
    if args.workload == "all":
        return run_all(args)
    if args.record_reference and (args.seed != 0 or args.smoke):
        print("bench: --record-reference needs the default seed and full sizes",
              file=sys.stderr)
        return 2

    src = ROOT / "src"
    if not (src / "bandchol" / "__init__.py").is_file():
        print(f"bench: no bandchol package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bandchol

    if Path(bandchol.__file__).resolve().parent != (src / "bandchol").resolve():
        print(f"bench: imported bandchol from {bandchol.__file__}, not {src}",
              file=sys.stderr)
        return 2
    threads.check()

    import harness

    record = harness.run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.results_dir,
        smoke=args.smoke, record_reference=args.record_reference,
    )
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}" + (".smoke" if args.smoke else "")
    path = Path(args.results_dir) / f"BENCH_{stem}.json"
    reference = record.pop("reference", None)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if reference is not None and not record["failures"]:
        harness.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(harness.REFERENCE_DIR / f"{args.workload}.json", "w") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
    print_report(record, path)
    print(json.dumps(harness.result_line(record)))
    return 0


def print_report(record, path):
    print(f"{record['workload']}  seed={record['seed']}  trace={record['trace']}"
          "  (times host-normalised; wall time in brackets)")
    for name, m in record["end_to_end"].items():
        extra = f"  [{record['wall'][name]:.6g}]" if name in record["wall"] else ""
        if name == "op_p50_s":
            extra += f"  (n={record['op_p50_samples']})"
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'failed_frac':<14} {record['failed_frac']:.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} ops)")
    for failure in record["failures"]:
        print(f"  op {failure['op']} failed: {'; '.join(failure['problems'])}")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for name, pin in record.get("pinned_counts", {}).items():
        if pin["measured"] != pin["expected"]:
            print(f"  {name} = {pin['measured']}, pinned at {pin['expected']}")
    print(f"  results: {path}")


def run_all(args):
    """Run each workload in its own process and print every metric."""
    lines = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results-dir", args.results_dir]
        cmd += ["--smoke"] * args.smoke + ["--record-reference"] * args.record_reference
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines[name] = json.loads(out[-1])
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
