"""Factorization counts and timings of norm_spectral's band search.

Counts the LAPACK dpbtrf calls that linalg.norm_spectral makes per norm and
prints their median, quartiles and worst case over two sets of symmetric
bands:

- random bands: 20 for each order p in 100, 200, 300, 500, 700 and 1000, of
  lower bandwidth b drawn from 1 to 64 and standard normal entries;
- P-loss draw differences: compose of a k = 4 posterior draw minus the ar4
  truth at n = p = 500, the posterior fitted to the seed-0 sample, 10 draws
  from each of the seeds 0 to 19, as bayes.estimate_p_loss makes them.

It then times linalg._band_norm against linalg._dense_extremes, the two
paths that linalg.BAND_BISECTION_LIMIT chooses between, on random bands
(median over seven bands of the best of three calls each, milliseconds),
and prints for each p the widest band the search still wins on and the
limit p^3 / b^2 that would switch there. It needs numpy and the standard
library besides bandchol itself. Run from the repository root, on one BLAS
thread for timings that match the comment table in linalg.py:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/norm_sweep.py [--smoke] [--counts-only]

--smoke shrinks every set to a few small bands and draws, in seconds.
"""

import argparse
import os
import statistics
import sys
import time
from unittest import mock

import numpy as np

import bandchol as bc
from bandchol import bayes, linalg

RANDOM_ORDERS = (100, 200, 300, 500, 700, 1000)
RANDOM_WIDEST = 64
RANDOM_PER_ORDER = 20
# (n = p, seeds, draws per seed) of the P-loss differences
PLOSS = (500, 20, 10)
# p -> the lower bandwidths timed at it
TIMING_GRID = {
    50: (0, 1, 2, 3, 4),
    100: (2, 3, 4, 5, 6, 8),
    200: (8, 12, 16, 24, 32),
    300: (16, 24, 32, 48, 64),
    500: (40, 60, 80, 120, 160),
    700: (80, 120, 160, 240, 320),
    1000: (128, 192, 256, 384, 512),
}
TIMED_BANDS, TIMED_CALLS = 7, 3

SMOKE_ORDERS, SMOKE_WIDEST, SMOKE_PER_ORDER = (30, 60), 8, 4
SMOKE_PLOSS = (100, 1, 4)
SMOKE_GRID = {30: (0, 1, 2), 60: (1, 2, 4)}


def symmetric_band(rng, p, b):
    """A dense symmetric matrix of order p and bandwidth b, normal entries."""
    m = rng.standard_normal((p, p))
    m = m + m.T
    m[np.abs(np.subtract.outer(np.arange(p), np.arange(p))) > b] = 0.0
    return m


def random_bands(orders, widest, per_order):
    """The lower bands, in _band_norm's storage, of random symmetric bands."""
    rng = np.random.default_rng(0)
    for p in orders:
        for _ in range(per_order):
            b = int(rng.integers(1, min(widest, p - 1) + 1))
            yield linalg._bands(symmetric_band(rng, p, b), b)[0]


def ploss_differences(p, seeds, draws):
    """compose(draw) - omega0 for the posterior draws of estimate_p_loss."""
    sigma, omega0 = bc.TrueModelSpec("ar4", p).build()
    x = bc.sample_gaussian(sigma, p, np.random.default_rng(0))
    model = bc.fit_posterior(x, bc.PriorConfig(4))
    for seed in range(seeds):
        d, a = bayes._sample_columns(model, draws, np.random.default_rng(seed))
        for s in range(draws):
            yield bc.compose(bc.CholeskyFactor(a=a[s], d=d[s])) - omega0


def factorizations(norm, m):
    """The number of dpbtrf calls norm(m) makes."""
    calls = [0]
    real = linalg.dpbtrf

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    with mock.patch.object(linalg, "dpbtrf", counted):
        norm(m)
    return calls[0]


def summary(counts):
    q1, median, q3 = np.percentile(counts, [25, 50, 75])
    return (f"{len(counts)} norms: median {median:g}, quartiles {q1:g}-{q3:g}, "
            f"worst {max(counts)}, mean {np.mean(counts):.2f}")


def best_ms(fn, arg):
    best = float("inf")
    for _ in range(TIMED_CALLS):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def timings(grid):
    """Print band search and dense times per (p, b), and the limit implied
    by the widest band the search wins on at each p."""
    rng = np.random.default_rng(1)
    limits = []
    for p, widths in grid.items():
        cells, widest_win = [], None
        for b in widths:
            band_ms, dense_ms = [], []
            for _ in range(TIMED_BANDS):
                m = symmetric_band(rng, p, b)
                band = linalg._bands(m, b)[0]
                band_ms.append(best_ms(linalg._band_norm, band))
                dense_ms.append(best_ms(linalg._dense_extremes, m))
            band_t, dense_t = statistics.median(band_ms), statistics.median(dense_ms)
            cells.append(f"b = {b} {band_t:.3g}/{dense_t:.3g}")
            if band_t <= dense_t:
                widest_win = b
        implied = ""
        if widest_win:
            limits.append(p ** 3 // widest_win ** 2)
            implied = f"  -> limit p^3/b^2 = {limits[-1]}"
        print(f"  p = {p}: " + "   ".join(cells) + implied)
    if limits:
        print(f"  implied limits: median {int(statistics.median(limits))}, "
              f"current BAND_BISECTION_LIMIT {linalg.BAND_BISECTION_LIMIT}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes, seconds in all")
    parser.add_argument("--counts-only", action="store_true", help="skip the timings")
    args = parser.parse_args(argv)
    orders, widest, per_order = ((SMOKE_ORDERS, SMOKE_WIDEST, SMOKE_PER_ORDER) if args.smoke
                                 else (RANDOM_ORDERS, RANDOM_WIDEST, RANDOM_PER_ORDER))
    print("dpbtrf calls per norm")
    counts = [factorizations(linalg._band_norm, band)
              for band in random_bands(orders, widest, per_order)]
    print(f"  random bands (p = {orders[0]}-{orders[-1]}, b = 1-{widest}): {summary(counts)}")
    p, seeds, draws = SMOKE_PLOSS if args.smoke else PLOSS
    counts = [factorizations(linalg.norm_spectral, m) for m in ploss_differences(p, seeds, draws)]
    print(f"  P-loss draw differences (ar4, k = 4, p = {p}): {summary(counts)}")
    if not args.counts_only:
        print("band search/dense, ms (one thread: "
              f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
        timings(SMOKE_GRID if args.smoke else TIMING_GRID)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
