"""Measure where threaded trials beat trials on one thread.

    python tools/trial_threads.py [--cell C D N TRIALS ...] [--repeats R]

For each cell, a pruning-solver ``run_experiment`` of TRIALS trials with C
clusters on the synthetic benchmark of N samples, with (D - 4) / 2 uniform
noise columns per view (D columns in all), runs R times with ``jobs=1`` and R
times with ``jobs=2``, alternated so that host drift moves both sides alike.
``harness.POOL_MIN_CELLS`` is set to 0 in this process, so ``jobs=2`` runs
the pool at every size. A row gives the median ``total_seconds`` of each side,
their ratio (two threads over one) and the side that the shipped rule picks,
a pool from ``POOL_MIN_CELLS`` cells of C x N on. Everything runs with one
BLAS thread. The default grid is the one the rule was set from.
"""

from __future__ import annotations

import os

# before numpy is imported, so its BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GRID = ([(5, 12, n, 20) for n in (1_500, 5_000, 8_000, 10_000, 15_000)]
        + [(5, 12, n, 4) for n in (40_000, 80_000, 150_000)]
        + [(3, 6, n, 20) for n in (5_000, 8_000, 10_000, 15_000)]
        + [(3, 6, n, 4) for n in (27_000, 100_000)]
        + [(8, 12, n, 20) for n in (3_000, 6_000, 10_000)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cell", type=int, nargs=4, action="append",
                        metavar=("C", "D", "N", "TRIALS"), help="default: the rule's grid")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from mvclust import harness
    from mvclust.amvfcm import HyperParams

    # the shipped bound picks a side; lowered to 0, jobs=2 runs the pool at any size
    rule, harness.POOL_MIN_CELLS = harness.POOL_MIN_CELLS, 0

    def run_seconds(c, d, n, trials, jobs):
        source = harness.SynthSource(n=n, noise_features=(d - 4) // 2)
        config = harness.ExperimentConfig(algorithm="aamvfcm", params=HyperParams(c=c),
                                          trials=trials, synth=source, jobs=jobs)
        return harness.run_experiment(config).total_seconds

    print(f"{'c':>3} {'D':>3} {'n':>7} {'trials':>6} {'jobs=1 s':>9} {'jobs=2 s':>9} "
          f"{'ratio':>6}  rule")
    for c, d, n, trials in args.cell or GRID:
        seconds = {1: [], 2: []}
        for r in range(args.repeats):
            for jobs in ((1, 2) if r % 2 == 0 else (2, 1)):
                seconds[jobs].append(run_seconds(c, d, n, trials, jobs))
        one, two = (statistics.median(seconds[j]) for j in (1, 2))
        side = "pool" if c * n >= rule else "one thread"
        print(f"{c:>3} {d:>3} {n:>7} {trials:>6} {one:>9.4f} {two:>9.4f} {two / one:>6.2f}  {side}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
