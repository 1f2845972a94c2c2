"""Time the fits of two versions of ``mvclust`` against each other, in one process.

    python tools/fit_ab.py OLD_SRC [--pairs N] [--kernel-fits N] [--seed S]

It imports the ``mvclust`` under ``OLD_SRC`` (a ``src/`` directory) as the
package ``mvclust_old``, next to this tree's ``mvclust``, and builds
``overlap-15k``-style data from the workload seed: the benchmark means with
covariance scale 4, 15,000 samples and 4 uniform noise columns per view.
Each version gets its own dataset over the same arrays and keeps it for all
its fits, as the benchmark does. Then it alternates full-solver fits of the
two versions (c = 5, 30 iterations, epsilon 0, one solver seed per pair,
the old version first in even pairs and the new one first in odd pairs), so
host drift moves both fits of a pair alike and cancels within it. It prints
both medians, how many pairs each side won, whether the hard labels were
equal in every pair and the largest relative gap between the two objective
traces (|a - b| / max(|a|, |b|) over their common prefix).

Then it times each block of each version, in a separate set of alternated
fits with every kernel below rebound in the version's ``amvfcm`` to a timing
wrapper: calls per fit and self milliseconds per fit, which leave out the
wrapped kernels a kernel calls. ``rest of fit`` is the fit's own time outside
all of them. A kernel that a version does not have or did not call (the
kept per-dataset work, after the first fit) reads ``-``. The wrappers
cost time of their own, so the per-kernel figures add up to more than the
unwrapped medians. Everything runs with one BLAS thread.
"""

from __future__ import annotations

import os

# before numpy is imported, so its BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np
from fit_compare import _relative_gap

NEW_SRC = Path(__file__).resolve().parents[1] / "src"
N, CLUSTERS, ITERATIONS, NOISE, COVARIANCE_SCALE = 15_000, 5, 30, 4, 4.0
KERNELS = ("validate", "_stack", "_centre", "clamped_ratios", "_seeding_norms", "init_centers",
           "_sweep", "_centers_with_reseed", "_feature_costs", "_feature_weights", "_view_starts",
           "entropic_simplex_argmin", "_objective_given_costs", "_hard_labels")


def _import_as(name, src):
    # the package under src/mvclust, registered as ``name``; its relative
    # imports then resolve among its own modules
    pkg = Path(src).resolve() / "mvclust"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.amvfcm"), importlib.import_module(f"{name}.data")


class Side:
    """One version: its solver module, its dataset and its kernel timings."""

    def __init__(self, label, amvfcm, data, views, labels):
        self.label, self.amvfcm = label, amvfcm
        self.dataset = data.MultiViewDataset(views, labels)
        self.self_s, self.calls, self.stack = {}, {}, []

    def fit(self, seed):
        params = self.amvfcm.HyperParams(c=CLUSTERS, seed=seed, epsilon=0.0, t_max=ITERATIONS)
        tic = time.perf_counter()
        result = self.amvfcm.fit(self.dataset, params)
        return time.perf_counter() - tic, result

    def wrap(self):
        for name in ("fit",) + KERNELS:
            if hasattr(self.amvfcm, name):
                setattr(self.amvfcm, name, self._timed(name, getattr(self.amvfcm, name)))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            self.stack.append(0.0)  # time spent in wrapped callees
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - tic
                inner = self.stack.pop()
                if self.stack:
                    self.stack[-1] += spent
                self.self_s[name] = self.self_s.get(name, 0.0) + spent - inner
                self.calls[name] = self.calls.get(name, 0) + 1
        return timed


def _alternate(sides, pairs, seed):
    # yields (pair, [(seconds, result) of old, of new])
    for k in range(pairs):
        order = sides if k % 2 == 0 else sides[::-1]
        runs = {side.label: side.fit(seed * 10_000 + k) for side in order}
        yield k, [runs[side.label] for side in sides]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--kernel-fits", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(NEW_SRC))
    import mvclust.amvfcm
    import mvclust.data
    from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate

    spec = dataclasses.replace(default_benchmark_spec(N, seed=args.seed),
                               covariance_scale=COVARIANCE_SCALE)
    data = append_noise(generate(spec), NoiseSpec(features_per_view=NOISE), seed=args.seed)
    old_amvfcm, old_data = _import_as("mvclust_old", args.old_src)
    sides = [Side("old", old_amvfcm, old_data, data.views, data.labels),
             Side("new", mvclust.amvfcm, mvclust.data, data.views, data.labels)]
    print(f"old {Path(args.old_src).resolve()}  new {NEW_SRC}")
    print(f"numpy {np.__version__}, one BLAS thread, n = {N}, c = {CLUSTERS}, "
          f"{ITERATIONS} iterations, data seed {args.seed}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for side in sides:  # the first fit of each side fills its dataset's memo
            side.fit(0)
        times, wins, same_labels, gap = ([], []), 0, 0, 0.0
        for _, ((t_old, r_old), (t_new, r_new)) in _alternate(sides, args.pairs, args.seed):
            times[0].append(t_old)
            times[1].append(t_new)
            wins += t_new < t_old
            same_labels += np.array_equal(r_old.hard_labels, r_new.hard_labels)
            gap = max(gap, _relative_gap(r_old.objective_trace, r_new.objective_trace))
        old_ms, new_ms = (statistics.median(t) * 1e3 for t in times)
        print(f"{args.pairs} pairs: old median {old_ms:.2f} ms, new median {new_ms:.2f} ms "
              f"({(new_ms / old_ms - 1) * 100:+.1f}%); new faster in {wins}/{args.pairs}, "
              f"old faster in {args.pairs - wins}/{args.pairs}")
        print(f"labels equal in {same_labels}/{args.pairs} pairs; largest relative trace "
              f"gap {gap:.3g}")

        for side in sides:
            side.wrap()
        for _ in _alternate(sides, args.kernel_fits, args.seed + 1):
            pass
    fits = args.kernel_fits

    def cell(side, name):
        if name not in side.calls:
            return f"{'-':>10}{'-':>9}"
        return f"{side.calls[name] / fits:>10.1f}{side.self_s[name] / fits * 1e3:>9.3f}"

    print(f"\nper kernel, wrapped, over {fits} fits per side: calls and self ms per fit")
    print(f"{'kernel':<24}{'old calls':>10}{'old ms':>9}{'new calls':>10}{'new ms':>9}")
    for name in KERNELS + ("fit",):
        label = "rest of fit" if name == "fit" else name
        print(f"{label:<24}{cell(sides[0], name)}{cell(sides[1], name)}")

if __name__ == "__main__":
    main(sys.argv[1:])
