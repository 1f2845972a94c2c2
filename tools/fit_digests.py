"""Fingerprint a fixed set of fits, one line per fit, to compare two versions.

Prints ``<case id> <sha256>`` for each fit. The hash covers everything a fit
returns except timings: the objective trace, hard labels, memberships,
centers, feature and view weights, dispersion ratios, iteration count and
convergence flag, plus the removal events, pruning iterations and reduced
views of the pruning solver and what callers read from its mask (the
original and active widths, the active views, each original view's active
columns and the reduction fraction, with their types). Two versions of
``mvclust`` fit bitwise alike exactly when their outputs are identical line
for line:

    PYTHONPATH=src python tools/fit_digests.py > new.txt
    PYTHONPATH=/path/to/old/src python tools/fit_digests.py > old.txt
    diff old.txt new.txt

The script fingerprints whichever ``mvclust`` is first on ``PYTHONPATH``.

A change that removes a setting is verified by running this script, with
its own ``tests/support.py``, under both ``src/`` trees: the new script's
cases leave the removed setting at the default the new code fixes, so the
old code fits the same problems and every line must match.
BLAS threading can change the last bits of matrix products, so it asks for
one BLAS thread unless the environment already sets a count.

The problems, each fit by both solvers (504 fits in all):
- ``random/<k>``: 200 problems from ``tests/support.random_instance``;
- ``bench/<n>/<noise>/<seed>``: the bundled benchmark at n = 1.5k and 15k
  with 1 or 4 uniform noise columns per view, data and solver seeds 0-2;
- ``wide/<k>``: 40 random problems with 8 uniform columns added to every
  view, so views are 9-14 columns wide.
Warnings are silenced; they are not part of a fit's result.
"""

from __future__ import annotations

import os

# before numpy is imported, so its BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from support import random_instance

from mvclust import amvfcm, aamvfcm
from mvclust.amvfcm import HyperParams
from mvclust.data import MultiViewDataset
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate

RANDOM_CASES = 200
WIDE_CASES = 40
WIDE_COLUMNS = 8


def cases():
    """Yield ``(case id, dataset, params)`` in a fixed order."""
    rng = np.random.default_rng(20240)
    for k in range(RANDOM_CASES):
        ds, params = random_instance(rng)
        yield f"random/{k}", ds, params
    for n in (1500, 15000):
        for noise in (1, 4):
            for seed in (0, 1, 2):
                ds = append_noise(generate(default_benchmark_spec(n, seed=seed)),
                                  NoiseSpec(features_per_view=noise), seed=seed)
                yield f"bench/{n}/{noise}/{seed}", ds, HyperParams(c=5, seed=seed)
    rng = np.random.default_rng(20241)
    for k in range(WIDE_CASES):
        ds, params = random_instance(rng)
        views = [np.hstack([X, rng.uniform(0.5, 2.0, size=(X.shape[0], WIDE_COLUMNS))])
                 for X in ds.views]
        yield f"wide/{k}", MultiViewDataset(views), params


def _feed(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def digest(result, pruning):
    h = hashlib.sha256()
    model = result.model
    _feed(h, result.objective_trace, result.hard_labels, model.membership,
          *model.centers, *model.feature_weights, model.view_weights, *result.delta)
    h.update(f"{result.iterations} {result.converged}".encode())
    if pruning:
        events = [dataclasses.astuple(ev) for ev in result.mask.removals]
        h.update(repr((events, list(result.pruning_iterations))).encode())
        _feed(h, *result.reduced_dataset.views)
        mask = result.mask
        h.update(repr((mask.original_dims, mask.active_dims, mask.active_views(),
                       mask.reduction_pct)).encode())
        _feed(h, *(mask.active_columns(v) for v in range(len(mask.original_dims))))
    return h.hexdigest()


def main():
    for case, ds, params in cases():
        for name, solver in (("full", amvfcm.fit), ("pruning", aamvfcm.fit)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    line = digest(solver(ds, params), name == "pruning")
                except Exception as exc:  # an error is an outcome to compare too
                    line = f"error {type(exc).__name__}: {exc}"
            print(f"{case}/{name} {line}", flush=True)


if __name__ == "__main__":
    main()
