"""Compare the fits of two versions of ``mvclust``: bitwise, and how far apart.

    python tools/fit_compare.py /path/to/old/src

It runs a fixed set of 504 fits once under the old ``src/`` and once under
this tree's ``src/``, each in its own process with one BLAS thread (BLAS
threading can change the last bits of matrix products). Both processes take
the problems from this tree's ``tests/support.py``, so a change that removes
a setting is checked on cases that leave it at the default the new code
fixes, and the old code fits the same problems.

Each process prints one JSON record per fit. Its ``digest`` is a sha256 of
everything the fit returns except timings: the objective trace, hard labels,
memberships, centers, feature and view weights, dispersion ratios, iteration
count and convergence flag, plus the removal events, pruning iterations and
reduced views of the pruning solver and what callers read from its mask (the
original and active widths, the active views, each original view's active
columns and the reduction fraction, with their types). To list one tree's
records:

    PYTHONPATH=src:tools python -c "import fit_compare; fit_compare.emit()"

A parent commit's ``src/`` to compare against is unpacked with

    git archive <rev> src | tar -x -C <dir>

and passed as ``<dir>/src``.

Each per-fit line begins ``bitwise equal`` or ``bitwise DIFFERS`` (the two
digests), then says whether the hard labels and the removal events are equal
(with how many of the n samples are labelled differently when the labels are
not), the largest relative difference of the two objective traces over their
common prefix, and the two iteration counts; then a summary line. The
relative difference of two entries a and b is |a - b| / max(|a|, |b|), and 0
when both are 0. A fit that raises on either side compares by its error
message instead. The exit status is 1 when any fit's labels, removal events
or error message differ, and 0 otherwise.

The problems, each fit by both solvers:
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
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
NEW_SRC = TOOLS.parent / "src"

RANDOM_CASES = 200
WIDE_CASES = 40
WIDE_COLUMNS = 8


def cases():
    """Yield ``(case id, dataset, params)`` in a fixed order."""
    sys.path.insert(0, str(TOOLS.parent / "tests"))
    from support import random_instance

    from mvclust.amvfcm import HyperParams
    from mvclust.data import MultiViewDataset
    from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate

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


def emit():
    """Print one JSON line per fit for whichever ``mvclust`` is importable."""
    import warnings

    from mvclust import aamvfcm, amvfcm

    for case, ds, params in cases():
        for name, solver in (("full", amvfcm.fit), ("pruning", aamvfcm.fit)):
            record = {"case": f"{case}/{name}", "epsilon": params.epsilon}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    res = solver(ds, params)
                except Exception as exc:  # an error is an outcome to compare too
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    print(json.dumps(record), flush=True)
                    continue
            record.update(
                digest=digest(res, name == "pruning"),
                labels=res.hard_labels.astype("<i2").tobytes().hex(),
                removals=[[ev.iteration, ev.kind, ev.view, ev.feature]
                          for ev in res.mask.removals],
                trace=[float(x) for x in res.objective_trace],
                iterations=res.iterations,
            )
            print(json.dumps(record), flush=True)


def _start(src):
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TOOLS}")
    return subprocess.Popen([sys.executable, "-c", "import fit_compare; fit_compare.emit()"],
                            env=env, stdout=subprocess.PIPE, text=True)


def _relative_gap(a, b):
    gap = 0.0
    for x, y in zip(a, b):
        scale = max(abs(x), abs(y))
        if scale:
            gap = max(gap, abs(x - y) / scale)
    return gap


def _label_moves(old, new):
    a, b = (np.frombuffer(bytes.fromhex(x), dtype="<i2") for x in (old, new))
    return f"{np.count_nonzero(a != b)} of {a.size} samples"


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tools/fit_compare.py OLD_SRC")
    procs = [_start(Path(argv[0]).resolve()), _start(NEW_SRC)]
    fits = same_bits = same_labels = same_removals = 0
    worst = 0.0
    iteration_moves = []
    for old_line, new_line in zip(procs[0].stdout, procs[1].stdout):
        old, new = json.loads(old_line), json.loads(new_line)
        if old["case"] != new["case"]:
            sys.exit(f"case order differs: {old['case']} vs {new['case']}")
        fits += 1
        if "error" in old or "error" in new:
            same = old.get("error") == new.get("error")
            same_bits += same
            same_labels += same
            same_removals += same
            print(f"bitwise {'equal' if same else 'DIFFERS'} {old['case']} error "
                  f"{'equal' if same else 'DIFFERS'}: {old.get('error')} | {new.get('error')}")
            continue
        bits = old["digest"] == new["digest"]
        labels = old["labels"] == new["labels"]
        moved = "" if labels else f" ({_label_moves(old['labels'], new['labels'])})"
        removals = old["removals"] == new["removals"]
        gap = _relative_gap(old["trace"], new["trace"])
        same_bits += bits
        same_labels += labels
        same_removals += removals
        worst = max(worst, gap)
        if old["iterations"] != new["iterations"]:
            iteration_moves.append(old["epsilon"])
        print(f"bitwise {'equal' if bits else 'DIFFERS'} {old['case']} "
              f"labels {'equal' if labels else 'DIFFER'}{moved} "
              f"removals {'equal' if removals else 'DIFFER'} "
              f"trace {gap:.3g} iterations {old['iterations']} {new['iterations']}")
    for proc in procs:
        proc.stdout.close()  # a side still writing gets a broken pipe, not a full one
    codes = [proc.wait() for proc in procs]
    if any(codes):
        sys.exit(f"the fitting processes exited with {codes[0]} (old) and {codes[1]} (new)")
    moved_at_zero = sum(eps == 0 for eps in iteration_moves)
    print(f"summary: {fits} fits; bitwise equal {same_bits}/{fits}; labels equal "
          f"{same_labels}/{fits}; removals equal {same_removals}/{fits}; worst relative "
          f"trace difference {worst:.3g}; iteration counts differ on "
          f"{len(iteration_moves)} fits, {moved_at_zero} of them with epsilon = 0")
    if same_labels < fits or same_removals < fits:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
