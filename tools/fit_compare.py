"""Compare the fits of two versions of ``mvclust`` within a tolerance.

``tools/fit_digests.py`` says whether two versions fit bitwise alike. This
script says how far apart they are when they do not:

    python tools/fit_compare.py /path/to/old/src

It runs every ``fit_digests.cases()`` fit, by both solvers, once under the
old ``src/`` and once under this tree's ``src/``, each in its own process
with one BLAS thread. For each fit it prints whether the hard labels and the
removal events are equal, the largest relative difference of the two
objective traces over their common prefix, and the two iteration counts;
then a summary line. The relative difference of two entries a and b is
|a - b| / max(|a|, |b|), and 0 when both are 0. A fit that raises on either
side compares by its error message instead. The exit status is 1 when any
fit's labels, removal events or error message differ, and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
NEW_SRC = TOOLS.parent / "src"


def emit():
    """Print one JSON line per fit for whichever ``mvclust`` is importable."""
    import hashlib
    import warnings

    import fit_digests
    from mvclust import aamvfcm, amvfcm

    for case, ds, params in fit_digests.cases():
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
                labels=hashlib.sha256(res.hard_labels.astype("<i8").tobytes()).hexdigest(),
                removals=[[ev.iteration, ev.kind, ev.view, ev.feature]
                          for ev in res.mask.removals],
                trace=[float(x) for x in res.objective_trace],
                iterations=res.iterations,
            )
            print(json.dumps(record), flush=True)


def _start(src):
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TOOLS}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.Popen([sys.executable, "-c", "import fit_compare; fit_compare.emit()"],
                            env=env, stdout=subprocess.PIPE, text=True)


def _relative_gap(a, b):
    gap = 0.0
    for x, y in zip(a, b):
        scale = max(abs(x), abs(y))
        if scale:
            gap = max(gap, abs(x - y) / scale)
    return gap


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tools/fit_compare.py OLD_SRC")
    procs = [_start(Path(argv[0]).resolve()), _start(NEW_SRC)]
    fits = same_labels = same_removals = 0
    worst = 0.0
    iteration_moves = []
    for old_line, new_line in zip(procs[0].stdout, procs[1].stdout):
        old, new = json.loads(old_line), json.loads(new_line)
        if old["case"] != new["case"]:
            sys.exit(f"case order differs: {old['case']} vs {new['case']}")
        fits += 1
        if "error" in old or "error" in new:
            same = old.get("error") == new.get("error")
            same_labels += same
            same_removals += same
            print(f"{old['case']} error {'equal' if same else 'DIFFERS'}: "
                  f"{old.get('error')} | {new.get('error')}")
            continue
        labels = old["labels"] == new["labels"]
        removals = old["removals"] == new["removals"]
        gap = _relative_gap(old["trace"], new["trace"])
        same_labels += labels
        same_removals += removals
        worst = max(worst, gap)
        if old["iterations"] != new["iterations"]:
            iteration_moves.append(old["epsilon"])
        print(f"{old['case']} labels {'equal' if labels else 'DIFFER'} "
              f"removals {'equal' if removals else 'DIFFER'} "
              f"trace {gap:.3g} iterations {old['iterations']} {new['iterations']}")
    for proc in procs:
        if proc.wait() != 0:
            sys.exit(f"a fitting process exited with {proc.returncode}")
    moved_at_zero = sum(eps == 0 for eps in iteration_moves)
    print(f"summary: {fits} fits; labels equal {same_labels}/{fits}; removals equal "
          f"{same_removals}/{fits}; worst relative trace difference {worst:.3g}; "
          f"iteration counts differ on {len(iteration_moves)} fits, "
          f"{moved_at_zero} of them with epsilon = 0")
    if same_labels < fits or same_removals < fits:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
