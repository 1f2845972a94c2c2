"""Time the layers of warm ``mvclust fit`` runs, one child process each.

    python tools/fit_io.py SRC MANIFEST [RUNS]

Runs ``mvclust fit --algo aamvfcm --clusters 5 --epsilon 0 --max-iters 12
--dump-weights`` on ``MANIFEST`` (the arguments of the ``cli-fit-150k``
benchmark workload), importing ``mvclust`` from ``SRC`` (a ``src/``
directory), once untimed to warm the parse cache and then ``RUNS`` times
(default 7), each in a fresh interpreter with one BLAS thread and seeds
0, 1, .... The cache is the one ``XDG_CACHE_HOME`` names, as for any run.
Before the first child it waits until the view and label files it lists
last changed more than ``RACY_S`` ago: the cache trusts no younger file's
stamp, so the children would hash their inputs and ``rchar`` count them.
For each timed child it prints the milliseconds spent in

- ``start``: from the spawn to the first statement of the child's script
  (interpreter start-up and ``site``);
- ``numpy``: ``import numpy``;
- ``mvclust``: ``import mvclust.cli``;
- ``main``: ``mvclust.cli.main`` with those arguments;
- ``exit``: from the return of ``main`` to the end of the child (interpreter
  and module teardown);

then ``rchar`` and ``wchar`` in MB: the bytes the child passed through
``read`` and ``write`` calls of every kind, from its own ``/proc/self/io``
just after ``main`` (Linux only; ``-`` elsewhere). A last row gives the
medians. The clock is ``CLOCK_MONOTONIC``, which parent and child share.
Reports and labels go to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIT_ARGS = ["fit", "--algo", "aamvfcm", "--clusters", "5", "--epsilon", "0",
            "--max-iters", "12", "--dump-weights"]
COLUMNS = ("start", "numpy", "mvclust", "main", "exit", "rchar", "wchar")
# the parse cache's mvclust.data._RACY_NS, in seconds
RACY_S = 2.0

# the child: argv is [out file, mvclust argv...]; it writes one JSON object
CHILD = """
import time
t = [time.clock_gettime_ns(time.CLOCK_MONOTONIC)]
import contextlib, json, os, sys
import numpy
t.append(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
import mvclust.cli
t.append(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \\
        contextlib.redirect_stderr(sink):
    code = mvclust.cli.main(sys.argv[2:])
t.append(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
try:
    with open("/proc/self/io", encoding="ascii") as fh:
        io = dict(line.split(": ") for line in fh.read().splitlines())
    chars = [int(io["rchar"]), int(io["wchar"])]
except OSError:
    chars = [None, None]
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"code": code, "t": t, "chars": chars}, fh)
"""


def _child(src, argv, work):
    # one timed child; its row of COLUMNS
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = work / "child.json"
    spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    subprocess.run([sys.executable, "-c", CHILD, str(out), *argv], env=env, check=True)
    end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    record = json.loads(out.read_text(encoding="utf-8"))
    if record["code"] != 0:
        sys.exit(f"mvclust fit exited {record['code']}")
    marks = [spawn, *record["t"], end]
    row = {name: (b - a) / 1e6 for name, a, b in
           zip(("start", "numpy", "mvclust", "main", "exit"), marks, marks[1:])}
    for name, value in zip(("rchar", "wchar"), record["chars"]):
        row[name] = None if value is None else value / 1e6
    return row


def _settle(manifest):
    # sleeps until the view and label files the manifest lists are
    # older than RACY_S, by their modification and change times
    lines = manifest.read_text(encoding="utf-8").splitlines()
    files = [manifest.parent / value.strip() for key, _, value in
             (line.partition("=") for line in lines)
             if key.strip() in ("view", "labels")]
    newest = max(max(st.st_mtime_ns, st.st_ctime_ns) for st in map(os.stat, files))
    time.sleep(max(0.0, RACY_S + 0.01 - (time.time_ns() - newest) / 1e9))


def _line(label, row):
    cells = ("-" if row[name] is None else f"{row[name]:.1f}" for name in COLUMNS)
    return f"{label:>6}" + "".join(f"{cell:>10}" for cell in cells)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit("usage: python tools/fit_io.py SRC MANIFEST [RUNS]")
    src, manifest = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    runs = int(argv[2]) if len(argv) == 3 else 7
    print(f"mvclust from {src}, manifest {manifest}, {runs} warm runs")
    print(f"{'run':>6}" + "".join(f"{name:>10}" for name in COLUMNS)
          + "   (ms; rchar and wchar in MB)")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base = [*FIT_ARGS, "--config", str(manifest), "--out-dir", str(work / "out")]
        _settle(manifest)
        _child(src, [*base, "--seed", "0"], work)  # warms the parse cache
        rows = []
        for k in range(runs):
            rows.append(_child(src, [*base, "--seed", str(k)], work))
            print(_line(str(k), rows[-1]))
    medians = {name: None if any(r[name] is None for r in rows)
               else statistics.median(r[name] for r in rows) for name in COLUMNS}
    print(_line("median", medians))


if __name__ == "__main__":
    main(sys.argv[1:])
