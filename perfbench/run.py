"""mvclust benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload cli-fit-150k --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up, runs closed-loop operations for
``--seconds`` seconds with set-ups timed between them (their median is
``setup_s``), and reports the end-to-end metrics. ``--trace 1`` sets up once
under tracing, runs closed-loop operations untraced for half the time and
then the same operations traced (the difference of the two ``op_s`` medians
is the tracing overhead), and reports per-layer span totals and counts; the
spans themselves are written to ``.bench_work/traces/``.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The metric names and units come from ``BENCHMARK.json``; a run that would
report any other set of metrics stops with an error instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# one BLAS thread: steady timings, and jobs=2 pool threads never oversubscribe
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s: after each operation, set-ups are timed for SETUP_SHARE of that
# operation's time (at least one), and after the run until there are
# SETUP_MIN_REPEATS. On a shared 2-vCPU VM the same set-up ran up to 50%
# slower for seconds at a time, so a few set-ups of a few milliseconds, or
# many timed in one stretch, say little; set-ups spread over the whole run
# are steady.
SETUP_SHARE = 0.15
SETUP_MIN_REPEATS = 5


def environment():
    """Where a result came from; figures from different machines never mix."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_loop(workload, seconds, setup_times=None):
    """Closed loop: run operations until they have taken ``seconds`` (at least one).

    With ``setup_times``, set-ups are timed into it after each operation.
    """
    outcomes = []
    while True:
        outcomes.append(workload.step(len(outcomes)))
        if setup_times is not None:
            time_setups(workload, SETUP_SHARE * outcomes[-1].seconds, setup_times)
        if sum(o.seconds for o in outcomes) >= seconds:
            return outcomes


def _finite(value):
    return value if math.isfinite(value) else 0.0


def time_setups(workload, seconds, times):
    """Append the wall seconds of set-ups to ``times`` for ``seconds`` (at least one).

    Each set-up is a fresh copy of the workload with its own derived seed and
    directory, so the run's inputs stay as they are and a cache keyed on the
    inputs cannot hide set-up work.
    """
    t0 = time.perf_counter()
    while True:
        twin = type(workload)(workload.seed * 100_000 + 1 + len(times),
                              workload.work_dir / "setup", workload.src_dir)
        tic = time.perf_counter()
        twin.setup()
        times.append(time.perf_counter() - tic)
        if time.perf_counter() - t0 >= seconds:
            return


def result_line(metrics, units, outcomes, correct):
    """Print every metric with its unit; the result object for the last line."""
    if set(metrics) != set(units):
        raise SystemExit("error: metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} ({units[name]})")
    failed = sum(not o.ok for o in outcomes)
    return {
        "correct": bool(correct) and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": _finite(float(value)), "unit": units[name]}
                    for name, value in metrics.items()},
    }


def end_to_end(workload, seconds, units):
    workload.setup()
    setup_times = []
    outcomes = run_loop(workload, seconds, setup_times)
    while len(setup_times) < SETUP_MIN_REPEATS:
        time_setups(workload, 0, setup_times)
    ok = [o for o in outcomes if o.ok]
    fits = [f for o in ok for f in o.fits][:workload.quality_fits]
    times = [o.seconds for o in outcomes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(times),
        # per second spent in program calls, checks excluded
        "ops_per_s": len(outcomes) / sum(times),
        "peak_rss_mb": workload.peak_rss_mb(outcomes),
        "cols_kept": statistics.fmean(f.cols_kept for f in fits) if fits else math.nan,
        "real_cols_kept": statistics.fmean(f.real_cols_kept for f in fits) if fits else math.nan,
    }
    print(f"operations: {len(outcomes)}  set-ups: {len(setup_times)}")
    # printed, not gated: see perfbench/README.md
    print(f"fail_frac = {(len(outcomes) - len(ok)) / len(outcomes):.6g} (1)")
    ari_mean = statistics.fmean(f.ari for f in fits) if fits else math.nan
    if fits:
        print(f"ari.min = {min(f.ari for f in fits):.6g} (1) over the first {len(fits)} fits")
        print(f"ari.mean = {ari_mean:.6g} (1) over the first {len(fits)} fits, "
              f"floor {workload.ari_floor}")
        noise = statistics.fmean(f.cols_kept - f.real_cols_kept for f in fits)
        print(f"noise_cols_kept = {noise:.6g} (count)")
    weights = next((o.view_weights for o in ok if o.view_weights is not None), None)
    if weights is not None:
        print(f"final view weights (first op): {weights}")
    for problem in [p for o in outcomes for p in o.problems][:5]:
        print(f"FAILED: {problem}")
    if not ari_mean >= workload.ari_floor:
        print(f"FAILED: ari.mean {ari_mean:.6g} below the floor {workload.ari_floor}")
    return result_line(metrics, units, outcomes, ari_mean >= workload.ari_floor)


def traced(workload, seconds, spans, units):
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    if hasattr(workload, "use_child"):
        workload.use_child = False
    plain = run_loop(workload, seconds / 2)

    # the traced half repeats the untraced operations, so the overhead compares like work
    timed = []
    tracer.install()
    try:
        for index in range(len(plain)):
            tracer.op = f"op{index}"
            timed.append(workload.step(index))
    finally:
        tracer.uninstall()

    outcomes = plain + timed
    plain_p50 = statistics.median(o.seconds for o in plain)
    timed_p50 = statistics.median(o.seconds for o in timed)
    metrics = {}
    for span, st in tracer.layer_stats().items():
        for key in spans.SPAN_FIELDS:
            metrics[f"{span}.{key}"] = st[key]
    metrics.update(tracer.counts())
    metrics["cli.import_s"] = spans.import_seconds(SRC, sys.executable)
    metrics["trace.ops"] = len(timed)
    metrics["trace.overhead_s"] = timed_p50 - plain_p50
    metrics["trace.overhead_frac"] = (timed_p50 - plain_p50) / plain_p50

    path = tracer.dump(WORK / "traces" / f"{workload.name}-seed{workload.seed}.jsonl")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"absent spans: {', '.join(tracer.absent) or 'none'}")
    op_stats = tracer.layer_stats(lambda op: op != "setup")
    busy = sum(st["self_s"] for st in op_stats.values())
    print(f"self-time shares over the {len(timed)} traced operations:")
    for span, st in sorted(op_stats.items(), key=lambda kv: -kv[1]["self_s"]):
        if st["calls"]:
            print(f"  {span:<32} {100 * st['self_s'] / busy:6.2f}%  "
                  f"{st['self_s']:.4f} s self  {st['calls']} calls")
    return result_line(metrics, units, outcomes, True)


def _terminate(signum, frame):
    # unwind through the finally blocks that stop child processes
    sys.exit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mvclust" / "__init__.py").is_file():
        print(f"error: no mvclust package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    # before numpy loads, and inherited by every child process
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("MVCLUST_SEED", None)  # would override the harness seed base
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    work_dir = WORK / f"run-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, SRC)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    try:
        if args.trace:
            result = traced(workload, args.seconds, spans, units)
        else:
            result = end_to_end(workload, args.seconds, units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
