"""The three benchmark workloads: inputs, one closed-loop step, output checks.

Every workload is one client in a closed loop: the next operation starts when
the previous one has returned. Inputs come only from the workload seed. Each
operation's outputs are checked, and a failed check, an exception, a non-zero
exit or a non-finite value marks that operation failed without stopping the
run.

- ``cli-fit-150k``: ``mvclust fit --algo aamvfcm --clusters 5`` as a child
  process on a 150,000-sample manifest written in set-up (the ROADMAP's
  end-to-end path: CSV load, delta, seeding, iterations, report writes).
- ``sweep-1.5k``: one operation is one ``harness.run_experiment`` call of
  ``SWEEP_TRIALS_PER_CALL`` trials with ``jobs=2`` on an in-memory
  1,500-sample source. Seeding-dominated, no dataset I/O, and the only use of
  the harness thread pool.
- ``overlap-15k``: one operation is one in-process ``fit_full`` on the
  benchmark means with variance 4 (clusters overlap), 15,000 samples, with a
  solver seed derived from the workload seed; the iteration blocks dominate.

``cli-fit-150k`` and ``overlap-15k`` run a fixed iteration count
(``epsilon=0``), so an operation's work does not depend on which local
optimum a seed lands in; ``sweep-1.5k`` runs the harness defaults and
converges as users see it.

Quality is scored here, not with ``mvclust.metrics``, so that a fault in the
program's own scoring cannot hide behind itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mvclust.amvfcm
import mvclust.cli
import mvclust.data
import mvclust.harness
import mvclust.synth

CLUSTERS = 5
NOISE_PER_VIEW = 4
SIMPLEX_TOL = 1e-9
ARI_TOL = 1e-12
CHILD_TIMEOUT_S = 120.0
SWEEP_TRIALS_PER_CALL = 20
SWEEP_JOBS = 2
SWEEP_DATASETS = 16
# Fixed solver work per operation. Which local optimum a seed lands in sets
# how many iterations a converging fit needs, and that alone moved op_s by
# 15-25% from seed to seed. With epsilon 0 a fit stops early only on an exactly
# repeated objective, which no fit reached before these counts.
CLI_ITERS = 12
OVERLAP_ITERS = 30


def adjusted_rand_index(truth, pred):
    """Hubert-Arabie adjusted Rand index from a contingency table, exact in integers."""
    _, t = np.unique(np.asarray(truth), return_inverse=True)
    _, p = np.unique(np.asarray(pred), return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(table, (t, p), 1)

    def pairs(counts):
        return sum(int(k) * (int(k) - 1) // 2 for k in np.ravel(counts))

    index, rows, cols, total = (pairs(table), pairs(table.sum(axis=1)),
                                pairs(table.sum(axis=0)), pairs([t.size]))
    # (index - rows*cols/total) / ((rows + cols)/2 - rows*cols/total), times 2*total
    den = total * (rows + cols) - 2 * rows * cols
    return (2 * total * index - 2 * rows * cols) / den if den else math.nan


@dataclass
class Fit:
    """Quality of one checked fit."""

    ari: float
    cols_kept: int
    real_cols_kept: int


@dataclass
class Outcome:
    """One operation: its wall time, whether every check held, and its fits."""

    seconds: float
    ok: bool = False
    fits: list = field(default_factory=list)
    rss_mb: float | None = None
    problems: list = field(default_factory=list)
    view_weights: list | None = None


def _noisy(spec, seed):
    data = mvclust.synth.generate(spec)
    noise = mvclust.synth.NoiseSpec(features_per_view=NOISE_PER_VIEW)
    return mvclust.synth.append_noise(data, noise, seed=seed)


def _real_dims(spec):
    return [m.shape[1] for m in spec.means]


def _fit(truth, labels, columns, real_dims):
    """Score one fit; ``columns`` maps each kept view to its original column ids."""
    # noise columns are appended to the right of each view's real columns
    real = sum(int(np.sum(np.asarray(cols) < real_dims[h])) for h, cols in columns.items())
    kept = sum(len(cols) for cols in columns.values())
    return Fit(adjusted_rand_index(truth, labels), kept, real)


def check_labels(labels, n, c):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"labels shape {labels.shape}, expected ({n},)"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"labels dtype {labels.dtype} is not integer"]
    if labels.min() < 0 or labels.max() >= c:
        return [f"labels outside [0, {c})"]
    return []


def _on_simplex(name, arr, axis=None):
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        return [f"{name} has non-finite entries"]
    if arr.min() < -SIMPLEX_TOL:
        return [f"{name} has negative entries ({arr.min():.3g})"]
    err = float(np.max(np.abs(arr.sum(axis=axis) - 1.0)))
    return [] if err <= SIMPLEX_TOL else [f"{name} off the simplex by {err:.3g}"]


def check_model(result, n, c):
    """Labels in range, memberships and both weight vectors on the simplex."""
    model = result.model
    problems = check_labels(result.hard_labels, n, c)
    problems += _on_simplex("membership rows", model.membership, axis=1)
    for h, w in enumerate(model.feature_weights):
        problems += _on_simplex(f"feature weights of view {h}", w)
    problems += _on_simplex("view weights", model.view_weights)
    if not np.isfinite(np.asarray(result.objective_trace)).all():
        problems.append("non-finite objective")
    return problems


def check_non_increasing(trace, rel_slack=1e-9):
    """The full solver's guarantee: no objective step goes up (within slack)."""
    trace = np.asarray(trace, dtype=float)
    for t in range(1, trace.size):
        if trace[t] > trace[t - 1] + rel_slack * max(1.0, abs(trace[t - 1])):
            return [f"objective rose at iteration {t}: {trace[t - 1]!r} -> {trace[t]!r}"]
    return []


class Workload:
    name = ""
    # quality (ARI, columns kept) covers the first this many fits of a run, so
    # a faster program is not scored on more fits
    quality_fits = 1
    # the run is not correct when the mean ARI over those fits falls below
    # this; set under the lowest mean of ten seeds at the commit that added
    # the benchmark (see baseline.json)
    ari_floor = 0.0

    def __init__(self, seed, work_dir, src_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.src_dir = Path(src_dir)

    def setup(self):
        """Build the inputs from the workload seed."""
        raise NotImplementedError

    def step(self, index):
        """Run and check operation ``index``; its time covers the program call only."""
        raise NotImplementedError

    @staticmethod
    def peak_rss_mb(outcomes):
        """Median peak RSS of the child processes, else of this process."""
        peaks = [o.rss_mb for o in outcomes if o.rss_mb is not None]
        if peaks:
            return float(np.median(peaks))
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliFit(Workload):
    """``mvclust fit`` on a 150k-sample manifest, one child process per op."""

    name = "cli-fit-150k"
    n = 150_000
    quality_fits = 2
    ari_floor = 0.65
    # the traced run calls cli.main in-process: spans cannot reach a child
    use_child = True

    def setup(self):
        self.spec = mvclust.synth.default_benchmark_spec(self.n, seed=self.seed)
        data = _noisy(self.spec, self.seed)
        self.labels = np.asarray(data.labels)
        data_dir = self.work_dir / "input"
        shutil.rmtree(data_dir, ignore_errors=True)
        self.manifest = mvclust.data.save_dataset(data, data_dir)

    def _argv(self, index, out_dir):
        return ["fit", "--algo", "aamvfcm", "--clusters", str(CLUSTERS),
                "--config", str(self.manifest), "--seed", str(self.seed * 1000 + index),
                "--epsilon", "0", "--max-iters", str(CLI_ITERS),
                "--dump-weights", "--out-dir", str(out_dir)]

    def _run_child(self, argv, out_dir):
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        with open(out_dir / "stderr.txt", "wb") as err:
            tic = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "mvclust.cli", *argv],
                                    env=env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                elapsed = time.perf_counter() - tic
                killer.cancel()
                killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def _run_in_process(self, argv):
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            tic = time.perf_counter()
            code = mvclust.cli.main(argv)
            elapsed = time.perf_counter() - tic
        return code, elapsed, None

    def step(self, index):
        out_dir = self.work_dir / f"op{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = self._argv(index, out_dir)
        if self.use_child:
            code, elapsed, rss = self._run_child(argv, out_dir)
        else:
            code, elapsed, rss = self._run_in_process(argv)
        outcome = Outcome(seconds=elapsed, rss_mb=rss)
        if code != 0:
            tail = (out_dir / "stderr.txt").read_text(errors="replace")[-300:] \
                if (out_dir / "stderr.txt").exists() else ""
            outcome.problems.append(f"exit code {code}: {tail.strip()}")
        else:
            try:
                self._check(out_dir, outcome)
            except (OSError, ValueError, KeyError, IndexError, TypeError,
                    StopIteration) as exc:
                outcome.problems.append(f"unreadable output: {exc!r}")
        outcome.ok = not outcome.problems
        shutil.rmtree(out_dir, ignore_errors=True)
        return outcome

    def _check(self, out_dir, outcome):
        labels = np.loadtxt(out_dir / "predicted_labels.txt", dtype=np.int64, ndmin=1)
        outcome.problems += check_labels(labels, self.n, CLUSTERS)
        if outcome.problems:
            return
        records = [json.loads(line) for line in
                   (out_dir / "report.jsonl").read_text().splitlines() if line.strip()]
        trial = next(r for r in records if r.get("kind") == "trial")
        final_dims = trial["final_dims"]
        column_map = json.loads((out_dir / "filtered" / "column_map.json").read_text())
        columns = {v["original_view"]: v["columns"] for v in column_map["views"]}
        mapped = [len(columns.get(h, [])) for h in range(len(final_dims))]
        if mapped != final_dims:
            outcome.problems.append(f"column_map widths {mapped} != final_dims {final_dims}")
        if not (out_dir / "filtered" / "manifest.cfg").is_file():
            outcome.problems.append("filtered dataset manifest missing")
        fit = _fit(self.labels, labels, columns, _real_dims(self.spec))
        if not abs(trial["metrics"]["ari"] - fit.ari) <= ARI_TOL:
            outcome.problems.append(
                f"report ARI {trial['metrics']['ari']!r} != re-scored {fit.ari!r}")
        outcome.fits.append(fit)
        outcome.view_weights = trial.get("weights", {}).get("view_weights")


class Sweep(Workload):
    """Seeded trials through ``harness.run_experiment`` with a thread pool.

    Call ``k`` draws its data from source ``k mod SWEEP_DATASETS``, so one run
    averages over many datasets rather than riding on one draw's iteration
    counts.
    """

    name = "sweep-1.5k"
    n = 1_500
    quality_fits = 10 * SWEEP_TRIALS_PER_CALL
    ari_floor = 0.85

    def setup(self):
        self.spec = mvclust.synth.default_benchmark_spec(self.n, seed=self.seed)
        self.sources, self.labels = [], []
        for k in range(SWEEP_DATASETS):
            data_seed = self.seed * SWEEP_DATASETS + k
            self.sources.append(mvclust.harness.SynthSource(
                n=self.n, seed=data_seed, noise_features=NOISE_PER_VIEW))
            spec = mvclust.synth.default_benchmark_spec(self.n, seed=data_seed)
            self.labels.append(np.asarray(_noisy(spec, data_seed).labels))

    def step(self, index):
        config = mvclust.harness.ExperimentConfig(
            algorithm="aamvfcm",
            params=mvclust.amvfcm.HyperParams(c=CLUSTERS),
            trials=SWEEP_TRIALS_PER_CALL,
            seed_base=self.seed * 100_000 + index * SWEEP_TRIALS_PER_CALL,
            synth=self.sources[index % SWEEP_DATASETS],
            jobs=SWEEP_JOBS,
        )
        tic = time.perf_counter()
        try:
            report = mvclust.harness.run_experiment(config)
        except Exception as exc:  # a failed trial aborts the call
            return Outcome(seconds=time.perf_counter() - tic, problems=[repr(exc)])
        outcome = Outcome(seconds=time.perf_counter() - tic)
        labels = self.labels[index % SWEEP_DATASETS]
        for record, result in zip(report.trials, report.fit_results):
            outcome.problems += [f"seed {record.seed}: {p}"
                                 for p in self._check(record, result, labels, outcome)]
        if len(report.trials) != SWEEP_TRIALS_PER_CALL:
            outcome.problems.append(f"{len(report.trials)} trials reported, "
                                    f"expected {SWEEP_TRIALS_PER_CALL}")
        outcome.ok = not outcome.problems
        return outcome

    def _check(self, record, result, labels, outcome):
        problems = check_model(result, self.n, CLUSTERS)
        mask = result.mask
        columns = {h: mask.active_columns(h) for h in mask.active_views()}
        if [A.shape[1] for A in result.model.centers] != [len(columns[h]) for h in columns]:
            problems.append("model widths disagree with the active mask")
        if record.final_dims != mask.active_dims:
            problems.append(f"final_dims {record.final_dims} != mask {mask.active_dims}")
        if problems:
            return problems
        fit = _fit(labels, result.hard_labels, columns, _real_dims(self.spec))
        if not abs(record.metrics["ari"] - fit.ari) <= ARI_TOL:
            problems.append(f"record ARI {record.metrics['ari']!r} != re-scored {fit.ari!r}")
        outcome.fits.append(fit)
        return problems


class Overlap(Workload):
    """Full solver on overlapping clusters; one operation is one fit."""

    name = "overlap-15k"
    n = 15_000
    covariance_scale = 4.0
    quality_fits = 16
    ari_floor = 0.35

    def setup(self):
        base = mvclust.synth.default_benchmark_spec(self.n, seed=self.seed)
        self.spec = dataclasses.replace(base, covariance_scale=self.covariance_scale)
        self.data = _noisy(self.spec, self.seed)

    def step(self, index):
        solver_seed = self.seed * 10_000 + index
        params = mvclust.amvfcm.HyperParams(
            c=CLUSTERS, seed=solver_seed, epsilon=0.0, t_max=OVERLAP_ITERS)
        tic = time.perf_counter()
        try:
            result = mvclust.amvfcm.fit(self.data, params)
        except Exception as exc:  # counted as a failed operation
            return Outcome(seconds=time.perf_counter() - tic,
                           problems=[f"seed {solver_seed}: {exc!r}"])
        outcome = Outcome(seconds=time.perf_counter() - tic)
        outcome.problems = check_model(result, self.n, CLUSTERS)
        outcome.problems += check_non_increasing(result.objective_trace)
        if not outcome.problems:
            columns = {h: list(range(A.shape[1])) for h, A in enumerate(result.model.centers)}
            outcome.fits.append(_fit(self.data.labels, result.hard_labels, columns,
                                     _real_dims(self.spec)))
        outcome.ok = not outcome.problems
        return outcome


WORKLOADS = {cls.name: cls for cls in (CliFit, Sweep, Overlap)}
