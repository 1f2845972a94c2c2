"""Per-layer tracing from outside the package: timing wrappers on public names.

``Tracer.install`` rebinds every name in ``HOOKS`` to a wrapper that records a
span (name, start, end, parent span, operation id) in memory. Modules that
import a function by name (``aamvfcm`` takes the block updates from
``amvfcm``, ``cli`` and ``harness`` take I/O and metrics helpers) hold their
own reference, so each such module is listed as a separate target of the same
span. A target that no longer exists is skipped; a span whose targets are all
gone is reported as absent rather than failing the run.

Nothing under ``src/`` is edited: the spans sit at the boundaries the
benchmark can reach by attribute rebinding.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

# span name -> "module:attribute" targets that are rebound to its wrapper
HOOKS = {
    "cli.main": ["mvclust.cli:main"],
    "harness.run_experiment": ["mvclust.harness:run_experiment",
                               "mvclust.cli:run_experiment"],
    "harness.build_dataset": ["mvclust.harness:build_dataset"],
    "harness.emit_report": ["mvclust.harness:emit_report", "mvclust.cli:emit_report"],
    "data.load_dataset": ["mvclust.data:load_dataset", "mvclust.harness:load_dataset"],
    "data.save_dataset": ["mvclust.data:save_dataset", "mvclust.cli:save_dataset"],
    "data.validate": ["mvclust.data:validate", "mvclust.amvfcm:validate",
                      "mvclust.aamvfcm:validate"],
    "snr.compute_delta": ["mvclust.snr:compute_delta", "mvclust.amvfcm:compute_delta",
                          "mvclust.aamvfcm:compute_delta"],
    "synth.generate": ["mvclust.synth:generate", "mvclust.harness:generate",
                       "mvclust.cli:generate"],
    "synth.append_noise": ["mvclust.synth:append_noise", "mvclust.harness:append_noise",
                           "mvclust.cli:append_noise"],
    "amvfcm.fit": ["mvclust.amvfcm:fit"],
    "amvfcm.init_centers": ["mvclust.amvfcm:init_centers", "mvclust.aamvfcm:init_centers"],
    "amvfcm.aggregate_distances": ["mvclust.amvfcm:aggregate_distances",
                                   "mvclust.aamvfcm:aggregate_distances"],
    "amvfcm.centers": ["mvclust.amvfcm:_centers_with_reseed",
                       "mvclust.aamvfcm:_centers_with_reseed"],
    "amvfcm.update_feature_weights": ["mvclust.amvfcm:update_feature_weights",
                                      "mvclust.aamvfcm:update_feature_weights"],
    "amvfcm.view_costs": ["mvclust.amvfcm:view_costs", "mvclust.aamvfcm:view_costs"],
    "amvfcm.entropic_simplex_argmin": ["mvclust.amvfcm:entropic_simplex_argmin",
                                       "mvclust.aamvfcm:entropic_simplex_argmin"],
    "amvfcm.objective": ["mvclust.amvfcm:objective",
                         "mvclust.amvfcm:_objective_given_costs",
                         "mvclust.aamvfcm:_objective_given_costs"],
    "aamvfcm.fit": ["mvclust.aamvfcm:fit"],
    "aamvfcm.prune_features": ["mvclust.aamvfcm:prune_features"],
    "aamvfcm.prune_views": ["mvclust.aamvfcm:prune_views"],
    "aamvfcm.restrict": ["mvclust.aamvfcm:restrict"],
    "metrics.score_all": ["mvclust.metrics:score_all", "mvclust.harness:score_all",
                          "mvclust.cli:score_all"],
}

SPAN_FIELDS = ("total_s", "self_s", "calls")


def _dir_mb(path):
    path = Path(path)
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / 1e6


class Span:
    __slots__ = ("name", "start", "end", "cpu_s", "parent", "op")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = self.cpu_s = 0.0


class Tracer:
    """In-memory span recorder plus the hook table that feeds it."""

    def __init__(self):
        self.spans = []
        self.fits = []        # per solver call: (wait_s, iterations, converged,
                              # iter_seconds, columns removed or None)
        self.io = []          # ("read" | "write", megabytes)
        self.op = "setup"
        self.absent = sorted(HOOKS)
        self._stacks = {}
        self._main = threading.get_ident()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread's first span hangs off whatever the main thread has open
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack and stack[-1].name == name:
                # objective() evaluates through _objective_given_costs: one span
                return fn(*args, **kwargs)
            span = Span(name, self._parent(stack), self.op)
            stack.append(span)
            cpu = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.thread_time() - cpu
                stack.pop()
                self.spans.append(span)
            self._collect(span, args, result)
            return result
        return traced

    def _collect(self, span, args, result):
        # counts read what a call returned; a renamed field reads as missing
        if span.name in ("amvfcm.fit", "aamvfcm.fit"):
            mask = getattr(result, "mask", None)
            try:
                removed = sum(mask.original_dims) - sum(mask.active_dims)
            except (AttributeError, TypeError):  # the full solver has no mask
                removed = None
            self.fits.append((
                (span.end - span.start) - span.cpu_s,
                getattr(result, "iterations", 0),
                bool(getattr(result, "converged", False)),
                list(getattr(result, "iter_seconds", None) or []),
                removed,
            ))
        elif span.name in ("data.load_dataset", "data.save_dataset"):
            reading = span.name == "data.load_dataset"
            try:
                manifest = Path(args[0] if reading else result)
                self.io.append(("read" if reading else "write", _dir_mb(manifest.parent)))
            except (IndexError, TypeError, OSError):
                pass

    def install(self):
        present = set()
        for name, targets in HOOKS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                try:
                    module = importlib.import_module(mod_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self._wrap(name, fn))
                self._undo.append((module, attr, fn))
                present.add(name)
        self.absent = sorted(set(HOOKS) - present)

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    # -- summaries ---------------------------------------------------------

    def layer_stats(self, op_filter=None):
        """{span: {"total_s", "self_s", "calls"}} over spans passing ``op_filter``.

        Self time is a span's duration minus the union of the intervals its
        child spans cover (children on a pool thread may overlap each other).
        """
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.start, s.end))
        stats = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0} for name in HOOKS}
        for s in self.spans:
            if op_filter is not None and not op_filter(s.op):
                continue
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(id(s), ())):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            st = stats[s.name]
            st["total_s"] += s.end - s.start
            st["self_s"] += (s.end - s.start) - covered
            st["calls"] += 1
        return stats

    def counts(self):
        """Layer counts gathered from fit results and dataset file sizes."""
        waits, iters, conv, iter_lists, cols = zip(*self.fits) if self.fits else ([],) * 5
        iter_s = [t for times in iter_lists for t in times]
        removed = [r for r in cols if r is not None]
        return {
            "amvfcm.iterations": statistics.fmean(iters) if iters else 0.0,
            "amvfcm.converged_frac": statistics.fmean(conv) if conv else 0.0,
            "amvfcm.iter_s.p50": statistics.median(iter_s) if iter_s else 0.0,
            "aamvfcm.cols_removed": statistics.fmean(removed) if removed else 0.0,
            "data.read_mb": sum(mb for kind, mb in self.io if kind == "read"),
            "data.write_mb": sum(mb for kind, mb in self.io if kind == "write"),
            "harness.fit_wait_s": sum(waits),
        }

    def dump(self, path):
        """Write every span as one JSON object per line (parent by index)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "cpu_s": s.cpu_s, "parent": parent, "op": s.op,
                }) + "\n")
        return path


def import_seconds(src_dir, python, repeats=3):
    """Median wall time of a fresh interpreter running ``import mvclust``."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(src_dir))
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        subprocess.run([python, "-c", "import mvclust"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - tic)
    return statistics.median(times)
