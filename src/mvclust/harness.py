"""Multi-trial experiment runner with table and line-delimited record reports.

A run is a dataset source (manifest on disk or the bundled synthetic
benchmark), one algorithm, one hyperparameter setting, and a number of trials.
Trial i re-seeds center initialization with ``seed_base + i``; everything else
is shared, so a report is reproducible from its config alone. Wall-clock
times are recorded but kept in dedicated "timing" fields, which are the only
fields allowed to differ between two runs of the same config.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, aamvfcm, amvfcm
from .amvfcm import HyperParams
from .data import load_dataset, validate
from .metrics import score_all
from .synth import NoiseSpec, append_noise, default_benchmark_spec, generate

PRNG_NAME = "numpy.random.default_rng (PCG64)"
METRIC_KEYS = ("ri", "ari", "ji", "fmi", "nmi")


class TrialError(RuntimeError):
    """A single failed trial; carries the trial seed."""

    def __init__(self, seed):
        super().__init__(f"trial with seed {seed} failed")
        self.seed = seed


@dataclass(frozen=True)
class SynthSource:
    """Inline synthetic data source: benchmark geometry plus optional noise.

    Noise columns are uniform on the fixed interval
    [:data:`~mvclust.synth.NOISE_LOW`, :data:`~mvclust.synth.NOISE_HIGH`).
    """

    n: int
    seed: int = 0
    noise_features: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run. Exactly one data source is set."""

    algorithm: str                      # "amvfcm" or "aamvfcm"
    params: HyperParams
    trials: int = 1
    seed_base: int = 0
    manifest: str | None = None
    synth: SynthSource | None = None
    jobs: int = 1
    dump_weights: bool = False

    def __post_init__(self):
        if self.algorithm not in ("amvfcm", "aamvfcm"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if (self.manifest is None) == (self.synth is None):
            raise ValueError("exactly one of manifest or synth must be given")


@dataclass
class TrialRecord:
    seed: int
    iterations: int
    converged: bool
    final_objective: float
    final_dims: list
    active_views: list
    reduction_pct: float
    metrics: dict | None
    weights: dict | None
    fit_seconds: float
    seed_seconds: float


@dataclass
class RunReport:
    engine: dict
    config: dict
    trials: list
    aggregates: dict
    total_seconds: float
    fit_results: list = field(default_factory=list, repr=False)


def _synth_dataset(src: SynthSource):
    # the validated synthetic dataset of a source, for runs and for
    # ``mvclust synth`` alike
    dataset = generate(default_benchmark_spec(src.n, seed=src.seed))
    noise = NoiseSpec(features_per_view=src.noise_features)
    dataset = append_noise(dataset, noise, seed=src.seed)
    validate(dataset)
    return dataset


def build_dataset(config: ExperimentConfig):
    """Materialize the configured data source."""
    if config.manifest is not None:
        return load_dataset(config.manifest)
    return _synth_dataset(config.synth)


def _run_trial(dataset, config, seed):
    params = dataclasses.replace(config.params, seed=seed)
    solver = amvfcm.fit if config.algorithm == "amvfcm" else aamvfcm.fit
    tic = time.perf_counter()
    try:
        result = solver(dataset, params)
    except Exception as exc:
        raise TrialError(seed) from exc
    elapsed = time.perf_counter() - tic

    metrics = None
    if dataset.labels is not None:
        metrics = score_all(dataset.labels, result.hard_labels)
    weights = None
    if config.dump_weights:
        weights = {
            "delta": [list(map(float, d)) for d in result.delta],
            "feature_weights": [list(map(float, w)) for w in result.model.feature_weights],
            "view_weights": [float(v) for v in result.model.view_weights],
        }
    record = TrialRecord(
        seed=seed,
        iterations=result.iterations,
        converged=result.converged,
        final_objective=float(result.objective_trace[-1]),
        final_dims=result.mask.active_dims,
        active_views=result.mask.active_views(),
        reduction_pct=result.mask.reduction_pct,
        metrics=metrics,
        weights=weights,
        fit_seconds=elapsed,
        seed_seconds=result.seed_seconds,
    )
    return record, result


def _stats(values):
    values = list(values)
    return {
        "min": float(min(values)),
        "avg": float(sum(values) / len(values)),
        "max": float(max(values)),
    }


def _resolved_config(config: ExperimentConfig):
    p = config.params
    source = (
        {"manifest": str(config.manifest)}
        if config.manifest is not None
        else {"synth": dataclasses.asdict(config.synth)}
    )
    return {
        "algorithm": config.algorithm,
        "trials": config.trials,
        "seed_base": config.seed_base,
        "source": source,
        "hyperparams": {
            "c": p.c,
            "t_max": p.t_max,
            "epsilon": p.epsilon,
        },
        "jobs": config.jobs,
        "dump_weights": config.dump_weights,
    }


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run all trials and aggregate. Deterministic apart from timing fields.

    Trial i runs with seed ``config.seed_base + i``; nothing outside the
    config chooses a seed. A failing trial aborts the whole run with a
    :class:`TrialError` naming its seed.
    """
    dataset = build_dataset(config)
    seeds = [config.seed_base + i for i in range(config.trials)]

    tic = time.perf_counter()
    if config.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(lambda s: _run_trial(dataset, config, s), seeds))
    else:
        outcomes = [_run_trial(dataset, config, s) for s in seeds]
    total = time.perf_counter() - tic

    records = [rec for rec, _ in outcomes]
    aggregates = {}
    if records[0].metrics is not None:
        for key in METRIC_KEYS:
            aggregates[key] = _stats(r.metrics[key] for r in records)
    aggregates["iterations"] = _stats(r.iterations for r in records)
    aggregates["reduction_pct"] = _stats(r.reduction_pct for r in records)
    return RunReport(
        engine={"name": "mvclust", "version": __version__, "prng": PRNG_NAME},
        config=_resolved_config(config),
        trials=records,
        aggregates=aggregates,
        total_seconds=total,
        fit_results=[res for _, res in outcomes],
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _trial_line(rec: TrialRecord) -> dict:
    body = {"kind": "trial", **dataclasses.asdict(rec)}
    if rec.weights is None:
        del body["weights"]
    body["timing"] = {key: body.pop(key) for key in ("fit_seconds", "seed_seconds")}
    return body


def report_records(report: RunReport) -> list:
    """The machine-readable report as a list of dicts (one per output line)."""
    lines = [{"kind": "meta", "engine": report.engine, "config": report.config}]
    lines.extend(_trial_line(rec) for rec in report.trials)
    lines.append({
        "kind": "aggregate",
        "aggregates": report.aggregates,
        "timing": {"total_seconds": report.total_seconds},
    })
    return lines


def strip_timing(records):
    """Copy of parsed report records with every "timing" field removed."""
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("timing", None)
        out.append(rec)
    return out


def render_table(report: RunReport) -> str:
    """Human-readable aligned summary of a run."""
    cfg = report.config
    hp = cfg["hyperparams"]
    lines = [
        "mvclust run report",
        f"engine: {report.engine['name']} {report.engine['version']}   "
        f"prng: {report.engine['prng']}",
        f"algorithm: {cfg['algorithm']}   trials: {cfg['trials']}   "
        f"seed_base: {cfg['seed_base']}",
        f"source: {json.dumps(cfg['source'])}",
        f"c={hp['c']} t_max={hp['t_max']} epsilon={hp['epsilon']}",
        "",
    ]
    has_metrics = report.trials[0].metrics is not None
    header = f"{'seed':>6} {'iters':>6} {'conv':>5}"
    if has_metrics:
        header += "".join(f" {k:>8}" for k in METRIC_KEYS)
    header += f" {'dims':>10} {'red%':>6} {'secs':>8}"
    lines.append(header)
    for rec in report.trials:
        row = f"{rec.seed:>6} {rec.iterations:>6} {'yes' if rec.converged else 'no':>5}"
        if has_metrics:
            row += "".join(f" {rec.metrics[k]:>8.4f}" for k in METRIC_KEYS)
        dims = "x".join(str(d) for d in rec.final_dims)
        row += f" {dims:>10} {100 * rec.reduction_pct:>6.1f} {rec.fit_seconds:>8.3f}"
        lines.append(row)
    lines.append("")
    lines.append(f"{'metric':<14} {'min':>10} {'avg':>10} {'max':>10}")
    for key, st in report.aggregates.items():
        lines.append(
            f"{key:<14} {st['min']:>10.4f} {st['avg']:>10.4f} {st['max']:>10.4f}"
        )
    lines.append("")
    lines.append(f"total wall time: {report.total_seconds:.3f} s")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir):
    """Write report.txt (table) and report.jsonl (records); return both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "report.txt"
    table_path.write_text(render_table(report), encoding="utf-8")
    records_path = out_dir / "report.jsonl"
    with open(records_path, "w", encoding="utf-8") as fh:
        for line in report_records(report):
            fh.write(json.dumps(line) + "\n")
    return table_path, records_path


def parse_records(path):
    """Read a report.jsonl file back into a list of dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
