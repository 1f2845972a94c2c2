"""Experiment harness tests: config validation, trial bookkeeping, reports.

Every run here uses tiny synthetic inputs so the full module stays fast.
Determinism checks compare machine-readable records with timing stripped,
since wall-clock fields legitimately differ between repeat runs.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

import support
from mvclust import amvfcm, harness
from mvclust.amvfcm import HyperParams
from mvclust.data import MultiViewDataset, save_dataset
from mvclust.harness import (
    METRIC_KEYS,
    PRNG_NAME,
    ExperimentConfig,
    SynthSource,
    TrialError,
    build_dataset,
    emit_report,
    parse_records,
    render_table,
    report_records,
    run_experiment,
    strip_timing,
)
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


def small_params(**kw):
    base = dict(c=5, t_max=40)
    base.update(kw)
    return HyperParams(**base)


def synth_config(**kw):
    base = dict(
        algorithm="amvfcm",
        params=small_params(),
        trials=3,
        seed_base=5,
        synth=SynthSource(n=120, seed=3),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="algorithm"):
        synth_config(algorithm="kmeans")


def test_config_rejects_bad_trial_and_job_counts():
    with pytest.raises(ValueError, match="trials"):
        synth_config(trials=0)
    with pytest.raises(ValueError, match="jobs"):
        synth_config(jobs=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        synth_config(seed_base=-1)


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(algorithm="amvfcm", params=small_params())
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(
            algorithm="amvfcm",
            params=small_params(),
            manifest=str(tmp_path / "manifest.cfg"),
            synth=SynthSource(n=50),
        )


# ---------------------------------------------------------------------------
# dataset materialization
# ---------------------------------------------------------------------------

def test_build_dataset_synth_matches_generator():
    cfg = synth_config(synth=SynthSource(n=80, seed=9))
    built = build_dataset(cfg)
    direct = generate(default_benchmark_spec(80, seed=9))
    assert built.dims == direct.dims == [2, 2]
    for a, b in zip(built.views, direct.views):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(built.labels, direct.labels)


def test_build_dataset_synth_appends_noise_columns():
    cfg = synth_config(synth=SynthSource(n=80, seed=9, noise_features=2))
    built = build_dataset(cfg)
    clean = generate(default_benchmark_spec(80, seed=9))
    expected = append_noise(clean, NoiseSpec(features_per_view=2), seed=9)
    assert built.dims == [4, 4]
    for a, b in zip(built.views, expected.views):
        np.testing.assert_array_equal(a, b)


def test_build_dataset_from_manifest(tmp_path):
    saved = generate(default_benchmark_spec(40, seed=2))
    manifest = save_dataset(saved, tmp_path / "bench")
    cfg = synth_config(synth=None, manifest=str(manifest))
    built = build_dataset(cfg)
    assert built.n_samples == 40
    np.testing.assert_array_equal(built.labels, saved.labels)
    for a, b in zip(built.views, saved.views):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# run_experiment: records and aggregates
# ---------------------------------------------------------------------------

def test_run_assigns_sequential_seeds_and_fills_records():
    report = run_experiment(synth_config())
    assert [r.seed for r in report.trials] == [5, 6, 7]
    for rec in report.trials:
        assert rec.iterations >= 1
        assert isinstance(rec.converged, bool)
        assert np.isfinite(rec.final_objective)
        assert rec.final_dims == [2, 2]
        assert rec.active_views == [0, 1]
        assert rec.reduction_pct == 0.0
        assert set(rec.metrics) == set(METRIC_KEYS)
        assert rec.fit_seconds >= 0.0
        assert rec.weights is None


def test_engine_and_resolved_config_fields():
    cfg = synth_config()
    report = run_experiment(cfg)
    assert report.engine["name"] == "mvclust"
    assert report.engine["prng"] == PRNG_NAME
    assert isinstance(report.engine["version"], str)
    resolved = report.config
    assert resolved["algorithm"] == "amvfcm"
    assert resolved["trials"] == 3
    assert resolved["seed_base"] == 5
    assert resolved["source"] == {"synth": dataclasses.asdict(cfg.synth)}
    assert resolved["hyperparams"]["c"] == 5
    assert list(resolved["hyperparams"]) == ["c", "t_max", "epsilon"]


def test_aggregates_are_min_avg_max_of_trials():
    report = run_experiment(synth_config())
    for key in METRIC_KEYS:
        values = [r.metrics[key] for r in report.trials]
        agg = report.aggregates[key]
        assert agg["min"] == pytest.approx(min(values))
        assert agg["max"] == pytest.approx(max(values))
        assert agg["avg"] == pytest.approx(sum(values) / len(values))
    iters = [r.iterations for r in report.trials]
    assert report.aggregates["iterations"]["avg"] == pytest.approx(
        sum(iters) / len(iters)
    )
    assert report.aggregates["reduction_pct"]["max"] == 0.0


def test_unlabeled_dataset_skips_metrics(tmp_path):
    rng = np.random.default_rng(0)
    views = [np.abs(rng.normal(size=(60, 2))) + 0.5 for _ in range(2)]
    manifest = save_dataset(MultiViewDataset(views), tmp_path / "raw")
    cfg = synth_config(synth=None, manifest=str(manifest), trials=2)
    report = run_experiment(cfg)
    for rec in report.trials:
        assert rec.metrics is None
    assert all(key not in report.aggregates for key in METRIC_KEYS)
    assert set(report.aggregates) == {"iterations", "reduction_pct"}


def test_pruning_records_reflect_the_active_mask():
    cfg = synth_config(
        algorithm="aamvfcm",
        trials=2,
        seed_base=0,
        synth=SynthSource(n=300, seed=1, noise_features=1),
    )
    report = run_experiment(cfg)
    for rec, result in zip(report.trials, report.fit_results):
        assert rec.final_dims == result.mask.active_dims == [2, 2]
        assert rec.active_views == result.mask.active_views() == [0, 1]
        assert rec.reduction_pct == pytest.approx(1.0 / 3.0)
        assert rec.metrics["ri"] > 0.9


def test_dump_weights_records_delta_and_learned_weights():
    cfg = synth_config(trials=1, dump_weights=True)
    report = run_experiment(cfg)
    weights = report.trials[0].weights
    assert set(weights) == {"delta", "feature_weights", "view_weights"}
    result = report.fit_results[0]
    assert len(weights["view_weights"]) == 2
    assert sum(weights["view_weights"]) == pytest.approx(1.0)
    for h in range(2):
        assert weights["delta"][h] == pytest.approx(list(result.delta[h]))
        assert weights["feature_weights"][h] == pytest.approx(
            list(result.model.feature_weights[h])
        )
        assert all(isinstance(x, float) for x in weights["delta"][h])


def test_failing_trial_raises_trial_error_with_seed():
    # forty samples cannot host fifty clusters, so the first trial fails
    cfg = synth_config(
        params=small_params(c=50),
        trials=1,
        seed_base=41,
        synth=SynthSource(n=40, seed=0),
    )
    with pytest.raises(TrialError, match="seed 41"):
        run_experiment(cfg)
    assert str(TrialError(5)) == "trial with seed 5 failed"


def test_trials_call_the_solver_fit_bound_at_run_time(monkeypatch):
    # a ``fit`` rebound after import (a timing span, a spy) is the one each
    # trial runs, so the harness holds solver modules, not their functions
    from mvclust import aamvfcm
    fit, seeds = aamvfcm.fit, []

    def spy(dataset, params):
        seeds.append(params.seed)
        return fit(dataset, params)

    monkeypatch.setattr(aamvfcm, "fit", spy)
    report = run_experiment(synth_config(algorithm="aamvfcm", trials=2))
    assert seeds == [5, 6] == [r.seed for r in report.trials]


# ---------------------------------------------------------------------------
# determinism and parallelism
# ---------------------------------------------------------------------------

def test_repeat_runs_identical_modulo_timing():
    first = strip_timing(report_records(run_experiment(synth_config())))
    second = strip_timing(report_records(run_experiment(synth_config())))
    assert first == second


def test_thread_pool_matches_sequential_run(monkeypatch):
    # these runs are far below the pool's cell bound, which is lowered so that
    # their trials still share the pool
    monkeypatch.setattr(harness, "POOL_MIN_CELLS", 0)
    sequential = run_experiment(synth_config(jobs=1))
    threads = support.fit_threads(monkeypatch, amvfcm, meet=2)
    threaded = run_experiment(synth_config(jobs=3))
    assert len(set(threads)) >= 2
    seq_records = strip_timing(report_records(sequential))
    thr_records = strip_timing(report_records(threaded))
    # meta lines differ only in the recorded jobs count
    assert seq_records[1:] == thr_records[1:]
    seq_cfg = dict(seq_records[0]["config"])
    thr_cfg = dict(thr_records[0]["config"])
    assert seq_cfg.pop("jobs") == 1 and thr_cfg.pop("jobs") == 3
    assert seq_cfg == thr_cfg


def test_small_runs_and_single_trials_run_on_the_calling_thread(monkeypatch):
    # five clusters over 120 samples are 600 membership cells, far below the
    # bound, and one trial needs no pool at any size
    here = threading.get_ident()
    threads = support.fit_threads(monkeypatch, amvfcm)
    run_experiment(synth_config(jobs=2))
    assert threads == [here] * 3
    monkeypatch.setattr(harness, "POOL_MIN_CELLS", 0)
    run_experiment(synth_config(trials=1, jobs=2))
    assert threads == [here] * 4


@pytest.mark.parametrize("bound, pooled", [(5 * 120, True), (5 * 120 + 1, False)])
def test_trials_share_the_pool_from_the_cell_bound_on(monkeypatch, bound, pooled):
    monkeypatch.setattr(harness, "POOL_MIN_CELLS", bound)
    threads = support.fit_threads(monkeypatch, amvfcm, meet=2 if pooled else 1)
    run_experiment(synth_config(jobs=2))
    assert (threading.get_ident() not in threads) == pooled
    assert len(set(threads)) == (2 if pooled else 1)


def test_seed_comes_from_the_config_alone(monkeypatch):
    # the environment chooses no seed, not even under this name
    monkeypatch.setenv("MVCLUST_SEED", "11")
    with_variable = run_experiment(synth_config(trials=2, seed_base=0))
    assert [r.seed for r in with_variable.trials] == [0, 1]
    monkeypatch.delenv("MVCLUST_SEED")
    without = run_experiment(synth_config(trials=2, seed_base=0))
    assert strip_timing(report_records(with_variable)) == strip_timing(
        report_records(without)
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_report_records_layout():
    report = run_experiment(synth_config())
    records = report_records(report)
    assert len(records) == 1 + 3 + 1
    assert records[0]["kind"] == "meta"
    assert records[0]["engine"] == report.engine
    assert records[0]["config"] == report.config
    for line in records[1:-1]:
        assert line["kind"] == "trial"
        assert set(line["timing"]) == {"fit_seconds", "seed_seconds"}
    assert records[-1]["kind"] == "aggregate"
    assert records[-1]["aggregates"] == report.aggregates
    assert set(records[-1]["timing"]) == {"total_seconds"}


def test_strip_timing_removes_only_timing():
    report = run_experiment(synth_config(trials=1))
    records = report_records(report)
    stripped = strip_timing(records)
    assert all("timing" not in rec for rec in stripped)
    # original untouched, other keys preserved
    assert "timing" in records[1]
    assert stripped[1]["seed"] == records[1]["seed"]
    assert stripped[0] == records[0]


def test_seeding_time_is_reported_as_timing():
    report = run_experiment(synth_config(trials=2))
    records = report_records(report)
    for rec, res, line in zip(report.trials, report.fit_results, records[1:-1]):
        assert res.seed_seconds > 0.0
        assert rec.seed_seconds == res.seed_seconds
        assert line["timing"]["seed_seconds"] == res.seed_seconds
        assert "seed_seconds" not in line
    assert not any("seed_seconds" in json.dumps(rec) for rec in strip_timing(records))


def test_emit_report_and_parse_records_round_trip(tmp_path):
    report = run_experiment(synth_config())
    table_path, records_path = emit_report(report, tmp_path / "out")
    assert table_path.name == "report.txt"
    assert records_path.name == "report.jsonl"
    text = table_path.read_text(encoding="utf-8")
    assert text.startswith("mvclust run report")
    parsed = parse_records(records_path)
    assert parsed == report_records(report)
    # every line of the records file is standalone json
    with open(records_path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)


def test_render_table_mentions_core_run_facts():
    report = run_experiment(synth_config())
    text = render_table(report)
    assert "mvclust run report" in text
    assert PRNG_NAME in text
    assert "algorithm: amvfcm" in text
    assert "seed_base: 5" in text
    for key in METRIC_KEYS:
        assert key in text
    for seed in (5, 6, 7):
        assert str(seed) in text
