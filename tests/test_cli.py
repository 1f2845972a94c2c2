"""Command line tests driven through ``mvclust.cli.main`` with argv lists.

Covers the four subcommands, the category-coded exit codes, and the file
artifacts (reports, predicted labels, filtered datasets) each command leaves
behind.
"""

import json

import numpy as np
import pytest

from mvclust import harness
from mvclust.amvfcm import HyperParams
from mvclust.cli import EXIT_DATA, EXIT_OK, EXIT_TRIAL, EXIT_USAGE, main
from mvclust.data import load_dataset, save_dataset
from mvclust.harness import METRIC_KEYS
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


def make_manifest(tmp_path, n=120, seed=3, noise_features=0):
    dataset = generate(default_benchmark_spec(n, seed=seed))
    if noise_features:
        dataset = append_noise(
            dataset, NoiseSpec(features_per_view=noise_features), seed=seed
        )
    return save_dataset(dataset, tmp_path / "data"), dataset


def records_from(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "mvclust" in capsys.readouterr().out


def test_bad_flag_values_are_usage_errors(capsys):
    assert main(["fit", "--algo", "amvfcm", "--config", "x", "--clusters", "5",
                 "--delta-clamp", "abc"]) == EXIT_USAGE
    assert main(["fit", "--algo", "amvfcm", "--config", "x", "--clusters", "5",
                 "--beta", "banana"]) == EXIT_USAGE
    assert main(["explode"]) == EXIT_USAGE
    capsys.readouterr()


def test_synth_without_out_dir_is_a_usage_error(capsys):
    assert main(["synth", "--n", "50"]) == EXIT_USAGE
    assert "--out-dir" in capsys.readouterr().err


def test_bench_requires_exactly_one_source(tmp_path, capsys):
    common = ["bench", "--algo", "amvfcm", "--clusters", "5"]
    assert main(common) == EXIT_USAGE
    manifest, _ = make_manifest(tmp_path, n=40)
    assert main(common + ["--config", str(manifest), "--synth-n", "40"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_manifest_is_a_data_error(tmp_path, capsys):
    code = main(["fit", "--algo", "amvfcm",
                 "--config", str(tmp_path / "absent.cfg"), "--clusters", "5"])
    assert code == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_invalid_hyperparameter_is_a_data_error(tmp_path, capsys):
    manifest, _ = make_manifest(tmp_path, n=40)
    code = main(["fit", "--algo", "amvfcm", "--config", str(manifest),
                 "--clusters", "1"])
    assert code == EXIT_DATA
    capsys.readouterr()


def test_failing_trial_is_a_trial_error(tmp_path, capsys):
    # five benchmark samples leave a class empty, which the fit's validation
    # rejects mid-run; the message names the seed and the cause
    code = main(["bench", "--algo", "amvfcm", "--synth-n", "5",
                 "--clusters", "6", "--seed-base", "9"])
    assert code == EXIT_TRIAL
    err = capsys.readouterr().err
    assert "seed 9" in err
    assert "failed: label classes are not dense" in err
    manifest, _ = make_manifest(tmp_path, n=20)
    code = main(["fit", "--algo", "amvfcm", "--config", str(manifest),
                 "--clusters", "25"])
    assert code == EXIT_TRIAL
    assert capsys.readouterr().err == (
        "error: trial with seed 0 failed: need at least c=25 samples, got 20\n")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_a_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["synth", "--n", "50", "--seed", "4",
                 "--out-dir", str(out)]) == EXIT_OK
    assert "50 samples" in capsys.readouterr().out
    loaded = load_dataset(out / "manifest.cfg")
    direct = generate(default_benchmark_spec(50, seed=4))
    assert loaded.dims == [2, 2]
    np.testing.assert_array_equal(loaded.labels, direct.labels)
    for a, b in zip(loaded.views, direct.views):
        np.testing.assert_allclose(a, b, rtol=1e-15)


def test_synth_noise_flags_extend_the_views(tmp_path, capsys):
    out = tmp_path / "noisy"
    assert main(["synth", "--n", "50", "--seed", "4", "--noise-features", "1",
                 "--out-dir", str(out)]) == EXIT_OK
    assert "3x3" in capsys.readouterr().out
    loaded = load_dataset(out / "manifest.cfg")
    assert loaded.dims == [3, 3]
    for view in loaded.views:
        noise = view[:, 2]
        assert noise.min() >= 0.02 and noise.max() < 0.05


def test_synth_files_match_the_harness_source(tmp_path, capsys, monkeypatch):
    # the command builds its data through the harness, the same path as a run
    built = []
    real = harness.generate

    def counting(spec):
        built.append(spec.n)
        return real(spec)

    monkeypatch.setattr(harness, "generate", counting)
    out = tmp_path / "noisy"
    assert main(["synth", "--n", "300", "--noise-features", "2", "--seed", "4",
                 "--out-dir", str(out)]) == EXIT_OK
    assert built == [300]
    loaded = load_dataset(out / "manifest.cfg")
    source = harness.SynthSource(n=300, seed=4, noise_features=2)
    config = harness.ExperimentConfig("amvfcm", HyperParams(c=5), synth=source)
    direct = harness.build_dataset(config)
    np.testing.assert_array_equal(loaded.labels, direct.labels)
    for a, b in zip(loaded.views, direct.views, strict=True):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_prints_metrics_and_json(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    np.savetxt(truth, [0, 0, 1, 1, 2, 2], fmt="%d")
    np.savetxt(pred, [1, 1, 0, 0, 2, 2], fmt="%d")
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    parsed = json.loads(out[-1])
    assert set(parsed) == set(METRIC_KEYS)
    # relabeled but identical partition scores perfectly
    assert parsed["ari"] == 1.0 and parsed["nmi"] == 1.0
    for key in METRIC_KEYS:
        assert any(line.startswith(f"{key}=") for line in out[:-1])


def test_score_names_file_and_line_of_bad_label(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    truth.write_text("0\n1\n1\n")
    pred.write_text("0\n3.0\n1\n")
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == EXIT_DATA
    assert f"{pred}:2: non-integer label" in capsys.readouterr().err


def test_score_names_file_and_line_of_label_beyond_int64(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    truth.write_text("0\n1\n")
    pred.write_text("0\n99999999999999999999\n")
    assert main(["score", "--truth", str(truth), "--pred", str(pred)]) == EXIT_DATA
    assert f"{pred}:2: label" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_writes_labels_and_reports(tmp_path, capsys):
    manifest, dataset = make_manifest(tmp_path)
    out = tmp_path / "run"
    code = main(["fit", "--algo", "amvfcm", "--config", str(manifest),
                 "--clusters", "5", "--seed", "2", "--out-dir", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("mvclust run report")
    assert "report.jsonl" in captured.err
    labels = np.loadtxt(out / "predicted_labels.txt", dtype=int)
    assert labels.shape == (dataset.n_samples,)
    np.savetxt(tmp_path / "savetxt.txt", labels, fmt="%d")
    assert (out / "predicted_labels.txt").read_bytes() == (tmp_path / "savetxt.txt").read_bytes()
    assert set(np.unique(labels)) <= set(range(5))
    assert (out / "report.txt").exists()
    assert (out / "report.jsonl").exists()
    assert not (out / "filtered").exists()


def test_fit_records_format_emits_json_lines(tmp_path, capsys):
    manifest, _ = make_manifest(tmp_path)
    code = main(["fit", "--algo", "amvfcm", "--config", str(manifest),
                 "--clusters", "5", "--format", "records"])
    assert code == EXIT_OK
    records = records_from(capsys.readouterr().out)
    assert records[0]["kind"] == "meta"
    assert records[1]["kind"] == "trial"
    assert records[-1]["kind"] == "aggregate"
    assert records[0]["config"]["hyperparams"]["beta"] == "auto"
    assert records[1]["metrics"]["ri"] > 0.9


def test_fit_pruning_writes_filtered_dataset_with_column_map(tmp_path, capsys):
    manifest, dataset = make_manifest(tmp_path, n=300, noise_features=1)
    out = tmp_path / "run"
    code = main(["fit", "--algo", "aamvfcm", "--config", str(manifest),
                 "--clusters", "5", "--out-dir", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    filtered = load_dataset(out / "filtered" / "manifest.cfg")
    assert filtered.dims == [2, 2]
    np.testing.assert_array_equal(filtered.labels, dataset.labels)
    mapping = json.loads((out / "filtered" / "column_map.json").read_text())
    assert mapping == {
        "views": [
            {"original_view": 0, "columns": [0, 1]},
            {"original_view": 1, "columns": [0, 1]},
        ]
    }
    # surviving columns are the original signal columns, bit for bit
    for h, view in enumerate(filtered.views):
        np.testing.assert_allclose(view, dataset.views[h][:, :2], rtol=1e-15)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_synth_runs_requested_trials(capsys):
    code = main(["bench", "--algo", "amvfcm", "--synth-n", "120",
                 "--clusters", "5", "--trials", "2", "--seed-base", "7",
                 "--format", "records"])
    assert code == EXIT_OK
    records = records_from(capsys.readouterr().out)
    trials = [r for r in records if r["kind"] == "trial"]
    assert [t["seed"] for t in trials] == [7, 8]
    assert records[0]["config"]["source"]["synth"]["n"] == 120


def test_bench_repeat_runs_agree_modulo_timing(capsys):
    argv = ["bench", "--algo", "aamvfcm", "--synth-n", "300", "--clusters", "5",
            "--noise-features", "1", "--trials", "2", "--format", "records"]
    assert main(argv) == EXIT_OK
    first = records_from(capsys.readouterr().out)
    assert main(argv) == EXIT_OK
    second = records_from(capsys.readouterr().out)
    for rec in first + second:
        rec.pop("timing", None)
    assert first == second


def test_bench_manifest_source_and_normalize_flag(tmp_path, capsys):
    manifest, _ = make_manifest(tmp_path, n=80)
    argv = ["bench", "--algo", "amvfcm", "--config", str(manifest),
            "--clusters", "5", "--normalize", "--format", "records"]
    assert main(argv) == EXIT_OK
    records = records_from(capsys.readouterr().out)
    assert records[0]["config"]["normalize"] is True
    assert records[0]["config"]["source"] == {"manifest": str(manifest)}
    argv[argv.index("--normalize")] = "--no-normalize"
    assert main(argv) == EXIT_OK
    records = records_from(capsys.readouterr().out)
    assert records[0]["config"]["normalize"] is False


def test_bench_table_output_to_files(tmp_path, capsys):
    out = tmp_path / "bench_out"
    code = main(["bench", "--algo", "amvfcm", "--synth-n", "120",
                 "--clusters", "5", "--trials", "2", "--out-dir", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "mvclust run report" in captured.out
    table = (out / "report.txt").read_text(encoding="utf-8")
    assert table == captured.out
