"""Command line tests driven through ``mvclust.cli.main`` with argv lists.

Covers the four subcommands, the category-coded exit codes, and the file
artifacts (reports, predicted labels, filtered datasets) each command leaves
behind.
"""

import gc
import json

import numpy as np
import pytest

from mvclust import cli, data, harness
from mvclust.amvfcm import HyperParams
from mvclust.cli import EXIT_DATA, EXIT_OK, EXIT_TRIAL, EXIT_USAGE, main
from mvclust.data import MultiViewDataset, load_dataset, save_dataset
from mvclust.harness import METRIC_KEYS
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate
from support import count_loadtxt


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
    assert main(["fit", "--algo", "amvfcm", "--config", "x", "--clusters",
                 "five"]) == EXIT_USAGE
    assert main(["explode"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flag", [
    ["--normalize"], ["--prune-warmup", "2"], ["--theta-scale", "0"],
    ["--noise-low", "0.1"], ["--noise-high", "0.2"], ["--delta-clamp", "1e-6,1e6"],
    ["--eta", "0.1"], ["--beta", "auto"],
])
def test_removed_tuning_flags_are_usage_errors(flag, capsys):
    argv = ["bench", "--algo", "aamvfcm", "--synth-n", "50", "--clusters", "5"]
    assert main(argv + flag) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", [
    ["--epsilon", "inf"], ["--epsilon", "-1"], ["--epsilon", "nan"], ["--seed", "-1"],
])
def test_non_finite_or_negative_setting_is_a_data_error(tmp_path, capsys, flag):
    # rejected before any trial runs, naming the field, and no report is written
    manifest, _ = make_manifest(tmp_path, n=60, noise_features=1)
    out = tmp_path / "run"
    code = main(["fit", "--algo", "aamvfcm", "--config", str(manifest),
                 "--clusters", "5", "--out-dir", str(out)] + flag)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{flag[0][2:]} must be" in err
    assert not (out / "report.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--n", "50", "--seed", "-1"],
    ["bench", "--algo", "amvfcm", "--synth-n", "50", "--synth-seed", "-1", "--clusters", "5"],
])
def test_negative_synthetic_seed_is_a_data_error(tmp_path, capsys, argv):
    # rejected by the synthetic source, naming its field, before any data is drawn
    code = main(argv + (["--out-dir", str(tmp_path / "synth")] if argv[0] == "synth" else []))
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "synth").exists()


def test_failing_trial_is_a_trial_error(tmp_path, capsys):
    # five benchmark samples leave a class empty: a data fault of the source,
    # rejected before any trial runs, so it is not reported as a trial
    code = main(["bench", "--algo", "amvfcm", "--synth-n", "5",
                 "--clusters", "6", "--seed-base", "9"])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: label classes are not dense: class 2 is empty\n")
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


def test_synth_negative_noise_count_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "noisy"
    assert main(["synth", "--n", "100", "--noise-features", "-3",
                 "--out-dir", str(out)]) == EXIT_DATA
    assert "features_per_view must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_synth_with_an_empty_class_is_a_data_error(tmp_path, capsys):
    # five samples draw labels 3 1 0 0 4: class 2 is empty
    out = tmp_path / "tiny"
    assert main(["synth", "--n", "5", "--out-dir", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: label classes are not dense: class 2 is empty\n")
    assert not out.exists()


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


def short_text_manifest(tmp_path, views, labels):
    # views printed as %.3f, each file ending in a blank line: not the bytes
    # save_dataset would print for the values read back
    data = tmp_path / "short"
    data.mkdir()
    lines = []
    for h, X in enumerate(views, start=1):
        with open(data / f"v{h}.csv", "w") as fh:
            np.savetxt(fh, X, fmt="%.3f", delimiter=",")
            fh.write("\n")
        lines.append(f"view = v{h}.csv")
    np.savetxt(data / "labels.txt", labels, fmt="%d")
    manifest = data / "data.cfg"
    manifest.write_text("\n".join(lines + ["labels = labels.txt"]) + "\n")
    return manifest


def fit_filtered(manifest, out, *extra):
    return main(["fit", "--algo", "aamvfcm", "--config", str(manifest),
                 "--clusters", "5", "--out-dir", str(out), *extra])


def test_fit_copies_views_that_kept_every_column(tmp_path, capsys):
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    out = tmp_path / "run"
    assert fit_filtered(manifest, out) == EXIT_OK
    capsys.readouterr()
    source = load_dataset(manifest)
    filtered = load_dataset(out / "filtered" / "manifest.cfg")
    assert filtered.dims == source.dims == [2, 2]
    for h in range(2):
        written = (out / "filtered" / f"view_{h + 1}.csv").read_bytes()
        assert written == (manifest.parent / f"v{h + 1}.csv").read_bytes()
        np.testing.assert_array_equal(filtered.views[h], source.views[h])


def test_fit_prints_views_that_lost_columns_with_17_digits(tmp_path, capsys):
    dataset = generate(default_benchmark_spec(300, seed=3))
    noise = np.random.default_rng(0).uniform(0.02, 0.05, (300, 1))
    views = [dataset.views[0], np.hstack([dataset.views[1], noise])]
    manifest = short_text_manifest(tmp_path, views, dataset.labels)
    out = tmp_path / "run"
    assert fit_filtered(manifest, out) == EXIT_OK
    capsys.readouterr()
    source = load_dataset(manifest)
    mapping = json.loads((out / "filtered" / "column_map.json").read_text())
    assert [v["columns"] for v in mapping["views"]] == [[0, 1], [0, 1]]
    assert ((out / "filtered" / "view_1.csv").read_bytes()
            == (manifest.parent / "v1.csv").read_bytes())
    np.savetxt(tmp_path / "savetxt.csv", source.views[1][:, :2], fmt="%.17g", delimiter=",")
    assert ((out / "filtered" / "view_2.csv").read_bytes()
            == (tmp_path / "savetxt.csv").read_bytes())


@pytest.mark.parametrize("changed, printed", [("v2.csv", [2]), ("data.cfg", [])],
                         ids=["view-file", "manifest"])
def test_fit_prints_views_whose_input_changed_after_the_load(tmp_path, capsys, monkeypatch,
                                                             changed, printed):
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    source = load_dataset(manifest)
    real_run = cli._run

    def run_then_edit(*args, **kwargs):
        report = real_run(*args, **kwargs)
        if changed == "v2.csv":  # other data: a copy would not hold what the fit saw
            np.savetxt(manifest.parent / changed, source.views[1] + 1.0, fmt="%.5f",
                       delimiter=",")
        else:  # each array names its own file, so the manifest is not read again
            with open(manifest.parent / changed, "a") as fh:
                fh.write("# edited\n")
        return report

    monkeypatch.setattr(cli, "_run", run_then_edit)
    out = tmp_path / "run"
    assert fit_filtered(manifest, out) == EXIT_OK
    capsys.readouterr()
    for h in (1, 2):
        want = manifest.parent / f"v{h}.csv"
        if h in printed:
            want = tmp_path / "savetxt.csv"
            np.savetxt(want, source.views[h - 1], fmt="%.17g", delimiter=",")
        assert (out / "filtered" / f"view_{h}.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("base, edited", [(0, False), (1, False), (1, True)],
                         ids=["zero-based", "one-based", "edited-after-the-load"])
def test_fit_copies_an_intact_label_file(tmp_path, capsys, monkeypatch, base, edited):
    # a trailing blank line, so a copy differs from the %d text of the labels
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    labels_file = manifest.parent / "labels.txt"
    labels_file.write_text("".join(f"{k + base}\n" for k in dataset.labels) + "\n")
    original = labels_file.read_bytes()
    real_run = cli._run

    def run_then_edit(*args, **kwargs):
        report = real_run(*args, **kwargs)
        if edited:  # the same labels, other bytes: still not what was read
            labels_file.write_text("".join(f"{k}\n" for k in dataset.labels))
        return report

    monkeypatch.setattr(cli, "_run", run_then_edit)
    out = tmp_path / "run"
    assert fit_filtered(manifest, out) == EXIT_OK
    capsys.readouterr()
    written = (out / "filtered" / "labels.txt").read_bytes()
    if edited:
        np.savetxt(tmp_path / "savetxt.txt", dataset.labels, fmt="%d")
        assert written == (tmp_path / "savetxt.txt").read_bytes()
    else:
        assert written == original
    np.testing.assert_array_equal(load_dataset(out / "filtered" / "manifest.cfg").labels,
                                  dataset.labels)


def test_refit_of_a_filtered_dataset_into_its_own_run_directory(tmp_path, capsys):
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    out = tmp_path / "run"
    assert fit_filtered(manifest, out) == EXIT_OK
    before = {p.name: p.read_bytes() for p in (out / "filtered").iterdir()}
    # the intact views are their own sources now
    assert fit_filtered(out / "filtered" / "manifest.cfg", out) == EXIT_OK
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in (out / "filtered").iterdir()} == before


def test_save_dataset_copies_the_files_a_load_read(tmp_path):
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    save_dataset(load_dataset(manifest), tmp_path / "saved")
    for saved, source in [("view_1.csv", "v1.csv"), ("view_2.csv", "v2.csv"),
                          ("labels.txt", "labels.txt")]:
        assert ((tmp_path / "saved" / saved).read_bytes()
                == (manifest.parent / source).read_bytes())


def read_only(X):
    X.flags.writeable = False
    return X


DERIVED = {
    # a slice is copied by the dataset, a read-only copy kept as it is
    "column-slice": lambda ds: MultiViewDataset([X[:, :1] for X in ds.views], ds.labels[::-1]),
    "copy": lambda ds: MultiViewDataset([read_only(X.copy()) for X in ds.views],
                                        read_only(ds.labels.copy())),
    "synthetic": lambda ds: generate(default_benchmark_spec(300, seed=3)),
}


@pytest.mark.parametrize("derive", DERIVED.values(), ids=DERIVED.keys())
def test_save_dataset_prints_arrays_that_were_not_read(tmp_path, derive):
    # no array of these came from a file, so each prints as np.savetxt would
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    loaded = load_dataset(manifest)
    derived = derive(loaded)
    save_dataset(derived, tmp_path / "saved")
    for h, X in enumerate(derived.views, start=1):
        np.savetxt(tmp_path / "savetxt.csv", X, fmt="%.17g", delimiter=",")
        assert ((tmp_path / "saved" / f"view_{h}.csv").read_bytes()
                == (tmp_path / "savetxt.csv").read_bytes())
    np.savetxt(tmp_path / "savetxt.txt", derived.labels, fmt="%d")
    assert ((tmp_path / "saved" / "labels.txt").read_bytes()
            == (tmp_path / "savetxt.txt").read_bytes())


def test_save_dataset_prints_a_view_whose_file_changed_after_the_load(tmp_path):
    dataset = generate(default_benchmark_spec(300, seed=3))
    manifest = short_text_manifest(tmp_path, dataset.views, dataset.labels)
    loaded = load_dataset(manifest)
    np.savetxt(manifest.parent / "v2.csv", loaded.views[1] + 1.0, fmt="%.5f", delimiter=",")
    save_dataset(loaded, tmp_path / "saved")
    np.savetxt(tmp_path / "savetxt.csv", loaded.views[1], fmt="%.17g", delimiter=",")
    for saved, want in [("view_1.csv", manifest.parent / "v1.csv"),
                        ("view_2.csv", tmp_path / "savetxt.csv")]:
        assert (tmp_path / "saved" / saved).read_bytes() == want.read_bytes()


def test_a_dropped_dataset_leaves_nothing_in_the_source_registry(tmp_path):
    dataset = generate(default_benchmark_spec(300, seed=3))
    loaded = load_dataset(short_text_manifest(tmp_path, dataset.views, dataset.labels))
    keys = [id(X) for X in (*loaded.views, loaded.labels)]
    assert all(key in data._SOURCES for key in keys)
    del loaded
    gc.collect()
    assert not any(key in data._SOURCES for key in keys)


def test_fit_parses_its_manifest_once(tmp_path, capsys, monkeypatch):
    manifest, _ = make_manifest(tmp_path, n=300, noise_features=1)
    calls, real_parse = [], data.parse_manifest

    def counted(path):
        calls.append(path)
        return real_parse(path)

    monkeypatch.setattr(data, "parse_manifest", counted)
    monkeypatch.setattr(cli, "parse_manifest", counted, raising=False)
    assert fit_filtered(manifest, tmp_path / "run") == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def fit_outputs(out):
    # the files a pruning fit writes, and its report without timings
    files = [out / "predicted_labels.txt", *sorted((out / "filtered").iterdir())]
    return ({p.relative_to(out).as_posix(): p.read_bytes() for p in files},
            harness.strip_timing(harness.parse_records(out / "report.jsonl")))


def test_fit_from_the_parse_cache_writes_the_same_outputs(tmp_path, capsys, monkeypatch,
                                                          private_parse_cache):
    manifest, _ = make_manifest(tmp_path, n=300, noise_features=1)
    calls = count_loadtxt(monkeypatch)
    outputs = []
    for expected_calls in (3, 0):  # two views and the labels, then none
        del calls[:]
        assert fit_filtered(manifest, tmp_path / "run", "--seed", "4") == EXIT_OK
        assert len(calls) == expected_calls
        outputs.append(fit_outputs(tmp_path / "run"))
    capsys.readouterr()
    assert len(list((private_parse_cache / "mvclust").glob("*.npy"))) == 3
    assert outputs[1] == outputs[0]


def test_fit_without_a_usable_cache_directory_writes_the_same_outputs(tmp_path, capsys,
                                                                      monkeypatch):
    # the suite may run as root, so a regular file, not a mode, stops the mkdir
    manifest, _ = make_manifest(tmp_path, n=300, noise_features=1)
    assert fit_filtered(manifest, tmp_path / "cached", "--seed", "4") == EXIT_OK
    (tmp_path / "not-a-dir").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not-a-dir"))
    assert fit_filtered(manifest, tmp_path / "uncached", "--seed", "4") == EXIT_OK
    capsys.readouterr()
    assert fit_outputs(tmp_path / "uncached") == fit_outputs(tmp_path / "cached")


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


def test_bench_manifest_source(tmp_path, capsys):
    manifest, _ = make_manifest(tmp_path, n=80)
    argv = ["bench", "--algo", "amvfcm", "--config", str(manifest),
            "--clusters", "5", "--format", "records"]
    assert main(argv) == EXIT_OK
    records = records_from(capsys.readouterr().out)
    assert records[0]["config"]["source"] == {"manifest": str(manifest)}


def test_bench_table_output_to_files(tmp_path, capsys):
    out = tmp_path / "bench_out"
    code = main(["bench", "--algo", "amvfcm", "--synth-n", "120",
                 "--clusters", "5", "--trials", "2", "--out-dir", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "mvclust run report" in captured.out
    table = (out / "report.txt").read_text(encoding="utf-8")
    assert table == captured.out
