"""Dataset container, validation, and manifest I/O tests."""

import io
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mvclust import data
from mvclust.data import (
    EmptyDatasetError,
    LabelValueError,
    ManifestError,
    MatrixFormatError,
    MultiViewDataset,
    NonFiniteValueError,
    RowCountMismatchError,
    load_dataset,
    parse_manifest,
    save_dataset,
    validate,
)
from support import count_loadtxt, load_dataset_by_scan


def two_view_dataset(n=4, labels=True):
    rng = np.random.default_rng(0)
    views = [rng.normal(size=(n, 2)), rng.normal(size=(n, 3))]
    lab = np.arange(n) % 2 if labels else None
    return MultiViewDataset(views, lab, ("left", "right"))


def entries(cache):
    # the parse cache's entries under the directory XDG_CACHE_HOME names
    return sorted((cache / "mvclust").glob("*.npy")) if (cache / "mvclust").is_dir() else []


# ------------------------------------------------------------------ container


def test_dataset_shape_properties():
    ds = two_view_dataset()
    assert ds.n_samples == 4
    assert ds.n_views == 2
    assert ds.dims == [2, 3]
    assert ds.view_names == ("left", "right")


def test_dataset_views_are_immutable():
    ds = two_view_dataset()
    with pytest.raises(ValueError):
        ds.views[0][0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 5


def test_dataset_copies_input_arrays():
    src = np.ones((3, 2))
    readonly_view = src.view()
    readonly_view.flags.writeable = False
    ds = MultiViewDataset([src, readonly_view])
    src[0, 0] = -1.0
    assert ds.views[0][0, 0] == 1.0
    assert ds.views[1][0, 0] == 1.0


def test_dataset_keeps_owned_read_only_arrays():
    # freshly built views (see synth) are handed over read-only, not copied
    X = np.ones((3, 2))
    X.flags.writeable = False
    assert MultiViewDataset([X]).views[0] is X


def test_dataset_keeps_owned_read_only_labels():
    lab = np.array([0, 1, 1])
    lab.flags.writeable = False
    assert MultiViewDataset([np.ones((3, 1))], lab).labels is lab


@pytest.mark.parametrize("labels", [np.array([0, 1, 1]), [0, 1, 1]], ids=["writeable", "list"])
def test_dataset_copies_other_labels(labels):
    ds = MultiViewDataset([np.ones((3, 1))], labels)
    assert ds.labels is not labels
    assert ds.labels.base is None and not ds.labels.flags.writeable
    labels[0] = 1
    assert ds.labels.tolist() == [0, 1, 1]


def test_loaded_labels_are_kept_without_a_copy(tmp_path, monkeypatch):
    (tmp_path / "a.csv").write_text("1\n2\n")
    (tmp_path / "m.cfg").write_text("view = a.csv\nlabels = y.txt\n")
    parsed = []
    read = data._read_labels
    monkeypatch.setattr(data, "_read_labels", lambda path: parsed.append(read(path)) or parsed[-1])
    for text in ("0\n1\n", "1\n2\n", "0\n\t\n1\n"):  # parsed, shifted, scanned
        (tmp_path / "y.txt").write_text(text)
        ds = load_dataset(tmp_path / "m.cfg")
        assert ds.labels is parsed[-1] and ds.labels.base is None
        assert not ds.labels.flags.writeable and ds.labels.tolist() == [0, 1]


def test_loaded_views_are_kept_without_a_copy(tmp_path, monkeypatch):
    # both reader paths, on a cache miss and on a hit, hand over an owned
    # read-only array; the dataset keeps it
    (tmp_path / "fast.csv").write_text("1,2\n3,4\n")
    (tmp_path / "scan.csv").write_text("1_0\n2\n")
    (tmp_path / "m.cfg").write_text("view = fast.csv\nview = scan.csv\n")
    calls = count_loadtxt(monkeypatch)
    parsed = []
    read = data._read_matrix
    monkeypatch.setattr(data, "_read_matrix", lambda path: parsed.append(read(path)) or parsed[-1])
    for parsed_files in (["fast.csv", "scan.csv"], ["scan.csv"]):
        del calls[:], parsed[:]
        ds = load_dataset(tmp_path / "m.cfg")
        assert [path.name for path in calls] == parsed_files and len(parsed) == 2
        for X, Y in zip(ds.views, parsed, strict=True):
            assert X is Y and X.base is None and not X.flags.writeable


# ----------------------------------------------------------------- validation


def test_validate_accepts_well_formed_dataset():
    validate(two_view_dataset())


def test_validate_rejects_empty_view_list():
    with pytest.raises(EmptyDatasetError):
        validate(MultiViewDataset([]))


def test_validate_rejects_zero_column_view():
    with pytest.raises(EmptyDatasetError):
        validate(MultiViewDataset([np.ones((3, 1)), np.ones((3, 0))]))


def test_validate_rejects_row_count_mismatch():
    with pytest.raises(RowCountMismatchError):
        validate(MultiViewDataset([np.ones((4, 2)), np.ones((5, 2))]))


def test_validate_reports_nonfinite_coordinates():
    X = np.ones((3, 2))
    X[1, 0] = np.nan
    with pytest.raises(NonFiniteValueError) as err:
        validate(MultiViewDataset([np.ones((3, 2)), X]))
    assert (err.value.view, err.value.row, err.value.col) == (1, 1, 0)


def test_validate_rejects_label_length_mismatch():
    with pytest.raises(RowCountMismatchError):
        validate(MultiViewDataset([np.ones((4, 2))], labels=[0, 1, 0]))


def test_validate_rejects_sparse_label_alphabet():
    # class 1 never occurs
    with pytest.raises(LabelValueError):
        validate(MultiViewDataset([np.ones((3, 2))], labels=[0, 2, 0]))
    with pytest.raises(LabelValueError):
        validate(MultiViewDataset([np.ones((3, 2))], labels=[-1, 0, 1]))


def test_validate_names_missing_class_in_linear_time():
    # 20,000 classes present, class 19,999 empty; a check that rescans the
    # present classes per candidate takes tens of seconds here
    labels = np.r_[np.arange(19_999), 20_000]
    dataset = MultiViewDataset([np.ones((labels.size, 1))], labels=labels)
    tic = time.perf_counter()
    with pytest.raises(LabelValueError, match=r"class 19999 is empty"):
        validate(dataset)
    assert time.perf_counter() - tic < 1.0


# ------------------------------------------------------------------- file I/O


def test_save_load_round_trip(tmp_path):
    ds = two_view_dataset(n=6)
    manifest = save_dataset(ds, tmp_path)
    back = load_dataset(manifest)
    assert back.n_views == 2 and back.dims == ds.dims
    for a, b in zip(ds.views, back.views):
        np.testing.assert_array_equal(a, b)
    assert (back.labels == ds.labels).all()
    assert back.view_names == ds.view_names


def test_load_hand_written_manifest(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
    (tmp_path / "b.csv").write_text("0,1\n1,0\n0,0\n1,1\n")
    (tmp_path / "y.txt").write_text("0\n1\n0\n1\n")
    (tmp_path / "m.cfg").write_text(
        "# comment\nview = a.csv\nview = b.csv\nlabels = y.txt\nname.1 = first\n"
    )
    ds = load_dataset(tmp_path / "m.cfg")
    assert ds.n_samples == 4 and ds.dims == [2, 2]
    assert ds.views[0][3, 1] == 8.0
    assert ds.view_names[0] == "first"


def test_load_shifts_one_based_labels(tmp_path):
    (tmp_path / "a.csv").write_text("1\n2\n3\n")
    (tmp_path / "y.txt").write_text("1\n2\n1\n")
    (tmp_path / "m.cfg").write_text("view = a.csv\nlabels = y.txt\n")
    ds = load_dataset(tmp_path / "m.cfg")
    assert ds.labels.tolist() == [0, 1, 0]


def test_load_rejects_row_count_mismatch(tmp_path):
    (tmp_path / "a.csv").write_text("1\n2\n3\n4\n")
    (tmp_path / "b.csv").write_text("1\n2\n3\n4\n5\n")
    (tmp_path / "m.cfg").write_text("view = a.csv\nview = b.csv\n")
    with pytest.raises(RowCountMismatchError):
        load_dataset(tmp_path / "m.cfg")


def test_load_reports_missing_file_with_path(tmp_path):
    (tmp_path / "m.cfg").write_text("view = gone.csv\n")
    with pytest.raises(ManifestError) as err:
        load_dataset(tmp_path / "m.cfg")
    assert "gone.csv" in str(err.value)


def test_load_reports_ragged_row_with_line_number(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n3\n")
    (tmp_path / "m.cfg").write_text("view = a.csv\n")
    with pytest.raises(MatrixFormatError) as err:
        load_dataset(tmp_path / "m.cfg")
    assert err.value.line_no == 2


def test_load_reports_non_numeric_cell(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n3,oops\n")
    (tmp_path / "m.cfg").write_text("view = a.csv\n")
    with pytest.raises(MatrixFormatError) as err:
        load_dataset(tmp_path / "m.cfg")
    assert "oops" in str(err.value) and err.value.line_no == 2


# (view text, label text or None, expected exception or None for accepted)
PARSE_CASES = {
    "crlf": ("1,2\r\n3,4\r\n", None, None),
    "blank_lines": ("\n1,2\n\n\n3,4\n\n", None, None),
    "spaces_around_cells": (" 1 ,\t2 \n3 , 4\n", None, None),
    "single_row": ("1.5,-2,3e-5\n", None, None),
    "single_column": ("1\n2\n3\n", None, None),
    "nan": ("1,nan\n3,4\n", None, NonFiniteValueError),
    "inf": ("1,2\n-inf,4\n", None, NonFiniteValueError),
    "underscore_digits": ("1_0,2\n3,4\n", None, None),
    "whitespace_only_line": ("1,2\n   \n3,4\n", None, None),
    "empty": ("", None, EmptyDatasetError),
    "only_newlines": ("\n\n\n", None, EmptyDatasetError),
    "trailing_comma": ("1,2,\n3,4,\n", None, MatrixFormatError),
    "comment_line": ("1,2\n# note\n3,4\n", None, MatrixFormatError),
    "label_float": ("1\n2\n", "0\n3.0\n", MatrixFormatError),
    "label_underscore": ("1\n" * 11, "".join(f"{k}\n" for k in range(10)) + "1_0\n", None),
    "label_plus_sign": ("1\n" * 4, "0\n1\n2\n+3\n", None),
    "label_two_per_line": ("1\n", "0,1\n", MatrixFormatError),
}


def _outcome(load, manifest):
    # what a reader makes of a manifest: the arrays' bits, or the error and line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load(manifest)
        except Exception as exc:
            return type(exc), getattr(exc, "line_no", None)
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tobytes())
    return [(X.shape, X.tobytes()) for X in ds.views], labels


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_reader_matches_line_scan(tmp_path, case):
    view, labels, expected = PARSE_CASES[case]
    (tmp_path / "a.csv").write_bytes(view.encode())
    manifest = "view = a.csv\n"
    if labels is not None:
        (tmp_path / "y.txt").write_bytes(labels.encode())
        manifest += "labels = y.txt\n"
    (tmp_path / "m.cfg").write_text(manifest)
    got = _outcome(load_dataset, tmp_path / "m.cfg")
    assert got == _outcome(load_dataset_by_scan, tmp_path / "m.cfg")
    assert got[0] is expected if expected is not None else isinstance(got[0], list)


def test_reader_rejects_label_beyond_int64_with_file_and_line(tmp_path):
    # the line scan oracle lets numpy's OverflowError escape; the reader names the line
    (tmp_path / "y.txt").write_text("0\n99999999999999999999\n")
    with pytest.raises(MatrixFormatError, match="out of range") as err:
        data._read_labels(tmp_path / "y.txt")
    assert (err.value.path, err.value.line_no) == (str(tmp_path / "y.txt"), 2)


@pytest.mark.parametrize("name", ["a.csv", "y.txt", "m.cfg"])
def test_reader_names_file_and_line_of_byte_not_utf8(tmp_path, name):
    files = {"a.csv": b"1,2\n3,4\n", "y.txt": b"0\n1\n",
             "m.cfg": b"view = a.csv\nlabels = y.txt\n"}
    files[name] = files[name].replace(b"\n", b"\xff\n").replace(b"\xff\n", b"\n", 1)
    for file_name, raw in files.items():
        (tmp_path / file_name).write_bytes(raw)
    error = ManifestError if name == "m.cfg" else MatrixFormatError
    with pytest.raises(error, match=r"byte 0xff is not valid UTF-8") as err:
        load_dataset(tmp_path / "m.cfg")
    assert f"{tmp_path / name}:2: " in str(err.value)


def test_reader_scans_lines_only_when_loadtxt_refuses(tmp_path, monkeypatch):
    scanned = []
    for name in ("_scan_matrix", "_scan_labels"):
        scan = getattr(data, name)
        monkeypatch.setattr(data, name, lambda path, scan=scan: scanned.append(path.name) or scan(path))
    files = {"plain.csv": "1,2\n3,4\n", "odd.csv": "1_0,2\n3,4\n",
             "plain.txt": "1\n2\n", "odd.txt": "1\n\t\n2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name in files:
        reader = data._read_matrix if name.endswith(".csv") else data._read_labels
        reader(tmp_path / name)
    assert scanned == ["odd.csv", "odd.txt"]


# ---------------------------------------------------------------- parse cache


def test_second_read_of_a_file_skips_the_parser(tmp_path, monkeypatch, private_parse_cache):
    path = tmp_path / "a.csv"
    path.write_text("1.5,2\n3,-4e-300\n0.1,7\n")
    calls = count_loadtxt(monkeypatch)
    first = data._read_matrix(path)
    second = data._read_matrix(path)
    assert calls == [path] and len(entries(private_parse_cache)) == 1
    assert second is not first and second.dtype == first.dtype and second.shape == first.shape
    assert second.tobytes() == first.tobytes()
    assert second.base is None and second.flags.c_contiguous and not second.flags.writeable


def test_cache_lives_under_the_home_directory_by_default(tmp_path, monkeypatch):
    # an unset or relative XDG_CACHE_HOME means ~/.cache
    (tmp_path / "a.csv").write_text("1,2\n")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for value in (None, "relative/cache"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        data._read_matrix(tmp_path / "a.csv")
    cache = tmp_path / "home" / ".cache" / "mvclust"
    assert len(list(cache.glob("*.npy"))) == 1
    assert cache.stat().st_mode & 0o777 == 0o700


def _no_home(tmp_path, monkeypatch):
    def home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(data.Path, "home", home)


def _file_for_directory(tmp_path, monkeypatch):
    # the suite may run as root, so a regular file, not a mode, stops the mkdir
    (tmp_path / "not-a-dir").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "not-a-dir"))


@pytest.mark.parametrize("break_cache", [_no_home, _file_for_directory])
def test_unusable_cache_means_a_parse_per_read(tmp_path, monkeypatch, break_cache):
    break_cache(tmp_path, monkeypatch)
    (tmp_path / "a.csv").write_text("1,2\n")
    calls = count_loadtxt(monkeypatch)
    for _ in range(2):
        assert data._read_matrix(tmp_path / "a.csv").tolist() == [[1.0, 2.0]]
    assert len(calls) == 2


def test_edited_file_is_parsed_again(tmp_path, monkeypatch, private_parse_cache):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n3,4\n")
    calls = count_loadtxt(monkeypatch)
    data._read_matrix(path)
    path.write_text("1,2\n3,5\n")
    assert data._read_matrix(path).tolist() == [[1.0, 2.0], [3.0, 5.0]]
    assert len(calls) == 2 and len(entries(private_parse_cache)) == 2


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


DAMAGE = {
    "truncated": lambda raw: raw[:-3],
    "garbage": lambda raw: b"not an npy file",
    "empty": lambda raw: b"",
    "one_dimensional": lambda raw: _npy_bytes(np.arange(6.0)),
    "integer": lambda raw: _npy_bytes(np.arange(6).reshape(3, 2)),
    "fortran_order": lambda raw: _npy_bytes(np.asfortranarray(np.ones((3, 2)))),
    "pickled": lambda raw: _npy_bytes(np.array([None] * 6, dtype=object).reshape(3, 2)),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_entry_is_parsed_again_and_replaced(tmp_path, monkeypatch, private_parse_cache,
                                                    damage):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    first = data._read_matrix(path)
    (entry,) = entries(private_parse_cache)
    raw = entry.read_bytes()
    entry.write_bytes(DAMAGE[damage](raw))
    calls = count_loadtxt(monkeypatch)
    X = data._read_matrix(path)
    assert calls == [path]
    assert X.tobytes() == first.tobytes() and X.base is None and not X.flags.writeable
    assert entries(private_parse_cache) == [entry] and entry.read_bytes() == raw


def test_input_loadtxt_refuses_is_never_cached(tmp_path, private_parse_cache):
    files = {"odd.csv": "1_0,2\n3,4\n", "bad.csv": "1,2\n3,x\n", "blank.csv": "\n \n",
             "odd.txt": "1\n\t\n2\n", "bad.txt": "0\n1.5\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for _ in range(2):
        assert data._read_matrix(tmp_path / "odd.csv").tolist() == [[10.0, 2.0], [3.0, 4.0]]
        assert data._read_labels(tmp_path / "odd.txt").tolist() == [0, 1]
        for name, line_no in (("bad.csv", 2), ("bad.txt", 2)):
            reader = data._read_matrix if name.endswith(".csv") else data._read_labels
            with pytest.raises(MatrixFormatError) as err:
                reader(tmp_path / name)
            assert (err.value.path, err.value.line_no) == (str(tmp_path / name), line_no)
        with pytest.raises(EmptyDatasetError, match="blank.csv"):
            data._read_matrix(tmp_path / "blank.csv")
    assert entries(private_parse_cache) == []


def test_labels_and_views_of_the_same_bytes_have_their_own_entries(tmp_path, monkeypatch,
                                                                    private_parse_cache):
    path = tmp_path / "a.txt"
    path.write_text("1\n2\n2\n")
    calls = count_loadtxt(monkeypatch)
    for _ in range(2):
        X, lab = data._read_matrix(path), data._read_labels(path)
        assert X.dtype == float and X.tolist() == [[1.0], [2.0], [2.0]]
        assert lab.dtype == int and lab.tolist() == [0, 1, 1]
        assert lab.base is None and not lab.flags.writeable
    assert len(calls) == 2 and len(entries(private_parse_cache)) == 2


def test_cache_deletes_the_least_recently_used_entries_beyond_its_bound(
        tmp_path, monkeypatch, private_parse_cache):
    # room for three entries; v0 is read first, then read again after v1, v2
    paths = [tmp_path / f"v{k}.csv" for k in range(5)]
    owner = {}
    for k, path in enumerate(paths):
        path.write_text(f"{k},1\n2,3\n")
    for path in paths[:3]:
        data._read_matrix(path)
        owner.update({e: path.name for e in entries(private_parse_cache) if e not in owner})
    monkeypatch.setattr(data, "CACHE_BYTES", sum(e.stat().st_size for e in owner))
    for age, e in enumerate(sorted(owner, key=owner.get)):  # clock ticks are coarse
        os.utime(e, ns=(0, (1_000 + age) * 10**9))
    data._read_matrix(paths[0])  # a hit: now the most recently used
    for path, kept in ((paths[3], {"v0.csv", "v2.csv"}), (paths[4], {"v0.csv", "v3.csv"})):
        data._read_matrix(path)
        now = entries(private_parse_cache)
        owner.update({e: path.name for e in now if e not in owner})
        assert sum(e.stat().st_size for e in now) <= data.CACHE_BYTES
        assert {owner[e] for e in now} == kept | {path.name}


def _values_with_edge_cases(n, d, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.lognormal(0.0, 20.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 1e-300]
    k = min(X.size, len(edge))
    X.flat[:k] = edge[:k]
    return X


@pytest.mark.parametrize("n, d", [(1, 3), (9, 1), (2 * (data._WRITE_CHUNK_CELLS // 5) + 3, 5),
                                  (data._WRITE_CHUNK_CELLS + 3, 1)])
def test_save_writes_savetxt_bytes_and_round_trips(tmp_path, n, d):
    X = _values_with_edge_cases(n, d)
    labels = np.arange(n) % 3
    manifest = save_dataset(MultiViewDataset([X], labels), tmp_path / "out")
    np.savetxt(tmp_path / "view.csv", X, fmt="%.17g", delimiter=",")
    np.savetxt(tmp_path / "labels.txt", labels, fmt="%d")
    out = tmp_path / "out"
    assert (out / "view_1.csv").read_bytes() == (tmp_path / "view.csv").read_bytes()
    assert (out / "labels.txt").read_bytes() == (tmp_path / "labels.txt").read_bytes()
    back = load_dataset(manifest)
    assert back.views[0].tobytes() == X.tobytes()
    assert back.labels.tolist() == labels.tolist()


def test_save_formats_views_in_bounded_chunks(tmp_path):
    # formatting the whole view at once would hold its text and more
    ds = MultiViewDataset([np.random.default_rng(0).normal(size=(40_000, 12))])
    tracemalloc.start()
    try:
        save_dataset(ds, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "view_1.csv").stat().st_size / 4


def test_manifest_rejects_unknown_key(tmp_path):
    (tmp_path / "m.cfg").write_text("view = a.csv\nbogus = 1\n")
    with pytest.raises(ManifestError):
        parse_manifest(tmp_path / "m.cfg")


def test_manifest_requires_views(tmp_path):
    (tmp_path / "m.cfg").write_text("labels = y.txt\n")
    with pytest.raises(ManifestError):
        parse_manifest(tmp_path / "m.cfg")


@pytest.mark.parametrize("text, line", [
    ("view = a.csv\nview = b.csv\nname.0 = ghost\n", 3),
    ("name.3 = ghost\nview = a.csv\nview = b.csv\n", 1),
], ids=["zero", "past-last"])
def test_manifest_rejects_name_of_missing_view(tmp_path, text, line):
    # name indices are 1-based positions among the manifest's views
    (tmp_path / "m.cfg").write_text(text)
    with pytest.raises(ManifestError, match=f"m.cfg:{line}: .*outside 1..2"):
        parse_manifest(tmp_path / "m.cfg")


def test_manifest_rejects_repeated_labels(tmp_path):
    (tmp_path / "m.cfg").write_text(
        "view = a.csv\nlabels = y.txt\nlabels = missing.txt\n"
    )
    with pytest.raises(ManifestError, match="m.cfg:3: repeated 'labels'"):
        parse_manifest(tmp_path / "m.cfg")


def test_manifest_rejects_repeated_view_name(tmp_path):
    (tmp_path / "m.cfg").write_text(
        "view = a.csv\nname.1 = first\nname.1 = second\n"
    )
    with pytest.raises(ManifestError, match="m.cfg:3: repeated 'name.1'"):
        parse_manifest(tmp_path / "m.cfg")


@pytest.mark.parametrize("key", ["view", "labels", "name.1"])
def test_manifest_rejects_empty_value(tmp_path, key):
    # an empty view path would otherwise resolve to the manifest's directory
    (tmp_path / "m.cfg").write_text(f"view = a.csv\n{key} =\n")
    with pytest.raises(ManifestError, match=f"m.cfg:2: empty value for '{key}'"):
        parse_manifest(tmp_path / "m.cfg")


def test_loaded_dataset_passes_later_validation(tmp_path):
    # load -> validate is total
    ds = two_view_dataset(n=5)
    back = load_dataset(save_dataset(ds, tmp_path))
    validate(back)
