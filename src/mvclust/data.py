"""Multi-view dataset container, validation, and file I/O.

A dataset is an ordered list of views. Every view is a dense float matrix with
one row per sample; all views share the same row count and row order. Ground
truth labels are optional. On disk a dataset is described by a small manifest:

    view = view_1.csv
    view = view_2.csv
    labels = labels.txt
    name.1 = first_view

``view`` lines are repeatable and their order defines the view index. Paths are
resolved relative to the manifest's directory. View files are plain CSV (one
sample per line, no header); label files hold one integer per line. Reads go
through numpy's vectorized parser and fall back to a line scan for what it
refuses, so errors still name the file and line. Each array a read returns
is registered with its file and the stamp (``_file_stamp``) the file had
before the read, for as long as the array lives. Writes copy a registered
array's file while it keeps that stamp, and print any other array as
``np.savetxt`` prints it (%.17g, labels %d), byte for byte.

Each array the vectorized parser returns is kept as a ``.npy`` file in
``$XDG_CACHE_HOME/mvclust`` (by default ``~/.cache/mvclust``), named by the
SHA-256 of the file's bytes, the parse dtype, the numpy version and a format
tag, so an unchanged file is parsed once. Input the line scan reads is never
stored, nor is an entry larger than ``CACHE_BYTES``. Once the entries pass
``CACHE_BYTES`` the least recently used are deleted. A load that begins more
than ``_RACY_NS`` (2 s) after the file last changed also hard-links the entry
to a name built from the file's stamp (``_file_stamp``) and the parse dtype,
and a later load of a file with that stamp opens only that name. As in git,
a younger file is hashed on every read: a rewrite within one clock tick can
keep the stamp, and a file system whose clock runs behind by more than 2 s
can hide a same-size rewrite. ``rm -rf ~/.cache/mvclust`` clears the cache.
A cache that cannot be read or written, or that cannot hold hard links, is
skipped, and the file is hashed, and parsed, as if there were none.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import time
import weakref
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from numbers import Integral
from pathlib import Path

import numpy as np


class DatasetError(Exception):
    """Base class for dataset construction and validation failures."""


class ManifestError(DatasetError):
    """Malformed manifest or missing referenced file."""


class MatrixFormatError(DatasetError):
    """Ragged or non-numeric view file; carries file and line context."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class RowCountMismatchError(DatasetError):
    """Views (or labels) disagree on the number of samples."""


class NonFiniteValueError(DatasetError):
    """NaN or infinite entry; carries (view, row, column) coordinates."""

    def __init__(self, view, row, col):
        super().__init__(f"non-finite value in view {view} at row {row}, column {col}")
        self.view = view
        self.row = row
        self.col = col


class EmptyDatasetError(DatasetError):
    """No views, no rows, or a view with no columns."""


class LabelValueError(DatasetError):
    """Label vector violates the dense 0-based class contract."""


def _freeze(arr, dtype=float):
    # a read-only array that owns its memory has no writable handle left to
    # copy away from, so freshly built arrays are kept as they are
    if (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.base is None
            and arr.flags.c_contiguous and not arr.flags.writeable):
        return arr
    out = np.array(arr, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MultiViewDataset:
    """Immutable bundle of aligned view matrices plus optional labels.

    Parameters
    ----------
    views : sequence of (n, d_h) arrays
        One matrix per view, same row count everywhere.
    labels : (n,) int array or None
        Ground truth cluster ids, dense 0-based.
    view_names : tuple of str or None
        Optional display names, one per view.

    A private memo keeps what the data alone decide for later fits: that the
    dataset passed :func:`validate`, and the moments, dispersion ratios and
    seeding norms of :mod:`mvclust.amvfcm` (O(n + D) numbers, no copy of the
    views). It cannot go stale: the instance is frozen, its arrays owned and
    read-only, and a new instance starts with an empty memo.
    """

    views: tuple
    labels: np.ndarray | None = None
    view_names: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(_freeze(v) for v in self.views))
        if self.labels is not None:
            object.__setattr__(self, "labels", _freeze(self.labels, int))
        if self.view_names is not None:
            object.__setattr__(self, "view_names", tuple(str(s) for s in self.view_names))
        object.__setattr__(self, "_memo", {})

    @property
    def n_samples(self):
        return 0 if not self.views else self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def dims(self):
        """Per-view column counts."""
        return [v.shape[1] for v in self.views]


def validate(dataset: MultiViewDataset) -> None:
    """Check structural invariants; raise a specific DatasetError variant.

    Verifies: at least one view with rows and columns, equal row counts across
    views, finite entries everywhere, and (when present) labels of matching
    length that are dense 0-based with no empty class.
    """
    if dataset.n_views == 0:
        raise EmptyDatasetError("dataset has no views")
    n = dataset.views[0].shape[0]
    if n == 0:
        raise EmptyDatasetError("views have no rows")
    for h, X in enumerate(dataset.views):
        if X.ndim != 2 or X.shape[1] == 0:
            raise EmptyDatasetError(f"view {h} has no columns")
        if X.shape[0] != n:
            raise RowCountMismatchError(
                f"view {h} has {X.shape[0]} rows, expected {n}"
            )
        bad = ~np.isfinite(X)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise NonFiniteValueError(h, int(r), int(c))
    if dataset.labels is not None:
        lab = dataset.labels
        if lab.shape != (n,):
            raise RowCountMismatchError(
                f"labels have {lab.shape[0] if lab.ndim == 1 else '?'} rows, expected {n}"
            )
        _check_dense_labels(lab)
    _remember(dataset, valid=True)


def _remember(dataset, **facts):
    # the memo's one writer; fits in two threads may both write the same values: harmless
    dataset._memo.update(facts)


def _require_numbers(settings, kind, *names):
    # a bool, a float where a count or a seed is due, or a string would be
    # taken as a number, truncate or fail deep inside a fit; numpy scalars pass
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is Integral else "a real number"
            raise ValueError(f"{name} must be {noun}, got {value!r}")


def _check_dense_labels(lab):
    # every class id in 0..c-1 must occur at least once. n labels fill at
    # most n classes, so ids from n up count as n: the first empty class stays
    if lab.min() < 0:
        raise LabelValueError(f"negative label {lab.min()}")
    present = np.flatnonzero(np.bincount(np.minimum(lab, lab.size)))
    if present[-1] + 1 != present.size:
        missing = int(np.flatnonzero(present != np.arange(present.size))[0])
        raise LabelValueError(f"label classes are not dense: class {missing} is empty")


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

# cells formatted per write call: bounds the text and Python floats held at once
_WRITE_CHUNK_CELLS = 1 << 14
# labels are read into numpy's default integer type
_LABEL_RANGE = np.iinfo(int)
# total size of the parse cache's entries; the least recently used go first
CACHE_BYTES = 512 << 20
# part of every cache key: a new tag when what an entry holds changes
_CACHE_FORMAT = "v1"
# a load trusts a file's stamp only if the file last changed more than
# _RACY_NS before the load began: a rewrite within one tick of a coarse
# clock keeps the stamp, and FAT's 2 s is the coarsest tick in common use
_RACY_NS = 2 * 10**9
# id(array) -> (path, stamp before the read, weak reference) for each array
# _read_matrix or _read_labels returned; the reference's callback removes the
# entry when the array goes, before its id can be reused
_SOURCES = {}


def _loadtxt(path: Path, dtype):
    # (array, stamp taken before the read): numpy's C parser, or None when it
    # refuses the file or the file has no content; the line scan then decides,
    # and names the line of any error.
    # A file whose trusted stamp names an entry is not opened; any other is
    # read once, both to hash it and to look for content. The entry and its
    # stamp name are kept only if the file still has its stamp after the
    # reads: a change between them would file new bytes under an old digest.
    dtype, now, stamp = np.dtype(dtype), time.time_ns(), _file_stamp(path)
    entry = f"-{dtype.kind}{dtype.itemsize}-numpy{np.__version__}-{_CACHE_FORMAT}.npy"
    trusted = stamp is not None and max(stamp[3:]) < now - _RACY_NS
    named = "-".join(map(str, stamp or ())) + entry
    X = _cache_load(named, dtype) if trusted else None
    if X is not None:
        return X, stamp
    import hashlib  # here, not at the top: a trusted stamp needs no hash
    sha, blank = hashlib.sha256(), True
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            blank = blank and not chunk.strip()
    if blank:  # loadtxt only warns about a file of blank lines
        return None, stamp
    digest = sha.hexdigest() + entry
    X = hit = _cache_load(digest, dtype)
    if X is None:
        try:
            X = np.loadtxt(path, delimiter=",", ndmin=2, dtype=dtype, comments=None,
                           quotechar=None, encoding="utf-8")
        except ValueError:
            return None, stamp
    if _file_stamp(path) == stamp:
        with suppress(OSError, ValueError, RuntimeError):
            if hit is None:
                _cache_store(digest, X)
            if trusted:  # the stamp name becomes a second name for the entry
                _replace(_cache_dir() / named, partial(os.link, _cache_dir() / digest))
    return X, stamp


def _cache_dir():
    # Path.home() raises RuntimeError when no home directory can be found
    root = os.environ.get("XDG_CACHE_HOME", "")
    return Path(root if os.path.isabs(root) else Path.home() / ".cache") / "mvclust"


def _cache_load(name, dtype):
    # the entry's array if it is 2-D, C-ordered and of the parse dtype, read
    # into memory of its own (np.load hands back a reshaped view); else None
    with suppress(OSError, ValueError, EOFError, RuntimeError):
        entry = _cache_dir() / name
        with open(entry, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, stored = np.lib.format.read_array_header_1_0(fh)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if (len(shape) != 2 or fortran_order or stored != dtype
                    or size != math.prod(shape) * dtype.itemsize):
                return None
            X = np.empty(shape, dtype)
            if fh.readinto(X) != size:
                return None
        with suppress(OSError):  # a hit is a use: evicted last, where the entry allows
            os.utime(entry)
        return X
    return None


def _cache_store(name, X):
    # X under name; then the least recently used go until CACHE_BYTES holds.
    # An entry above the bound is not stored: it would evict every entry.
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(X))
    if header.tell() + X.nbytes > CACHE_BYTES:
        return
    directory = _cache_dir()

    def write(tmp):
        with open(tmp, "xb") as fh:
            np.lib.format.write_array(fh, X, version=(1, 0), allow_pickle=False)

    _replace(directory / name, write)
    kept, seen = 0, set()
    for st, p in sorted(((p.stat(), p) for p in directory.glob("*.npy")),
                        key=lambda e: e[0].st_mtime_ns, reverse=True):
        kept += 0 if st.st_ino in seen else st.st_size  # an entry's names share one inode
        seen.add(st.st_ino)
        if kept > CACHE_BYTES:
            p.unlink(missing_ok=True)


def _replace(target, make):
    # make(tmp) makes the file under a fresh temporary name, which is then
    # renamed, so a reader sees all of the file or none of it
    target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    tmp = target.with_name(f"tmp{os.urandom(8).hex()}.npy")
    try:
        make(tmp)
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _read_matrix(path: Path) -> np.ndarray:
    if not path.is_file():
        raise ManifestError(f"view file not found: {path}")
    X, stamp = _loadtxt(path, float)
    if X is None:
        X = _scan_matrix(path)
    return _registered(X, path, stamp)


def _registered(X, path, stamp):
    # owned, contiguous and read-only, so the dataset keeps it without a copy
    # and it holds what the file held while the file keeps ``stamp``
    X.flags.writeable = False
    key = id(X)
    _SOURCES[key] = (path, stamp, weakref.ref(X, lambda _: _SOURCES.pop(key, None)))
    return X


def _numbered_lines(path: Path, error):
    # (line number, stripped line); a byte that is not UTF-8 is reported as
    # error(line number, message) for the line that holds it
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise error(line_no, f"byte 0x{byte:02x} is not valid UTF-8") from None
            yield line_no, line.strip()


def _scan_matrix(path: Path) -> np.ndarray:
    rows = []
    width = None
    for line_no, line in _numbered_lines(path, partial(MatrixFormatError, path)):
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixFormatError(
                path, line_no, f"expected {width} columns, found {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            bad = next(c for c in cells if not _is_number(c))
            raise MatrixFormatError(path, line_no, f"non-numeric cell {bad!r}") from None
    if not rows:
        raise EmptyDatasetError(f"view file is empty: {path}")
    return np.asarray(rows, dtype=float)


def _is_number(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def _read_labels(path: Path) -> np.ndarray:
    if not path.is_file():
        raise ManifestError(f"label file not found: {path}")
    lab, stamp = _loadtxt(path, int)
    # loadtxt splits "1,2" into two labels; the line scan rejects that line
    lab = _scan_labels(path) if lab is None or lab.shape[1] != 1 else lab[:, 0].copy()
    # 1-based files are accepted and shifted down; save_dataset copies them as they are
    if lab.min() == 1:
        lab = lab - 1
    return _registered(lab, path, stamp)


def _scan_labels(path: Path) -> np.ndarray:
    values = []
    for line_no, line in _numbered_lines(path, partial(MatrixFormatError, path)):
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise MatrixFormatError(path, line_no, f"non-integer label {line!r}") from None
        if not _LABEL_RANGE.min <= values[-1] <= _LABEL_RANGE.max:
            raise MatrixFormatError(path, line_no,
                                    f"label {line!r} is out of range for {_LABEL_RANGE.dtype}")
    if not values:
        raise EmptyDatasetError(f"label file is empty: {path}")
    return np.asarray(values, dtype=int)


def parse_manifest(path) -> dict:
    """Parse a manifest file into ``{"views": [...], "labels": ..., "names": {...}}``.

    Blank lines and ``#`` comments are ignored. Paths are returned as written
    (resolution against the manifest directory happens in ``load_dataset``).
    A key with an empty value, a ``name.N`` index outside 1..(view count), and
    a second ``labels`` or ``name.N`` line for the same target are errors that
    name their line.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    views, names, labels = [], {}, None
    name_lines = {}

    def error(line_no, message):
        return ManifestError(f"{path}:{line_no}: {message}")

    for line_no, line in _numbered_lines(path, error):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(line_no, "expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("view", "labels") and not key.startswith("name."):
            raise error(line_no, f"unknown key {key!r}")
        if not value:
            raise error(line_no, f"empty value for {key!r}")
        if key == "view":
            views.append(value)
        elif key == "labels":
            if labels is not None:
                raise error(line_no, "repeated 'labels' key")
            labels = value
        else:
            try:
                idx = int(key[5:])
            except ValueError:
                raise error(line_no, f"bad view index in {key!r}") from None
            if idx in names:
                raise error(line_no, f"repeated {key!r} key")
            names[idx] = value
            name_lines[idx] = line_no
    if not views:
        raise ManifestError(f"{path}: manifest lists no views")
    for idx, line_no in name_lines.items():
        if not 1 <= idx <= len(views):
            raise error(line_no, f"view index {idx} is outside 1..{len(views)}")
    return {"views": views, "labels": labels, "names": names}


def load_dataset(manifest_path) -> MultiViewDataset:
    """Load and validate a dataset from a manifest file.

    Label files may be 0- or 1-based on disk; 1-based vectors are shifted so
    that labels are always dense 0-based in memory.
    """
    manifest_path = Path(manifest_path)
    spec = parse_manifest(manifest_path)
    base = manifest_path.parent
    views = [_read_matrix(base / rel) for rel in spec["views"]]
    labels = _read_labels(base / spec["labels"]) if spec["labels"] else None
    names = None
    if spec["names"]:
        names = tuple(
            spec["names"].get(i + 1, f"view_{i + 1}") for i in range(len(views))
        )
    dataset = MultiViewDataset(views, labels, names)
    validate(dataset)
    return dataset


def save_dataset(dataset: MultiViewDataset, out_dir) -> Path:
    """Write views, labels, and a manifest into ``out_dir``; return manifest path.

    A view or label array that :func:`load_dataset` read is copied byte for
    byte from its file while that file keeps the stamp it had before the
    read. Any other array, a slice or copy of a loaded one included, is
    printed with %.17g (labels %d). Either way a write/read round trip is
    exact. A view name that a manifest line cannot hold as it is (empty,
    padded with whitespace, or with a line break) is refused before any
    file is written.
    """
    for h, name in enumerate(dataset.view_names or ()):
        if not name or name != name.strip() or "\n" in name or "\r" in name:
            raise DatasetError(f"view {h} name {name!r} would not load back: a manifest "
                               "name must be one non-empty line with no outer whitespace")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["# mvclust dataset manifest"]
    for h, X in enumerate(dataset.views, start=1):
        fname = f"view_{h}.csv"
        if not _copy_intact(X, out_dir / fname):
            _write_matrix(out_dir / fname, X)
        lines.append(f"view = {fname}")
    if dataset.labels is not None:
        if not _copy_intact(dataset.labels, out_dir / "labels.txt"):
            _write_labels(out_dir / "labels.txt", dataset.labels)
        lines.append("labels = labels.txt")
    if dataset.view_names is not None:
        for h, name in enumerate(dataset.view_names, start=1):
            lines.append(f"name.{h} = {name}")
    manifest = out_dir / "manifest.cfg"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _copy_intact(X, target):
    # copies the file X was read from to ``target`` if the file still has
    # the stamp it had before the read; False when nothing was copied
    path, stamp, _ = _SOURCES.get(id(X), (None, None, None))
    if stamp is None or _file_stamp(path) != stamp:
        return False
    with suppress(shutil.SameFileError):  # the file is already in place
        shutil.copyfile(path, target)
    return True


def _file_stamp(path):
    # (device, inode, size, modification and change times in ns), or None
    # when stat fails: a file rewritten, replaced or given back an old mtime
    # gets a new stamp, unless within one clock tick (see _RACY_NS)
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _write_matrix(path: Path, X, fmt="%.17g") -> None:
    # the bytes of np.savetxt(fmt=fmt, delimiter=","), formatted one chunk
    # of rows per call instead of one row per call
    n, d = X.shape
    row_fmt = ",".join([fmt] * d) + "\n"
    step = max(1, _WRITE_CHUNK_CELLS // max(d, 1))
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, n, step):
            block = X[start:start + step]
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_labels(path: Path, labels) -> None:
    # the bytes of np.savetxt(fmt="%d") for an integer vector. Non-negative
    # ids are printed by numpy: one column per digit, leading zeros masked
    # out, then a newline column; others one Python int at a time, in chunks
    lab = np.asarray(labels)
    if lab.dtype.kind not in "iu" or not lab.size or lab.min() < 0:
        return _write_matrix(path, lab[:, None], "%d")
    value = lab.astype(np.uint64)
    cells = np.full((lab.size, len(str(value.max())) + 1), ord("\n"), np.uint8)
    for k in range(cells.shape[1] - 2, -1, -1):
        cells[:, k], value = value % 10 + ord("0"), value // 10
    keep = np.logical_or.accumulate(cells != ord("0"), axis=1)
    keep[:, -2] = True  # the last digit, a lone 0 included
    with open(path, "wb") as fh:
        fh.write(cells[keep].tobytes())
