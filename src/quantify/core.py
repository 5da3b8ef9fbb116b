"""Shared data model: datasets, score functions, CSV ingestion, seeding."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class DataError(Exception):
    """Malformed input data or schema (file level, not statistical)."""


class EstimationError(Exception):
    """A statistical contract was violated (degenerate groups, no convergence...)."""


def _check_seed(*seeds: int) -> None:
    """Refuse a negative seed or key, named as given.  Unlike :func:`rng_from`, it leaves
    ``np.random`` (5 MiB, which numpy imports on first use) unloaded."""
    if min(seeds) < 0:
        raise EstimationError(f"seeds must be non-negative, got {min(seeds)}")


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for ``seed`` and an optional derivation path.

    Every randomized routine in the package receives its generator through
    here, so replicate b of a study can use ``rng_from(seed, b)`` and stay
    independent of (and unaffected by) every other replicate.  Seeds and keys
    must be non-negative.
    """
    _check_seed(seed, *key)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _middle(values: np.ndarray) -> np.ndarray:
    """What np.median averages: the middle one or two of ``values``, or a NaN; partitions in place."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    values.partition([lo, hi, -1])
    return values[-1:] if np.isnan(values[-1]) else values[lo : hi + 1]


def _as_2d_float(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataError(f"{name} must be a 2-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class RawDataset:
    """Feature-level sample of one labeled and one unlabeled population.

    Rows with ``set_indicator == 1`` belong to the labeled population and
    must carry a class label.  Rows with ``set_indicator == 0`` belong to
    the population whose class prevalence is unknown; their labels are
    optional (``-1`` when absent) and are never used by the estimators,
    only by evaluation code that holds ground truth.
    """

    features: np.ndarray
    labels: np.ndarray
    set_indicator: np.ndarray
    covariate: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        features = _as_2d_float(self.features, "features")
        labels = np.asarray(self.labels, dtype=int)
        sets = np.asarray(self.set_indicator, dtype=int)
        n = features.shape[0]
        if labels.shape != (n,) or sets.shape != (n,):
            raise DataError("features, labels and set_indicator must agree in length")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        if not np.all((sets == 0) | (sets == 1)):
            raise DataError("set indicator entries must be 0 or 1")
        if np.any(labels < -1):
            raise DataError("labels must be -1 (missing) or nonnegative")
        if np.any((sets == 1) & (labels < 0)):
            raise DataError("labeled rows must carry a class label")
        observed = np.sort(labels[labels >= 0])  # not np.unique: its first call imports numpy.ma
        if observed.size and (observed[0] != 0 or np.any(np.diff(observed) > 1)):
            raise DataError(f"non-contiguous labels {np.unique(observed).tolist()}; classes must be 0..k")
        covariate = self.covariate
        if covariate is not None:
            covariate = np.asarray(covariate, dtype=float)
            if covariate.shape != (n,):
                raise DataError("covariate must be one value per row")
            if not np.all(np.isfinite(covariate)):
                raise DataError("covariate contains non-finite values")
        for arr in (features, labels, sets, covariate):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "set_indicator", sets)
        object.__setattr__(self, "covariate", covariate)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        labels = self.labels[self.labels >= 0]
        return int(labels.max()) + 1 if labels.size else 0

    def labeled_class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero((self.set_indicator == 1) & (self.labels == label))

    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.set_indicator == 0)


@dataclass(frozen=True)
class ScoredDataset:
    """Score values grouped by population: one unlabeled block, one per class, none empty."""

    unlabeled: np.ndarray
    classes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        unlabeled = _as_2d_float(self.unlabeled, "unlabeled scores")
        classes = tuple(_as_2d_float(c, "class scores") for c in self.classes)
        if unlabeled.shape[0] == 0:
            raise EstimationError("no unlabeled rows to quantify")
        for label, block in enumerate(classes):
            if block.shape[0] == 0:
                raise EstimationError(f"class {label} has no labeled rows")
        m = unlabeled.shape[1]
        if any(c.shape[1] != m for c in classes):
            raise DataError("all score blocks must share the same dimension")
        if not all(np.isfinite(arr).all() for arr in (unlabeled, *classes)):
            raise DataError("scores contain non-finite values")
        for arr in (unlabeled, *classes):
            arr.setflags(write=False)
        object.__setattr__(self, "unlabeled", unlabeled)
        object.__setattr__(self, "classes", classes)

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled.shape[0]

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(c.shape[0] for c in self.classes)

    @property
    def n_score_dims(self) -> int:
        return self.unlabeled.shape[1]


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for :func:`load_csv`.

    ``score_columns`` marks columns that already hold classifier outputs, so
    no model has to be fitted; they are kept in the feature matrix and can be
    selected with :meth:`ExternalScore.from_names`.  When ``feature_columns``
    is ``None`` every column not claimed by another role is a feature.
    """

    set_column: str
    label_column: str | None = None
    feature_columns: tuple[str, ...] | None = None
    score_columns: tuple[str, ...] = ()
    covariate_column: str | None = None


@dataclass(frozen=True)
class _Layout:
    """The cell index of each column role in a record of ``width`` cells."""

    width: int
    features: tuple[int, ...]
    set: int
    label: int | None
    covariate: int | None

    def parse(self, row: list[str]):
        """The features, label, set indicator and covariate of one record.

        Raises :class:`ValueError` saying what is wrong with the record.  The
        checks run in a fixed order, so a record with several faults is always
        reported by its first.
        """
        if len(row) != self.width:
            raise ValueError(f"expected {self.width} cells, got {len(row)}")
        try:
            features = [float(row[i]) for i in self.features]
        except ValueError:
            raise ValueError("non-numeric feature value") from None
        set_ = _set_code(row[self.set])
        raw_label = row[self.label] if self.label is not None else ""
        if set_ == 1 and not raw_label.strip():
            raise ValueError("labeled row (set indicator 1) has no label")
        label = _label_code(raw_label)
        covariate = None
        if self.covariate is not None:
            try:
                covariate = float(row[self.covariate])
            except ValueError:
                raise ValueError("non-numeric covariate value") from None
        if not all(map(math.isfinite, features)):
            raise ValueError("non-finite feature value")
        if covariate is not None and not math.isfinite(covariate):
            raise ValueError("non-finite covariate value")
        return features, label, set_, covariate


def _set_code(cell: str) -> int:
    """The set indicator of a cell, for both parsers."""
    cell = cell.strip()
    if cell not in ("0", "1"):
        raise ValueError(f"set indicator must be 0 or 1, got {cell!r}")
    return int(cell)


_LABEL_RANGE = range(np.iinfo(int).min, np.iinfo(int).max + 1)


def _label_code(cell: str) -> int:
    """The class label of a cell, for both parsers: -1 (no label) for a blank cell."""
    cell = cell.strip()
    if not cell:
        return -1
    try:
        label = int(cell)
    except ValueError:
        raise ValueError(f"non-integer label {cell!r}") from None
    if label not in _LABEL_RANGE:
        raise ValueError(f"label {cell!r} out of range")
    return label


def _resolve_schema(path: str, header_line: int, fieldnames: list[str], schema: CsvSchema):
    """The feature column names and the :class:`_Layout` of ``schema`` over the header ``fieldnames``."""
    seen = set()
    for column in fieldnames:
        if column in seen:
            raise DataError(f"{path}:{header_line}: duplicate column {column!r}")
        seen.add(column)

    claimed = {schema.set_column}
    for column in (schema.set_column, schema.label_column, schema.covariate_column):
        if column is not None and column not in fieldnames:
            raise DataError(f"{path}: column {column!r} not found")
    if schema.label_column:
        claimed.add(schema.label_column)
    if schema.covariate_column:
        claimed.add(schema.covariate_column)

    if schema.feature_columns is None:
        feature_names = [c for c in fieldnames if c not in claimed]
    else:
        feature_names = list(schema.feature_columns)
    for column in schema.score_columns:
        if column not in feature_names:
            feature_names.append(column)
    for column in feature_names:
        if column not in fieldnames:
            raise DataError(f"{path}: column {column!r} not found")
    if not feature_names:
        raise DataError(f"{path}: no feature columns left after applying the schema")

    index = {column: i for i, column in enumerate(fieldnames)}
    layout = _Layout(
        width=len(fieldnames),
        features=tuple(index[c] for c in feature_names),
        set=index[schema.set_column],
        label=index[schema.label_column] if schema.label_column else None,
        covariate=index[schema.covariate_column] if schema.covariate_column else None,
    )
    return feature_names, layout


def _parsed_header(path: str, data: bytes, schema: CsvSchema):
    """The header's cells, its last line, and :func:`_resolve_schema` over them;
    ``None`` when the header is missing or does not resolve."""
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        fieldnames = next(reader, None)
        if fieldnames is None:
            return None
        return (fieldnames, reader.line_num, *_resolve_schema(path, reader.line_num, fieldnames, schema))
    except (ValueError, csv.Error, DataError):
        return None


# float() refuses these around a number; numpy's parser strips them as whitespace.
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _numpy_reads_like_csv(data: bytes) -> bool:
    """Whether no byte of ``data`` can make numpy accept a cell that the exact path refuses.

    Such a byte is one of 0x1c-0x1f, or one in a run of bytes without a comma
    longer than :func:`csv.field_size_limit`: every cell numpy accepts is free of
    commas, so it fits in such a run, and ``csv.reader`` refuses a longer cell.
    """
    if any(byte in data for byte in _SEPARATOR_BYTES):
        return False
    limit, last, step = csv.field_size_limit(), -1, 1 << 20  # last: offset of the latest comma
    for offset in range(0, len(data), step):  # in steps, so the index arrays stay small
        chunk = np.frombuffer(data, np.uint8, count=min(step, len(data) - offset), offset=offset)
        commas = offset + np.flatnonzero(chunk == ord(","))
        if np.diff(commas, prepend=last).max(initial=1) - 1 > limit:
            return False
        last = int(commas[-1]) if commas.size else last
    return len(data) - 1 - last <= limit


def _fast_columns(data: bytes, header_line: int, feature_names: list[str], layout: _Layout):
    """What :func:`_exact_columns` returns for ``data`` under the resolved header,
    read by :func:`numpy.loadtxt`; ``None`` when the bytes need the exact path instead.

    numpy parses a subset of what ``csv.reader`` and ``float()`` accept and, where
    both accept a cell, gives the same value bit for bit.  So every refusal or
    doubt returns ``None``, and :func:`load_csv` then reads the bytes with the
    exact path, which alone decides what is accepted and what each error says.
    """
    if layout.label is not None and layout.label in (*layout.features, layout.set, layout.covariate):
        return None  # a label cell's integer code is not its float value ('' is -1)
    if not _numpy_reads_like_csv(data):
        return None
    converters = {layout.set: functools.cache(_set_code)}
    if layout.label is not None:
        converters[layout.label] = functools.cache(_label_code)
    try:
        # comments=None: numpy's default drops the text after a '#'.  No usecols:
        # without it numpy refuses a record whose cell count differs from the first's.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file warns "input contained no data"
            table = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), dtype=float,
                               delimiter=",", comments=None, quotechar='"', skiprows=header_line,
                               ndmin=2, converters=converters)
    except (ValueError, UserWarning):
        return None
    if table.shape[1] != layout.width:
        return None
    features = np.ascontiguousarray(table[:, list(layout.features)])  # row-major, as the exact path gives
    sets = table[:, layout.set].astype(int)
    labels = np.full(len(table), -1)
    if layout.label is not None:
        if np.any(np.abs(table[:, layout.label]) >= 2.0**53):
            return None  # a label this large need not have survived the float
        labels = table[:, layout.label].astype(int)
    covariate = None if layout.covariate is None else table[:, layout.covariate].copy()
    if np.any((labels == -1) & (sets == 1)) or not np.all(np.isfinite(features)):
        return None
    if covariate is not None and not np.all(np.isfinite(covariate)):
        return None
    return feature_names, features, labels, sets, covariate


def _exact_columns(path: str, data: bytes, schema: CsvSchema):
    """The feature names, features, labels, set indicators and covariate of the
    records after the header of ``data``, the bytes of ``path``, checked and
    converted one record at a time by :func:`csv.reader` and :meth:`_Layout.parse`.

    The bytes are refused at the first byte that is not UTF-8 before anything
    else is checked.  Every other fault raises :class:`DataError` only after the
    reader has run to the end of the bytes, so a cell longer than
    :func:`csv.field_size_limit` anywhere in the file is reported before a
    schema error or a bad record.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at LF, CR or CRLF, as csv.reader counts them
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})") from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    features, labels, sets, covariate = [], [], [], []
    try:
        fieldnames = next(reader, None)
        if fieldnames is None:
            raise DataError(f"{path}: empty file")
        fault = None
        try:
            feature_names, layout = _resolve_schema(path, reader.line_num, fieldnames, schema)
        except DataError as exc:
            fault = exc
        for row in reader:  # after a fault, the rest of the file is only read
            if fault is not None or not row:  # blank records are skipped
                continue
            try:
                x, label, set_, z = layout.parse(row)
            except ValueError as exc:
                fault = DataError(f"{path}:{reader.line_num}: {exc}")
                continue
            features.extend(x)
            labels.append(label)
            sets.append(set_)
            covariate.append(z)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if fault is not None:
        raise fault
    n = len(sets)
    return (
        feature_names,
        np.array(features, dtype=float).reshape(n, len(layout.features)),
        np.array(labels, dtype=int),
        np.array(sets, dtype=int),
        None if layout.covariate is None else np.array(covariate, dtype=float),
    )


# The parse cache keeps the arrays that load_csv returned, one entry per file
# content and column layout, so that commands run one after another on one file
# parse it once.  Its budget bounds the directory at the parsed arrays of a few
# dozen large files (those of a 100 000 x 9 file take 7.2 MB), while an evicted
# entry costs no more than one parse the next time its file is read.
_CACHE_BUDGET = 256 << 20
# Below a mebibyte a parse takes under 60 ms of CPU.  There a first load would
# pay 5-15 ms more (importing hashlib, hashing, writing the entry) and a hit
# still takes 8-10 ms, so caching saves little on repeated loads and costs
# every file that is read once.
_CACHE_MIN_BYTES = 1 << 20
_CACHE_MAGIC = b"quantify parse cache 1\n"
_ENTRY_SUFFIX = ".entry"  # temporary files end in ".tmp" and are never evicted


def _cache_dir() -> str | None:
    """``$XDG_CACHE_HOME/quantify``, or ``~/.cache/quantify`` when that variable is
    unset or not an absolute path; ``None`` when there is no home to fall back on."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "quantify") if os.path.isabs(base) else None


def _private(stat: os.stat_result) -> bool:
    """Whether the file or directory that ``stat`` describes belongs to this user
    and no one else may write to it: only such a cache can be trusted."""
    return stat.st_uid == os.geteuid() and not stat.st_mode & 0o022


@functools.cache
def _source_digest() -> bytes:
    """SHA-256 of this module's source: editing the parser invalidates every entry."""
    import hashlib

    with open(__file__, "rb") as handle:
        return hashlib.sha256(handle.read()).digest()


def _cache_entry(data: bytes, fieldnames: list[str], layout: _Layout) -> tuple[str, bytes] | None:
    """The path of the cache entry for ``data`` under this header and layout, and
    the key that the entry starts with; ``None`` when there is no cache directory.

    The key is a SHA-256 of the bytes and of everything else the parse depends
    on: the header's cells, the layout, the field size limit, and the numpy,
    Python and parser versions.
    """
    directory = _cache_dir()
    if directory is None:
        return None
    import hashlib

    try:
        source = _source_digest()
    except OSError:
        return None
    depends = (fieldnames, layout, csv.field_size_limit(), np.__version__, sys.version, source)
    key = hashlib.sha256(hashlib.sha256(data).digest() + repr(depends).encode()).digest()
    return os.path.join(directory, key.hex() + _ENTRY_SUFFIX), key


def _cache_load(path: str, key: bytes, layout: _Layout):
    """The features, labels, set indicators and covariate stored at ``path``, or
    ``None``: a fault in an entry, or a directory or entry that another user can
    have written, is a miss and never an error."""
    arrays = 3 + (layout.covariate is not None)
    try:
        if not _private(os.stat(os.path.dirname(path))):
            return None
        with open(path, "rb") as handle:
            if not _private(os.fstat(handle.fileno())):
                return None
            if handle.read(len(_CACHE_MAGIC) + len(key)) != _CACHE_MAGIC + key:
                return None
            columns = [np.lib.format.read_array(handle, allow_pickle=False) for _ in range(arrays)]
            if handle.read(1):
                return None
    except Exception:  # a truncated, foreign or vanished entry: whatever a reader raises, parse instead
        return None
    n = columns[0].shape[0] if columns[0].ndim == 2 else -1
    wanted = [(float, (n, len(layout.features))), (int, (n,)), (int, (n,)), (float, (n,))]
    for arr, (dtype, shape) in zip(columns, wanted):
        if arr.dtype != np.dtype(dtype) or arr.shape != shape or not arr.flags.c_contiguous:
            return None
    with contextlib.suppress(OSError):
        os.utime(path)  # eviction goes by last use
    return columns if layout.covariate is not None else [*columns, None]


def _cache_store(path: str, key: bytes, dataset: RawDataset) -> None:
    """Write ``dataset``'s arrays to the entry at ``path``, then evict down to the budget."""
    columns = [arr for arr in (dataset.features, dataset.labels, dataset.set_indicator, dataset.covariate)
               if arr is not None]
    if sum(arr.nbytes for arr in columns) > _CACHE_BUDGET:
        return
    directory = os.path.dirname(path)
    temp = os.path.join(directory, f".{os.getpid()}-{os.urandom(8).hex()}.tmp")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not _private(os.stat(directory)):
            return
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_CACHE_MAGIC + key)
            for arr in columns:
                np.lib.format.write_array(handle, arr, allow_pickle=False)
            handle.flush()
            os.fsync(handle.fileno())  # on disk before it has a name that readers trust
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        return
    _evict(directory)


def _evict(directory: str) -> None:
    """Delete the least recently used entries of ``directory`` until the rest fit
    in the budget.  Other files there, such as other writers' temporary files,
    are left alone."""
    entries = []
    try:
        with os.scandir(directory) as scan:
            for entry in scan:
                if entry.name.endswith(_ENTRY_SUFFIX):
                    with contextlib.suppress(OSError):
                        stat = entry.stat()
                        entries.append((stat.st_mtime_ns, stat.st_size, entry.path))
    except OSError:
        return
    total = sum(size for _, size, _ in entries)
    for _, size, path in sorted(entries):
        if total <= _CACHE_BUDGET:
            break
        with contextlib.suppress(OSError):  # another process may have evicted it already
            os.unlink(path)
        total -= size


def load_csv(path: str, schema: CsvSchema, *, cache: bool = False) -> RawDataset:
    """Read a CSV file into a :class:`RawDataset` according to ``schema``.

    The file must be UTF-8, and this is checked first: the line of the first
    byte that is not is named, for files and pipes alike.  The first record is
    the header and blank lines are skipped.  Raises :class:`DataError` for a
    missing or empty file, a column named twice in the header, or an unknown
    schema column.  It also raises, naming ``path:line`` of the first such
    record, for a record whose cell count differs from the header's, a
    non-numeric or non-finite feature or covariate value, a set indicator
    outside {0, 1}, a labeled row without a label, a non-integer label or one
    outside the 64-bit range, and a cell longer than
    :func:`csv.field_size_limit`, which is reported before any other fault but
    a byte that is not UTF-8.  A record that spans lines (a quoted cell holding
    a newline) is reported at its last line.

    The file's bytes are read once, and everything below works on them.  Bytes
    whose every cell, apart from the set and label cells, is a number that
    numpy's C parser reads are read by :func:`numpy.loadtxt`, in under half the
    time and memory.  All other bytes, and all that are refused, are read by
    :func:`csv.reader` and ``float()`` one record at a time: that exact parser
    defines the accepted syntax and every message, and both parsers give the
    same arrays bit for bit.

    With ``cache``, which the command line interface sets, the arrays parsed
    from a file of at least 1 MiB are also kept in ``$XDG_CACHE_HOME/quantify``
    (default ``~/.cache/quantify``), and a later load of the same bytes under
    the same header and columns gets them back bit for bit without a parse.
    A refused file is never cached, and a cache directory or entry that anyone
    but this user can write to is ignored.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = _parsed_header(path, data, schema)
    entry = cached = None
    if header is not None and cache and len(data) >= _CACHE_MIN_BYTES:
        fieldnames, _, feature_names, layout = header
        entry = _cache_entry(data, fieldnames, layout)
        cached = entry and _cache_load(*entry, layout)
    if cached is not None:
        columns = (feature_names, *cached)
    else:
        columns = (header and _fast_columns(data, *header[1:])) or _exact_columns(path, data, schema)
    feature_names, features, labels, sets, covariate = columns
    dataset = RawDataset(
        features=features,
        labels=labels,
        set_indicator=sets,
        covariate=covariate,
        feature_names=tuple(feature_names),
    )
    if entry is not None and cached is None:
        _cache_store(*entry, dataset)
    return dataset


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ScoreFunction:
    """Maps a feature matrix to an ``(n, m)`` block of score values."""

    def scores(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ExternalScore(ScoreFunction):
    """Score columns that were computed outside the package."""

    columns: tuple[int, ...]

    @staticmethod
    def from_names(names: Sequence[str], data: RawDataset) -> "ExternalScore":
        if data.feature_names is None:
            raise DataError("dataset has no column names to resolve score columns against")
        indices = []
        for name in names:
            if name not in data.feature_names:
                raise DataError(f"score column {name!r} not found")
            indices.append(data.feature_names.index(name))
        return ExternalScore(columns=tuple(indices))

    def scores(self, features: np.ndarray) -> np.ndarray:
        features = _as_2d_float(features, "features")
        bad = [c for c in self.columns if c >= features.shape[1]]
        if bad:
            raise DataError(f"score column index {bad[0]} out of range")
        return features[:, list(self.columns)]


@dataclass(frozen=True)
class LogisticScore(ScoreFunction):
    """Posterior class probabilities from one or more logistic fits.

    ``coef`` has one row per score dimension, so a binary fit yields a single
    probability column and a one-vs-rest fit yields one column per class.
    """

    coef: np.ndarray
    intercept: np.ndarray

    def scores(self, features: np.ndarray) -> np.ndarray:
        features = _as_2d_float(features, "features")
        coef = np.atleast_2d(np.asarray(self.coef, dtype=float))
        intercept = np.atleast_1d(np.asarray(self.intercept, dtype=float))
        # a far-out row's predictor overflows to +-inf, whose sigmoid is exactly 1 or 0;
        # a NaN one (inf - inf) is refused by ScoredDataset
        with np.errstate(over="ignore", invalid="ignore"):
            eta = features @ coef.T + intercept
        return _sigmoid(eta)


def score_dataset(data: RawDataset, g: ScoreFunction) -> ScoredDataset:
    """Apply ``g`` to every row and group the results by population and class."""
    k_plus_one = data.n_classes
    if k_plus_one < 2:
        raise EstimationError("need at least two observed classes to quantify")
    all_scores = g.scores(data.features)
    blocks = tuple(all_scores[data.labeled_class_indices(label)] for label in range(k_plus_one))
    return ScoredDataset(unlabeled=all_scores[data.unlabeled_indices()], classes=blocks)


def _logistic_nll(beta: np.ndarray, design: np.ndarray, y: np.ndarray, ridge: float) -> float:
    eta = design @ beta
    softplus = np.logaddexp(0.0, eta)
    return float(np.sum(softplus - y * eta) + 0.5 * ridge * beta @ beta)


_NEWTON_MAX_ITER, _NEWTON_TOL = 100, 1e-6  # Newton step budget; gradient norm at convergence


def _newton_logistic(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the ridge-penalized logistic fit of 0/1 targets ``y`` on ``design``.

    Damped Newton steps with a backtracking line search; the last column of
    ``design`` is the intercept's column of ones.
    """
    if np.all(y == y[0]):
        raise EstimationError("labels are all identical; logistic fit is degenerate")
    ridge = 1e-6
    beta = np.zeros(design.shape[1])
    value = _logistic_nll(beta, design, y, ridge)
    grad_norm = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        p = _sigmoid(design @ beta)
        grad = design.T @ (p - y) + ridge * beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= _NEWTON_TOL:
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        hessian = (design * w[:, None]).T @ design + ridge * np.eye(design.shape[1])
        step = np.linalg.solve(hessian, grad)
        scale = 1.0
        while scale > 2.0**-40:
            candidate = beta - scale * step
            candidate_value = _logistic_nll(candidate, design, y, ridge)
            if candidate_value <= value - 1e-4 * scale * float(grad @ step):
                beta, value = candidate, candidate_value
                break
            scale /= 2.0
        else:
            beta = beta - scale * step
            value = _logistic_nll(beta, design, y, ridge)
    else:
        raise EstimationError(
            f"logistic fit did not converge in {_NEWTON_MAX_ITER} iterations "
            f"(gradient norm {grad_norm:.3e})"
        )
    return beta


def _labeled_design(data: RawDataset) -> tuple[np.ndarray, np.ndarray]:
    """The labeled rows' features with a column of ones appended, and their labels."""
    labeled = np.flatnonzero(data.set_indicator == 1)
    if labeled.size == 0:
        raise EstimationError("no labeled rows to fit on")
    x = data.features[labeled]
    # the Hessian's diagonal sums w x^2 over these rows (w <= 1/4): where the sum of squares
    # overflows, the Newton products overflow with numpy warnings and the fit cannot converge
    with np.errstate(over="ignore"):
        bound = float(np.sum(x * x))
    if not bound < np.inf:
        raise EstimationError("the squared norms of the labeled features overflow in the "
                              "logistic fit; rescale the features")
    return np.hstack([x, np.ones((x.shape[0], 1))]), data.labels[labeled]


def fit_logistic(data: RawDataset) -> LogisticScore:
    """Logistic fits on the labeled rows, one column per target by damped Newton steps:
    P(Y = 1 | x) for two classes, and one-vs-rest P(Y = j | x), j = 0 .. k - 1, for k + 1.

    A small ridge penalty (1e-6) keeps the Hessian invertible on separable
    data.  The fit is deterministic; convergence means the gradient norm of
    the penalized likelihood dropped below ``_NEWTON_TOL`` within ``_NEWTON_MAX_ITER`` steps.
    """
    design, labels = _labeled_design(data)
    if data.n_classes < 2:
        raise EstimationError(f"logistic fit needs at least 2 classes, found {data.n_classes}")
    targets = (1,) if data.n_classes == 2 else range(data.n_classes - 1)
    betas = [_newton_logistic(design, (labels == target).astype(float)) for target in targets]
    return LogisticScore(coef=np.array([beta[:-1] for beta in betas]),
                         intercept=np.array([beta[-1] for beta in betas]))
