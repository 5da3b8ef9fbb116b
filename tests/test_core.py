"""Data model tests: dataset validation, CSV ingestion, score functions."""

import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantify import core
from quantify import (
    CsvSchema,
    DataError,
    EstimationError,
    ExternalScore,
    RawDataset,
    ScoredDataset,
    ScoreFunction,
    fit_logistic,
    fit_logistic_ovr,
    load_csv,
    rng_from,
    score_dataset,
)


# Derandomized, so every run checks the same examples and tier-1 stays deterministic.
EXACTNESS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def reference_load_csv(path: str, schema: CsvSchema) -> RawDataset:
    """A dict per row and a Python loop over the rows: ``load_csv`` must give the same
    arrays bit for bit, and the same message for the first bad row."""
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file")
            fieldnames = list(reader.fieldnames)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

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

    n = len(rows)
    features = np.empty((n, len(feature_names)))
    labels = np.empty(n, dtype=int)
    sets = np.empty(n, dtype=int)
    covariate = np.empty(n) if schema.covariate_column else None
    for i, row in enumerate(rows):
        line = i + 2  # header is line 1
        try:
            features[i] = [float(row[c]) for c in feature_names]
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line}: non-numeric feature value") from exc
        raw_set = (row.get(schema.set_column) or "").strip()
        if raw_set not in ("0", "1"):
            raise DataError(f"{path}:{line}: set indicator must be 0 or 1, got {raw_set!r}")
        sets[i] = int(raw_set)
        raw_label = (row.get(schema.label_column) or "").strip() if schema.label_column else ""
        if raw_label == "":
            if sets[i] == 1:
                raise DataError(f"{path}:{line}: labeled row (set indicator 1) has no label")
            labels[i] = -1
        else:
            try:
                labels[i] = int(raw_label)
            except ValueError as exc:
                raise DataError(f"{path}:{line}: non-integer label {raw_label!r}") from exc
        if covariate is not None:
            try:
                covariate[i] = float(row[schema.covariate_column])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line}: non-numeric covariate value") from exc

    return RawDataset(
        features=features,
        labels=labels,
        set_indicator=sets,
        covariate=covariate,
        feature_names=tuple(feature_names),
    )


NUMBER_CELLS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.3e}"),
    st.integers(-999, 999).map(str),
    st.tuples(st.integers(1, 9), st.integers(0, 99)).map(lambda p: f"{p[0]}_{p[1]}"),
    st.sampled_from(["-0.0", "+1.5", ".5", "1E-3"]),
)
BAD_CELLS = {
    "s": st.sampled_from(["2", "", "x", "-0"]),
    "y": st.sampled_from(["", "x", "1.5", "-1", "2", "1_0"]),
}
BAD_NUMBERS = st.sampled_from(["oops", "", "1.0.0", "1__0", "0x1"])


@st.composite
def decorated(draw, cells, hazards=False):
    """A cell as written: bare, padded, quoted, or quoted across two lines.

    With ``hazards``, also padded with Unicode whitespace, or quoted in ways that
    ``csv.reader`` reads as text around the quotes.
    """
    text = draw(cells)
    styles = ["bare", "bare", "bare", "padded", "quoted", "multiline"]
    style = draw(st.sampled_from(styles + ["unicode", "space-quote", "quote-space"] * hazards))
    if style == "unicode":
        pad = draw(st.sampled_from(UNICODE_SPACES))
        return f"{pad}{text}{pad}"
    return {"bare": text, "padded": f" {text} ", "quoted": f'"{text}"',
            "multiline": f'"{text}\n"', "space-quote": f' "{text}"',
            "quote-space": f'"{text}" '}[style]


# Cells and lines on which numpy's reader and csv.reader + float() may part ways.
UNICODE_SPACES = ["\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
HAZARD_NUMBERS = st.sampled_from(
    ["1e400", "-1e400", "1e-400", "4.9e-324", "0x1p3", "1_0", "inf", "nan", "\u0661", "1d5", "1,5"])
HAZARD_CELLS = {
    "s": st.sampled_from(["1.0", "+1", "01", "0.0", "1e0", "\u0661"]),
    "y": st.sampled_from(["9007199254740992", "9007199254740993", "-9007199254740993",
                          "18446744073709551616", "1.0", "-0", "+1", "\u0661"]),
}
HAZARD_LINES = st.sampled_from([" ", "\t", "\xa0", "#", "# note", "#1,0,1", "\x0c", '""', ","])
TEXT_CELLS = st.sampled_from(["abc", "", "1.5", "#", "n/a"])


@st.composite
def csv_cases(draw, hazards=False):
    """CSV text (unique header names, one cell per header column in every row) and a schema.

    Rows are valid until up to two cells are overwritten with bad values.  With
    ``hazards``, those two cells, the lines between records, one record's cell
    count and the line endings also draw on what numpy's reader may treat
    differently from ``csv.reader``, and a text column ``t`` may appear.
    """
    xs = [f"x{j}" for j in range(1, draw(st.integers(1, 3)) + 1)]
    label, score, covariate = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    text = hazards and draw(st.sampled_from([False, False, True]))
    columns = draw(st.permutations(
        ["s", *xs] + ["y"] * label + ["g"] * score + ["z"] * covariate + ["t"] * text))
    cells = NUMBER_CELLS.filter(lambda cell: "_" not in cell) if hazards else NUMBER_CELLS
    bad_numbers = st.one_of(BAD_NUMBERS, HAZARD_NUMBERS, cells) if hazards else BAD_NUMBERS
    rows = []
    n_rows = st.sampled_from(range(9)) if hazards else st.integers(0, 8)
    for _ in range(draw(n_rows)):
        s = draw(st.sampled_from(["0", "1"] if label else ["0"]))
        classes = ["0", "1", " 1 "] if s == "1" else ["", "", "0", "1"]
        valid = {"s": st.sampled_from([s, f" {s}", f"{s} "]), "y": st.sampled_from(classes),
                 "t": TEXT_CELLS}
        rows.append([draw(decorated(valid.get(c, cells))) for c in columns])
    bad = {c: st.one_of(BAD_CELLS[c], HAZARD_CELLS[c]) if hazards else BAD_CELLS[c] for c in "sy"}
    for _ in range(draw(st.integers(0, 2)) if rows else 0):  # corrupt up to two cells
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(columns) - 1))
        rows[i][j] = draw(decorated(bad.get(columns[j], bad_numbers), hazards))
    if hazards and rows and draw(st.integers(0, 3)) == 0:  # a ragged record or a trailing delimiter
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from([rows[i] + ["0"], rows[i][:-1], rows[i] + [""]]))
    feature_columns = None
    if draw(st.booleans()):
        choices = xs + ["s"] + ["y"] * (hazards and label)
        feature_columns = tuple(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3)))
    schema = CsvSchema(
        set_column="s",
        label_column="y" if label else None,
        feature_columns=feature_columns,
        score_columns=("g",) if score and draw(st.booleans()) else (),
        covariate_column="z" if covariate and draw(st.booleans()) else None,
    )
    end = draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * hazards))
    lines = [",".join(columns), *map(",".join, rows)]
    blanks = draw(st.lists(st.integers(1, len(lines)), max_size=2, unique=True))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, draw(HAZARD_LINES) if hazards and draw(st.booleans()) else "")
    return end.join(lines) + end, schema, bool(blanks)


def decline(*args):
    """Stands in for ``core._fast_columns`` so that ``load_csv`` takes its exact path."""
    return None


def load_outcome(load, path, schema):
    """The dataset, or the message of the :class:`DataError` that refused the file."""
    try:
        return load(path, schema)
    except DataError as exc:
        return str(exc)


def assert_same_outcome_both_ways(path, schema):
    """``load_csv`` gives the dataset or message it gives with its numpy reader switched off."""
    actual = load_outcome(load_csv, path, schema)
    with mock.patch.object(core, "_fast_columns", decline):
        expected = load_outcome(load_csv, path, schema)
    if isinstance(expected, RawDataset):
        assert isinstance(actual, RawDataset), actual
        assert_same_dataset(actual, expected)
    else:
        assert actual == expected


def bits(arr):
    """Everything that can change a later result: BLAS sums in another order over another layout."""
    if arr is None:
        return None
    return arr.dtype, arr.shape, arr.flags.c_contiguous, arr.view(np.int64).tolist()


def assert_same_dataset(actual: RawDataset, expected: RawDataset) -> None:
    assert actual.feature_names == expected.feature_names
    for name in ("features", "labels", "set_indicator", "covariate"):
        assert bits(getattr(actual, name)) == bits(getattr(expected, name)), name


def small_dataset() -> RawDataset:
    """Four labeled rows (two per class) and four unlabeled rows."""
    features = np.array([[0.1], [0.3], [0.7], [0.9], [0.2], [0.8], [0.8], [0.6]])
    labels = np.array([0, 0, 1, 1, -1, -1, -1, -1])
    sets = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    return RawDataset(features=features, labels=labels, set_indicator=sets)


class TestRngFrom:
    """Seed plumbing: same path gives the same stream, paths never collide."""

    def test_reproducible(self):
        a = rng_from(5, 3).standard_normal(10)
        b = rng_from(5, 3).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_paths_are_independent(self):
        """Replicate streams must differ from each other and from the root."""
        draws = {key: tuple(rng_from(0, key).standard_normal(4)) for key in range(20)}
        assert len(set(draws.values())) == 20
        root = tuple(rng_from(0).standard_normal(4))
        assert root not in draws.values()

    def test_distinct_seeds_differ(self):
        a = rng_from(1, 0).standard_normal(8)
        b = rng_from(2, 0).standard_normal(8)
        assert not np.array_equal(a, b)


class TestRawDataset:
    """Construction-time validation and the derived index helpers."""

    def test_one_dimensional_features_become_a_column(self):
        data = RawDataset(features=[1.0, 2.0], labels=[0, 1], set_indicator=[1, 1])
        assert data.features.shape == (2, 1)
        assert data.n_rows == 2 and data.n_features == 1

    def test_partition_property(self):
        """Unlabeled rows plus the per-class groups cover every row exactly once."""
        data = small_dataset()
        pieces = [data.unlabeled_indices()] + [
            data.labeled_class_indices(j) for j in range(data.n_classes)
        ]
        combined = np.sort(np.concatenate(pieces))
        np.testing.assert_array_equal(combined, np.arange(data.n_rows))

    def test_arrays_are_immutable(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.labels[0] = 1

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="agree in length"):
            RawDataset(features=[[1.0], [2.0]], labels=[0], set_indicator=[1, 1])

    def test_non_finite_features(self):
        with pytest.raises(DataError, match="non-finite"):
            RawDataset(features=[[np.nan]], labels=[0], set_indicator=[1])

    def test_bad_set_indicator(self):
        with pytest.raises(DataError, match="0 or 1"):
            RawDataset(features=[[1.0]], labels=[0], set_indicator=[2])

    def test_labeled_row_needs_label(self):
        with pytest.raises(DataError, match="label"):
            RawDataset(features=[[1.0], [2.0]], labels=[0, -1], set_indicator=[1, 1])

    def test_non_contiguous_labels(self):
        with pytest.raises(DataError, match="non-contiguous"):
            RawDataset(features=[[1.0], [2.0]], labels=[0, 2], set_indicator=[1, 1])

    @pytest.mark.parametrize("labels, observed", [
        ([2, 0, 2, 5, -1], [0, 2, 5]), ([1, 1], [1]), ([3, 1, 2], [1, 2, 3]), ([0, 0, 2**62], [0, 2**62]),
    ])
    def test_non_contiguous_labels_are_listed(self, labels, observed):
        with pytest.raises(DataError) as info:
            RawDataset(features=np.zeros((len(labels), 1)), labels=labels, set_indicator=np.zeros(len(labels)))
        assert str(info.value) == f"non-contiguous labels {observed}; classes must be 0..k"

    @pytest.mark.parametrize("labels", [[-1, -1], [0], [1, 0, 1, 2, 0, -1], [0, 1, 1, 1]])
    def test_contiguous_labels_are_accepted(self, labels):
        data = RawDataset(features=np.zeros((len(labels), 1)), labels=labels, set_indicator=np.zeros(len(labels)))
        assert data.n_classes == max(labels) + 1

    def test_covariate_must_match_rows(self):
        with pytest.raises(DataError, match="covariate"):
            RawDataset(
                features=[[1.0], [2.0]],
                labels=[0, 1],
                set_indicator=[1, 1],
                covariate=[0.5],
            )

    def test_unlabeled_rows_may_carry_evaluation_labels(self):
        data = RawDataset(features=[[1.0], [2.0]], labels=[0, 1], set_indicator=[1, 0])
        assert data.unlabeled_indices().tolist() == [1]
        assert data.labels[1] == 1


class TestScoredDataset:
    def test_counts(self):
        scored = ScoredDataset(unlabeled=[0.2, 0.8], classes=([0.1], [0.7, 0.9]))
        assert scored.n_unlabeled == 2
        assert scored.class_counts == (1, 2)
        assert scored.n_score_dims == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="same dimension"):
            ScoredDataset(unlabeled=[[0.2, 0.3]], classes=([0.1], [0.7]))


class TestLoadCsv:
    """CSV ingestion against the documented schema contract."""

    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_four_row_file(self, tmp_path):
        path = self.write(
            tmp_path,
            "x1,x2,y,s\n1.0,2.0,0,1\n3.0,4.0,1,1\n5.0,6.0,,0\n7.0,8.0,,0\n",
        )
        data = load_csv(path, CsvSchema(set_column="s", label_column="y"))
        assert data.n_rows == 4 and data.n_features == 2
        assert data.feature_names == ("x1", "x2")
        np.testing.assert_array_equal(data.labels, [0, 1, -1, -1])
        np.testing.assert_array_equal(data.set_indicator, [1, 1, 0, 0])
        np.testing.assert_allclose(data.features[0], [1.0, 2.0])

    def test_labeled_row_with_empty_label_names_the_row(self, tmp_path):
        path = self.write(tmp_path, "x,y,s\n1.0,0,1\n2.0,,1\n")
        with pytest.raises(DataError, match=r":3:"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_label_gap_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,y,s\n1.0,0,1\n2.0,2,1\n3.0,,0\n")
        with pytest.raises(DataError, match="non-contiguous"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "absent.csv"), CsvSchema(set_column="s"))

    def test_non_numeric_feature_reports_the_row(self, tmp_path):
        path = self.write(tmp_path, "x,y,s\n1.0,0,1\noops,1,1\n")
        with pytest.raises(DataError, match=r":3: non-numeric"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_set_indicator_outside_01(self, tmp_path):
        path = self.write(tmp_path, "x,y,s\n1.0,0,2\n")
        with pytest.raises(DataError, match="set indicator"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_unknown_schema_column(self, tmp_path):
        path = self.write(tmp_path, "x,s\n1.0,1\n")
        with pytest.raises(DataError, match="'y' not found"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_score_and_covariate_columns(self, tmp_path):
        path = self.write(
            tmp_path,
            "x,score,z,y,s\n1.0,0.9,0.1,1,1\n2.0,0.2,0.6,0,1\n3.0,0.5,0.3,,0\n",
        )
        schema = CsvSchema(
            set_column="s",
            label_column="y",
            feature_columns=("x",),
            score_columns=("score",),
            covariate_column="z",
        )
        data = load_csv(path, schema)
        assert data.feature_names == ("x", "score")
        np.testing.assert_allclose(data.covariate, [0.1, 0.6, 0.3])
        g = ExternalScore.from_names(["score"], data)
        np.testing.assert_allclose(g.scores(data.features).ravel(), [0.9, 0.2, 0.5])

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, CsvSchema(set_column="s"))

    def test_blank_line_does_not_shift_the_line_number(self, tmp_path):
        path = self.write(tmp_path, "x,y,s\n1.0,0,1\n\noops,1,1\n")
        with pytest.raises(DataError, match=r"data\.csv:4: non-numeric feature value$"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_quoted_multiline_cell_does_not_shift_the_line_number(self, tmp_path):
        path = self.write(tmp_path, 'x,y,s\n"1.0\n",0,1\noops,1,1\n')
        with pytest.raises(DataError, match=r"data\.csv:4: non-numeric feature value$"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_first_bad_row_in_file_order_is_named(self, tmp_path):
        path = self.write(tmp_path, "x,y,s\n1.0,0,1\n2.0,1,7\n3.0,0,1\noops,1,1\n")
        with pytest.raises(DataError, match=r":3: set indicator must be 0 or 1, got '7'$"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    def test_duplicate_header_name(self, tmp_path):
        path = self.write(tmp_path, "x,y,s,x\n1.0,0,1,2.0\n")
        with pytest.raises(DataError, match=r"data\.csv:1: duplicate column 'x'$"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    @pytest.mark.parametrize("row, count", [("1.0,0,1,9", 4), ("1.0,1", 2)])
    def test_ragged_row(self, tmp_path, row, count):
        path = self.write(tmp_path, f"x,y,s\n2.0,1,1\n{row}\n")
        with pytest.raises(DataError, match=rf"data\.csv:3: expected 3 cells, got {count}$"):
            load_csv(path, CsvSchema(set_column="s", label_column="y"))

    @pytest.mark.parametrize("x, z, role", [("nan", "0.5", "feature"), ("1.0", "-inf", "covariate")])
    def test_non_finite_cell_names_the_row(self, tmp_path, x, z, role):
        path = self.write(tmp_path, f"x,z,y,s\n2.0,0.1,1,1\n{x},{z},0,1\n")
        schema = CsvSchema(set_column="s", label_column="y", covariate_column="z")
        with pytest.raises(DataError, match=rf"data\.csv:3: non-finite {role} value$"):
            load_csv(path, schema)

    def test_single_feature_column(self, tmp_path):
        path = self.write(tmp_path, "s,y,x\n1,0,0.25\n0,,-3e2\n")
        data = load_csv(path, CsvSchema(set_column="s", label_column="y"))
        np.testing.assert_array_equal(data.features, [[0.25], [-300.0]])

    def test_plain_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        def refuse(path, schema):
            raise AssertionError("the exact path ran")

        rng = rng_from(3)
        lines = ["s,y,x1,x2,g,z"]
        for i in range(100):
            s, y = i % 2, (i // 2) % 2
            x1, x2, g, z = rng.normal(size=4).tolist()
            lines.append(f"{s},{y if s else ''},{x1!r},{x2:.6f},{g:.3e},{z!r}")
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        schema = CsvSchema(set_column="s", label_column="y", score_columns=("g",), covariate_column="z")
        expected = reference_load_csv(path, schema)
        monkeypatch.setattr(core, "_exact_columns", refuse)
        assert_same_dataset(load_csv(path, schema), expected)

    def test_exact_path_memory_is_a_few_times_the_file(self, tmp_path, monkeypatch):
        """Records are converted as they are read, so no record's cells outlive it."""
        rng = rng_from(9)
        n = 20_000
        lines = ["s,y,x1,x2,x3,x4,x5,x6,g"]
        for s, y, x, g in zip((rng.random(n) < 0.1).tolist(), rng.integers(0, 2, n).tolist(),
                              rng.normal(size=(n, 6)).tolist(), rng.random(n).tolist()):
            lines.append(",".join([str(int(s)), str(y) if s else "", *(f"{v:.6f}" for v in x), repr(g)]))
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        size = (tmp_path / "data.csv").stat().st_size
        monkeypatch.setattr(core, "_fast_columns", decline)
        tracemalloc.start()
        try:
            data = load_csv(path, CsvSchema(set_column="s", label_column="y", score_columns=("g",)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.features.shape == (n, 7)
        assert peak < 7 * size

    def test_undecodable_byte_is_reported_before_a_long_cell(self, tmp_path):
        """UTF-8 is checked first, even when the byte lies beyond the decoder's first 8 KiB
        and a cell over the field limit comes before it."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"s,x\n0," + b"1" * 40 + b"\n" + b"0,1\n" * 5000 + b"0,\xff\n")
        default = csv.field_size_limit(24)
        try:
            with pytest.raises(DataError, match=r"data\.csv:5003: byte 0xff is not UTF-8 \(invalid start byte\)$"):
                load_csv(str(path), PLAIN)
        finally:
            csv.field_size_limit(default)


class TestLoadCsvMatchesReference:
    """``load_csv`` against the row-by-row reference loader on generated CSV text."""

    @EXACTNESS
    @given(case=csv_cases())
    def test_same_dataset_or_same_message(self, tmp_path_factory, case):
        text, schema, blank_lines = case
        path = str(tmp_path_factory.mktemp("csv") / "data.csv")
        with open(path, "w", newline="") as handle:
            handle.write(text)
        expected = load_outcome(reference_load_csv, path, schema)
        actual = load_outcome(load_csv, path, schema)
        if isinstance(expected, RawDataset):
            assert isinstance(actual, RawDataset), actual
            assert_same_dataset(actual, expected)
        else:
            if blank_lines or "\n\"" in text:  # the reference counts rows, not lines
                expected, actual = (re.sub(r":\d+:", ":", m) for m in (expected, actual))
            assert actual == expected


LABELED, PLAIN = CsvSchema("s", label_column="y"), CsvSchema("s")


class TestLoadCsvFastPath:
    """The numpy reader against the exact path on text built to tell them apart."""

    @EXACTNESS
    @given(case=csv_cases(hazards=True), limit=st.sampled_from([None, None, None, 8, 24]))
    def test_same_dataset_or_same_message(self, tmp_path_factory, case, limit):
        text, schema, _ = case
        path = str(tmp_path_factory.mktemp("csv") / "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        default = csv.field_size_limit()
        try:
            if limit is not None:  # cells longer than the limit: csv.reader refuses them
                csv.field_size_limit(limit)
            assert_same_outcome_both_ways(path, schema)
        finally:
            csv.field_size_limit(default)

    def test_cell_longer_than_the_csv_field_limit(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("s,x\n0,1" + " " * csv.field_size_limit() + "\n0,2\n")
        with pytest.raises(DataError, match=r"data\.csv:2: field larger than field limit \(\d+\)$"):
            load_csv(str(path), PLAIN)

    @pytest.mark.parametrize("before, schema", [("0,oops\n", PLAIN), ("0,1\n", LABELED)])
    def test_cell_longer_than_the_csv_field_limit_is_reported_first(self, tmp_path, before, schema):
        """A bad record, or a schema without the file's columns, comes before the long cell."""
        path = tmp_path / "data.csv"
        path.write_text("s,x\n" + before + "0,1" + " " * csv.field_size_limit() + "\n0,2\n")
        with pytest.raises(DataError, match=r"data\.csv:3: field larger than field limit \(\d+\)$"):
            load_csv(str(path), schema)

    @pytest.mark.parametrize("text, schema", [
        ("s,y,x\n1,0,1\n1,1,2\n0,9007199254740993,3\n", LABELED),
        ("s,y,x\n1,0,1\n1,1,2\n0,-9007199254740993,3\n", LABELED),
        ("s,y,x\n1,0,1\n1,1,2\n0,9007199254740992,3\n", LABELED),
        ("s,x\n0,\x1c1\n", PLAIN),
        ("s,x\n0,1\x1f\n", PLAIN),
        ("s,y\n1,0\n1,1\n0,\n", CsvSchema("s", label_column="y", feature_columns=("y",))),
        ("s,y\n1,-0\n1,1\n", CsvSchema("s", label_column="y", feature_columns=("y",))),
        ("s,y\n1,0\n1,1\n", CsvSchema("s", label_column="y", feature_columns=("y",))),
        ("s,y,x\n1,0,1\n0,1,2\n", CsvSchema("s", label_column="y", covariate_column="y")),
        ("s,x\n1,1\n0,2\n", CsvSchema("s", label_column="s")),
        ("s,y,x\n1,0,1\n1,,2\n", LABELED),
        ("s,y,x\n1,0,nan\n", LABELED),
        ("s,y,x\n1,0,1e400\n", LABELED),
        ("s,x,z\n0,1,-inf\n", CsvSchema("s", covariate_column="z")),
        ("s,x\n0,1\n#\n0,2\n", PLAIN),
        ("s,x\n0,1#\n", PLAIN),
        ("s,x\n0,1\n \n", PLAIN),
        ("s,x\n0,1\n\x0c\n", PLAIN),
        ('s,x\n0,1\n""\n', PLAIN),
        ("s,x\r0,1\r\r0,2\r", PLAIN),
        ("s,x\r\n0,1\r\n", PLAIN),
        ("s,x\n0,\xa01\xa0\n0,\u20032\n", PLAIN),
        ("s,x\n0,1,2\n", PLAIN),
        ("s,x\n0,1\n0\n", PLAIN),
        ("s,x\n0,1,\n", PLAIN),
        ("s,x\n1.0,1\n", PLAIN),
        ("s,x\n +1,1\n", PLAIN),
        ("s,x,t\n0,1,abc\n", CsvSchema("s", feature_columns=("x",))),
        ("s,x\n", PLAIN),
        ("s,x\n0,1_0\n", PLAIN),
        ("s,x\n0,0x1p3\n", PLAIN),
        ('s,x\n0,"1\n"\n0,"2\r\n"\n', PLAIN),
        ('s,x\n0,"1" \n0, "2"\n', PLAIN),
        ("\ufeffs,x\n0,1\n", PLAIN),
        ("s,x\n0,\u0661\n", PLAIN),
    ])
    def test_hand_cases(self, tmp_path, text, schema):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_outcome_both_ways(str(path), schema)


class TestScoreDataset:
    """Grouping by population and class, preserving row order."""

    def test_group_sizes_and_order(self):
        data = small_dataset()
        scored = score_dataset(data, ExternalScore(columns=(0,)))
        assert scored.n_unlabeled == 4
        assert scored.class_counts == (2, 2)
        np.testing.assert_allclose(scored.unlabeled.ravel(), [0.2, 0.8, 0.8, 0.6])
        np.testing.assert_allclose(scored.classes[0].ravel(), [0.1, 0.3])
        np.testing.assert_allclose(scored.classes[1].ravel(), [0.7, 0.9])

    def test_constant_score(self):
        data = small_dataset()

        class Constant(ScoreFunction):
            def scores(self, features):
                return np.full((features.shape[0], 1), 3.5)

        scored = score_dataset(data, Constant())
        for block in (scored.unlabeled, *scored.classes):
            np.testing.assert_allclose(block, 3.5)

    def test_separable_logistic_orders_the_classes(self):
        """On linearly separable data the fitted score splits the classes cleanly."""
        rng = rng_from(3)
        x0 = rng.normal(-2.0, 0.3, 30)
        x1 = rng.normal(2.0, 0.3, 30)
        data = RawDataset(
            features=np.concatenate([x0, x1, rng.normal(0.0, 2.0, 10)]),
            labels=np.concatenate([np.zeros(30, int), np.ones(30, int), -np.ones(10, int)]),
            set_indicator=np.concatenate([np.ones(60, int), np.zeros(10, int)]),
        )
        scored = score_dataset(data, fit_logistic(data))
        assert scored.classes[0].max() < scored.classes[1].min()

    def test_empty_class_group(self):
        data = RawDataset(
            features=[[0.1], [0.7], [0.5]],
            labels=[0, 1, -1],
            set_indicator=[1, 0, 0],
        )
        with pytest.raises(EstimationError, match="class 1 has no labeled rows"):
            score_dataset(data, ExternalScore(columns=(0,)))

    def test_no_unlabeled_rows(self):
        data = RawDataset(features=[[0.1], [0.7]], labels=[0, 1], set_indicator=[1, 1])
        with pytest.raises(EstimationError, match="no unlabeled"):
            score_dataset(data, ExternalScore(columns=(0,)))


class TestFitLogistic:
    """Damped-Newton logistic fit: symmetry, accuracy, determinism."""

    def test_symmetric_data_gives_zero_intercept(self):
        data = RawDataset(
            features=[-1.0, -1.0, 1.0, 1.0],
            labels=[0, 0, 1, 1],
            set_indicator=[1, 1, 1, 1],
        )
        fit = fit_logistic(data)
        assert abs(fit.intercept[0]) < 1e-6
        assert fit.coef[0, 0] > 0

    def test_all_labels_equal(self):
        data = RawDataset(features=[[1.0], [2.0]], labels=[0, 0], set_indicator=[1, 1])
        with pytest.raises(EstimationError, match="2 classes"):
            fit_logistic(data)

    def test_gaussian_blobs_beat_085_heldout(self):
        """Fit on two 2-d Gaussian clouds; compare with a nearest-centroid oracle.

        Train on 500 + 500 points at means +-(1, 1), evaluate on a fresh
        sample from the same laws.  The two decision rules are both linear
        here, so their held-out accuracies should be close.
        """
        rng = rng_from(7)
        mean = np.array([1.0, 1.0])
        train0 = rng.standard_normal((500, 2)) - mean
        train1 = rng.standard_normal((500, 2)) + mean
        test0 = rng.standard_normal((500, 2)) - mean
        test1 = rng.standard_normal((500, 2)) + mean
        data = RawDataset(
            features=np.vstack([train0, train1]),
            labels=np.repeat([0, 1], 500),
            set_indicator=np.ones(1000, int),
        )
        fit = fit_logistic(data)
        test = np.vstack([test0, test1])
        truth = np.repeat([0, 1], 500)
        accuracy = np.mean((fit.scores(test).ravel() > 0.5) == truth)

        c0, c1 = train0.mean(axis=0), train1.mean(axis=0)
        d0 = np.sum((test - c0) ** 2, axis=1)
        d1 = np.sum((test - c1) ** 2, axis=1)
        oracle = np.mean((d1 < d0) == truth)

        assert accuracy > 0.85
        assert oracle > 0.85
        assert abs(accuracy - oracle) < 0.05

    def test_deterministic(self):
        rng = rng_from(12)
        features = rng.standard_normal((40, 3))
        labels = (features[:, 0] + 0.3 * rng.standard_normal(40) > 0).astype(int)
        if labels.min() == labels.max():  # pragma: no cover - seed guard
            labels[0] = 1 - labels[0]
        data = RawDataset(features=features, labels=labels, set_indicator=np.ones(40, int))
        a, b = fit_logistic(data), fit_logistic(data)
        np.testing.assert_array_equal(a.coef, b.coef)
        np.testing.assert_array_equal(a.intercept, b.intercept)

    def test_feature_permutation_permutes_coefficients(self):
        rng = rng_from(21)
        features = rng.standard_normal((60, 3))
        labels = (features @ np.array([1.0, -2.0, 0.5]) > 0).astype(int)
        data = RawDataset(features=features, labels=labels, set_indicator=np.ones(60, int))
        fit = fit_logistic(data)
        perm = [2, 0, 1]
        data_p = RawDataset(
            features=features[:, perm], labels=labels, set_indicator=np.ones(60, int)
        )
        fit_p = fit_logistic(data_p)
        np.testing.assert_allclose(fit_p.coef[0], fit.coef[0, perm], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(fit_p.intercept, fit.intercept, rtol=1e-6, atol=1e-8)

    def test_binary_only(self):
        data = RawDataset(
            features=[[0.0], [1.0], [2.0]], labels=[0, 1, 2], set_indicator=[1, 1, 1]
        )
        with pytest.raises(EstimationError, match="2 classes"):
            fit_logistic(data)

    def test_iteration_budget_reported(self):
        data = RawDataset(
            features=[-1.0, -0.5, 0.5, 1.0],
            labels=[0, 0, 1, 1],
            set_indicator=[1, 1, 1, 1],
        )
        with pytest.raises(EstimationError, match="0 iterations"):
            fit_logistic(data, max_iter=0)

    def test_no_labeled_rows(self):
        data = RawDataset(features=[[1.0]], labels=[-1], set_indicator=[0])
        with pytest.raises(EstimationError, match="no labeled rows"):
            fit_logistic(data)


class TestFitLogisticOvr:
    def test_three_class_shapes(self):
        rng = rng_from(9)
        features = np.vstack(
            [rng.standard_normal((30, 2)) + 3.0 * offset for offset in range(3)]
        )
        data = RawDataset(
            features=features,
            labels=np.repeat([0, 1, 2], 30),
            set_indicator=np.ones(90, int),
        )
        fit = fit_logistic_ovr(data)
        assert fit.coef.shape == (2, 2)
        assert fit.intercept.shape == (2,)
        probs = fit.scores(features)
        assert probs.shape == (90, 2)
        # float64 saturates the sigmoid on well-separated blobs, so the
        # bounds are inclusive
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        truth = np.repeat([0, 1, 2], 30)
        for target in range(2):
            own = probs[truth == target, target].mean()
            rest = probs[truth != target, target].mean()
            assert own > rest

    def test_needs_two_classes(self):
        data = RawDataset(features=[[1.0]], labels=[0], set_indicator=[1])
        with pytest.raises(EstimationError, match="two classes"):
            fit_logistic_ovr(data)


class TestScoreFunctionSerialization:
    """Checks on score functions built from names and column indices."""

    def test_external_column_out_of_range(self):
        g = ExternalScore(columns=(3,))
        with pytest.raises(DataError, match="out of range"):
            g.scores(np.zeros((2, 2)))

    def test_from_names_unknown_column(self):
        data = small_dataset()
        with pytest.raises(DataError, match="no column names"):
            ExternalScore.from_names(["s"], data)
