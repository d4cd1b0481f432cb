import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setcast import dataset as ds
from setcast.errors import DataFormatError

from conftest import FIVE_DAY_EXPECTED_FEATURES, FIVE_DAY_EXPECTED_Y, raw_csv_text


def _series(*days):
    """A RawSeries of consecutive dates, one row of the seven raw prices per day."""
    values = np.array(days, dtype=float).reshape(len(days), len(ds.RAW_COLUMNS))
    dates = np.datetime64("2010-01-04") + np.arange(len(days))
    return ds.RawSeries(tuple(map(str, dates)), values)


def _nk_change(prev, curr):
    """The NK feature build_training_table derives from two NK prices."""
    series = _series([prev] + [1] * 6, [curr] + [1] * 6, [1] * 7)
    return ds.build_training_table(series).features[0, 0]


# ---------------------------------------------------------------- percent_change
def test_percent_change_values():
    # NK 100 -> 101, HS 200 -> 200, SET_CLOSE 1000 -> 993
    table = ds.build_training_table(_series([100, 200, 1000, 1, 1, 1, 1],
                                            [101, 200, 993, 1, 1, 1, 1], [1] * 7))
    assert table.features[0, 0] == 1.0
    assert table.features[0, 1] == 0.0
    assert table.features[0, 2] == pytest.approx(-0.7)


def test_percent_change_rejects_nonpositive_prev():
    with pytest.raises(DataFormatError, match="previous price must be positive, got 0.0"):
        _nk_change(0, 10)
    with pytest.raises(DataFormatError, match="previous price must be positive, got -5.0"):
        _nk_change(-5, 10)


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_percent_change_identity(p):
    assert (ds.build_training_table(_series(*[[p] * 7] * 3)).features == 0.0).all()


@given(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=0, max_value=1e6),
)
def test_percent_change_antisymmetric(p, d):
    # p + d and p - d each round once, so the symmetry is exact only up to
    # that rounding of the inputs
    assert _nk_change(p, p + d) == pytest.approx(
        -_nk_change(p, p - d), rel=1e-9, abs=1e-9
    )


# --------------------------------------------------------------- label_direction
def test_label_direction():
    # SET_OPEN, SET_CLOSE of days 3-5: 700 -> 705, 705 -> 700, 700 -> 700
    days = [[1, 1, close, open_, 1, 1, 1]
            for open_, close in ((1, 1), (1, 1), (700, 705), (705, 700), (700, 700))]
    y = ds.build_training_table(_series(*days)).y
    assert [ds.CLASS_LABELS[c] for c in y] == [ds.UP, ds.DOWN, ds.DOWN]  # tie rule


def test_label_direction_rejects_nonpositive():
    with pytest.raises(DataFormatError, match="prices must be positive"):
        ds.build_training_table(_series([1] * 7, [1] * 7, [1, 1, 5, 0, 1, 1, 1]))
    with pytest.raises(DataFormatError, match="prices must be positive"):
        ds.build_training_table(_series([1] * 7, [1] * 7, [1, 1, -1, 5, 1, 1, 1]))


# ------------------------------------------------------------------ load_samples
def test_load_fixture(market_data):
    assert len(market_data) == 30
    counts = market_data.class_counts()
    assert counts.tolist() == [16, 14]  # UP, DOWN
    np.testing.assert_allclose(
        market_data.features[0], [0.6994, 0.2069, -0.3765, 0.1532, -1.1050, -0.4680]
    )
    assert ds.CLASS_LABELS[market_data.y[0]] == ds.UP


def test_load_samples_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n")
    with pytest.raises(DataFormatError, match="empty dataset"):
        ds.load_samples(path)


def test_load_samples_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("A,B\n1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        ds.load_samples(path)


def test_load_samples_row_errors_mention_line(tmp_path):
    path = tmp_path / "bad.csv"
    head = "NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n"
    path.write_text(head + "1,2,3,4,5,6,UP\n1,2,x,4,5,6,DOWN\n")
    with pytest.raises(DataFormatError, match=":3"):
        ds.load_samples(path)
    path.write_text(head + "1,2,3,4,5,6,SIDEWAYS\n")
    with pytest.raises(DataFormatError, match="unknown label"):
        ds.load_samples(path)
    path.write_text(head + "1,2,3,4,5,UP\n")
    with pytest.raises(DataFormatError, match="columns"):
        ds.load_samples(path)


def test_load_samples_case_insensitive_labels(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n"
        "1,2,3,4,5,6,up\n1,2,3,4,5,6,Down\n1,2,3,4,5,6, up\n"
    )
    data = ds.load_samples(path)
    assert data.y.dtype == np.int8
    assert data.y.tolist() == [0, 1, 0]  # UP, DOWN, UP
    ds.save_samples(data, tmp_path / "again.csv")
    lines = (tmp_path / "again.csv").read_text().splitlines()
    assert [line.rpartition(",")[2] for line in lines[1:]] == [ds.UP, ds.DOWN, ds.UP]


@pytest.mark.parametrize("y", [
    [0, 1],  # one row short
    [0, 1, 0, 1],  # one row long
    [[0, 1, 0]],  # not one-dimensional
    [0.0, 1.0, 0.5],  # not integers
    [ds.UP, ds.DOWN, ds.UP],  # class names, not indices
    [True, False, True],
    [0, 2, 1],  # outside {0, 1}
    [0, -1, 1],
    [0, 300, 1],  # beyond int8
])
def test_dataset_rejects_bad_class_indices(y):
    with pytest.raises(DataFormatError):
        ds.Dataset(np.zeros((3, 1)), y, ("x",))


@pytest.mark.parametrize("shape, names, message", [
    # the six default names on two columns would send naive Bayes past the last
    ((6, 2), ds.ATTRIBUTE_NAMES, "6 attribute names for 2 feature columns"),
    # two names on six columns would leave four columns of a naive Bayes fit unset
    ((6, 6), ("a", "b"), "2 attribute names for 6 feature columns"),
    # seven names on six columns would make save_samples write a header that
    # load_samples rejects
    ((6, 6), ds.ATTRIBUTE_NAMES + ("EXTRA",), "7 attribute names for 6 feature columns"),
    ((0, 6), ("x",), "1 attribute names for 6 feature columns"),
])
def test_dataset_needs_one_attribute_name_per_column(shape, names, message):
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        ds.Dataset(np.zeros(shape), [0, 0, 0, 1, 1, 1][:shape[0]], names)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_dataset_rejects_a_non_finite_feature(value):
    features = np.zeros((3, 2))
    features[1, 0] = value
    with pytest.raises(DataFormatError, match="^all feature values must be finite$"):
        ds.Dataset(features, [0, 1, 0], ("a", "b"))


@pytest.mark.parametrize("features, y", [
    ([[1j] * 6], [0]),  # complex
    ([[1] * 6, [1] * 5], [0, 1]),  # ragged rows
    ([["a"] * 6], [0]),  # not a number
], ids=["complex", "ragged", "string"])
def test_dataset_rejects_features_that_are_not_a_real_array(features, y):
    with pytest.raises(DataFormatError, match="^features and y must be numeric arrays: "):
        ds.Dataset(features, y)


def test_dataset_holds_class_indices_as_int8():
    data = ds.Dataset(np.zeros((3, 1)), np.array([1, 0, 1], dtype=np.int64), ("x",))
    assert data.y.dtype == np.int8 and data.y.tolist() == [1, 0, 1]
    assert data.class_counts().tolist() == [1, 2]
    assert data.subset([True, False, True]).y.tolist() == [1, 1]


def test_subset_selects_the_rows_of_a_boolean_mask(market_data):
    mask = np.zeros(len(market_data), dtype=bool)
    mask[5:8] = True
    part = market_data.subset(mask)
    np.testing.assert_array_equal(part.features, market_data.features[5:8])
    np.testing.assert_array_equal(part.y, market_data.y[5:8])


@given(st.lists(st.booleans(), min_size=30, max_size=30))
def test_subset_by_mask_equals_indexing_by_it(market_data, mask):
    mask = np.array(mask)
    part = market_data.subset(mask)
    assert part.features.tobytes() == market_data.features[mask].tobytes()
    assert part.y.tobytes() == market_data.y[mask].tobytes()
    assert part.attribute_names == market_data.attribute_names


@pytest.mark.parametrize("rows", [[2, 0], np.flatnonzero(np.arange(30) % 3 == 0), [],
                                  [0.7, 1.2], ["0"], [None], np.ones(29, dtype=bool),
                                  np.ones(31, dtype=bool)],
                         ids=["indices", "mask-indices", "empty", "floats", "strings", "none",
                              "mask-29", "mask-31"])
def test_subset_refuses_anything_but_a_mask_of_its_rows(market_data, rows):
    with pytest.raises(DataFormatError, match=r"^rows must be a boolean mask of 30 rows, got "):
        market_data.subset(rows)


def test_subset_of_an_all_false_mask_selects_no_rows(market_data):
    part = market_data.subset(np.zeros(len(market_data), dtype=bool))
    assert part.features.shape == (0, 6) and part.y.shape == (0,)


def test_replace_copies_a_record_whose_len_counts_rows(market_data):
    doubled = market_data._replace(features=market_data.features * 2)
    assert type(doubled) is ds.Dataset and len(doubled) == len(market_data) == 30
    np.testing.assert_array_equal(doubled.features, market_data.features * 2)
    series = _series([1] * 7, [2] * 7, [3] * 7, [4] * 7)
    shifted = series._replace(values=series.values + 1)
    assert type(shifted) is ds.RawSeries and len(shifted) == 4
    assert shifted.dates == series.dates and shifted.values[3, 0] == 5


def test_load_samples_missing_file(tmp_path):
    with pytest.raises(OSError):
        ds.load_samples(tmp_path / "nope.csv")


def test_save_load_round_trip(market_data, tmp_path):
    path = tmp_path / "resaved.csv"
    ds.save_samples(market_data, path)
    again = ds.load_samples(path)
    np.testing.assert_array_equal(market_data.features, again.features)
    np.testing.assert_array_equal(market_data.y, again.y)


def test_save_samples_near_float_max(tmp_path):
    path = tmp_path / "large.csv"
    data = ds.Dataset([[1.797693134e308, -1.797693134e308, 0, 0, 0, 0]], [0])
    ds.save_samples(data, path)
    np.testing.assert_array_equal(ds.load_samples(path).features, data.features)
    # ten significant digits round 1.7976931348e308 up to 1.797693135e+308 = inf
    data = ds.Dataset(np.vstack([data.features, [0, 0, 0, 0, 0, -1.7976931348e308]]),
                      [0, 1])
    with pytest.raises(DataFormatError, match="sample 2: a feature value is too large"):
        ds.save_samples(data, tmp_path / "beyond.csv")
    assert not (tmp_path / "beyond.csv").exists()


# ---------------------------------------------------------- build_training_table
def test_three_day_doubling_series():
    rows = [
        ("2010-01-04", "1", "2", "4", "3", "8", "16", "32"),
        ("2010-01-05", "2", "4", "8", "7", "16", "32", "64"),
        ("2010-01-06", "4", "8", "16", "15", "32", "64", "128"),
    ]
    series = ds.RawSeries(
        tuple(r[0] for r in rows),
        np.array([[float(v) for v in r[1:]] for r in rows]),
    )
    table = ds.build_training_table(series)
    assert len(table) == 1
    np.testing.assert_allclose(table.features[0], [100.0] * 6)
    assert table.y.tolist() == [0]  # UP: day-3 close 16 > open 15


def test_five_day_series_matches_hand_computation(five_day_csv):
    table = ds.build_training_table(ds.load_raw_series(five_day_csv))
    assert len(table) == 3
    np.testing.assert_allclose(
        table.features, FIVE_DAY_EXPECTED_FEATURES, rtol=1e-12, atol=1e-12
    )
    assert table.y.tolist() == FIVE_DAY_EXPECTED_Y


def test_missing_day_is_skipped(tmp_path):
    # Day 2 lacks a GOLD price; the chain then pairs day 1 with day 3.
    rows = [
        ("2010-01-04", "100", "100", "100", "110", "100", "100", "100"),
        ("2010-01-05", "110", "100", "100", "110", "100", "100", ""),
        ("2010-01-06", "121", "100", "100", "110", "100", "100", "100"),
        ("2010-01-07", "133.1", "100", "100", "110", "100", "100", "100"),
    ]
    path = tmp_path / "gap.csv"
    path.write_text(raw_csv_text(rows), encoding="utf-8")
    table = ds.build_training_table(ds.load_raw_series(path))
    assert len(table) == 1
    # NK change measured day 1 -> day 3 because day 2 dropped out
    assert table.features[0][0] == pytest.approx(21.0)
    assert table.y.tolist() == [1]  # DOWN


def test_too_few_complete_days(tmp_path):
    rows = [
        ("2010-01-04", "1", "1", "1", "1", "1", "1", "1"),
        ("2010-01-05", "1", "1", "1", "1", "1", "1", "1"),
    ]
    path = tmp_path / "short.csv"
    path.write_text(raw_csv_text(rows), encoding="utf-8")
    with pytest.raises(DataFormatError, match="at least 3"):
        ds.build_training_table(ds.load_raw_series(path))


# --------------------------------------------------------------- stratified_folds
def test_fixture_folds_balanced(market_data):
    for seed in range(5):
        folds = ds.stratified_folds(market_data, 10, seed)
        for f in range(10):
            test = np.flatnonzero(folds.assignment == f)
            assert len(test) == 3
            up_count = int((market_data.y[test] == 0).sum())
            assert up_count in (1, 2)


def test_leave_one_out(market_data):
    folds = ds.stratified_folds(market_data, len(market_data), 0)
    sizes = [len(np.flatnonzero(folds.assignment == f)) for f in range(len(market_data))]
    assert sizes == [1] * len(market_data)


def test_fold_count_bounds(market_data):
    with pytest.raises(DataFormatError):
        ds.stratified_folds(market_data, 1, 0)
    with pytest.raises(DataFormatError):
        ds.stratified_folds(market_data, 31, 0)
    # a float k used to pass here and break FoldAssignment.digest; None and
    # "3" raised a bare TypeError
    for k in (2.0, None, "3", 1j):
        with pytest.raises(DataFormatError, match=rf"^fold count must be an int >= 2, got {k!r}$"):
            ds.stratified_folds(market_data, k, 1)
    for seed in (-1, 1.0, None, True):
        with pytest.raises(DataFormatError, match="seed must be a non-negative integer"):
            ds.stratified_folds(market_data, 10, seed)


@pytest.mark.parametrize("k", [2.0, np.float64(3.0), True, "3", None, 1, 0, -2])
def test_fold_assignment_requires_an_int_fold_count_of_two_or_more(k):
    with pytest.raises(DataFormatError, match=r"^fold count must be an int >= 2, got "):
        ds.FoldAssignment(k, np.array([0, 1, 0, 1]))


def test_numpy_integer_fold_count_is_an_int(market_data):
    folds = ds.stratified_folds(market_data, np.int64(3), 1)
    assert type(folds.k) is int
    assert folds.digest() == ds.stratified_folds(market_data, 3, 1).digest()


FOLD_INDICES = r"^fold indices must be a 1-D array of integers in \[0, 3\)$"


@pytest.mark.parametrize("index", [3, 7, -1, 1.0])
def test_fold_assignment_requires_indices_in_range(index, market_data):
    # an index outside [0, k) held its row out of every test fold and put it
    # in every training set, so cross_validate reported 29 of 30 rows
    assignment = ds.stratified_folds(market_data, 3, 1).assignment.tolist()
    assignment[4] = index
    with pytest.raises(DataFormatError, match=FOLD_INDICES):
        ds.FoldAssignment(3, np.array(assignment))


def test_fold_assignment_is_one_dimensional(market_data):
    # a column of indices raised IndexError in every fold trainer
    assignment = ds.stratified_folds(market_data, 3, 1).assignment
    with pytest.raises(DataFormatError, match=FOLD_INDICES):
        ds.FoldAssignment(3, assignment[:, None])


@st.composite
def labelled_and_k(draw):
    labels = draw(
        st.lists(st.sampled_from([0, 1]), min_size=2, max_size=40).filter(
            lambda ls: len(set(ls)) == 2
        )
    )
    k = draw(st.integers(min_value=2, max_value=len(labels)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return labels, k, seed


@settings(max_examples=60, deadline=None)
@given(labelled_and_k())
def test_fold_invariants(case):
    labels, k, seed = case
    data = ds.Dataset(
        np.zeros((len(labels), 1)), tuple(labels), ("x",)
    )
    folds = ds.stratified_folds(data, k, seed)
    again = ds.stratified_folds(data, k, seed)
    np.testing.assert_array_equal(folds.assignment, again.assignment)
    assert folds.digest() == again.digest()

    sizes = np.bincount(folds.assignment, minlength=k)
    assert sizes.sum() == len(labels)
    assert sizes.max() - sizes.min() <= 1
    arr = np.array(labels)
    for c in (0, 1):
        per_fold = np.bincount(folds.assignment[arr == c], minlength=k)
        assert per_fold.max() - per_fold.min() <= 1


def test_folds_partition(market_data):
    folds = ds.stratified_folds(market_data, 7, 3)
    seen = np.concatenate([np.flatnonzero(folds.assignment == f) for f in range(7)])
    assert sorted(seen) == list(range(30))
    for f in range(7):
        train = set(np.flatnonzero(folds.assignment != f))
        test = set(np.flatnonzero(folds.assignment == f))
        assert not train & test
        assert train | test == set(range(30))


# ------------------------------------------------ reference (row-by-row readers)
# The three readers as they were before they merged into one column-wise
# reader: csv.reader cells through float(), checked row by row.  The merged
# reader must return the same arrays bit for bit, or raise the same message.
def _reference_load_samples(path):
    expected = list(ds.ATTRIBUTE_NAMES) + [ds.LABEL_COLUMN]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise DataFormatError(f"{path}: expected header {','.join(expected)}")
        rows = []
        labels = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # the line on which the record ends
            if len(row) != len(expected):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(expected)} columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            token = row[-1].strip().upper()
            if token not in ds.CLASS_LABELS:
                raise DataFormatError(f"{path}:{lineno}: unknown label {row[-1]!r}")
            labels.append(token)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")
    return ds.Dataset(np.array(rows), [ds.CLASS_LABELS.index(c) for c in labels])


def _reference_load_raw_series(path):
    expected = ["DATE"] + list(ds.RAW_COLUMNS)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise DataFormatError(f"{path}: expected header {','.join(expected)}")
        dates = []
        values = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # the line on which the record ends
            if len(row) != len(expected):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(expected)} columns, got {len(row)}"
                )
            dates.append(row[0].strip())
            parsed = []
            for cell in row[1:]:
                cell = cell.strip()
                if not cell:
                    parsed.append(np.nan)
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            values.append(parsed)
    return ds.RawSeries(tuple(dates), np.array(values, dtype=float).reshape(len(dates), len(ds.RAW_COLUMNS)))


def _reference_load_sample_matrix(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: missing header")
        header = [h.strip() for h in header]
        if header not in (list(ds.ATTRIBUTE_NAMES),
                          list(ds.ATTRIBUTE_NAMES) + [ds.LABEL_COLUMN]):
            raise DataFormatError(f"{path}: unrecognized sample header")
        width = len(ds.ATTRIBUTE_NAMES)
        rows = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # the line on which the record ends
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: {len(row)} values, header has {len(header)}"
                )
            try:
                values = [float(v) for v in row[:width]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _reference_save_samples(dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.attribute_names) + [ds.LABEL_COLUMN])
        for x, label in zip(dataset.features, [ds.CLASS_LABELS[c] for c in dataset.y]):
            writer.writerow([format(v, ".10g") for v in x] + [label])


def _percent_change(prev, curr):
    """Day-over-day percentage change 100 * (curr - prev) / prev."""
    if prev <= 0:
        raise DataFormatError(f"previous price must be positive, got {prev}")
    return 100.0 * (curr - prev) / prev


def _label_direction(open_price, close_price):
    """UP when the close exceeds the open, DOWN otherwise (tie counts as DOWN)."""
    if open_price <= 0 or close_price <= 0:
        raise DataFormatError("prices must be positive")
    return ds.UP if close_price > open_price else ds.DOWN


def _reference_build_training_table(series):
    keep = np.flatnonzero(np.isfinite(series.values).all(axis=1))
    if len(keep) < 3:
        raise DataFormatError("need at least 3 complete days to build samples")
    vals = series.values[keep]
    col = {name: i for i, name in enumerate(ds.RAW_COLUMNS)}
    feature_cols = [col[c] for c in ("NK", "HS", "SET_CLOSE", "USDTHB", "SP500", "GOLD")]
    rows = []
    labels = []
    for t in range(2, len(vals)):
        prev2, prev1, today = vals[t - 2], vals[t - 1], vals[t]
        rows.append([_percent_change(prev2[c], prev1[c]) for c in feature_cols])
        labels.append(_label_direction(today[col["SET_OPEN"]], today[col["SET_CLOSE"]]))
    return ds.Dataset(np.array(rows), [ds.CLASS_LABELS.index(c) for c in labels])


def _reference_stratified_folds(dataset, k, seed):
    rng = np.random.default_rng(seed)
    labels = np.array([ds.CLASS_LABELS[c] for c in dataset.y], dtype=object)
    assignment = np.empty(len(dataset), dtype=int)
    pointer = 0
    for c in ds.CLASS_LABELS:
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for i in idx:
            assignment[i] = pointer % k
            pointer += 1
    return assignment


def _outcome(read, path):
    """("ok", result) or ("error", message) of one reader call."""
    try:
        return "ok", read(path)
    except DataFormatError as exc:
        return "error", str(exc)


def _arrays_of(result):
    if isinstance(result, ds.Dataset):
        return result.features, result.y.tolist()
    if isinstance(result, ds.RawSeries):
        return result.values, result.dates
    return result, ()


def _read_features(path):
    return ds.read_csv(path, ds.FEATURES)[0]


READERS = {
    "samples": (ds.load_samples, _reference_load_samples,
                ds.ATTRIBUTE_NAMES + (ds.LABEL_COLUMN,)),
    "raw": (ds.load_raw_series, _reference_load_raw_series, ("DATE",) + ds.RAW_COLUMNS),
    "features": (_read_features, _reference_load_sample_matrix, ds.ATTRIBUTE_NAMES),
    "features+label": (_read_features, _reference_load_sample_matrix,
                       ds.ATTRIBUTE_NAMES + (ds.LABEL_COLUMN,)),
}
PLAIN_NUMBER = st.builds(
    lambda v, spec: spec % v,
    st.floats(min_value=-1e6, max_value=1e6) | st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["%.10g", "%.17g", "%r", "%.4f", "%e"]),
)
ODD_NUMBER = st.sampled_from([
    "", " ", "nan", "-nan", "NaN", "inf", "-Infinity", "1e400", "1_0", "1__0", '"1.5"',
    '"1,5"', "x", "1e", "--1", "0x10", "+.5", "5.", "1 2", "#1", "١",
])
PAD = st.sampled_from(["", "", " ", "  ", "\t"])
LABEL = st.sampled_from(["UP", "DOWN", "up", "Down", " UP ", "dOwN\t", "SIDEWAYS", "", '"UP"'])
DATE = st.sampled_from(["2010-01-04", " 2010-01-05 ", "", "d", '"2010-01-06"'])


@st.composite
def csv_files(draw):
    """A sample, raw-series or feature file: usually plain, sometimes with
    padded, quoted, underscored, blank or non-finite cells, lower-case or
    unknown labels, wrong column counts, CRLF endings and blank lines."""
    kind = draw(st.sampled_from(sorted(READERS)))
    header = list(READERS[kind][2])
    odd = draw(st.booleans())

    def rare(unusual, usual, odds=20):  # one draw in ``odds``, in odd files only
        return draw(unusual if odd and draw(st.integers(1, odds)) == 1 else usual)

    if odd and draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, len(header) - 1))] = draw(
            st.sampled_from(["", " NK ", '"NK"', "nk", "X"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        row = [rare(PAD, st.just("")) + rare(ODD_NUMBER, PLAIN_NUMBER) + rare(PAD, st.just(""))
               for _ in range(len(header) - (kind != "features"))]
        if kind in ("samples", "features+label"):
            row.append(rare(LABEL, st.sampled_from(["UP", "DOWN", "up"]), odds=4))
        elif kind == "raw":
            row.insert(0, rare(DATE, st.just("2010-01-04"), odds=4))
        if odd and draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
        if odd and draw(st.integers(0, 9)) == 0:
            lines.append("")
    ends = ["\n", "\r\n"] if odd else ["\n"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return kind, text


def _assert_reads_as_reference(kind, text, path):
    path.write_bytes(text.encode("utf-8"))
    read, reference = READERS[kind][:2]
    got, want = _outcome(read, path), _outcome(reference, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    (values, keys), (ref_values, ref_keys) = _arrays_of(got[1]), _arrays_of(want[1])
    assert values.shape == ref_values.shape
    assert values.tobytes() == ref_values.tobytes()
    assert keys == ref_keys


#: Reader block sizes under test: one line per block, a few lines per block,
#: and the default, under which these small files are one block.
BLOCKS = [1, 40, ds.BLOCK_CHARS]


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_reader_matches_row_by_row_reference(tmp_path_factory, block, case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ds, "BLOCK_CHARS", block)
        _assert_reads_as_reference(*case, tmp_path_factory.mktemp("csv") / "data.csv")


_S = ",".join(READERS["samples"][2])
_R = ",".join(READERS["raw"][2])
_F = ",".join(READERS["features"][2])


@pytest.mark.parametrize("kind, text", [
    ("raw", _R + '\n"2010-01-04",1,2,3,4,5,6,7\n'),  # a quoted date
    ("raw", _R + "\n2010-01-04,1, ,3,4,5,6,7\n"),  # a whitespace-only cell is missing
    ("raw", _R + "\n2010-01-04,1, x ,3,4,5,6,7\n"),  # the message shows the stripped cell
    ("raw", _R + "\nd,,,,4,5,6,\nd,1,2,3,4,5,6,7"),  # adjacent and trailing blanks
    ("raw", _R + "\nd,-nan,2,3,4,5,6,7\nd,nan,inf,-inf,4,5,6,7\n"),  # NaN sign bits
    ("samples", _S + "\r\n1,2,3,4,5,6,up\r\n\r\n1,2,3,4,5,6, Down \r\n"),
    ("samples", _S + "\r1,2,3,4,5,6,UP\r"),  # lone carriage returns
    ("samples", _S + '\n"1.5",2,3,4,5,6,"UP"\n'),
    ("samples", _S + "\n1_0,2,3,4,5,6,UP\n"),
    ("samples", _S + "\n1\t,\t2,3,4,5,6,UP\n"),
    ("samples", " NK , HS ,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n1,2,3,4,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,SIDEWAYS\n1,x,3,4,5,6,UP\n"),  # first bad row wins
    ("samples", _S + "\n1,x,3,4,5,6,UP\n1,2\n"),
    ("samples", _S + "\n1,2,nan,4,5,6,UP\n"),
    # a quoted cell from line 2 to line 3: the bad row is reported at line 5
    ("samples", _S + '\n"1.5\n",2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,x,3,4,5,6,UP\n'),
    ("samples", _S + "\n1,2,3,4,5,6,UP\x00\n"),
    ("samples", _S + "\n\u0661,2,3,4,5,6,UP\n"),  # a non-ASCII digit, as float() reads it
    ("samples", _S),
    ("samples", ""),
    ("features", _F),
    ("features", ""),
    ("features", _F + "\n1,2,nan,4,5,6\n"),
    ("features+label", _F + ",SET_DIRECTION\n1,2,3,4,5,6,garbage\n1,2,3,4,5,6,\"U,P\"\n"),
    # each oddity below first shows after two plain rows, so in a later block
    # than the first whenever a block holds fewer than three rows
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n\"1.5\",2,3,4,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3,4,5,6,UP\r1,2,3,4,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3\r,4,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3,4,5\x00,6,UP\n"),
    ("samples", "NK\r,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n1,2,3,4,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3,4,5,6,SIDEWAYS\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3,4,5,6,UP,7\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3,inf,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,2,3,x,5,6,UP\n"),
    ("samples", _S + "\n1,2,3,4,5,6,UP\n\n\n\n1,2,3,4,5,6,DOWN\n"),  # blank-only blocks
    ("raw", _R + "\nd,1,2,3,4,5,6,7\nd,1,2,3,4,5,6,7\nd,,,3,4,5,6,\nd,1,2\n"),
    ("raw", _R + "\r\nd,1,2,3,4,5,6,7\r\nd,1,2,3,4,5,6,7\r\nd,1,2,3,4,5,6,\r\n"),
    ("features", _F + "\n1,2,3,4,5,6\n1,2,3,4,5,6\n1,2,3,4,nan,6\n"),
    ("features+label", _F + ",SET_DIRECTION\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,\n1,2,3,4,5,6\n"),
])
@pytest.mark.parametrize("block", BLOCKS)
def test_reader_matches_reference_on_edge_files(tmp_path, monkeypatch, block, kind, text):
    monkeypatch.setattr(ds, "BLOCK_CHARS", block)
    _assert_reads_as_reference(kind, text, tmp_path / "data.csv")


def test_row_reader_names_the_physical_line(tmp_path):
    # the quoted cell spans lines 2 and 3, so the bad row is the fourth
    # record but sits on line 5
    path = tmp_path / "data.csv"
    path.write_text(_S + '\n"1.5\n",2,3,4,5,6,UP\n1,2,3,4,5,6,DOWN\n1,x,3,4,5,6,UP\n')
    with pytest.raises(DataFormatError) as exc:
        ds.load_samples(path)
    assert str(exc.value) == f"{path}:5: could not convert string to float: 'x'"


@pytest.mark.parametrize("block", BLOCKS)
def test_plain_files_are_read_by_columns(five_day_csv, market_data, tmp_path, monkeypatch,
                                         block):
    monkeypatch.setattr(ds, "BLOCK_CHARS", block)
    samples = tmp_path / "samples.csv"
    ds.save_samples(market_data, samples)
    samples.write_bytes(samples.read_bytes().replace(b"\n", b"\r\n"))

    def refuse(*args):
        raise AssertionError("fell back to the row reader")

    gappy = tmp_path / "gappy.csv"  # blank cells, the last one unterminated
    gappy.write_text(_R + "\n2010-01-04,1,,,4,5,6,\n2010-01-05,,2,3,4,5,6,")

    monkeypatch.setattr(ds, "_read_rows", refuse)
    assert ds.load_samples(samples).y.tolist() == market_data.y.tolist()
    assert _read_features(samples).tobytes() == market_data.features.tobytes()
    assert ds.load_raw_series(five_day_csv).dates[0] == "2010-01-04"
    np.testing.assert_array_equal(ds.load_raw_series(gappy).values,
                                  [[1, np.nan, np.nan, 4, 5, 6, np.nan],
                                   [np.nan, 2, 3, 4, 5, 6, np.nan]])


@pytest.mark.parametrize("block", [1, ds.BLOCK_CHARS])
@pytest.mark.parametrize("kind, bad_row, pad", [
    ("samples", "", 0),  # in the first block
    ("samples", "", 2),  # past the first block and TextIOWrapper's first 8 KiB chunk
    ("samples", '"1",2,3,4,5,6,UP\n', 2),  # a quoted row before it: read row by row
    ("samples", "1,2\n", 2),  # a short row before it: the row reader's error loses
    ("raw", "2010-01-04,1,2\n", 2),
])
def test_decode_error_is_data_format_error(tmp_path, monkeypatch, block, kind, bad_row, pad):
    """An undecodable byte raises read_text's message, whose byte position
    counts from the start of the file, wherever the byte is."""
    read, _, header = READERS[kind]
    good = "2010-01-04,1,2,3,4,5,6,7\n" if kind == "raw" else "1,2,3,4,5,6,UP\n"
    head = ",".join(header) + "\n" + bad_row + good * (pad * ds.BLOCK_CHARS // len(good))
    path = tmp_path / "data.csv"
    path.write_bytes(head.encode() + b"1,2,3,4,5,6,\xe9\n" + good.encode() * 3)
    monkeypatch.setattr(ds, "BLOCK_CHARS", block)
    with pytest.raises(DataFormatError) as want:
        ds.read_text(path)
    assert "utf-8" in str(want.value)
    assert f"position {len(head) + len('1,2,3,4,5,6,')}" in str(want.value)
    with pytest.raises(DataFormatError) as got:
        read(path)
    assert str(got.value) == str(want.value)


def test_cell_beyond_csv_field_limit_is_data_format_error(tmp_path):
    path = tmp_path / "wide.csv"
    cell = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    path.write_text(f"{_S}\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,{cell}\n")
    with pytest.raises(DataFormatError, match=f"{path}:3: field larger than field limit"):
        ds.load_samples(path)


@pytest.mark.parametrize("rows", [1, 4, ds.BLOCK_ROWS])
def test_save_samples_matches_csv_writer(market_data, tmp_path, monkeypatch, rows):
    monkeypatch.setattr(ds, "BLOCK_ROWS", rows)
    rng = np.random.default_rng(4)
    odd = ds.Dataset(np.vstack([rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-320, 300, size=(5, 6)),
                                [[-0.0, 0.0, 1e-310, 123456789012.0, 1 / 3, -2.5e-7]]]),
                     [0, 1] * 3)
    for data in (market_data, odd):
        ds.save_samples(data, tmp_path / "new.csv")
        _reference_save_samples(data, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _traced_peak(call, *args):
    """The tracemalloc peak, in bytes, of one ``call(*args)``, and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_ingest_memory_is_bounded_by_a_block(tmp_path):
    """Reading a ~10k-day raw series holds under 3x the file (the whole-text
    reader held ~5.8x), building its samples under 2.5x (one copy of the
    feature prices beside the result; three copies held ~3.1x), and writing
    them holds less than the file it writes: neither keeps the whole text
    nor one Python object per cell."""
    rng = np.random.default_rng(3)
    days = 10_000
    prices = 100.0 * np.exp(np.cumsum(rng.standard_normal((days, 7)) * 0.01, axis=0))
    dates = np.datetime64("1990-01-01") + np.arange(days)
    lines = [",".join(("DATE",) + ds.RAW_COLUMNS)]
    for date, row, missing in zip(dates, prices, rng.random(days) < 0.01):
        cells = [f"{v:.4f}" for v in row]
        lines.append(",".join([str(date)] + (cells[:-1] + [""] if missing else cells)))
    raw, out = tmp_path / "raw.csv", tmp_path / "samples.csv"
    raw.write_text("\n".join(lines) + "\n")
    ds.load_raw_series(raw)  # first calls import and cache what they need
    ds.save_samples(ds.build_training_table(ds.load_raw_series(raw)), out)

    peak, series = _traced_peak(ds.load_raw_series, raw)
    assert len(series) == days
    assert peak < 3 * raw.stat().st_size, (peak, raw.stat().st_size)
    peak, table = _traced_peak(ds.build_training_table, series)
    assert peak < 2.5 * raw.stat().st_size, (peak, raw.stat().st_size)
    peak, _ = _traced_peak(ds.save_samples, table, out)
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


def test_row_reader_memory_is_bounded_by_a_block(tmp_path):
    """A ~0.8 MB sample file that only the row reader reads, for one quoted
    cell, holds under 2x the file (one list of floats per row held ~4.3x)
    and reads as the same file without the quotes."""
    rng = np.random.default_rng(5)
    data = ds.Dataset(rng.normal(0.0, 1.5, size=(9_000, 6)), rng.integers(0, 2, 9_000))
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    ds.save_samples(data, plain)
    header, first, rest = plain.read_text().split("\n", 2)
    cell, tail = first.split(",", 1)
    quoted.write_text(f'{header}\n"{cell}",{tail}\n{rest}')
    ds.load_samples(quoted)  # first calls import and cache what they need

    peak, got = _traced_peak(ds.load_samples, quoted)
    assert peak < 2 * quoted.stat().st_size, (peak, quoted.stat().st_size)
    want = ds.load_samples(plain)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.y.tobytes() == want.y.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_training_table_matches_per_day_loop(data):
    n = data.draw(st.integers(0, 12))
    price = st.one_of(st.floats(min_value=1e-3, max_value=1e6),
                      st.sampled_from([0.0, -1.0, np.nan]))
    values = np.array([[data.draw(price) for _ in ds.RAW_COLUMNS] for _ in range(n)])
    dates = np.datetime64("2010-01-04") + np.arange(n)
    series = ds.RawSeries(tuple(map(str, dates)), values.reshape(n, len(ds.RAW_COLUMNS)))
    got, want = (_outcome(build, series)
                 for build in (ds.build_training_table, _reference_build_training_table))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].features.tobytes() == want[1].features.tobytes()
        assert got[1].y.tobytes() == want[1].y.tobytes()


@st.composite
def folds_case(draw):
    """Labels of random size, class balance and order, a fold count, and a
    seed from a range wider than PCG64's 128-bit state."""
    n = draw(st.integers(min_value=2, max_value=2000))
    n_up = draw(st.integers(min_value=1, max_value=n - 1))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n)
    labels = tuple(np.where(order < n_up, 0, 1).tolist())  # UP, DOWN
    return labels, draw(st.integers(min_value=2, max_value=n)), draw(st.integers(0, 2**130 - 1))


_MIXED = tuple(np.where(np.random.default_rng(3).random(3000) < 0.4, 0, 1).tolist())


@settings(max_examples=60, deadline=None)
@given(folds_case())
@example((_MIXED, 10, 0))
@example((_MIXED, 10, 2**32 - 1))
@example((_MIXED, 300, 2**32))
@example((_MIXED, 10, 2**64 + 5))
@example((_MIXED, 7, 2**128 + 17))
@example((_MIXED, 3000, 2**200 + 3))
def test_folds_match_per_sample_deal(case):
    """stratified_folds' own PCG64 stream shuffles as NumPy's default_rng."""
    labels, k, seed = case
    data = ds.Dataset(np.zeros((len(labels), 1)), tuple(labels), ("x",))
    np.testing.assert_array_equal(ds.stratified_folds(data, k, seed).assignment,
                                  _reference_stratified_folds(data, k, seed))
