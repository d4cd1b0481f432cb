import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcast import dataset as ds
from setcast.errors import DataFormatError

from conftest import FIVE_DAY_EXPECTED_FEATURES, FIVE_DAY_EXPECTED_LABELS, raw_csv_text


# ---------------------------------------------------------------- percent_change
def test_percent_change_values():
    assert ds.percent_change(100, 101) == 1.0
    assert ds.percent_change(200, 200) == 0.0
    assert ds.percent_change(1000, 993) == pytest.approx(-0.7)


def test_percent_change_rejects_nonpositive_prev():
    with pytest.raises(DataFormatError):
        ds.percent_change(0, 10)
    with pytest.raises(DataFormatError):
        ds.percent_change(-5, 10)


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_percent_change_identity(p):
    assert ds.percent_change(p, p) == 0.0


@given(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=0, max_value=1e6),
)
def test_percent_change_antisymmetric(p, d):
    # p + d and p - d each round once, so the symmetry is exact only up to
    # that rounding of the inputs
    assert ds.percent_change(p, p + d) == pytest.approx(
        -ds.percent_change(p, p - d), rel=1e-9, abs=1e-9
    )


# --------------------------------------------------------------- label_direction
def test_label_direction():
    assert ds.label_direction(700, 705) == ds.UP
    assert ds.label_direction(705, 700) == ds.DOWN
    assert ds.label_direction(700, 700) == ds.DOWN  # tie rule


def test_label_direction_rejects_nonpositive():
    with pytest.raises(DataFormatError):
        ds.label_direction(0, 5)
    with pytest.raises(DataFormatError):
        ds.label_direction(5, -1)


# ------------------------------------------------------------------ load_samples
def test_load_fixture(market_data):
    assert len(market_data) == 30
    counts = market_data.class_counts()
    assert counts == {ds.UP: 16, ds.DOWN: 14}
    np.testing.assert_allclose(
        market_data.features[0], [0.6994, 0.2069, -0.3765, 0.1532, -1.1050, -0.4680]
    )
    assert market_data.labels[0] == ds.UP


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
        "1,2,3,4,5,6,up\n1,2,3,4,5,6,Down\n"
    )
    assert ds.load_samples(path).labels == (ds.UP, ds.DOWN)


def test_load_samples_missing_file(tmp_path):
    with pytest.raises(OSError):
        ds.load_samples(tmp_path / "nope.csv")


def test_save_load_round_trip(market_data, tmp_path):
    path = tmp_path / "resaved.csv"
    ds.save_samples(market_data, path)
    again = ds.load_samples(path)
    np.testing.assert_array_equal(market_data.features, again.features)
    assert market_data.labels == again.labels


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
    assert table.labels == (ds.UP,)  # day-3 close 16 > open 15


def test_five_day_series_matches_hand_computation(five_day_csv):
    table = ds.build_training_table(ds.load_raw_series(five_day_csv))
    assert len(table) == 3
    np.testing.assert_allclose(
        table.features, FIVE_DAY_EXPECTED_FEATURES, rtol=1e-12, atol=1e-12
    )
    assert table.labels == FIVE_DAY_EXPECTED_LABELS


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
    assert table.labels == (ds.DOWN,)


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
        labels = np.array(market_data.labels, dtype=object)
        for f in range(10):
            test = folds.test_indices(f)
            assert len(test) == 3
            up_count = int((labels[test] == ds.UP).sum())
            assert up_count in (1, 2)


def test_leave_one_out(market_data):
    folds = ds.stratified_folds(market_data, len(market_data), 0)
    sizes = [len(folds.test_indices(f)) for f in range(len(market_data))]
    assert sizes == [1] * len(market_data)


def test_fold_count_bounds(market_data):
    with pytest.raises(DataFormatError):
        ds.stratified_folds(market_data, 1, 0)
    with pytest.raises(DataFormatError):
        ds.stratified_folds(market_data, 31, 0)


@st.composite
def labelled_and_k(draw):
    labels = draw(
        st.lists(st.sampled_from([ds.UP, ds.DOWN]), min_size=2, max_size=40).filter(
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
    arr = np.array(labels, dtype=object)
    for c in (ds.UP, ds.DOWN):
        per_fold = np.bincount(folds.assignment[arr == c], minlength=k)
        assert per_fold.max() - per_fold.min() <= 1


def test_folds_partition(market_data):
    folds = ds.stratified_folds(market_data, 7, 3)
    seen = np.concatenate([folds.test_indices(f) for f in range(7)])
    assert sorted(seen) == list(range(30))
    for f in range(7):
        train = set(folds.train_indices(f))
        test = set(folds.test_indices(f))
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(expected)} columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            token = row[-1].strip().upper()
            if token not in ds.CLASS_LABELS:
                raise DataFormatError(f"{path}:{lineno}: unknown label {row[-1]!r}")
            labels.append(token)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")
    return ds.Dataset(np.array(rows), tuple(labels))


def _reference_load_raw_series(path):
    expected = ["DATE"] + list(ds.RAW_COLUMNS)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise DataFormatError(f"{path}: expected header {','.join(expected)}")
        dates = []
        values = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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
        for x, label in zip(dataset.features, dataset.labels):
            writer.writerow([format(v, ".10g") for v in x] + [label])


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
        rows.append([ds.percent_change(prev2[c], prev1[c]) for c in feature_cols])
        labels.append(ds.label_direction(today[col["SET_OPEN"]], today[col["SET_CLOSE"]]))
    return ds.Dataset(np.array(rows), tuple(labels))


def _reference_stratified_folds(dataset, k, seed):
    rng = np.random.default_rng(seed)
    labels = np.array(dataset.labels, dtype=object)
    assignment = np.empty(len(dataset), dtype=int)
    pointer = 0
    for c in dataset.class_labels:
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
        return result.features, result.labels
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


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_reader_matches_row_by_row_reference(tmp_path_factory, case):
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
    ("samples", _S + "\n1,2,3,4,5,6,UP\x00\n"),
    ("samples", _S + "\n\u0661,2,3,4,5,6,UP\n"),  # a non-ASCII digit, as float() reads it
    ("samples", _S),
    ("samples", ""),
    ("features", _F),
    ("features", ""),
    ("features", _F + "\n1,2,nan,4,5,6\n"),
    ("features+label", _F + ",SET_DIRECTION\n1,2,3,4,5,6,garbage\n1,2,3,4,5,6,\"U,P\"\n"),
])
def test_reader_matches_reference_on_edge_files(tmp_path, kind, text):
    _assert_reads_as_reference(kind, text, tmp_path / "data.csv")


def test_plain_files_are_read_by_columns(five_day_csv, market_data, tmp_path, monkeypatch):
    samples = tmp_path / "samples.csv"
    ds.save_samples(market_data, samples)
    samples.write_bytes(samples.read_bytes().replace(b"\n", b"\r\n"))

    def refuse(*args):
        raise AssertionError("fell back to the row reader")

    monkeypatch.setattr(ds, "_read_rows", refuse)
    assert ds.load_samples(samples).labels == market_data.labels
    assert _read_features(samples).tobytes() == market_data.features.tobytes()
    assert ds.load_raw_series(five_day_csv).dates[0] == "2010-01-04"


def test_decode_error_is_data_format_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n1,2,3,4,5,6,\xe9\n")
    with pytest.raises(DataFormatError, match="utf-8"):
        ds.load_samples(path)


def test_cell_beyond_csv_field_limit_is_data_format_error(tmp_path):
    path = tmp_path / "wide.csv"
    cell = '"' + "1" * (csv.field_size_limit() + 1) + '"'
    path.write_text(f"{_S}\n1,2,3,4,5,6,UP\n1,2,3,4,5,6,{cell}\n")
    with pytest.raises(DataFormatError, match=f"{path}:3: field larger than field limit"):
        ds.load_samples(path)


def test_save_samples_matches_csv_writer(market_data, tmp_path):
    rng = np.random.default_rng(4)
    odd = ds.Dataset(np.vstack([rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-320, 300, size=(5, 6)),
                                [[-0.0, 0.0, 1e-310, 123456789012.0, 1 / 3, -2.5e-7]]]),
                     (ds.UP, ds.DOWN) * 3)
    for data in (market_data, odd):
        ds.save_samples(data, tmp_path / "new.csv")
        _reference_save_samples(data, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_training_table_matches_per_day_loop(data):
    n = data.draw(st.integers(0, 12))
    price = st.one_of(st.floats(min_value=1e-3, max_value=1e6),
                      st.sampled_from([0.0, -1.0, np.nan]))
    values = np.array([[data.draw(price) for _ in ds.RAW_COLUMNS] for _ in range(n)])
    series = ds.RawSeries(tuple(f"d{t}" for t in range(n)), values.reshape(n, len(ds.RAW_COLUMNS)))
    got, want = (_outcome(build, series)
                 for build in (ds.build_training_table, _reference_build_training_table))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].features.tobytes() == want[1].features.tobytes()
        assert got[1].labels == want[1].labels


@settings(max_examples=60, deadline=None)
@given(labelled_and_k())
def test_folds_match_per_sample_deal(case):
    labels, k, seed = case
    data = ds.Dataset(np.zeros((len(labels), 1)), tuple(labels), ("x",))
    np.testing.assert_array_equal(ds.stratified_folds(data, k, seed).assignment,
                                  _reference_stratified_folds(data, k, seed))
