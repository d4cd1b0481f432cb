"""Market data plumbing: labeled samples, the percent-change feature pipeline,
deterministic stratified fold assignment, and the strict readers of every
setcast file (the CSV formats and ``key = value`` model files).

A labeled sample holds the daily percentage changes of six market series
(Nikkei, Hang Seng, SET, USD/THB, S&P 500, gold) plus the next day's SET
direction.  Raw price series can be converted into such samples with
:func:`build_training_table`.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

UP = "UP"
DOWN = "DOWN"
#: Fixed class order; also the row/column order of every confusion matrix.
CLASS_LABELS = (UP, DOWN)

#: Attribute order of the labeled-sample CSV format.
ATTRIBUTE_NAMES = ("NK", "HS", "SET", "USDTHB", "SP500", "GOLD")
LABEL_COLUMN = "SET_DIRECTION"

#: Column order of the raw-series CSV format.
RAW_COLUMNS = ("NK", "HS", "SET_CLOSE", "SET_OPEN", "USDTHB", "SP500", "GOLD")


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of labeled samples.

    ``features`` has shape (n, d); ``labels`` is a length-n tuple of class
    names drawn from ``class_labels``.
    """

    features: np.ndarray
    labels: tuple
    attribute_names: tuple = ATTRIBUTE_NAMES
    class_labels: tuple = CLASS_LABELS

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        if self.features.ndim != 2 or len(self.labels) != self.features.shape[0]:
            raise DataFormatError("features must be (n, d) with one label per row")
        if not np.isfinite(self.features).all():
            raise DataFormatError("all feature values must be finite")
        unknown = set(self.labels) - set(self.class_labels)
        if unknown:
            raise DataFormatError(f"labels outside class_labels: {sorted(unknown)}")

    def __len__(self):
        return self.features.shape[0]

    def class_counts(self):
        """Per-class sample counts, in class_labels order."""
        return {c: self.labels.count(c) for c in self.class_labels}

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        labels = self.labels
        return Dataset(
            self.features[idx],
            tuple([labels[i] for i in idx.tolist()]),
            self.attribute_names,
            self.class_labels,
        )


@dataclass(frozen=True)
class RawSeries:
    """Daily price rows for the seven raw columns; NaN marks a missing value."""

    dates: tuple
    values: np.ndarray  # shape (n, len(RAW_COLUMNS))

    def __len__(self):
        return len(self.dates)


@dataclass(frozen=True)
class FoldAssignment:
    """Per-sample fold indices for k-fold cross-validation."""

    k: int
    assignment: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)

    def digest(self) -> str:
        """Short stable fingerprint, for asserting two runs shared one split."""
        import hashlib

        raw = np.asarray(self.assignment, dtype=np.int64).tobytes()
        return hashlib.sha256(raw + bytes([self.k])).hexdigest()[:12]


def percent_change(prev: float, curr: float) -> float:
    """Day-over-day percentage change 100 * (curr - prev) / prev."""
    if prev <= 0:
        raise DataFormatError(f"previous price must be positive, got {prev}")
    return 100.0 * (curr - prev) / prev


def label_direction(open_price: float, close_price: float) -> str:
    """UP when the close exceeds the open, DOWN otherwise (tie counts as DOWN)."""
    if open_price <= 0 or close_price <= 0:
        raise DataFormatError("prices must be positive")
    return UP if close_price > open_price else DOWN


@dataclass(frozen=True)
class CsvFormat:
    """A CSV layout for :func:`read_csv`: the accepted headers, where the
    float and text columns sit, and the messages its violations raise.

    ``key`` names the text column returned beside the floats: "label" (the
    last column, UP or DOWN in any letter case), "date" (the first) or "".
    """

    headers: tuple  # accepted headers, each a tuple of column names
    first: int  # index of the first float column
    width: int  # number of float columns
    key: str
    bad_header: str
    bad_width: str  # formatted with got= and want=
    no_header: str = ""  # for a file without a header line; default bad_header
    blank_nan: bool = False  # a blank float cell reads as NaN
    finite: bool = False  # a non-finite float fails its row


_SAMPLE_HEADER = ATTRIBUTE_NAMES + (LABEL_COLUMN,)
_RAW_HEADER = ("DATE",) + RAW_COLUMNS
#: Labeled samples: six features and an UP/DOWN label per row.
SAMPLES = CsvFormat((_SAMPLE_HEADER,), 0, 6, "label", f"expected header {','.join(_SAMPLE_HEADER)}",
                    "expected {want} columns, got {got}")
#: Raw daily prices: a date and seven prices per row, blank when missing.
RAW = CsvFormat((_RAW_HEADER,), 1, 7, "date", f"expected header {','.join(_RAW_HEADER)}",
                "expected {want} columns, got {got}", blank_nan=True)
#: Samples to predict: six finite features and an optional label column,
#: which is not read.
FEATURES = CsvFormat((ATTRIBUTE_NAMES, _SAMPLE_HEADER), 0, 6, "", "unrecognized sample header",
                     "{got} values, header has {want}", "missing header", finite=True)


def read_text(path, newline=None) -> str:
    """A whole UTF-8 text file; undecodable bytes raise DataFormatError."""
    with open(path, newline=newline, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from None


def read_csv(path, fmt: CsvFormat):
    """The float block (n, fmt.width) and the text column (a tuple, empty
    without one) of a CSV file in format ``fmt``.

    The accepted syntax is that of ``csv.reader`` cells converted by
    ``float()``.  A file without quotes or lone carriage returns is parsed
    column-wise by NumPy's C text parser; a file that parser rejects, or that
    fails any check, is read again row by row, which raises DataFormatError
    naming the first bad line.  Both paths return the same values.
    """
    text = read_text(path, newline="")
    parsed = _read_columns(text, fmt)
    return parsed if parsed is not None else _read_rows(path, text, fmt)


def _token(cell: str, fmt: CsvFormat):
    """A text cell as read_csv returns it, or None for an unknown label."""
    if fmt.key == "date":
        return cell.strip()
    token = cell.strip().upper()
    return token if token in CLASS_LABELS else None


def _read_columns(text, fmt):
    """read_csv by columns, or None where only the row reader can decide."""
    text = text.replace("\r\n", "\n")
    header, _, body = text.partition("\n")
    header = tuple(h.strip() for h in header.split(","))
    if fmt.blank_nan:  # twice for runs of blanks; float("nan") is np.nan, bit for bit
        body = (body + "\n").replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
    lines = [line for line in body.split("\n") if line]
    cells = [line.rpartition(",")[2] if fmt.key == "label" else line.partition(",")[0]
             for line in lines] if fmt.key else []
    tokens = {cell: _token(cell, fmt) for cell in set(cells)}
    if ('"' in text or "\r" in text or "\0" in text or header not in fmt.headers
            or None in tokens.values()
            or [line.count(",") for line in lines].count(len(header) - 1) != len(lines)):
        return None
    if not lines:
        return np.empty((0, fmt.width)), ()
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            usecols=range(fmt.first, fmt.first + fmt.width))
    except ValueError:
        return None
    if fmt.finite and not np.isfinite(values).all():
        return None
    return values, tuple(map(tokens.__getitem__, cells))


def _read_rows(path, text, fmt):
    """read_csv row by row, checking each row in file order."""
    import csv

    def checked(reader):
        try:
            yield from reader
        except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None

    reader = checked(csv.reader(io.StringIO(text, newline="")))
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: {fmt.no_header or fmt.bad_header}")
    header = tuple(h.strip() for h in header)
    if header not in fmt.headers:
        raise DataFormatError(f"{path}: {fmt.bad_header}")
    rows, keys = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: " + fmt.bad_width.format(got=len(row), want=len(header))
            )
        try:
            rows.append([float(cell.strip() or "nan") if fmt.blank_nan else float(cell)
                         for cell in row[fmt.first:fmt.first + fmt.width]])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if fmt.finite and not all(map(math.isfinite, rows[-1])):
            raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
        if fmt.key:
            keys.append(_token(row[-1 if fmt.key == "label" else 0], fmt))
            if keys[-1] is None:
                raise DataFormatError(f"{path}:{lineno}: unknown label {row[-1]!r}")
    return np.array(rows, dtype=float).reshape(len(rows), fmt.width), tuple(keys)


class KeyValueFile:
    """The ``key = value`` lines of a model file, read strictly: each key is
    taken once, and a missing or duplicate key, a malformed or non-finite
    value, or a key left untaken raises DataFormatError.

    A model file opens with ``model = <kind>`` and ``format = <FORMAT>``;
    a file of any other format is rejected, not converted.
    """

    FORMAT = "1"

    @staticmethod
    def header(model: str) -> list:
        """The first two lines of a ``model`` file: its kind and its format."""
        return [f"model = {model}", f"format = {KeyValueFile.FORMAT}"]

    def __init__(self, path, model: str, what: str):
        self.path = path
        self.entries = {}
        for line in read_text(path).split("\n"):
            key, _, value = line.strip().partition(" = ")
            if key in self.entries:
                raise DataFormatError(f"{path}: duplicate key {key!r}")
            if key:
                self.entries[key] = value
        if self.entries.pop("model", None) != model:
            raise DataFormatError(f"{path}: not {what} model file")
        found = self.entries.pop("format", None)
        if found != self.FORMAT:
            raise DataFormatError(f"{path}: expected model-file format {self.FORMAT}, "
                                  f"found {'none' if found is None else repr(found)}")

    def text(self, key) -> str:
        try:
            return self.entries.pop(key)
        except KeyError:
            raise DataFormatError(f"{self.path}: missing {key!r}") from None

    def choice(self, key, options) -> str:
        value = self.text(key)
        if value not in options:
            raise DataFormatError(f"{self.path}: {key} must be one of {options}, got {value!r}")
        return value

    def number(self, key) -> float:
        return self.convert(key, self.text(key), float)

    def integer(self, key) -> int:
        return self.convert(key, self.text(key), int)

    def convert(self, key, value: str, kind):
        """``value`` as a finite float or a non-negative int."""
        try:
            out = kind(value)
        except ValueError:
            out = None
        if out is None or not (math.isfinite(out) if kind is float else out >= 0):
            raise DataFormatError(f"{self.path}: bad value {value!r} for {key}")
        return out

    def finish(self) -> None:
        if self.entries:
            raise DataFormatError(f"{self.path}: unexpected key {next(iter(self.entries))!r}")


def load_samples(path) -> Dataset:
    """Read a labeled-sample CSV (header NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION)."""
    features, labels = read_csv(path, SAMPLES)
    if not labels:
        raise DataFormatError(f"{path}: empty dataset")
    return Dataset(features, labels)


def save_samples(dataset: Dataset, path) -> None:
    """Write a Dataset back to the labeled-sample CSV format."""
    row = "%.10g," * dataset.features.shape[1] + "%s\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(list(dataset.attribute_names) + [LABEL_COLUMN]) + "\n"
                 + "".join(row % (*x, label)
                           for x, label in zip(dataset.features.tolist(), dataset.labels)))


def load_raw_series(path) -> RawSeries:
    """Read a raw-series CSV (header DATE,NK,HS,SET_CLOSE,SET_OPEN,USDTHB,SP500,GOLD).

    Empty cells become NaN (missing); those days are later skipped by
    :func:`build_training_table`.
    """
    values, dates = read_csv(path, RAW)
    return RawSeries(dates, values)


def build_training_table(series: RawSeries) -> Dataset:
    """Convert raw daily prices into labeled percent-change samples.

    Days with any missing value are dropped first.  Each remaining run of
    three consecutive days (t-2, t-1, t) yields one sample: the features are
    the t-2 -> t-1 percentage changes of the six input series and the label is
    the direction of day t's SET session (open vs. close).
    """
    keep = np.flatnonzero(np.isfinite(series.values).all(axis=1))
    if len(keep) < 3:
        raise DataFormatError("need at least 3 complete days to build samples")
    vals = series.values[keep]
    col = {name: i for i, name in enumerate(RAW_COLUMNS)}
    feature_cols = [col[c] for c in ("NK", "HS", "SET_CLOSE", "USDTHB", "SP500", "GOLD")]
    prev, curr = vals[:-2, feature_cols], vals[1:-1, feature_cols]
    open_, close = vals[2:, col["SET_OPEN"]], vals[2:, col["SET_CLOSE"]]
    bad = np.flatnonzero((prev <= 0).any(axis=1) | (open_ <= 0) | (close <= 0))
    if bad.size:  # the scalar checks raise for the first bad day, in loop order
        t = bad[0]
        for c in range(len(feature_cols)):
            percent_change(prev[t, c], curr[t, c])
        label_direction(open_[t], close[t])
    features = 100.0 * (curr - prev) / prev
    return Dataset(features, tuple(np.where(close > open_, UP, DOWN).tolist()))


def stratified_folds(dataset: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified fold assignment.

    Samples of each class are shuffled with a generator seeded by ``seed`` and
    dealt round-robin into the k folds, continuing the deal across classes so
    fold sizes stay within one of each other and each class spreads evenly.
    """
    n = len(dataset)
    if not 2 <= k <= n:
        raise DataFormatError(f"fold count must satisfy 2 <= k <= {n}, got {k}")
    counts = dataset.class_counts()
    missing = [c for c, cnt in counts.items() if cnt == 0]
    if missing:
        raise DataFormatError(f"class with zero samples: {missing}")
    rng = np.random.default_rng(seed)
    labels = np.array(dataset.labels)
    assignment = np.empty(n, dtype=int)
    pointer = 0
    for c in dataset.class_labels:
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        assignment[idx] = (pointer + np.arange(len(idx))) % k
        pointer += len(idx)
    return FoldAssignment(k, assignment)
