"""Market data plumbing: labeled samples, the percent-change feature pipeline,
deterministic stratified fold assignment, and the strict readers of every
setcast file (the CSV formats and ``key = value`` model files).  The
model-file layout (a ``model`` line, a ``format`` line, then the model's
keys) is read and written by :class:`KeyValueFile` alone.

A labeled sample holds the daily percentage changes of six market series
(Nikkei, Hang Seng, SET, USD/THB, S&P 500, gold) plus the next day's SET
direction.  Raw price series can be converted into such samples with
:func:`build_training_table`.
"""
from __future__ import annotations

import datetime
import math
import zlib
from collections import namedtuple
from typing import NamedTuple

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

#: Characters of whole lines that read_csv parses at a time, so that a plain
#: file's parse holds a few blocks beside the arrays it returns.
BLOCK_CHARS = 1 << 16
#: Rows that write_rows formats and writes, and the row reader holds as
#: Python floats, at a time.
BLOCK_ROWS = 1024


class Dataset(namedtuple("Dataset", "features y attribute_names")):
    """Ordered collection of labeled samples.

    ``features`` has shape (n, d); ``y`` is a length-n int8 array of class
    indices into CLASS_LABELS (0 = UP, 1 = DOWN).  Any integer array-like of
    0s and 1s is accepted and stored as int8.  ``attribute_names`` holds one
    name per feature column.  ``len()`` counts the samples.
    """

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # namedtuple's checks len(), which counts rows here

    def __new__(cls, features, y, attribute_names: tuple = ATTRIBUTE_NAMES):
        features, y = np.asarray(features, dtype=float), np.asarray(y)
        if features.ndim != 2 or y.shape != features.shape[:1]:
            raise DataFormatError("features must be (n, d) with one class index per row")
        if len(attribute_names) != features.shape[1]:
            raise DataFormatError(f"{len(attribute_names)} attribute names for "
                                  f"{features.shape[1]} feature columns")
        if not np.isfinite(features).all():
            raise DataFormatError("all feature values must be finite")
        if y.dtype.kind not in "iu" or ((y < 0) | (y >= len(CLASS_LABELS))).any():
            raise DataFormatError(f"y must hold integer indices into {CLASS_LABELS}")
        return super().__new__(cls, features, y.astype(np.int8, copy=False), attribute_names)

    def __len__(self):
        return self.features.shape[0]

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts, in CLASS_LABELS order."""
        return np.bincount(self.y, minlength=len(CLASS_LABELS))

    def subset(self, rows) -> "Dataset":
        """The rows where the boolean mask ``rows`` is true, or else the rows
        at the integer indices ``rows``, in their order; any other array
        raises DataFormatError."""
        rows = np.asarray(rows)
        if rows.size and rows.dtype != bool and rows.dtype.kind not in "iu":
            raise DataFormatError(f"rows must be a boolean mask or integer indices, "
                                  f"got {rows.dtype}")
        rows = rows if rows.dtype == bool else rows.astype(int)  # np.asarray([]) is float
        return Dataset(self.features[rows], self.y[rows], self.attribute_names)


class RawSeries(namedtuple("RawSeries", "dates values")):
    """Daily ``dates`` and an (n, len(RAW_COLUMNS)) array of their raw prices,
    ``values``, in which NaN marks a missing value."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # as Dataset's

    def __len__(self):
        return len(self.dates)


class FoldAssignment(namedtuple("FoldAssignment", "k assignment")):
    """Per-sample fold indices for k-fold cross-validation: ``k`` is an int
    >= 2, not a bool (a NumPy integer is converted), and ``assignment`` a
    1-D array of integers in [0, k); anything else raises DataFormatError."""

    __slots__ = ()

    def __new__(cls, k: int, assignment):
        assignment = np.asarray(assignment)
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 2:
            raise DataFormatError(f"fold count must be an int >= 2, got {k!r}")
        if (assignment.ndim != 1 or assignment.dtype.kind not in "iu"
                or ((assignment < 0) | (assignment >= k)).any()):
            raise DataFormatError(f"fold indices must be a 1-D array of integers in [0, {k})")
        return super().__new__(cls, int(k), assignment)

    def test_mask(self, f: int, n: int) -> np.ndarray:
        """Fold f's rows as a mask over ``n`` rows; another n raises DataFormatError."""
        if len(self.assignment) != n:
            raise DataFormatError(f"{len(self.assignment)} fold indices for {n} rows")
        return self.assignment == f

    def digest(self) -> str:
        """Short stable fingerprint, for asserting two runs shared one split:
        the CRC-32 of the assignment and k, as 8 hex digits."""
        raw = np.asarray(self.assignment, dtype=np.int64).tobytes()
        return f"{zlib.crc32(raw + self.k.to_bytes(8, 'little')):08x}"


class CsvFormat(NamedTuple):
    """A CSV layout for :func:`read_csv`: the accepted headers, where the
    float and text columns sit, and the messages its violations raise.

    ``key`` names the column returned beside the floats: "label" (the last
    column, UP or DOWN in any letter case, returned as class indices),
    "date" (the first) or "".
    """

    headers: tuple  # accepted headers, each a tuple of column names
    first: int  # index of the first float column
    width: int  # number of float columns
    key: str
    bad_header: str
    bad_width: str  # formatted with got= and want=
    no_header: str = ""  # for a file without a header line; default bad_header
    blank_nan: bool = False  # a blank cell reads as NaN; else a non-finite float fails its row


_SAMPLE_HEADER = ATTRIBUTE_NAMES + (LABEL_COLUMN,)
_RAW_HEADER = ("DATE",) + RAW_COLUMNS
#: Labeled samples: six finite features and an UP/DOWN label per row.
SAMPLES = CsvFormat((_SAMPLE_HEADER,), 0, 6, "label", f"expected header {','.join(_SAMPLE_HEADER)}",
                    "expected {want} columns, got {got}")
#: Raw daily prices: a date and seven prices per row, blank when missing.
RAW = CsvFormat((_RAW_HEADER,), 1, 7, "date", f"expected header {','.join(_RAW_HEADER)}",
                "expected {want} columns, got {got}", blank_nan=True)
#: Samples to predict: six finite features and an optional label column,
#: which is not read.
FEATURES = CsvFormat((ATTRIBUTE_NAMES, _SAMPLE_HEADER), 0, 6, "", "unrecognized sample header",
                     "{got} values, header has {want}", "missing header")


def read_text(path) -> str:
    """A whole UTF-8 text file; undecodable bytes raise DataFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from None


def read_csv(path, fmt: CsvFormat):
    """The float block (n, fmt.width) and the key column of a CSV file in
    format ``fmt``: an int8 array of indices into CLASS_LABELS for "label",
    a tuple of date strings for "date", and () for "".

    The accepted syntax is that of ``csv.reader`` cells converted by
    ``float()``.  A file without quotes, lone carriage returns or NULs is
    parsed column-wise by NumPy's C text parser, BLOCK_CHARS characters of
    whole lines at a time; a file that parser rejects, or that fails any
    check, is read again row by row, which raises DataFormatError naming the
    first bad line.  Both paths return the same values.  An undecodable byte
    anywhere in the file raises DataFormatError naming its offset.
    """
    try:
        with open(path, newline="\n", encoding="utf-8") as fh:
            parsed = _read_columns(fh, fmt)
        values, keys = parsed or _read_rows(path, fmt)
    except UnicodeDecodeError:  # read whole, so the offset counts from the file's start
        read_text(path)
        raise
    return values, np.array(keys, dtype=np.int8) if fmt.key == "label" else tuple(keys)


def _token(cell: str, fmt: CsvFormat):
    """A key cell as a date or a class index, or None for an unknown label."""
    if fmt.key == "date":
        return cell.strip()
    token = cell.strip().upper()
    return CLASS_LABELS.index(token) if token in CLASS_LABELS else None


def _needs_rows(text) -> bool:
    """Whether ``text`` (CRLF already made LF) holds a quote, a lone carriage
    return or a NUL, which only the row reader reads as csv.reader does."""
    return '"' in text or "\r" in text or "\0" in text


def _read_columns(fh, fmt):
    """read_csv's floats and per-row keys, read by columns from ``fh`` (opened
    with newline="\\n") one block of lines at a time, or None where only the
    row reader can decide."""
    header = fh.readline().replace("\r\n", "\n")
    if _needs_rows(header):
        return None
    header = tuple(h.strip() for h in header.partition("\n")[0].split(","))
    if header not in fmt.headers:
        return None
    blocks, keys, tokens = [np.empty((0, fmt.width))], [], {}
    while text := "".join(fh.readlines(BLOCK_CHARS)):  # frees the line list before splitting
        text = text.replace("\r\n", "\n")
        if _needs_rows(text):
            return None
        if fmt.blank_nan:  # twice for runs of blanks; float("nan") is np.nan, bit for bit
            text = (text + "\n").replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
        lines = [line for line in text.split("\n") if line]
        if [line.count(",") for line in lines].count(len(header) - 1) != len(lines):
            return None
        if fmt.key == "label":
            cells = [line.rpartition(",")[2] for line in lines]
            tokens.update((cell, _token(cell, fmt)) for cell in set(cells).difference(tokens))
            if None in tokens.values():
                return None
            keys += map(tokens.__getitem__, cells)
        elif fmt.key == "date":
            keys += (line.partition(",")[0].strip() for line in lines)
        if not lines:
            continue
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                                usecols=range(fmt.first, fmt.first + fmt.width))
        except ValueError:
            return None
        if not fmt.blank_nan and not np.isfinite(values).all():
            return None
        blocks.append(values)
    return np.concatenate(blocks), keys


def _read_rows(path, fmt):
    """read_csv row by row, checking each row in file order.  A bad row
    raises only once the rest of the file has decoded, since an undecodable
    byte anywhere outranks it."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return _checked_rows(path, fh, fmt)
        except DataFormatError:
            while fh.read(BLOCK_CHARS):
                pass
            raise


def _checked_rows(path, fh, fmt):
    import csv

    def checked(reader):  # each record with the line on which it ends
        try:
            yield from ((reader.line_num, row) for row in reader)
        except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None

    records = checked(csv.reader(fh))
    _, header = next(records, (0, None))
    if header is None:
        raise DataFormatError(f"{path}: {fmt.no_header or fmt.bad_header}")
    header = tuple(h.strip() for h in header)
    if header not in fmt.headers:
        raise DataFormatError(f"{path}: {fmt.bad_header}")
    blocks, rows, keys = [], [], []
    for lineno, row in records:
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
        if not fmt.blank_nan and not all(map(math.isfinite, rows[-1])):
            raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
        if fmt.key:
            keys.append(_token(row[-1 if fmt.key == "label" else 0], fmt))
            if keys[-1] is None:
                raise DataFormatError(f"{path}:{lineno}: unknown label {row[-1]!r}")
        if len(rows) == BLOCK_ROWS:
            blocks.append(np.array(rows, dtype=float))
            rows = []
    blocks.append(np.array(rows, dtype=float).reshape(len(rows), fmt.width))
    return np.concatenate(blocks), keys


class KeyValueFile:
    """The ``key = value`` lines of a model file, read strictly: each key is
    taken once, and a missing or duplicate key, a malformed or non-finite
    value, or a key left untaken raises DataFormatError.

    A model file opens with ``model = <kind>`` and ``format = <FORMAT>``;
    a file of any other format is rejected, not converted.
    """

    FORMAT = "2"

    @classmethod
    def write(cls, path, model: str, lines) -> None:
        """Write a ``model`` file: its kind and format lines, then ``lines``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([f"model = {model}", f"format = {cls.FORMAT}", *lines]) + "\n")

    @classmethod
    def of(cls, source) -> "KeyValueFile":
        """``source`` itself if it is a KeyValueFile, else the file at that path."""
        return source if isinstance(source, cls) else cls(source)

    def __init__(self, path):
        """Read every entry; ``model`` is the file's kind, None if it has none."""
        self.path = path
        self.entries = {}
        for line in read_text(path).split("\n"):
            key, _, value = line.strip().partition(" = ")
            if key in self.entries:
                raise DataFormatError(f"{path}: duplicate key {key!r}")
            if key:
                self.entries[key] = value
        self.model = self.entries.pop("model", None)

    def require(self, model: str, what: str) -> "KeyValueFile":
        """This file, checked to be a ``model`` file (``what`` names that kind
        in the error) of format FORMAT."""
        if self.model != model:
            raise DataFormatError(f"{self.path}: not {what} model file")
        found = self.entries.pop("format", None)
        if found != self.FORMAT:
            raise DataFormatError(f"{self.path}: expected model-file format {self.FORMAT}, "
                                  f"found {'none' if found is None else repr(found)}")
        return self

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

    def positive(self, key, kind=float):
        """``key`` as a positive float, or int for ``kind=int``."""
        value = self.convert(key, self.text(key), kind)
        if not value > 0:
            raise DataFormatError(f"{self.path}: {key} must be positive, got {value!r}")
        return value

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
    features, y = read_csv(path, SAMPLES)
    if not len(y):
        raise DataFormatError(f"{path}: empty dataset")
    return Dataset(features, y)


def save_samples(dataset: Dataset, path) -> None:
    """Write a Dataset back to the labeled-sample CSV format, ten significant
    digits per feature.  A value that those digits round beyond the float
    range (from ~1.7976931345e308 in magnitude) raises DataFormatError
    naming the sample, since the file could not be read back."""
    x = dataset.features
    for i in np.flatnonzero(((x >= 1e308) | (x <= -1e308)).any(axis=1)).tolist():
        if not all(math.isfinite(float("%.10g" % v)) for v in x[i]):
            raise DataFormatError(f"sample {i + 1}: a feature value is too large in magnitude "
                                  "to write in ten significant digits")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(list(dataset.attribute_names) + [LABEL_COLUMN]) + "\n")
        write_rows(fh, ["%.10g," * x.shape[1] + c + "\n" for c in CLASS_LABELS], x, dataset.y)


def write_rows(fh, formats, values, y) -> None:
    """Write ``formats[y[i]] % tuple(values[i])`` for every row i of the 2-D
    ``values``, so each class index picks its own row format; BLOCK_ROWS rows
    are formatted and written at a time."""
    for lo in range(0, len(y), BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        fh.write("".join(formats[c] % tuple(row)
                         for row, c in zip(values[lo:hi].tolist(), y[lo:hi].tolist())))


def load_raw_series(path) -> RawSeries:
    """Read a raw-series CSV (header DATE,NK,HS,SET_CLOSE,SET_OPEN,USDTHB,SP500,GOLD).

    Empty cells become NaN (missing); those days are later skipped by
    :func:`build_training_table`.
    """
    values, dates = read_csv(path, RAW)
    return RawSeries(dates, values)


def build_training_table(series: RawSeries) -> Dataset:
    """Convert raw daily prices into labeled percent-change samples.

    Every date, of complete days and incomplete ones alike, must be a
    YYYY-MM-DD day later than the date before it.  Days with any missing
    value are then dropped.  Each remaining run of three consecutive days
    (t-2, t-1, t) yields one sample: the features are the t-2 -> t-1
    percentage changes of the six input series and the label is the
    direction of day t's SET session (open vs. close).
    """
    _require_increasing_days(series.dates)
    keep = np.flatnonzero(np.isfinite(series.values).all(axis=1))
    if len(keep) < 3:
        raise DataFormatError("need at least 3 complete days to build samples")
    col = {name: i for i, name in enumerate(RAW_COLUMNS)}
    feature_cols = [col[c] for c in ("NK", "HS", "SET_CLOSE", "USDTHB", "SP500", "GOLD")]
    prices = series.values[np.ix_(keep[:-1], feature_cols)]  # prev and curr view it
    prev, curr = prices[:-1], prices[1:]
    day = keep[2:]  # day t of each sample
    open_, close = series.values[day, col["SET_OPEN"]], series.values[day, col["SET_CLOSE"]]
    bad = np.flatnonzero((prev <= 0).any(axis=1) | (open_ <= 0) | (close <= 0))
    if bad.size:  # the first bad day; its feature prices before its SET session
        nonpositive = prev[bad[0]][prev[bad[0]] <= 0]
        if nonpositive.size:
            raise DataFormatError(f"previous price must be positive, got {nonpositive[0]}")
        raise DataFormatError("prices must be positive")
    with np.errstate(over="ignore"):  # a non-finite change is reported below
        features = curr - prev  # in place from here: 100 * (curr - prev) / prev, bit for bit
        features *= 100.0
        features /= prev
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataFormatError(f"{series.dates[keep[bad[0] + 1]]}: a percent change "
                              "is too large in magnitude for a float")
    return Dataset(features, np.where(close > open_, CLASS_LABELS.index(UP),
                                      CLASS_LABELS.index(DOWN)))


def _require_increasing_days(dates) -> None:
    """Raise DataFormatError naming the first date that is not an exact
    YYYY-MM-DD day after the date before it."""
    for t, date in enumerate(dates):
        try:
            day = datetime.date.fromisoformat(date)
        except ValueError:
            day = None
        if day is None or day.isoformat() != date or t and not day > previous:
            after = f" after {dates[t - 1]!r}" if t else ""
            raise DataFormatError(f"date {date!r}{after}: dates must be YYYY-MM-DD days "
                                  "in increasing order")
        previous = day


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _pcg64_draws(seed: int):
    """The 32-bit draws of ``np.random.default_rng(seed)``, bit for bit and in
    order, for a seed >= 0: NumPy's SeedSequence hashes the seed's 32-bit
    words into a 4-word pool and expands it into the 128-bit PCG64 state and
    increment; each XSL-RR 128/64 output (O'Neill 2014) yields its low half,
    then its high half."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    initstate, initseq = (out[i + 1] << 96 | out[i] << 64 | out[i + 3] << 32 | out[i + 2]
                          for i in (0, 4))
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        rot, x = state >> 122, (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        yield x & _M32
        yield x >> 32


def _shuffle(values: np.ndarray, draws) -> None:
    """Shuffle ``values`` in place as ``Generator.shuffle`` does: Fisher-Yates
    from the last item down, each index drawn by masked rejection."""
    for i in range(len(values) - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(draws) & mask
        while j > i:
            j = next(draws) & mask
        values[i], values[j] = values[j], values[i]


def stratified_folds(dataset: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified fold assignment.

    Samples of each class are shuffled by the stream of
    ``np.random.default_rng(seed)``, reproduced in this module, and dealt
    round-robin into the k folds, continuing the deal across classes so fold
    sizes stay within one of each other and each class spreads evenly.
    ``seed`` is a non-negative integer.
    """
    n = len(dataset)
    if not 2 <= k <= n:
        raise DataFormatError(f"fold count must satisfy 2 <= k <= {n}, got {k}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataFormatError(f"seed must be a non-negative integer, got {seed!r}")
    missing = [c for c, cnt in zip(CLASS_LABELS, dataset.class_counts()) if cnt == 0]
    if missing:
        raise DataFormatError(f"class with zero samples: {missing}")
    draws = _pcg64_draws(int(seed))
    assignment = np.empty(n, dtype=int)
    pointer = 0
    for ci in range(len(CLASS_LABELS)):
        idx = np.flatnonzero(dataset.y == ci)
        _shuffle(idx, draws)
        assignment[idx] = (pointer + np.arange(len(idx))) % k
        pointer += len(idx)
    return FoldAssignment(k, assignment)
