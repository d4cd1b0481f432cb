import numpy as np
import pytest

from setcast import cli, dataset as ds, svm


@pytest.fixture(scope="session")
def market_data() -> ds.Dataset:
    """The bundled 30-sample SET dataset."""
    return ds.load_samples(cli.default_data_path())


#: Five-day synthetic raw series used by the pipeline tests.  Each column
#: follows a simple hand-checkable pattern; the expected table below was
#: computed by hand from these prices.
FIVE_DAY_ROWS = [
    # DATE,      NK,     HS,        SET_CLOSE, SET_OPEN,   USDTHB,    SP500,     GOLD
    ("2010-01-04", "100", "200",     "50",      "49.5",     "30",      "1000",    "800"),
    ("2010-01-05", "110", "190",     "51",      "50.9",     "30.3",    "980",     "824"),
    ("2010-01-06", "99",  "180.5",   "52.02",   "52.5",     "30.603",  "1029",    "848.72"),
    ("2010-01-07", "108.9", "171.475", "53.0604", "53",     "30.90903", "1023.855", "874.1816"),
    ("2010-01-08", "130.68", "162.90125", "54.121608", "54.121608", "31.2181203", "1126.2405", "900.407048"),
]

FIVE_DAY_EXPECTED_FEATURES = np.array(
    [
        # NK     HS    SET  USDTHB SP500  GOLD
        [10.0, -5.0, 2.0, 1.0, -2.0, 3.0],
        [-10.0, -5.0, 2.0, 1.0, 5.0, 3.0],
        [10.0, -5.0, 2.0, 1.0, -0.5, 3.0],
    ]
)
# day 3: open 52.5 > close 52.02 -> DOWN; day 4: 53 < 53.0604 -> UP;
# day 5: open == close -> DOWN (tie rule); as indices into CLASS_LABELS
FIVE_DAY_EXPECTED_Y = [1, 0, 1]


def raw_csv_text(rows) -> str:
    header = "DATE," + ",".join(ds.RAW_COLUMNS)
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


@pytest.fixture
def five_day_csv(tmp_path):
    path = tmp_path / "five_day.csv"
    path.write_text(raw_csv_text(FIVE_DAY_ROWS), encoding="utf-8")
    return path


def toy_dataset(up_rows, down_rows, names=None) -> ds.Dataset:
    """Two-class dataset from feature-row lists."""
    up_rows = np.atleast_2d(np.asarray(up_rows, dtype=float))
    down_rows = np.atleast_2d(np.asarray(down_rows, dtype=float))
    features = np.vstack([up_rows, down_rows])
    y = [0] * len(up_rows) + [1] * len(down_rows)  # UP, then DOWN
    if names is None:
        names = tuple(f"x{i}" for i in range(features.shape[1]))
    return ds.Dataset(features, y, names)


def records_from_matrix(matrix):
    """Expand a confusion matrix into hard one-hot predictions:
    (actual_idx, dist) in row-major cell order."""
    matrix = np.asarray(matrix, dtype=int)
    k = len(matrix)
    actual, predicted = np.divmod(np.repeat(np.arange(k * k), matrix.ravel()), k)
    return actual, np.eye(k)[predicted]


def hard_distribution(model, x) -> np.ndarray:
    """One-hot SVM distribution over CLASS_LABELS for one sample."""
    return svm.predict_proba(model, x)[0]
