import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcast import dataset as ds
from setcast import evaluation as ev
from setcast import naive_bayes as nb
from setcast import svm
from setcast.errors import DataFormatError

from conftest import records_from_matrix, toy_dataset

TOL_3DP = 5.1e-4  # half an ulp at three printed decimals


def report_from_matrix(matrix):
    return ev.evaluate(*records_from_matrix(matrix))


# ----------------------------------------------------------- matrix statistics
def test_benchmark_matrix_statistics():
    report = report_from_matrix([[13, 3], [7, 7]])
    assert (report.n, report.correct) == (30, 20)
    assert report.accuracy == pytest.approx(20 / 30)
    assert report.kappa == pytest.approx(0.3182, abs=1e-4)
    up, down = report.per_class
    for pc, expected in (
        (up, (0.813, 0.5, 0.65, 0.813, 0.722)),
        (down, (0.5, 0.188, 0.7, 0.5, 0.583)),
        (report.weighted, (0.667, 0.354, 0.673, 0.667, 0.657)),
    ):
        got = (pc.tp_rate, pc.fp_rate, pc.precision, pc.recall, pc.f_measure)
        assert got == pytest.approx(expected, abs=TOL_3DP)
    # a hard predictor scores the same Mann-Whitney area for either class
    assert up.roc_area == down.roc_area == pytest.approx(147 / 224)


def test_error_metric_matrix():
    report = report_from_matrix([[11, 5], [8, 6]])
    assert report.accuracy == pytest.approx(0.5667, abs=TOL_3DP)
    assert report.mae == pytest.approx(0.4333, abs=TOL_3DP)
    assert report.rmse == pytest.approx(0.6583, abs=TOL_3DP)


def test_kappa_conventions():
    assert ev.kappa_statistic([[10, 0], [0, 5]]) == 1.0
    assert ev.kappa_statistic([[5, 0], [0, 0]]) == 1.0  # chance agreement is 1
    assert ev.kappa_statistic([[0, 5], [5, 0]]) == pytest.approx(-1.0)
    with pytest.raises(DataFormatError):
        ev.kappa_statistic([[0, 0], [0, 0]])


@st.composite
def confusion_2x2(draw):
    cells = draw(st.lists(st.integers(0, 40), min_size=4, max_size=4))
    if sum(cells) == 0:
        cells[0] = 1
    return [cells[:2], cells[2:]]


@settings(max_examples=80, deadline=None)
@given(confusion_2x2())
def test_hard_predictor_identities(matrix):
    report = report_from_matrix(matrix)
    # exact floating identities for one-hot predictions
    assert report.mae == report.incorrect / report.n
    assert report.rmse == math.sqrt(report.incorrect / report.n)
    assert abs(report.mae - (1.0 - report.accuracy)) <= 2**-50
    for pc in report.per_class:
        assert pc.recall == pc.tp_rate


@st.composite
def probabilistic_records(draw):
    n = draw(st.integers(1, 12))
    p_up = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    actual = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return actual, np.column_stack([p_up, 1.0 - p_up])


@settings(max_examples=80, deadline=None)
@given(probabilistic_records())
def test_error_metric_ordering(records):
    mae, rmse = ev.absolute_errors(*records)
    assert mae <= rmse + 1e-12
    assert rmse <= math.sqrt(mae) + 1e-12


def test_absolute_errors_match_per_row_loop():
    # the running total of the per-row loop the array path replaced, which
    # the reports' last digits depend on
    rng = np.random.default_rng(3)
    p_up = rng.random(1000)
    dist = np.column_stack([p_up, 1.0 - p_up])
    actual = rng.integers(0, 2, size=1000)
    abs_sum = sq_sum = 0.0
    for a, row in zip(actual, dist):
        diff = row - np.eye(2)[a]
        abs_sum += np.abs(diff).sum()
        sq_sum += (diff * diff).sum()
    assert ev.absolute_errors(actual, dist) == (abs_sum / dist.size,
                                               math.sqrt(sq_sum / dist.size))


# ------------------------------------------------------------------- ROC areas
def _scored(*pairs):
    """(actual_idx, dist) arrays from (actual label, P(UP)) pairs."""
    actual = np.array([ds.CLASS_LABELS.index(label) for label, _ in pairs])
    p_up = np.array([p for _, p in pairs], dtype=float)
    return actual, np.column_stack([p_up, 1.0 - p_up])


def test_roc_area_cases():
    perfect = _scored((ds.UP, 0.9), (ds.UP, 0.8), (ds.DOWN, 0.3))
    assert ev.roc_area(*perfect, 0) == 1.0
    reversed_ = _scored((ds.UP, 0.1), (ds.DOWN, 0.9))
    assert ev.roc_area(*reversed_, 0) == 0.0
    tied = _scored((ds.UP, 0.8), (ds.UP, 0.5), (ds.DOWN, 0.5), (ds.DOWN, 0.2))
    assert ev.roc_area(*tied, 0) == pytest.approx(0.875)
    assert ev.roc_area(*_scored((ds.UP, 0.7)), 0) == 0.5  # degenerate


def _pairwise_roc_area(actual_idx, dist, class_index):
    """The Mann-Whitney area by its definition: every (positive, negative)
    pair compared, ties half credit."""
    scores = dist[:, class_index]
    is_pos = actual_idx == class_index
    pos, neg = scores[is_pos], scores[~is_pos]
    if pos.size == 0 or neg.size == 0:
        return 0.5
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_roc_area_matches_pairwise_definition(data):
    n = data.draw(st.integers(1, 40))
    # a small score alphabet makes ties common; one class may be absent
    p_up = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
        min_size=n, max_size=n)))
    actual = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    dist = np.column_stack([p_up, 1.0 - p_up])
    for ci in range(2):
        assert ev.roc_area(actual, dist, ci) == _pairwise_roc_area(actual, dist, ci)


def test_degenerate_class_warning():
    report = report_from_matrix([[5, 0], [3, 0]])
    down = report.per_class[1]
    assert down.precision == 0.0
    assert any("never predicted" in w for w in report.warnings)
    assert "note:" in ev.render_text(report)


# ------------------------------------------------------------- relative errors
def test_relative_errors_of_baseline_are_100_percent():
    actual, dist = _scored((ds.UP, 0.6), (ds.DOWN, 0.6), (ds.UP, 0.4), (ds.DOWN, 0.4))
    report = ev.evaluate(actual, dist, dist.copy())
    assert report.rae == pytest.approx(100.0)
    assert report.rrse == pytest.approx(100.0)


def test_relative_errors_zero_baseline_rejected():
    actual, dist = _scored((ds.UP, 0.7))
    with pytest.raises(DataFormatError, match="zero error"):
        ev.evaluate(actual, dist, np.array([[1.0, 0.0]]))


# ------------------------------------------------------------ input contracts
def test_evaluate_rejects_malformed_input():
    for actual, dist in (
        ([0], [[0.7, 0.4]]),  # does not sum to 1
        ([0], [[1.2, -0.2]]),  # negative entry
        ([0], [[1.0]]),  # wrong row length
        ([2], [[0.5, 0.5]]),  # unknown class index
        ([0, 1], [[0.5, 0.5], [np.nan, 0.5]]),  # NaN sums to no distribution
    ):
        with pytest.raises(DataFormatError):
            ev.evaluate(np.array(actual), np.array(dist))
        with pytest.raises(DataFormatError):  # the same checks cover the baseline
            ev.evaluate(np.array(actual), np.eye(2)[[0] * len(actual)], np.array(dist))
    # an exact tie predicts the class listed first
    report = ev.evaluate([1], [[0.5, 0.5]])
    np.testing.assert_array_equal(report.confusion, [[0, 0], [1, 0]])


def test_smoothed_class_distribution(market_data):
    np.testing.assert_allclose(
        ev.smoothed_class_distribution(market_data.class_counts()), [17 / 32, 15 / 32]
    )


# --------------------------------------------------------------- cross-validation
def test_cross_validate_naive_bayes_frozen(market_data):
    folds = ds.stratified_folds(market_data, 10, 1)
    report = ev.cross_validate(market_data, nb.train_folds, nb.predict_proba, folds)
    assert (report.n, report.correct) == (30, 19)
    assert report.rae == pytest.approx(79.39640570815253, abs=1e-9)
    assert report.rrse == pytest.approx(108.76560666771722, abs=1e-9)
    assert report.fold_digest == folds.digest()


def test_cross_validate_svm_frozen(market_data):
    report = ev.cross_validate(market_data, svm.train_folds, svm.predict_proba,
                               ds.stratified_folds(market_data, 10, 1))
    assert (report.n, report.correct) == (30, 20)


@pytest.mark.parametrize("kernel", [svm.KernelSpec(svm.LINEAR),
                                    svm.KernelSpec(svm.RBF, delta_sq=2.0)],
                         ids=["linear", "rbf"])
def test_a_reused_svm_learner_matches_fresh_ones(kernel):
    rng = np.random.default_rng(13)
    train_folds = partial(svm.train_folds, kernel=kernel)
    for n in (120, 300, 80):
        data = toy_dataset(rng.normal(0.3, 1.0, size=(n // 2, 4)),
                           rng.normal(-0.3, 1.0, size=(n - n // 2, 4)))
        folds = ds.stratified_folds(data, 10, 3)
        reused = ev.cross_validate(data, train_folds, svm.predict_proba, folds)
        fresh = ev.cross_validate(data, partial(svm.train_folds, kernel=kernel),
                                  svm.predict_proba, ds.stratified_folds(data, 10, 3))
        assert ev.render_machine(reused) == ev.render_machine(fresh)


def test_rbf_cross_validation_holds_one_kernel_matrix():
    # NumPy reports its buffers to tracemalloc: the ten folds of 900
    # training rows share one 8 * 1000^2-byte kernel matrix over all rows
    rng = np.random.default_rng(12)
    data = toy_dataset(rng.normal(0.3, 1.0, size=(500, 6)),
                       rng.normal(-0.3, 1.0, size=(500, 6)))
    folds = ds.stratified_folds(data, 10, 1)
    tracemalloc.start()
    try:
        ev.cross_validate(data,
                          partial(svm.train_folds, kernel=svm.KernelSpec(svm.RBF, delta_sq=1.0)),
                          svm.predict_proba, folds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 900 ** 2


def memorize(dataset, folds):
    """Each training partition's label of each feature row: with
    :func:`recall`, a predictor that detects any leakage of test rows into
    the training partition."""
    return [{tuple(x): c for x, c in zip(dataset.features[rows], dataset.y[rows].tolist())}
            for rows in (folds.assignment != f for f in range(folds.k))]


def recall(table, X):
    """The stored label for feature rows seen in training and UP otherwise."""
    labels = [table.get(tuple(x), ds.CLASS_LABELS.index(ds.UP)) for x in X]
    return np.eye(len(ds.CLASS_LABELS))[labels]


def test_no_test_row_leaks_into_training(market_data):
    report = ev.cross_validate(market_data, memorize, recall,
                               ds.stratified_folds(market_data, 30, 0))
    # all fixture rows are distinct, so every held-out row must fall back to UP
    assert report.correct == 16
    np.testing.assert_array_equal(report.confusion, [[16, 0], [14, 0]])


def test_cross_validate_pools_a_given_assignment_in_fold_order(monkeypatch):
    # not stratified: fold 0 holds only UP rows and fold 2 only DOWN rows
    data = toy_dataset([[0.0], [1.0], [2.0]], [[3.0], [4.0], [5.0]])
    folds = ds.FoldAssignment(3, np.array([1, 0, 0, 1, 2, 2]))
    pooled, evaluate = [], ev.evaluate

    def spy(actual_idx, dist, baseline=None, **kwargs):
        pooled.append((np.asarray(actual_idx).tolist(), np.asarray(dist)[:, 0].tolist()))
        return evaluate(actual_idx, dist, baseline, **kwargs)

    def train_folds(dataset, folds):  # each fold's training rows' ids
        return [dataset.features[folds.assignment != f, 0].tolist() for f in range(folds.k)]

    def predict(train_rows, X):
        assert not set(X[:, 0].tolist()) & set(train_rows)
        return np.column_stack([X[:, 0] / 10, 1 - X[:, 0] / 10])

    monkeypatch.setattr(ev, "evaluate", spy)
    report = ev.cross_validate(data, train_folds, predict, folds)
    assert pooled == [([0, 0, 0, 1, 1, 1], [0.1, 0.2, 0.0, 0.3, 0.4, 0.5])]
    assert report.fold_digest == folds.digest()
    assert report.n == 6 and report.svm_folds == ()


def test_cross_validate_rejects_an_assignment_of_another_length(market_data):
    folds = ds.stratified_folds(market_data, 10, 1)
    short = ds.FoldAssignment(10, folds.assignment[:-1])
    with pytest.raises(DataFormatError, match="29 fold indices for 30 rows"):
        ev.cross_validate(market_data, nb.train_folds, nb.predict_proba, short)


@pytest.mark.parametrize("train_folds", [nb.train_folds, svm.train_folds], ids=["nb", "svm"])
def test_fold_trainers_reject_an_assignment_of_another_length(train_folds, market_data):
    with pytest.raises(DataFormatError, match="29 fold indices for 30 rows"):
        train_folds(market_data, ds.FoldAssignment(3, np.arange(29) % 3))


# ------------------------------------------------------------------- rendering
def test_render_text_layout(market_data):
    report = ev.cross_validate(market_data, nb.train_folds, nb.predict_proba,
                               ds.stratified_folds(market_data, 10, 1))
    text = ev.render_text(report)
    for block in ("=== Summary ===", "=== Detailed accuracy by class ===",
                  "=== Confusion matrix ==="):
        assert block in text
    assert "Correctly classified instances" in text
    assert "Relative absolute error" in text
    assert "79.3964 %" in text
    assert "108.7656 %" in text
    assert "<-- classified as" in text
    assert "a = UP" in text and "b = DOWN" in text


def test_render_machine_keys(market_data):
    folds = ds.stratified_folds(market_data, 10, 1)
    report = ev.cross_validate(market_data, nb.train_folds, nb.predict_proba, folds)
    machine = ev.render_machine(report)
    entries = dict(
        line.partition(" = ")[::2] for line in machine.strip().splitlines()
    )
    assert entries["classes"] == "UP,DOWN"
    assert entries["instances"] == "30"
    assert entries["correct"] == "19"
    assert float(entries["rae_percent"]) == pytest.approx(79.39640570815253)
    assert entries["fold_digest"] == folds.digest()
    total = sum(
        int(v) for k, v in entries.items() if k.startswith("confusion.")
    )
    assert total == 30
    for name in ("tp_rate", "fp_rate", "precision", "recall", "f_measure",
                 "roc_area"):
        assert f"class.UP.{name}" in entries
        assert f"class.DOWN.{name}" in entries
        assert f"weighted.{name}" in entries


def test_evaluate_requires_records():
    with pytest.raises(DataFormatError):
        ev.evaluate(np.zeros(0, dtype=int), np.zeros((0, 2)))
    with pytest.raises(DataFormatError):
        ev.absolute_errors(np.zeros(0, dtype=int), np.zeros((0, 2)))
