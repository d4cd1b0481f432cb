"""Classifier evaluation: confusion-matrix statistics, probability-error
metrics, per-class diagnostics, and stratified k-fold cross-validation.

Metric conventions follow the common toolkit definitions so reports can be
compared line-for-line with standard output:

* MAE and RMSE average the absolute / squared differences between the
  predicted distribution and the one-hot actual over every (row, class)
  component, so a hard classifier has MAE = 1 - accuracy and
  RMSE = sqrt(1 - accuracy) exactly.
* Relative errors divide by the same error of a baseline predictor that
  always answers the training partition's add-one-smoothed class frequencies
  (computed per fold during cross-validation).
* ROC areas use the Mann-Whitney statistic with half credit for ties.
* Weighted averages weight each class by its actual-instance count.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .dataset import CLASS_LABELS, Dataset, FoldAssignment
from .errors import DataFormatError

DIST_TOL = 1e-9

#: The fields of PerClassMetrics after its label, in report order.
METRICS = ("tp_rate", "fp_rate", "precision", "recall", "f_measure", "roc_area")


class PerClassMetrics(NamedTuple):
    label: str
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f_measure: float
    roc_area: float


class EvaluationReport(NamedTuple):
    """Metrics of pooled predictions; per-class rows and the confusion matrix
    follow CLASS_LABELS."""

    n: int
    correct: int
    accuracy: float
    kappa: float
    mae: float
    rmse: float
    rae: Optional[float]  # percent, None when no baseline was supplied
    rrse: Optional[float]
    confusion: np.ndarray  # rows = actual, cols = predicted
    per_class: tuple  # of PerClassMetrics
    weighted: PerClassMetrics
    warnings: tuple = ()
    fold_digest: Optional[str] = None
    svm_folds: tuple = ()  # the fold models, for models that report convergence

    @property
    def incorrect(self) -> int:
        return self.n - self.correct


def _checked(actual_idx, dist):
    """Validate one prediction per row: the actual class index and a
    distribution over CLASS_LABELS.  Returns both as arrays."""
    actual_idx = np.asarray(actual_idx)
    dist = np.asarray(dist, dtype=float)
    k = len(CLASS_LABELS)
    if dist.ndim != 2 or dist.shape[1] != k or actual_idx.shape != dist.shape[:1]:
        raise DataFormatError("distribution length must match class count")
    if len(dist) == 0:
        raise DataFormatError("no prediction records")
    if (dist < 0).any() or not (np.abs(dist.sum(axis=1) - 1.0) <= DIST_TOL).all():
        raise DataFormatError("not a distribution: a row is negative or does not sum to 1")
    if actual_idx.dtype.kind not in "iu" or ((actual_idx < 0) | (actual_idx >= k)).any():
        raise DataFormatError("unknown actual class index")
    return actual_idx, dist


def confusion_matrix(actual_idx, dist) -> np.ndarray:
    """Counts of (actual, predicted) class pairs; the predicted class is the
    argmax of the distribution, an exact tie going to the class listed first."""
    k = dist.shape[1]
    cells = np.asarray(actual_idx) * k + np.argmax(dist, axis=1)
    return np.bincount(cells, minlength=k * k).reshape(k, k)


def kappa_statistic(matrix) -> float:
    """Cohen's kappa: chance-corrected agreement of the confusion matrix."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.sum()
    if n == 0:
        raise DataFormatError("empty confusion matrix")
    po = np.trace(matrix) / n
    pe = float((matrix.sum(axis=1) * matrix.sum(axis=0)).sum()) / (n * n)
    if abs(1.0 - pe) < 1e-15:
        return 1.0  # only reachable when every record agrees in one class
    return (po - pe) / (1.0 - pe)


def absolute_errors(actual_idx, dist):
    """(MAE, RMSE) of distributions against one-hot actuals, averaged over
    every row and class component."""
    if len(dist) == 0:
        raise DataFormatError("no prediction records")
    diff = np.array(dist, dtype=float)
    diff[np.arange(len(diff)), actual_idx] -= 1.0
    # Row sums are added one after another as a running total.  np.sum adds
    # pairwise, which would change the last digit of MAE, RMSE and the
    # relative errors against reports written by the per-row loop.
    abs_sum = np.cumsum(np.abs(diff).sum(axis=1))[-1]
    sq_sum = np.cumsum((diff * diff).sum(axis=1))[-1]
    return abs_sum / diff.size, math.sqrt(sq_sum / diff.size)


def roc_area(actual_idx, dist, class_index: int) -> float:
    """Mann-Whitney area under the ROC curve for one class, ties half credit.

    Degenerate inputs (no positives or no negatives) score 0.5.  Wins and
    ties are counted as integers against the sorted negatives, in
    O(n log n).
    """
    scores = np.asarray(dist)[:, class_index]
    is_pos = np.asarray(actual_idx) == class_index
    pos, neg = scores[is_pos], np.sort(scores[~is_pos])
    if pos.size == 0 or neg.size == 0:
        return 0.5
    below = np.searchsorted(neg, pos, side="left")
    wins = below.sum()
    ties = (np.searchsorted(neg, pos, side="right") - below).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def evaluate(actual_idx, dist, baseline=None, *, fold_digest=None) -> EvaluationReport:
    """Build the full report from pooled predictions.

    ``actual_idx`` (n,) holds each row's actual class as an index into
    CLASS_LABELS; ``dist`` (n, 2) the predicted distributions, and
    ``baseline`` (n, 2), when given, the baseline predictor's distributions:
    RAE and RRSE are MAE and RMSE in percent of the baseline's.  Malformed
    input, or a baseline with zero error, raises DataFormatError.
    """
    actual_idx, dist = _checked(actual_idx, dist)
    matrix = confusion_matrix(actual_idx, dist)
    n = int(matrix.sum())
    correct = int(np.trace(matrix))
    accuracy = correct / n
    mae, rmse = absolute_errors(actual_idx, dist)
    # bounded-range sanity: components live in [0, 1]
    assert mae <= rmse + 1e-12 and rmse <= math.sqrt(mae) + 1e-12
    rae = rrse = None
    if baseline is not None:
        base_mae, base_rmse = absolute_errors(*_checked(actual_idx, baseline))
        if base_mae == 0 or base_rmse == 0:
            raise DataFormatError("baseline predictor has zero error")
        rae, rrse = 100.0 * mae / base_mae, 100.0 * rmse / base_rmse

    warnings = []
    per_class = []
    supports = matrix.sum(axis=1)
    for ci, label in enumerate(CLASS_LABELS):
        tp = float(matrix[ci, ci])
        fn = float(supports[ci] - matrix[ci, ci])
        fp = float(matrix[:, ci].sum() - matrix[ci, ci])
        tn = float(n - tp - fn - fp)
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        fp_rate = fp / (fp + tn) if fp + tn > 0 else 0.0
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision = 0.0
            warnings.append(f"class {label} never predicted; precision set to 0")
        f_measure = (2.0 * precision * recall / (precision + recall)
                     if precision + recall > 0 else 0.0)
        per_class.append(PerClassMetrics(label, recall, fp_rate, precision, recall, f_measure,
                                         roc_area(actual_idx, dist, ci)))
    weights = supports / n
    weighted = PerClassMetrics("weighted", *(
        float(sum(w * getattr(pc, name) for w, pc in zip(weights, per_class)))
        for name in METRICS))
    return EvaluationReport(n, correct, accuracy, kappa_statistic(matrix), mae, rmse, rae,
                            rrse, matrix, tuple(per_class), weighted, tuple(warnings),
                            fold_digest)


def smoothed_class_distribution(counts) -> np.ndarray:
    """Add-one-smoothed frequencies of the per-class sample ``counts``, the
    per-fold baseline predictor."""
    return (counts + 1) / (counts.sum() + len(CLASS_LABELS))


def cross_validate(dataset: Dataset, train_folds, predict,
                   folds: FoldAssignment) -> EvaluationReport:
    """Cross-validation of a fold trainer and its predictor over ``folds``,
    which puts each row of ``dataset`` in one of ``folds.k`` folds (an
    assignment of another length raises DataFormatError).  Predictions are
    pooled in (fold, within-fold) order, so a fixed assignment gives a fixed
    report.

    ``train_folds(dataset, folds)`` returns the k fold models, model f fitted
    on the rows outside fold f (``naive_bayes.train_folds``,
    ``svm.train_folds``), and ``predict(model, X)`` maps (n, d) feature rows
    to (n, k) distributions.  When the models have a ``converged`` field, as
    an SVM's do, the report keeps them in ``svm_folds`` and warns if any did
    not converge.
    """
    tests = [folds.test_mask(f, len(dataset)) for f in range(folds.k)]
    models = train_folds(dataset, folds)
    actual, dists, baselines = [], [], []
    for test, model in zip(tests, models):
        dists.append(predict(model, dataset.features[test]))
        counts = np.bincount(dataset.y[~test], minlength=len(CLASS_LABELS))
        baselines.append(np.broadcast_to(smoothed_class_distribution(counts), dists[-1].shape))
        actual.append(dataset.y[test])

    report = evaluate(np.concatenate(actual), np.concatenate(dists),
                      np.concatenate(baselines), fold_digest=folds.digest())
    if hasattr(models[0], "converged"):
        failed = sum(not m.converged for m in models)
        warnings = (f"SMO did not converge in {failed} of {len(models)} folds",) if failed else ()
        report = report._replace(svm_folds=tuple(models), warnings=report.warnings + warnings)
    return report


def _fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}f}"


def render_text(report: EvaluationReport) -> str:
    """Plain-text report: summary block, per-class table, confusion matrix."""
    lines = ["=== Summary ==="]
    width = 40
    lines.append(
        f"{'Correctly classified instances':{width}s}"
        f"{report.correct:6d}    {_fmt(100 * report.accuracy)} %"
    )
    lines.append(
        f"{'Incorrectly classified instances':{width}s}"
        f"{report.incorrect:6d}    {_fmt(100 * (1 - report.accuracy))} %"
    )
    lines.append(f"{'Kappa statistic':{width}s}{_fmt(report.kappa):>10s}")
    lines.append(f"{'Mean absolute error':{width}s}{_fmt(report.mae):>10s}")
    lines.append(f"{'Root mean squared error':{width}s}{_fmt(report.rmse):>10s}")
    if report.rae is not None:
        lines.append(
            f"{'Relative absolute error':{width}s}{_fmt(report.rae):>10s} %"
        )
        lines.append(
            f"{'Root relative squared error':{width}s}{_fmt(report.rrse):>10s} %"
        )
    lines.append(f"{'Total number of instances':{width}s}{report.n:6d}")
    if report.fold_digest:
        lines.append(f"{'Fold assignment digest':{width}s}{report.fold_digest:>12s}")

    lines.append("")
    lines.append("=== Detailed accuracy by class ===")
    header = ("TP Rate", "FP Rate", "Precision", "Recall", "F-Measure", "ROC Area")
    lines.append("".join(f"{h:>11s}" for h in header) + "   Class")
    for pc in report.per_class + (report.weighted,):
        label = "Weighted avg." if pc is report.weighted else pc.label
        lines.append("".join(f"{_fmt(getattr(pc, name), 3):>11s}" for name in METRICS)
                     + f"   {label}")

    lines.append("")
    lines.append("=== Confusion matrix ===")
    tags = "ab"  # one per class of CLASS_LABELS
    lines.append(" ".join(f"{t:>5s}" for t in tags) + "   <-- classified as")
    for ci, label in enumerate(CLASS_LABELS):
        lines.append(" ".join(f"{int(v):5d}" for v in report.confusion[ci])
                     + f" |  {tags[ci]} = {label}")
    for warning in report.warnings:
        lines.append(f"note: {warning}")
    return "\n".join(lines) + "\n"


def render_machine(report: EvaluationReport) -> str:
    """Key-value report with every field at full precision."""
    lines = [
        f"classes = {','.join(CLASS_LABELS)}",
        f"instances = {report.n}",
        f"correct = {report.correct}",
        f"incorrect = {report.incorrect}",
        f"accuracy = {report.accuracy:.17g}",
        f"kappa = {report.kappa:.17g}",
        f"mae = {report.mae:.17g}",
        f"rmse = {report.rmse:.17g}",
    ]
    if report.rae is not None:
        lines.append(f"rae_percent = {report.rae:.17g}")
        lines.append(f"rrse_percent = {report.rrse:.17g}")
    for ci, actual in enumerate(CLASS_LABELS):
        for pi, predicted in enumerate(CLASS_LABELS):
            lines.append(f"confusion.{actual}.{predicted} = {int(report.confusion[ci, pi])}")
    for pc in report.per_class + (report.weighted,):
        prefix = "weighted" if pc is report.weighted else f"class.{pc.label}"
        lines += [f"{prefix}.{name} = {getattr(pc, name):.17g}" for name in METRICS]
    if report.fold_digest:
        lines.append(f"fold_digest = {report.fold_digest}")
    if report.svm_folds:
        converged = sum(m.converged for m in report.svm_folds)
        lines.append(f"svm_folds_converged = {converged}/{len(report.svm_folds)}")
    for f, m in enumerate(report.svm_folds):
        lines += [f"svm_fold.{f}.stop = {m.stop}", f"svm_fold.{f}.iterations = {m.iterations}",
                  f"svm_fold.{f}.kkt_violation = {m.kkt_violation:.17g}",
                  f"svm_fold.{f}.n_support = {len(m.coefficients)}"]
    for i, warning in enumerate(report.warnings):
        lines.append(f"warning.{i} = {warning}")
    return "\n".join(lines) + "\n"
