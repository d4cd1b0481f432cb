"""setcast: direction forecasting for the Stock Exchange of Thailand index.

A small, fully deterministic toolkit pairing a Gaussian/categorical naive
Bayes classifier with a kernel SVM trained by sequential minimal
optimization, evaluated through stratified cross-validation with a complete
confusion-matrix metric suite.
"""
from . import cli, dataset, evaluation, naive_bayes, svm
from .dataset import (
    CLASS_LABELS,
    DOWN,
    UP,
    Dataset,
    FoldAssignment,
    build_training_table,
    label_direction,
    load_raw_series,
    load_samples,
    percent_change,
    save_samples,
    stratified_folds,
)
from .errors import DataFormatError, TrainingError
from .evaluation import (
    EvaluationReport,
    NaiveBayesLearner,
    SvmLearner,
    cross_validate,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_LABELS",
    "DOWN",
    "UP",
    "Dataset",
    "DataFormatError",
    "EvaluationReport",
    "FoldAssignment",
    "NaiveBayesLearner",
    "SvmLearner",
    "TrainingError",
    "build_training_table",
    "cli",
    "cross_validate",
    "dataset",
    "evaluate",
    "evaluation",
    "label_direction",
    "load_raw_series",
    "load_samples",
    "naive_bayes",
    "percent_change",
    "save_samples",
    "stratified_folds",
    "svm",
    "__version__",
]
