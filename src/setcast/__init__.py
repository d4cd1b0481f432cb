"""setcast: direction forecasting for the Stock Exchange of Thailand index.

A small, fully deterministic toolkit pairing a Gaussian naive Bayes
classifier with a kernel SVM trained by sequential minimal optimization,
evaluated through stratified cross-validation with a complete
confusion-matrix metric suite.  The API lives in the modules: ``dataset``,
``naive_bayes``, ``svm``, ``evaluation`` and ``cli``.
"""
from . import dataset, evaluation, naive_bayes, svm
from .errors import DataFormatError, TrainingError

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "TrainingError",
    "cli",
    "dataset",
    "evaluation",
    "naive_bayes",
    "svm",
    "__version__",
]
