"""setcast: direction forecasting for the Stock Exchange of Thailand index.

A small, fully deterministic toolkit pairing a Gaussian naive Bayes
classifier with a kernel SVM trained by sequential minimal optimization,
evaluated through stratified cross-validation with a complete
confusion-matrix metric suite.  The API lives in the modules: ``dataset``,
``naive_bayes``, ``svm``, ``evaluation`` and ``cli``, each imported on first
access as an attribute of the package.
"""
import sys

from .errors import DataFormatError, TrainingError

__version__ = "0.1.0"

_SUBMODULES = ("cli", "dataset", "evaluation", "naive_bayes", "svm")

__all__ = ["DataFormatError", "TrainingError", *_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # __import__, unlike importlib.import_module, is timed by -X importtime
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
