"""Naive Bayes classifier: frequency or uniform priors and one Gaussian per
(class, attribute), for continuous attributes such as daily percent changes.

The Gaussians are fitted with one of two estimators:

``rounded`` (default)
    Discretizing estimator: the attribute's training column defines a
    precision (the mean gap between consecutive distinct values); values are
    rounded to the nearest multiple of that precision before the mean and
    population standard deviation are taken, and the deviation is floored at
    precision / 6.  Training-time only — prediction never rounds inputs.

``plain``
    Arithmetic mean and population standard deviation of the raw values.

Scores are accumulated in log space and normalized by max-subtraction, so
wide schemas and extreme feature values cannot overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, KeyValueFile
from .errors import DataFormatError, TrainingError

#: Lower bound on any fitted standard deviation (percent units).
SIGMA_FLOOR = 1e-9

#: Precision used when a column has fewer than two distinct values.
DEFAULT_PRECISION = 0.01


@dataclass(frozen=True)
class GaussianParams:
    """Mean and standard deviation of one (class, attribute) Gaussian."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise DataFormatError("sigma must be positive and parameters finite")


@dataclass(frozen=True)
class NaiveBayesModel:
    class_labels: tuple
    priors: np.ndarray  # aligned with class_labels
    attribute_names: tuple
    gaussians: dict  # (class_index, attr_index) -> GaussianParams
    precisions: dict = field(default_factory=dict)  # attr_index -> rounding precision
    estimator: str = "rounded"

    def n_attributes(self) -> int:
        return len(self.attribute_names)


def estimate_priors(dataset: Dataset) -> np.ndarray:
    """Class frequencies count(C)/n, in dataset.class_labels order."""
    counts = dataset.class_counts()
    zero = [c for c, cnt in counts.items() if cnt == 0]
    if zero:
        raise TrainingError(f"class with zero training samples: {zero}")
    n = len(dataset)
    return np.array([counts[c] / n for c in dataset.class_labels])


def fit_gaussian(values) -> GaussianParams:
    """Fit mean and population standard deviation, flooring sigma."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataFormatError("cannot fit a Gaussian to an empty value list")
    return GaussianParams(float(arr.mean()), max(float(arr.std()), SIGMA_FLOOR))


def attribute_precision(values) -> float:
    """Mean gap between consecutive distinct sorted values of a column."""
    distinct = np.unique(np.asarray(values, dtype=float))
    if distinct.size < 2:
        return DEFAULT_PRECISION
    return float((distinct[-1] - distinct[0]) / (distinct.size - 1))


def round_to_precision(values, precision: float):
    """Round values to the nearest multiple of precision (ties to even)."""
    return np.rint(np.asarray(values, dtype=float) / precision) * precision


def gaussian_pdf(x: float, params: GaussianParams) -> float:
    """Gaussian density (1 / (sqrt(2 pi) sigma)) exp(-(x - mu)^2 / (2 sigma^2))."""
    z = (x - params.mu) / params.sigma
    return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * params.sigma)


def train(dataset: Dataset, *, priors: str = "frequency",
          estimator: str = "rounded") -> NaiveBayesModel:
    """Fit priors and one Gaussian per (class, attribute).

    ``priors``: "frequency" (class counts / n) or "uniform".
    ``estimator``: "rounded" or "plain", see the module docstring.
    """
    if len(dataset) == 0:
        raise TrainingError("empty training set")
    if priors not in ("frequency", "uniform"):
        raise DataFormatError(f"unknown priors mode {priors!r}")
    if estimator not in ("rounded", "plain"):
        raise DataFormatError(f"unknown estimator mode {estimator!r}")
    prior_vec = estimate_priors(dataset)  # raises for a class without samples
    if priors == "uniform":
        prior_vec = np.full(len(dataset.class_labels), 1.0 / len(dataset.class_labels))

    labels = np.array(dataset.labels)
    masks = [labels == c for c in dataset.class_labels]
    gaussians = {}
    precisions = {}
    for ai, name in enumerate(dataset.attribute_names):
        column, floor = dataset.features[:, ai], SIGMA_FLOOR
        with np.errstate(all="ignore"):  # a non-finite fit is reported below
            if estimator == "rounded":
                precisions[ai] = attribute_precision(column)
                column = round_to_precision(column, precisions[ai])
                floor = max(SIGMA_FLOOR, precisions[ai] / 6.0)
            for ci, mask in enumerate(masks):
                vals = column[mask]
                mu, sigma = float(vals.mean()), float(vals.std())
                if not (math.isfinite(mu) and math.isfinite(sigma)):
                    raise DataFormatError(
                        f"attribute {name}, class {dataset.class_labels[ci]}: no finite "
                        "Gaussian fit; a feature value is too large in magnitude"
                    )
                gaussians[(ci, ai)] = GaussianParams(mu, max(sigma, floor))
    return NaiveBayesModel(dataset.class_labels, prior_vec, dataset.attribute_names,
                           gaussians, precisions, estimator)


def predict_proba(model: NaiveBayesModel, X) -> np.ndarray:
    """Posterior distributions over model.class_labels, one row per sample of
    X (n, d).

    Scores accumulate per class from log(prior), one attribute at a time,
    with the log normalizer as one scalar per (class, attribute): the same
    operations in the same order for every row, so a row's posterior does not
    depend on the batch it is in.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_attributes():
        raise DataFormatError(
            f"samples have shape {X.shape[1:]}, model expects {model.n_attributes()} features"
        )
    scores = np.empty((X.shape[0], len(model.class_labels)))
    scores[:] = np.log(model.priors)
    for ci in range(len(model.class_labels)):
        column = scores[:, ci]
        for ai in range(model.n_attributes()):
            params = model.gaussians[(ci, ai)]
            with np.errstate(over="ignore"):  # an overflow is reported below
                z = (X[:, ai] - params.mu) / params.sigma
                column += -0.5 * z * z - math.log(math.sqrt(2.0 * math.pi) * params.sigma)
    top = scores.max(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(top))
    if bad.size:  # every class's score overflowed to -inf, or a feature is NaN
        raise DataFormatError(
            f"sample {bad[0] + 1}: no finite posterior; a feature is NaN or too "
            "large in magnitude for the Gaussian log-likelihood"
        )
    scores -= top
    weights = np.exp(scores)
    return weights / weights.sum(axis=1, keepdims=True)


def predict_distribution(model: NaiveBayesModel, x) -> np.ndarray:
    """Posterior distribution over model.class_labels for one sample."""
    return predict_proba(model, np.asarray(x, dtype=float)[None])[0]


def classify(model: NaiveBayesModel, x) -> str:
    """Maximum-posterior class; ties go to the first class in class_labels."""
    return model.class_labels[int(np.argmax(predict_distribution(model, x)))]


def save_model(model: NaiveBayesModel, path) -> None:
    """Serialize as flat ``key = value`` text, round-trip safe to 17 digits."""
    lines = KeyValueFile.header("nb") + [
        f"classes = {','.join(model.class_labels)}",
        f"attributes = {','.join(model.attribute_names)}",
        f"estimator = {model.estimator}",
    ]
    for ci, c in enumerate(model.class_labels):
        lines.append(f"prior.{c} = {model.priors[ci]:.17g}")
    for ai in sorted(model.precisions):
        lines.append(f"precision.{model.attribute_names[ai]} = {model.precisions[ai]:.17g}")
    for (ci, ai), params in sorted(model.gaussians.items()):
        key = f"gaussian.{model.class_labels[ci]}.{model.attribute_names[ai]}"
        lines.append(f"{key}.mu = {params.mu:.17g}")
        lines.append(f"{key}.sigma = {params.sigma:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> NaiveBayesModel:
    """Inverse of :func:`save_model`.  A missing, malformed or extra entry
    raises DataFormatError."""
    f = KeyValueFile(path, "nb", "a naive Bayes")
    class_labels = tuple(f.text("classes").split(","))
    attribute_names = tuple(f.text("attributes").split(","))
    estimator = f.choice("estimator", ("rounded", "plain"))
    priors = np.array([f.number(f"prior.{c}") for c in class_labels])
    precisions = {}
    if estimator == "rounded":
        precisions = {ai: f.number(f"precision.{a}") for ai, a in enumerate(attribute_names)}
    gaussians = {
        (ci, ai): GaussianParams(f.number(f"gaussian.{c}.{a}.mu"),
                                 f.number(f"gaussian.{c}.{a}.sigma"))
        for ci, c in enumerate(class_labels) for ai, a in enumerate(attribute_names)
    }
    f.finish()
    return NaiveBayesModel(class_labels, priors, attribute_names, gaussians, precisions,
                           estimator)
