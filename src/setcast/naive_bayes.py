"""Naive Bayes classifier: frequency or uniform priors and one Gaussian per
(class, attribute), for continuous attributes such as daily percent changes.
A model is two priors and two (2, d) arrays, ``mu`` and ``sigma``.

The Gaussians are fitted with one of two estimators:

``rounded`` (default)
    Discretizing estimator: the attribute's training column defines a
    precision (the mean gap between consecutive distinct values); values are
    rounded to the nearest multiple of that precision before the mean and
    population standard deviation are taken, and the deviation is floored at
    precision / 6.  Training-time only — prediction never rounds inputs, and
    a model file records only ``estimator = rounded``, not the precisions.

``plain``
    Arithmetic mean and population standard deviation of the raw values.

Scores are accumulated in log space and normalized by max-subtraction, so
wide schemas and extreme feature values cannot overflow.  Priors and
posteriors are over the two classes of ``dataset.CLASS_LABELS``, in that
order; :func:`predict_proba` is the prediction path, one row per sample,
and :func:`train_folds` fits the folds of a cross-validation.
Model files are ``dataset.KeyValueFile`` text; every sigma must be positive.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dataset import CLASS_LABELS, Dataset, FoldAssignment, KeyValueFile
from .errors import DataFormatError, TrainingError

#: Lower bound on any fitted standard deviation (percent units).
SIGMA_FLOOR = 1e-9

#: Precision used when a column has fewer than two distinct values.
DEFAULT_PRECISION = 0.01


class NaiveBayesModel(NamedTuple):
    """Priors (2,) and Gaussian means and deviations (2, d), rows aligned with
    CLASS_LABELS and columns with ``attribute_names``."""

    priors: np.ndarray
    attribute_names: tuple
    mu: np.ndarray
    sigma: np.ndarray  # positive
    estimator: str = "rounded"


def estimate_priors(dataset: Dataset) -> np.ndarray:
    """Class frequencies count(C)/n, in CLASS_LABELS order."""
    counts = dataset.class_counts()
    zero = [c for c, cnt in zip(CLASS_LABELS, counts) if cnt == 0]
    if zero:
        raise TrainingError(f"class with zero training samples: {zero}")
    return counts / len(dataset)


def attribute_precision(values) -> float:
    """Mean gap between consecutive distinct sorted values of a column of
    non-NaN values: (max - min) / (number of distinct values - 1)."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=None)
    distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1])
    if distinct < 2:
        return DEFAULT_PRECISION
    return float((ordered[-1] - ordered[0]) / (distinct - 1))


def round_to_precision(values, precision: float):
    """Round values to the nearest multiple of precision (ties to even)."""
    return np.rint(np.asarray(values, dtype=float) / precision) * precision


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
        prior_vec = np.full(len(CLASS_LABELS), 1.0 / len(CLASS_LABELS))

    masks = [dataset.y == ci for ci in range(len(CLASS_LABELS))]
    mu = np.empty((len(CLASS_LABELS), dataset.features.shape[1]))
    sigma = np.empty_like(mu)
    for ai, name in enumerate(dataset.attribute_names):
        column, floor = dataset.features[:, ai], SIGMA_FLOOR
        with np.errstate(all="ignore"):  # a non-finite fit is reported below
            if estimator == "rounded":
                precision = attribute_precision(column)
                column = round_to_precision(column, precision)
                floor = max(SIGMA_FLOOR, precision / 6.0)
            for ci, mask in enumerate(masks):
                vals = column[mask]
                mu[ci, ai], sigma[ci, ai] = vals.mean(), max(vals.std(), floor)
                if not (math.isfinite(mu[ci, ai]) and math.isfinite(sigma[ci, ai])):
                    raise DataFormatError(
                        f"attribute {name}, class {CLASS_LABELS[ci]}: no finite "
                        "Gaussian fit; a feature value is too large in magnitude"
                    )
    return NaiveBayesModel(prior_vec, dataset.attribute_names, mu, sigma, estimator)


def train_folds(dataset: Dataset, folds: FoldAssignment, *, priors: str = "frequency",
                estimator: str = "rounded") -> list:
    """The ``folds.k`` models of a cross-validation over ``folds``: model f is
    :func:`train` on the rows outside fold f."""
    return [train(dataset.subset(~folds.test_mask(f, len(dataset))), priors=priors,
                  estimator=estimator) for f in range(folds.k)]


def predict_proba(model: NaiveBayesModel, X) -> np.ndarray:
    """Posterior distributions over CLASS_LABELS, one row per sample of
    X (n, d).

    Scores accumulate per class from log(prior), one attribute at a time,
    with the log normalizer as one scalar per (class, attribute): the same
    operations in the same order for every row, so a row's posterior does not
    depend on the batch it is in.
    """
    X = np.asarray(X, dtype=float)
    d = model.mu.shape[1]
    if X.ndim != 2 or X.shape[1] != d:
        raise DataFormatError(f"samples have shape {X.shape[1:]}, model expects {d} features")
    scores = np.empty((X.shape[0], len(CLASS_LABELS)))
    scores[:] = np.log(model.priors)
    for ci, column in enumerate(scores.T):
        for ai, (mu, sigma) in enumerate(zip(model.mu[ci].tolist(), model.sigma[ci].tolist())):
            with np.errstate(over="ignore"):  # an overflow is reported below
                z = (X[:, ai] - mu) / sigma
                column += -0.5 * z * z - math.log(math.sqrt(2.0 * math.pi) * sigma)
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
    """Posterior distribution over CLASS_LABELS for one sample."""
    return predict_proba(model, np.asarray(x, dtype=float)[None])[0]


def save_model(model: NaiveBayesModel, path) -> None:
    """Serialize as flat ``key = value`` text, round-trip safe to 17 digits."""
    lines = [
        f"classes = {','.join(CLASS_LABELS)}",
        f"attributes = {','.join(model.attribute_names)}",
        f"estimator = {model.estimator}",
    ] + [f"prior.{c} = {p:.17g}" for c, p in zip(CLASS_LABELS, model.priors)]
    for ci, c in enumerate(CLASS_LABELS):
        for ai, a in enumerate(model.attribute_names):
            lines.append(f"gaussian.{c}.{a}.mu = {model.mu[ci, ai]:.17g}")
            lines.append(f"gaussian.{c}.{a}.sigma = {model.sigma[ci, ai]:.17g}")
    KeyValueFile.write(path, "nb", lines)


def load_model(source) -> NaiveBayesModel:
    """Inverse of :func:`save_model`, from a path or a read KeyValueFile.  A
    missing, malformed or extra entry, a ``classes`` line other than
    ``UP,DOWN``, or a prior or sigma that is not positive raises
    DataFormatError."""
    f = KeyValueFile.of(source).require("nb", "a naive Bayes")
    f.choice("classes", (",".join(CLASS_LABELS),))
    attribute_names = tuple(f.text("attributes").split(","))
    estimator = f.choice("estimator", ("rounded", "plain"))
    priors = np.array([f.positive(f"prior.{c}") for c in CLASS_LABELS])
    cells = np.array([[(f.number(f"gaussian.{c}.{a}.mu"), f.positive(f"gaussian.{c}.{a}.sigma"))
                       for a in attribute_names] for c in CLASS_LABELS])
    f.finish()
    return NaiveBayesModel(priors, attribute_names, cells[..., 0], cells[..., 1], estimator)
