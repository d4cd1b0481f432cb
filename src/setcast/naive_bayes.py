"""Naive Bayes classifier: frequency or uniform priors, Gaussian likelihoods
for continuous attributes, smoothed frequency tables for categorical ones.

Continuous attributes are modeled per class by a Gaussian fitted with one of
two estimators:

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

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class GaussianParams:
    """Mean and standard deviation of one (class, attribute) Gaussian."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise DataFormatError("sigma must be positive and parameters finite")


@dataclass(frozen=True)
class CategoricalTable:
    """Smoothed conditional-probability table for one (class, attribute) pair.

    ``counts`` holds per-category training counts within the class,
    ``overall`` the category counts over the whole training set (used by the
    ``reciprocal_fallback`` smoothing variant).
    """

    counts: dict
    class_total: int
    overall: dict
    smoothing: str = "add_one"

    def probability(self, value) -> float:
        seen = len(self.counts)
        count = self.counts.get(value, 0)
        if self.smoothing == "add_one":
            return (count + 1) / (self.class_total + seen)
        # reciprocal_fallback: raw frequency ratio, replacing a zero count by the
        # reciprocal of the value's frequency in the whole training set; a
        # value absent from training entirely counts as one phantom occurrence.
        if count > 0:
            return count / self.class_total
        overall = self.overall.get(value, 0)
        total = sum(self.overall.values())
        return 1 / overall if overall > 0 else 1 / (total + 1)


@dataclass(frozen=True)
class NaiveBayesModel:
    class_labels: tuple
    priors: np.ndarray  # aligned with class_labels
    attribute_names: tuple
    kinds: tuple  # CONTINUOUS / CATEGORICAL per attribute
    gaussians: dict  # (class_index, attr_index) -> GaussianParams
    tables: dict = field(default_factory=dict)  # (class_index, attr_index) -> CategoricalTable
    precisions: dict = field(default_factory=dict)  # attr_index -> rounding precision
    estimator: str = "rounded"
    smoothing: str = "add_one"

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


def fit_gaussian(values, sigma_floor: float = SIGMA_FLOOR) -> GaussianParams:
    """Fit mean and population standard deviation, flooring sigma."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataFormatError("cannot fit a Gaussian to an empty value list")
    return GaussianParams(float(arr.mean()), max(float(arr.std()), sigma_floor))


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


def categorical_likelihood(model: NaiveBayesModel, class_label, attribute, value) -> float:
    """Smoothed P(value | class) for a categorical attribute."""
    ci = model.class_labels.index(class_label)
    if attribute not in model.attribute_names:
        raise DataFormatError(f"unknown attribute {attribute!r}")
    ai = model.attribute_names.index(attribute)
    if model.kinds[ai] != CATEGORICAL:
        raise DataFormatError(f"attribute {attribute!r} is not categorical")
    return model.tables[(ci, ai)].probability(value)


def train(
    dataset: Dataset,
    *,
    kinds=None,
    priors: str = "frequency",
    smoothing: str = "add_one",
    estimator: str = "rounded",
    sigma_floor: float = SIGMA_FLOOR,
) -> NaiveBayesModel:
    """Fit priors and per-(class, attribute) likelihood models.

    ``priors``: "frequency" (class counts / n) or "uniform".
    ``smoothing``: "add_one" or "reciprocal_fallback", see CategoricalTable.
    ``estimator``: "rounded" or "plain", see the module docstring.
    """
    if len(dataset) == 0:
        raise TrainingError("empty training set")
    if priors not in ("frequency", "uniform"):
        raise DataFormatError(f"unknown priors mode {priors!r}")
    if smoothing not in ("add_one", "reciprocal_fallback"):
        raise DataFormatError(f"unknown smoothing mode {smoothing!r}")
    if estimator not in ("rounded", "plain"):
        raise DataFormatError(f"unknown estimator mode {estimator!r}")
    counts = dataset.class_counts()
    zero = [c for c, cnt in counts.items() if cnt == 0]
    if zero:
        raise TrainingError(f"class with zero training samples: {zero}")
    if kinds is None:
        kinds = (CONTINUOUS,) * len(dataset.attribute_names)
    kinds = tuple(kinds)
    if len(kinds) != len(dataset.attribute_names):
        raise DataFormatError("one kind required per attribute")

    prior_vec = (
        estimate_priors(dataset)
        if priors == "frequency"
        else np.full(len(dataset.class_labels), 1.0 / len(dataset.class_labels))
    )

    labels = np.array(dataset.labels)
    masks = [labels == c for c in dataset.class_labels]
    gaussians = {}
    tables = {}
    precisions = {}
    for ai, kind in enumerate(kinds):
        column = dataset.features[:, ai]
        if kind == CONTINUOUS and estimator == "rounded":
            precisions[ai] = attribute_precision(column)
        if kind == CATEGORICAL:
            overall_vals, overall_counts = np.unique(column, return_counts=True)
            overall = {float(v): int(c) for v, c in zip(overall_vals, overall_counts)}
        for ci, mask in enumerate(masks):
            vals = column[mask]
            if kind == CONTINUOUS:
                if estimator == "rounded":
                    rounded = round_to_precision(vals, precisions[ai])
                    floor = max(sigma_floor, precisions[ai] / 6.0)
                    gaussians[(ci, ai)] = GaussianParams(
                        float(rounded.mean()), max(float(rounded.std()), floor)
                    )
                else:
                    gaussians[(ci, ai)] = fit_gaussian(vals, sigma_floor)
            else:
                seen_vals, seen_counts = np.unique(vals, return_counts=True)
                tables[(ci, ai)] = CategoricalTable(
                    {float(v): int(cnt) for v, cnt in zip(seen_vals, seen_counts)},
                    int(vals.size),
                    overall,
                    smoothing,
                )
    return NaiveBayesModel(
        dataset.class_labels,
        prior_vec,
        dataset.attribute_names,
        kinds,
        gaussians,
        tables,
        precisions,
        estimator,
        smoothing,
    )


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
        for ai, kind in enumerate(model.kinds):
            if kind == CONTINUOUS:
                params = model.gaussians[(ci, ai)]
                with np.errstate(over="ignore"):  # an overflow is reported below
                    z = (X[:, ai] - params.mu) / params.sigma
                    column += -0.5 * z * z - math.log(math.sqrt(2.0 * math.pi) * params.sigma)
            else:
                table = model.tables[(ci, ai)]
                column += [math.log(table.probability(float(v))) for v in X[:, ai]]
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
    lines = [
        "model = nb",
        f"classes = {','.join(model.class_labels)}",
        f"attributes = {','.join(model.attribute_names)}",
        f"kinds = {','.join(model.kinds)}",
        f"estimator = {model.estimator}",
        f"smoothing = {model.smoothing}",
    ]
    for ci, c in enumerate(model.class_labels):
        lines.append(f"prior.{c} = {model.priors[ci]:.17g}")
    for ai in sorted(model.precisions):
        lines.append(f"precision.{model.attribute_names[ai]} = {model.precisions[ai]:.17g}")
    for (ci, ai), params in sorted(model.gaussians.items()):
        key = f"gaussian.{model.class_labels[ci]}.{model.attribute_names[ai]}"
        lines.append(f"{key}.mu = {params.mu:.17g}")
        lines.append(f"{key}.sigma = {params.sigma:.17g}")
    for (ci, ai), table in sorted(model.tables.items()):
        key = f"table.{model.class_labels[ci]}.{model.attribute_names[ai]}"
        lines.append(f"{key}.total = {table.class_total}")
        for value in sorted(table.counts):
            lines.append(f"{key}.count.{value:.17g} = {table.counts[value]}")
        for value in sorted(table.overall):
            lines.append(f"{key}.overall.{value:.17g} = {table.overall[value]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> NaiveBayesModel:
    """Inverse of :func:`save_model`.  A missing, malformed, extra or
    inconsistent entry raises DataFormatError."""
    f = KeyValueFile(path, "nb", "a naive Bayes")
    class_labels = tuple(f.text("classes").split(","))
    attribute_names = tuple(f.text("attributes").split(","))
    kinds = tuple(f.text("kinds").split(","))
    if len(kinds) != len(attribute_names) or not set(kinds) <= {CONTINUOUS, CATEGORICAL}:
        raise DataFormatError(f"{path}: one continuous or categorical kind per attribute")
    estimator = f.choice("estimator", ("rounded", "plain"))
    smoothing = f.choice("smoothing", ("add_one", "reciprocal_fallback"))
    priors = np.array([f.number(f"prior.{c}") for c in class_labels])
    precisions = {}
    gaussians = {}
    tables = {}
    for ai, a in enumerate(attribute_names):
        if kinds[ai] == CONTINUOUS:
            if estimator == "rounded":
                precisions[ai] = f.number(f"precision.{a}")
            for ci, c in enumerate(class_labels):
                gaussians[(ci, ai)] = GaussianParams(
                    f.number(f"gaussian.{c}.{a}.mu"), f.number(f"gaussian.{c}.{a}.sigma")
                )
            continue
        merged = {}  # category counts over every class: each table's ``overall``
        for ci, c in enumerate(class_labels):
            key = f"table.{c}.{a}"
            total = f.integer(f"{key}.total")
            counts, overall = (
                {f.convert(key, v, float): f.convert(key, n, int)
                 for v, n in f.take_prefix(f"{key}.{part}.").items()}
                for part in ("count", "overall")
            )
            if sum(counts.values()) != total:
                raise DataFormatError(f"{path}: {key} counts do not sum to its total")
            for v, n in counts.items():
                merged[v] = merged.get(v, 0) + n
            tables[(ci, ai)] = CategoricalTable(counts, total, overall, smoothing)
        if any(tables[(ci, ai)].overall != merged for ci in range(len(class_labels))):
            raise DataFormatError(f"{path}: overall counts of {a} disagree with its class counts")
    f.finish()
    return NaiveBayesModel(
        class_labels,
        priors,
        attribute_names,
        kinds,
        gaussians,
        tables,
        precisions,
        estimator,
        smoothing,
    )
