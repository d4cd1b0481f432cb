import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setcast import dataset as ds
from setcast import naive_bayes as nb
from setcast.errors import DataFormatError, TrainingError

from conftest import toy_dataset


# ------------------------------------------------------------------------ priors
def test_fixture_priors(market_data):
    np.testing.assert_allclose(nb.estimate_priors(market_data), [16 / 30, 14 / 30])


def test_balanced_priors():
    data = toy_dataset([[0], [1]], [[2], [3]])
    np.testing.assert_allclose(nb.estimate_priors(data), [0.5, 0.5])


def test_single_class_rejected():
    data = ds.Dataset(np.zeros((3, 1)), [0] * 3, ("x",))  # all UP
    with pytest.raises(TrainingError):
        nb.estimate_priors(data)
    with pytest.raises(TrainingError):
        nb.train(data)


def test_empty_training_set_rejected():
    with pytest.raises(TrainingError, match="^empty training set$"):
        nb.train(ds.Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), ("x",)))


@pytest.mark.parametrize("options, message", [
    ({"priors": "laplace"}, "unknown priors mode 'laplace'"),
    ({"estimator": "kernel"}, "unknown estimator mode 'kernel'"),
])
def test_unknown_training_modes_rejected(market_data, options, message):
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        nb.train(market_data, **options)


def test_uniform_priors_option(market_data):
    model = nb.train(market_data, priors="uniform")
    np.testing.assert_allclose(model.priors, [0.5, 0.5])


# ----------------------------------------------------------- precision rounding
def test_attribute_precision():
    assert nb.attribute_precision([1.0, 2.0, 4.0]) == pytest.approx(1.5)
    assert nb.attribute_precision([2.0, 2.0]) == nb.DEFAULT_PRECISION


def _unique_precision(values):
    """attribute_precision as np.unique gives it, the reference."""
    distinct = np.unique(np.asarray(values, dtype=float))
    if distinct.size < 2:
        return nb.DEFAULT_PRECISION
    return float((distinct[-1] - distinct[0]) / (distinct.size - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, 1e300])
                | st.floats(allow_nan=False), max_size=50))
@example([])
@example([-0.0])
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, -2.5, -2.5])
@example([3.0] * 7)
@example([[0.5, -3.0], [2.0, 0.5]])  # any shape reads as one column
def test_attribute_precision_matches_unique(values):
    with np.errstate(over="ignore"):  # e.g. 1e308 - (-1e308) is inf in both
        got, want = nb.attribute_precision(values), _unique_precision(values)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_round_to_precision():
    np.testing.assert_allclose(nb.round_to_precision([2.6], 1.5), [3.0])
    # ties round to even multiples
    np.testing.assert_allclose(nb.round_to_precision([0.75, 2.25], 1.5), [0.0, 3.0])


def test_rounded_estimator_matches_independent_recomputation(market_data):
    """Differential check of the default trainer against a from-scratch
    reimplementation of the precision-rounding estimator."""
    model = nb.train(market_data)
    labels = np.array([ds.CLASS_LABELS[c] for c in market_data.y], dtype=object)
    for ai in range(6):
        column = market_data.features[:, ai]
        distinct = np.unique(column)
        precision = (distinct[-1] - distinct[0]) / (len(distinct) - 1)
        for ci, c in enumerate(ds.CLASS_LABELS):
            rounded = np.rint(column[labels == c] / precision) * precision
            mu = rounded.mean()
            sigma = max(rounded.std(), precision / 6)
            assert model.mu[ci, ai] == pytest.approx(mu, abs=1e-12)
            assert model.sigma[ci, ai] == pytest.approx(sigma, abs=1e-12)


def _reference_train(dataset, priors="frequency", estimator="rounded"):
    """``nb.train`` as one loop over (attribute, class) cells, each fitted
    from 1-D mean and std calls with its own finite check: the reference for
    the array fit."""
    prior_vec = nb.estimate_priors(dataset)
    if priors == "uniform":
        prior_vec = np.full(len(ds.CLASS_LABELS), 1.0 / len(ds.CLASS_LABELS))
    masks = [dataset.y == ci for ci in range(len(ds.CLASS_LABELS))]
    mu = np.empty((len(ds.CLASS_LABELS), dataset.features.shape[1]))
    sigma = np.empty_like(mu)
    for ai, name in enumerate(dataset.attribute_names):
        column, floor = dataset.features[:, ai], nb.SIGMA_FLOOR
        with np.errstate(all="ignore"):
            if estimator == "rounded":
                precision = nb.attribute_precision(column)
                column = nb.round_to_precision(column, precision)
                floor = max(nb.SIGMA_FLOOR, precision / 6.0)
            for ci, mask in enumerate(masks):
                vals = column[mask]
                mu[ci, ai], sigma[ci, ai] = vals.mean(), max(vals.std(), floor)
                if not (math.isfinite(mu[ci, ai]) and math.isfinite(sigma[ci, ai])):
                    raise DataFormatError(
                        f"attribute {name}, class {ds.CLASS_LABELS[ci]}: no finite "
                        "Gaussian fit; a feature value is too large in magnitude"
                    )
    return nb.NaiveBayesModel(prior_vec, dataset.attribute_names, mu, sigma, estimator)


@st.composite
def gaussian_training_sets(draw):
    """Both classes with 1-30 rows each, 1-6 columns each at a scale from
    1e-3 to 1e3 or at 1e300 (whose variance overflows), values rounded to
    0-4 decimals, and some columns constant."""
    n_up, n_down = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    X = draw(hnp.arrays(float, (n_up + n_down, d), elements=st.floats(-4, 4)))
    scales = draw(st.lists(st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e300]),
                           min_size=d, max_size=d))
    X = np.round(X * scales, draw(st.integers(0, 4)))
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, constant] = X[0, constant]
    y = draw(st.permutations([0] * n_up + [1] * n_down))
    return ds.Dataset(X, np.array(y), tuple(f"a{i}" for i in range(d)))


def _fit_outcome(fit, data, priors, estimator):
    """The fitted priors, mu and sigma as bytes, or the error type and message."""
    try:
        model = fit(data, priors=priors, estimator=estimator)
    except (DataFormatError, TrainingError) as error:
        return type(error), str(error)
    return tuple(a.tobytes() for a in (model.priors, model.mu, model.sigma))


@settings(max_examples=300, deadline=None)
@given(gaussian_training_sets(), st.sampled_from(["frequency", "uniform"]),
       st.sampled_from(["rounded", "plain"]))
def test_train_matches_the_per_cell_reference_bit_for_bit(data, priors, estimator):
    assert (_fit_outcome(nb.train, data, priors, estimator)
            == _fit_outcome(_reference_train, data, priors, estimator))


def test_fixture_headline_parameters(market_data):
    """First attribute, first class: the canonical spot check at 4 decimals."""
    model = nb.train(market_data)
    assert round(model.mu[0, 0], 4) == 0.0956  # (UP, NK)
    assert round(model.sigma[0, 0], 4) == 1.5406


def test_plain_estimator_degenerate_class():
    data = toy_dataset([[2.0, 7.0]] * 3, [[5.0, 1.0]] * 4)
    model = nb.train(data, estimator="plain")
    assert (model.sigma == nb.SIGMA_FLOOR).all()
    np.testing.assert_array_equal(model.mu, data.features[[0, 3]])


# ---------------------------------------------------------- predict_distribution
def test_symmetric_posterior():
    data = toy_dataset([[-2.0], [-1.0]], [[1.0], [2.0]])
    model = nb.train(data, estimator="plain")
    dist = nb.predict_distribution(model, [0.0])
    np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-9)
    assert _predicted(model, [[0.0]]) == [ds.UP]  # tie goes to the first class


def test_hand_computed_posterior():
    # UP mean (1,1), DOWN mean (5,1), all stds 1, equal priors; the second
    # feature cancels, leaving P(UP | x=(2,1)) = 1/(1 + e^-4).
    data = toy_dataset([[0.0, 0.0], [2.0, 2.0]], [[4.0, 0.0], [6.0, 2.0]])
    model = nb.train(data, estimator="plain")
    dist = nb.predict_distribution(model, [2.0, 1.0])
    assert dist[0] == pytest.approx(0.9820137900379084, abs=1e-12)


def test_extreme_sample_stays_normalized():
    data = toy_dataset([[0.0], [1.0]], [[10.0], [11.0]])
    model = nb.train(data, estimator="plain")
    dist = nb.predict_distribution(model, [1e6])
    assert np.isfinite(dist).all()
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_schema_mismatch():
    model = nb.train(toy_dataset([[0.0, 0.0]], [[1.0, 1.0]]), estimator="plain")
    with pytest.raises(DataFormatError):
        nb.predict_distribution(model, [1.0])


def _predicted(model, X):
    """The most probable class of each row, ties going to the first class."""
    return [ds.CLASS_LABELS[i] for i in nb.predict_proba(model, X).argmax(axis=1)]


def _per_row_reference(model, x):
    """The posterior by the one-row loop the batch path replaced: log prior,
    then each attribute's log-likelihood added in attribute order."""
    scores = np.log(model.priors).copy()
    for ci in range(len(ds.CLASS_LABELS)):
        for ai in range(len(model.attribute_names)):
            mu, sigma = float(model.mu[ci, ai]), float(model.sigma[ci, ai])
            z = (float(x[ai]) - mu) / sigma
            scores[ci] += -0.5 * z * z - math.log(math.sqrt(2.0 * math.pi) * sigma)
    scores -= scores.max()
    weights = np.exp(scores)
    return weights / weights.sum()


@pytest.mark.parametrize("options", [
    {"estimator": "rounded"},
    {"estimator": "plain"},
], ids=["rounded", "plain"])
def test_predict_proba_rows_equal_one_row_posteriors(options):
    rng = np.random.default_rng(11)
    train_rows = np.round(rng.normal(size=(40, 3)) * 2)  # few distinct values
    data = toy_dataset(train_rows[:22], train_rows[22:] + 1.0)
    model = nb.train(data, **options)
    X = np.vstack([np.round(rng.normal(size=(200, 3)) * 3),
                   [[1e6, -1e6, 1e6], [-1e150, 1e150, 0.0], [99.0, 1e-300, -99.0]]])
    batch = nb.predict_proba(model, X)
    assert batch.shape == (len(X), 2)
    for row, x in zip(batch, X):
        np.testing.assert_array_equal(row, nb.predict_distribution(model, x))
        np.testing.assert_array_equal(row, _per_row_reference(model, x))
    assert nb.predict_proba(model, X[:0]).shape == (0, 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distribution_is_normalized(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    n_up = data.draw(st.integers(1, 8))
    n_down = data.draw(st.integers(1, 8))
    d = data.draw(st.integers(1, 4))
    dataset = toy_dataset(rng.normal(size=(n_up, d)), rng.normal(size=(n_down, d)))
    estimator = data.draw(st.sampled_from(["plain", "rounded"]))
    model = nb.train(dataset, estimator=estimator)
    dist = nb.predict_distribution(model, rng.normal(size=d))
    assert (dist >= 0).all()
    assert abs(dist.sum() - 1.0) <= 1e-9


def test_classify_invariant_under_prior_scaling():
    rng = np.random.default_rng(5)
    data = toy_dataset(rng.normal(size=(5, 3)), rng.normal(1.0, 1.0, size=(6, 3)))
    model = nb.train(data)
    scaled = model._replace(priors=model.priors * 2.0)
    for _ in range(20):
        x = rng.normal(size=3)
        np.testing.assert_allclose(
            nb.predict_distribution(model, x),
            nb.predict_distribution(scaled, x),
            atol=1e-12,
        )
        assert _predicted(model, [x]) == _predicted(scaled, [x])


def test_single_sample_per_class_nearest_wins():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rng.normal(size=(2, 4))
        model = nb.train(toy_dataset([a], [b]), estimator="plain")
        x = rng.normal(size=4)
        expected = ds.UP if np.sum((x - a) ** 2) < np.sum((x - b) ** 2) else ds.DOWN
        assert _predicted(model, [x]) == [expected]


# ----------------------------------------------------------------- serialization
def test_model_round_trip(market_data, tmp_path):
    model = nb.train(market_data)
    path = tmp_path / "nb.model"
    nb.save_model(model, path)
    again = nb.load_model(path)
    assert "\nclasses = UP,DOWN\n" in path.read_text()
    assert "precision." not in path.read_text()  # rounding is training-only
    assert again.estimator == model.estimator
    np.testing.assert_array_equal(again.priors, model.priors)
    np.testing.assert_array_equal(again.mu, model.mu)
    np.testing.assert_array_equal(again.sigma, model.sigma)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=6)
        np.testing.assert_array_equal(
            nb.predict_distribution(model, x), nb.predict_distribution(again, x)
        )


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.model"
    path.write_text("model = svm\n")
    with pytest.raises(DataFormatError):
        nb.load_model(path)


def test_overflowing_feature_raises_naming_the_sample(market_data):
    # z * z overflows above ~1e154 in every class; the posterior used to be
    # inf - inf = NaN
    model = nb.train(market_data)
    X = np.zeros((3, 6))
    X[1, 0] = 1e200
    with pytest.raises(DataFormatError, match="sample 2"):
        nb.predict_proba(model, X)
    with pytest.raises(DataFormatError, match="sample 1"):
        nb.predict_distribution(model, X[1])
    assert np.isfinite(nb.predict_proba(model, X[[0, 2]])).all()


@pytest.mark.parametrize("value", [1e200, -1e200])
@pytest.mark.parametrize("estimator", ["rounded", "plain"])
def test_overflowing_training_feature_names_attribute_and_class(market_data, estimator, value):
    X = market_data.features.copy()
    X[0, 2] = value  # a SET change in an UP row
    data = ds.Dataset(X, market_data.y)
    with pytest.raises(DataFormatError, match="attribute SET, class UP"):
        nb.train(data, estimator=estimator)
