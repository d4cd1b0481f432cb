import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    data = ds.Dataset(np.zeros((3, 1)), (ds.UP,) * 3, ("x",))
    with pytest.raises(TrainingError):
        nb.estimate_priors(data)
    with pytest.raises(TrainingError):
        nb.train(data)


def test_uniform_priors_option(market_data):
    model = nb.train(market_data, priors="uniform")
    np.testing.assert_allclose(model.priors, [0.5, 0.5])


# ------------------------------------------------------------------ fit_gaussian
def test_fit_gaussian_population_convention():
    params = nb.fit_gaussian([-1.0, 1.0])
    assert params.mu == 0.0
    assert params.sigma == 1.0  # population, not sample (sqrt(2))


def test_fit_gaussian_single_value_floors_sigma():
    params = nb.fit_gaussian([3.25])
    assert params.mu == 3.25
    assert params.sigma == nb.SIGMA_FLOOR


def test_fit_gaussian_empty():
    with pytest.raises(DataFormatError):
        nb.fit_gaussian([])


# ------------------------------------------------------------------ gaussian_pdf
def test_pdf_at_mean_unit_sigma():
    assert nb.gaussian_pdf(0.0, nb.GaussianParams(0.0, 1.0)) == pytest.approx(
        0.398942, abs=1e-6
    )


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(-100, 100))
def test_pdf_at_mean_any_sigma(sigma, mu):
    expected = 1.0 / (math.sqrt(2 * math.pi) * sigma)
    assert nb.gaussian_pdf(mu, nb.GaussianParams(mu, sigma)) == pytest.approx(expected)


def test_pdf_matches_high_precision_reference():
    # reference values computed with 30-digit arithmetic
    params = nb.GaussianParams(0.0956, 1.5406)
    assert nb.gaussian_pdf(0.0956, params) == pytest.approx(
        0.2589525382327876658055, rel=1e-14
    )
    assert nb.gaussian_pdf(1.0, params) == pytest.approx(
        0.217964991553791331257, rel=1e-14
    )


# ----------------------------------------------------------- precision rounding
def test_attribute_precision():
    assert nb.attribute_precision([1.0, 2.0, 4.0]) == pytest.approx(1.5)
    assert nb.attribute_precision([2.0, 2.0]) == nb.DEFAULT_PRECISION


def test_round_to_precision():
    np.testing.assert_allclose(nb.round_to_precision([2.6], 1.5), [3.0])
    # ties round to even multiples
    np.testing.assert_allclose(nb.round_to_precision([0.75, 2.25], 1.5), [0.0, 3.0])


def test_rounded_estimator_matches_independent_recomputation(market_data):
    """Differential check of the default trainer against a from-scratch
    reimplementation of the precision-rounding estimator."""
    model = nb.train(market_data)
    labels = np.array(market_data.labels, dtype=object)
    for ai in range(6):
        column = market_data.features[:, ai]
        distinct = np.unique(column)
        precision = (distinct[-1] - distinct[0]) / (len(distinct) - 1)
        for ci, c in enumerate(ds.CLASS_LABELS):
            rounded = np.rint(column[labels == c] / precision) * precision
            mu = rounded.mean()
            sigma = max(rounded.std(), precision / 6)
            got = model.gaussians[(ci, ai)]
            assert got.mu == pytest.approx(mu, abs=1e-12)
            assert got.sigma == pytest.approx(sigma, abs=1e-12)


def test_fixture_headline_parameters(market_data):
    """First attribute, first class: the canonical spot check at 4 decimals."""
    model = nb.train(market_data)
    params = model.gaussians[(0, 0)]  # (UP, NK)
    assert round(params.mu, 4) == 0.0956
    assert round(params.sigma, 4) == 1.5406


def test_plain_estimator_degenerate_class():
    data = toy_dataset([[2.0, 7.0]] * 3, [[5.0, 1.0]] * 4)
    model = nb.train(data, estimator="plain")
    for (ci, ai), params in model.gaussians.items():
        assert params.sigma == nb.SIGMA_FLOOR
        assert params.mu == data.features[0 if ci == 0 else 3, ai]


# ------------------------------------------------------------------- categorical
def _categorical_data():
    # UP: attribute values 1,1,1,2; DOWN: 2,2,3,3 (kinds: one categorical attr)
    return toy_dataset([[1], [1], [1], [2]], [[2], [2], [3], [3]])


def test_add_one_smoothing():
    model = nb.train(_categorical_data(), kinds=(nb.CATEGORICAL,))
    # 3 of 4 UP samples have value 1, two seen categories -> (3+1)/(4+2)
    assert nb.categorical_likelihood(model, ds.UP, "x0", 1.0) == pytest.approx(2 / 3)
    # value 3 unseen in UP -> 1/(4+2)
    assert nb.categorical_likelihood(model, ds.UP, "x0", 3.0) == pytest.approx(1 / 6)


def test_reciprocal_fallback_smoothing():
    model = nb.train(
        _categorical_data(), kinds=(nb.CATEGORICAL,), smoothing="reciprocal_fallback"
    )
    # seen: raw frequency ratio
    assert nb.categorical_likelihood(model, ds.UP, "x0", 1.0) == pytest.approx(3 / 4)
    # unseen in class, 2 occurrences overall -> 1/2
    assert nb.categorical_likelihood(model, ds.UP, "x0", 3.0) == pytest.approx(1 / 2)
    # absent from training entirely -> one phantom occurrence in n+1
    assert nb.categorical_likelihood(model, ds.UP, "x0", 9.0) == pytest.approx(1 / 9)


def test_categorical_likelihood_errors():
    model = nb.train(_categorical_data(), kinds=(nb.CATEGORICAL,))
    with pytest.raises(DataFormatError):
        nb.categorical_likelihood(model, ds.UP, "bogus", 1.0)
    continuous = nb.train(_categorical_data())
    with pytest.raises(DataFormatError):
        nb.categorical_likelihood(continuous, ds.UP, "x0", 1.0)


def test_categorical_probabilities_strictly_positive():
    for smoothing in ("add_one", "reciprocal_fallback"):
        model = nb.train(
            _categorical_data(), kinds=(nb.CATEGORICAL,), smoothing=smoothing
        )
        for value in (1.0, 2.0, 3.0, 99.0):
            for label in ds.CLASS_LABELS:
                assert nb.categorical_likelihood(model, label, "x0", value) > 0


# ---------------------------------------------------------- predict_distribution
def test_symmetric_posterior():
    data = toy_dataset([[-2.0], [-1.0]], [[1.0], [2.0]])
    model = nb.train(data, estimator="plain")
    dist = nb.predict_distribution(model, [0.0])
    np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-9)
    assert nb.classify(model, [0.0]) == ds.UP  # tie goes to the first class


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


def _per_row_reference(model, x):
    """The posterior by the one-row loop the batch path replaced: log prior,
    then each attribute's log-likelihood added in attribute order."""
    scores = np.log(model.priors).copy()
    for ci in range(len(model.class_labels)):
        for ai, kind in enumerate(model.kinds):
            if kind == nb.CONTINUOUS:
                params = model.gaussians[(ci, ai)]
                z = (float(x[ai]) - params.mu) / params.sigma
                scores[ci] += -0.5 * z * z - math.log(math.sqrt(2.0 * math.pi) * params.sigma)
            else:
                scores[ci] += math.log(model.tables[(ci, ai)].probability(float(x[ai])))
    scores -= scores.max()
    weights = np.exp(scores)
    return weights / weights.sum()


@pytest.mark.parametrize("kinds, options", [
    ((nb.CONTINUOUS,) * 3, {"estimator": "rounded"}),
    ((nb.CONTINUOUS,) * 3, {"estimator": "plain"}),
    ((nb.CATEGORICAL, nb.CONTINUOUS, nb.CATEGORICAL), {"smoothing": "add_one"}),
    ((nb.CATEGORICAL, nb.CONTINUOUS, nb.CATEGORICAL), {"smoothing": "reciprocal_fallback"}),
], ids=["rounded", "plain", "categorical-add-one", "categorical-reciprocal"])
def test_predict_proba_rows_equal_one_row_posteriors(kinds, options):
    rng = np.random.default_rng(11)
    train_rows = np.round(rng.normal(size=(40, 3)) * 2)  # few distinct categories
    data = toy_dataset(train_rows[:22], train_rows[22:] + 1.0)
    model = nb.train(data, kinds=kinds, **options)
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
    scaled = dataclasses.replace(model, priors=model.priors * 2.0)
    for _ in range(20):
        x = rng.normal(size=3)
        np.testing.assert_allclose(
            nb.predict_distribution(model, x),
            nb.predict_distribution(scaled, x),
            atol=1e-12,
        )
        assert nb.classify(model, x) == nb.classify(scaled, x)


def test_single_sample_per_class_nearest_wins():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rng.normal(size=(2, 4))
        model = nb.train(toy_dataset([a], [b]), estimator="plain")
        x = rng.normal(size=4)
        expected = ds.UP if np.sum((x - a) ** 2) < np.sum((x - b) ** 2) else ds.DOWN
        assert nb.classify(model, x) == expected


# ----------------------------------------------------------------- serialization
def test_model_round_trip(market_data, tmp_path):
    model = nb.train(market_data)
    path = tmp_path / "nb.model"
    nb.save_model(model, path)
    again = nb.load_model(path)
    assert again.class_labels == model.class_labels
    assert again.kinds == model.kinds
    assert again.estimator == model.estimator
    np.testing.assert_array_equal(again.priors, model.priors)
    for key, params in model.gaussians.items():
        assert again.gaussians[key] == params
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=6)
        np.testing.assert_array_equal(
            nb.predict_distribution(model, x), nb.predict_distribution(again, x)
        )


def test_categorical_model_round_trip(tmp_path):
    model = nb.train(
        _categorical_data(), kinds=(nb.CATEGORICAL,), smoothing="reciprocal_fallback"
    )
    path = tmp_path / "cat.model"
    nb.save_model(model, path)
    again = nb.load_model(path)
    for value in (1.0, 2.0, 3.0, 9.0):
        for label in ds.CLASS_LABELS:
            assert nb.categorical_likelihood(
                again, label, "x0", value
            ) == nb.categorical_likelihood(model, label, "x0", value)


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
