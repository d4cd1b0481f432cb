"""Acceptance gate: one test per numbered criterion, each printing a single
``criterion N: PASS/FAIL`` line with the measured values before asserting.

Criteria summary
----------------
1. Gaussian parameters of the bundled dataset match the reference table
   (24 values, +-1e-3), training in under a second.
2. Metric pipeline reproduces the two reference confusion-matrix reports.
3. Hard-predictor identities MAE = 1 - accuracy and RMSE = sqrt(1 - accuracy)
   hold exactly, property-tested over randomized records.
4. Seed-sweep cross-validation intervals for both classifiers, plus the
   qualitative naive-Bayes-beats-SVM comparison, in under 10 seconds.
5. SMO dual objective matches constrained grid search (resolution C/100)
   within 1e-4 on 100 random small instances, with KKT conditions within
   tolerance on every training point.
6. Naive Bayes posteriors match a direct high-precision evaluation of
   priors x Gaussian densities within 1e-9 per component.
7. Every emitted class distribution sums to 1 within 1e-9 and repeated
   fixed-seed runs produce byte-identical machine reports.
8. Relative error metrics fall inside the published bands.
"""
import itertools
import math
import time

import mpmath
import numpy as np

from setcast import cli
from setcast import dataset as ds
from setcast import evaluation as ev
from setcast import naive_bayes as nb
from setcast import svm

from conftest import hard_distribution, records_from_matrix

mpmath.mp.dps = 60


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- criterion 1
#: Reference Gaussian parameters (mu, sigma) for the bundled 30-sample
#: dataset, per (attribute, class).
REFERENCE_PARAMS = {
    ("NK", "UP"): (0.0956, 1.5406), ("NK", "DOWN"): (0.5773, 1.7603),
    ("HS", "UP"): (-0.1008, 0.5522), ("HS", "DOWN"): (0.1792, 1.1067),
    ("SET", "UP"): (-0.0551, 0.6573), ("SET", "DOWN"): (0.7708, 0.7328),
    ("USDTHB", "UP"): (0.0000, 0.1972), ("USDTHB", "DOWN"): (0.1993, 0.2779),
    ("SP500", "UP"): (-0.0616, 0.5906), ("SP500", "DOWN"): (0.5213, 1.2035),
    ("GOLD", "UP"): (-0.1306, 0.7586), ("GOLD", "DOWN"): (-0.2653, 0.9391),
}


def test_criterion_1_gaussian_parameter_reproduction(market_data):
    start = time.perf_counter()
    model = nb.train(market_data)
    elapsed = time.perf_counter() - start
    mismatches = []
    for ai, attr in enumerate(ds.ATTRIBUTE_NAMES):
        for ci, cls in enumerate(ds.CLASS_LABELS):
            mu, sigma = REFERENCE_PARAMS[(attr, cls)]
            got = np.rec.fromarrays((model.mu, model.sigma), names="mu,sigma")[ci, ai]
            if abs(got.mu - mu) > 1e-3:
                mismatches.append(f"{attr}/{cls} mu {got.mu:.4f} vs {mu}")
            if abs(got.sigma - sigma) > 1e-3:
                mismatches.append(f"{attr}/{cls} sigma {got.sigma:.4f} vs {sigma}")
    detail = (
        f"{24 - len(mismatches)}/24 parameters within 1e-3, "
        f"train {elapsed * 1e3:.1f} ms"
    )
    if mismatches:
        detail += "; mismatched: " + "; ".join(mismatches)
    _verdict(1, not mismatches and elapsed < 1.0, detail)


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_reference_matrix_metrics():
    first = ev.evaluate(*records_from_matrix([[13, 3], [7, 7]]))
    up = first.per_class[0]
    second = ev.evaluate(*records_from_matrix([[11, 5], [8, 6]]))
    checks = [
        ("accuracy%", 100 * first.accuracy, 66.6667, 5e-4),
        ("kappa", first.kappa, 0.3182, 1e-4),
        ("precision(UP)", up.precision, 0.65, 5.1e-4),
        ("recall(UP)", up.recall, 0.813, 5.1e-4),
        ("F(UP)", up.f_measure, 0.722, 5.1e-4),
        ("accuracy%", 100 * second.accuracy, 56.67, 5e-3),
        ("MAE", second.mae, 0.4333, 5.1e-5),
        ("RMSE", second.rmse, 0.6583, 5.1e-5),
    ]
    bad = [
        f"{name} {got:.6f} vs {want} (tol {tol:g})"
        for name, got, want, tol in checks
        if abs(got - want) > tol
    ]
    _verdict(2, not bad, "all 8 reference statistics match" if not bad
             else "; ".join(bad))


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_hard_predictor_error_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 61))
        actual, dist = np.zeros(n, dtype=int), np.zeros((n, 2))
        for r in range(n):
            dist[r, int(rng.integers(2))] = 1.0
            actual[r] = int(rng.integers(2))
        report = ev.evaluate(actual, dist)
        # the identities in their exact floating-point form
        assert report.mae == report.incorrect / report.n
        assert report.rmse == math.sqrt(report.incorrect / report.n)
        # and against the literal 1 - accuracy, which may differ by one
        # rounding of the final subtraction
        worst = max(
            worst,
            abs(report.mae - (1.0 - report.accuracy)),
            abs(report.rmse - math.sqrt(1.0 - report.accuracy)),
        )
        assert worst <= 2**-50
    _verdict(3, True, f"200 randomized record sets, worst deviation {worst:.2e}")


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_cross_validation_intervals(market_data):
    start = time.perf_counter()
    nb_accs, svm_accs = [], []
    for seed in range(10):
        folds = ds.stratified_folds(market_data, 10, seed)
        report = ev.cross_validate(market_data, nb.train_folds, nb.predict_proba, folds)
        nb_accs.append(report.accuracy)
        report = ev.cross_validate(market_data, svm.train_folds, svm.predict_proba, folds)
        svm_accs.append(report.accuracy)
    elapsed = time.perf_counter() - start
    nb_mean, svm_mean = float(np.mean(nb_accs)), float(np.mean(svm_accs))
    wins = sum(a >= s for a, s in zip(nb_accs, svm_accs))
    clauses = [
        ("NB each seed in [0.53, 0.80]",
         all(0.53 <= a <= 0.80 for a in nb_accs)),
        (f"NB mean {nb_mean:.4f} within 0.667+-0.08",
         abs(nb_mean - 0.667) <= 0.08),
        (f"SVM mean {svm_mean:.4f} within 0.567+-0.08",
         abs(svm_mean - 0.567) <= 0.08),
        (f"NB >= SVM in {wins}/10 seeds (majority)", wins >= 6),
        (f"runtime {elapsed:.2f} s < 10 s", elapsed < 10.0),
    ]
    failed = [name for name, ok in clauses if not ok]
    detail = (
        f"NB accs {[round(a, 4) for a in nb_accs]}, "
        f"SVM accs {[round(a, 4) for a in svm_accs]}"
    )
    if failed:
        detail += "; failed clauses: " + "; ".join(failed)
    _verdict(4, not failed, detail)


# ---------------------------------------------------------------- criterion 5
_COMBO_CACHE = {}


def _grid_best(y, K, C, steps=100):
    """Best dual objective over the alpha grid {0, C/steps, ..., C}^n subject
    to the equality constraint, enumerated by bucketing each class side on its
    coefficient sum (feasible points need equal sums)."""
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)

    def combos(k):
        if k not in _COMBO_CACHE:
            arr = np.array(
                list(itertools.product(range(steps + 1), repeat=k)), dtype=np.int64
            )
            _COMBO_CACHE[k] = (arr, arr.sum(axis=1))
        return _COMBO_CACHE[k]

    cp, sp = combos(len(pos))
    cn, sn = combos(len(neg))
    h = C / steps
    Q = np.outer(y, y) * K
    order = np.concatenate([pos, neg])
    Qo = Q[np.ix_(order, order)]
    best = -np.inf
    for s in range(0, steps * max(len(pos), len(neg)) + 1):
        P, N = cp[sp == s], cn[sn == s]
        if len(P) == 0 or len(N) == 0:
            continue
        A = np.concatenate(
            [np.repeat(P, len(N), axis=0), np.tile(N, (len(P), 1))], axis=1
        ) * h
        vals = A.sum(axis=1) - 0.5 * np.einsum("bi,ij,bj->b", A, Qo, A)
        best = max(best, float(vals.max()))
    return best


def test_criterion_5_smo_optimality_oracle():
    rng = np.random.default_rng(7)
    tol = 1e-5
    worst_gap, worst_kkt = -np.inf, 0.0
    for trial in range(100):
        n = int(rng.integers(2, 5))
        y = rng.choice([-1.0, 1.0], n)
        if abs(y.sum()) == n:
            y[0] = -y[0]
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        kernel = [svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=2),
                  svm.KernelSpec(svm.RBF, delta_sq=2.0)][trial % 3]
        C = float(rng.choice([0.5, 1.0, 4.0]))
        data = ds.Dataset(
            X,
            (y < 0).astype(int),  # UP for +1, DOWN for -1
            tuple(f"x{i}" for i in range(X.shape[1])),
        )
        model = svm.train_smo(
            data, kernel, svm.TrainerConfig(C=C, kkt_tol=tol, max_passes=2500)
        )
        assert model.converged

        # reconstruct the full coefficient vector by matching support-vector
        # rows back to training rows (rows are distinct with probability 1)
        alpha = np.zeros(n)
        for coef, sv in zip(model.coefficients, model.support_vectors):
            hits = np.flatnonzero((X == sv).all(axis=1))
            assert len(hits) == 1
            alpha[hits[0]] = coef

        K = svm.kernel_matrix(kernel, X, X)
        ay = alpha * y
        objective = float(alpha.sum() - 0.5 * ay @ K @ ay)
        worst_gap = max(worst_gap, _grid_best(y, K, C) - objective)

        margins = y * (K @ ay + model.bias)
        for i in range(n):
            if alpha[i] <= 0:
                worst_kkt = max(worst_kkt, 1.0 - margins[i])
            elif alpha[i] >= C:
                worst_kkt = max(worst_kkt, margins[i] - 1.0)
            else:
                worst_kkt = max(worst_kkt, abs(margins[i] - 1.0))
    ok = worst_gap <= 1e-4 and worst_kkt <= tol
    _verdict(5, ok, f"100 instances, worst grid gap {worst_gap:.2e} (tol 1e-4), "
                    f"worst KKT violation {worst_kkt:.2e} (tol {tol:g})")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_posterior_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        X = rng.normal(size=(6, 2))
        data = ds.Dataset(X, [0] * 3 + [1] * 3, ("a", "b"))  # 3 UP, 3 DOWN
        model = nb.train(data, estimator="plain")
        x = rng.normal(size=2)
        got = nb.predict_distribution(model, x)

        # direct high-precision evaluation: prior times product of densities
        posteriors = []
        for rows in (X[:3], X[3:]):
            p = mpmath.mpf(1) / 2  # 3 of 6 samples per class
            for ai in range(2):
                mu = float(rows[:, ai].mean())
                sigma = max(float(rows[:, ai].std()), nb.SIGMA_FLOOR)
                z = mpmath.mpf((x[ai] - mu) ** 2) / (2 * mpmath.mpf(sigma) ** 2)
                p *= mpmath.exp(-z) / (mpmath.sqrt(2 * mpmath.pi) * mpmath.mpf(sigma))
            posteriors.append(p)
        total = posteriors[0] + posteriors[1]
        expected = np.array([float(p / total) for p in posteriors])
        worst = max(worst, float(np.abs(got - expected).max()))
    _verdict(6, worst <= 1e-9,
             f"50 datasets, worst posterior component deviation {worst:.2e}")


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_normalization_and_determinism(market_data, tmp_path):
    worst = 0.0
    nb_model = nb.train(market_data)
    plain_model = nb.train(market_data, estimator="plain")
    svm_model = svm.train_smo(market_data, svm.KernelSpec(svm.LINEAR), svm.TrainerConfig())
    for x in market_data.features:
        for dist in (
            nb.predict_distribution(nb_model, x),
            nb.predict_distribution(plain_model, x),
            hard_distribution(svm_model, x),
        ):
            worst = max(worst, abs(float(dist.sum()) - 1.0))
    rng = np.random.default_rng(23)
    for _ in range(20):
        X = rng.normal(size=(8, 3)) * rng.uniform(0.1, 50)
        data = ds.Dataset(X, [0] * 4 + [1] * 4, ("a", "b", "c"))  # 4 UP, 4 DOWN
        model = nb.train(data)
        for x in rng.normal(size=(5, 3)) * 10:
            worst = max(worst, abs(float(nb.predict_distribution(model, x).sum()) - 1.0))

    outputs = []
    for run in range(2):
        paths = [tmp_path / f"{name}{run}.txt" for name in ("cv_nb", "cv_svm", "cmp")]
        assert cli.main(["cv", "--model", "nb", "--format", "machine",
                         "--output", str(paths[0])]) == 0
        assert cli.main(["cv", "--model", "svm", "--format", "machine",
                         "--output", str(paths[1])]) == 0
        assert cli.main(["compare", "--format", "machine",
                         "--output", str(paths[2])]) == 0
        outputs.append(tuple(p.read_bytes() for p in paths))
    identical = outputs[0] == outputs[1]
    _verdict(7, worst <= 1e-9 and identical,
             f"worst distribution sum deviation {worst:.2e}, repeated machine "
             f"reports byte-identical: {identical}")


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_relative_error_bands(market_data):
    report = ev.cross_validate(market_data, nb.train_folds, nb.predict_proba,
                               ds.stratified_folds(market_data, 10, 1))
    ok = abs(report.rae - 77.3338) <= 3.0 and abs(report.rrse - 107.9757) <= 3.0
    _verdict(8, ok, f"RAE {report.rae:.4f}% (band 77.3338+-3), "
                    f"RRSE {report.rrse:.4f}% (band 107.9757+-3)")
