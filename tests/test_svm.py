import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcast import dataset as ds
from setcast import svm
from setcast.errors import DataFormatError, TrainingError

from conftest import hard_distribution, toy_dataset

XOR = toy_dataset([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])


# ---------------------------------------------------------------------- kernels
def _kernel_eval(spec, x, z) -> float:
    """The kernel on a single pair of equal-length vectors."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if spec.kind == svm.LINEAR:
        return float(x @ z)
    if spec.kind == svm.POLY:
        return float((x @ z + 1.0) ** spec.degree)
    diff = x - z
    return float(np.exp(-(diff @ diff) / spec.delta_sq))


def _kernel_value(spec, x, z) -> float:
    """kernel_matrix on one row of each side."""
    return float(svm.kernel_matrix(spec, [x], [z])[0, 0])


def test_kernel_values():
    assert _kernel_value(svm.KernelSpec(svm.LINEAR), [1, 2], [3, 4]) == 11.0
    assert _kernel_value(svm.KernelSpec(svm.POLY, degree=2), [1, 1], [1, 1]) == 9.0
    assert _kernel_value(svm.KernelSpec(svm.RBF, delta_sq=3.7), [1.5, -2], [1.5, -2]) == 1.0


def test_kernel_dimension_mismatch():
    with pytest.raises(DataFormatError):
        _kernel_value(svm.KernelSpec(svm.LINEAR), [1, 2], [1, 2, 3])
    model = _train(toy_dataset([[0, 0]], [[1, 1]]))
    with pytest.raises(DataFormatError):
        svm.decision_values(model, [[1.0, 2.0, 3.0]])


def test_kernel_spec_validation():
    with pytest.raises(DataFormatError):
        svm.KernelSpec("poly", degree=0)
    for delta_sq in (0.0, math.inf, math.nan):
        with pytest.raises(DataFormatError):
            svm.KernelSpec("rbf", delta_sq=delta_sq)
    with pytest.raises(DataFormatError, match=r"^invalid kernel spec "
                       r"KernelSpec\(kind='sigmoid', degree=None, delta_sq=None\)$"):
        svm.KernelSpec("sigmoid")
    with pytest.raises(DataFormatError):
        svm.KernelSpec("linear", degree=3)


def test_trainer_config_validation():
    with pytest.raises(DataFormatError, match=r"^invalid trainer config "
                       r"TrainerConfig\(C=0\.0, kkt_tol=0\.001, max_passes=100\)$"):
        svm.TrainerConfig(C=0.0)
    for bad in ({"C": math.inf}, {"kkt_tol": math.inf}, {"kkt_tol": math.nan}):
        with pytest.raises(DataFormatError):
            svm.TrainerConfig(**bad)
    with pytest.raises(DataFormatError):
        svm.TrainerConfig(max_passes=0)


@pytest.mark.parametrize("max_passes", [1.5, True, 2.0, "3", None])
def test_trainer_config_requires_an_int_pass_count(max_passes):
    # 1.5 used to reach range() inside train_smo as a bare TypeError, and
    # True ran as one pass
    with pytest.raises(DataFormatError, match="max_passes"):
        svm.TrainerConfig(max_passes=max_passes)


@st.composite
def vector_pair(draw):
    dim = draw(st.integers(1, 5))
    box = st.floats(-50, 50)
    x = draw(st.lists(box, min_size=dim, max_size=dim))
    z = draw(st.lists(box, min_size=dim, max_size=dim))
    return x, z


@settings(max_examples=60, deadline=None)
@given(vector_pair())
def test_kernel_symmetry(pair):
    x, z = pair
    for spec in (svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=3),
                 svm.KernelSpec(svm.RBF, delta_sq=2.0)):
        assert _kernel_value(spec, x, z) == pytest.approx(
            _kernel_value(spec, z, x), rel=1e-12, abs=1e-12
        )


def test_kernel_matrix_agrees_with_kernel_eval():
    rng = np.random.default_rng(0)
    X, Z = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    for spec in (svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=2),
                 svm.KernelSpec(svm.RBF, delta_sq=1.5)):
        K = svm.kernel_matrix(spec, X, Z)
        for i in range(4):
            for j in range(5):
                assert K[i, j] == pytest.approx(_kernel_eval(spec, X[i], Z[j]))


# ---------------------------------------------------------------------- training
def _train(data, kernel=None, **cfg):
    return svm.train_smo(
        data, kernel or svm.KernelSpec(svm.LINEAR), svm.TrainerConfig(**cfg)
    )


def test_two_point_analytic_solution():
    data = toy_dataset([[1.0]], [[-1.0]])
    model = _train(data, C=10.0)
    assert model.converged
    np.testing.assert_allclose(model.coefficients, [0.5, 0.5], atol=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert svm.decision_values(model, [[0.0]])[0] == pytest.approx(0.0, abs=1e-12)
    # weight vector has norm 1, so the geometric margin 2/||w|| is 2
    w = (model.coefficients * model.labels) @ model.support_vectors
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def _predicted(model, X):
    """UP for a positive decision value, DOWN otherwise."""
    return [ds.CLASS_LABELS[i] for i in svm.predict_proba(model, X).argmax(axis=1)]


def _training_accuracy(model, data):
    preds = _predicted(model, data.features)
    return np.mean([p == ds.CLASS_LABELS[t] for p, t in zip(preds, data.y)])


def test_xor_kernels():
    assert _training_accuracy(_train(XOR, C=10.0), XOR) <= 0.75
    for kernel in (svm.KernelSpec(svm.POLY, degree=2), svm.KernelSpec(svm.RBF, delta_sq=1.0)):
        model = _train(XOR, kernel, C=10.0)
        assert model.converged
        assert _training_accuracy(model, XOR) == 1.0


def test_training_preconditions():
    with pytest.raises(TrainingError):
        _train(ds.Dataset(np.zeros((3, 1)), [0] * 3, ("x",)))  # all UP
    with pytest.raises(TrainingError):
        _train(ds.Dataset(np.zeros((1, 1)), [0], ("x",)))


def test_model_invariants_on_random_problems():
    rng = np.random.default_rng(17)
    kernels = [svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=2),
               svm.KernelSpec(svm.RBF, delta_sq=2.0)]
    fits = []
    for _ in range(25):
        n_up, n_down = rng.integers(1, 6, size=2)
        d = int(rng.integers(1, 4))
        data = toy_dataset(rng.normal(size=(n_up, d)), rng.normal(size=(n_down, d)))
        C = float(rng.choice([0.5, 1.0, 4.0]))
        fits.append((data, kernels[int(rng.integers(3))], C))
    fits += [(_shared_row_problem(*args), kernel, C) for args in SHARED_ROW_PROBLEMS
             for kernel in kernels for C in (0.5, 1.0, 4.0)]
    for data, kernel, C in fits:
        model = _train(data, kernel, C=C)
        assert abs(model.coefficients @ model.labels) <= 1e-8
        assert (model.coefficients > 0).all()
        assert (model.coefficients <= C + 1e-12).all()
        if model.converged:
            assert model.kkt_violation <= 1e-3


def test_linear_weight_vector_equivalence():
    rng = np.random.default_rng(3)
    data = toy_dataset(rng.normal(size=(6, 4)), rng.normal(0.5, 1.0, size=(5, 4)))
    model = _train(data)
    w = (model.coefficients * model.labels) @ model.support_vectors
    for _ in range(30):
        x = rng.normal(size=4)
        assert svm.decision_values(model, [x])[0] == pytest.approx(
            float(w @ x + model.bias), abs=1e-10
        )


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_linear_fit_is_scale_equivariant(c):
    """Metamorphic: for the linear kernel, training on c * X with box C / c^2
    scales every alpha by 1 / c^2 and leaves every decision value on c * x
    unchanged.  With c a power of two every step scales exactly, so the
    relation holds bit for bit; C >= 1 and C / c^2 >= 1 keep the snap
    threshold 1e-10 * max(1, C) on the same scale."""
    rng = np.random.default_rng(int(c * 4))
    for _ in range(20):
        n_up, n_down = rng.integers(2, 25, size=2)
        d = int(rng.integers(1, 5))
        data = toy_dataset(rng.normal(0.3, 1.0, size=(n_up, d)),
                           rng.normal(-0.3, 1.0, size=(n_down, d)))
        C = float(rng.choice([C for C in (1.0, 4.0, 16.0, 64.0) if C / c**2 >= 1]))
        scaled_data = ds.Dataset(c * data.features, data.y, data.attribute_names)
        model = _train(data, C=C)
        scaled = _train(scaled_data, C=C / c**2)
        X = rng.normal(size=(15, d))
        assert (scaled.coefficients * c**2).tobytes() == model.coefficients.tobytes()
        assert (svm.decision_values(scaled, c * X).tobytes()
                == svm.decision_values(model, X).tobytes())
        assert scaled.converged == model.converged


def test_classification_rule():
    base = _train(toy_dataset([[1.0]], [[-1.0]]))
    up = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), np.zeros(0), 2.3,
                      base.kernel, 1.0, True)
    down = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), np.zeros(0), -0.1,
                        base.kernel, 1.0, True)
    tie = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), np.zeros(0), 0.0,
                       base.kernel, 1.0, True)
    assert _predicted(up, [[0.0]]) == [ds.UP]
    assert _predicted(down, [[0.0]]) == [ds.DOWN]
    assert _predicted(tie, [[0.0]]) == [ds.DOWN]  # exact zero -> DOWN
    # empty support set: decision value is the bias
    assert svm.decision_values(up, [[123.0]])[0] == 2.3
    np.testing.assert_array_equal(hard_distribution(up, [0.0]), [1.0, 0.0])
    np.testing.assert_array_equal(hard_distribution(tie, [0.0]), [0.0, 1.0])


@pytest.mark.parametrize("kernel", [svm.KernelSpec(svm.LINEAR),
                                    svm.KernelSpec(svm.RBF, delta_sq=1.0)],
                         ids=["linear", "rbf"])
def test_predict_proba_agrees_with_per_row_classify(kernel, monkeypatch):
    rng = np.random.default_rng(4)
    data = toy_dataset(rng.normal(0.5, 1.0, size=(15, 3)), rng.normal(-0.5, 1.0, size=(15, 3)))
    model = _train(data, kernel)
    m = len(model.coefficients)
    # blocks of 7 rows; 23 rows leave a short last block
    monkeypatch.setattr(svm, "KERNEL_BLOCK_BYTES", 8 * m * 7)
    X = rng.normal(size=(23, 3))
    dist = svm.predict_proba(model, X)
    for row, x in zip(dist, X):
        np.testing.assert_array_equal(row, hard_distribution(model, x))
    np.testing.assert_array_equal(dist.sum(axis=1), np.ones(23))
    unblocked = svm.kernel_matrix(kernel, X, model.support_vectors) @ (
        model.coefficients * model.labels) + model.bias
    np.testing.assert_allclose(svm.decision_values(model, X), unblocked, rtol=1e-12)
    assert svm.predict_proba(model, X[:0]).shape == (0, 2)


def test_larger_c_never_hurts_separable_training_error():
    rng = np.random.default_rng(21)
    data = toy_dataset(
        rng.normal(loc=3.0, size=(8, 2)), rng.normal(loc=-3.0, size=(8, 2))
    )
    errors = []
    for C in (0.01, 0.1, 1.0, 10.0, 100.0):
        model = _train(data, C=C)
        errors.append(1.0 - _training_accuracy(model, data))
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_deterministic_training(market_data, tmp_path):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    svm.save_model(_train(market_data), a)
    svm.save_model(_train(market_data), b)
    assert a.read_bytes() == b.read_bytes()


def test_pass_budget_returns_flagged_model(market_data):
    model = _train(market_data, max_passes=1)
    assert not model.converged
    assert model.stop == "pass budget"
    assert abs(model.coefficients @ model.labels) <= 1e-8
    assert model.kkt_violation > 1e-3  # honest audit on the flagged model


def test_fixture_folds_converge(market_data):
    folds = ds.stratified_folds(market_data, 10, 1)
    for f in range(10):
        model = _train(market_data.subset(folds.assignment != f))
        assert model.converged
        assert model.kkt_violation <= 1e-3
        # free support vectors sit on the margin within tolerance
        free = model.coefficients < model.C - 1e-9
        for x, y, is_free in zip(model.support_vectors, model.labels, free):
            if is_free:
                assert y * svm.decision_values(model, [x])[0] == pytest.approx(
                    1.0, abs=1.1e-3
                )


# ----------------------------------------------------------------- serialization
@pytest.mark.parametrize(
    "kernel", [svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=3),
               svm.KernelSpec(svm.RBF, delta_sq=2.5)]
)
def test_model_round_trip(kernel, tmp_path):
    rng = np.random.default_rng(4)
    data = toy_dataset(rng.normal(size=(5, 3)), rng.normal(1.0, 1.0, size=(4, 3)))
    model = _train(data, kernel)
    path = tmp_path / "svm.model"
    svm.save_model(model, path)
    again = svm.load_model(path)
    assert again.kernel == model.kernel
    assert again.bias == model.bias
    assert again.C == model.C
    assert again.converged == model.converged
    assert again.kkt_violation == model.kkt_violation
    # model files keep no stop and no iteration count
    assert (model.stop, again.stop, again.iterations) == ("gap reached", "", 0)
    assert model.iterations > 0
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    np.testing.assert_array_equal(again.support_vectors, model.support_vectors)
    X = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(svm.decision_values(again, X), svm.decision_values(model, X))


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.model"
    path.write_text("model = nb\n")
    with pytest.raises(DataFormatError):
        svm.load_model(path)


# ------------------------------------------------ reference (per-iteration rebuild)
# The solver as it was before its bookkeeping went in place: every iteration
# rebuilds F, the index-set masks and the penalized copies, and reads kernel
# columns.  For a pair with eta <= 0 it compares the O(n^2) dual objective at
# the two ends of the pair's segment, where the current solver takes the TAU
# step.  The current solver must reproduce it bit for bit wherever rounding
# does not decide that comparison.
def _reference_kernel_matrix(spec, X, Z):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    inner = X @ Z.T
    if spec.kind == svm.LINEAR:
        return inner
    if spec.kind == svm.POLY:
        return (inner + 1.0) ** spec.degree
    sq = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :] - 2.0 * inner
    return np.exp(-np.maximum(sq, 0.0) / spec.delta_sq)


def _reference_worst_violation(alpha, y, f, C):
    yf = y * f
    worst = 0.0
    for i in range(len(y)):
        if alpha[i] <= 0:
            worst = max(worst, 1.0 - yf[i])
        elif alpha[i] >= C:
            worst = max(worst, yf[i] - 1.0)
        else:
            worst = max(worst, abs(yf[i] - 1.0))
    return worst


def _dual_delta(alpha, y, K, i, j, s, aj_value):
    """Dual objective with (alpha_i, alpha_j) moved along the constraint line."""
    a = alpha.copy()
    a[j] = aj_value
    a[i] = alpha[i] + s * (alpha[j] - aj_value)
    ay = a * y
    return a.sum() - 0.5 * ay @ K @ ay


def _reference_repair_equality(alpha, y, C):
    """Absorb accumulated floating-point drift of sum(alpha * y) into the
    free coefficient with the most room.  Ties in room go to the lower
    index: NumPy's default argsort orders them by the CPU's SIMD sort, and
    the shared-row problems below tie."""
    residual = float(alpha @ y)
    if residual == 0.0:
        return
    free = np.flatnonzero((alpha > 0) & (alpha < C))
    order = free[np.argsort(-np.minimum(alpha[free], C - alpha[free]), kind="stable")]
    for i in order:
        candidate = alpha[i] - y[i] * residual
        if 0.0 <= candidate <= C:
            alpha[i] = candidate
            return


def _reference_train_smo(dataset, kernel, config):
    n = len(dataset)
    X = dataset.features
    y = np.where(dataset.y == ds.CLASS_LABELS.index(ds.UP), 1.0, -1.0)
    K = _reference_kernel_matrix(kernel, X, X)
    C, tol = config.C, config.kkt_tol

    alpha = np.zeros(n)
    g = np.zeros(n)  # g_i = sum_j alpha_j y_j K_ij
    snap = 1e-10 * max(1.0, C)
    budget = config.max_passes * n
    stop = "pass budget"
    updates = 0
    for _ in range(budget):
        F = y - g
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up.any() or not low.any():
            stop = "gap reached"
            break
        Fu = np.where(up, F, -np.inf)
        Fl = np.where(low, F, np.inf)
        i = int(np.argmax(Fu))
        j = int(np.argmin(Fl))
        if Fu[i] - Fl[j] <= tol:
            stop = "gap reached"
            break
        s = y[i] * y[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if s < 0:
            lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
        else:
            lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
        if lo >= hi:
            stop = "stuck pair"  # most violating pair cannot move
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta > 0:
            aj_new = float(np.clip(aj_old - y[j] * (F[i] - F[j]) / eta, lo, hi))
        else:
            aj_new = lo if _dual_delta(alpha, y, K, i, j, s, lo) >= _dual_delta(
                alpha, y, K, i, j, s, hi
            ) else hi
        if aj_new == aj_old:
            stop = "no move"
            break
        ai_new = ai_old + s * (aj_old - aj_new)
        if ai_new < snap:
            ai_new = 0.0
        elif ai_new > C - snap:
            ai_new = C
        if aj_new < snap:
            aj_new = 0.0
        elif aj_new > C - snap:
            aj_new = C
        g += (ai_new - ai_old) * y[i] * K[:, i] + (aj_new - aj_old) * y[j] * K[:, j]
        alpha[i], alpha[j] = ai_new, aj_new
        updates += 1

    _reference_repair_equality(alpha, y, C)
    g = K @ (alpha * y)
    b = svm._fit_bias(alpha, y, g, C)
    worst = _reference_worst_violation(alpha, y, g + b, C)
    keep = alpha > 0
    return svm.SvmModel(X[keep], alpha[keep], y[keep], b, kernel, float(C),
                        bool(stop == "gap reached" and worst <= tol), float(worst), stop, updates)


def _assert_same_model(model, ref):
    for field in ("coefficients", "support_vectors", "labels"):
        got, want = getattr(model, field), getattr(ref, field)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), field
    assert model.bias.hex() == ref.bias.hex()
    assert model.converged == ref.converged
    assert model.kkt_violation.hex() == ref.kkt_violation.hex()
    # the reference has no snapped-back exit: it repeats that no-op step
    # until the budget runs out
    assert model.stop == ref.stop or (model.stop, ref.stop) == ("snapped back", "pass budget")
    if model.stop == ref.stop:
        assert model.iterations == ref.iterations


def _overlapping_problem(seed, n=80, d=4, scale=1.0):
    rng = np.random.default_rng(seed)
    return toy_dataset(rng.normal(0.3, 1.0, size=(n // 2, d)) * scale,
                       rng.normal(-0.3, 1.0, size=(n - n // 2, d)) * scale)


KERNELS = [svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=2),
           svm.KernelSpec(svm.RBF, delta_sq=1.0)]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("C", [0.1, 1.0, 4.0])
def test_solver_matches_reference_bitwise(kernel, C, market_data):
    shared = [_shared_row_problem(*args) for args in SHARED_ROW_PROBLEMS]
    for data in [_overlapping_problem(5), market_data] + shared:
        config = svm.TrainerConfig(C=C)
        _assert_same_model(svm.train_smo(data, kernel, config),
                           _reference_train_smo(data, kernel, config))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
def test_solver_matches_reference_on_pass_budget(kernel):
    data = _overlapping_problem(6)
    config = svm.TrainerConfig(C=4.0, max_passes=1)
    model = svm.train_smo(data, kernel, config)
    assert not model.converged
    assert model.stop == "pass budget"
    assert model.iterations == config.max_passes * len(data)  # every step an update
    _assert_same_model(model, _reference_train_smo(data, kernel, config))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("C", [0.1, 1.0, 4.0])
def test_solver_matches_reference_at_large_feature_scale(kernel, C):
    # At feature scale 1e6 the linear and polynomial fits stall without
    # converging.  In the shared-row problem the first pair has eta = 0.
    # For the polynomial kernel at C = 0.1, K is about 1e24, and the
    # reference's O(n^2) comparison of the dual objective at the two segment
    # ends rounds both to 0: it keeps both alphas at 0 and stops "no move".
    # The TAU step moves both to C, which gains exactly 2C, since that
    # pair's quadratic term is exactly 0; the fit then snaps back.
    config = svm.TrainerConfig(C=C)
    shared = _shared_row_problem()
    for data in (_overlapping_problem(7, n=30, scale=1e6), shared):
        model = svm.train_smo(data, kernel, config)
        if data is shared and (kernel.kind, C) == (svm.POLY, 0.1):
            assert model.coefficients.tolist() == [0.1, 0.1]
            assert model.labels.tolist() == [1.0, -1.0]
            assert (model.stop, model.iterations) == ("snapped back", 1)
        else:
            _assert_same_model(model, _reference_train_smo(data, kernel, config))


def _shared_row_problem(seed=3, n=7, scale=1e6):
    # The first UP and the first DOWN row are equal, so the solver's first
    # pair, those two rows, has eta = 0 under every kernel.
    rng = np.random.default_rng(seed)
    up, down = rng.normal(size=((n + 1) // 2, 2)), rng.normal(size=(n // 2, 2))
    down[0] = up[0]
    return toy_dataset(up * scale, down * scale)


# Flat-pair problems at scales where the TAU step and the reference's
# comparison of the two segment ends agree bit for bit.
SHARED_ROW_PROBLEMS = [(11, 20, 1.0), (12, 20, 10.0), (13, 20, 100.0), (14, 9, 3.0)]


def _mixed_scale_problem(seed):
    # Rows scaled by 10^0 to 10^8: a step can fall below one ulp of a
    # nonzero alpha.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(8, 2)) * 10.0 ** rng.integers(0, 9, size=(8, 1))
    return toy_dataset(X[:4], X[4:])


@pytest.mark.parametrize("data, kernel, C, stop", [
    (lambda: _overlapping_problem(5), svm.KernelSpec(svm.LINEAR), 1.0, "gap reached"),
    (lambda: _overlapping_problem(5), svm.KernelSpec(svm.POLY, degree=2), 4.0, "pass budget"),
    (lambda: _mixed_scale_problem(2662), svm.KernelSpec(svm.LINEAR), 1.0, "no move"),
    (lambda: _overlapping_problem(7, n=30, scale=1e6), svm.KernelSpec(svm.LINEAR), 1.0,
     "snapped back"),
], ids=["gap reached", "pass budget", "no move", "snapped back"])
def test_model_names_the_exit_that_ended_the_loop(data, kernel, C, stop):
    # "stuck pair" needs rounding that the snap width absorbs, so it is
    # reached only with the snap switched off, in the test below
    model = svm.train_smo(data(), kernel, svm.TrainerConfig(C=C))
    assert model.stop == stop
    assert model.converged == (stop == "gap reached")


@pytest.mark.parametrize("data, kernel, iterations", [
    (lambda: _overlapping_problem(3, n=80), svm.KernelSpec(svm.RBF, delta_sq=1.0), 47),
    (lambda: _overlapping_problem(7), svm.KernelSpec(svm.LINEAR), 108),
], ids=["rbf", "linear"])
def test_stuck_pair_ends_the_loop_without_the_snap(monkeypatch, data, kernel, iterations):
    # without the snap, rounding leaves an alpha one ulp below C; paired with
    # an alpha at C, the pair's interval [lo, hi] rounds to the point C
    monkeypatch.setattr(svm, "_snap_width", lambda C: 0.0)
    model = svm.train_smo(data(), kernel, svm.TrainerConfig(C=1.0))
    assert (model.stop, model.iterations, model.converged) == ("stuck pair", iterations, False)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
def test_stop_at_the_first_gap_test_applies_no_update(kernel):
    # all alphas start at 0, where the gap is 2: a tolerance of 2 stops at
    # the first gap test
    model = svm.train_smo(_overlapping_problem(6), kernel, svm.TrainerConfig(kkt_tol=2.0))
    assert (model.stop, model.iterations) == ("gap reached", 0)
    assert model.converged and len(model.coefficients) == 0


@pytest.mark.parametrize("kernel", KERNELS + [svm.KernelSpec(svm.POLY, degree=3)],
                         ids=["linear", "poly", "rbf", "poly degree=3"])
def test_kernel_matrix_matches_reference_and_is_symmetric(kernel):
    rng = np.random.default_rng(8)
    X, Z = rng.normal(size=(40, 6)), rng.normal(size=(25, 6))
    assert (svm.kernel_matrix(kernel, X, Z).tobytes()
            == _reference_kernel_matrix(kernel, X, Z).tobytes())
    K = svm.kernel_matrix(kernel, X, X)
    assert K.tobytes() == _reference_kernel_matrix(kernel, X, X).tobytes()
    # the solver reads row K[i] in place of column K[:, i]
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


@pytest.mark.parametrize("kernel", KERNELS + [svm.KernelSpec(svm.POLY, degree=3)],
                         ids=lambda k: k.describe())
def test_kernel_matrix_across_row_blocks(kernel):
    # 300 x 500 spans ten RBF row blocks
    rng = np.random.default_rng(10)
    X, Z = rng.normal(size=(300, 4)), rng.normal(size=(500, 4))
    assert 300 * 500 * 8 > 8 * svm.KERNEL_BLOCK_BYTES
    for A, B in ((Z, Z), (X, Z), (X, X)):
        assert (svm.kernel_matrix(kernel, A, B).tobytes()
                == _reference_kernel_matrix(kernel, A, B).tobytes())
    K = svm.kernel_matrix(kernel, Z, Z)
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


def test_rbf_fit_holds_one_kernel_matrix():
    # NumPy reports its buffers to tracemalloc, so the peak counts every
    # array the fit allocates, whatever the allocator keeps resident
    n = 500
    data = _overlapping_problem(11, n=n, d=6)
    tracemalloc.start()
    try:
        svm.train_smo(data, svm.KernelSpec(svm.RBF, delta_sq=1.0), svm.TrainerConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_worst_violation_matches_reference():
    rng = np.random.default_rng(9)
    for C in (0.5, 1.0, 3.0):
        alpha = rng.choice([0.0, C, 0.25 * C, 0.75 * C], size=50)
        y = rng.choice([-1.0, 1.0], size=50)
        f = rng.normal(scale=2.0, size=50)
        got = svm._worst_violation(alpha, y, f, C)
        assert got.hex() == float(_reference_worst_violation(alpha, y, f, C)).hex()
    # every sample satisfied: the floor at zero
    assert svm._worst_violation(np.zeros(2), np.array([1.0, -1.0]),
                                np.array([2.0, -2.0]), 1.0) == 0.0


def test_worst_violation_keeps_nan():
    # max(0.0, nan) is 0.0, which read a NaN decision value as a perfect fit
    got = svm._worst_violation(np.zeros(2), np.array([1.0, -1.0]),
                               np.array([np.nan, -2.0]), 1.0)
    assert np.isnan(got)


class _CountingNumpy:
    """numpy as train_smo sees it, counting np.subtract calls: two per
    iteration of the loop (the linear and polynomial kernels call none)."""

    def __init__(self):
        self.subtracts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.subtracts += 1
        return np.subtract(*args, **kwargs)


@pytest.mark.parametrize("kernel", KERNELS[:2], ids=lambda k: k.kind)
def test_snapped_back_step_ends_the_loop(kernel, monkeypatch):
    # At feature scale 1e6 the first step snaps both alphas back to 0; the
    # loop used to repeat that no-op for the whole budget of 100 * 30 steps.
    data = _overlapping_problem(7, n=30, scale=1e6)
    config = svm.TrainerConfig()
    counting = _CountingNumpy()
    monkeypatch.setattr(svm, "np", counting)
    model = svm.train_smo(data, kernel, config)
    monkeypatch.setattr(svm, "np", np)
    assert counting.subtracts == 2
    assert not model.converged
    assert model.stop == "snapped back"
    _assert_same_model(model, _reference_train_smo(data, kernel, config))


# ------------------------------------------------------ cross-validation folds
def _dual_objective(model):
    """sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij over the support
    vectors, which every other sample adds nothing to."""
    weights = model.coefficients * model.labels
    K = svm.kernel_matrix(model.kernel, model.support_vectors, model.support_vectors)
    return model.coefficients.sum() - 0.5 * weights @ K @ weights


#: The relative distance allowed between a fold model's dual objective and
#: that of train_smo on the fold's rows, when both converged.  Both stop
#: within the same KKT tolerance from different starts; the largest distance
#: measured on the cases below is 4.5e-6.
DUAL_REL_TOL = 5e-5


@pytest.mark.parametrize("k", [2, 3, 5, 10])
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
def test_fold_models_solve_each_fold(kernel, k):
    data = _overlapping_problem(20 + k, n=90)
    folds = ds.stratified_folds(data, k, 1)
    compared = 0
    for C in (0.1, 0.5, 2.0):
        config = svm.TrainerConfig(C=C)
        models = svm.train_folds(data, folds, kernel, config)
        assert len(models) == k
        for model, again in zip(models, svm.train_folds(data, folds, kernel, config)):
            _assert_same_model(model, again)  # so the reports are byte-identical
        for f, model in enumerate(models):
            # the rows are distinct, so no support vector may equal a test row
            test_rows = set(map(tuple, data.features[folds.assignment == f].tolist()))
            assert not test_rows & set(map(tuple, model.support_vectors.tolist()))
            assert (model.coefficients > 0).all() and (model.coefficients <= C).all()
            assert abs(model.coefficients @ model.labels) <= 1e-8
            if model.converged:
                assert model.kkt_violation <= config.kkt_tol
            cold = svm.train_smo(data.subset(folds.assignment != f), kernel, config)
            assert model.converged or not cold.converged
            if model.converged and cold.converged:
                compared += 1
                want = _dual_objective(cold)
                assert abs(_dual_objective(model) - want) <= DUAL_REL_TOL * abs(want)
    assert compared >= 2 * k  # the objective check ran on most folds


@pytest.mark.parametrize("kernel, C, bound", [(svm.KernelSpec(svm.RBF, delta_sq=1.0), 1.0, 0.76),
                                              (svm.KernelSpec(svm.LINEAR), 0.1, 0.60)],
                         ids=["rbf", "linear"])
def test_seeded_folds_take_fewer_iterations(kernel, C, bound):
    # A count, not a timing: warm-starting each fold from the previous
    # fold's alphas took 0.71-0.74 (RBF) and 0.49-0.59 (linear) of the
    # iterations of ten cold train_smo fits on problems of this kind (seeds
    # 1-5).  A lost warm start reads about 1, and a seed that scales down a
    # whole class to restore sum(alpha * y) = 0 read 0.80-0.82 and
    # 0.64-0.80, so both fail the bounds.
    data = _overlapping_problem(1, n=1000, d=6)
    folds = ds.stratified_folds(data, 10, 1)
    config = svm.TrainerConfig(C=C)
    cold = sum(svm.train_smo(data.subset(folds.assignment != f), kernel, config).iterations
               for f in range(10))
    models = svm.train_folds(data, folds, kernel, config)
    assert all(model.converged for model in models)
    assert sum(model.iterations for model in models) <= bound * cold


@st.composite
def fold_starts(draw):
    """A start as a fold hands it to _restore_equality: snapped alphas in
    [0, C], labels +-1, and alpha 0 outside the fold's training ``rows``."""
    n = draw(st.integers(1, 40))
    C = draw(st.sampled_from([0.01, 0.1, 1.0, 4.0, 1e3]))
    fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    alpha = np.array(draw(st.lists(fraction, min_size=n, max_size=n))) * C
    snap = svm._snap_width(C)
    alpha[alpha < snap] = 0.0
    alpha[alpha > C - snap] = C
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alpha[~rows] = 0.0
    return alpha, y, C, rows


@given(fold_starts())
@settings(max_examples=300, deadline=None)
def test_restore_equality_moves_the_rows_within_the_box(start):
    before, y, C, rows = start
    alpha = before.copy()
    svm._restore_equality(alpha, y, C, rows)
    snap = svm._snap_width(C)
    assert abs(alpha @ y) <= snap + 1e-12 * C * len(y)
    assert ((alpha >= 0) & (alpha <= C)).all()
    assert alpha[~rows].tobytes() == before[~rows].tobytes()
    moved = alpha != before
    after = alpha[moved]
    assert not ((after > 0) & (after < snap) | (after > C - snap) & (after < C)).any()
    assert ((after - before[moved]) * y[moved] * (before @ y) < 0).all()


@given(st.lists(st.integers(0, 4), min_size=1, max_size=20), st.sampled_from([0.25, 1.0, 4.0]),
       st.data())
def test_restore_equality_leaves_a_balanced_start_alone(quarters, C, data):
    # each alpha m C / 4 sits on one label +1 and one label -1 row; with C a
    # power of two every sum is exact, so sum(alpha * y) is exactly 0
    order = data.draw(st.permutations(range(2 * len(quarters))))
    alpha = (np.array(quarters * 2) * (C / 4))[order]
    y = np.repeat([1.0, -1.0], len(quarters))[order]
    rows = (alpha > 0) | np.array(data.draw(st.lists(st.booleans(), min_size=len(y),
                                                     max_size=len(y))))
    assert alpha @ y == 0.0
    before = alpha.copy()
    svm._restore_equality(alpha, y, C, rows)
    assert alpha.tobytes() == before.tobytes()


def test_fold_preconditions_are_checked_in_fold_order():
    # UP, UP, DOWN in two folds: holding out both UP rows leaves one row,
    # holding out the DOWN row leaves one class; fold 0's fault is raised
    data = toy_dataset([[0.0], [1.0]], [[2.0]])
    with pytest.raises(TrainingError, match="need at least 2 training samples"):
        svm.train_folds(data, ds.FoldAssignment(2, np.array([0, 0, 1])))
    with pytest.raises(TrainingError, match=r"single-class training data: \{'UP': 2, 'DOWN': 0\}"):
        svm.train_folds(data, ds.FoldAssignment(2, np.array([1, 1, 0])))
