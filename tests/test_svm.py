import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcast import dataset as ds
from setcast import svm
from setcast.errors import DataFormatError, TrainingError

from conftest import toy_dataset

XOR = toy_dataset([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])


# ---------------------------------------------------------------------- kernels
def test_kernel_values():
    assert svm.kernel_eval(svm.linear_kernel(), [1, 2], [3, 4]) == 11.0
    assert svm.kernel_eval(svm.polynomial_kernel(2), [1, 1], [1, 1]) == 9.0
    assert svm.kernel_eval(svm.rbf_kernel(3.7), [1.5, -2], [1.5, -2]) == 1.0


def test_kernel_dimension_mismatch():
    with pytest.raises(DataFormatError):
        svm.kernel_eval(svm.linear_kernel(), [1, 2], [1, 2, 3])
    model = _train(toy_dataset([[0, 0]], [[1, 1]]))
    with pytest.raises(DataFormatError):
        svm.decision_value(model, [1.0, 2.0, 3.0])


def test_kernel_spec_validation():
    with pytest.raises(DataFormatError):
        svm.KernelSpec("poly", degree=0)
    with pytest.raises(DataFormatError):
        svm.KernelSpec("rbf", delta_sq=0.0)
    with pytest.raises(DataFormatError):
        svm.KernelSpec("sigmoid")
    with pytest.raises(DataFormatError):
        svm.KernelSpec("linear", degree=3)


def test_trainer_config_validation():
    with pytest.raises(DataFormatError):
        svm.TrainerConfig(C=0.0)
    with pytest.raises(DataFormatError):
        svm.TrainerConfig(max_passes=0)


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
    for spec in (svm.linear_kernel(), svm.polynomial_kernel(3), svm.rbf_kernel(2.0)):
        assert svm.kernel_eval(spec, x, z) == pytest.approx(
            svm.kernel_eval(spec, z, x), rel=1e-12, abs=1e-12
        )


def test_kernel_matrix_agrees_with_kernel_eval():
    rng = np.random.default_rng(0)
    X, Z = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    for spec in (svm.linear_kernel(), svm.polynomial_kernel(2), svm.rbf_kernel(1.5)):
        K = svm.kernel_matrix(spec, X, Z)
        for i in range(4):
            for j in range(5):
                assert K[i, j] == pytest.approx(svm.kernel_eval(spec, X[i], Z[j]))


# ---------------------------------------------------------------------- training
def _train(data, kernel=None, **cfg):
    return svm.train_smo(
        data, kernel or svm.linear_kernel(), svm.TrainerConfig(**cfg)
    )


def test_two_point_analytic_solution():
    data = toy_dataset([[1.0]], [[-1.0]])
    model = _train(data, C=10.0)
    assert model.converged
    np.testing.assert_allclose(model.coefficients, [0.5, 0.5], atol=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert svm.decision_value(model, [0.0]) == pytest.approx(0.0, abs=1e-12)
    # weight vector has norm 1, so the geometric margin 2/||w|| is 2
    w = (model.coefficients * model.labels) @ model.support_vectors
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def _training_accuracy(model, data):
    preds = [svm.classify(model, x) for x in data.features]
    return np.mean([p == t for p, t in zip(preds, data.labels)])


def test_xor_kernels():
    assert _training_accuracy(_train(XOR, C=10.0), XOR) <= 0.75
    for kernel in (svm.polynomial_kernel(2), svm.rbf_kernel(1.0)):
        model = _train(XOR, kernel, C=10.0)
        assert model.converged
        assert _training_accuracy(model, XOR) == 1.0


def test_training_preconditions():
    with pytest.raises(TrainingError):
        _train(ds.Dataset(np.zeros((3, 1)), (ds.UP,) * 3, ("x",)))
    with pytest.raises(TrainingError):
        _train(ds.Dataset(np.zeros((1, 1)), (ds.UP,), ("x",)))


def test_model_invariants_on_random_problems():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_up, n_down = rng.integers(1, 6, size=2)
        d = int(rng.integers(1, 4))
        data = toy_dataset(rng.normal(size=(n_up, d)), rng.normal(size=(n_down, d)))
        C = float(rng.choice([0.5, 1.0, 4.0]))
        kernel = [svm.linear_kernel(), svm.polynomial_kernel(2),
                  svm.rbf_kernel(2.0)][int(rng.integers(3))]
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
        assert svm.decision_value(model, x) == pytest.approx(
            float(w @ x + model.bias), abs=1e-10
        )


def test_classification_rule():
    base = _train(toy_dataset([[1.0]], [[-1.0]]))
    up = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), np.zeros(0), 2.3,
                      base.kernel, 1.0, True)
    down = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), np.zeros(0), -0.1,
                        base.kernel, 1.0, True)
    tie = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), np.zeros(0), 0.0,
                       base.kernel, 1.0, True)
    assert svm.classify(up, [0.0]) == ds.UP
    assert svm.classify(down, [0.0]) == ds.DOWN
    assert svm.classify(tie, [0.0]) == ds.DOWN  # exact zero -> DOWN
    # empty support set: decision value is the bias
    assert svm.decision_value(up, [123.0]) == 2.3
    np.testing.assert_array_equal(svm.hard_distribution(up, [0.0]), [1.0, 0.0])
    np.testing.assert_array_equal(svm.hard_distribution(tie, [0.0]), [0.0, 1.0])


@pytest.mark.parametrize("kernel", [svm.linear_kernel(), svm.rbf_kernel(1.0)],
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
    assert [ds.CLASS_LABELS[i] for i in dist.argmax(axis=1)] == [
        svm.classify(model, x) for x in X
    ]
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
    assert abs(model.coefficients @ model.labels) <= 1e-8
    assert model.kkt_violation > 1e-3  # honest audit on the flagged model


def test_fixture_folds_converge(market_data):
    folds = ds.stratified_folds(market_data, 10, 1)
    for f in range(10):
        model = _train(market_data.subset(folds.train_indices(f)))
        assert model.converged
        assert model.kkt_violation <= 1e-3
        # free support vectors sit on the margin within tolerance
        free = model.coefficients < model.C - 1e-9
        for x, y, is_free in zip(model.support_vectors, model.labels, free):
            if is_free:
                assert y * svm.decision_value(model, x) == pytest.approx(
                    1.0, abs=1.1e-3
                )


# ----------------------------------------------------------------- serialization
@pytest.mark.parametrize(
    "kernel", [svm.linear_kernel(), svm.polynomial_kernel(3), svm.rbf_kernel(2.5)]
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
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    np.testing.assert_array_equal(again.support_vectors, model.support_vectors)
    for _ in range(10):
        x = rng.normal(size=3)
        assert svm.decision_value(again, x) == svm.decision_value(model, x)


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.model"
    path.write_text("model = nb\n")
    with pytest.raises(DataFormatError):
        svm.load_model(path)


# ------------------------------------------------ reference (per-iteration rebuild)
# The solver as it was before its bookkeeping went in place: every iteration
# rebuilds F, the index-set masks and the penalized copies, and reads kernel
# columns.  The current solver must reproduce it bit for bit.
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


def _reference_train_smo(dataset, kernel, config):
    n = len(dataset)
    X = dataset.features
    y = svm.labels_to_pm1(dataset.labels)
    K = _reference_kernel_matrix(kernel, X, X)
    C, tol = config.C, config.kkt_tol

    alpha = np.zeros(n)
    g = np.zeros(n)  # g_i = sum_j alpha_j y_j K_ij
    snap = 1e-10 * max(1.0, C)
    budget = config.max_passes * n
    converged = False
    for _ in range(budget):
        F = y - g
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up.any() or not low.any():
            converged = True
            break
        Fu = np.where(up, F, -np.inf)
        Fl = np.where(low, F, np.inf)
        i = int(np.argmax(Fu))
        j = int(np.argmin(Fl))
        if Fu[i] - Fl[j] <= tol:
            converged = True
            break
        s = y[i] * y[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if s < 0:
            lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
        else:
            lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
        if lo >= hi:
            break  # most violating pair cannot move: genuinely stuck
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta > 0:
            aj_new = float(np.clip(aj_old - y[j] * (F[i] - F[j]) / eta, lo, hi))
        else:
            aj_new = lo if svm._dual_delta(alpha, y, K, i, j, s, lo) >= svm._dual_delta(
                alpha, y, K, i, j, s, hi
            ) else hi
        if aj_new == aj_old:
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

    svm._repair_equality(alpha, y, C)
    g = K @ (alpha * y)
    b = svm._fit_bias(alpha, y, g, C)
    worst = _reference_worst_violation(alpha, y, g + b, C)
    return svm._package(X, alpha, y, b, kernel, C, converged and worst <= tol, worst)


def _assert_same_model(model, ref):
    for field in ("coefficients", "support_vectors", "labels"):
        got, want = getattr(model, field), getattr(ref, field)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), field
    assert model.bias.hex() == ref.bias.hex()
    assert model.converged == ref.converged
    assert model.kkt_violation.hex() == ref.kkt_violation.hex()


def _overlapping_problem(seed, n=80, d=4, scale=1.0):
    rng = np.random.default_rng(seed)
    return toy_dataset(rng.normal(0.3, 1.0, size=(n // 2, d)) * scale,
                       rng.normal(-0.3, 1.0, size=(n - n // 2, d)) * scale)


KERNELS = [svm.linear_kernel(), svm.polynomial_kernel(2), svm.rbf_kernel(1.0)]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("C", [0.1, 1.0, 4.0])
def test_solver_matches_reference_bitwise(kernel, C, market_data):
    for data in (_overlapping_problem(5), market_data):
        config = svm.TrainerConfig(C=C)
        _assert_same_model(svm.train_smo(data, kernel, config),
                           _reference_train_smo(data, kernel, config))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
def test_solver_matches_reference_on_pass_budget(kernel):
    data = _overlapping_problem(6)
    config = svm.TrainerConfig(C=4.0, max_passes=1)
    model = svm.train_smo(data, kernel, config)
    assert not model.converged
    _assert_same_model(model, _reference_train_smo(data, kernel, config))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("C", [0.1, 1.0, 4.0])
def test_solver_matches_reference_at_large_feature_scale(kernel, C):
    # At feature scale 1e6 the linear and polynomial fits stall without
    # converging.  With one row shared by both classes, eta = 0 for the
    # polynomial kernel at C = 0.1, and the chosen pair cannot move, which
    # ends the loop through its early exit.
    rng = np.random.default_rng(3)
    up, down = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    down[0] = up[0]
    config = svm.TrainerConfig(C=C)
    for data in (_overlapping_problem(7, n=30, scale=1e6),
                 toy_dataset(up * 1e6, down * 1e6)):
        _assert_same_model(svm.train_smo(data, kernel, config),
                           _reference_train_smo(data, kernel, config))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
def test_kernel_matrix_matches_reference_and_is_symmetric(kernel):
    rng = np.random.default_rng(8)
    X, Z = rng.normal(size=(40, 6)), rng.normal(size=(25, 6))
    assert (svm.kernel_matrix(kernel, X, Z).tobytes()
            == _reference_kernel_matrix(kernel, X, Z).tobytes())
    K = svm.kernel_matrix(kernel, X, X)
    assert K.tobytes() == _reference_kernel_matrix(kernel, X, X).tobytes()
    # the solver reads row K[i] in place of column K[:, i]
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


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
    """numpy as train_smo sees it, counting np.add calls: two per iteration."""

    def __init__(self):
        self.adds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        self.adds += 1
        return np.add(*args, **kwargs)


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
    assert counting.adds == 2
    assert not model.converged
    _assert_same_model(model, _reference_train_smo(data, kernel, config))
