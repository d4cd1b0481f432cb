"""Soft-margin support vector machine in dual form, trained by sequential
minimal optimization.

The decision function is f(x) = b + sum_i alpha_i y_i K(x_i, x) with
0 <= alpha_i <= C and sum_i alpha_i y_i = 0.  The trainer repeatedly picks the
maximal violating pair -- the sample pushing the KKT gap up hardest against
the sample pushing it down hardest -- and solves the two-variable subproblem
analytically; a pair whose curvature eta = K_ii + K_jj - 2 K_ij is <= 0
steps as if eta were TAU, as LIBSVM does.  That working-set rule needs no
randomness, makes the solver fully deterministic, and stops via a bias-free
gap criterion, so a final bias computed from the free support vectors always
satisfies the KKT conditions within the configured tolerance on convergence.

Each iteration costs O(n) in-place vector work.  The solver keeps
g_i = sum_j alpha_j y_j K_ij and two vectors that mark the index sets: y_up
holds y_i on the up set and -inf elsewhere, y_low holds y_i on the low set and
+inf elsewhere.  y_up - g and y_low - g are then the violations F = y - g
restricted to each set, whose argmax and argmin give the pair.  Only alpha_i
and alpha_j move, so g changes by two kernel rows and set membership changes
only at i and j.

A fit allocates one n x n kernel matrix, 8n^2 bytes, and no other n x n
array: the RBF kernel is built in place with one block of rows as its only
temporary.  No model array refers to the kernel matrix, so it is freed when
the fit returns.  :func:`train_folds` fits every fold of a cross-validation
on one kernel matrix over all n rows, masking each fold's test rows out of
the loop and zeroing their alphas, then restoring sum(alpha * y) = 0 from
the last fold's alphas by moving the fewest, free ones first; a fold
refitted after its pass budget builds its own only once that matrix is freed.

Class mapping is fixed: UP -> +1, DOWN -> -1, and a decision value of exactly
zero classifies as DOWN.  :func:`decision_values` and :func:`predict_proba`
are the prediction path, one row per sample; a row whose decision value is
not finite raises DataFormatError.
"""
from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .dataset import CLASS_LABELS, DOWN, UP, Dataset, FoldAssignment, KeyValueFile
from .errors import DataFormatError, TrainingError

LINEAR = "linear"
POLY = "poly"
RBF = "rbf"

TAU = 1e-12  #: the curvature a step uses for a pair with eta <= 0 (LIBSVM's tau)

#: Size of a kernel block: the rows decision_values evaluates at once, and
#: the rows of |x|^2 + |z|^2 an RBF kernel_matrix holds at once.
KERNEL_BLOCK_BYTES = 1 << 17


#: The settings each kernel kind takes, and the type each is stored as.
KERNEL_SETTINGS = {LINEAR: {}, POLY: {"degree": int}, RBF: {"delta_sq": float}}


def _setting(value, kind):
    """``kind(value)`` for a positive, finite int (or for float, int or float)
    ``value``, NumPy's included and never a bool; None for anything else."""
    kinds = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    with contextlib.suppress(OverflowError):  # float() of an int beyond float's range
        if isinstance(value, kinds) and not isinstance(value, bool) and 0 < kind(value) < math.inf:
            return kind(value)
    return None


class KernelSpec(namedtuple("KernelSpec", "kind degree delta_sq")):
    """Kernel choice: linear x.z, polynomial (x.z + 1)^degree with an int
    degree >= 1, or RBF exp(-||x - z||^2 / delta_sq) with 0 < delta_sq < inf,
    stored as a float: the settings KERNEL_SETTINGS lists, as :func:`_setting` reads them."""

    __slots__ = ()

    def __new__(cls, kind: str, degree: int | None = None, delta_sq: float | None = None):
        self = super().__new__(cls, kind, degree, delta_sq)
        settings = KERNEL_SETTINGS.get(kind) if isinstance(kind, str) else None
        stored = {n: _setting(getattr(self, n), t) for n, t in (settings or {}).items()}
        extra = [n for n in self._fields[1:] if n not in stored and getattr(self, n) is not None]
        if settings is None or extra or None in stored.values():
            raise DataFormatError(f"invalid kernel spec {self!r}")
        return self._replace(**stored)

    def describe(self) -> str:
        settings = KERNEL_SETTINGS[self.kind]
        return " ".join([self.kind] + [f"{n}={getattr(self, n)}" for n in settings])


class TrainerConfig(namedtuple("TrainerConfig", "C kkt_tol max_passes")):
    """SMO settings.

    ``max_passes`` bounds the optimization effort: each pass performs at most
    n two-variable updates, and the solver stops early once the largest KKT
    violation falls within ``kkt_tol``.  ``C`` and ``kkt_tol`` are ints or
    floats in (0, inf), stored as floats, and ``max_passes`` an int >= 1, as
    :func:`_setting` reads them.
    """

    __slots__ = ()

    def __new__(cls, C: float = 1.0, kkt_tol: float = 1e-3, max_passes: int = 100):
        self = super().__new__(cls, C, kkt_tol, max_passes)
        passes = max_passes
        if (max_passes := _setting(passes, int)) is None:
            raise DataFormatError(f"trainer config max_passes must be an int >= 1, got {passes!r}")
        C, kkt_tol = _setting(C, float), _setting(kkt_tol, float)
        if C is None or kkt_tol is None:
            raise DataFormatError(f"invalid trainer config {self!r}")
        return self._replace(C=C, kkt_tol=kkt_tol, max_passes=max_passes)


class SvmModel(NamedTuple):
    """Dual-form model; only support vectors (alpha > 0) are stored.

    ``kkt_violation`` is the largest per-sample KKT violation measured on the
    training set right after optimization; ``converged`` is true when it fell
    within the configured tolerance before the pass budget ran out.  ``stop``
    names the exit that ended the SMO loop: "gap reached", "pass budget",
    "stuck pair", "no move" or "snapped back", and ``iterations`` counts the
    two-alpha updates it applied; a loaded model's are empty and 0.
    """

    support_vectors: np.ndarray  # (m, d)
    coefficients: np.ndarray  # alpha, (m,)
    labels: np.ndarray  # +-1, (m,)
    bias: float
    kernel: KernelSpec
    C: float
    converged: bool
    kkt_violation: float = float("nan")
    stop: str = ""
    iterations: int = 0


def kernel_matrix(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel evaluations between the rows of X (n, d) and Z (m, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.shape[1] != Z.shape[1]:
        raise DataFormatError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    n, m = len(X), len(Z)
    inner = X @ Z.T
    if spec.kind == LINEAR:
        return inner
    if spec.kind == POLY:
        inner += 1.0
        inner **= spec.degree
        return inner
    # In place, in the association order of
    # exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / delta_sq): the only temporary is
    # one block of rows of |x|^2 + |z|^2.
    xx, zz = (X * X).sum(axis=1), (Z * Z).sum(axis=1)
    inner *= 2.0
    rows = max(1, KERNEL_BLOCK_BYTES // (8 * max(m, 1)))
    for start in range(0, n, rows):
        block = inner[start:start + rows]
        np.subtract(xx[start:start + rows, None] + zz[None, :], block, out=block)
    np.maximum(inner, 0.0, out=inner)
    np.negative(inner, out=inner)
    inner /= spec.delta_sq
    return np.exp(inner, out=inner)


def train_smo(dataset: Dataset, kernel: KernelSpec = KernelSpec(LINEAR),
              config: TrainerConfig = TrainerConfig()) -> SvmModel:
    """Solve the dual problem on a two-class dataset, by default with a linear
    kernel and the default TrainerConfig.  The n x n kernel matrix is
    allocated here and freed on return.

    Raises TrainingError when only one class is present or fewer than two
    samples exist, and DataFormatError when the kernel matrix or the fitted
    decision values are not finite.  On hitting the pass budget the best
    iterate is returned with ``converged=False`` rather than failing.
    """
    return _fit(dataset, [np.zeros(len(dataset), dtype=bool)], kernel, config)[0]


def train_folds(dataset: Dataset, folds: FoldAssignment, kernel: KernelSpec = KernelSpec(LINEAR),
                config: TrainerConfig = TrainerConfig()) -> list:
    """The ``folds.k`` models of a cross-validation over ``folds``: model f
    solves the dual problem on the rows outside fold f, as
    ``train_smo(dataset.subset(folds.assignment != f), kernel, config)``
    does, to the same tolerance and with the same pass budget per row.

    One n x n kernel matrix over all rows serves every fold: fold f's test
    rows keep alpha 0 and never enter a working pair.  Fold f starts from
    fold f - 1's alphas (alpha seeding; DeCoste & Wagstaff, KDD 2000), with
    sum(alpha * y) = 0 restored by moving the fewest alphas, free ones
    first, so it takes fewer iterations than a start from zero; the models
    differ from ``train_smo``'s within the KKT tolerance.  A seeded fold
    that stops at the pass budget is fitted again by ``train_smo`` once the
    shared kernel is freed, and that model replaces it if it converged, so
    a fold never converges less often than ``train_smo`` on its rows.

    Every fold's training rows are checked first, in fold order, with
    ``train_smo``'s TrainingError messages; a kernel matrix or fitted
    decision values that are not finite raise DataFormatError as there.
    """
    return _fit(dataset, [folds.test_mask(f, len(dataset)) for f in range(folds.k)], kernel, config)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises instead
def _fit(dataset, held_out, kernel, config):
    """One model per mask of ``held_out``, fitted on the rows outside it, in
    order, each started from the last one's alphas."""
    for test in held_out:
        _require_trainable(dataset.y[~test])
    y = np.where(dataset.y == CLASS_LABELS.index(UP), 1.0, -1.0)
    X = dataset.features
    K = kernel_matrix(kernel, X, X)  # bitwise symmetric: row K[i] is column i
    _require_finite(K, dataset, kernel)
    alpha, models, seeded = np.zeros(len(dataset)), [], []
    for test in held_out:
        alpha[test] = 0.0
        _restore_equality(alpha, y, config.C, ~test)
        seeded.append(alpha.any())
        model, alpha = _solve(K, y, alpha, ~test, dataset, kernel, config)
        models.append(model)
    del K  # a refit below builds its own, smaller kernel matrix
    for f, test in enumerate(held_out):
        if seeded[f] and models[f].stop == "pass budget":
            cold = train_smo(dataset.subset(~test), kernel, config)
            if cold.converged:
                models[f] = cold
    return models


def _require_trainable(labels):
    """Raise TrainingError unless the class indices ``labels`` hold two or
    more samples of both classes."""
    if len(labels) < 2:
        raise TrainingError("need at least 2 training samples")
    counts = np.bincount(labels, minlength=len(CLASS_LABELS))
    if not counts.all():
        counts = dict(zip(CLASS_LABELS, counts.tolist()))
        raise TrainingError(f"single-class training data: {counts}")


def _snap_width(C):
    """An alpha within this of 0 or C is set to 0 or C."""
    return 1e-10 * max(1.0, C)


def _solve(K, y, alpha, rows, dataset, kernel, config):
    """Fit the model on the rows where ``rows`` is true, by the SMO loop from
    ``alpha``; every other row has alpha 0 and never enters a working pair.
    The loop applies at most ``max_passes`` updates per row.  Then
    sum(alpha * y) = 0 is restored on the free rows, the bias fitted and the
    KKT conditions audited on the training rows.  Returns the model and the
    final alphas over all rows."""
    n = len(y)
    C, tol = config.C, config.kkt_tol
    g = K @ (alpha * y)
    up, low = _index_sets(alpha, y, C)
    y_up = np.where(up & rows, y, -np.inf)
    y_low = np.where(low & rows, y, np.inf)
    Fu, Fl, step_i, step_j = (np.empty(n) for _ in range(4))
    # Python floats while the loop runs: scalar reads of lists are cheaper
    a, ys, diag = alpha.tolist(), y.tolist(), K.diagonal().tolist()
    snap = _snap_width(C)
    budget = config.max_passes * int(np.count_nonzero(rows))
    for iterations in range(budget):  # the updates applied so far
        np.subtract(y_up, g, out=Fu)
        np.subtract(y_low, g, out=Fl)
        i = int(Fu.argmax())
        j = int(Fl.argmin())
        # an empty up (low) set leaves -inf (+inf) here, so the gap test
        # also stops on it
        gap = Fu.item(i) - Fl.item(j)
        if gap <= tol:
            stop = "gap reached"
            break
        yi, yj = ys[i], ys[j]
        s = yi * yj
        ai_old, aj_old = a[i], a[j]
        if s < 0:
            lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
        else:
            lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
        if lo >= hi:
            stop = "stuck pair"  # most violating pair cannot move
            break
        eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
        aj_new = float(min(max(aj_old - yj * gap / (eta if eta > 0 else TAU), lo), hi))
        aj_clipped = aj_new
        ai_new = ai_old + s * (aj_old - aj_new)
        if ai_new < snap:
            ai_new = 0.0
        elif ai_new > C - snap:
            ai_new = C
        if aj_new < snap:
            aj_new = 0.0
        elif aj_new > C - snap:
            aj_new = C
        if ai_new == ai_old and aj_new == aj_old:
            # a no-op step, which every later one would repeat; a zero clipped
            # step ends here too, since each stored alpha is a snap fixed point
            stop = "no move" if aj_clipped == aj_old else "snapped back"
            break
        np.multiply(K[i], (ai_new - ai_old) * yi, out=step_i)
        np.multiply(K[j], (aj_new - aj_old) * yj, out=step_j)
        step_i += step_j
        g += step_i
        a[i], a[j] = ai_new, aj_new
        for k in (i, j):
            y_up[k] = ys[k] if (a[k] < C if ys[k] > 0 else a[k] > 0) else -np.inf
            y_low[k] = ys[k] if (a[k] > 0 if ys[k] > 0 else a[k] < C) else np.inf
    else:
        iterations, stop = budget, "pass budget"
    alpha = np.array(a)
    _restore_equality(alpha, y, C, (alpha > 0) & (alpha < C))  # the free training rows
    g = K @ (alpha * y)
    a, t, g = alpha[rows], y[rows], g[rows]
    b = _fit_bias(a, t, g, C)
    f = g + b
    _require_finite(f, dataset, kernel)
    worst = _worst_violation(a, t, f, C)
    keep = alpha > 0
    return SvmModel(dataset.features[keep], alpha[keep], y[keep], b, kernel, float(C),
                    stop == "gap reached" and worst <= tol, worst, stop, iterations), alpha


def _require_finite(values, dataset, kernel):
    """Raise DataFormatError, naming the attribute of largest magnitude,
    unless every value is finite.  min and max propagate NaN and +-inf, so
    no array of flags is built."""
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        ai = int(np.abs(dataset.features).max(axis=0).argmax())
        raise DataFormatError(
            f"attribute {dataset.attribute_names[ai]}: the {kernel.describe()} SVM fit is "
            f"not finite; a feature value{' or the degree' if kernel.kind == POLY else ''} "
            "is too large in magnitude"
        )


def _index_sets(alpha, y, C):
    """Masks of the samples whose alpha may move so that y_i alpha_i grows
    (up) or shrinks (low)."""
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    return up, low


def _restore_equality(alpha, y, C, rows):
    """Move the alphas of ``rows`` in place until sum(alpha * y) = 0: free ones
    first, most room first, then the rest in index order, each within [0, C]
    and snapped to a bound within the snap width, until one takes it all."""
    residual = float(alpha @ y)
    free = rows & (alpha > 0) & (alpha < C)
    order = np.flatnonzero(free)[np.argsort(-np.minimum(alpha, C - alpha)[free], kind="stable")]
    snap = _snap_width(C)
    for i in np.concatenate([order, np.flatnonzero(rows & ~free)]).tolist():
        old, yi = alpha.item(i), y.item(i)
        candidate = old - yi * residual
        new = min(max(candidate, 0.0), C)
        alpha[i] = 0.0 if new < snap else C if new > C - snap else new
        if new == candidate:
            return
        residual += yi * (new - old)


def _fit_bias(alpha, y, g, C):
    """Bias from the mean margin residual of free support vectors, falling
    back to the midpoint of the feasible interval when none are free; an
    empty up (low) set would need sum(alpha * y) = +C * n_UP (-C * n_DOWN)."""
    F = y - g
    free = (alpha > 0) & (alpha < C)
    if free.any():
        return float(F[free].mean())
    up, low = _index_sets(alpha, y, C)
    return float((F[up].max() + F[low].min()) / 2.0)


def _worst_violation(alpha, y, f, C):
    """Largest KKT violation over all training samples given f = g + b."""
    yf = y * f
    violation = np.select(
        [alpha <= 0, alpha >= C], [1.0 - yf, yf - 1.0], np.abs(yf - 1.0)
    )
    return float(violation.max(initial=0.0))  # NaN stays NaN


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises instead
def decision_values(model: SvmModel, X) -> np.ndarray:
    """f(x) = b + sum_i alpha_i y_i K(x_i, x) for every row of X, in row
    blocks whose kernel block holds about KERNEL_BLOCK_BYTES, so memory stays
    flat in the number of rows.  Raises DataFormatError naming the first row
    whose f(x) is not finite.  An RBF kernel that underflows to 0 is exact,
    so such a row keeps the bias alone."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    weights = model.coefficients * model.labels
    if len(weights) == 0:
        return np.full(X.shape[0], model.bias)
    rows = max(1, KERNEL_BLOCK_BYTES // (8 * len(weights)))
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], rows):
        block = kernel_matrix(model.kernel, X[start:start + rows], model.support_vectors)
        out[start:start + rows] = block @ weights + model.bias
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise DataFormatError(f"sample {bad[0] + 1}: the SVM decision value is not finite; "
                              "a feature is NaN or too large in magnitude")
    return out


def predict_proba(model: SvmModel, X) -> np.ndarray:
    """One-hot (n, 2) distributions over CLASS_LABELS: UP for a positive
    decision value, DOWN otherwise (zero counts as DOWN)."""
    up = decision_values(model, X) > 0
    columns = np.where(up, CLASS_LABELS.index(UP), CLASS_LABELS.index(DOWN))
    return np.eye(len(CLASS_LABELS))[columns]


def save_model(model: SvmModel, path) -> None:
    """Serialize as flat ``key = value`` text, round-trip safe to 17 digits."""
    lines = [f"kernel = {model.kernel.kind}"] + [
        f"{n} = {getattr(model.kernel, n):{'.17g' if t is float else 'd'}}"
        for n, t in KERNEL_SETTINGS[model.kernel.kind].items()
    ] + [
        f"C = {model.C:.17g}",
        f"bias = {model.bias:.17g}",
        f"converged = {str(model.converged).lower()}",
        f"kkt_violation = {model.kkt_violation:.17g}",
        f"n_support = {len(model.coefficients)}",
    ]
    for i, (a, y_, v) in enumerate(
        zip(model.coefficients, model.labels, model.support_vectors)
    ):
        lines.append(f"sv.{i}.alpha = {a:.17g}")
        lines.append(f"sv.{i}.label = {int(y_)}")
        lines.append(f"sv.{i}.x = {','.join(format(t, '.17g') for t in v)}")
    KeyValueFile.write(path, "svm", lines)


def load_model(source) -> SvmModel:
    """Inverse of :func:`save_model`, from a path or a read KeyValueFile.  A
    missing, malformed or extra entry, a C that is not positive or an alpha
    outside (0, C] raises DataFormatError."""
    f = KeyValueFile.of(source).require("svm", "an SVM")
    kind = f.choice("kernel", tuple(KERNEL_SETTINGS))
    kernel = KernelSpec(kind, **{n: f.positive(n, t) for n, t in KERNEL_SETTINGS[kind].items()})
    C, bias = f.positive("C"), f.number("bias")
    converged = f.choice("converged", ("true", "false")) == "true"
    kkt_violation = f.number("kkt_violation")
    m = f.integer("n_support")
    coefficients = [f.positive(f"sv.{i}.alpha") for i in range(m)]
    for i, alpha in enumerate(coefficients):
        if alpha > C:
            raise DataFormatError(f"{f.path}: sv.{i}.alpha must be at most C = {C!r}, "
                                  f"got {alpha!r}")
    labels = np.array([float(f.choice(f"sv.{i}.label", ("1", "-1"))) for i in range(m)])
    vectors = [
        [f.convert(f"sv.{i}.x", t, float) for t in f.text(f"sv.{i}.x").split(",")]
        for i in range(m)
    ]
    if len({len(v) for v in vectors}) > 1:
        raise DataFormatError(f"{f.path}: support vectors differ in length")
    f.finish()
    return SvmModel(
        np.array(vectors) if m else np.zeros((0, 0)),
        np.array(coefficients),
        labels,
        bias,
        kernel,
        C,
        converged,
        kkt_violation,
    )
