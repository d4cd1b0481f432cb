"""Soft-margin support vector machine in dual form, trained by sequential
minimal optimization.

The decision function is f(x) = b + sum_i alpha_i y_i K(x_i, x) with
0 <= alpha_i <= C and sum_i alpha_i y_i = 0.  The trainer repeatedly picks the
maximal violating pair -- the sample pushing the KKT gap up hardest against
the sample pushing it down hardest -- and solves the two-variable subproblem
analytically.  That working-set rule needs no randomness, makes the solver
fully deterministic, and stops via a bias-free gap criterion, so a final bias
computed from the free support vectors always satisfies the KKT conditions
within the configured tolerance on convergence.

Each iteration costs O(n) in-place vector work.  The solver keeps
g_i = sum_j alpha_j y_j K_ij and the violation vector F = y - g, and marks
the up and low index sets with 0 / -inf (0 / +inf) penalty vectors.  Only
alpha_i and alpha_j of the chosen pair move, so g changes by two kernel rows,
F is recomputed from g as y - g, and set membership changes only at i and j.

Class mapping is fixed: UP -> +1, DOWN -> -1, and a decision value of exactly
zero classifies as DOWN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_LABELS, DOWN, UP, Dataset, KeyValueFile
from .errors import DataFormatError, TrainingError

LINEAR = "linear"
POLY = "poly"
RBF = "rbf"

#: Size of the kernel block decision_values evaluates at once.
KERNEL_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: linear x.z, polynomial (x.z + 1)^degree, or
    RBF exp(-||x - z||^2 / delta_sq)."""

    kind: str
    degree: int | None = None
    delta_sq: float | None = None

    def __post_init__(self):
        if self.kind == LINEAR:
            ok = self.degree is None and self.delta_sq is None
        elif self.kind == POLY:
            ok = isinstance(self.degree, int) and self.degree >= 1 and self.delta_sq is None
        elif self.kind == RBF:
            ok = self.degree is None and self.delta_sq is not None and self.delta_sq > 0
        else:
            ok = False
        if not ok:
            raise DataFormatError(f"invalid kernel spec {self!r}")

    def describe(self) -> str:
        if self.kind == POLY:
            return f"poly degree={self.degree}"
        if self.kind == RBF:
            return f"rbf delta_sq={self.delta_sq}"
        return "linear"


def linear_kernel() -> KernelSpec:
    return KernelSpec(LINEAR)


def polynomial_kernel(degree: int) -> KernelSpec:
    return KernelSpec(POLY, degree=degree)


def rbf_kernel(delta_sq: float) -> KernelSpec:
    return KernelSpec(RBF, delta_sq=delta_sq)


@dataclass(frozen=True)
class TrainerConfig:
    """SMO settings.

    ``max_passes`` bounds the optimization effort: each pass performs at most
    n two-variable updates, and the solver stops early once the largest KKT
    violation falls within ``kkt_tol``.
    """

    C: float = 1.0
    kkt_tol: float = 1e-3
    max_passes: int = 100

    def __post_init__(self):
        if not (self.C > 0 and self.kkt_tol > 0 and self.max_passes >= 1):
            raise DataFormatError(f"invalid trainer config {self!r}")


@dataclass(frozen=True)
class SvmModel:
    """Dual-form model; only support vectors (alpha > 0) are stored.

    ``kkt_violation`` is the largest per-sample KKT violation measured on the
    training set right after optimization; ``converged`` is true when it fell
    within the configured tolerance before the pass budget ran out.
    """

    support_vectors: np.ndarray  # (m, d)
    coefficients: np.ndarray  # alpha, (m,)
    labels: np.ndarray  # +-1, (m,)
    bias: float
    kernel: KernelSpec
    C: float
    converged: bool
    kkt_violation: float = float("nan")
    class_labels = CLASS_LABELS  # column order of predict_proba; not a field


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """Evaluate the kernel on a single pair of equal-length vectors."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape:
        raise DataFormatError(f"dimension mismatch: {x.shape} vs {z.shape}")
    if spec.kind == LINEAR:
        return float(x @ z)
    if spec.kind == POLY:
        return float((x @ z + 1.0) ** spec.degree)
    diff = x - z
    return float(np.exp(-(diff @ diff) / spec.delta_sq))


def kernel_matrix(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel evaluations between the rows of X (n, d) and Z (m, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.shape[1] != Z.shape[1]:
        raise DataFormatError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    inner = X @ Z.T
    if spec.kind == LINEAR:
        return inner
    if spec.kind == POLY:
        return (inner + 1.0) ** spec.degree
    # In place, in the association order of
    # exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / delta_sq): two (n, m) arrays.
    sq = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :]
    inner *= 2.0
    sq -= inner
    np.maximum(sq, 0.0, out=sq)
    np.negative(sq, out=sq)
    sq /= spec.delta_sq
    return np.exp(sq, out=sq)


def labels_to_pm1(labels) -> np.ndarray:
    """Map UP -> +1.0 and DOWN -> -1.0."""
    return np.where(np.asarray(labels, dtype=object) == UP, 1.0, -1.0)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises instead
def train_smo(dataset: Dataset, kernel: KernelSpec, config: TrainerConfig) -> SvmModel:
    """Solve the dual problem on a two-class dataset.

    Raises TrainingError when only one class is present or fewer than two
    samples exist, and DataFormatError when the kernel matrix or the fitted
    decision values are not finite.  On hitting the pass budget the best
    iterate is returned with ``converged=False`` rather than failing.
    """
    n = len(dataset)
    if n < 2:
        raise TrainingError("need at least 2 training samples")
    counts = dataset.class_counts()
    if any(cnt == 0 for cnt in counts.values()):
        raise TrainingError(f"single-class training data: {counts}")
    X = dataset.features
    y = labels_to_pm1(dataset.labels)
    K = kernel_matrix(kernel, X, X)  # bitwise symmetric: row K[i] is column i
    _require_finite(K, dataset, kernel)
    diag = K.diagonal()
    C, tol = config.C, config.kkt_tol

    g = np.zeros(n)  # g_i = sum_j alpha_j y_j K_ij
    F = y - g
    up, low = _index_sets(np.zeros(n), y, C)
    up_pen = np.where(up, 0.0, -np.inf)
    low_pen = np.where(low, 0.0, np.inf)
    Fu, Fl, step_i, step_j = (np.empty(n) for _ in range(4))
    # Python floats while the loop runs: scalar reads of lists are cheaper
    a, ys = [0.0] * n, y.tolist()
    snap = 1e-10 * max(1.0, C)
    budget = config.max_passes * n
    converged = False
    for _ in range(budget):
        np.add(F, up_pen, out=Fu)
        np.add(F, low_pen, out=Fl)
        i = int(Fu.argmax())
        j = int(Fl.argmin())
        # an empty up (low) set leaves -inf (+inf) here, so the gap test
        # also stops on it
        if Fu[i] - Fl[j] <= tol:
            converged = True
            break
        yi, yj = ys[i], ys[j]
        s = yi * yj
        ai_old, aj_old = a[i], a[j]
        if s < 0:
            lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
        else:
            lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
        if lo >= hi:
            break  # most violating pair cannot move: genuinely stuck
        eta = diag[i] + diag[j] - 2.0 * K[i, j]
        if eta > 0:
            aj_new = float(min(max(aj_old - yj * (F[i] - F[j]) / eta, lo), hi))
        else:
            alpha = np.array(a)
            aj_new = lo if _dual_delta(alpha, y, K, i, j, s, lo) >= _dual_delta(
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
        if ai_new == ai_old and aj_new == aj_old:
            # snapped back: a no-op step leaves a, g and both index sets as
            # they were, so every later iteration would repeat it
            break
        np.multiply(K[i], (ai_new - ai_old) * yi, out=step_i)
        np.multiply(K[j], (aj_new - aj_old) * yj, out=step_j)
        step_i += step_j
        g += step_i
        np.subtract(y, g, out=F)
        a[i], a[j] = ai_new, aj_new
        for k in (i, j):
            up_pen[k] = 0.0 if (a[k] < C if ys[k] > 0 else a[k] > 0) else -np.inf
            low_pen[k] = 0.0 if (a[k] > 0 if ys[k] > 0 else a[k] < C) else np.inf

    alpha = np.array(a)
    _repair_equality(alpha, y, C)
    g = K @ (alpha * y)
    b = _fit_bias(alpha, y, g, C)
    f = g + b
    _require_finite(f, dataset, kernel)
    worst = _worst_violation(alpha, y, f, C)
    return _package(X, alpha, y, b, kernel, C, converged and worst <= tol, worst)


def _require_finite(values, dataset, kernel):
    """Raise DataFormatError, naming the attribute of largest magnitude,
    unless every value is finite."""
    if not np.isfinite(values).all():
        ai = int(np.abs(dataset.features).max(axis=0).argmax())
        raise DataFormatError(
            f"attribute {dataset.attribute_names[ai]}: the {kernel.describe()} SVM fit is "
            "not finite; a feature value is too large in magnitude"
        )


def _index_sets(alpha, y, C):
    """Masks of the samples whose alpha may move so that y_i alpha_i grows
    (up) or shrinks (low)."""
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    return up, low


def _dual_delta(alpha, y, K, i, j, s, aj_value):
    """Dual objective with (alpha_i, alpha_j) moved along the constraint line."""
    a = alpha.copy()
    a[j] = aj_value
    a[i] = alpha[i] + s * (alpha[j] - aj_value)
    ay = a * y
    return a.sum() - 0.5 * ay @ K @ ay


def _repair_equality(alpha, y, C):
    """Absorb accumulated floating-point drift of sum(alpha * y) into the
    free coefficient with the most room."""
    residual = float(alpha @ y)
    if residual == 0.0:
        return
    free = np.flatnonzero((alpha > 0) & (alpha < C))
    order = free[np.argsort(-np.minimum(alpha[free], C - alpha[free]))]
    for i in order:
        candidate = alpha[i] - y[i] * residual
        if 0.0 <= candidate <= C:
            alpha[i] = candidate
            return


def _fit_bias(alpha, y, g, C):
    """Bias from the mean margin residual of free support vectors, falling
    back to the midpoint of the feasible interval when none are free."""
    F = y - g
    free = (alpha > 0) & (alpha < C)
    if free.any():
        return float(F[free].mean())
    up, low = _index_sets(alpha, y, C)
    lo = F[up].max() if up.any() else -math.inf
    hi = F[low].min() if low.any() else math.inf
    if math.isfinite(lo) and math.isfinite(hi):
        return float((lo + hi) / 2.0)
    if math.isfinite(lo):
        return float(lo)
    return float(hi) if math.isfinite(hi) else 0.0


def _worst_violation(alpha, y, f, C):
    """Largest KKT violation over all training samples given f = g + b."""
    yf = y * f
    violation = np.select(
        [alpha <= 0, alpha >= C], [1.0 - yf, yf - 1.0], np.abs(yf - 1.0)
    )
    return float(violation.max(initial=0.0))  # NaN stays NaN


def _package(X, alpha, y, b, kernel, C, converged, worst):
    keep = alpha > 0
    return SvmModel(
        X[keep].copy(),
        alpha[keep].copy(),
        y[keep].copy(),
        float(b),
        kernel,
        float(C),
        bool(converged),
        float(worst),
    )


def decision_value(model: SvmModel, x) -> float:
    """f(x) = b + sum_i alpha_i y_i K(x_i, x)."""
    return float(decision_values(model, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def decision_values(model: SvmModel, X) -> np.ndarray:
    """f(x) for every row of X, in row blocks whose kernel block holds about
    KERNEL_BLOCK_BYTES, so memory stays flat in the number of rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    weights = model.coefficients * model.labels
    if len(weights) == 0:
        return np.full(X.shape[0], model.bias)
    rows = max(1, KERNEL_BLOCK_BYTES // (8 * len(weights)))
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], rows):
        block = kernel_matrix(model.kernel, X[start:start + rows], model.support_vectors)
        out[start:start + rows] = block @ weights + model.bias
    return out


def predict_proba(model: SvmModel, X) -> np.ndarray:
    """One-hot (n, 2) distributions over CLASS_LABELS: UP for a positive
    decision value, DOWN otherwise (zero counts as DOWN)."""
    up = decision_values(model, X) > 0
    columns = np.where(up, CLASS_LABELS.index(UP), CLASS_LABELS.index(DOWN))
    return np.eye(len(CLASS_LABELS))[columns]


def hard_distribution(model: SvmModel, x) -> np.ndarray:
    """One-hot distribution over (UP, DOWN) for one sample."""
    return predict_proba(model, x)[0]


def classify(model: SvmModel, x) -> str:
    """UP for a positive decision value, DOWN otherwise (zero counts as DOWN)."""
    return CLASS_LABELS[int(np.argmax(hard_distribution(model, x)))]


def save_model(model: SvmModel, path) -> None:
    """Serialize as flat ``key = value`` text, round-trip safe to 17 digits."""
    lines = KeyValueFile.header("svm") + [f"kernel = {model.kernel.kind}"]
    if model.kernel.degree is not None:
        lines.append(f"degree = {model.kernel.degree}")
    if model.kernel.delta_sq is not None:
        lines.append(f"delta_sq = {model.kernel.delta_sq:.17g}")
    lines += [
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> SvmModel:
    """Inverse of :func:`save_model`.  A missing, malformed or extra entry
    raises DataFormatError."""
    f = KeyValueFile(path, "svm", "an SVM")
    kind = f.text("kernel")
    kernel = KernelSpec(
        kind,
        degree=f.integer("degree") if kind == POLY else None,
        delta_sq=f.number("delta_sq") if kind == RBF else None,
    )
    C, bias = f.number("C"), f.number("bias")
    converged = f.choice("converged", ("true", "false")) == "true"
    kkt_violation = f.number("kkt_violation")
    m = f.integer("n_support")
    coefficients = np.array([f.number(f"sv.{i}.alpha") for i in range(m)])
    labels = np.array([float(f.choice(f"sv.{i}.label", ("1", "-1"))) for i in range(m)])
    vectors = [
        [f.convert(f"sv.{i}.x", t, float) for t in f.text(f"sv.{i}.x").split(",")]
        for i in range(m)
    ]
    if len({len(v) for v in vectors}) > 1:
        raise DataFormatError(f"{path}: support vectors differ in length")
    f.finish()
    return SvmModel(
        np.array(vectors) if m else np.zeros((0, 0)),
        coefficients,
        labels,
        bias,
        kernel,
        C,
        converged,
        kkt_violation,
    )
