"""Command-line experiment runner.

Subcommands
-----------
ingest    raw daily price series -> labeled percent-change samples
train     fit a model and write it to a flat key = value file
predict   apply a saved model to a sample file, emitting label + distribution
cv        stratified k-fold cross-validation with a full metric report
compare   run both classifiers on identical folds, side by side

Exit codes (``EXIT_CODES``): 0 success, 2 usage or precondition violation,
3 I/O failure, 4 training failure.  The bundled 30-sample dataset is used
when --data is omitted; the environment variable SETCAST_DATA_DIR points the
default lookup at a different directory.

Each command imports only the model and evaluation modules it uses, so that
``ingest`` loads neither model and ``train``, ``predict`` and ``cv`` load one.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from functools import partial

from . import dataset as ds
from .errors import DataFormatError, TrainingError

DATA_DIR_ENV = "SETCAST_DATA_DIR"
DEFAULT_DATA_FILE = "set_samples.csv"

#: The exit code of each error kind that ``main`` reports; success is 0.
EXIT_CODES = {DataFormatError: 2, OSError: 3, TrainingError: 4}


def default_data_path() -> str:
    """Bundled fixture path, overridable via SETCAST_DATA_DIR."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return os.path.join(override, DEFAULT_DATA_FILE)
    return os.path.join(os.path.dirname(__file__), "data", DEFAULT_DATA_FILE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setcast",
        description="Train and evaluate SET direction classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, model_flag=True):
        p.add_argument("--data", help="labeled-sample CSV (default: bundled dataset)")
        if model_flag:
            p.add_argument("--model", choices=("nb", "svm"), default="nb")
        p.add_argument("--priors", choices=("frequency", "uniform"),
                       default="frequency", help="naive Bayes prior mode")
        p.add_argument("--kernel", choices=("linear", "poly", "rbf"), default="linear")
        p.add_argument("--degree", type=int, default=2,
                       help="polynomial kernel degree")
        p.add_argument("--delta-sq", type=float, default=1.0,
                       help="RBF kernel bandwidth delta^2")
        p.add_argument("--cost", type=float, default=1.0, help="SVM box constraint C")
        p.add_argument("--kkt-tol", type=float, default=1e-3)
        p.add_argument("--max-passes", type=int, default=100)
        p.add_argument("--output", help="write to this path instead of stdout")

    p_ingest = sub.add_parser("ingest", help="build labeled samples from raw prices")
    p_ingest.add_argument("--data", required=True, help="raw-series CSV")
    p_ingest.add_argument("--output", required=True, help="labeled-sample CSV to write")
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="fit a model on a sample file")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="apply a saved model to samples")
    p_predict.add_argument("--model-file", required=True)
    p_predict.add_argument("--data", help="sample CSV (default: bundled dataset)")
    p_predict.add_argument("--output", help="prediction CSV to write")
    p_predict.set_defaults(func=cmd_predict)

    for name, help_, func in (("cv", "stratified k-fold cross-validation", cmd_cv),
                              ("compare", "both classifiers on identical folds", cmd_compare)):
        p = sub.add_parser(name, help=help_)
        add_common(p, model_flag=name == "cv")
        p.add_argument("--folds", type=int, default=10)
        p.add_argument("--seed", type=int, default=1, help="fold assignment seed")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(func=func)
    return parser


def _data_path(args) -> str:
    return args.data if args.data else default_data_path()


@contextlib.contextmanager
def _output(path):
    """The file ``path`` opened for writing, or stdout when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, output) -> None:
    with _output(output) as fh:
        fh.write(text)


def _positive(args, name):
    """The value of the flag ``--name`` (dashes for underscores), which must
    be finite and > 0."""
    value, flag = getattr(args, name), name.replace("_", "-")
    if not value > 0:
        raise DataFormatError(f"--{flag} must be > 0, got {value!r}")
    if not math.isfinite(value):
        raise DataFormatError(f"--{flag} must be finite and > 0, got {value!r}")
    return value


def _folds(args, data):
    """The fold assignment of ``data`` that ``--folds`` and ``--seed`` ask
    for; --seed must be >= 0, then --folds must satisfy 2 <= k <= len(data)."""
    if args.seed < 0:
        raise DataFormatError(f"--seed must be >= 0, got {args.seed}")
    if not 2 <= args.folds <= len(data):
        raise DataFormatError(f"--folds must satisfy 2 <= k <= {len(data)}, got {args.folds}")
    return ds.stratified_folds(data, args.folds, args.seed)


def _module(kind):
    """The module of model ``kind``, "nb" or "svm", imported on first use."""
    if kind == "nb":
        from . import naive_bayes as module
    else:
        from . import svm as module
    return module


def _model(args, kind):
    """The module of model ``kind``, its trainer and its fold trainer, both
    configured by the flags, and the model's name in reports."""
    module = _module(kind)
    if kind == "nb":
        return (module, partial(module.train, priors=args.priors),
                partial(module.train_folds, priors=args.priors), "nb")
    kernel = module.KernelSpec(
        args.kernel, **{n: _positive(args, n) for n in module.KERNEL_SETTINGS[args.kernel]})
    config = module.TrainerConfig(C=_positive(args, "cost"), kkt_tol=_positive(args, "kkt_tol"),
                                  max_passes=_positive(args, "max_passes"))
    return (module, partial(module.train_smo, kernel=kernel, config=config),
            partial(module.train_folds, kernel=kernel, config=config),
            f"svm ({kernel.describe()}, C={config.C})")


def _config_lines(args, *, model=None) -> list:
    lines = [f"data = {_data_path(args)}"]
    if model:
        lines.append(f"model = {model}")
    lines.append(f"folds = {args.folds}")
    lines.append(f"seed = {args.seed}")
    return lines


def cmd_ingest(args) -> int:
    series = ds.load_raw_series(args.data)
    table = ds.build_training_table(series)
    ds.save_samples(table, args.output)
    return 0


def cmd_train(args) -> int:
    if not args.output:
        raise DataFormatError("train requires --output for the model file")
    data = ds.load_samples(_data_path(args))
    module, train, _, _ = _model(args, args.model)
    model = train(data)
    module.save_model(model, args.output)
    if not getattr(model, "converged", True):
        print("warning: SMO hit the pass budget before converging" if model.stop == "pass budget"
              else f"warning: SMO stopped ({model.stop}) before converging; KKT violation "
              f"{model.kkt_violation:.3g}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    model_file = ds.KeyValueFile(args.model_file)
    if model_file.model not in ("nb", "svm"):
        raise DataFormatError(f"{args.model_file}: unreadable model file")
    module = _module(model_file.model)
    model = module.load_model(model_file)
    X, _ = ds.read_csv(_data_path(args), ds.FEATURES)  # (0, 6) for a header-only file
    dist = module.predict_proba(model, X)
    labels = ds.CLASS_LABELS
    with _output(args.output) as fh:
        fh.write("PREDICTED," + ",".join(f"P_{c}" for c in labels) + "\n")
        ds.write_rows(fh, [c + ",%.17g" * len(labels) + "\n" for c in labels],
                      dist, dist.argmax(axis=1))
    return 0


def cmd_cv(args) -> int:
    from . import evaluation

    data = ds.load_samples(_data_path(args))
    module, _, train_folds, name = _model(args, args.model)
    report = evaluation.cross_validate(data, train_folds, module.predict_proba,
                                       _folds(args, data))
    if args.format == "machine":
        header = _config_lines(args, model=name)
        text = "\n".join(header) + "\n" + evaluation.render_machine(report)
    else:
        text = (
            f"Cross-validation: {name}, {args.folds} folds, "
            f"seed {args.seed}\n\n" + evaluation.render_text(report)
        )
    _emit(text, args.output)
    return 0


_COMPARE_ROWS = (
    ("Accuracy (%)", lambda r: 100 * r.accuracy),
    ("Mean absolute error", lambda r: r.mae),
    ("Root mean squared error", lambda r: r.rmse),
    ("Relative absolute error (%)", lambda r: r.rae),
    ("Root relative squared error (%)", lambda r: r.rrse),
)


def cmd_compare(args) -> int:
    from . import evaluation

    data = ds.load_samples(_data_path(args))
    folds = _folds(args, data)

    def report(kind):
        module, _, train_folds, _ = _model(args, kind)
        return evaluation.cross_validate(data, train_folds, module.predict_proba, folds)

    # the SVM's kernel matrix is the peak; fitted first, it sits on less heap
    try:
        svm_report = report("svm")
    except (DataFormatError, TrainingError):
        report("nb")  # naive Bayes' error, if it has one, comes first as before
        raise
    nb_report = report("nb")

    if args.format == "machine":
        lines = _config_lines(args)
        lines.append(f"fold_digest = {folds.digest()}")
        for prefix, report in (("nb", nb_report), ("svm", svm_report)):
            for line in evaluation.render_machine(report).splitlines():
                lines.append(f"{prefix}.{line}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0

    width = 34
    lines = [
        f"Model comparison on identical folds (k={args.folds}, seed {args.seed}, "
        f"digest {folds.digest()})",
        "",
        f"{'':{width}s}{'naive Bayes':>16s}{'SVM':>16s}",
    ]
    for name, extract in _COMPARE_ROWS:
        lines.append(
            f"{name:{width}s}{extract(nb_report):>16.4f}{extract(svm_report):>16.4f}"
        )
    text = "\n".join(lines) + "\n"
    for title, report in (("naive Bayes", nb_report), ("SVM", svm_report)):
        text += f"\n=== {title} ===\n" + evaluation.render_text(report)
    _emit(text, args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
