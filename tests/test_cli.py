import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from setcast import cli
from setcast import dataset as ds
from setcast import naive_bayes, svm

from conftest import FIVE_DAY_EXPECTED_FEATURES, FIVE_DAY_EXPECTED_Y, raw_csv_text


ROW = ("2010-01-04", "100", "200", "300", "299", "33", "1000", "1100")


def run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------- ingest
def test_ingest_builds_labeled_samples(five_day_csv, tmp_path):
    out = tmp_path / "samples.csv"
    assert run("ingest", "--data", str(five_day_csv), "--output", str(out)) == 0
    table = ds.load_samples(out)
    np.testing.assert_allclose(
        table.features, FIVE_DAY_EXPECTED_FEATURES, atol=1e-8
    )
    assert table.y.tolist() == FIVE_DAY_EXPECTED_Y


def test_ingest_rejects_short_series(tmp_path, capsys):
    raw = tmp_path / "short.csv"
    raw.write_text(raw_csv_text([
        ("2010-01-04", "100", "200", "300", "299", "33", "1000", "1100"),
        ("2010-01-05", "101", "201", "301", "300", "33", "1001", "1101"),
    ]))
    out = tmp_path / "samples.csv"
    assert run("ingest", "--data", str(raw), "--output", str(out)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("dates, message", [
    (["2010-01-04", "2010-01-05", "2010-01-05"], "'2010-01-05' after '2010-01-05'"),
    (["2010-01-05", "2010-01-04", "2010-01-06"], "'2010-01-04' after '2010-01-05'"),
    (["2010-01-04", "", "2010-01-06"], "'' after '2010-01-04'"),
    (["2010-01-04", "2010-1-5", "2010-01-06"], "'2010-1-5' after '2010-01-04'"),
    (["2010-01-04", "2010-01-05T00", "2010-01-06"], "'2010-01-05T00' after '2010-01-04'"),
    (["2010-01-04", "2010-01-05", "NaT"], "'NaT' after '2010-01-05'"),
    (["04/01/2010", "2010-01-05", "2010-01-06"], "date '04/01/2010': dates"),
], ids=["repeated", "backwards", "blank", "unpadded", "time", "nat", "first"])
def test_ingest_requires_increasing_iso_dates(tmp_path, capsys, dates, message):
    rows = [(d,) + ROW[1:] for d in dates]
    raw = tmp_path / "raw.csv"
    raw.write_text(raw_csv_text(rows + [("2010-01-29",) + ROW[1:]]))
    out = tmp_path / "samples.csv"
    assert run("ingest", "--data", str(raw), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "YYYY-MM-DD" in err
    assert not out.exists()


def test_ingest_checks_dates_of_incomplete_days(tmp_path, capsys):
    # the repeated day lacks a price, so it would be dropped before the chain
    rows = [("2010-01-04",) + ROW[1:], ("2010-01-04",) + ROW[1:-1] + ("",)] + [
        (f"2010-01-0{d}",) + ROW[1:] for d in (5, 6, 7)]
    raw = tmp_path / "raw.csv"
    raw.write_text(raw_csv_text(rows))
    assert run("ingest", "--data", str(raw), "--output", str(tmp_path / "o.csv")) == 2
    assert "'2010-01-04' after '2010-01-04'" in capsys.readouterr().err


def test_ingest_percent_change_beyond_float_range_exits_2(tmp_path, capsys):
    rows = [(f"2010-01-0{d}",) + ROW[1:] for d in (4, 5, 6, 7)]
    rows[1] = rows[1][:1] + ("1e307",) + rows[1][2:]  # NK rises 1e305-fold
    raw = tmp_path / "raw.csv"
    raw.write_text(raw_csv_text(rows))
    assert run("ingest", "--data", str(raw), "--output", str(tmp_path / "o.csv")) == 2
    err = capsys.readouterr().err
    assert "2010-01-05: a percent change is too large" in err
    assert "Warning" not in err


def test_ingest_change_beyond_ten_digit_float_range_exits_2(tmp_path, capsys):
    # a finite 1.7976931348e308 % change, which "%.10g" would write as
    # 1.797693135e+308, beyond the float range
    rows = [(f"2010-01-0{d}",) + ROW[1:] for d in (4, 5, 6, 7)]
    rows[0] = rows[0][:1] + ("1",) + rows[0][2:]
    rows[1] = rows[1][:1] + ("1.7976931348e306",) + rows[1][2:]
    raw, out = tmp_path / "raw.csv", tmp_path / "o.csv"
    raw.write_text(raw_csv_text(rows))
    assert run("ingest", "--data", str(raw), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert "sample 1: a feature value is too large" in err and "Traceback" not in err
    assert not out.exists()


def test_ingest_missing_input_is_io_error(tmp_path):
    assert run("ingest", "--data", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "out.csv")) == 3


def test_ingest_unwritable_output_is_io_error(five_day_csv, tmp_path):
    out = tmp_path / "missing-dir" / "out.csv"
    assert run("ingest", "--data", str(five_day_csv), "--output", str(out)) == 3


# ----------------------------------------------------------------------- train
def test_train_writes_model_files(tmp_path):
    nb_path = tmp_path / "nb.model"
    svm_path = tmp_path / "svm.model"
    assert run("train", "--model", "nb", "--output", str(nb_path)) == 0
    assert run("train", "--model", "svm", "--output", str(svm_path)) == 0
    assert nb_path.read_text().startswith("model = nb\n")
    model = svm.load_model(svm_path)
    assert model.converged
    assert model.kernel == svm.KernelSpec(svm.LINEAR)


def test_train_requires_output(capsys):
    assert run("train", "--model", "nb") == 2
    assert "requires --output" in capsys.readouterr().err
    # checked before --data is read
    assert run("train", "--model", "nb", "--data", "/nonexistent.csv") == 2
    assert "requires --output" in capsys.readouterr().err


def test_train_warns_when_pass_budget_hit(tmp_path, capsys):
    path = tmp_path / "svm.model"
    assert run("train", "--model", "svm", "--max-passes", "1",
               "--output", str(path)) == 0
    assert capsys.readouterr().err == "warning: SMO hit the pass budget before converging\n"
    assert not svm.load_model(path).converged


def test_train_names_the_exit_of_an_unconverged_fit(tmp_path, capsys):
    # at feature scale 1e6 the first SMO step snaps back, before any pass ends
    rng = np.random.default_rng(0)
    X, up = rng.normal(scale=1e6, size=(30, 6)), rng.random(30) < 0.5
    samples = tmp_path / "large.csv"
    samples.write_text("NK,HS,SET,USDTHB,SP500,GOLD,SET_DIRECTION\n" + "".join(
        ",".join("%.4f" % v for v in x) + (",UP\n" if u else ",DOWN\n") for x, u in zip(X, up)))
    path = tmp_path / "svm.model"
    assert run("train", "--model", "svm", "--data", str(samples), "--output", str(path)) == 0
    err = capsys.readouterr().err
    assert err == ("warning: SMO stopped (snapped back) before converging; "
                   "KKT violation 1\n")
    model = svm.load_model(path)
    assert not model.converged and len(model.coefficients) == 0


@pytest.mark.parametrize("flags, message", [
    (("--kernel", "rbf", "--delta-sq", "-1"), "--delta-sq must be > 0, got -1.0"),
    (("--kernel", "poly", "--degree", "0"), "--degree must be > 0, got 0"),
    (("--cost", "0"), "--cost must be > 0, got 0.0"),
    (("--kkt-tol", "nan"), "--kkt-tol must be > 0, got nan"),
    (("--max-passes", "0"), "--max-passes must be > 0, got 0"),
    (("--kernel", "rbf", "--delta-sq", "inf"), "--delta-sq must be finite and > 0, got inf"),
    (("--cost", "inf"), "--cost must be finite and > 0, got inf"),
    (("--kkt-tol", "inf"), "--kkt-tol must be finite and > 0, got inf"),
])
@pytest.mark.parametrize("command", ["train", "cv"])
def test_invalid_svm_flag_is_named(command, flags, message, tmp_path, capsys):
    assert run(command, "--model", "svm", *flags, "--output", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kernel, line, message", [
    ("rbf", "delta_sq = 0", "delta_sq must be positive, got 0.0"),
    ("poly", "degree = 0", "degree must be positive, got 0"),
    ("linear", "kernel = sigmoid", "kernel must be one of ('linear', 'poly', 'rbf'), got 'sigmoid'"),
])
def test_invalid_svm_model_key_is_named(kernel, line, message, tmp_path, capsys):
    path = tmp_path / "svm.model"
    assert run("train", "--model", "svm", "--kernel", kernel, "--output", str(path)) == 0
    lines = path.read_text().splitlines()
    key = line.partition(" = ")[0]
    lines = [line if entry.startswith(f"{key} = ") else entry for entry in lines]
    path.write_text("\n".join(lines) + "\n")
    assert run("predict", "--model-file", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# --------------------------------------------------------------------- predict
def test_predict_resubstitution_confusion(tmp_path):
    model_path = tmp_path / "nb.model"
    out = tmp_path / "pred.csv"
    assert run("train", "--model", "nb", "--output", str(model_path)) == 0
    assert run("predict", "--model-file", str(model_path),
               "--output", str(out)) == 0

    lines = out.read_text().strip().splitlines()
    assert lines[0] == "PREDICTED,P_UP,P_DOWN"
    predicted = [line.split(",")[0] for line in lines[1:]]
    data = ds.load_samples(cli.default_data_path())
    assert len(predicted) == len(data)

    # recompute every row against the library, independent of the CLI path
    model = naive_bayes.load_model(model_path)
    for row, line in zip(data.features, lines[1:]):
        label, p_up, p_down = line.split(",")
        dist = naive_bayes.predict_distribution(model, row)
        assert ds.CLASS_LABELS[int(np.argmax(dist))] == label
        assert float(p_up) == dist[0] and float(p_down) == dist[1]

    confusion = np.zeros((2, 2), dtype=int)
    for actual, pred in zip(data.y, predicted):
        confusion[actual, ds.CLASS_LABELS.index(pred)] += 1
    np.testing.assert_array_equal(confusion, [[16, 0], [6, 8]])


@pytest.mark.parametrize("model", ["nb", "svm"])
def test_predict_rows_are_the_same_in_any_block_size(tmp_path, capsys, monkeypatch, model):
    model_path, out = tmp_path / "m.model", tmp_path / "pred.csv"
    assert run("train", "--model", model, "--output", str(model_path)) == 0
    module = naive_bayes if model == "nb" else svm
    dist = module.predict_proba(module.load_model(model_path),
                                ds.load_samples(cli.default_data_path()).features)
    want = "PREDICTED,P_UP,P_DOWN\n" + "".join(
        "%s,%.17g,%.17g\n" % (ds.CLASS_LABELS[int(np.argmax(p))], *p) for p in dist)
    capsys.readouterr()
    for rows in (1, 7, ds.BLOCK_ROWS):
        monkeypatch.setattr(ds, "BLOCK_ROWS", rows)
        assert run("predict", "--model-file", str(model_path), "--output", str(out)) == 0
        assert run("predict", "--model-file", str(model_path)) == 0
        assert out.read_text() == capsys.readouterr().out == want


@pytest.mark.parametrize("model", ["nb", "svm"])
def test_predict_reads_its_model_file_once(tmp_path, monkeypatch, model):
    model_path = tmp_path / "m.model"
    assert run("train", "--model", model, "--output", str(model_path)) == 0
    reads, read_text = [], ds.read_text
    monkeypatch.setattr(ds, "read_text", lambda path: reads.append(path) or read_text(path))
    assert run("predict", "--model-file", str(model_path),
               "--output", str(tmp_path / "pred.csv")) == 0
    assert reads == [str(model_path)]


def test_predict_empty_sample_file(tmp_path, capsys):
    model_path = tmp_path / "nb.model"
    assert run("train", "--model", "nb", "--output", str(model_path)) == 0
    samples = tmp_path / "empty.csv"
    samples.write_text(",".join(ds.ATTRIBUTE_NAMES) + "\n")
    assert run("predict", "--model-file", str(model_path),
               "--data", str(samples)) == 0
    assert capsys.readouterr().out == "PREDICTED,P_UP,P_DOWN\n"


def test_predict_dimension_mismatch(tmp_path):
    data = ds.Dataset(
        np.array([[0.0, 1], [1, 0], [2, 2], [3, 3]]),
        [0, 0, 1, 1],  # UP, UP, DOWN, DOWN
        ("a", "b"),
    )
    model_path = tmp_path / "narrow.model"
    svm.save_model(
        svm.train_smo(data, svm.KernelSpec(svm.LINEAR), svm.TrainerConfig()), model_path
    )
    assert run("predict", "--model-file", str(model_path)) == 2


@pytest.mark.parametrize("bad_row", ["1,2,3,4,5", "1,2,3,4,5,6", "1,2,nan,4,5,6,UP",
                                     "1,2,3,inf,5,6,DOWN"])
@pytest.mark.parametrize("model", ["nb", "svm"])
def test_predict_rejects_ragged_or_non_finite_rows(tmp_path, capsys, model, bad_row):
    model_path = tmp_path / f"{model}.model"
    assert run("train", "--model", model, "--output", str(model_path)) == 0
    samples = tmp_path / "bad.csv"
    header = ",".join(ds.ATTRIBUTE_NAMES) + "," + ds.LABEL_COLUMN
    samples.write_text(f"{header}\n1,2,3,4,5,6,UP\n{bad_row}\n")
    assert run("predict", "--model-file", str(model_path),
               "--data", str(samples)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{samples}:3:" in captured.err


@pytest.mark.parametrize("model", ["nb", "svm"])
def test_predict_row_beyond_gaussian_range(tmp_path, capsys, model):
    model_path = tmp_path / f"{model}.model"
    assert run("train", "--model", model, "--output", str(model_path)) == 0
    samples = tmp_path / "huge.csv"
    samples.write_text(",".join(ds.ATTRIBUTE_NAMES) + "\n1e200,0,0,0,0,0\n")
    code = run("predict", "--model-file", str(model_path), "--data", str(samples))
    captured = capsys.readouterr()
    if model == "nb":  # no finite posterior: exit 2 naming the sample
        assert code == 2 and captured.out == "" and "sample 1" in captured.err
    else:  # a finite decision value, so a one-hot row
        assert code == 0 and captured.out.splitlines()[1] in ("UP,1,0", "DOWN,0,1")


@pytest.mark.parametrize("value", ["1e200", "-1e200"])
@pytest.mark.parametrize("argv", [
    ("train", "--model", "nb"),
    ("train", "--model", "svm", "--kernel", "linear"),
    ("train", "--model", "svm", "--kernel", "poly"),
    ("train", "--model", "svm", "--kernel", "rbf"),
    ("cv", "--model", "nb"),
    ("cv", "--model", "svm"),
    ("compare",),
], ids=["train-nb", "train-linear", "train-poly", "train-rbf", "cv-nb", "cv-svm", "compare"])
def test_training_feature_beyond_float_range_exits_2(tmp_path, capsys, argv, value):
    rng = np.random.default_rng(3)
    rows = [[f"{v:.6f}" for v in x] + [("UP", "DOWN")[i % 2]]
            for i, x in enumerate(rng.normal(size=(20, 6)))]
    rows[0][3] = value  # USDTHB
    samples = tmp_path / "huge.csv"
    samples.write_text(",".join(ds.ATTRIBUTE_NAMES + (ds.LABEL_COLUMN,)) + "\n"
                       + "".join(",".join(row) + "\n" for row in rows))
    assert run(*argv, "--data", str(samples), "--output", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "attribute USDTHB" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("value", ["1e200", "-1e200", "1e300"])
@pytest.mark.parametrize("kernel", ["linear", "poly", "rbf"])
def test_predict_decision_value_beyond_float_range(tmp_path, capsys, kernel, value):
    model_path = tmp_path / f"{kernel}.model"
    assert run("train", "--model", "svm", "--kernel", kernel, "--output", str(model_path)) == 0
    samples = tmp_path / "huge.csv"
    samples.write_text(",".join(ds.ATTRIBUTE_NAMES) + f"\n0,0,0,0,0,0\n{value},0,0,0,0,0\n")
    code = run("predict", "--model-file", str(model_path), "--data", str(samples))
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert "nan" not in captured.out.lower()
    if code == 2:
        assert captured.out == "" and "sample 2" in captured.err
    if kernel == "poly" and value != "1e300":
        assert code == 2  # (x.z + 1)^2 overflows, and inf - inf is NaN
    if kernel == "rbf":  # the kernel underflows to 0: the bias alone decides
        model = svm.load_model(model_path)
        want = "UP,1,0" if model.bias > 0 else "DOWN,0,1"
        assert code == 0 and captured.out.splitlines()[2] == want


def test_predict_unreadable_model_file(tmp_path):
    bogus = tmp_path / "bogus.model"
    bogus.write_text("something else entirely\n")
    assert run("predict", "--model-file", str(bogus)) == 2
    assert run("predict", "--model-file", str(tmp_path / "nope.model")) == 3


# -------------------------------------------------------------------------- cv
def test_cv_machine_output_is_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert run("cv", "--model", "nb", "--format", "machine",
                   "--output", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    entries = dict(
        line.partition(" = ")[::2]
        for line in a.read_text().strip().splitlines()
    )
    assert entries["model"] == "nb"
    assert entries["folds"] == "10"
    assert entries["seed"] == "1"
    assert entries["correct"] == "19"
    assert float(entries["rae_percent"]) == pytest.approx(79.39640570815253)
    assert float(entries["rrse_percent"]) == pytest.approx(108.76560666771722)
    assert "svm_folds_converged" not in entries


def test_cv_text_layout(capsys):
    assert run("cv", "--model", "svm") == 0
    out = capsys.readouterr().out
    assert out.startswith("Cross-validation: svm (linear, C=1.0), 10 folds, seed 1")
    for block in ("=== Summary ===", "=== Detailed accuracy by class ===",
                  "=== Confusion matrix ==="):
        assert block in out
    assert f"{'Correctly classified instances':40s}{20:6d}" in out


def test_cv_names_the_model_and_its_settings(tmp_path, capsys):
    path = tmp_path / "cv.txt"
    assert run("cv", "--format", "machine", "--output", str(path)) == 0
    assert path.read_text().splitlines()[1] == "model = nb"
    rbf = ("--model", "svm", "--kernel", "rbf", "--delta-sq", "2", "--cost", "4")
    assert run("cv", *rbf, "--format", "machine", "--output", str(path)) == 0
    assert path.read_text().splitlines()[1] == "model = svm (rbf delta_sq=2.0, C=4.0)"
    assert run("cv", *rbf) == 0
    assert capsys.readouterr().out.startswith(
        "Cross-validation: svm (rbf delta_sq=2.0, C=4.0), 10 folds, seed 1\n")


def test_cv_reports_svm_folds_that_did_not_converge(tmp_path, capsys):
    def machine(*flags):
        path = tmp_path / "cv.txt"
        assert run("cv", "--model", "svm", "--format", "machine", *flags,
                   "--output", str(path)) == 0
        return dict(line.partition(" = ")[::2]
                    for line in path.read_text().strip().splitlines())

    entries = machine()
    assert entries["svm_folds_converged"] == "10/10"
    assert not any(key.startswith("warning.") for key in entries)
    entries = machine("--max-passes", "1")
    converged, folds = map(int, entries["svm_folds_converged"].split("/"))
    assert folds == 10 and converged < folds
    message = f"SMO did not converge in {folds - converged} of {folds} folds"
    assert entries["warning.0"] == message
    assert run("cv", "--model", "svm", "--max-passes", "1") == 0
    assert f"note: {message}" in capsys.readouterr().out
    assert run("cv", "--model", "svm") == 0
    assert "note:" not in capsys.readouterr().out


def test_cv_rejects_single_fold(capsys):
    assert run("cv", "--folds", "1") == 2
    assert "error:" in capsys.readouterr().err


def test_cv_single_class_data_is_precondition_error(tmp_path):
    path = tmp_path / "oneclass.csv"
    data = ds.Dataset(np.arange(18, dtype=float).reshape(3, 6), [0] * 3)  # all UP
    ds.save_samples(data, path)
    assert run("cv", "--data", str(path), "--folds", "3") == 2


@pytest.mark.parametrize("labels, folds, message", [
    ([0, 0, 1], "3", "single-class training data: {'UP': 2, 'DOWN': 0}"),
    ([0, 1], "2", "need at least 2 training samples"),
], ids=["single-class fold", "one-row fold"])
def test_cv_svm_degenerate_fold_is_training_error(tmp_path, capsys, labels, folds, message):
    path = tmp_path / "samples.csv"
    ds.save_samples(ds.Dataset(np.arange(6.0 * len(labels)).reshape(-1, 6), labels), path)
    assert run("cv", "--model", "svm", "--data", str(path), "--folds", folds) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cv_machine_report_lists_each_svm_fold(tmp_path, capsys, market_data):
    path = tmp_path / "cv.txt"
    assert run("cv", "--model", "svm", "--format", "machine", "--output", str(path)) == 0
    lines = path.read_text().splitlines()
    start = lines.index("svm_folds_converged = 10/10") + 1
    fields = ("stop", "iterations", "kkt_violation", "n_support")
    assert [line.partition(" = ")[0] for line in lines[start:]] == [
        f"svm_fold.{f}.{name}" for f in range(10) for name in fields]
    models = svm.train_folds(market_data, ds.stratified_folds(market_data, 10, 1))
    assert lines[start:] == [
        f"svm_fold.{f}.{name} = {value}" for f, m in enumerate(models)
        for name, value in zip(fields, (m.stop, m.iterations, f"{m.kkt_violation:.17g}",
                                        len(m.coefficients)))]
    assert all(m.stop == "gap reached" and m.kkt_violation <= 1e-3 for m in models)
    assert run("cv", "--model", "svm") == 0
    assert "svm_fold" not in capsys.readouterr().out


def test_train_single_class_data_is_training_error(tmp_path, capsys):
    path = tmp_path / "oneclass.csv"
    data = ds.Dataset(np.arange(18, dtype=float).reshape(3, 6), [0] * 3)  # all UP
    ds.save_samples(data, path)
    assert run("train", "--data", str(path),
               "--output", str(tmp_path / "m.model")) == 4
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- compare
def test_compare_machine_report(tmp_path):
    out = tmp_path / "cmp.txt"
    assert run("compare", "--format", "machine", "--output", str(out)) == 0
    entries = dict(
        line.partition(" = ")[::2]
        for line in out.read_text().strip().splitlines()
    )
    assert entries["nb.fold_digest"] == entries["svm.fold_digest"]
    assert entries["nb.fold_digest"] == entries["fold_digest"]
    assert entries["nb.correct"] == "19"
    assert entries["svm.correct"] == "20"
    assert entries["svm.svm_folds_converged"] == "10/10"
    assert "nb.svm_folds_converged" not in entries
    assert "svm.svm_fold.9.n_support" in entries
    assert not any(key.startswith("nb.svm_fold") for key in entries)
    for prefix in ("nb", "svm"):
        for key in ("accuracy", "kappa", "mae", "rmse", "rae_percent",
                    "rrse_percent", "confusion.UP.DOWN"):
            assert f"{prefix}.{key}" in entries


def test_compare_text_report(capsys):
    assert run("compare") == 0
    out = capsys.readouterr().out
    assert "Model comparison on identical folds" in out
    assert "naive Bayes" in out and "SVM" in out
    for row in ("Accuracy (%)", "Mean absolute error", "Root mean squared error",
                "Relative absolute error (%)", "Root relative squared error (%)"):
        assert row in out


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_compare_assigns_the_folds_once(fmt, monkeypatch, capsys):
    calls, stratified_folds = [], ds.stratified_folds

    def counting(*args):
        calls.append(stratified_folds(*args))
        return calls[-1]

    monkeypatch.setattr(ds, "stratified_folds", counting)
    assert run("compare", "--format", fmt) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count(calls[0].digest()) == 3  # header, nb and svm


def test_compare_single_class_data(tmp_path, capsys):
    path = tmp_path / "oneclass.csv"
    data = ds.Dataset(np.arange(24, dtype=float).reshape(4, 6), [1] * 4)  # all DOWN
    ds.save_samples(data, path)
    assert run("compare", "--data", str(path), "--folds", "3") == 2
    assert "class with zero samples: ['UP']" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "1e400", "-inf"])
@pytest.mark.parametrize("argv", [("cv",), ("train",), ("compare",)])
def test_non_finite_sample_feature_names_file_and_line(tmp_path, capsys, argv, cell):
    lines = ds.read_text(cli.default_data_path()).splitlines()
    lines[4] = cell + lines[4][lines[4].index(","):]
    samples = tmp_path / "bad.csv"
    samples.write_text("\n".join(lines) + "\n")
    # train checks --output before it reads --data
    assert run(*argv, "--data", str(samples), "--output", str(tmp_path / "out")) == 2
    assert f"error: {samples}:5: non-finite feature value" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "setcast.cli", "cv", "--format", "machine"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "correct = 19" in done.stdout


def test_model_commands_load_no_rng_masked_arrays_or_openssl(tmp_path):
    """NB train, cv and compare shuffle, fit and fingerprint folds without
    numpy.random, numpy.ma or hashlib's OpenSSL binding, build their records
    without dataclasses, and find the bundled fixture without
    importlib.resources or tempfile.  The child runs under ``python -S``, so
    no .pth file of site-packages imports them first."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.path.dirname(os.path.dirname(np.__file__))]))
    code = ("import sys; from setcast.cli import main\n"
            f"for argv in (['train', '--model', 'nb', '--output', {str(tmp_path / 'nb')!r}],"
            f" ['cv', '--output', {str(tmp_path / 'cv')!r}],"
            f" ['compare', '--output', {str(tmp_path / 'compare')!r}]):\n"
            "    assert main(argv) == 0\n"
            "print(sorted({'numpy.random', 'numpy.ma', '_hashlib', 'importlib.resources',"
            " 'tempfile', 'dataclasses'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("command, kind, loaded", [
    ("cv", "nb", ["evaluation", "naive_bayes"]),
    ("cv", "svm", ["evaluation", "svm"]),
    ("predict", "nb", ["naive_bayes"]),
    ("predict", "svm", ["svm"]),
], ids=["cv-nb", "cv-svm", "predict-nb", "predict-svm"])
def test_commands_load_only_the_model_module_they_use(tmp_path, command, kind, loaded):
    """cv loads the one model module its --model names, and predict the one
    its model file names."""
    argv = ["cv", "--model", kind]
    if command == "predict":
        argv = ["predict", "--model-file", str(tmp_path / "m.model")]
        assert run("train", "--model", kind, "--output", argv[-1]) == 0
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import sys; from setcast.cli import main\n"
            f"assert main({argv + ['--output', str(tmp_path / 'out')]!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('setcast.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    want = sorted(f"setcast.{m}" for m in ["cli", "dataset", "errors", *loaded])
    assert (done.returncode, done.stderr, done.stdout) == (0, "", f"{want}\n")


def test_unknown_package_attribute_raises_attribute_error():
    import setcast

    with pytest.raises(AttributeError, match="^module 'setcast' has no attribute 'forest'$"):
        setcast.forest


# ------------------------------------------------------------------ data lookup
def test_data_dir_environment_override(tmp_path, monkeypatch, capsys):
    shutil.copy(cli.default_data_path(), tmp_path / cli.DEFAULT_DATA_FILE)
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
    assert cli.default_data_path() == str(tmp_path / cli.DEFAULT_DATA_FILE)
    assert run("cv", "--format", "machine") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"data = {tmp_path / cli.DEFAULT_DATA_FILE}"


@pytest.mark.parametrize("argv", [
    ("cv", "--jobs", "2"), ("compare", "--jobs", "2"),
    ("cv", "--smoothing", "add-one"), ("train", "--seed", "1", "--output", "m"),
], ids=["cv-jobs", "compare-jobs", "smoothing", "train-seed"])
def test_removed_flags_exit_2(argv):
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 2


def test_unknown_flag_value_exits_2():
    with pytest.raises(SystemExit) as info:
        run("cv", "--model", "forest")
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code == 2
