import shutil

import numpy as np
import pytest

from setcast import cli
from setcast import dataset as ds
from setcast import naive_bayes, svm

from conftest import FIVE_DAY_EXPECTED_FEATURES, FIVE_DAY_EXPECTED_LABELS, raw_csv_text


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
    assert table.labels == FIVE_DAY_EXPECTED_LABELS


def test_ingest_rejects_short_series(tmp_path, capsys):
    raw = tmp_path / "short.csv"
    raw.write_text(raw_csv_text([
        ("2010-01-04", "100", "200", "300", "299", "33", "1000", "1100"),
        ("2010-01-05", "101", "201", "301", "300", "33", "1001", "1101"),
    ]))
    out = tmp_path / "samples.csv"
    assert run("ingest", "--data", str(raw), "--output", str(out)) == 2
    assert "error:" in capsys.readouterr().err


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
    assert model.kernel == svm.linear_kernel()


def test_train_requires_output(capsys):
    assert run("train", "--model", "nb") == 2
    assert "requires --output" in capsys.readouterr().err


def test_train_warns_when_pass_budget_hit(tmp_path, capsys):
    path = tmp_path / "svm.model"
    assert run("train", "--model", "svm", "--max-passes", "1",
               "--output", str(path)) == 0
    assert "pass budget" in capsys.readouterr().err
    assert not svm.load_model(path).converged


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
        assert naive_bayes.classify(model, row) == label
        assert float(p_up) == dist[0] and float(p_down) == dist[1]

    confusion = np.zeros((2, 2), dtype=int)
    for actual, pred in zip(data.labels, predicted):
        confusion[ds.CLASS_LABELS.index(actual), ds.CLASS_LABELS.index(pred)] += 1
    np.testing.assert_array_equal(confusion, [[16, 0], [6, 8]])


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
        (ds.UP, ds.UP, ds.DOWN, ds.DOWN),
        ("a", "b"),
    )
    model_path = tmp_path / "narrow.model"
    svm.save_model(
        svm.train_smo(data, svm.linear_kernel(), svm.TrainerConfig()), model_path
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
    data = ds.Dataset(np.arange(18, dtype=float).reshape(3, 6), (ds.UP,) * 3)
    ds.save_samples(data, path)
    assert run("cv", "--data", str(path), "--folds", "3") == 2


def test_train_single_class_data_is_training_error(tmp_path, capsys):
    path = tmp_path / "oneclass.csv"
    data = ds.Dataset(np.arange(18, dtype=float).reshape(3, 6), (ds.UP,) * 3)
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


def test_compare_single_class_data(tmp_path, capsys):
    path = tmp_path / "oneclass.csv"
    data = ds.Dataset(np.arange(24, dtype=float).reshape(4, 6), (ds.DOWN,) * 4)
    ds.save_samples(data, path)
    assert run("compare", "--data", str(path)) == 2
    assert "both classes" in capsys.readouterr().err


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
