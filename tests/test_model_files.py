"""Strict model files: a model file with a line deleted, a value corrupted or
a key renamed, duplicated, truncated or re-cased either loads into an equal
model or raises DataFormatError, and `predict` exits 0 with the original
output or 2, never with a traceback."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcast import cli
from setcast import naive_bayes as nb
from setcast import svm
from setcast.errors import DataFormatError

BAD_VALUES = ["", "x", "nan", "inf", "-inf", "1e999", "1,x", "0x1p3", "--1", "true1", "UP,x"]


@pytest.fixture(scope="module")
def saved_models(market_data, tmp_path_factory):
    """(module, file text, predict exit code and output) for NB and SVM models."""
    models = [
        (nb, nb.train(market_data)),
        (nb, nb.train(market_data, estimator="plain", priors="uniform")),
    ] + [
        (svm, svm.train_smo(market_data, kernel, svm.TrainerConfig()))
        for kernel in (svm.KernelSpec(svm.LINEAR), svm.KernelSpec(svm.POLY, degree=2),
                       svm.KernelSpec(svm.RBF, delta_sq=1.0))
    ]
    work = tmp_path_factory.mktemp("models")
    saved = []
    for i, (module, model) in enumerate(models):
        path = work / f"{i}.model"
        module.save_model(model, path)
        saved.append((module, path.read_text(), _predict(path, work)))
    return saved


def _predict(model_path, work):
    out = work / "pred.csv"
    out.unlink(missing_ok=True)
    code = cli.main(["predict", "--model-file", str(model_path), "--output", str(out)])
    return code, out.read_text() if out.exists() else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_model_file_loads_equal_or_raises(saved_models, tmp_path_factory, data):
    module, text, predicted = data.draw(st.sampled_from(saved_models))
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.booleans()):
        del lines[i]
    else:
        lines[i] = lines[i].partition(" = ")[0] + " = " + data.draw(st.sampled_from(BAD_VALUES))
    _check_loads_equal_or_exits_2(module, lines, text, predicted, tmp_path_factory)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_key_name_loads_equal_or_raises(saved_models, tmp_path_factory, data):
    module, text, predicted = data.draw(st.sampled_from(saved_models))
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[i].partition(" = ")
    edit = data.draw(st.sampled_from(["rename", "duplicate", "truncate", "recase"]))
    if edit == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    else:
        if edit == "rename":  # to another key of the file, or to new text
            key = data.draw(st.sampled_from([line.partition(" = ")[0] for line in lines])
                            | st.text("abcxC._-UPDOWN01 ", max_size=10))
        elif edit == "truncate":
            key = key[:data.draw(st.integers(0, len(key) - 1))]
        else:
            key = data.draw(st.sampled_from([key.upper(), key.lower(), key.swapcase()]))
        lines[i] = f"{key} = {value}"
    _check_loads_equal_or_exits_2(module, lines, text, predicted, tmp_path_factory)


def _check_loads_equal_or_exits_2(module, lines, text, predicted, tmp_path_factory):
    """A model file of ``lines`` either loads into the model saved as ``text``
    and predicts as it did, or fails to load and makes `predict` exit 2."""
    work = tmp_path_factory.mktemp("mutated")
    path = work / "mutated.model"
    path.write_text("\n".join(lines) + "\n")
    try:
        model = module.load_model(path)
    except DataFormatError:
        loaded = False
    else:
        loaded = True
        module.save_model(model, work / "again.model")
        assert (work / "again.model").read_text() == text
    code, output = _predict(path, work)
    assert (code, output) == predicted if loaded else code == 2


@pytest.mark.parametrize("module, kind", [(nb, "nb"), (svm, "svm")])
def test_truncated_or_non_numeric_model_file_exits_2(module, kind, tmp_path, capsys):
    path = tmp_path / "model"
    assert cli.main(["train", "--model", kind, "--output", str(path)]) == 0
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(DataFormatError, match="missing"):
        module.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    key = "bias" if kind == "svm" else "prior.UP"
    path.write_text("\n".join(line if not line.startswith(key + " ") else f"{key} = abc"
                              for line in lines) + "\n")
    with pytest.raises(DataFormatError, match=f"bad value 'abc' for {key}"):
        module.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_predict_reads_every_layout_that_load_model_reads(saved_models, tmp_path):
    # predict picks the model by its model key, wherever that line is
    path = tmp_path / "moved.model"
    for module, text, predicted in saved_models:
        first, second, *rest = text.splitlines(True)
        for edited in ("\n" + text, "".join([second, first, *rest])):
            path.write_text(edited)
            module.save_model(module.load_model(path), tmp_path / "again.model")
            assert (tmp_path / "again.model").read_text() == text
            assert predicted[0] == 0 and _predict(path, tmp_path) == predicted


def test_unknown_duplicate_or_inconsistent_entries_are_rejected(saved_models, tmp_path):
    path = tmp_path / "edited.model"
    for module, text, _ in saved_models:
        first, second = text.splitlines()[:2]
        for edited in (text + "stray = 1\n", text + second + "\n"):
            path.write_text(edited)
            with pytest.raises(DataFormatError, match="unexpected key|duplicate key"):
                module.load_model(path)


def test_undecodable_model_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.model"
    path.write_bytes(b"model = nb\xe9\n")
    with pytest.raises(DataFormatError, match="utf-8"):
        nb.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "-0"])
def test_nb_sigma_not_positive_exits_2_naming_file_and_key(saved_models, tmp_path, capsys, value):
    key = "gaussian.UP.NK.sigma"
    path = tmp_path / "sigma.model"
    path.write_text(re.sub(f"^{re.escape(key)} = .*$", f"{key} = {value}", saved_models[0][1],
                           flags=re.M))
    message = f"{path}: {key} must be positive, got {float(value)!r}"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        nb.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _svm_text(saved_models):
    return next(text for module, text, _ in saved_models if module is svm)


def _edit_line(text, key, value):
    return re.sub(f"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)


@pytest.mark.parametrize("key, value, message", [
    ("C", "-3", "C must be positive, got -3.0"),
    ("C", "0", "C must be positive, got 0.0"),
    ("sv.0.alpha", "-5", "sv.0.alpha must be positive, got -5.0"),
    ("sv.0.alpha", "0", "sv.0.alpha must be positive, got 0.0"),
    ("sv.1.alpha", "1.5", "sv.1.alpha must be at most C = 1.0, got 1.5"),
], ids=["C negative", "C zero", "alpha negative", "alpha zero", "alpha above C"])
def test_svm_c_or_alpha_out_of_range_exits_2_naming_file_and_key(saved_models, tmp_path, capsys,
                                                                 key, value, message):
    # only support vectors, 0 < alpha <= C, are stored; the saved models
    # hold alphas equal to C, so the upper bound is inclusive
    text = _svm_text(saved_models)
    assert "\nC = 1\n" in text
    path = tmp_path / "range.model"
    path.write_text(_edit_line(text, key, value))
    message = f"{path}: {message}"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        svm.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_svm_support_vectors_of_different_lengths_exit_2(saved_models, tmp_path, capsys):
    text = _svm_text(saved_models)
    x = re.search("^sv.0.x = (.*)$", text, flags=re.M).group(1)
    path = tmp_path / "ragged.model"
    path.write_text(_edit_line(text, "sv.0.x", x + ",0"))
    message = f"{path}: support vectors differ in length"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        svm.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


UNVERSIONED_NB = """model = nb
classes = UP,DOWN
attributes = NK
kinds = continuous
estimator = plain
smoothing = add_one
prior.UP = 0.5
prior.DOWN = 0.5
gaussian.UP.NK.mu = 0
gaussian.UP.NK.sigma = 1
gaussian.DOWN.NK.mu = 1
gaussian.DOWN.NK.sigma = 1
"""

#: The format-1 layout: a rounded model also carried its training-only
#: rounding precision per attribute.
FORMAT_1_NB = """model = nb
format = 1
classes = UP,DOWN
attributes = NK
estimator = rounded
prior.UP = 0.5
prior.DOWN = 0.5
precision.NK = 0.01
gaussian.UP.NK.mu = 0
gaussian.UP.NK.sigma = 1
gaussian.DOWN.NK.mu = 1
gaussian.DOWN.NK.sigma = 1
"""


@pytest.mark.parametrize("edit", ["missing", "0", "1", "3", "unversioned"])
@pytest.mark.parametrize("kind", ["nb", "svm"])
def test_other_model_file_formats_exit_2_naming_the_format(saved_models, kind, edit, tmp_path,
                                                           capsys):
    module, text, _ = next(m for m in saved_models if m[1].startswith(f"model = {kind}\n"))
    assert text.splitlines()[1] == "format = 2"
    if edit == "unversioned":
        # the layout before format 1: no format line, and NB kinds/smoothing lines
        edited = UNVERSIONED_NB if kind == "nb" else text.replace("format = 2\n", "")
    elif edit == "1" and kind == "nb":
        edited = FORMAT_1_NB
    elif edit == "missing":
        edited = text.replace("format = 2\n", "")
    else:
        edited = text.replace("format = 2\n", f"format = {edit}\n")
    path = tmp_path / "other.model"
    path.write_text(edited)
    found = "none" if edit in ("missing", "unversioned") else f"'{edit}'"
    message = f"expected model-file format 2, found {found}"
    with pytest.raises(DataFormatError, match=message):
        module.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("classes", ["DOWN,UP", "UP", "UP,DOWN,FLAT", "up,down", ""])
def test_nb_classes_other_than_up_down_exit_2(saved_models, tmp_path, capsys, classes):
    text = saved_models[0][1]
    if classes == "UP":  # a one-class file: no DOWN entries either
        text = "".join(line for line in text.splitlines(True) if ".DOWN" not in line)
    path = tmp_path / "classes.model"
    path.write_text(text.replace("classes = UP,DOWN\n", f"classes = {classes}\n"))
    with pytest.raises(DataFormatError, match="classes"):
        nb.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert "classes" in err and "Traceback" not in err
