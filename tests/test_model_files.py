"""Strict model files: a model file with a line deleted or a value corrupted
either loads into an equal model or raises DataFormatError, and `predict`
exits 0 with the original output or 2, never with a traceback."""
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
        for kernel in (svm.linear_kernel(), svm.polynomial_kernel(2), svm.rbf_kernel(1.0))
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


@pytest.mark.parametrize("edit", ["missing", "0", "2", "unversioned"])
@pytest.mark.parametrize("kind", ["nb", "svm"])
def test_other_model_file_formats_exit_2_naming_the_format(saved_models, kind, edit, tmp_path,
                                                           capsys):
    module, text, _ = next(m for m in saved_models if m[1].startswith(f"model = {kind}\n"))
    assert text.splitlines()[1] == "format = 1"
    if edit == "unversioned":
        # the layout before format 1: no format line, and NB kinds/smoothing lines
        edited = UNVERSIONED_NB if kind == "nb" else text.replace("format = 1\n", "")
    elif edit == "missing":
        edited = text.replace("format = 1\n", "")
    else:
        edited = text.replace("format = 1\n", f"format = {edit}\n")
    path = tmp_path / "other.model"
    path.write_text(edited)
    found = f"'{edit}'" if edit in ("0", "2") else "none"
    message = f"expected model-file format 1, found {found}"
    with pytest.raises(DataFormatError, match=message):
        module.load_model(path)
    assert cli.main(["predict", "--model-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
