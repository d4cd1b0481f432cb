"""The exit-code contract under mutated inputs: every subcommand, given a
sample, raw-series, feature or model file with cells, lines or bytes
mutated, exits 0, 2, 3 or 4 with no exception, no traceback and no warning,
an exit 0 writes no NaN, and an exit 2 names its cause rather than printing
a kernel or trainer dataclass repr."""
import contextlib
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setcast import cli
from setcast import dataset as ds
from setcast.errors import DataFormatError, TrainingError

from conftest import FIVE_DAY_ROWS, raw_csv_text

MODELS = {"nb": ("--model", "nb"), "linear": ("--model", "svm"),
          "poly": ("--model", "svm", "--kernel", "poly"),
          "rbf": ("--model", "svm", "--kernel", "rbf")}

#: (target, file mutated, argv with INPUT for that file and MODEL:<kind> for
#: an intact model file)
TARGETS = {
    "train-nb": ("samples", ("train", "--data", "INPUT") + MODELS["nb"]),
    "train-poly": ("samples", ("train", "--data", "INPUT") + MODELS["poly"]),
    "cv-nb": ("samples", ("cv", "--data", "INPUT", "--folds", "3") + MODELS["nb"]),
    "cv-rbf": ("samples", ("cv", "--data", "INPUT", "--folds", "3") + MODELS["rbf"]),
    "compare": ("samples", ("compare", "--data", "INPUT", "--folds", "3", "--format", "machine")),
    "predict-samples": ("samples", ("predict", "--data", "INPUT", "--model-file", "MODEL:nb")),
    "predict-features-nb": ("features", ("predict", "--data", "INPUT", "--model-file", "MODEL:nb")),
    "predict-features-rbf": ("features", ("predict", "--data", "INPUT",
                                          "--model-file", "MODEL:rbf")),
    "ingest": ("raw", ("ingest", "--data", "INPUT")),
    "predict-nb": ("nb", ("predict", "--model-file", "INPUT")),
    "predict-linear": ("linear", ("predict", "--model-file", "INPUT")),
    "predict-poly": ("poly", ("predict", "--model-file", "INPUT")),
    "predict-rbf": ("rbf", ("predict", "--model-file", "INPUT")),
}

CELLS = ["", "0", "-0", "1", "-1", "5e-324", "1e-300", "1e200", "-1e200", "1e300", "1e308",
         "1.7976931348623157e308", "1e400", "nan", "inf", "-inf", "x", "UP", "DOWN", "up",
         "2010-01-04", "2010-01-05", "2009-12-31", "NaT", '"', '"1"', "1,2", "0x10", "1_0",
         "poly", "rbf", "true", "999999999999"]

#: A mutation: ("cell", line, cell, value), ("line", "delete" / "repeat" /
#: "swap", line, other) or ("byte", position, byte, "replace" / "insert" /
#: "truncate").  Indexes wrap around the file they are applied to.
MUTATION = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 99), st.integers(0, 9),
              st.sampled_from(CELLS) | st.floats().map(repr)),
    st.tuples(st.just("line"), st.sampled_from(["delete", "repeat", "swap"]),
              st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("byte"), st.integers(0, 9999), st.integers(0, 255),
              st.sampled_from(["replace", "insert", "truncate"])),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The intact text of each input kind, and a saved model file per kind."""
    work = tmp_path_factory.mktemp("inputs")
    samples = ds.read_text(cli.default_data_path())
    texts = {
        "samples": "\n".join(samples.splitlines()[:13]) + "\n",
        "features": "".join(line.rpartition(",")[0] + "\n" for line in samples.splitlines()),
        "raw": raw_csv_text(FIVE_DAY_ROWS),
    }
    for kind, flags in MODELS.items():
        path = work / f"{kind}.model"
        assert cli.main(["train", *flags, "--output", str(path)]) == 0
        texts[kind] = path.read_text()
    return work, texts


def mutate(text: str, mutation) -> str:
    op, a, b, c = mutation
    lines = text.split("\n")
    if op == "cell":
        i = a % len(lines)
        cells = re.split(r"(,| = )", lines[i])
        cells[2 * (b % (len(cells) // 2 + 1))] = c
        lines[i] = "".join(cells)
    elif op == "line":
        i, j = b % len(lines), c % len(lines)
        if a == "delete":
            del lines[i]
        elif a == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    else:
        data = bytearray(text.encode("utf-8", "surrogateescape"))
        i = a % (len(data) + 1)
        if c == "truncate":
            return bytes(data[:i]).decode("utf-8", "surrogateescape")
        data[i:i + (c == "replace")] = bytes([b])
        return bytes(data).decode("utf-8", "surrogateescape")
    return "\n".join(lines)


@settings(max_examples=250, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
# Each example printed a NumPy RuntimeWarning before the fix it pins.
@example(target="ingest", mutations=[("cell", 2, 1, "1e308")])  # percent change overflows
@example(target="predict-nb", mutations=[("cell", 5, 1, "0")])  # prior.UP = 0: log(0)
@example(target="predict-nb", mutations=[("cell", 6, 1, "-1")])  # prior.DOWN = -1: NaN
@example(target="predict-poly", mutations=[("cell", 3, 1, "999999999999")])  # degree
@example(target="predict-features-rbf", mutations=[("cell", 1, 0, "1e300")])  # |x|^2
# Each example printed a KernelSpec repr before the file and key were named.
@example(target="predict-rbf", mutations=[("cell", 3, 1, "0")])  # delta_sq = 0
@example(target="predict-poly", mutations=[("cell", 3, 1, "0")])  # degree = 0
@example(target="predict-linear", mutations=[("cell", 2, 1, "sigmoid")])  # kernel
def test_every_subcommand_keeps_the_exit_code_contract(inputs, target, mutations):
    work, texts = inputs
    kind, argv = TARGETS[target]
    text = texts[kind]
    for mutation in mutations:
        text = mutate(text, mutation)
    path = work / "input"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    output = work / "output"
    output.unlink(missing_ok=True)
    argv = [str(path) if a == "INPUT" else str(work / f"{a[6:]}.model")
            if a.startswith("MODEL:") else a for a in argv] + ["--output", str(output)]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 2:
        assert "KernelSpec(" not in err.getvalue() and "TrainerConfig(" not in err.getvalue()
    if code == 0:
        assert not re.search(r"\bnan\b", output.read_text(), re.IGNORECASE)


@pytest.mark.parametrize("command", ["cv", "compare"])
def test_negative_seed_exits_2_naming_the_flag(command, capsys):
    assert cli.main([command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("folds", [1, 31])
@pytest.mark.parametrize("command", ["cv", "compare"])
def test_fold_count_out_of_range_exits_2_naming_the_flag(command, folds, capsys):
    assert cli.main([command, "--folds", str(folds)]) == 2
    assert capsys.readouterr().err == f"error: --folds must satisfy 2 <= k <= 30, got {folds}\n"


@pytest.mark.parametrize("folds", [255, 256, 300])
def test_every_fold_count_up_to_n_runs(folds, tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "samples.csv"
    ds.save_samples(ds.Dataset(rng.normal(size=(300, 6)),
                               np.where(rng.random(300) < 0.5, 0, 1)), path)  # UP, DOWN
    output = tmp_path / "report"
    assert cli.main(["cv", "--model", "nb", "--data", str(path), "--folds", str(folds),
                     "--format", "machine", "--output", str(output)]) == 0
    assert re.search(r"^fold_digest = [0-9a-f]{8}$", output.read_text(), re.MULTILINE)


@pytest.mark.parametrize("argv, message", [
    (("cv", "--model", "svm", "--cost", "-1", "--seed", "-1"), "--cost must be > 0, got -1.0"),
    (("compare", "--cost", "-1", "--seed", "-1"), "--seed must be >= 0, got -1"),
    (("cv", "--seed", "-1", "--folds", "1"), "--seed must be >= 0, got -1"),
    (("compare", "--seed", "-1", "--folds", "1"), "--seed must be >= 0, got -1"),
    (("cv", "--model", "svm", "--kernel", "rbf", "--delta-sq", "0", "--folds", "1"),
     "--delta-sq must be > 0, got 0.0"),
    (("compare", "--kernel", "rbf", "--delta-sq", "0", "--folds", "1"),
     "--folds must satisfy 2 <= k <= 30, got 1"),
])
def test_flag_checks_keep_their_order(argv, message, capsys):
    # cv checks its model's flags before --seed and --folds; compare checks
    # --seed and --folds before either model's
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exit_code_table_is_the_documented_contract():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert ("`0` success, `2` usage or precondition violation, `3` I/O failure, "
            "`4` training failure") in readme
    assert cli.EXIT_CODES == {DataFormatError: 2, OSError: 3, TrainingError: 4}


def test_os_error_subclass_exits_3(tmp_path, capsys):
    # reading a directory raises IsADirectoryError, a subclass of OSError
    assert cli.main(["predict", "--model-file", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
