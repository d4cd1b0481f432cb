"""Output checks.  Each failed check marks its operation as failed.

The references come from the library itself, called in-process on the same
input files: the ingest table, naive Bayes distributions from the written
model file, and the stratified fold digest.  Structural checks cover what no
reference is needed for (row counts, distributions, count identities).
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

FOLDS, FOLD_SEED = 10, 1  # the CLI defaults; the benchmark never passes them
MAE_TOL = 1e-12
DIST_TOL = 1e-9


def flag(argv, name, default=None):
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else default


def parse_machine(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def digest_files(ops) -> dict:
    """sha256 of the file each op writes (None if absent), keyed by op index."""
    paths = [Path(flag(op.argv, "--output")) for op in ops]
    return {i: hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for i, p in enumerate(paths)}


class References:
    """In-process library results, computed once per input file."""

    def __init__(self, fixture: str):
        from setcast import dataset, naive_bayes

        self.ds, self.nb = dataset, naive_bayes
        self.fixture = fixture
        self._samples = {}

    def samples(self, path):
        if path not in self._samples:
            self._samples[path] = self.ds.load_samples(path)
        return self._samples[path]

    def data_path(self, argv):
        return flag(argv, "--data", self.fixture)

    def fold_digest(self, path):
        return self.ds.stratified_folds(self.samples(path), FOLDS, FOLD_SEED).digest()

    def ingest_bytes(self, raw, scratch: Path) -> bytes:
        table = self.ds.build_training_table(self.ds.load_raw_series(raw))
        self.ds.save_samples(table, scratch)
        return scratch.read_bytes()


def _report_errors(fields: dict, n: int, digest: str, svm: bool) -> list:
    errors = []
    try:
        instances = int(fields["instances"])
        correct, incorrect = int(fields["correct"]), int(fields["incorrect"])
        accuracy, mae = float(fields["accuracy"]), float(fields["mae"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable report field: {exc}"]
    if instances != n:
        errors.append(f"instances {instances} != {n}")
    if correct + incorrect != n:
        errors.append(f"correct + incorrect = {correct + incorrect} != {n}")
    if correct != round(accuracy * n):
        errors.append(f"accuracy {accuracy} disagrees with correct = {correct}")
    if fields.get("fold_digest") != digest:
        errors.append(f"fold digest {fields.get('fold_digest')} != {digest}")
    if svm and abs(mae - (1.0 - accuracy)) > MAE_TOL:
        errors.append(f"SVM mae {mae} != 1 - accuracy {1.0 - accuracy}")
    return errors


def _check_report(op, text: str, refs: References, accuracies: list) -> list:
    path = refs.data_path(op.argv)
    n, digest = len(refs.samples(path)), refs.fold_digest(path)
    if op.command == "cv":
        fields = parse_machine(text)
        accuracies.append(float(fields.get("accuracy", "nan")))
        return _report_errors(fields, n, digest, flag(op.argv, "--model") == "svm")
    if flag(op.argv, "--format") == "machine":
        fields = parse_machine(text)
        errors = [] if fields.get("fold_digest") == digest else [
            f"compare fold digest {fields.get('fold_digest')} != {digest}"]
        for prefix in ("nb", "svm"):
            sub = {k[len(prefix) + 1:]: v for k, v in fields.items() if k.startswith(prefix + ".")}
            accuracies.append(float(sub.get("accuracy", "nan")))
            errors += [f"{prefix}: {e}" for e in _report_errors(sub, n, digest, prefix == "svm")]
        return errors
    # text compare: the digests and instance counts are the checkable parts
    lines = text.splitlines()
    errors = [] if lines and f"digest {digest})" in lines[0] else ["compare header digest mismatch"]
    digests = [ln.split()[-1] for ln in lines if ln.startswith("Fold assignment digest")]
    totals = [ln.split()[-1] for ln in lines if ln.startswith("Total number of instances")]
    if digests != [digest, digest]:
        errors.append(f"compare fold digests {digests} != {digest}")
    if totals != [str(n), str(n)]:
        errors.append(f"compare instance counts {totals} != {n}")
    return errors


def _check_predict(op, text: str, refs: References) -> list:
    data = refs.samples(refs.data_path(op.argv))
    lines = text.splitlines()
    if len(lines) - 1 != len(data):
        return [f"predict wrote {len(lines) - 1} rows for {len(data)} inputs"]
    model_path = flag(op.argv, "--model-file")
    nb_model = None
    if Path(model_path).read_text(encoding="utf-8").startswith("model = nb"):
        nb_model = refs.nb.load_model(model_path)
    labels = [c[2:] for c in lines[0].split(",")[1:]]
    for row, (line, x) in enumerate(zip(lines[1:], data.features), start=1):
        label, *cells = line.split(",")
        try:
            dist = [float(c) for c in cells]
        except ValueError:
            return [f"row {row}: unreadable distribution {line!r}"]
        if (len(dist) != len(labels) or not all(math.isfinite(p) and p >= 0 for p in dist)
                or abs(sum(dist) - 1.0) > DIST_TOL):
            return [f"row {row}: not a distribution {line!r}"]
        if label != labels[dist.index(max(dist))]:
            return [f"row {row}: label {label} is not the argmax"]
        if nb_model is not None:
            ref = [format(p, ".17g") for p in refs.nb.predict_distribution(nb_model, x)]
            if cells != ref:
                return [f"row {row}: CLI {cells} != naive_bayes.predict_distribution {ref}"]
    return []


def process_errors(result) -> list:
    """What the exit code and stderr alone show to be wrong."""
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[-300:]}"]
    if "Traceback" in result.stderr:
        return ["traceback on stderr"]
    if "pass budget" in result.stderr:
        return ["SMO hit the pass budget"]
    return []


def check_op(op, result, refs: References, scratch: Path, accuracies: list) -> list:
    """Failure messages for one finished op; empty when it is correct."""
    errors = process_errors(result)
    if errors:
        return errors
    output = Path(flag(op.argv, "--output"))
    if not output.is_file():
        return [f"{output.name} was not written"]
    if op.command == "ingest":
        expected = refs.ingest_bytes(flag(op.argv, "--data"), scratch / "ingest_reference.csv")
        return [] if output.read_bytes() == expected else [
            "ingest output differs from build_training_table(load_raw_series(...))"]
    if op.command == "predict":
        return _check_predict(op, output.read_text(encoding="utf-8"), refs)
    if op.command in ("cv", "compare"):
        return _check_report(op, output.read_text(encoding="utf-8"), refs, accuracies)
    return []
