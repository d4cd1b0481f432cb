"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit, and no op fails.
2. Corrupted outputs are counted as failures: one flipped digit in a machine
   report and one dropped predict row, caught by the first-pass checks and,
   after a clean first pass, by the byte-identity check.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def flip_accuracy_digit(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    match = re.search(r"^accuracy = 0\.(\d)", text, flags=re.M)
    digit = str((int(match.group(1)) + 5) % 10)
    path.write_text(text[:match.start(1)] + digit + text[match.end(1):], encoding="utf-8")


def drop_last_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def corrupting(output: str, corrupt):
    """In-process runner that damages one op's output right after it is written."""
    def runner(argv):
        result = run.run_inprocess(argv)
        if checks.flag(argv, "--output", "").endswith(output):
            corrupt(Path(checks.flag(argv, "--output")))
        return result
    return runner


def tiny_bundled(tag: str) -> run.Workload:
    from setcast import cli

    work = run.ROOT / ".perfbench_work" / f"selftest-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return run.Workload("bundled", workloads.build("bundled", 7, work, workloads.TINY), work,
                        checks.References(cli.default_data_path()))


def check_metrics(problems: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.NAMES:
            results, _ = run.run([name], 7, 0, trace, workloads.TINY)
            wl, summary = results[0]
            line = run.result_line(wl, summary, trace)
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {expected}")
            if line["failed"] or not line["correct"] or line["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: failures {wl.failures}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{line['failed']}/{line['attempted']} failed", flush=True)


def check_corruption(problems: list) -> None:
    cases = (("flipped digit in a machine report", "cv_nb.txt", flip_accuracy_digit),
             ("dropped predict row", "pred_nb.csv", drop_last_row))
    for label, output, corrupt in cases:
        wl = tiny_bundled("first")
        index = next(i for i, op in enumerate(wl.ops)
                     if checks.flag(op.argv, "--output").endswith(output))
        run.run_pass(wl, corrupting(output, corrupt), measured=False)
        print(f"first-pass checks, {label}: {wl.failures}")
        if len(wl.failures) != 1 or not wl.failures[0].startswith(f"op {index} "):
            problems.append(f"first-pass checks missed the {label}")

        wl = tiny_bundled("later")
        run.run_pass(wl, run.run_inprocess, measured=False)
        if wl.failures:
            problems.append(f"clean pass failed: {wl.failures}")
        run.run_pass(wl, corrupting(output, corrupt), measured=False)
        print(f"identity check, {label}: {wl.failures}")
        if wl.failures != [f"op {index} ({' '.join(wl.ops[index].argv[:3])}): "
                           "output differs from first pass"]:
            problems.append(f"identity check missed the {label}")
        shutil.rmtree(wl.work, ignore_errors=True)
    shutil.rmtree(run.ROOT / ".perfbench_work" / "selftest-first", ignore_errors=True)


def main() -> int:
    if not (run.SRC / "setcast" / "cli.py").is_file():
        print(f"error: no setcast sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = []
    check_corruption(problems)
    check_metrics(problems)
    for problem in problems:
        print("PROBLEM:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
