"""setcast benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload svm-cv --seed 1 --seconds 55 --trace 0

One client runs one ``setcast`` command at a time as a fresh subprocess, the
way a researcher or a script drives the tool.  The first pass is a warm-up:
its outputs are checked against in-process references and its times are
discarded.  Measured passes follow while the next one is expected to end
within ``--seconds`` (at least two); every later pass must write
byte-identical files.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` replays the same sequence in-process through
``setcast.cli.main(argv)``, alternating untraced and traced passes, and
reports per-layer self times and counts; the difference between the two is
the tracing overhead.  ``--workload`` takes a comma-separated list to
interleave several workloads pass by pass.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A human-readable table (median, quartiles, sample count) and the environment
record come before it and are also written to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import environment  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = "import sys; from setcast.cli import main; sys.exit(main())"
IMPORT_PROBES = {
    "interpreter": "pass",
    "numpy": "import numpy",
    "setcast": "import sys; from setcast.cli import main",
}
PROBE_INTERVAL_S = 2.0  # least time between two start-up probes
MIN_PASSES = 2
OP_TIMEOUT_S = 150
HARD_LIMIT_S = 150  # no pass starts that would end later, so a run ends within 180 s
COMMANDS = ("ingest", "train", "predict", "cv", "compare")

# The bounded metrics.  Per-subcommand times are reported beside them but not
# bounded: a subcommand that runs once per pass gets too few samples in a run
# to be steady on a host whose speed drifts.
END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB", "cv_accuracy": "fraction"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_bytes": "bytes", "bytes_written": "bytes",
                   "rows_read": "count", "n_support": "count", "converged_fits": "count",
                   "kkt_violation_max": "margin"}
PER_LAYER_NAMES = (
    "cli.interpreter_s", "cli.import_numpy_s", "cli.import_setcast_s",
    "cli.main_s",
    "dataset.load_raw_series_s", "dataset.build_training_table_s", "dataset.save_samples_s",
    "dataset.bytes_written", "dataset.load_samples_s", "dataset.rows_read",
    "dataset.stratified_folds_s", "dataset.subset_s",
    "naive_bayes.train_s", "naive_bayes.train_calls",
    "naive_bayes.predict_distribution_s", "naive_bayes.predict_distribution_calls",
    "naive_bayes.save_model_s", "naive_bayes.load_model_s",
    "svm.save_model_s", "svm.load_model_s",
    "svm.kernel_matrix_s", "svm.kernel_matrix_calls", "svm.kernel_matrix_bytes",
    "svm.train_smo_s", "svm.train_smo_calls",
    "svm.n_support", "svm.converged_fits", "svm.kkt_violation_max",
    "svm.hard_distribution_s", "svm.hard_distribution_calls",
    "svm.decision_values_s", "svm.decision_values_calls",
    "evaluation.cross_validate_s", "evaluation.records_s", "evaluation.records_calls",
    "evaluation.evaluate_s", "evaluation.render_s",
    "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    return next(u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix))


@dataclass
class OpResult:
    code: int
    stderr: str
    seconds: float
    rss_mb: float = 0.0


@dataclass
class Workload:
    name: str
    ops: list
    work: Path
    refs: checks.References
    reference_digests: dict = None
    accuracy: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # per measured pass: metric -> value
    untraced: list = field(default_factory=list)  # in-process pass seconds
    traced: list = field(default_factory=list)
    accuracy_parts: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    tracer: tracing.Tracer = None  # set while a traced pass runs
    last_tracer: tracing.Tracer = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_subprocess(argv, env, cwd) -> OpResult:
    """Run a command, returning its wall time and peak RSS (os.wait4)."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(proc.returncode, err_path.read_text(errors="replace"), seconds,
                    usage.ru_maxrss / 1024.0)


def run_cli(argv, env, cwd) -> OpResult:
    return run_subprocess([sys.executable, "-c", CLI, *argv], env, cwd)


def run_inprocess(argv) -> OpResult:
    """setcast.cli.main(argv), looked up at call time so a traced wrapper is used."""
    err = io.StringIO()
    main = sys.modules["setcast.cli"].main
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, reported with its traceback
            traceback.print_exc()
            code = 1
    return OpResult(int(code or 0), err.getvalue(), perf_counter() - start)


def run_pass(wl: Workload, runner, measured: bool):
    """Run the op sequence once and check it; return per-op results."""
    results = []
    for i, op in enumerate(wl.ops):
        if op.prepare is not None:
            op.prepare()
        if wl.tracer is not None:
            wl.tracer.op = i
        results.append(runner(op.argv))
    digests = checks.digest_files(wl.ops)
    for i, (op, result) in enumerate(zip(wl.ops, results)):
        if wl.reference_digests is None:
            errors = checks.check_op(op, result, wl.refs, wl.work, wl.accuracy_parts)
        else:
            errors = checks.process_errors(result) or (
                [] if digests[i] == wl.reference_digests[i] else ["output differs from first pass"])
        if errors:
            wl.failures.append(f"op {i} ({' '.join(op.argv[:3])}): {'; '.join(errors)}")
    if wl.reference_digests is None:
        wl.reference_digests = digests
        parts = [a for a in wl.accuracy_parts if math.isfinite(a)]
        wl.accuracy = sum(parts) / len(parts) if parts else 0.0
    wl.attempted += len(wl.ops)
    if measured:
        per_pass = {f"{c}_s": sum(r.seconds for op, r in zip(wl.ops, results) if op.command == c)
                    for c in COMMANDS}
        per_pass["total_s"] = sum(r.seconds for r in results)
        per_pass["peak_rss_mb"] = max(r.rss_mb for r in results)
        wl.passes.append(per_pass)
    return results


def probe_seconds(code: str, env, cwd, repeats: int) -> list:
    """Wall times of ``repeats`` fresh interpreters running ``code``."""
    times = []
    for _ in range(repeats):
        result = run_subprocess([sys.executable, "-c", code], env, cwd)
        if result.code != 0:
            raise RuntimeError(f"start-up probe {code!r} failed: {result.stderr}")
        times.append(result.seconds)
    return times


def loop(run_round, seconds: int, deadline: float):
    """Measured rounds while the next one is expected to end within
    ``seconds`` (at least MIN_PASSES), and never past ``deadline``."""
    started = perf_counter()
    durations = []
    while True:
        round_start = perf_counter()
        run_round()
        now = perf_counter()
        durations.append(now - round_start)
        expected_end = now + statistics.median(durations)
        if len(durations) >= MIN_PASSES and expected_end - started > seconds:
            return
        if expected_end > deadline:
            return


def stats(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(wl: Workload, setup: list) -> dict:
    used = {op.command for op in wl.ops}
    out = {"setup_s": stats(setup), "total_s": stats(p["total_s"] for p in wl.passes)}
    out.update({f"{c}_s": stats(p[f"{c}_s"] for p in wl.passes) for c in COMMANDS if c in used})
    out["peak_rss_mb"] = stats(p["peak_rss_mb"] for p in wl.passes)
    out["cv_accuracy"] = stats([wl.accuracy])
    return out


def per_layer(wl: Workload, probes: dict) -> dict:
    layers = wl.passes
    out = {name: stats(p[name] for p in layers) for name in layers[0]}
    per_process = {k: statistics.median(v) for k, v in probes.items()}
    n_ops = len(wl.ops)
    out["cli.interpreter_s"] = stats([per_process["interpreter"] * n_ops])
    out["cli.import_numpy_s"] = stats([(per_process["numpy"] - per_process["interpreter"]) * n_ops])
    out["cli.import_setcast_s"] = stats([(per_process["setcast"] - per_process["numpy"]) * n_ops])
    overhead = statistics.median(wl.traced) - statistics.median(wl.untraced)
    out["trace.overhead_s"] = stats([overhead])
    return out


def run(names, seed: int, seconds: int, trace: bool, sizes=workloads.FULL):
    """Run the workloads; return (per-workload summaries, environment record)."""
    deadline = perf_counter() + HARD_LIMIT_S
    import setcast
    if Path(setcast.__file__).resolve().parent != (SRC / "setcast").resolve():
        raise RuntimeError(f"imported setcast from {setcast.__file__}, not from {SRC}")
    from setcast import cli

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    wls = []
    for name in names:
        work = ROOT / ".perfbench_work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wls.append(Workload(name, workloads.build(name, seed, work, sizes), work,
                            checks.References(cli.default_data_path())))
    env = child_env()
    cwd = wls[0].work
    try:
        if trace:
            probes = {k: probe_seconds(code, env, cwd, 6)[1:] for k, code in IMPORT_PROBES.items()}
            for wl in wls:  # warm-up, checked
                run_pass(wl, run_inprocess, measured=False)

            def traced_round():
                for wl in wls:
                    results = run_pass(wl, run_inprocess, measured=False)
                    wl.untraced.append(sum(r.seconds for r in results))
                    wl.tracer = tracing.Tracer()
                    with wl.tracer:
                        results = run_pass(wl, run_inprocess, measured=False)
                    wl.traced.append(sum(r.seconds for r in results))
                    wl.passes.append(wl.tracer.layer_metrics())
                    wl.last_tracer, wl.tracer = wl.tracer, None

            loop(traced_round, seconds, deadline)
            for wl in wls:
                wl.missing = wl.last_tracer.missing
                wl.last_tracer.write(out_dir / f"{wl.name}-seed{seed}-spans.jsonl.gz")
            summaries = {wl.name: per_layer(wl, probes) for wl in wls}
        else:
            for wl in wls:
                run_pass(wl, lambda argv: run_cli(argv, env, wl.work), measured=False)
            probe_seconds(IMPORT_PROBES["setcast"], env, cwd, 1)  # warm-up
            setup, last_probe = [], [0.0]

            def run_measured(argv, work):
                # Start-up probes are spread over the whole window, because
                # the host's speed drifts on a scale of seconds.
                result = run_cli(argv, env, work)
                if perf_counter() - last_probe[0] >= PROBE_INTERVAL_S:
                    setup.extend(probe_seconds(IMPORT_PROBES["setcast"], env, cwd, 1))
                    last_probe[0] = perf_counter()
                return result

            def cli_round():
                for wl in wls:
                    run_pass(wl, lambda argv: run_measured(argv, wl.work), measured=True)

            loop(cli_round, seconds, deadline)
            summaries = {wl.name: end_to_end(wl, setup) for wl in wls}
    finally:
        for wl in wls:
            shutil.rmtree(wl.work, ignore_errors=True)
    record = environment.record(ROOT, seed)
    return [(wl, summaries[wl.name]) for wl in wls], record


def result_line(wl: Workload, summary: dict, trace: bool) -> dict:
    names = PER_LAYER_NAMES if trace else END_TO_END
    unit = layer_unit if trace else END_TO_END.get
    return {
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": len(wl.failures),
        "metrics": {n: {"value": summary[n]["median"], "unit": unit(n)} for n in names},
    }


def report(wl: Workload, summary: dict, trace: bool, record: dict) -> str:
    lines = [f"workload {wl.name}: {len(wl.passes)} measured passes of {len(wl.ops)} commands, "
             f"{'in-process traced' if trace else 'CLI subprocesses'}",
             f"{'metric':40s}{'median':>14s}{'q1':>14s}{'q3':>14s}{'n':>4s}  unit"]
    for name, s in summary.items():
        unit = layer_unit(name) if trace else END_TO_END.get(name, "s")
        lines.append(f"{name:40s}{s['median']:14.6g}{s['q1']:14.6g}{s['q3']:14.6g}{s['n']:4d}  {unit}")
    lines.append(f"failed_ops = {len(wl.failures)}/{wl.attempted}")
    lines += [f"  FAILED {msg}" for msg in wl.failures[:20]]
    if trace:
        lines.append(f"spans in the last traced pass = {len(wl.last_tracer.spans)}")
    if wl.missing:
        lines.append(f"missing layers (reported as 0): {', '.join(wl.missing)}")
    lines.append("environment: " + json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.NAMES)}, or a comma-separated list")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = args.workload.split(",")
    unknown = [n for n in names if n not in workloads.NAMES]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")
    if not (SRC / "setcast" / "cli.py").is_file():
        print(f"error: no setcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results, record = run(names, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".perfbench_out"
    lines = []
    for wl, summary in results:
        print(report(wl, summary, bool(args.trace), record), flush=True)
        line = result_line(wl, summary, bool(args.trace))
        (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
            {"environment": record, "workload": wl.name, "summary": summary,
             "failures": wl.failures, "result": line}, indent=1) + "\n")
        lines.append(line)
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
