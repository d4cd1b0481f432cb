"""The benchmark's own output checks, run in-process on its tiny inputs, and
its trace targets, so that a change breaking a name the benchmark calls or
traces fails here too."""
import sys
from pathlib import Path

import pytest

from setcast import cli, dataset, evaluation, naive_bayes, svm  # noqa: F401  (traced)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["bundled", "svm-cv", "large-pipeline"])
def test_workload_outputs_pass_the_benchmark_checks(name, tmp_path):
    wl = run.Workload(name, workloads.build(name, 7, tmp_path, workloads.TINY), tmp_path,
                      checks.References(cli.default_data_path()))
    # the first pass checks each output against in-process references, the
    # second that every output is byte-identical to the first pass's
    for _ in range(2):
        run.run_pass(wl, run.run_inprocess, measured=False)
    assert wl.failures == []
    assert wl.attempted == 2 * len(wl.ops)


def test_every_traced_function_exists():
    # the per-layer metrics read these spans; a renamed function would read 0
    with tracing.Tracer() as tracer:
        pass
    assert set(tracer.missing) <= {"svm.hard_distribution", "evaluation.PredictionRecord.__init__"}
