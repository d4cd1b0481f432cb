"""Each demo script runs to completion against the installed package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(demo.parents[1] / "src"))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
