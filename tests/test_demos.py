"""Each demo script, and README's library quickstart, runs to completion
against the installed package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _quickstart(tmp_path):
    """The python block of README's "Library quickstart" section, as a script."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    script = tmp_path / "quickstart.py"
    script.write_text(section.split("```python\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    return script


@pytest.mark.parametrize("demo", DEMOS + [README], ids=[d.name for d in DEMOS + [README]])
def test_demo_runs_cleanly(demo, tmp_path):
    script = _quickstart(tmp_path) if demo == README else demo
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
