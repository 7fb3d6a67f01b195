"""The benchmark tracer wraps rosita_mini calls by name; each must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # a fresh process, so the wrapped functions of this one stay as they are
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
