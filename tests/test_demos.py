"""Smoke test: every demo script runs to completion against the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import facestack

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, demo):
    # run a copy, so demos that write next to themselves write into tmp_path
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    src = os.path.dirname(os.path.dirname(facestack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
