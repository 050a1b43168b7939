"""Smoke runs of the scripts in ``demos/``: each must exit with code 0.

The demos call the library the way a reader would, so an internal API
change that breaks one shows here.  Each runs in its own interpreter with
``src`` on ``PYTHONPATH``, from the repository root.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "continuity_stress.py",
    "direct_part_certificates.py",
    "resource_measures.py",
    pytest.param("exponent_crossover.py", marks=pytest.mark.slow),
])
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
