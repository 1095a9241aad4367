"""The scripts under tools/ run: tools/norm_sweep.py at its --smoke size."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_norm_sweep_smoke_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "norm_sweep.py"), "--smoke"],
                          capture_output=True, text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "dpbtrf calls per norm"
    assert lines[1].startswith("  random bands (p = 30-60, b = 1-8): 8 norms: median ")
    assert lines[2].startswith("  P-loss draw differences (ar4, k = 4, p = 100): 4 norms: median ")
    assert any(line.startswith("  p = 60: b = 1 ") for line in lines)
