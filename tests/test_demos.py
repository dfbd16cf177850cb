"""Smoke tests: the demos run end to end as a user would run them."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_joint_receiver_demo_runs():
    proc = _run_demo("joint_receiver_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "terminated after" in proc.stdout
