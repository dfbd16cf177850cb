"""Smoke tests: the demos run end to end as a user would run them."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


# a line each demo prints; sweep_comparison.py is left out: it runs for
# minutes and writes its CSVs into the working directory
MARKERS = {
    "protocol_basics.py": "RE occupancy",
    "ldpc_awgn.py": "decode failures",
    "de_threshold.py": "threshold SNR",
    "joint_receiver_demo.py": "terminated after",
}


@pytest.mark.parametrize("name", sorted(MARKERS))
def test_demo_runs(name):
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert MARKERS[name] in proc.stdout
