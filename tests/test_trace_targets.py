"""The benchmark's traced run wraps these gfrma functions by name; a rename
must fail here, not first in the benchmark."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("module,path", _targets())
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"gfrma.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert vars(owner).get(attr) is not None
