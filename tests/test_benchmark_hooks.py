"""The benchmark's tracer wraps package functions by module and name.

``perfbench/tracing.py`` lists every (module, attribute) it replaces during
a traced run in ``WRAP_SITES``; renaming or deleting one of them breaks the
benchmark, so each must resolve on the package.  The benchmark also bounds
peak RSS, which heavy optional imports would move.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAP_SITES


@pytest.mark.parametrize("module, attr", _wrap_sites())
def test_wrap_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone adds about 20 MB of resident memory.
    probe = "import sys, momcube; print('scipy.optimize' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "False"
