"""The benchmark's tracer wraps package functions by module and name.

``perfbench/tracing.py`` lists every (module, attribute) it replaces during
a traced run in ``WRAP_SITES``; renaming or deleting one of them breaks the
benchmark, so each must resolve on the package.  The benchmark also bounds
peak RSS and start-up time, which heavy imports would move; the runtime
needs numpy alone.
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


_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from momcube.cli import main

d = sys.argv[1]
codes = [
    main(["gen", "--seed", "3", "--num-atoms", "60", "--num-vars", "2",
          "--out-dir", d]),
    main(["reduce", "--input", d + "/measure.csv", "--num-vars", "2",
          "--degree", "2", "--out-dir", d]),
    main(["verify", "--input", d + "/measure.csv", "--num-vars", "2",
          "--cubature", d + "/cubature.json", "--out-dir", d]),
    main(["moments", "--input", d + "/measure.csv", "--num-vars", "2",
          "--degree", "2", "--out-dir", d]),
    main(["feasible", "--input", d + "/moments.json", "--grid", d + "/measure.csv",
          "--out-dir", d]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_every_command_runs_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(tmp_path)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    # Every command exits 0, and the only scipy entry is the None sentinel.
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] ['scipy']"
