"""Tests of the benchmark itself (not collected by the package's test run).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from momcube.basis import build_basis  # noqa: E402
from momcube.geometry import truncated_moment_feasible  # noqa: E402
from momcube.measure import DiscreteMeasure  # noqa: E402
from momcube.recomb import Cubature, cubature_of_degree  # noqa: E402
from momcube.verify import verify_cubature  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert any(line.startswith("failed_share = ") for line in lines)


def test_exits_nonzero_without_program_sources():
    copy = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "feasibility", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=copy,
        )
    finally:
        shutil.rmtree(copy)
    assert done.returncode != 0
    assert done.stdout == ""


def _small_measure(seed: int = 3, n: int = 400) -> DiscreteMeasure:
    rng = np.random.default_rng(seed)
    return DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(n, 2)), rng.uniform(0.1, 2.0, size=n))


def test_cubature_with_one_weight_scaled_counts_as_failed():
    measure = _small_measure()
    basis = build_basis(2, None, 3)
    cub, _ = cubature_of_degree(measure, 2, None, 3)
    weights = np.array(cub.weights)
    weights[0] *= 1.0 + 1e-6
    scaled = Cubature(cub.node_indices, cub.nodes, weights, cub.degree, cub.basis_id)

    good = workloads.check_reduction(
        "good", measure, basis.dimension, cub, verify_cubature(measure, cub, basis)
    )
    bad = workloads.check_reduction(
        "bad", measure, basis.dimension, scaled, verify_cubature(measure, scaled, basis)
    )
    assert good.status == "ok"
    assert bad.status == "wrong"
    assert bad.problems
    assert workloads.tally([good, bad]) == (2, 1)


def test_tensor_grid_indeterminate_counts_as_failed_not_dropped(monkeypatch):
    workload = workloads.SMOKE["feasibility"]
    inputs = workload.setup(5, Path("unused"))

    def capped(moments, grid, *args, **kwargs):
        # One simplex iteration cannot decide any tensor-grid query.
        if grid is inputs["grids"]["tensor"]:
            kwargs["max_iterations"] = 1
        return truncated_moment_feasible(moments, grid, *args, **kwargs)

    monkeypatch.setattr(workloads, "truncated_moment_feasible", capped)
    result = workload.run_pass(inputs, Tracer(enabled=False))

    tensor = [o for o in result.outcomes if o.op.startswith("tensor-")]
    assert len(result.outcomes) == len(inputs["queries"])
    assert tensor and all(o.status == "undecided" for o in tensor)
    assert all(c["verdict"] == "indeterminate"
               for op, c in result.counters.items() if op.startswith("tensor-"))
    assert not any(o.status == "wrong" for o in result.outcomes)
    attempted, failed = workloads.tally(result.outcomes)
    assert attempted == len(inputs["queries"])
    assert failed >= len(tensor)
