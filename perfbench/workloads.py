"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload has the same shape.  ``setup`` builds the inputs from the
seed (and writes files where the workload reads files); ``run_pass`` makes
the timed calls into momcube and then, with the clock stopped, checks every
output.  Each checked operation ends as one ``Outcome``:

* ``ok``        -- the output passed every check;
* ``undecided`` -- the program gave no answer (an INDETERMINATE verdict);
* ``wrong``     -- an output failed a check, a command exited non-zero or a
  call raised.

``undecided`` and ``wrong`` both count as failed; only ``wrong`` makes the
run incorrect, and every ``wrong`` outcome names its problems.  ``counters``
holds values that must repeat exactly when the same inputs are run again.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import momcube.cli
from momcube.basis import build_basis
from momcube.geometry import DEFAULT_CERT_TOL, DEFAULT_FEAS_TOL, truncated_moment_feasible
from momcube.measure import DiscreteMeasure
from momcube.recomb import cubature_of_degree
from momcube.verify import verify_cubature

from tracing import Tracer

MOMENT_TOL = 1e-8
MASS_TOL = 1e-12


@dataclass
class Outcome:
    op: str
    status: str  # "ok", "undecided" or "wrong"
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    op_s: dict[str, float]  # seconds per operation, in run order
    outcomes: list[Outcome]
    counters: dict
    bytes_written: int = 0


def run_ops(calls: list[tuple[str, Callable[[], Any]]]) -> tuple[dict, dict[str, float]]:
    """Run and time each operation in order; an exception is its result."""
    results, op_s = {}, {}
    for op, thunk in calls:
        start = perf_counter()
        try:
            results[op] = thunk()
        except Exception as exc:  # a crash is a failed operation, not a dead run
            results[op] = exc
        op_s[op] = perf_counter() - start
    return results, op_s


def tally(outcomes: list[Outcome]) -> tuple[int, int]:
    """(attempted, failed) over a list of outcomes."""
    return len(outcomes), sum(1 for o in outcomes if o.status != "ok")


def _outcome(op: str, problems: list[str], undecided: bool = False) -> Outcome:
    if problems:
        return Outcome(op, "wrong", problems)
    return Outcome(op, "undecided" if undecided else "ok")


def _crashed(op: str, exc: BaseException) -> Outcome:
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return Outcome(op, "wrong", [f"raised {text}"])


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def exponents(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree <= degree (ordering irrelevant)."""
    return [e for e in product(range(degree + 1), repeat=num_vars) if sum(e) <= degree]


def monomials(points: np.ndarray, exps: list[tuple[int, ...]]) -> np.ndarray:
    """(len(exps), len(points)) matrix of x^e, computed without momcube."""
    out = np.empty((len(exps), points.shape[0]))
    for j, e in enumerate(exps):
        out[j] = np.prod(points ** np.asarray(e, dtype=float), axis=1)
    return out


def check_cubature(
    atoms: np.ndarray, dim: int, idx, nodes, weights, verification_passes: bool
) -> list[str]:
    """The cubature contract, checked from outside."""
    idx = np.asarray(idx, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    problems = []
    if idx.shape[0] > dim:
        problems.append(f"{idx.shape[0]} nodes for dimension {dim}")
    if idx.size and (idx.min() < 0 or idx.max() >= atoms.shape[0]):
        problems.append("node index out of range")
    elif not np.array_equal(nodes, atoms[idx]):
        problems.append("nodes differ from atoms[node_indices]")
    if not (weights > 0.0).all():
        problems.append("a weight is not strictly positive")
    if not verification_passes:
        problems.append(f"verification fails at {MOMENT_TOL:g} / mass {MASS_TOL:g}")
    return problems


# ---------------------------------------------------------------------------
# cli-roundtrip


@dataclass(frozen=True)
class CliRoundtrip:
    """`momcube reduce`, `verify` and `moments` in-process on a generated CSV."""

    rows: int = 100_000
    num_vars: int = 3
    degree: int = 3

    name = "cli-roundtrip"

    def setup(self, seed: int, workdir: Path) -> dict:
        # Same draws, order and text format as `momcube gen`.
        rng = np.random.default_rng(seed)
        atoms = rng.uniform(-10.0, 10.0, size=(self.rows, self.num_vars))
        weights = rng.uniform(0.1, 2.0, size=self.rows)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "measure.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                ",".join(repr(float(v)) for v in x) + f",{float(w)!r}\n"
                for x, w in zip(atoms, weights)
            )
        return {"atoms": atoms, "weights": weights, "csv": path, "workdir": workdir}

    def _commands(self, inp: dict) -> list[tuple[str, list[str], Path, Callable]]:
        """(command, argv, output directory, check of its output) in run order."""
        csv, work = str(inp["csv"]), inp["workdir"]
        common = ["--input", csv, "--num-vars", str(self.num_vars)]
        degree = ["--degree", str(self.degree)]
        cubature = ["--cubature", str(work / "reduce" / "cubature.json")]
        return [
            ("reduce", ["reduce", *common, *degree, "--out-dir", str(work / "reduce")],
             work / "reduce", self._check_reduce),
            ("verify", ["verify", *common, *cubature, "--out-dir", str(work / "verify")],
             work / "verify", self._check_verify),
            ("moments", ["moments", *common, *degree, "--out-dir", str(work / "moments")],
             work / "moments", self._check_moments),
        ]

    def run_pass(self, inp: dict, tracer: Tracer) -> PassResult:
        commands = self._commands(inp)
        for _, _, out_dir, _ in commands:
            shutil.rmtree(out_dir, ignore_errors=True)
        sink = io.StringIO()

        def main(command, argv):
            with contextlib.redirect_stdout(sink):
                return tracer.call("cli", momcube.cli.main, argv, attrs={"command": command})

        codes, op_s = run_ops(
            [(command, partial(main, command, argv)) for command, argv, _, _ in commands]
        )

        outcomes, counters, written = [], {}, 0
        for command, _, out_dir, check in commands:
            written += sum(p.stat().st_size for p in out_dir.glob("*.json"))
            code = codes[command]
            if isinstance(code, BaseException):
                outcomes.append(_crashed(command, code))
                continue
            problems = check(inp, out_dir, counters) if code == 0 else [f"exit code {code}"]
            outcomes.append(_outcome(command, problems))
        return PassResult(op_s, outcomes, counters, written)

    def _check_reduce(self, inp: dict, out_dir: Path, counters: dict) -> list[str]:
        raw = (out_dir / "cubature.json").read_bytes()
        cub = json.loads(raw)
        report = json.loads((out_dir / "reduction_report.json").read_text())
        ver = json.loads((out_dir / "verification_report.json").read_text())
        counters["cubature_sha256"] = hashlib.sha256(raw).hexdigest()
        counters["eliminations"] = report["elimination_steps"]
        counters["nodes"] = len(cub["node_indices"])
        counters["reduce_residual"] = report["max_moment_residual_rel"]
        counters["reduce_verify_residual"] = ver["max_residual_rel"]
        dim = len(exponents(self.num_vars, self.degree))
        return check_cubature(
            inp["atoms"], dim, cub["node_indices"], cub["nodes"], cub["weights"],
            _report_passes(ver),
        )

    def _check_verify(self, inp: dict, out_dir: Path, counters: dict) -> list[str]:
        ver = json.loads((out_dir / "verification_report.json").read_text())
        counters["verify_residual"] = ver["max_residual_rel"]
        counters["verify_mass_gap"] = ver["mass_gap_rel"]
        return [] if _report_passes(ver) else ["verify report does not pass"]

    def _check_moments(self, inp: dict, out_dir: Path, counters: dict) -> list[str]:
        raw = (out_dir / "moments.json").read_bytes()
        counters["moments_sha256"] = hashlib.sha256(raw).hexdigest()
        got = json.loads(raw)["moments"]
        exps = exponents(self.num_vars, self.degree)
        if sorted(got) != sorted(",".join(map(str, e)) for e in exps):
            return ["moments.json has the wrong keys"]
        if "expected_moments" not in inp:
            # One exponent at a time, so the check adds little to peak RSS.
            inp["expected_moments"] = [
                (math.fsum(row), math.fsum(np.abs(row)))
                for row in (monomials(inp["atoms"], [e])[0] * inp["weights"] for e in exps)
            ]
        problems = []
        for e, (value, scale) in zip(exps, inp["expected_moments"]):
            key = ",".join(map(str, e))
            if abs(got[key] - value) > 1e-12 * scale:
                problems.append(f"moment {key}: {got[key]!r} != {value!r}")
        return problems


def _report_passes(ver: dict) -> bool:
    return (
        ver["weights_positive"] and ver["support_ok"] and ver["cardinality_ok"]
        and ver["max_residual_rel"] <= MOMENT_TOL and ver["mass_gap_rel"] <= MASS_TOL
    )


# ---------------------------------------------------------------------------
# reduce-d126


@dataclass(frozen=True)
class ReduceD126:
    """cubature_of_degree + verify_cubature on in-memory measures, D=126."""

    sizes: tuple[int, ...] = (1000, 1500, 3000)
    num_vars: int = 4
    degree: int = 5

    name = "reduce-d126"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        measures = []
        for n in self.sizes:
            atoms = rng.uniform(-1.0, 1.0, size=(n, self.num_vars))
            weights = rng.uniform(0.1, 2.0, size=n)
            measures.append(DiscreteMeasure(atoms=atoms, weights=weights))
        basis = build_basis(self.num_vars, None, self.degree)
        return {"measures": measures, "basis": basis}

    def run_pass(self, inp: dict, tracer: Tracer) -> PassResult:
        basis = inp["basis"]

        def reduce_and_verify(measure):
            cub, report = tracer.call(
                "cubature_of_degree", cubature_of_degree,
                measure, self.num_vars, None, self.degree,
            )
            ver = tracer.call("verify_cubature", verify_cubature, measure, cub, basis)
            return cub, report, ver

        ops = [f"reduce-{m.num_atoms}" for m in inp["measures"]]
        results, op_s = run_ops(
            [(op, partial(reduce_and_verify, m)) for op, m in zip(ops, inp["measures"])]
        )

        outcomes, counters = [], {}
        for op, measure in zip(ops, inp["measures"]):
            res = results[op]
            if isinstance(res, BaseException):
                outcomes.append(_crashed(op, res))
                continue
            cub, report, ver = res
            counters[op] = {
                "eliminations": report.elimination_steps,
                "nodes": cub.num_nodes,
                "residual": report.max_moment_residual_rel,
                "verify_residual": ver.max_residual_rel,
                "mass_gap": ver.mass_gap_rel,
                "sha256": _sha256(cub.node_indices, cub.weights),
            }
            outcomes.append(check_reduction(op, measure, basis.dimension, cub, ver))
        return PassResult(op_s, outcomes, counters)


def check_reduction(op: str, measure: DiscreteMeasure, dim: int, cub, ver) -> Outcome:
    return _outcome(op, check_cubature(
        measure.atoms, dim, cub.node_indices, cub.nodes, cub.weights,
        ver.passes(MOMENT_TOL, mass_tol=MASS_TOL),
    ))


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class Query:
    grid: str  # "scattered" or "tensor"
    expect: str  # "feasible" or "infeasible"
    moments: dict


@dataclass(frozen=True)
class Feasibility:
    """truncated_moment_feasible on a scattered and a tensor grid, N=2, D=28."""

    scattered_points: int = 10_000
    tensor_side: int = 20
    # Atoms of the sparse feasible measures on each grid, and of every
    # infeasible one.  Ten-atom measures on the scattered grid cost 0.6-1.8 s
    # a query, varying with the seed; on the tensor grid, 28 atoms or more
    # turn some seeds' answers INDETERMINATE.  See README.md.
    sparse_support: tuple[tuple[str, int], ...] = (("scattered", 100), ("tensor", 10))
    infeasible_support: int = 10
    degree: int = 6

    name = "feasibility"
    num_vars = 2

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        exps = exponents(self.num_vars, self.degree)
        line = np.linspace(-1.0, 1.0, self.tensor_side)
        grids = {
            "scattered": rng.uniform(-1.0, 1.0, size=(self.scattered_points, 2)),
            "tensor": np.array([(x, y) for x in line for y in line]),
        }

        def moments(points, weights):
            values = monomials(points, exps) @ weights
            return {e: float(v) for e, v in zip(exps, values)}

        queries = []
        for kind, sparse in self.sparse_support:
            grid = grids[kind]
            # Feasible: positive measures on grid points, two on a few points
            # and two on every point of the grid.
            for support in (sparse, sparse, grid.shape[0], grid.shape[0]):
                chosen = np.sort(rng.choice(grid.shape[0], size=support, replace=False))
                weights = rng.uniform(0.1, 2.0, size=support)
                queries.append(Query(kind, "feasible", moments(grid[chosen], weights)))
            # Infeasible: measures beyond each face of the grid's box, so the
            # mean lies outside it and a degree-1 functional separates.
            n = self.infeasible_support
            for axis, side in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)):
                points = rng.uniform(-1.0, 1.0, size=(n, 2))
                points[:, axis] = side * rng.uniform(1.2, 2.0, size=n)
                weights = rng.uniform(0.1, 2.0, size=n)
                queries.append(Query(kind, "infeasible", moments(points, weights)))
        # A certificate's normal is stated in the program's basis order.
        order = list(build_basis(self.num_vars, None, self.degree).indices)
        return {"grids": grids, "queries": queries, "exps": order}

    def run_pass(self, inp: dict, tracer: Tracer) -> PassResult:
        def query(q):
            return tracer.call(
                "truncated_moment_feasible", truncated_moment_feasible,
                q.moments, inp["grids"][q.grid], self.num_vars, None, self.degree,
                attrs={"grid": q.grid},
            )

        ops = [f"{q.grid}-{q.expect}-{i}" for i, q in enumerate(inp["queries"])]
        results, op_s = run_ops([(op, partial(query, q)) for op, q in zip(ops, inp["queries"])])

        outcomes, counters = [], {}
        for op, q in zip(ops, inp["queries"]):
            res = results[op]
            if isinstance(res, BaseException):
                outcomes.append(_crashed(op, res))
                continue
            result, witness = res
            counters[op] = _feasibility_counters(result, witness)
            outcomes.append(check_feasibility(q, inp, result, witness, op))
        return PassResult(op_s, outcomes, counters)


def _feasibility_counters(result, witness) -> dict:
    out = {"verdict": result.status.value}
    if witness is not None:
        out["support"] = witness.num_atoms
        out["sha256"] = _sha256(witness.atoms, witness.weights)
    if result.certificate is not None:
        out["sha256"] = _sha256(result.certificate.normal, np.float64(result.certificate.offset))
    return out


def check_feasibility(q: Query, inp: dict, result, witness, op: str) -> Outcome:
    """The verdict must match the construction, and its evidence must hold."""
    verdict = result.status.value
    if verdict == "indeterminate":
        return _outcome(op, [], undecided=True)
    if verdict != q.expect:
        return _outcome(op, [f"verdict {verdict}, constructed {q.expect}"])
    exps = inp["exps"]
    target = np.array([q.moments[e] for e in exps])
    mass = target[0]
    grid = inp["grids"][q.grid]
    problems = []
    if verdict == "feasible":
        rows = {tuple(p) for p in grid.tolist()}
        if not all(tuple(p) in rows for p in witness.atoms.tolist()):
            problems.append("witness atom is not a grid point")
        if not (witness.weights > 0.0).all():
            problems.append("witness weight is not strictly positive")
        achieved = monomials(witness.atoms, exps) @ witness.weights
        limit = DEFAULT_FEAS_TOL * (1.0 + np.abs(target / mass).max()) * mass
        gap = float(np.abs(achieved - target).max())
        if gap > limit:
            problems.append(f"witness moments off by {gap:.3e} > {limit:.3e}")
    else:
        cert = result.certificate
        side = cert.normal @ monomials(grid, exps) - cert.offset
        margin = float(cert.normal @ (target / mass) - cert.offset)
        if side.max() > DEFAULT_CERT_TOL:
            problems.append(f"certificate violated on the grid by {side.max():.3e}")
        if margin <= DEFAULT_CERT_TOL:
            problems.append(f"certificate margin {margin:.3e} does not separate")
    return _outcome(op, problems)


WORKLOADS = {w.name: w for w in (CliRoundtrip(), ReduceD126(), Feasibility())}

# Tiny sizes that still take every code path: reduce-d126's sizes straddle
# 16 * D = 240 for D = 15, so both reduce and reduce_streaming run.
SMOKE = {
    "cli-roundtrip": CliRoundtrip(rows=300),
    "reduce-d126": ReduceD126(sizes=(100, 150, 300), degree=2),
    "feasibility": Feasibility(
        scattered_points=300, tensor_side=6, sparse_support=(("scattered", 4), ("tensor", 4)),
        infeasible_support=4, degree=3,
    ),
}
