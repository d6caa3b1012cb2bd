"""Command-line front end for reproducible batch runs.

All results are written as JSON files into the output directory; the
terminal gets a one-line summary per run.  Configuration comes from an
optional JSON file plus flag overrides, flags winning.  Exit codes:
0 success (verification passed / feasible), 1 verification failed or
infeasible, 2 input or config error, 3 indeterminate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisError, MonomialBasis, basis_from_config, build_basis
from .geometry import (
    FeasibilityStatus,
    load_moment_file,
    moments_to_dict,
    truncated_moment_feasible,
)
from .measure import DiscreteMeasure, MeasureFormatError, load_measure, moment_vector
from .recomb import Cubature, cubature_of_degree
from .verify import verify_cubature

_EXIT_FAIL = 1
_EXIT_INPUT = 2
_EXIT_INDETERMINATE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = _EXIT_INPUT):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    """Merged file + flag configuration for one run."""

    mode: str
    input_path: str | None = None
    fmt: str = "csv"
    out_dir: str = "."
    num_vars: int | None = None
    degree_weights: list[int] | None = None
    max_degree: int | None = None
    tol: float = 1e-8
    mass_tol: float = 1e-12
    feas_tol: float = 1e-9
    seed: int = 0
    grid_path: str | None = None
    cubature_path: str | None = None
    num_atoms: int = 100
    unit_weights: bool = False

    def __post_init__(self):
        if self.tol <= 0.0 or self.mass_tol <= 0.0 or self.feas_tol <= 0.0:
            raise CliError("tolerances must be positive")


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return data


def _pick(flag, config: dict, key: str, default):
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    config = _read_config_file(args.config) if args.config else {}
    basis_block = config.get("basis", {})

    degree_weights = getattr(args, "weights", None)
    if degree_weights is not None:
        try:
            degree_weights = [int(w) for w in degree_weights.split(",")]
        except ValueError:
            raise CliError(
                f"--weights expects comma-separated integers, got {degree_weights!r}"
            )
    elif "degree_weights" in basis_block:
        degree_weights = list(basis_block["degree_weights"])

    try:
        return RunConfig(
            mode=args.command,
            input_path=_pick(args.input, config, "input", None),
            fmt=_pick(args.format, config, "format", "csv"),
            out_dir=_pick(args.out_dir, config, "out_dir", "."),
            num_vars=_pick(getattr(args, "num_vars", None), basis_block, "num_vars", None),
            degree_weights=degree_weights,
            max_degree=_pick(getattr(args, "degree", None), basis_block, "max_degree", None),
            tol=float(_pick(args.tol, config, "tol", 1e-8)),
            mass_tol=float(_pick(getattr(args, "mass_tol", None), config, "mass_tol", 1e-12)),
            feas_tol=float(_pick(getattr(args, "feas_tol", None), config, "feas_tol", 1e-9)),
            seed=int(_pick(getattr(args, "seed", None), config, "seed", 0)),
            grid_path=_pick(getattr(args, "grid", None), config, "grid", None),
            cubature_path=_pick(getattr(args, "cubature", None), config, "cubature", None),
            num_atoms=int(_pick(getattr(args, "num_atoms", None), config, "num_atoms", 100)),
            unit_weights=bool(getattr(args, "unit_weights", False) or config.get("unit_weights", False)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad configuration value: {exc}") from exc


def _load_input_measure(cfg: RunConfig) -> DiscreteMeasure:
    if not cfg.input_path:
        raise CliError("no input file given (use --input or the config)")
    if cfg.fmt == "csv" and cfg.num_vars is None:
        # Without the dimension a trailing weight column is indistinguishable
        # from a coordinate.
        raise CliError(
            "csv input needs the coordinate count (--num-vars or the config basis block)"
        )
    try:
        return load_measure(cfg.input_path, cfg.fmt, num_vars=cfg.num_vars)
    except (MeasureFormatError, ValueError) as exc:
        raise CliError(f"{cfg.input_path}: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot read {cfg.input_path}: {exc}") from exc


def _require_basis(cfg: RunConfig, measure: DiscreteMeasure) -> MonomialBasis:
    num_vars = cfg.num_vars if cfg.num_vars is not None else measure.num_vars
    if num_vars != measure.num_vars:
        raise CliError(
            f"config says {num_vars} coordinates but input has {measure.num_vars}"
        )
    if cfg.max_degree is None:
        raise CliError("no degree given (use --degree or the config basis block)")
    try:
        return build_basis(num_vars, cfg.degree_weights, cfg.max_degree)
    except BasisError as exc:
        raise CliError(str(exc)) from exc


def _write_json(out_dir: str, name: str, payload: dict) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def cmd_reduce(cfg: RunConfig) -> int:
    measure = _load_input_measure(cfg)
    basis = _require_basis(cfg, measure)
    try:
        cubature, report = cubature_of_degree(
            measure, basis.num_vars, basis.degree_fn.weights, basis.max_degree
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(f"reduction failed: {exc}") from exc

    verification = verify_cubature(measure, cubature, basis, cfg.tol)
    passed = verification.passes(cfg.tol, cfg.mass_tol)

    _write_json(cfg.out_dir, "cubature.json", cubature.to_dict(basis.to_config()))
    _write_json(cfg.out_dir, "reduction_report.json", report.to_dict())
    _write_json(cfg.out_dir, "verification_report.json", verification.to_dict())

    print(
        f"reduce: {measure.num_atoms} atoms -> {cubature.num_nodes} nodes "
        f"(dimension {basis.dimension}), max residual {verification.max_residual_rel:.3e}, "
        f"mass gap {verification.mass_gap_rel:.3e}, {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else _EXIT_FAIL


def cmd_moments(cfg: RunConfig) -> int:
    measure = _load_input_measure(cfg)
    basis = _require_basis(cfg, measure)
    moments = moment_vector(measure, basis)
    path = _write_json(cfg.out_dir, "moments.json", moments_to_dict(basis, moments))
    print(
        f"moments: {measure.num_atoms} atoms, dimension {basis.dimension}, wrote {path}"
    )
    return 0


def cmd_feasible(cfg: RunConfig) -> int:
    if not cfg.input_path:
        raise CliError("no moment file given (use --input or the config)")
    if not cfg.grid_path:
        raise CliError("no grid file given (use --grid or the config)")
    try:
        basis, moments = load_moment_file(cfg.input_path)
    except (OSError, ValueError) as exc:
        raise CliError(f"{cfg.input_path}: {exc}") from exc
    try:
        grid = load_measure(cfg.grid_path, cfg.fmt, num_vars=basis.num_vars)
    except (MeasureFormatError, ValueError, OSError) as exc:
        raise CliError(f"{cfg.grid_path}: {exc}") from exc

    try:
        result, witness = truncated_moment_feasible(
            moments,
            grid.atoms,
            basis.num_vars,
            basis.degree_fn.weights,
            basis.max_degree,
            feas_tol=cfg.feas_tol,
            cert_tol=cfg.feas_tol,
        )
    except ValueError as exc:
        raise CliError(f"feasibility query failed: {exc}") from exc

    payload = result.to_dict()
    if witness is not None:
        payload["witness"] = {
            "atoms": witness.atoms.tolist(),
            "weights": witness.weights.tolist(),
        }
    _write_json(cfg.out_dir, "feasibility.json", payload)
    print(f"feasible: status {result.status.value}")
    if result.status is FeasibilityStatus.FEASIBLE:
        return 0
    if result.status is FeasibilityStatus.INFEASIBLE:
        return _EXIT_FAIL
    return _EXIT_INDETERMINATE


def _load_cubature_file(path: str) -> tuple[Cubature, MonomialBasis]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    try:
        basis = basis_from_config(data["basis"])
        cubature = Cubature(
            node_indices=np.asarray(data["node_indices"], dtype=np.int64),
            nodes=np.asarray(data["nodes"], dtype=float),
            weights=np.asarray(data["weights"], dtype=float),
            degree=data.get("degree"),
            basis_id=basis.identifier,
        )
    except (KeyError, TypeError, ValueError, BasisError) as exc:
        raise CliError(f"{path}: bad cubature file: {exc}") from exc
    return cubature, basis


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.cubature_path:
        raise CliError("no cubature file given (use --cubature or the config)")
    measure = _load_input_measure(cfg)
    cubature, basis = _load_cubature_file(cfg.cubature_path)
    try:
        verification = verify_cubature(measure, cubature, basis, cfg.tol)
    except IndexError as exc:
        raise CliError(str(exc)) from exc
    passed = verification.passes(cfg.tol, cfg.mass_tol)
    _write_json(cfg.out_dir, "verification_report.json", verification.to_dict())
    print(
        f"verify: max residual {verification.max_residual_rel:.3e}, "
        f"mass gap {verification.mass_gap_rel:.3e}, {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else _EXIT_FAIL


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.num_vars is None:
        raise CliError("gen needs --num-vars (or the config basis block)")
    if cfg.num_atoms < 1:
        raise CliError(f"gen needs at least one atom, got {cfg.num_atoms}")
    rng = np.random.default_rng(cfg.seed)
    atoms = rng.uniform(-10.0, 10.0, size=(cfg.num_atoms, cfg.num_vars))
    if cfg.unit_weights:
        weights = np.ones(cfg.num_atoms)
    else:
        weights = rng.uniform(0.1, 2.0, size=cfg.num_atoms)

    directory = Path(cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "jsonl":
        path = directory / "measure.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for x, w in zip(atoms, weights):
                fh.write(json.dumps({"x": x.tolist(), "w": float(w)}))
                fh.write("\n")
    elif cfg.fmt == "csv":
        path = directory / "measure.csv"
        with open(path, "w", encoding="utf-8") as fh:
            for x, w in zip(atoms, weights):
                fh.write(",".join(repr(float(v)) for v in x) + f",{float(w)!r}\n")
    else:
        raise CliError(f"unknown format {cfg.fmt!r}")
    print(f"gen: wrote {cfg.num_atoms} atoms to {path}")
    return 0


_COMMANDS = {
    "reduce": cmd_reduce,
    "moments": cmd_moments,
    "feasible": cmd_feasible,
    "verify": cmd_verify,
    "gen": cmd_gen,
}


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momcube",
        description="Compress discrete measures into exact cubature formulas "
        "and decide truncated moment feasibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--input", help="input file (measure or moment file)")
        p.add_argument("--format", choices=["csv", "jsonl"], help="input format")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out-dir", dest="out_dir", help="directory for output files")
        p.add_argument("--tol", type=float, help="verification tolerance")

    for name, text in [
        ("reduce", "compress a measure into a cubature formula"),
        ("moments", "compute and write the moment vector of a measure"),
        ("feasible", "decide truncated moment feasibility over a grid"),
        ("verify", "re-verify a cubature file against its source measure"),
        ("gen", "generate a synthetic test measure from a seed"),
    ]:
        p = sub.add_parser(name, help=text)
        common(p)
        if name in ("reduce", "moments", "verify", "gen"):
            p.add_argument("--degree", type=int, help="maximum weighted degree")
            p.add_argument("--weights", help="comma-separated degree weights, e.g. 1,2")
            p.add_argument("--num-vars", dest="num_vars", type=int,
                           help="number of coordinates")
        if name in ("reduce", "verify"):
            p.add_argument("--mass-tol", dest="mass_tol", type=float,
                           help="mass conservation tolerance")
        if name == "feasible":
            p.add_argument("--grid", help="candidate support grid file")
            p.add_argument("--feas-tol", dest="feas_tol", type=float,
                           help="feasibility/certificate tolerance")
        if name == "verify":
            p.add_argument("--cubature", help="cubature JSON file to verify")
        if name == "gen":
            p.add_argument("--seed", type=int, help="generator seed")
            p.add_argument("--num-atoms", dest="num_atoms", type=int,
                           help="number of atoms to generate")
            p.add_argument("--unit-weights", dest="unit_weights", action="store_true",
                           help="give every atom weight 1")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_run_config(args)
        return _COMMANDS[args.command](cfg)
    except CliError as exc:
        print(f"momcube {args.command}: error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
