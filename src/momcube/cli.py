"""Command-line front end for reproducible batch runs.

All results are written as JSON files into the output directory; the
terminal gets a one-line summary per run.  Configuration comes from an
optional JSON file plus flag overrides, flags winning.  Each subcommand
takes only the options it reads, and a config value passes the same check
as its flag.  Exit codes: 0 success (verification passed / feasible),
1 verification failed or infeasible, 2 input or config error,
3 indeterminate.

``reduce``, ``verify`` and ``moments`` read the measure file once, in
blocks of 32,768 rows (``measure._read_blocks``), and never hold the whole
measure: ``reduce`` feeds the blocks to the merge-and-reduce engine, which
in the same pass feeds the verifier's moments and mass; ``verify`` and
``moments`` feed them to the same accumulators that ``verify_cubature`` and
``moment_vector`` use.  A fault in the file is reported when its block is
read, with the line number ``load_measure`` gives.  ``feasible`` loads its
grid whole, since the feasibility system holds every grid point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .basis import BasisError, MonomialBasis, _is_integer, basis_from_config, build_basis
from .geometry import (
    DEFAULT_FEAS_TOL,
    FeasibilityStatus,
    load_moment_file,
    moments_to_dict,
    truncated_moment_feasible,
)
from .measure import (
    MeasureFormatError,
    _is_json_number,
    _load_json,
    _MomentSums,
    _read_blocks,
    load_measure,
)
from .recomb import Cubature, _reduce_blocks
from .verify import _verify_blocks

# The benchmark's tracer (perfbench/tracing.py) wraps these names here
# whenever it traces, so they stay until the benchmark's wrap list drops
# them.  The commands read the measure in blocks and no longer call them.
from .measure import moment_vector  # noqa: F401
from .recomb import cubature_of_degree  # noqa: F401
from .verify import verify_cubature  # noqa: F401

_EXIT_FAIL = 1
_EXIT_INPUT = 2
_EXIT_INDETERMINATE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = _EXIT_INPUT):
        super().__init__(message)
        self.code = code


# Option checks: each takes a flag's text or a config file's JSON value and
# returns the option's value or raises ValueError.
def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expects a string, got {value!r}")
    return value


def _format(value) -> str:
    if value not in ("csv", "jsonl"):
        raise ValueError(f"expects csv or jsonl, got {value!r}")
    return value


def _integer(low: int) -> Callable[[object], int]:
    def check(value) -> int:
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass
        if not _is_integer(value) or value < low:
            raise ValueError(f"expects an integer >= {low}, got {value!r}")
        return value
    return check


def _positive(value) -> float:
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not 0.0 < number < math.inf:
        raise ValueError(f"expects a positive number, got {value!r}")
    return number


def _weights(value) -> list[int]:
    items = value.split(",") if isinstance(value, str) else value
    if isinstance(items, list):
        try:
            return [_integer(1)(w) for w in items]
        except ValueError:
            pass
    raise ValueError(f"expects comma-separated positive integers, got {value!r}")


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expects true or false, got {value!r}")
    return value


class _Option(NamedTuple):
    key: str  # config key; "basis.k" is key k of the "basis" block
    check: Callable[[object], object]
    default: object  # ... for a required option
    help: str


# Every option by its flag.  argparse stores a flag under its name with "_"
# for "-" (--out-dir as out_dir), and the commands read it by that name.
_OPTIONS = {
    "--input": _Option("input", _text, ..., "measure file; for feasible, the moment file"),
    "--format": _Option("format", _format, "csv", "csv or jsonl; for feasible, the grid's format"),
    "--out-dir": _Option("out_dir", _text, ".", "directory for output files"),
    "--num-vars": _Option("basis.num_vars", _integer(1), None, "number of coordinates"),
    "--degree": _Option("basis.max_degree", _integer(0), ..., "maximum weighted degree"),
    "--weights": _Option("basis.degree_weights", _weights, None, "degree weights, e.g. 1,2"),
    "--tol": _Option("tol", _positive, 1e-8, "verification tolerance"),
    "--mass-tol": _Option("mass_tol", _positive, 1e-12, "mass conservation tolerance"),
    "--feas-tol": _Option("feas_tol", _positive, DEFAULT_FEAS_TOL,
                          "feasibility/certificate tolerance"),
    "--grid": _Option("grid", _text, ..., "candidate support grid file"),
    "--cubature": _Option("cubature", _text, ..., "cubature JSON file to verify"),
    "--seed": _Option("seed", _integer(0), 0, "generator seed"),
    "--num-atoms": _Option("num_atoms", _integer(1), 100, "number of atoms to generate"),
    "--unit-weights": _Option("unit_weights", _switch, False, "give every atom weight 1"),
}


def _read_json(path: str, what: str) -> dict:
    """The JSON object in a config or cubature file, read as moment files
    are (``measure._load_json``)."""
    try:
        return _load_json(path)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"{what} {path}: {exc}") from exc


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """The options the command reads, each from its flag, else the config
    file, else its default; a flag value and a config value pass one check."""
    config = _read_json(args.config, "config") if args.config else {}
    settings = argparse.Namespace()
    for flag in _COMMANDS[args.command].flags.split():
        option = _OPTIONS[flag]
        name = flag[2:].replace("-", "_")
        value, where = getattr(args, name), ""
        if value is None:
            section, _, key = option.key.rpartition(".")
            block = config.get(section, {}) if section else config
            if not isinstance(block, dict):
                raise CliError(f"config key {section!r} must hold a JSON object")
            value, where = block.get(key), f" (config key {option.key!r})"
        if value is None:
            if option.default is ...:
                raise CliError(f"missing {flag} (or config key {option.key!r})")
            value = option.default
        else:
            try:
                value = option.check(value)
            except ValueError as exc:
                raise CliError(f"{flag}{where} {exc}") from None
        setattr(settings, name, value)
    return settings


def _read_input(cfg: argparse.Namespace) -> tuple[int, Iterator]:
    """The input measure's coordinate count and its (atoms, weights) blocks.

    The first block is read here; the rest are read as the caller takes
    them, and a fault in the file then raises CliError, which no command
    mistakes for a failure of its own computation.
    """
    if cfg.format == "csv" and cfg.num_vars is None:
        # Without the dimension a trailing weight column is indistinguishable
        # from a coordinate.
        raise CliError(
            "csv input needs the coordinate count (--num-vars or the config basis block)"
        )

    def blocks():
        try:
            yield from _read_blocks(cfg.input, cfg.format, cfg.num_vars)
        except (MeasureFormatError, ValueError) as exc:
            raise CliError(f"{cfg.input}: {exc}") from exc
        except OSError as exc:
            raise CliError(f"cannot read {cfg.input}: {exc}") from exc

    def chained(block):
        yield block
        del block  # held no longer than the caller holds it
        yield from reader

    reader = blocks()
    first = next(reader)
    return first[0].shape[1], chained(first)


def _require_basis(cfg: argparse.Namespace, num_vars: int) -> MonomialBasis:
    """The basis over the measure's coordinates; the reader has already
    held every row to ``--num-vars`` when it is given."""
    try:
        return build_basis(num_vars, cfg.weights, cfg.degree)
    except BasisError as exc:
        raise CliError(str(exc)) from exc


def _make_out_dir(out_dir: str):
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out_dir}: {exc}") from exc


def _write_json(out_dir: str, name: str, payload: dict) -> Path:
    """Write strict JSON: the reports write a float that is not finite as
    null, and allow_nan=False refuses any that is left."""
    path = Path(out_dir) / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return path


def cmd_reduce(cfg: argparse.Namespace) -> int:
    num_vars, blocks = _read_input(cfg)
    basis = _require_basis(cfg, num_vars)
    # One pass: the blocks feed the reduction and the verifier's moments.
    try:
        cubature, report, verification = _reduce_blocks(blocks, basis)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(f"reduction failed: {exc}") from exc
    passed = verification.passes(cfg.tol, cfg.mass_tol)

    _write_json(cfg.out_dir, "cubature.json", cubature.to_dict(basis.to_config()))
    _write_json(cfg.out_dir, "reduction_report.json", report.to_dict())
    _write_json(cfg.out_dir, "verification_report.json", verification.to_dict())

    print(
        f"reduce: {report.initial_atoms} atoms -> {cubature.num_nodes} nodes "
        f"(dimension {basis.dimension}), max residual {verification.max_residual_rel:.3e}, "
        f"mass gap {verification.mass_gap_rel:.3e}, {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else _EXIT_FAIL


def cmd_moments(cfg: argparse.Namespace) -> int:
    num_vars, blocks = _read_input(cfg)
    basis = _require_basis(cfg, num_vars)
    sums = _MomentSums(basis)
    try:
        for atoms, weights in blocks:
            sums.add(atoms, weights)
            del atoms, weights  # not held while the next block is read
        moments = sums.moments()
    except ValueError as exc:
        raise CliError(f"{cfg.input}: {exc}") from exc
    path = _write_json(cfg.out_dir, "moments.json", moments_to_dict(basis, moments))
    print(
        f"moments: {sums.count} atoms, dimension {basis.dimension}, wrote {path}"
    )
    return 0


def cmd_feasible(cfg: argparse.Namespace) -> int:
    try:
        basis, moments = load_moment_file(cfg.input)
    except (OSError, ValueError) as exc:
        raise CliError(f"{cfg.input}: {exc}") from exc
    try:
        grid = load_measure(cfg.grid, cfg.format, num_vars=basis.num_vars)
    except (MeasureFormatError, ValueError, OSError) as exc:
        raise CliError(f"{cfg.grid}: {exc}") from exc

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


def _leaves(value):
    """The entries of a JSON array, nested arrays flattened."""
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _json_array(data: dict, field: str, is_entry, kind: str, dtype) -> np.ndarray:
    """data[field] as an array, if it is a JSON array of ``kind`` alone."""
    value = data[field]
    if not isinstance(value, list) or not all(map(is_entry, _leaves(value))):
        raise ValueError(f"{field!r} must be an array of {kind}")
    try:
        array = np.asarray(value, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{field!r} holds a number out of range") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{field!r} holds a non-finite number")
    return array


def _load_cubature_file(path: str) -> tuple[Cubature, MonomialBasis]:
    data = _read_json(path, "cubature file")
    try:
        basis = basis_from_config(data["basis"])
        degree = data.get("degree")
        if not _is_integer(degree) or degree != basis.max_degree:
            raise ValueError(
                f"'degree' must be the basis's max_degree {basis.max_degree}, got {degree!r}"
            )
        cubature = Cubature(
            node_indices=_json_array(data, "node_indices", _is_integer, "integers", np.int64),
            nodes=_json_array(data, "nodes", _is_json_number, "numbers", float),
            weights=_json_array(data, "weights", _is_json_number, "numbers", float),
            degree=degree,
            basis_id=basis.identifier,
        )
    except (KeyError, TypeError, ValueError, BasisError) as exc:
        raise CliError(f"{path}: bad cubature file: {exc}") from exc
    return cubature, basis


def cmd_verify(cfg: argparse.Namespace) -> int:
    num_vars, blocks = _read_input(cfg)
    cubature, basis = _load_cubature_file(cfg.cubature)
    if {basis.num_vars, cubature.nodes.shape[1]} != {num_vars}:
        raise CliError(
            f"{cfg.cubature}: basis has {basis.num_vars} coordinates and nodes "
            f"have {cubature.nodes.shape[1]}, but the measure has {num_vars}"
        )
    try:
        verification = _verify_blocks(blocks, cubature, basis)
    except (IndexError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    passed = verification.passes(cfg.tol, cfg.mass_tol)
    _write_json(cfg.out_dir, "verification_report.json", verification.to_dict())
    print(
        f"verify: max residual {verification.max_residual_rel:.3e}, "
        f"mass gap {verification.mass_gap_rel:.3e}, {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else _EXIT_FAIL


def cmd_gen(cfg: argparse.Namespace) -> int:
    if cfg.num_vars is None:
        raise CliError("gen needs --num-vars (or the config basis block)")
    rng = np.random.default_rng(cfg.seed)
    atoms = rng.uniform(-10.0, 10.0, size=(cfg.num_atoms, cfg.num_vars))
    if cfg.unit_weights:
        weights = np.ones(cfg.num_atoms)
    else:
        weights = rng.uniform(0.1, 2.0, size=cfg.num_atoms)

    path = Path(cfg.out_dir) / f"measure.{cfg.format}"
    with open(path, "w", encoding="utf-8") as fh:
        for x, w in zip(atoms, weights):
            if cfg.format == "jsonl":
                fh.write(json.dumps({"x": x.tolist(), "w": float(w)}) + "\n")
            else:
                fh.write(",".join(repr(float(v)) for v in x) + f",{float(w)!r}\n")
    print(f"gen: wrote {cfg.num_atoms} atoms to {path}")
    return 0


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: str  # the options it reads, besides --config


_COMMANDS = {
    "reduce": _Command(cmd_reduce, "compress a measure into a cubature formula",
                       "--input --format --out-dir --num-vars --degree --weights --tol --mass-tol"),
    "moments": _Command(cmd_moments, "compute and write the moment vector of a measure",
                        "--input --format --out-dir --num-vars --degree --weights"),
    "feasible": _Command(cmd_feasible, "decide truncated moment feasibility over a grid",
                         "--input --format --out-dir --grid --feas-tol"),
    "verify": _Command(cmd_verify, "re-verify a cubature file against its source measure",
                       "--input --format --out-dir --num-vars --cubature --tol --mass-tol"),
    "gen": _Command(cmd_gen, "generate a synthetic test measure from a seed",
                    "--format --out-dir --num-vars --seed --num-atoms --unit-weights"),
}


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momcube",
        description="Compress discrete measures into exact cubature formulas "
        "and decide truncated moment feasibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        for flag in command.flags.split():
            option = _OPTIONS[flag]
            # None when absent, so that the config file or the default decides.
            p.add_argument(flag, help=option.help, default=None,
                           action="store_true" if option.check is _switch else "store")
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = _settings(args)
        # Before any loading, so that a bad --out-dir fails before the work.
        _make_out_dir(cfg.out_dir)
        return _COMMANDS[args.command].run(cfg)
    except CliError as exc:
        print(f"momcube {args.command}: error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
