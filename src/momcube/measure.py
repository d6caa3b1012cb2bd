"""Discrete positive measures: file ingestion, feature matrices, moments.

A measure is M atoms in R^N with strictly positive weights.  Features are
either a MonomialBasis or an arbitrary FunctionDictionary (a deterministic
point-to-vector map), which covers reduction against push-forward feature
systems.  Moment accumulation uses chunked Neumaier (compensated) summation
so that exactness tests survive atom counts in the millions.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, IO, Union

import numpy as np

from .basis import MonomialBasis, embed_block

_CHUNK = 65536


class MeasureFormatError(ValueError):
    """Malformed measure input; messages carry 1-based line numbers."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """M atoms in R^N with strictly positive weights.

    Arrays are made read-only; all operations treat the measure as
    immutable, so instances are safe to share between threads.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError("a measure needs at least one atom")
        if weights.shape[0] != atoms.shape[0]:
            raise ValueError(
                f"{atoms.shape[0]} atoms but {weights.shape[0]} weights"
            )
        if not np.isfinite(atoms).all():
            raise ValueError("atom coordinates must be finite")
        if not np.isfinite(weights).all() or (weights <= 0.0).any():
            raise ValueError("weights must be finite and strictly positive")
        atoms = atoms.copy()
        weights = weights.copy()
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def num_vars(self) -> int:
        return self.atoms.shape[1]

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights.tolist())


@dataclass(frozen=True)
class FunctionDictionary:
    """A deterministic feature map from points in R^N to vectors in R^D."""

    size: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "dict"

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("a function dictionary needs size >= 1")

    @property
    def identifier(self) -> str:
        return f"{self.name}:d={self.size}"

    def evaluate(self, point: np.ndarray) -> np.ndarray:
        out = np.asarray(self.evaluator(np.asarray(point, dtype=float)), dtype=float)
        out = out.reshape(-1)
        if out.shape[0] != self.size:
            raise ValueError(
                f"dictionary evaluator returned {out.shape[0]} values, expected {self.size}"
            )
        return out


Features = Union[MonomialBasis, FunctionDictionary]


@dataclass(frozen=True)
class MomentVector:
    """Integrals of every feature against the measure."""

    values: np.ndarray
    basis_or_dict_id: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.shape[0]


def feature_count(features: Features) -> int:
    if isinstance(features, MonomialBasis):
        return features.dimension
    return features.size


def feature_id(features: Features) -> str:
    return features.identifier


def _open_text(source: Union[str, Path, IO]):
    """Yield (text-file object, should_close)."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8")), True
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data), True
    raise MeasureFormatError(f"unsupported measure source {type(source).__name__}")


def _parse_csv(text_file, num_vars):
    atoms: list[list[float]] = []
    weights: list[float] = []
    ncols = None
    for lineno, raw in enumerate(text_file, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            if not atoms and ncols is None:
                ncols = len(cells)  # header line; remember its width
                continue
            raise MeasureFormatError(f"line {lineno}: non-numeric value") from None
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise MeasureFormatError(
                f"line {lineno}: expected {ncols} columns, got {len(row)}"
            )
        if any(not math.isfinite(v) for v in row):
            raise MeasureFormatError(f"line {lineno}: non-finite value")
        if num_vars is not None:
            if ncols == num_vars + 1:
                w = row[-1]
                if w <= 0.0:
                    raise MeasureFormatError(f"line {lineno}: non-positive weight {w}")
                atoms.append(row[:-1])
                weights.append(w)
                continue
            if ncols != num_vars:
                raise MeasureFormatError(
                    f"line {lineno}: expected {num_vars} coordinate columns "
                    f"(+ optional weight), got {ncols}"
                )
        atoms.append(row)
        weights.append(1.0)
    return atoms, weights


def _parse_jsonl(text_file, num_vars):
    atoms: list[list[float]] = []
    weights: list[float] = []
    n = num_vars
    for lineno, raw in enumerate(text_file, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or "x" not in obj:
            raise MeasureFormatError(f'line {lineno}: expected an object with an "x" array')
        x = obj["x"]
        if not isinstance(x, list) or not all(isinstance(v, (int, float)) for v in x):
            raise MeasureFormatError(f'line {lineno}: "x" must be an array of numbers')
        row = [float(v) for v in x]
        if n is None:
            n = len(row)
        if len(row) != n:
            raise MeasureFormatError(
                f'line {lineno}: expected {n} coordinates, got {len(row)}'
            )
        if any(not math.isfinite(v) for v in row):
            raise MeasureFormatError(f"line {lineno}: non-finite coordinate")
        w = obj.get("w", 1.0)
        if not isinstance(w, (int, float)) or not math.isfinite(w) or w <= 0.0:
            raise MeasureFormatError(f"line {lineno}: non-positive weight {w!r}")
        atoms.append(row)
        weights.append(float(w))
    return atoms, weights


def load_measure(source, fmt: str = "csv", num_vars: int | None = None) -> DiscreteMeasure:
    """Load a discrete measure from CSV or JSONL.

    CSV rows carry N coordinate columns plus an optional final weight
    column (distinguished by ``num_vars``; without it every column is a
    coordinate).  A non-numeric first row is treated as a header.  JSONL
    rows are objects with an "x" array and an optional positive "w".
    Missing weights default to 1.
    """
    text_file, should_close = _open_text(source)
    try:
        if fmt == "csv":
            atoms, weights = _parse_csv(text_file, num_vars)
        elif fmt == "jsonl":
            atoms, weights = _parse_jsonl(text_file, num_vars)
        else:
            raise MeasureFormatError(f"unknown format {fmt!r} (expected csv or jsonl)")
    finally:
        if should_close:
            text_file.close()
    if not atoms:
        raise MeasureFormatError("no atoms in input")
    return DiscreteMeasure(np.array(atoms, dtype=float), np.array(weights, dtype=float))


def _dictionary_block(features: FunctionDictionary, pts: np.ndarray, offset: int) -> np.ndarray:
    out = np.empty((features.size, pts.shape[0]))
    for a in range(pts.shape[0]):
        try:
            out[:, a] = features.evaluate(pts[a])
        except Exception as exc:
            raise ValueError(
                f"feature evaluation failed at atom {offset + a}: {exc}"
            ) from exc
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        raise ValueError(
            f"feature evaluation gave a non-finite value at atom {offset + int(bad.argmax())}"
        )
    return out


def _feature_block(features: Features, pts: np.ndarray, offset: int = 0) -> np.ndarray:
    if isinstance(features, MonomialBasis):
        return embed_block(features, pts)
    return _dictionary_block(features, pts, offset)


def feature_matrix(measure: DiscreteMeasure, features: Features) -> np.ndarray:
    """(D, M) matrix whose column a is the feature vector of atom a."""
    d = feature_count(features)
    m = measure.num_atoms
    out = np.empty((d, m))
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        out[:, start:stop] = _feature_block(features, measure.atoms[start:stop], start)
    return out


def _compensated_accumulate(total, comp, partial):
    """One Neumaier update of running sums ``total`` with compensation ``comp``."""
    fresh = total + partial
    swap = np.abs(total) >= np.abs(partial)
    comp += np.where(swap, (total - fresh) + partial, (partial - fresh) + total)
    return fresh, comp


def moment_vector(measure: DiscreteMeasure, features: Features) -> MomentVector:
    """Weighted feature sums over all atoms, compensated per feature.

    Entry j is sum_a w_a * phi_j(x_a).  Atoms are processed in fixed-size
    chunks in index order, so results are bit-stable across runs.
    """
    d = feature_count(features)
    m = measure.num_atoms
    total = np.zeros(d)
    comp = np.zeros(d)
    for start in range(0, m, _CHUNK):
        stop = min(start + _CHUNK, m)
        block = _feature_block(features, measure.atoms[start:stop], start)
        partial = (block * measure.weights[start:stop]).sum(axis=1)
        total, comp = _compensated_accumulate(total, comp, partial)
    return MomentVector(values=total + comp, basis_or_dict_id=feature_id(features))
