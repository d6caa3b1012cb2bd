"""Discrete positive measures: file ingestion, feature matrices, moments.

A measure is M atoms in R^N with strictly positive weights.  Features are
either a MonomialBasis or an arbitrary FunctionDictionary (a deterministic
point-to-vector map), which covers reduction against push-forward feature
systems.  Moment accumulation uses chunked Neumaier (compensated) summation
so that exactness tests survive atom counts in the millions.

CSV ingest has two paths over the same text.  ``_parse_csv`` reads line by
line and is the definition of the format: every rule and every
``MeasureFormatError`` message, with its line number, comes from it.  In
front of it, ``_load_csv_block`` parses the whole file in one
``np.loadtxt`` call and checks the rules on the resulting array.  It either
returns exactly what the line parser would, or declines, and then the line
parser reads the file from the start.  A leading UTF-8 byte-order mark, as
spreadsheet exports write it, is dropped before either format is parsed.
"""

from __future__ import annotations

import io
import json
import math
from array import array
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


def feature_count(features: Features) -> int:
    if isinstance(features, MonomialBasis):
        return features.dimension
    return features.size


def _open_text(source: Union[str, Path, IO]):
    """A seekable text-file object for the source, which the caller closes.

    Paths and bytes are decoded as UTF-8 with an optional leading
    byte-order mark ("utf-8-sig"), which the decoder drops.  Every source
    reads with universal newlines: "\n", "\r\n" and "\r" all end a line.
    """
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8-sig"), newline=None)
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
        return io.StringIO(data, newline=None)
    raise MeasureFormatError(f"unsupported measure source {type(source).__name__}")


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_json_number(value) -> bool:
    """A JSON number; booleans are ints in Python but not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_float(value) -> float:
    """float(value), reading an integer too large for a float as +-inf, as
    the JSON parser already reads a float literal out of range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_csv(text_file, num_vars):
    atoms = array("d")
    weights = array("d")
    ncols = None
    for lineno, raw in enumerate(text_file, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            if ncols is None and not any(map(_parses_as_float, cells)):
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
                atoms.extend(row[:-1])
                weights.append(w)
                continue
            if ncols != num_vars:
                raise MeasureFormatError(
                    f"line {lineno}: expected {num_vars} coordinate columns "
                    f"(+ optional weight), got {ncols}"
                )
        atoms.extend(row)
        weights.append(1.0)
    return atoms, weights


def _load_csv_block(text_file, num_vars):
    """(atoms, weights) from one ``np.loadtxt`` call, or None to decline.

    Blank lines and a header (by ``_parse_csv``'s rule: a first non-blank
    line in which no cell parses as a float) are skipped here, so
    ``loadtxt`` starts at the first data line and reads the rest of the file
    in one block; the rules are then checked on the array.  ``loadtxt``
    refuses a superset of what ``float()`` refuses (underscores, non-ASCII
    digits, whitespace-only lines, empty, quoted or ``#`` cells), and where
    both accept a cell they give the same double.  So any input this
    returns None for (a refusal, no data or a broken rule) is left to the
    line parser, which accepts it or names the offending line.
    """
    header = None  # the header's width, once one is seen
    while True:
        # readline, not iteration: tell() is unavailable on a text file
        # while it is being iterated.
        start = text_file.tell()
        line = text_file.readline()
        if not line:
            return None
        if not line.strip():
            continue
        cells = [c.strip() for c in line.strip().split(",")]
        if header is not None or any(map(_parses_as_float, cells)):
            break
        header = len(cells)
    text_file.seek(start)
    try:
        # comments=None: "#" is a non-numeric value, not a comment.
        data = np.loadtxt(text_file, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    ncols = data.shape[1]
    if header is not None and ncols != header:
        return None
    if not np.isfinite(data).all():
        return None
    if num_vars is None or ncols == num_vars:
        return data, np.ones(data.shape[0])
    if ncols != num_vars + 1 or not (data[:, -1] > 0.0).all():
        return None
    return data[:, :-1], data[:, -1]


def _parse_jsonl(text_file, num_vars):
    atoms = array("d")
    weights = array("d")
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
        if not isinstance(x, list) or not all(map(_is_json_number, x)):
            raise MeasureFormatError(f'line {lineno}: "x" must be an array of numbers')
        row = [_json_float(v) for v in x]
        if n is None:
            n = len(row)
        if len(row) != n:
            raise MeasureFormatError(
                f'line {lineno}: expected {n} coordinates, got {len(row)}'
            )
        if any(not math.isfinite(v) for v in row):
            raise MeasureFormatError(f"line {lineno}: non-finite coordinate")
        w = obj.get("w", 1.0)
        if not _is_json_number(w):
            raise MeasureFormatError(f"line {lineno}: non-positive weight {w!r}")
        w = _json_float(w)
        if not math.isfinite(w):
            raise MeasureFormatError(f"line {lineno}: non-finite weight")
        if w <= 0.0:
            raise MeasureFormatError(f"line {lineno}: non-positive weight {w!r}")
        atoms.extend(row)
        weights.append(w)
    return atoms, weights


def load_measure(source, fmt: str = "csv", num_vars: int | None = None) -> DiscreteMeasure:
    """Load a discrete measure from CSV or JSONL.

    CSV rows carry N coordinate columns plus an optional final weight
    column (distinguished by ``num_vars``; without it every column is a
    coordinate).  A first row in which no cell is a number is treated as a
    header.  JSONL rows are objects with an "x" array of numbers and an
    optional positive number "w"; booleans are not numbers.
    Missing weights default to 1.  A leading UTF-8 byte-order mark is
    accepted in both formats.

    A CSV file is parsed in one vectorised block when it follows the rules;
    otherwise it is read again by the line parser, which is the only source
    of format errors, so messages and line numbers do not depend on the
    path taken.
    """
    with _open_text(source) as text_file:
        if fmt == "csv":
            block = _load_csv_block(text_file, num_vars)
            if block is not None:
                return DiscreteMeasure(*block)
            text_file.seek(0)
            atoms, weights = _parse_csv(text_file, num_vars)
        elif fmt == "jsonl":
            atoms, weights = _parse_jsonl(text_file, num_vars)
        else:
            raise MeasureFormatError(f"unknown format {fmt!r} (expected csv or jsonl)")
    if not weights:
        raise MeasureFormatError("no atoms in input")
    # The line parsers append rows flat, one float per cell, so no Python
    # object per row outlives the parse.
    return DiscreteMeasure(
        np.frombuffer(atoms, dtype=float).reshape(len(weights), -1),
        np.frombuffer(weights, dtype=float),
    )


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


def moment_vector(measure: DiscreteMeasure, features: Features) -> np.ndarray:
    """Weighted feature sums over all atoms, compensated per feature.

    Entry j is sum_a w_a * phi_j(x_a), returned as a read-only float64
    array of length D.  Atoms are processed in fixed-size chunks in index
    order, so results are bit-stable across runs.
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
    values = total + comp
    values.setflags(write=False)
    return values
