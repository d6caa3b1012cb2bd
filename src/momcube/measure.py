"""Discrete positive measures: file ingestion, feature blocks, moments.

A measure is M atoms in R^N with strictly positive weights.  Features are
either a MonomialBasis or an arbitrary FunctionDictionary (a deterministic
point-to-vector map), which covers reduction against push-forward feature
systems.  Moments are accumulated over fixed blocks of 4,096 atoms in index
order: each block's feature columns are weighted in place and summed, and
the block sums go through a Neumaier (compensated) update, so exactness
tests survive atom counts in the millions, reruns are bit-identical, and a
pass holds one D x 4,096 block at a time whatever the atom count.

CSV ingest has two paths over the same text.  ``_parse_csv`` reads line by
line and is the definition of the format: every rule and every
``MeasureFormatError`` message, with its line number, comes from it.  In
front of it, ``_load_csv_block`` parses the whole file in one
``np.loadtxt`` call and checks the rules on the resulting array.  It either
returns exactly what the line parser would, or declines, and then the line
parser reads the file from the start.  ``_open_text`` decodes measure,
moment, config and cubature text alike (UTF-8, a leading byte-order mark
dropped).

Array ownership: ``DiscreteMeasure(atoms, weights)`` copies its inputs, so
a caller may go on writing to its own arrays.  ``load_measure`` builds the
arrays itself and hands them to the measure without a copy (the array
``np.loadtxt`` returned, or the line parsers' ``array("d")`` buffers), so
a loaded measure costs its own bytes once.  In both cases the measure's
``atoms`` and ``weights`` are read-only.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, IO, Union

import numpy as np

from .basis import MonomialBasis, embed_block

# Atoms per block of feature columns, in ``moment_vector`` and in each level
# of ``recomb._tree``: small enough that a D x block stays in cache, large
# enough to amortise the per-block calls.  It fixes the summation order, and
# so the node sets, of a reduction.
_ATOM_BLOCK = 4096

# Characters per read when ``_open_text`` encodes a text file object.
_TEXT_CHUNK = 1 << 16


class MeasureFormatError(ValueError):
    """Malformed measure input; messages carry 1-based line numbers."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """M atoms in R^N with strictly positive weights.

    The constructor copies ``atoms`` and ``weights``, so later writes to
    the caller's arrays do not reach the measure.  The measure's arrays are
    read-only; all operations treat the measure as immutable, so instances
    are safe to share between threads.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self._adopt(self.atoms, self.weights, copy=True)

    def _adopt(self, atoms, weights, copy: bool):
        """Check the arrays and store them read-only, copied or not."""
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        weights = np.asarray(weights, dtype=float).reshape(-1)
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
        if copy:
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
        """The correctly rounded sum of the weights.

        ``math.fsum`` takes the weights one 4,096-weight block's list at a
        time, so the pass holds 4,096 Python floats, not one per atom.
        """
        blocks = (
            self.weights[start:start + _ATOM_BLOCK].tolist()
            for start in range(0, self.num_atoms, _ATOM_BLOCK)
        )
        return math.fsum(itertools.chain.from_iterable(blocks))


def _owned_measure(atoms: np.ndarray, weights: np.ndarray) -> DiscreteMeasure:
    """A measure that takes over arrays nobody else holds, without a copy.

    Only ``load_measure`` calls it, on arrays it has just built.  The checks
    are ``DiscreteMeasure``'s own, and the arrays are made read-only.
    """
    measure = object.__new__(DiscreteMeasure)
    measure._adopt(atoms, weights, copy=False)
    return measure


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


def _open_text(source: Union[str, Path, bytes, IO]):
    """A seekable text-file object for the source, which the caller closes.

    The one text decoder, for measure, moment, config and cubature files:
    UTF-8 with an optional leading byte-order mark, universal newlines ("\n",
    "\r\n" and "\r" all end a line).  Bytes, or what a file object's
    ``read()`` returns (a str encoded first), are decoded as they are read
    from one in-memory buffer, not copied whole.  A text file object is
    read and encoded ``_TEXT_CHUNK`` characters at a time, so its text and
    the encoding are never both held whole.
    """
    if isinstance(source, (str, Path)):
        binary = open(source, "rb")
    elif isinstance(source, (bytes, bytearray)):
        binary = io.BytesIO(source)
    elif isinstance(source, io.TextIOBase):
        binary = io.BytesIO()
        while chunk := source.read(_TEXT_CHUNK):
            binary.write(chunk.encode("utf-8"))
        binary.seek(0)
    elif hasattr(source, "read"):
        data = source.read()
        binary = io.BytesIO(data.encode("utf-8") if isinstance(data, str) else data)
    else:
        raise MeasureFormatError(f"unsupported measure source {type(source).__name__}")
    return io.TextIOWrapper(binary, encoding="utf-8-sig", newline=None)


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


def _finite_or_none(value: float | None) -> float | None:
    """The value, or None (JSON null) for inf and nan, which strict JSON
    cannot write."""
    return value if value is not None and math.isfinite(value) else None


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

    The measure owns the arrays the parse produced: the array that
    ``np.loadtxt`` returned (atoms and weights are views of it), or the
    line parsers' flat buffers.  Nothing is copied, so the peak is about
    1.2 times the measure's own bytes for a path, bytes or a binary file
    object; a text file object's str is encoded first, which costs about
    twice the text.  Both arrays are read-only.
    """
    with _open_text(source) as text_file:
        if fmt == "csv":
            block = _load_csv_block(text_file, num_vars)
            if block is not None:
                return _owned_measure(*block)
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
    return _owned_measure(
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


def _compensated_accumulate(total, comp, partial):
    """One Neumaier update of running sums ``total`` with compensation ``comp``."""
    fresh = total + partial
    swap = np.abs(total) >= np.abs(partial)
    comp += np.where(swap, (total - fresh) + partial, (partial - fresh) + total)
    return fresh, comp


def moment_vector(measure: DiscreteMeasure, features: Features) -> np.ndarray:
    """Weighted feature sums over all atoms, compensated per feature.

    Entry j is sum_a w_a * phi_j(x_a), returned as a read-only float64
    array of length D.  Atoms are taken in blocks of 4,096 in index order;
    each block's D x 4,096 feature columns are weighted in place, summed
    per feature, and dropped before the next block is built, so a pass
    needs O(D * 4,096) extra memory and reruns are bit-identical.  The
    block sums are combined by a Neumaier update.

    Raises ValueError naming the first moment that is not finite, that is,
    whose sum overflows the float range: no cubature can be checked
    against it.
    """
    d = feature_count(features)
    m = measure.num_atoms
    total = np.zeros(d)
    comp = np.zeros(d)
    # Overflow shows as inf (or inf - inf = nan) in the result, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _ATOM_BLOCK):
            stop = min(start + _ATOM_BLOCK, m)
            # A fresh array for both feature kinds, so weighting it in place
            # touches nothing shared.
            block = _feature_block(features, measure.atoms[start:stop], start)
            block *= measure.weights[start:stop]
            total, comp = _compensated_accumulate(total, comp, block.sum(axis=1))
            del block  # freed before the next block is built
        values = total + comp
    bad = ~np.isfinite(values)
    if bad.any():
        j = int(bad.argmax())
        if isinstance(features, MonomialBasis):
            name = f'moment "{",".join(map(str, features.indices[j]))}"'
        else:
            name = f"moment {j}"
        raise ValueError(f"{name} of the measure overflows the float range")
    values.setflags(write=False)
    return values


def _relative_residuals(achieved: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|achieved - target| / (1 + |target|) per moment: the residual that
    ``reduce`` reports and ``verify_cubature`` judges by."""
    return np.abs(achieved - target) / (1.0 + np.abs(target))
