"""Discrete positive measures: file ingestion, feature blocks, moments.

A measure is M atoms in R^N with strictly positive weights.  Features are
either a MonomialBasis or an arbitrary FunctionDictionary (a deterministic
point-to-vector map), which covers reduction against push-forward feature
systems.  Moments are accumulated over fixed blocks of 4,096 atoms in index
order: each block's feature columns are weighted in place and summed, and
the block sums go through a Neumaier (compensated) update, so exactness
tests survive atom counts in the millions, reruns are bit-identical, and a
pass holds one D x 4,096 block at a time whatever the atom count.

Passes go over a measure once, in order, in blocks of ``_READ_BLOCK``
(32,768) rows: ``_read_blocks`` yields them from a file, and ``_views``
from an in-memory measure.  ``_MomentSums`` accumulates the moments, the
exact mass and the atom count over such blocks; ``moment_vector`` is that
accumulator fed by views, and the CLI feeds the same accumulator from the
reader, so neither holds the whole measure.  ``load_measure`` is the same
reader with no row limit: one block, the whole file.

CSV ingest has two paths over the same text.  ``_csv_rows`` reads line by
line and is the definition of the format: every rule and every
``MeasureFormatError`` message, with its line number, comes from it.  In
front of it, ``_csv_blocks`` parses each block of rows in one
``np.loadtxt`` call and checks the rules on the array; on the first refusal
or broken rule, the line parser reads the file from the start and goes on
from the rows already delivered.  Both line parsers, CSV and JSONL, yield
checked (coordinates, weight) rows, and one assembler, ``_line_blocks``,
packs those rows into blocks over flat ``array("d")`` buffers.
``_open_text`` decodes measure, moment, config and cubature text alike
(UTF-8, a leading byte-order mark dropped), and ``_load_json`` reads a
moment, config or cubature file's JSON object through it.

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
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, IO, Iterator, Union

import numpy as np

from .basis import MonomialBasis, embed_block

# Atoms per block of feature columns, in ``moment_vector`` and in each level
# of ``recomb._tree``: small enough that a D x block stays in cache, large
# enough to amortise the per-block calls.  It fixes the summation order, and
# so the node sets, of a reduction.
_ATOM_BLOCK = 4096

# Rows per block of a pass over a measure: the reader's blocks, and the
# views that the moment, verification and reduction passes take of an
# in-memory measure.  A multiple of _ATOM_BLOCK, so a pass sums the same
# 4,096-atom blocks whether the measure comes whole or in pieces.
_READ_BLOCK = 8 * _ATOM_BLOCK

# A positive double is m * 2**(e - 53), with m < 2**53 a whole number and
# e >= -1073 (np.frexp), so it is a whole number of units of 2**-1126.
_MASS_UNIT_EXP = 1126

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
        """The correctly rounded sum of the weights, ``math.fsum``'s value.

        The weights are summed exactly, 4,096 at a time (``_mass_units``),
        so the pass holds no Python float per atom.
        """
        units = sum(
            _mass_units(self.weights[start:start + _ATOM_BLOCK])
            for start in range(0, self.num_atoms, _ATOM_BLOCK)
        )
        return _mass_value(units)


def _mass_units(weights: np.ndarray) -> int:
    """The exact sum of positive finite weights, in units of 2**-1126.

    Each weight's 53-bit mantissa is split into its high 27 and low 26 bits,
    and each part is summed per binary exponent by a float64
    ``np.bincount``, which is exact while a call takes fewer than 2**26
    weights.  Python integers add up the per-exponent sums.
    """
    frac, exp = np.frexp(weights)
    frac *= 2.0**53
    mant = frac.astype(np.int64)
    low = int(exp.min())
    exp -= low
    high = np.bincount(exp, weights=mant >> 26)
    mant &= (1 << 26) - 1
    rest = np.bincount(exp, weights=mant)
    units = 0
    for shift in np.flatnonzero(high + rest).tolist():
        units += ((int(high[shift]) << 26) + int(rest[shift])) << shift
    return units << (low - 53 + _MASS_UNIT_EXP)


def _mass_value(units: int) -> float:
    """The correctly rounded float of ``_mass_units``'s exact sum: the
    value of ``math.fsum`` over the same weights.  Python's int division
    rounds correctly; a sum beyond the float range raises OverflowError, as
    ``math.fsum`` does."""
    return units / (1 << _MASS_UNIT_EXP)


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


def _distinct_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key that appears twice (the JSON
    parser would keep the later value)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def _load_json(source) -> dict:
    """The JSON object in a moment, config or cubature file, decoded by
    ``_open_text``.  A key named twice in one object (at any depth), a
    syntax error or nesting deeper than the parser's recursion ("invalid
    JSON: ..."), and a document that is not an object are ValueErrors."""
    with _open_text(source) as fh:
        try:
            data = json.load(fh, object_pairs_hook=_distinct_keys)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object at the top level")
    return data


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


def _line_blocks(rows_of, rows=None, skip=0):
    """(atoms, weights) blocks of ``rows`` rows (the last may be shorter;
    None: one block of all rows) from a line parser's (coordinates, weight)
    rows, the first ``skip`` of them left out.

    Rows go flat, one float per cell, into ``array("d")`` buffers that the
    block's arrays view without a copy, so no Python object per row
    outlives its line.  A block is yielded before the next line is read.
    """
    rows_of = itertools.islice(rows_of, skip, None)
    while True:
        atoms = array("d")
        weights = array("d")
        for row, w in itertools.islice(rows_of, rows):
            atoms.extend(row)
            weights.append(w)
        if not weights:
            return
        yield np.frombuffer(atoms).reshape(len(weights), -1), np.frombuffer(weights)


def _csv_rows(text_file, num_vars):
    """Each CSV data row as (coordinates, weight), once it passes the rules:
    the definition of the format."""
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
        w = 1.0
        if num_vars is not None:
            if ncols == num_vars + 1:
                w = row.pop()
                if w <= 0.0:
                    raise MeasureFormatError(f"line {lineno}: non-positive weight {w}")
            elif ncols != num_vars:
                raise MeasureFormatError(
                    f"line {lineno}: expected {num_vars} coordinate columns "
                    f"(+ optional weight), got {ncols}"
                )
        yield row, w


def _csv_blocks(text_file, num_vars, rows):
    """(atoms, weights) blocks of ``rows`` data rows (None: one block of all
    rows), each parsed by one ``np.loadtxt`` call and checked on the array.

    Blank lines are skipped, and so is a header (by ``_csv_rows``'s rule: a
    first non-blank line in which no cell parses as a float); every block
    must have the header's or else the first block's width.  ``loadtxt``
    refuses a superset of what ``float()`` refuses (underscores, non-ASCII
    digits, whitespace-only lines, empty, quoted or ``#`` cells), and where
    both accept a cell they give the same double.  So on a refusal or a
    broken rule the line parser reads the file again and goes on from the
    rows already delivered: it accepts the input or names the offending
    line.
    """
    width = None  # the header's width, then the data's
    delivered = 0
    for line in text_file:
        if not line.strip():
            continue
        if width is None:  # the first non-blank line
            cells = [c.strip() for c in line.strip().split(",")]
            if not any(map(_parses_as_float, cells)):
                width = len(cells)
                continue
        try:
            with warnings.catch_warnings():
                # With max_rows, numpy >= 1.23 warns that blank lines no longer
                # count as rows; the line parser does not count them either.
                warnings.simplefilter("ignore", UserWarning)
                # The line in hand, then the file from where it stopped: loadtxt
                # iterates a file's lines, so the next block starts at the next
                # row.  comments=None: "#" is a non-numeric value, not a comment.
                data = np.loadtxt(
                    itertools.chain([line], text_file), delimiter=",", comments=None,
                    ndmin=2, dtype=float, max_rows=rows,
                )
        except ValueError:
            break
        width = width or data.shape[1]
        if data.shape[1] != width or not np.isfinite(data).all():
            break
        if num_vars is None or width == num_vars:
            atoms, weights = data, np.ones(data.shape[0])
        elif width == num_vars + 1 and (data[:, -1] > 0.0).all():
            atoms, weights = data[:, :-1], data[:, -1]
        else:
            break
        delivered += weights.shape[0]
        yield atoms, weights
        del data, atoms, weights  # not held while the next block is parsed
    else:
        return  # the end of the file, with every row parsed in blocks
    # tell() is unavailable once a text file has been iterated, so the line
    # parser starts over; it is the only source of errors and line numbers.
    text_file.seek(0)
    yield from _line_blocks(_csv_rows(text_file, num_vars), rows, delivered)


def _jsonl_rows(text_file, num_vars):
    """Each JSONL row as (coordinates, weight), once it passes the rules."""
    n = num_vars
    for lineno, raw in enumerate(text_file, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise MeasureFormatError(f"line {lineno}: invalid JSON (nested too deeply)") from None
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
        yield row, w


def _read_blocks(
    source, fmt: str = "csv", num_vars: int | None = None, rows: int | None = _READ_BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A measure file's (atoms, weights) blocks, read once and in order.

    Every block but the last has ``rows`` rows; None reads the whole file
    as one block.  The rules and messages are ``load_measure``'s, and a
    block is only yielded once its rows have passed them, so a fault on a
    later line is raised after the blocks before it.  Raises
    MeasureFormatError("no atoms in input") when the file has no rows.
    """
    with _open_text(source) as text_file:
        if fmt == "csv":
            blocks = _csv_blocks(text_file, num_vars, rows)
        elif fmt == "jsonl":
            blocks = _line_blocks(_jsonl_rows(text_file, num_vars), rows)
        else:
            raise MeasureFormatError(f"unknown format {fmt!r} (expected csv or jsonl)")
        empty = True
        for block in blocks:
            empty = False
            yield block
            del block
    if empty:
        raise MeasureFormatError("no atoms in input")


def _views(measure: "DiscreteMeasure") -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """An in-memory measure's (atoms, weights) as views of ``_READ_BLOCK``
    rows, in order: the blocks ``_read_blocks`` gives for its file."""
    for start in range(0, measure.num_atoms, _READ_BLOCK):
        stop = start + _READ_BLOCK
        yield measure.atoms[start:stop], measure.weights[start:stop]


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
    path taken.  This is the reader of the CLI's passes with no row limit.

    The measure owns the arrays the parse produced: the array that
    ``np.loadtxt`` returned (atoms and weights are views of it), or the
    line parsers' flat buffers.  Nothing is copied, so the peak is about
    1.2 times the measure's own bytes for a path, bytes or a binary file
    object; a text file object's str is encoded first, which costs about
    twice the text.  Both arrays are read-only.
    """
    (block,) = _read_blocks(source, fmt, num_vars, rows=None)
    return _owned_measure(*block)


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


class _MomentSums:
    """Weighted feature sums over blocks of atoms fed in index order.

    ``add`` takes a block's atoms and weights and builds their feature
    columns 4,096 atoms at a time; each sub-block's columns are weighted in
    place, summed per feature and dropped, and the sums go through a
    Neumaier update.  When every block but the last has a multiple of 4,096
    rows, the sums are those of one pass over the whole measure, bit for
    bit.  ``count`` is the number of atoms so far, and a dictionary's
    errors name atoms by it.  The exact sum of the weights is kept as well
    (``_mass_units``).

    A moment that overflows the float range raises ValueError after the
    block in which it does, so a pass stops as soon as it is known.
    """

    def __init__(self, features: Features):
        dim = feature_count(features)
        self.features = features
        self.total = np.zeros(dim)
        self.comp = np.zeros(dim)
        self.count = 0
        self._mass_units = 0

    def add(self, atoms: np.ndarray, weights: np.ndarray):
        m = weights.shape[0]
        # Overflow shows as inf (or inf - inf = nan) in the sums, checked below.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, m, _ATOM_BLOCK):
                stop = min(start + _ATOM_BLOCK, m)
                # A fresh array for both feature kinds, so weighting it in
                # place touches nothing shared.
                block = _feature_block(self.features, atoms[start:stop], self.count + start)
                block *= weights[start:stop]
                self.total, self.comp = _compensated_accumulate(
                    self.total, self.comp, block.sum(axis=1)
                )
                del block  # freed before the next block is built
                self._mass_units += _mass_units(weights[start:stop])
        self._refuse_overflow(self.total)
        self.count += m

    def moments(self) -> np.ndarray:
        """The moment vector so far, read-only."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.total + self.comp
        self._refuse_overflow(values)
        values.setflags(write=False)
        return values

    @property
    def mass(self) -> float:
        """The correctly rounded sum of the weights so far."""
        return _mass_value(self._mass_units)

    def _refuse_overflow(self, values: np.ndarray):
        bad = ~np.isfinite(values)
        if bad.any():
            j = int(bad.argmax())
            if isinstance(self.features, MonomialBasis):
                name = f'moment "{",".join(map(str, self.features.indices[j]))}"'
            else:
                name = f"moment {j}"
            raise ValueError(f"{name} of the measure overflows the float range")


def moment_vector(measure: DiscreteMeasure, features: Features) -> np.ndarray:
    """Weighted feature sums over all atoms, compensated per feature.

    Entry j is sum_a w_a * phi_j(x_a), returned as a read-only float64
    array of length D.  Atoms are taken in blocks of 4,096 in index order;
    each block's D x 4,096 feature columns are weighted in place, summed
    per feature, and dropped before the next block is built, so a pass
    needs O(D * 4,096) extra memory and reruns are bit-identical.  The
    block sums are combined by a Neumaier update.  This is ``_MomentSums``
    fed by ``_views``, the accumulator that the CLI feeds from a file.

    Raises ValueError naming the first moment that is not finite, that is,
    whose sum overflows the float range: no cubature can be checked
    against it.
    """
    sums = _MomentSums(features)
    for atoms, weights in _views(measure):
        sums.add(atoms, weights)
    return sums.moments()
