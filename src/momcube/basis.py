"""Weighted-degree monomial bases and the polynomial point embedding.

A degree function assigns a positive integer degree ``k_i`` to each of the
``N`` coordinates.  The basis collects every monomial whose weighted degree
``sum(k_i * alpha_i)`` is at most ``m``, ordered by weighted degree and then
lexicographically by exponent tuple, so that index 0 is always the constant
monomial and every build is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MultiIndex = tuple[int, ...]

DEFAULT_DIMENSION_CAP = 1_000_000


class BasisError(ValueError):
    """Invalid basis specification (bad dimensions, weights, or size cap)."""


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is an int in Python but not here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_positive_int(value, name: str) -> int:
    if not _is_integer(value):
        raise BasisError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise BasisError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class DegreeFunction:
    """Positive integer degree assigned to each coordinate variable."""

    num_vars: int
    weights: tuple[int, ...]

    def __post_init__(self):
        n = _check_positive_int(self.num_vars, "num_vars")
        if len(self.weights) != n:
            raise BasisError(
                f"expected {n} degree weights, got {len(self.weights)}"
            )
        ws = tuple(_check_positive_int(w, "degree weight") for w in self.weights)
        object.__setattr__(self, "num_vars", n)
        object.__setattr__(self, "weights", ws)

    def weighted_degree(self, exponents: MultiIndex) -> int:
        return sum(k * a for k, a in zip(self.weights, exponents))


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of weighted degree <= max_degree, in graded-lex order.

    ``indices[j]`` is the exponent tuple of basis entry ``j``.  The private
    recurrence table maps each non-constant entry to (position of the entry
    one exponent lower, coordinate to multiply by); it is what makes
    embedding evaluation one multiplication per entry.
    """

    degree_fn: DegreeFunction
    max_degree: int
    indices: tuple[MultiIndex, ...]
    _recurrence: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @property
    def num_vars(self) -> int:
        return self.degree_fn.num_vars

    @property
    def identifier(self) -> str:
        ks = ",".join(str(k) for k in self.degree_fn.weights)
        return f"monomial:n={self.num_vars}:k={ks}:m={self.max_degree}"

    def to_config(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "degree_weights": list(self.degree_fn.weights),
            "max_degree": self.max_degree,
        }


def _count_indices(weights: tuple[int, ...], m: int, cap: int) -> tuple[int, dict[int, int]]:
    """``(total, counts)``: the number of exponent tuples with weighted
    degree <= m, or a number above ``cap`` as soon as there are more than
    that, and the number of each degree that has any (partial past ``cap``).

    ``counts`` holds the tuples over the coordinates seen so far by exact
    degree; a coordinate of weight k adds a * k to each of them, a >= 1.
    Every inner step adds at least one tuple, so the work stays below
    cap + N steps whatever m and the weights are.
    """
    counts = {0: 1}
    total = 1
    for k in weights:
        for d, c in list(counts.items()):
            for e in range(d + k, m + 1, k):
                counts[e] = counts.get(e, 0) + c
                total += c
                if total > cap:
                    return total, counts
    return total, counts


def _check_size(entries: int, num_vars: int, cap: int):
    """BasisError when ``entries`` exponent tuples, each of ``num_vars``
    integers, pass ``cap`` entries or ``32 * cap`` integers in all."""
    if entries > cap:
        raise BasisError(f"basis dimension exceeds the cap of {cap} entries")
    if entries * num_vars > 32 * cap:
        raise BasisError(
            f"basis of {num_vars} coordinates exceeds the cap of {32 * cap} "
            "exponent cells (entries times coordinates)"
        )


def _enumerate_indices(
    weights: tuple[int, ...], m: int, cap: int
) -> tuple[list[MultiIndex], list[tuple[int, int]]]:
    """``(indices, recurrence)``: all exponent tuples with weighted degree
    <= m in graded-lex order, and for each after the constant (position of
    the tuple one unit lower at its first nonzero coordinate i, i).

    BasisError past ``cap`` entries or ``32 * cap`` exponent cells (entries
    times N), before any tuple is built.  Each counted degree d is built in
    ascending order, without recursion: for i from N - 1 down to 0, each
    tuple of degree d - k_i whose first nonzero coordinate is i or later (N
    for the constant) gains one unit at i.  Those tuples are a prefix of
    their layer, and the results come out in lexicographic order.
    """
    n = len(weights)
    total, counts = _count_indices(weights, m, min(cap, 32 * cap // n))
    _check_size(total, n, cap)
    indices: list[MultiIndex] = [(0,) * n]
    recurrence: list[tuple[int, int]] = []
    # Each built degree: the position of its first tuple, and the first
    # nonzero coordinate of each of its tuples, non-increasing.
    layers = {0: (0, [n])}
    for d in sorted(counts)[1:]:
        start, firsts = len(indices), []
        for i in range(n - 1, -1, -1):
            lower_start, lower_firsts = layers.get(d - weights[i], (0, ()))
            for p, first in enumerate(lower_firsts, lower_start):
                if first < i:
                    break
                a = indices[p]
                indices.append(a[:i] + (a[i] + 1,) + a[i + 1:])
                recurrence.append((p, i))
                firsts.append(i)
        layers[d] = start, firsts
    return indices, recurrence


def build_basis(num_vars: int, weights, max_degree: int) -> MonomialBasis:
    """Build the complete weighted-degree monomial basis.

    Args:
        num_vars: number of coordinates N, at least 1.
        weights: N positive integer degree weights; None means all ones.
        max_degree: the degree bound m, at least 0.

    Returns:
        MonomialBasis with deterministic graded-lex ordering, constant first.

    Raises BasisError on an argument of the wrong type or value, past
    DEFAULT_DIMENSION_CAP entries, and past 32 times that many exponent
    cells (entries times N), each entry holding N integers.  With unit
    weights (None) the basis has at least 1 entry, and N + 1 at m >= 1, so
    an N too large for that is refused before its weights are built.
    """
    n = _check_positive_int(num_vars, "num_vars")
    if not _is_integer(max_degree):
        raise BasisError(f"max_degree must be an integer, got {max_degree!r}")
    if max_degree < 0:
        raise BasisError(f"max_degree must be >= 0, got {max_degree}")
    m = int(max_degree)
    if weights is None:
        _check_size(n + 1 if m else 1, n, DEFAULT_DIMENSION_CAP)
    try:
        weights = (1,) * n if weights is None else tuple(weights)
    except TypeError:
        raise BasisError(f"degree weights must be a list, got {weights!r}") from None
    degree_fn = DegreeFunction(n, weights)

    indices, recurrence = _enumerate_indices(degree_fn.weights, m, DEFAULT_DIMENSION_CAP)
    return MonomialBasis(
        degree_fn=degree_fn,
        max_degree=m,
        indices=tuple(indices),
        _recurrence=tuple(recurrence),
    )


def basis_from_config(config: dict) -> MonomialBasis:
    """Build a basis from its JSON config block.

    Expected keys: "num_vars", "max_degree", optional "degree_weights"
    (defaults to all ones).
    """
    if not isinstance(config, dict):
        raise BasisError(f"basis config must be an object, got {type(config).__name__}")
    try:
        num_vars = config["num_vars"]
        max_degree = config["max_degree"]
    except KeyError as exc:
        raise BasisError(f"basis config is missing key {exc}") from None
    weights = config.get("degree_weights")
    return build_basis(num_vars, weights, max_degree)


def _validate_points(basis: MonomialBasis, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2 or pts.shape[1] != basis.num_vars:
        raise BasisError(
            f"expected points with {basis.num_vars} coordinates, got shape {pts.shape}"
        )
    if not np.isfinite(pts).all():
        raise BasisError("points must have finite coordinates")
    return pts


def embed_block(basis: MonomialBasis, points) -> np.ndarray:
    """Evaluate every basis monomial at a block of points.

    Returns a (dimension, num_points) array whose column a is the embedding
    of point a.  Entry j is built from an already-computed lower-degree entry
    times one coordinate, so the whole block costs one multiplication per
    matrix cell.
    """
    pts = _validate_points(basis, points)
    return _embed_into(np.empty((basis.dimension, pts.shape[0])), basis, pts)


def _embed_into(out: np.ndarray, basis: MonomialBasis, pts: np.ndarray) -> np.ndarray:
    """``embed_block`` of the (num_points, N) array ``pts``, unchecked,
    written into the (dimension, num_points) array ``out``, which is returned.

    Each column depends on its own point alone, so a point's column is the
    same bits whichever block it is embedded in.
    """
    coords = np.ascontiguousarray(pts.T)
    out[0] = 1.0
    for j, (parent, coord) in enumerate(basis._recurrence, start=1):
        np.multiply(out[parent], coords[coord], out=out[j])
    return out
