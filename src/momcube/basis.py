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


def _count_indices(weights: tuple[int, ...], m: int, cap: int) -> int:
    """Number of exponent tuples with weighted degree <= m, or a number
    above ``cap`` as soon as there are more than that.

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
                    return total
    return total


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
) -> list[tuple[MultiIndex, int]]:
    """All exponent tuples with weighted degree <= m in graded-lex order,
    each with its first nonzero coordinate (0 for the constant).

    BasisError past ``cap`` entries or ``32 * cap`` exponent cells (entries
    times N), before any tuple is built.  The tuples are visited in
    lexicographic order without recursion, as an odometer: the next tuple
    adds one unit to the last coordinate that can take it once every later
    coordinate is 0.  Each goes to its degree's list, and the lists in
    degree order are the graded-lex order, with no sort.
    """
    n = len(weights)
    _check_size(_count_indices(weights, m, min(cap, 32 * cap // n)), n, cap)
    suffix_min = list(weights)  # the least weight from each coordinate on
    for j in range(n - 2, -1, -1):
        suffix_min[j] = min(suffix_min[j], suffix_min[j + 1])
    by_degree: dict[int, list[tuple[MultiIndex, int]]] = {}
    alpha = [0] * n
    nonzero: list[int] = []  # coordinates with a nonzero exponent, ascending
    degree = 0
    while True:
        by_degree.setdefault(degree, []).append((tuple(alpha), nonzero[0] if nonzero else 0))
        # Coordinates after the last nonzero one are 0, so a unit fits at j
        # (not before that one) when weights[j] <= m - degree.
        last = nonzero[-1] if nonzero else 0
        j = n - 1 if suffix_min[last] <= m - degree else -1
        while j >= last and weights[j] > m - degree:
            j -= 1
        while j < last:
            if not nonzero:
                return [entry for d in sorted(by_degree) for entry in by_degree[d]]
            # Nothing fits from ``last`` on: zero it, and find the last
            # coordinate before it that takes a unit.
            p = nonzero.pop()
            degree -= weights[p] * alpha[p]
            alpha[p] = 0
            last = nonzero[-1] if nonzero else 0
            j = p - 1
            while j >= last and weights[j] > m - degree:
                j -= 1
        if not alpha[j]:
            nonzero.append(j)
        alpha[j] += 1
        degree += weights[j]


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

    entries = _enumerate_indices(degree_fn.weights, m, DEFAULT_DIMENSION_CAP)
    indices = [a for a, _ in entries]
    position = {a: j for j, a in enumerate(indices)}
    recurrence: list[tuple[int, int]] = []
    for a, i in entries[1:]:
        parent = a[:i] + (a[i] - 1,) + a[i + 1:]
        recurrence.append((position[parent], i))

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
