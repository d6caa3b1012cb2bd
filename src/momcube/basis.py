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


def _check_positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
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


def _enumerate_indices(weights: tuple[int, ...], m: int, cap: int) -> list[MultiIndex]:
    """All exponent tuples with weighted degree <= m, aborting past the cap."""
    n = len(weights)
    out: list[MultiIndex] = []
    alpha = [0] * n

    def rec(i: int, budget: int):
        if i == n:
            if len(out) >= cap:
                raise BasisError(
                    f"basis dimension exceeds the cap of {cap} entries"
                )
            out.append(tuple(alpha))
            return
        k = weights[i]
        for a in range(budget // k + 1):
            alpha[i] = a
            rec(i + 1, budget - a * k)
        alpha[i] = 0

    rec(0, m)
    return out


def build_basis(num_vars: int, weights, max_degree: int) -> MonomialBasis:
    """Build the complete weighted-degree monomial basis.

    Args:
        num_vars: number of coordinates N, at least 1.
        weights: N positive integer degree weights; None means all ones.
        max_degree: the degree bound m, at least 0.

    Returns:
        MonomialBasis with deterministic graded-lex ordering, constant first.

    Raises BasisError past DEFAULT_DIMENSION_CAP entries.
    """
    if weights is None:
        weights = [1] * int(num_vars) if num_vars else []
    degree_fn = DegreeFunction(num_vars, tuple(weights))
    if isinstance(max_degree, bool) or not isinstance(max_degree, (int, np.integer)):
        raise BasisError(f"max_degree must be an integer, got {max_degree!r}")
    if max_degree < 0:
        raise BasisError(f"max_degree must be >= 0, got {max_degree}")
    m = int(max_degree)

    indices = _enumerate_indices(degree_fn.weights, m, DEFAULT_DIMENSION_CAP)
    indices.sort(key=lambda a: (degree_fn.weighted_degree(a), a))

    position = {a: j for j, a in enumerate(indices)}
    recurrence: list[tuple[int, int]] = []
    for a in indices[1:]:
        i = next(d for d, e in enumerate(a) if e > 0)
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
    coords = np.ascontiguousarray(pts.T)
    values = np.empty((basis.dimension, pts.shape[0]))
    values[0] = 1.0
    for j, (parent, coord) in enumerate(basis._recurrence, start=1):
        np.multiply(values[parent], coords[coord], out=values[j])
    return values


def evaluate_embedding(basis: MonomialBasis, point) -> np.ndarray:
    """Embedding of a single point: vector of all basis monomials at it."""
    pt = np.asarray(point, dtype=float)
    if pt.ndim == 0 and basis.num_vars == 1:
        pt = pt.reshape(1)
    if pt.ndim != 1 or pt.shape[0] != basis.num_vars:
        raise BasisError(
            f"expected a point with {basis.num_vars} coordinates, got shape {pt.shape}"
        )
    return embed_block(basis, pt.reshape(1, -1))[:, 0]
