"""Convex membership decisions for moment vectors.

Whether a target vector lies in the cone (or convex hull) of a finite set
of embedded points is the cone-membership form of Tchakaloff's theorem.
It is decided by one Lawson-Hanson non-negative least-squares solve on
the row-equilibrated system, with a hard cap on its outer iterations.  A
zero residual gives the representing weights, thinned to at most D
points by recombination's kernel; a nonzero optimal residual r has
A^T r <= 0 and b . r = |r|^2 > 0, so r is itself a Farkas separating
functional.  Answers are certified: a Feasible result carries weights
that are re-verified against the columns, an Infeasible result carries a
separating functional that is re-verified against every column, and
anything that cannot be certified is reported as Indeterminate, with the
reason, rather than coerced.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import MonomialBasis, MultiIndex, basis_from_config, build_basis, embed_block
from .measure import DiscreteMeasure, _is_json_number
from .recomb import _sweep

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_CERT_TOL = 1e-9
_EPS = np.finfo(float).eps


class FeasibilityStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SeparatingFunctional:
    """A linear functional with l . y <= offset on the set but l . E > offset."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float).reshape(-1)
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    def margin(self, point: np.ndarray) -> float:
        return float(self.normal @ np.asarray(point, dtype=float) - self.offset)

    def is_valid(self, columns: np.ndarray, point: np.ndarray, tol: float) -> bool:
        side = self.normal @ np.asarray(columns, dtype=float) - self.offset
        return bool(side.max() <= tol and self.margin(point) > tol)

    def to_dict(self) -> dict:
        return {"normal": self.normal.tolist(), "offset": self.offset}


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a membership query; weights and certificate are exclusive.

    ``iterations`` counts the NNLS outer iterations.  ``reason`` says why a
    result is Indeterminate: ``iteration_limit`` (the cap was reached),
    ``residual_check`` (the witness failed its re-check) or
    ``certificate_check`` (the separating functional failed its re-check).
    """

    status: FeasibilityStatus
    weights: np.ndarray | None = None
    certificate: SeparatingFunctional | None = None
    iterations: int = 0
    reason: str | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
        if self.status is FeasibilityStatus.FEASIBLE and self.weights is None:
            raise ValueError("feasible result requires weights")
        if self.status is FeasibilityStatus.INFEASIBLE and self.certificate is None:
            raise ValueError("infeasible result requires a certificate")
        if self.weights is not None and self.certificate is not None:
            raise ValueError("weights and certificate are mutually exclusive")
        if (self.reason is not None) != (self.status is FeasibilityStatus.INDETERMINATE):
            raise ValueError("a reason is given exactly for indeterminate results")

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "weights": None if self.weights is None else self.weights.tolist(),
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "iterations": self.iterations,
            "reason": self.reason,
        }


def _nnls(A: np.ndarray, b: np.ndarray, max_iterations: int):
    """Lawson-Hanson non-negative least squares: min |A x - b| over x >= 0.

    Returns (x, residual b - A x, outer iterations, converged).  The loop
    stops when no column outside the passive set has gradient A^T r above
    eps times the largest column 1-norm, when every such column would
    enter with a least-squares weight <= 0 (Lawson & Hanson's safeguard,
    1974, ch. 23), or when an outer iteration fails to lower |r|, which
    it always does in exact arithmetic; ``converged`` is False when
    ``max_iterations`` outer iterations pass without any of these.
    """
    m = A.shape[1]
    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    r = b.astype(float, copy=True)
    tol = _EPS * float(np.abs(A).sum(axis=0).max(initial=0.0))

    def solve(mask):
        z = np.zeros(m)
        z[mask], *_ = np.linalg.lstsq(A[:, mask], b, rcond=None)
        return z

    for iteration in range(1, max_iterations + 1):
        grad = A.T @ r
        grad[passive] = -np.inf
        while True:
            t = int(np.argmax(grad))
            if grad[t] <= tol:
                return x, r, iteration, True
            passive[t] = True
            z = solve(passive)
            if z[t] > 0.0:
                break
            # Rounding alone made column t look improving; skip it this round.
            passive[t] = False
            grad[t] = -np.inf
        # Step back along x -> z until every passive weight is positive.
        y = x
        while (z[passive] <= 0.0).any():
            shrink = passive & (z <= 0.0)
            alpha = np.min(y[shrink] / (y[shrink] - z[shrink]))
            y = y + alpha * (z - y)
            passive &= y > 0.0
            passive[np.flatnonzero(shrink)[np.argmin(y[shrink])]] = False
            y[~passive] = 0.0
            z = solve(passive)
        r_next = b - A @ z
        if r_next @ r_next >= r @ r:
            # In exact arithmetic every outer iteration lowers |r|, so one
            # that does not has reached rounding level; without this stop
            # degenerate grids cycle through the same few columns.
            return x, r, iteration, True
        x, r = z, r_next
    return x, r, max_iterations, False


def _decide_membership(
    target: np.ndarray,
    columns: np.ndarray,
    feas_tol: float,
    cert_tol: float,
    max_iterations: int | None,
):
    """Certified membership of target in cone(columns).

    One Lawson-Hanson NNLS solve on the row-equilibrated, sign-flipped
    system answers both ways.  A zero residual gives the witness; its
    support is then thinned by recombination's kernel to independent
    columns, so at most D of them, and the witness is re-checked in the
    original coordinates.  A nonzero optimal residual r has A^T r <= 0 and
    b . r = |r|^2 > 0, so r, mapped back to the original rows, is itself a
    Farkas functional; it is re-checked against every column.  Anything
    that passes neither re-check is Indeterminate.

    Returns (status, weights, functional, iterations, reason) where the
    functional is the raw vector l with l . columns <= 0 and l . target > 0,
    unit max-abs norm, and reason says why a result is Indeterminate.
    """
    d, m = columns.shape
    if max_iterations is None:
        max_iterations = 50 * (d + m)

    # Row equilibration: scale each constraint to unit magnitude, then flip
    # signs so the right-hand side is nonnegative.
    row_mag = np.maximum(np.abs(columns).max(axis=1, initial=0.0), np.abs(target))
    row_scale = np.where(row_mag > 0.0, row_mag, 1.0)
    a_eq = columns / row_scale[:, None]
    b_eq = target / row_scale
    flip = np.where(b_eq < 0.0, -1.0, 1.0)
    a_eq = a_eq * flip[:, None]
    b_eq = b_eq * flip

    x, r, iterations, converged = _nnls(a_eq, b_eq, max_iterations)
    if not converged:
        return FeasibilityStatus.INDETERMINATE, None, None, iterations, "iteration_limit"

    support = np.flatnonzero(x > 0.0)
    weights = np.zeros(m)
    if support.size:
        kept, kept_weights, _, _ = _sweep(a_eq[:, support], x[support], False)
        weights[support[kept]] = kept_weights
    residual = float(np.abs(columns @ weights - target).max(initial=0.0))
    if residual <= feas_tol * (1.0 + float(np.abs(target).max(initial=0.0))):
        return FeasibilityStatus.FEASIBLE, weights, None, iterations, None

    functional = flip * r / row_scale
    peak = float(np.abs(functional).max(initial=0.0))
    if peak > 0.0:
        functional = functional / peak
        if (columns.T @ functional).max() <= cert_tol and functional @ target > cert_tol:
            return FeasibilityStatus.INFEASIBLE, None, functional, iterations, None
    # The solver's own margin b . r (|r|^2 at the optimum) says which answer
    # it pointed to: too small to separate means the witness failed.
    reason = "certificate_check" if float(b_eq @ r) > cert_tol else "residual_check"
    return FeasibilityStatus.INDETERMINATE, None, None, iterations, reason


def _as_target(moments) -> np.ndarray:
    values = getattr(moments, "values", moments)
    target = np.asarray(values, dtype=float).reshape(-1)
    if not np.isfinite(target).all():
        raise ValueError("moment vector must be finite")
    return target


def _as_columns(columns, dim: int) -> np.ndarray:
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 2 or cols.shape[0] != dim:
        raise ValueError(
            f"expected a ({dim}, M) column matrix, got shape {cols.shape}"
        )
    if not np.isfinite(cols).all():
        raise ValueError("feature columns must be finite")
    return cols


def cone_membership(
    moments,
    columns,
    feas_tol: float = DEFAULT_FEAS_TOL,
    cert_tol: float = DEFAULT_CERT_TOL,
    max_iterations: int | None = None,
) -> FeasibilityResult:
    """Decide whether the moment vector is a nonnegative combination of columns.

    Feasible results carry weights with support at most D;
    Infeasible results carry a homogeneous separating functional (offset 0).
    """
    target = _as_target(moments)
    cols = _as_columns(columns, target.shape[0])
    status, weights, functional, iterations, reason = _decide_membership(
        target, cols, feas_tol, cert_tol, max_iterations
    )
    certificate = None
    if functional is not None:
        certificate = SeparatingFunctional(normal=functional, offset=0.0)
    return FeasibilityResult(status, weights, certificate, iterations, reason)


def hull_membership(
    moments,
    columns,
    feas_tol: float = DEFAULT_FEAS_TOL,
    cert_tol: float = DEFAULT_CERT_TOL,
    max_iterations: int | None = None,
) -> FeasibilityResult:
    """Cone membership with the extra constraint that the weights sum to 1.

    The target must be normalized so its constant-feature entry (entry 0)
    equals 1; callers divide by total mass first.
    """
    target = _as_target(moments)
    if abs(target[0] - 1.0) > 1e-12:
        raise ValueError(
            f"hull membership requires a normalized target (entry 0 == 1), got {target[0]!r}"
        )
    cols = _as_columns(columns, target.shape[0])
    augmented_cols = np.vstack([cols, np.ones(cols.shape[1])])
    augmented_target = np.append(target, 1.0)
    status, weights, functional, iterations, reason = _decide_membership(
        augmented_target, augmented_cols, feas_tol, cert_tol, max_iterations
    )
    certificate = None
    if functional is not None:
        certificate = SeparatingFunctional(
            normal=functional[:-1], offset=-float(functional[-1])
        )
    return FeasibilityResult(status, weights, certificate, iterations, reason)


def truncated_moment_feasible(
    moment_values: dict[MultiIndex, float],
    grid,
    num_vars: int,
    degree_weights,
    max_degree: int,
    feas_tol: float = DEFAULT_FEAS_TOL,
    cert_tol: float = DEFAULT_CERT_TOL,
    max_iterations: int | None = None,
) -> tuple[FeasibilityResult, DiscreteMeasure | None]:
    """Is the prescribed moment list realized by a measure on the grid?

    ``moment_values`` maps every exponent tuple of the weighted-degree
    basis to its prescribed moment (the constant entry is the total mass,
    which must be positive).  Membership is decided for the normalized
    moments in the convex hull of the embedded grid; on success the witness
    is returned as a measure on at most D grid points that reproduces the
    unnormalized moments.
    """
    basis = build_basis(num_vars, degree_weights, max_degree)
    expected = set(basis.indices)
    provided = {tuple(int(e) for e in key) for key in moment_values}
    missing = expected - provided
    extra = provided - expected
    if missing:
        raise ValueError(f"missing moment keys: {sorted(missing)[:5]}")
    if extra:
        raise ValueError(f"unexpected moment keys: {sorted(extra)[:5]}")

    values = {tuple(int(e) for e in k): float(v) for k, v in moment_values.items()}
    mass = values[(0,) * num_vars]
    if not np.isfinite(mass) or mass <= 0.0:
        raise ValueError(f"total mass (constant moment) must be positive, got {mass}")

    if isinstance(grid, DiscreteMeasure):
        points = grid.atoms
    else:
        points = np.atleast_2d(np.asarray(grid, dtype=float))
    if points.size == 0:
        raise ValueError("candidate support grid is empty")
    if points.shape[1] != num_vars:
        raise ValueError(
            f"grid points have {points.shape[1]} coordinates, expected {num_vars}"
        )
    if not np.isfinite(points).all():
        raise ValueError("grid points must be finite")

    target = np.array([values[a] for a in basis.indices]) / mass
    columns = embed_block(basis, points)
    result = hull_membership(target, columns, feas_tol, cert_tol, max_iterations)
    if result.status is not FeasibilityStatus.FEASIBLE:
        return result, None

    support = np.flatnonzero(result.weights > 0.0)
    witness = DiscreteMeasure(
        atoms=points[support], weights=result.weights[support] * mass
    )
    return result, witness


def moment_key(exponents: MultiIndex) -> str:
    """Stringified exponent tuple used in moment files, e.g. '2,0'."""
    return ",".join(str(int(e)) for e in exponents)


def parse_moment_key(key: str) -> MultiIndex:
    try:
        return tuple(int(part) for part in key.split(","))
    except ValueError:
        raise ValueError(f"bad moment key {key!r}; expected e.g. '2,0'") from None


def moments_to_dict(basis: MonomialBasis, values) -> dict:
    """Serializable moment file content: basis block plus keyed moments."""
    vals = np.asarray(getattr(values, "values", values), dtype=float).reshape(-1)
    if vals.shape[0] != basis.dimension:
        raise ValueError(
            f"{vals.shape[0]} moment values for a basis of dimension {basis.dimension}"
        )
    return {
        "basis": basis.to_config(),
        "moments": {moment_key(a): float(v) for a, v in zip(basis.indices, vals)},
    }


def load_moment_file(source) -> tuple[MonomialBasis, dict[MultiIndex, float]]:
    """Read a moment file: {"basis": {...}, "moments": {"2,0": value, ...}}.

    A path is read as UTF-8; a leading byte-order mark is accepted.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    else:
        data = json.load(source)
    if not isinstance(data, dict) or "basis" not in data or "moments" not in data:
        raise ValueError('moment file needs "basis" and "moments" entries')
    basis = basis_from_config(data["basis"])
    moments = data["moments"]
    if not isinstance(moments, dict) or not all(map(_is_json_number, moments.values())):
        raise ValueError('"moments" must be an object mapping moment keys to numbers')
    return basis, {parse_moment_key(k): float(v) for k, v in moments.items()}
