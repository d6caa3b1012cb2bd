"""Convex membership decisions for moment vectors.

Whether a target vector lies in the cone (or convex hull) of a finite set
of embedded points is decided by a phase-1 simplex over the nonnegative
representation weights, with Bland's rule for anti-cycling and a hard
iteration cap.  Answers are certified: a Feasible result carries weights
that are re-verified against the columns, an Infeasible result carries a
separating functional that is re-verified against every column, and
anything that cannot be certified is reported as Indeterminate rather
than coerced.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import MonomialBasis, MultiIndex, basis_from_config, build_basis, embed_block
from .measure import DiscreteMeasure, _is_json_number

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
    """Outcome of a membership query; weights and certificate are exclusive."""

    status: FeasibilityStatus
    weights: np.ndarray | None = None
    certificate: SeparatingFunctional | None = None

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

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "weights": None if self.weights is None else self.weights.tolist(),
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
        }


def _phase1_simplex(A: np.ndarray, b: np.ndarray, max_iterations: int):
    """min sum(artificials) over {A W + s = b, W >= 0, s >= 0}.

    Rows are assumed sign-normalized so b >= 0.  Returns
    (outcome, basis, objective, dual) where outcome is "optimal" or
    "iteration_limit", basis holds the final basic variable indices
    (structural < M, artificial >= M), and dual is the phase-1 dual vector.
    """
    d, m = A.shape
    tableau = np.empty((d, m + d))
    tableau[:, :m] = A
    tableau[:, m:] = np.eye(d)
    rhs = b.astype(float, copy=True)
    basis = np.arange(m, m + d)
    reduced = np.concatenate([-A.sum(axis=0), np.zeros(d)])

    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    tol_enter = 64.0 * _EPS * max(1.0, float(np.abs(reduced).max(initial=0.0)))
    tol_pivot = 1e-11 * scale

    def finish(outcome):
        # Phase-1 value is the total mass still carried by basic artificials.
        objective = float(rhs[basis >= m].sum())
        return outcome, basis, objective, 1.0 - reduced[m:]

    for _ in range(max_iterations):
        entering = np.flatnonzero(reduced < -tol_enter)
        if entering.size == 0:
            return finish("optimal")
        j = int(entering[0])  # Bland: smallest variable index
        col = tableau[:, j]
        rows = np.flatnonzero(col > tol_pivot)
        if rows.size == 0:
            # Phase-1 objective is bounded below by zero, so an unbounded
            # ray can only be numerical noise; give up explicitly.
            return finish("iteration_limit")
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        tie = rows[ratios == best]
        i = int(tie[np.argmin(basis[tie])])  # Bland: smallest basic index

        pivot = tableau[i, j]
        pivot_row = tableau[i] / pivot
        pivot_rhs = rhs[i] / pivot
        coef = tableau[:, j].copy()
        coef[i] = 0.0
        tableau -= np.outer(coef, pivot_row)
        rhs -= coef * pivot_rhs
        tableau[i] = pivot_row
        rhs[i] = pivot_rhs
        np.maximum(rhs, 0.0, out=rhs)
        reduced = reduced - reduced[j] * pivot_row
        reduced[j] = 0.0
        basis[i] = j

    return finish("iteration_limit")


def _decide_membership(
    target: np.ndarray,
    columns: np.ndarray,
    feas_tol: float,
    cert_tol: float,
    max_iterations: int | None,
):
    """Certified membership of target in cone(columns).

    Returns (status, weights, functional) where the functional is the raw
    vector l with l . columns <= 0 and l . target > 0, unit max-abs norm.
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

    outcome, basis, objective, dual = _phase1_simplex(a_eq, b_eq, max_iterations)
    target_norm = float(np.abs(target).max(initial=0.0))

    if outcome == "optimal" and objective <= feas_tol * (1.0 + float(np.abs(b_eq).max())):
        structural = basis[basis < m]
        weights = np.zeros(m)
        if structural.size:
            solution, *_ = np.linalg.lstsq(a_eq[:, structural], b_eq, rcond=None)
            weights[structural] = np.maximum(solution, 0.0)
        residual = float(np.abs(columns @ weights - target).max())
        if residual <= feas_tol * (1.0 + target_norm):
            return FeasibilityStatus.FEASIBLE, weights, None
        return FeasibilityStatus.INDETERMINATE, None, None

    if outcome == "optimal":
        functional = flip * dual / row_scale
        peak = float(np.abs(functional).max(initial=0.0))
        if peak > 0.0:
            functional = functional / peak
            if (columns.T @ functional).max() <= cert_tol and functional @ target > cert_tol:
                return FeasibilityStatus.INFEASIBLE, None, functional
        return FeasibilityStatus.INDETERMINATE, None, None

    return FeasibilityStatus.INDETERMINATE, None, None


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

    Feasible results carry a basic solution with support at most D;
    Infeasible results carry a homogeneous separating functional (offset 0).
    """
    target = _as_target(moments)
    cols = _as_columns(columns, target.shape[0])
    status, weights, functional = _decide_membership(
        target, cols, feas_tol, cert_tol, max_iterations
    )
    if status is FeasibilityStatus.FEASIBLE:
        return FeasibilityResult(status=status, weights=weights)
    if status is FeasibilityStatus.INFEASIBLE:
        return FeasibilityResult(
            status=status,
            certificate=SeparatingFunctional(normal=functional, offset=0.0),
        )
    return FeasibilityResult(status=status)


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
    status, weights, functional = _decide_membership(
        augmented_target, augmented_cols, feas_tol, cert_tol, max_iterations
    )
    if status is FeasibilityStatus.FEASIBLE:
        return FeasibilityResult(status=status, weights=weights)
    if status is FeasibilityStatus.INFEASIBLE:
        return FeasibilityResult(
            status=status,
            certificate=SeparatingFunctional(
                normal=functional[:-1], offset=-float(functional[-1])
            ),
        )
    return FeasibilityResult(status=status)


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
    """Read a moment file: {"basis": {...}, "moments": {"2,0": value, ...}}."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
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
