"""Convex membership decisions for moment vectors.

Whether a target vector lies in the cone (or convex hull) of a finite set
of embedded points is the cone-membership form of Tchakaloff's theorem.
It is decided by one Lawson-Hanson non-negative least-squares solve on
the row-equilibrated system, with a hard cap on its outer iterations.
That system is the one D x M array a query allocates: a grid is embedded
straight into it and a caller's columns are copied into it once, it is
equilibrated in place, and the re-checks after the solve read columns
again (a grid's by embedding its points afresh) rather than keep a copy.
The solver works on the passive set alone: each trial is one R-only QR
of the passive columns and the target, a column enters only if its
triangle passes the independence test, and the residual is formed from
the passive columns.  That entry test is the only independence decision
made here, so the passive set is always independent, at most D columns.
A stall rule lets one more column enter when the gradient has fallen
below its tolerance but the residual is still far above rounding level,
so ill-conditioned grids do not stop short.  A zero residual makes the
passive set and its weights the witness as they stand; a nonzero
optimal residual r has A^T r <= 0 and b . r = |r|^2 > 0, so r is itself
a Farkas separating functional.  Answers are certified: a Feasible
result carries weights that are re-verified against the columns they
use, an Infeasible result carries a separating functional that is
re-verified against every column, and anything that cannot be certified
is reported as Indeterminate, with the reason, rather than coerced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .basis import (
    MonomialBasis, MultiIndex, _embed_into, _is_integer, basis_from_config, build_basis,
    embed_block,
)
from .measure import (
    _ATOM_BLOCK, DiscreteMeasure, _finite_or_none, _is_json_number, _json_float, _load_json,
)

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_CERT_TOL = 1e-9
_EPS = np.finfo(float).eps
# Lawson & Hanson's column-independence test: a column enters only if its
# part orthogonal to the passive columns exceeds 100 eps times its part
# along them (their NNLS, FACTOR = 0.01).
_INDEPENDENCE = 100.0 * _EPS


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
        return bool(side.max(initial=-np.inf) <= tol and self.margin(point) > tol)

    def to_dict(self) -> dict:
        return {"normal": self.normal.tolist(), "offset": self.offset}


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a membership query; weights and certificate are exclusive.

    ``iterations`` counts the NNLS outer iterations.  ``reason`` says why a
    result is Indeterminate: ``iteration_limit`` (the cap was reached),
    ``residual_check`` (the witness failed its re-check) or
    ``certificate_check`` (the separating functional failed its re-check).
    ``residual`` is the re-checked maximum moment error of the witness
    (the mass row included for hull queries) in the caller's coordinates,
    or None when the cap stopped the solve first.  ``margin`` is the
    certificate's l . target - offset, or None when there is no certificate.
    """

    status: FeasibilityStatus
    weights: np.ndarray | None = None
    certificate: SeparatingFunctional | None = None
    iterations: int = 0
    reason: str | None = None
    residual: float | None = None
    margin: float | None = None

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
            "residual": _finite_or_none(self.residual),
            "margin": _finite_or_none(self.margin),
        }


def _nnls(A: np.ndarray, b: np.ndarray, max_iterations: int):
    """Lawson-Hanson non-negative least squares: min |A x - b| over x >= 0.

    Returns (x, residual b - A x, outer iterations, converged).  The
    passive set is an index array in entry order.  Each trial solves its
    least-squares problem from one R-only QR of [A_P, b]: the last column
    of R is Q^T b, so Q is never formed, and the weights come from the
    k x k triangle.  A column is refused entry when its trial weight is
    <= 0 (Lawson & Hanson's safeguard, 1974, ch. 23), when it would make
    more than D passive columns, or when it fails the independence test.
    That test has two parts, and either one refuses the column: Lawson
    and Hanson's |R_kk| <= 100 eps |R_1:k-1,k|, its part orthogonal to the
    passive columns against its part along them, and |R_kk| <= D eps
    max_i |R_ii|, the rank rule of recombination's kernel applied to the
    triangle's diagonal.  Neither part alone keeps every dependent column
    out.  The residual is formed from the passive columns alone, and the
    gradient is r^T A.

    The loop stops when no column can enter: none outside the passive set
    has gradient A^T r above eps times the largest column 1-norm, or every
    such column is refused.  It also stops when an outer iteration fails
    to lower |r|, which it always does in exact arithmetic.  One stall
    rule comes first: if the gradient is below that absolute tolerance
    but |r| > 100 D eps |b|, each column with positive gradient is priced
    at the decrease g_t^2 / |a_t_perp|^2 its entry would buy, a_t_perp
    being its part orthogonal to the passive columns, and the best one
    enters if it would cut |r|^2 by at least a quarter.  ``converged`` is
    False when ``max_iterations`` outer iterations pass without a stop.
    """
    d, m = A.shape
    passive = np.zeros(0, dtype=np.intp)
    w = np.zeros(0)
    r = b.astype(float, copy=True)
    # The largest column 1-norm, summed one row at a time: the additions
    # np.abs(A).sum(axis=0) makes, in its order, with no d x m temporary.
    norms = np.zeros(m)
    row_abs = np.empty(m)
    for row in A:
        norms += np.abs(row, out=row_abs)
    tol = _EPS * float(norms.max(initial=0.0))
    del norms, row_abs
    stall = 100.0 * d * _EPS * float(np.linalg.norm(b))

    def solve(cols, entering=False):
        k = cols.size
        R = np.linalg.qr(np.column_stack([A[:, cols], b]), mode="r")
        if entering:
            diag = np.abs(np.diagonal(R)[:k])
            along = np.linalg.norm(R[: k - 1, k - 1])
            if diag[-1] <= max(_INDEPENDENCE * along, d * _EPS * diag.max()):
                return None
        return np.linalg.solve(R[:k, :k], R[:k, k])

    def result(iterations, converged):
        x = np.zeros(m)
        x[passive] = w
        return x, r, iterations, converged

    for iteration in range(1, max_iterations + 1):
        grad = r @ A
        grad[passive] = -np.inf
        while True:
            t = -1
            if passive.size < d:
                if grad.max(initial=-np.inf) > tol:
                    t = int(np.argmax(grad))
                elif r @ r > stall * stall:
                    t = _stall_entry(A, passive, r, grad)
            if t < 0:
                return result(iteration, True)
            trial = np.append(passive, t)
            z = solve(trial, entering=True)
            if z is not None and z[-1] > 0.0:
                break
            if grad[t] <= tol:
                return result(iteration, True)
            # Rounding alone made column t look improving; skip it this round.
            grad[t] = -np.inf
        # Step back along w -> z until every passive weight is positive.
        y = np.append(w, 0.0)
        while (z <= 0.0).any():
            shrink = z <= 0.0
            alpha = np.min(y[shrink] / (y[shrink] - z[shrink]))
            y = y + alpha * (z - y)
            keep = y > 0.0
            keep[np.flatnonzero(shrink)[np.argmin(y[shrink])]] = False
            trial, y = trial[keep], y[keep]
            z = solve(trial)
        r_next = b - A[:, trial] @ z
        if r_next @ r_next >= r @ r:
            # In exact arithmetic every outer iteration lowers |r|, so one
            # that does not has reached rounding level; without this stop
            # degenerate grids cycle through the same few columns.
            return result(iteration, True)
        passive, w, r = trial, z, r_next
    return result(max_iterations, False)


def _stall_entry(A: np.ndarray, passive: np.ndarray, r: np.ndarray, grad: np.ndarray) -> int:
    """The column whose entry cuts |r|^2 by at least a quarter, else -1.

    r is the least-squares residual of the passive columns, so entering
    column t alone would lower |r|^2 by (r . a_perp)^2 / |a_perp|^2, where
    a_perp is a_t less its projection on the passive columns.  Columns
    whose a_perp fails the independence test are not priced.  On the
    ill-conditioned 20 x 20 tensor grid this is the step that separates a
    residual of 1e-8 from the rounding level.
    """
    candidates = np.flatnonzero(grad > 0.0)
    if candidates.size == 0:
        return -1
    perp = A[:, candidates]
    along2 = np.zeros(candidates.size)
    if passive.size:
        q = np.linalg.qr(A[:, passive])[0]
        along = q.T @ perp
        perp = perp - q @ along
        along2 = np.einsum("ij,ij->j", along, along)
    norm2 = np.einsum("ij,ij->j", perp, perp)
    gain = np.zeros(candidates.size)
    np.divide((r @ perp) ** 2, norm2, out=gain, where=norm2 > _INDEPENDENCE**2 * along2)
    best = int(np.argmax(gain))
    return int(candidates[best]) if gain[best] >= 0.25 * (r @ r) else -1


def _decide_membership(
    target: np.ndarray,
    num_columns: int,
    columns,
    feas_tol: float,
    cert_tol: float,
    max_iterations: int | None,
    hull: bool,
) -> FeasibilityResult:
    """Certified membership of target in the cone of the feature columns, or
    with ``hull`` in their convex hull.

    ``columns(index, out=None)`` gives the raw D x k feature columns at
    ``index``, a slice or an index array of the ``num_columns`` columns,
    written into ``out`` when it is given.  The row-equilibrated system is
    the one D x M array this function allocates: the columns are written
    straight into its first D rows, checked finite and scaled there in
    place, and the hull constraint, a row of ones with right-hand side 1,
    goes below them.  One Lawson-Hanson NNLS solve on that system answers
    both ways, and the system is freed before the re-checks.  A zero
    residual gives the witness: the passive set, whose columns the entry
    test keeps independent, so at most D of them, with its weights.  It is
    re-checked on those columns alone, in the original coordinates.  A
    nonzero optimal residual r has A^T r <= 0 and b . r = |r|^2 > 0, so r,
    mapped back to the original rows, is itself a Farkas functional; it is
    re-checked against every column, ``_ATOM_BLOCK`` columns at a time.
    Anything that passes neither re-check is Indeterminate.
    """
    d = target.shape[0]
    m = num_columns
    if max_iterations is None:
        max_iterations = 50 * (d + hull + m)

    system = np.empty((d + hull, m))
    columns(slice(None), out=system[:d])
    # Row equilibration: scale each constraint to unit magnitude.  A row's
    # magnitude max(max, -min) is its largest |entry| exactly, and inf or
    # nan in a row makes it non-finite.  With no columns there is nothing to
    # equilibrate against; unit scales then make the certificate of a
    # nonzero target the normalized target itself.  (A SIMD max or min over
    # a nan may raise the invalid flag; the check below is what decides.)
    with np.errstate(invalid="ignore"):
        row_mag = np.maximum(
            system[:d].max(axis=1, initial=0.0), -system[:d].min(axis=1, initial=0.0)
        )
    if not np.isfinite(row_mag).all():
        raise ValueError("feature columns must be finite")
    row_mag = np.maximum(row_mag, np.abs(target))
    row_scale = np.where((row_mag > 0.0) & (m > 0), row_mag, 1.0)
    scale = 1.0 / row_scale
    system[:d] *= scale[:, None]
    b_eq = target * scale
    if hull:
        system[d] = 1.0
        scale = np.append(scale, 1.0)
        b_eq = np.append(b_eq, 1.0)

    x, r, iterations, converged = _nnls(system, b_eq, max_iterations)
    del system
    if not converged:
        return FeasibilityResult(
            FeasibilityStatus.INDETERMINATE, iterations=iterations, reason="iteration_limit"
        )

    support = np.flatnonzero(x)
    # Fortran order fixes the product's summation order, so a held matrix
    # (whose column gather numpy returns in that order) and a grid embedded
    # afresh give the same residual bits.
    achieved = np.asfortranarray(columns(support)) @ x[support]
    error = np.abs(achieved - target)
    if hull:
        error = np.append(error, abs(x[support].sum() - 1.0))
    residual = float(error.max(initial=0.0))
    if residual <= feas_tol * (1.0 + float(np.abs(target).max(initial=0.0))):
        return FeasibilityResult(
            FeasibilityStatus.FEASIBLE, x, iterations=iterations, residual=residual
        )

    functional = r * scale
    peak = float(np.abs(functional).max(initial=0.0))
    if peak > 0.0:
        functional = functional / peak
        certificate = SeparatingFunctional(
            normal=functional[:d], offset=-float(functional[d]) if hull else 0.0
        )
        # One block at least, so that with no columns the margin still decides.
        blocks = range(0, max(m, 1), _ATOM_BLOCK)
        if all(
            certificate.is_valid(columns(slice(start, start + _ATOM_BLOCK)), target, cert_tol)
            for start in blocks
        ):
            return FeasibilityResult(
                FeasibilityStatus.INFEASIBLE,
                certificate=certificate,
                iterations=iterations,
                residual=residual,
                margin=certificate.margin(target),
            )
    # The solver's own margin b . r (|r|^2 at the optimum) says which answer
    # it pointed to: too small to separate means the witness failed.
    reason = "certificate_check" if float(b_eq @ r) > cert_tol else "residual_check"
    return FeasibilityResult(
        FeasibilityStatus.INDETERMINATE, iterations=iterations, reason=reason, residual=residual
    )


def _as_target(moments) -> np.ndarray:
    try:
        target = np.asarray(moments, dtype=float).reshape(-1)
    except OverflowError:  # an integer beyond the float range
        target = None
    if target is None or not np.isfinite(target).all():
        raise ValueError("moment vector must be finite")
    return target


def _held_columns(columns, dim: int):
    """``_decide_membership``'s reader of a (dim, M) matrix the caller holds:
    views of it, or copies into ``out``.  Finiteness is checked there."""
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 2 or cols.shape[0] != dim:
        raise ValueError(
            f"expected a ({dim}, M) column matrix, got shape {cols.shape}"
        )

    def read(index, out=None):
        if out is None:
            return cols[:, index]
        out[...] = cols[:, index]
        return out

    return cols.shape[1], read


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
    num_columns, read = _held_columns(columns, target.shape[0])
    return _decide_membership(
        target, num_columns, read, feas_tol, cert_tol, max_iterations, hull=False
    )


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
    num_columns, read = _held_columns(columns, target.shape[0])
    return _decide_membership(
        target, num_columns, read, feas_tol, cert_tol, max_iterations, hull=True
    )


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
    which must be positive).  A key must be a tuple of ints or numpy
    integers; any other (a float, a string, a bool) is a ValueError, not
    truncated.  Membership is decided for the normalized moments in the
    convex hull of the embedded grid; on success the witness is returned as
    a measure on at most D grid points that reproduces the unnormalized
    moments.
    """
    basis = build_basis(num_vars, degree_weights, max_degree)
    expected = set(basis.indices)
    values = {}
    for key, value in moment_values.items():
        if not isinstance(key, tuple) or not all(map(_is_integer, key)):
            raise ValueError(f"moment key {key!r} is not a tuple of integer exponents")
        values[tuple(int(e) for e in key)] = value
    missing = expected - values.keys()
    extra = values.keys() - expected
    if missing:
        raise ValueError(f"missing moment keys: {sorted(missing)[:5]}")
    if extra:
        raise ValueError(f"unexpected moment keys: {sorted(extra)[:5]}")

    values = {key: _json_float(value) for key, value in values.items()}
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

    # Entry 0 is mass / mass, exactly 1, as hull membership requires.  A
    # quotient beyond the float range is inf, which _as_target refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.array([values[a] for a in basis.indices]) / mass
    target = _as_target(scaled)

    def embedded(index, out=None):
        if out is None:
            return embed_block(basis, points[index])
        # Overflow shows as inf (or inf * 0 = nan) in the system, which
        # _decide_membership refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            return _embed_into(out, basis, points[index])

    result = _decide_membership(
        target, points.shape[0], embedded, feas_tol, cert_tol, max_iterations, hull=True
    )
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
    vals = np.asarray(values, dtype=float).reshape(-1)
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

    The source is a path, bytes or a file object, read by the JSON reader
    of config and cubature files (``measure._load_json``).  An integer too
    large for a float reads as +-inf, which the feasibility query refuses.
    Raises ValueError when two keys name the same moment ("1" and "01", or
    "1" twice), since either value could decide the verdict.
    """
    data = _load_json(source)
    if "basis" not in data or "moments" not in data:
        raise ValueError('moment file needs "basis" and "moments" entries')
    basis = basis_from_config(data["basis"])
    moments = data["moments"]
    if not isinstance(moments, dict) or not all(map(_is_json_number, moments.values())):
        raise ValueError('"moments" must be an object mapping moment keys to numbers')
    keys = {}  # moment index -> the key that named it
    for key in moments:
        index = parse_moment_key(key)
        if index in keys:
            raise ValueError(f"moment keys {keys[index]!r} and {key!r} name the same moment")
        keys[index] = key
    return basis, {index: _json_float(moments[key]) for index, key in keys.items()}
