"""Carathéodory recombination: thin a discrete measure onto few of its atoms.

The engine repeatedly finds a null vector of the active atoms' feature
columns (rank-revealing QR with column pivoting) and applies a
positivity-preserving pivot that zeroes at least one weight, until the
surviving columns have full rank.  The weighted feature sums are invariant
under every step, so the survivors form a cubature formula: at most D
nodes drawn from the original atoms, strictly positive weights, and the
same moments as the input measure.

Atoms enter a bounded working set in index order (fill, reduce, append
the next chunk), so each elimination refactorizes O(D) columns however
many atoms the measure holds, and the whole reduction is a single
deterministic left-to-right sweep.  The measure itself stays in memory;
only the elimination working set is bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .basis import MonomialBasis, build_basis
from .measure import (
    DiscreteMeasure,
    Features,
    _feature_block,
    feature_count,
    feature_id,
    moment_vector,
)

_EPS = np.finfo(float).eps

# Every elimination refactorizes the whole working set, so a larger window
# only costs time: keep it O(D).
def _working_cap(dim: int) -> int:
    return max(2 * (dim + 1), 64)


@dataclass(frozen=True)
class AffineRescale:
    """Per-coordinate map x -> (x - shift) / scale used for conditioning."""

    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def from_atoms(cls, atoms: np.ndarray) -> "AffineRescale":
        lo = atoms.min(axis=0)
        hi = atoms.max(axis=0)
        shift = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        scale = np.where(half > 0.0, half, 1.0)
        return cls(shift=shift, scale=scale)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return (pts - self.shift) / self.scale

    def to_dict(self) -> dict:
        return {"shift": self.shift.tolist(), "scale": self.scale.tolist()}


@dataclass(frozen=True)
class Cubature:
    """Nodes drawn from a source measure's atoms, with positive weights."""

    node_indices: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    degree: int | None
    basis_id: str

    def __post_init__(self):
        idx = np.asarray(self.node_indices, dtype=np.int64)
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if idx.shape[0] != nodes.shape[0] or idx.shape[0] != weights.shape[0]:
            raise ValueError("node_indices, nodes, and weights must agree in length")
        if idx.shape[0] < 1:
            raise ValueError("a cubature needs at least one node")
        if (weights <= 0.0).any():
            raise ValueError("cubature weights must be strictly positive")
        if len(set(idx.tolist())) != idx.shape[0]:
            raise ValueError("node indices must be distinct")
        for arr in (idx, nodes, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "node_indices", idx)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def num_nodes(self) -> int:
        return self.node_indices.shape[0]

    def to_dict(self, basis_config: dict | None = None) -> dict:
        out = {
            "nodes": self.nodes.tolist(),
            "weights": self.weights.tolist(),
            "degree": self.degree,
            "basis": basis_config,
            "node_indices": self.node_indices.tolist(),
        }
        return out


@dataclass(frozen=True)
class ReductionReport:
    """What the sweep did: sizes, steps, rank, and the achieved residual."""

    initial_atoms: int
    final_atoms: int
    elimination_steps: int
    detected_rank: int
    max_moment_residual_rel: float
    rescaling: dict | None

    def to_dict(self) -> dict:
        return {
            "initial_atoms": self.initial_atoms,
            "final_atoms": self.final_atoms,
            "elimination_steps": self.elimination_steps,
            "detected_rank": self.detected_rank,
            "max_moment_residual_rel": self.max_moment_residual_rel,
            "rescaling": self.rescaling,
        }


def _pivoted_qr(columns: np.ndarray):
    """LAPACK column-pivoted QR; returns (packed factor, 0-based pivots)."""
    qr_packed, jpvt, tau, work, info = lapack.dgeqp3(columns)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqp3 failed with info={info}")
    return qr_packed, jpvt - 1


def _rank_from_qr(qr_packed: np.ndarray, tol_factor: float = 1.0) -> int:
    nrows = qr_packed.shape[0]
    diag = np.abs(np.diagonal(qr_packed))
    tol = nrows * _EPS * (float(diag[0]) if diag.size else 0.0) * tol_factor
    return int(np.count_nonzero(diag > tol))


def _null_vector_from_qr(
    qr_packed: np.ndarray, pivots: np.ndarray, ncols: int, tol_factor: float = 1.0
):
    """Null combination of the pivoted columns, or None when full rank."""
    rank = _rank_from_qr(qr_packed, tol_factor)
    if rank >= ncols:
        return None
    c = np.zeros(ncols)
    if rank > 0:
        z, info = lapack.dtrtrs(qr_packed[:rank, :rank], qr_packed[:rank, rank], lower=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
        c[pivots[:rank]] = z.reshape(-1)
    c[pivots[rank]] = -1.0
    c /= np.abs(c).max()
    return c


def find_null_vector(columns) -> np.ndarray | None:
    """A nonzero c with columns @ c ~ 0, or None when the columns have full rank.

    The vector is normalized to unit max-abs entry.  Rank is decided at
    tolerance nrows * eps * (largest column norm) on the pivoted QR
    diagonal; full rank is the normal terminating signal for reduction
    loops, not a failure.
    """
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 2:
        raise ValueError(f"expected a 2-d column matrix, got shape {cols.shape}")
    if not np.isfinite(cols).all():
        raise ValueError("column matrix must be finite")
    qr_packed, pivots = _pivoted_qr(cols)
    return _null_vector_from_qr(qr_packed, pivots, cols.shape[1])


def _eliminate(w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    pos = c > 0.0
    if not pos.any():
        c = -c
        pos = c > 0.0
    ratio = np.full(c.shape[0], np.inf)
    np.divide(w, c, out=ratio, where=pos)
    j_star = int(np.argmin(ratio))
    t_star = ratio[j_star]
    shift = t_star * c
    out = w - shift
    # Entries tying with the minimizer up to rounding are debris from earlier
    # float steps; in exact arithmetic they would be zero, so zero them.
    out[out <= 32.0 * _EPS * (np.abs(w) + np.abs(shift))] = 0.0
    out[j_star] = 0.0
    np.maximum(out, 0.0, out=out)
    return out, j_star


def elimination_step(weights, null_vector) -> tuple[np.ndarray, int]:
    """Shift mass along a null direction until one weight hits exactly zero.

    Picks t* = min over {j: c_j > 0} of w_j / c_j (smallest index on ties),
    returns (w - t* c, index of the zeroed entry).  The null direction is
    negated first if it has no positive entry, so t* is always defined; all
    surviving entries stay nonnegative and the weighted column sum is
    unchanged in exact arithmetic.
    """
    w = np.asarray(weights, dtype=float)
    c = np.asarray(null_vector, dtype=float)
    if w.shape != c.shape or w.ndim != 1:
        raise ValueError("weights and null vector must be 1-d arrays of equal length")
    if not np.any(c != 0.0):
        raise ValueError("null vector is identically zero")
    return _eliminate(w, c)


class _SpanTracker:
    """Incremental rank of every feature column fed through the sweep."""

    def __init__(self, dim: int, tol_factor: float = 1.0):
        self.dim = dim
        self.tol_factor = tol_factor
        self.q = np.zeros((dim, 0))
        self.max_colnorm = 0.0

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    def add(self, cols: np.ndarray):
        if cols.size == 0 or self.rank >= self.dim:
            return
        norms = np.linalg.norm(cols, axis=0)
        self.max_colnorm = max(self.max_colnorm, float(norms.max()))
        res = cols
        if self.rank:
            res = cols - self.q @ (self.q.T @ cols)
            res -= self.q @ (self.q.T @ res)
        q_new, r_new, _ = scipy.linalg.qr(
            res, mode="economic", pivoting=True, check_finite=False
        )
        tol = self.dim * _EPS * self.max_colnorm * self.tol_factor
        diag = np.abs(np.diagonal(r_new))
        fresh = int(np.count_nonzero(diag > tol))
        if fresh:
            self.q = np.hstack([self.q, q_new[:, :fresh]])


def _sweep(
    make_columns: Callable[[np.ndarray], np.ndarray],
    num_atoms: int,
    weights: np.ndarray,
    cap: int,
    project_constant: bool,
    tol_factor: float = 1.0,
):
    """Deterministic left-to-right reduction with a bounded working set.

    Returns (surviving atom indices, surviving weights, elimination steps,
    detected rank of the full column set).  ``tol_factor`` loosens rank
    decisions by the noise amplification an internal coordinate rescale
    introduced, so directions below input rounding noise do not count.
    """
    take = min(cap, num_atoms)
    idx = np.arange(take)
    w = weights[:take].astype(float, copy=True)
    cols = make_columns(idx)
    dim = cols.shape[0]
    tracker = _SpanTracker(dim, tol_factor)
    tracker.add(cols)
    pos = take
    steps = 0

    while True:
        # Reduce the working set until its columns are linearly independent.
        while idx.shape[0] >= 2:
            qr_packed, pivots = _pivoted_qr(cols)
            c = _null_vector_from_qr(qr_packed, pivots, idx.shape[0], tol_factor)
            if c is None:
                break
            if project_constant:
                projected = c - c.sum() / c.shape[0]
                peak = np.abs(projected).max()
                if peak > 1e-8:
                    c = projected / peak
            new_w, _ = _eliminate(w, c)
            keep = new_w > 0.0
            if not keep.any():
                # Exactly cancelling features (zero moment vector): no atom
                # can be removed without losing representability, stop here.
                break
            steps += 1
            idx = idx[keep]
            w = new_w[keep]
            cols = cols[:, keep]
        if pos >= num_atoms:
            break
        take = min(cap - idx.shape[0], num_atoms - pos)
        if take <= 0:
            # The cancellation guard left a full window; let it grow past the
            # cap rather than dropping unprocessed atoms or spinning.
            take = min(cap, num_atoms - pos)
        new_idx = np.arange(pos, pos + take)
        new_cols = make_columns(new_idx)
        tracker.add(new_cols)
        idx = np.concatenate([idx, new_idx])
        w = np.concatenate([w, weights[pos:pos + take]])
        cols = np.concatenate([cols, new_cols], axis=1)
        pos += take

    # The final full-rank certificate proves the survivors are independent,
    # so the detected rank is at least their count.
    return idx, w, steps, max(tracker.rank, int(idx.shape[0]))


def _noise_amplification(atoms: np.ndarray) -> float:
    """How much the [-1, 1]^N rescale magnifies coordinate rounding noise.

    Mapping x to (x - shift) / half turns the eps * |x| uncertainty of a
    stored coordinate into roughly eps * (|shift| + half) / half; rank
    decisions in rescaled coordinates must not resolve below that.
    Constant coordinates map to exactly zero and do not contribute.
    """
    lo = atoms.min(axis=0)
    hi = atoms.max(axis=0)
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    live = half > 0.0
    if not live.any():
        return 1.0
    return max(1.0, float(((np.abs(center[live]) + half[live]) / half[live]).max()))


def _prepare(measure: DiscreteMeasure, features: Features):
    """Column generator in reduction coordinates, the rescale used, whether
    the feature system starts with the constant, and the rank tolerance
    factor induced by the rescale."""
    if isinstance(features, MonomialBasis):
        if features.num_vars != measure.num_vars:
            raise ValueError(
                f"basis expects {features.num_vars} coordinates, "
                f"measure has {measure.num_vars}"
            )
        rescale = AffineRescale.from_atoms(measure.atoms)
        tol_factor = _noise_amplification(measure.atoms)

        def make_columns(idx: np.ndarray) -> np.ndarray:
            return _feature_block(features, rescale.apply(measure.atoms[idx]))

        return make_columns, rescale, True, tol_factor

    def make_columns(idx: np.ndarray) -> np.ndarray:
        # Windows are contiguous index ranges; errors name the global atom.
        return _feature_block(features, measure.atoms[idx], int(idx[0]))

    return make_columns, None, False, 1.0


def _finalize(
    measure: DiscreteMeasure,
    features: Features,
    idx: np.ndarray,
    w: np.ndarray,
    steps: int,
    detected_rank: int,
    rescale: AffineRescale | None,
) -> tuple[Cubature, ReductionReport]:
    """Assemble output in original coordinates and measure the residual."""
    if isinstance(features, MonomialBasis):
        # The constant monomial is entry 0, so total mass is itself a moment;
        # pin it exactly by one global rescale of the surviving weights.
        target_mass = measure.total_mass
        w = w * (target_mass / math.fsum(w.tolist()))

    nodes = measure.atoms[idx]
    target = moment_vector(measure, features).values
    achieved = moment_vector(DiscreteMeasure(atoms=nodes, weights=w), features).values
    residual = float(np.max(np.abs(achieved - target) / (1.0 + np.abs(target))))

    cubature = Cubature(
        node_indices=idx,
        nodes=nodes,
        weights=w,
        degree=features.max_degree if isinstance(features, MonomialBasis) else None,
        basis_id=feature_id(features),
    )
    report = ReductionReport(
        initial_atoms=measure.num_atoms,
        final_atoms=int(idx.shape[0]),
        elimination_steps=steps,
        detected_rank=detected_rank,
        max_moment_residual_rel=residual,
        rescaling=rescale.to_dict() if rescale is not None else None,
    )
    return cubature, report


def reduce(measure: DiscreteMeasure, features: Features) -> tuple[Cubature, ReductionReport]:
    """Compress a measure onto at most D of its atoms, moments preserved.

    D is the feature count.  Output nodes are original atoms (by index),
    weights are strictly positive, and every feature's weighted sum matches
    the input measure's; the achieved max relative residual is recorded in
    the report.  Atoms are swept in index order through a working set of at
    most max(2(D + 1), 64) columns, whatever the input size.
    """
    make_columns, rescale, has_constant, tol_factor = _prepare(measure, features)
    cap = _working_cap(feature_count(features))
    idx, w, steps, rank = _sweep(
        make_columns, measure.num_atoms, measure.weights, cap, has_constant, tol_factor
    )
    return _finalize(measure, features, idx, w, steps, rank, rescale)


# The benchmark's tracer (perfbench/tracing.py) wraps this name whenever it
# traces, so it stays until the benchmark's wrap list drops it.
reduce_streaming = reduce


def cubature_of_degree(
    measure: DiscreteMeasure,
    num_vars: int,
    degree_weights,
    max_degree: int,
) -> tuple[Cubature, ReductionReport]:
    """End-to-end: build the weighted-degree basis and reduce the measure.

    Atoms are affinely rescaled to [-1, 1]^N internally (the rescale is
    reported); results are stated in original coordinates.
    """
    if measure.num_vars != num_vars:
        raise ValueError(
            f"measure has {measure.num_vars} coordinates, expected {num_vars}"
        )
    return reduce(measure, build_basis(num_vars, degree_weights, max_degree))
