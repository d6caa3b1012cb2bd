"""Carathéodory recombination: thin a discrete measure onto few of its atoms.

The kernel takes one SVD of the active atoms' feature columns, whose
trailing right singular vectors span their null space, and applies a
positivity-preserving pivot along each null vector in turn; each pivot
zeroes at least one weight, and a Gaussian column update keeps the
remaining null vectors null on the survivors.  It refactorizes only after
a tie or when the basis is used up, and stops when the surviving columns
have full rank.  The weighted feature sums are invariant under every
step, so the survivors form a cubature formula: at most D nodes drawn
from the original atoms, strictly positive weights, and the same moments
as the input measure.

The engine has three layers, all working on in-memory D x n column
matrices:

* ``reduce`` takes the atoms in contiguous chunks of 65,536, builds each
  chunk's feature columns, carries the previous chunks' survivors into
  the next chunk, and assembles the output in original coordinates.
  Memory beyond the measure itself is O(D * 65,536).
* ``_tree`` runs tree recombination (Litterer & Lyons 2012; Maalouf,
  Jubran & Feldman 2019) on one column matrix rather than one elimination
  per atom: each level splits the current atoms into 2D contiguous
  groups, reduces the D x 2D weighted group means, rescales the atom
  weights of the at most D surviving groups and drops the rest, so every
  level costs one small reduction and roughly halves the atoms.
* ``_sweep`` is the kernel above (the Carathéodory step with a null-space
  update of Maalouf, Jubran & Feldman 2019 and Tchernychova 2016),
  applied to at most 2D columns at a time: a level's group means or the
  base case.

Every factorization is a ``numpy.linalg.svd`` (LAPACK ``gesdd``), and every
rank decision counts singular values above a tolerance: the kernel's null
basis and closing full-rank check, and the detected rank of the input's
feature columns.  Grouping is fixed and no step is random, so reruns are
identical.

The public entry points are ``reduce`` and ``cubature_of_degree``.  The
kernel's steps (``_null_basis``, ``_eliminate``) and the coordinate
rescale are internal; the report carries the rescale as a dict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .basis import MonomialBasis, build_basis
from .measure import (
    _CHUNK,
    DiscreteMeasure,
    Features,
    _feature_block,
    feature_count,
    moment_vector,
)

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AffineRescale:
    """Per-coordinate map x -> (x - shift) / scale used for conditioning."""

    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def from_bounds(cls, lo: np.ndarray, hi: np.ndarray) -> "AffineRescale":
        """The map sending the per-coordinate box [lo, hi] onto [-1, 1]."""
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
    """What the reduction did: sizes, steps, rank, and the achieved residual.

    ``elimination_steps`` counts every pivot the kernel applied: group
    eliminations on the tree levels' group means plus the eliminations of
    the base cases.  ``tree_levels`` counts the group-mean levels that
    removed groups, and ``rank_tol_factor`` is the factor by which the
    internal rescale loosened every rank decision (1 for dictionaries,
    which are not rescaled).  ``factorizations`` counts the kernel's SVDs,
    closing full-rank checks included.  ``weight_ratio`` is the largest
    final weight over the smallest, and ``node_condition`` the ratio of the
    extreme singular values of the nodes' feature columns in the internal
    (rescaled) coordinates, infinite when they are singular.
    """

    initial_atoms: int
    final_atoms: int
    elimination_steps: int
    detected_rank: int
    max_moment_residual_rel: float
    rescaling: dict | None
    tree_levels: int
    rank_tol_factor: float
    factorizations: int
    weight_ratio: float
    node_condition: float

    def to_dict(self) -> dict:
        return asdict(self)


def _rank(singular_values: np.ndarray, nrows: int, tol_factor: float) -> int:
    """Count singular values above nrows * eps * sigma_max * tol_factor."""
    if not singular_values.size:
        return 0
    tol = nrows * _EPS * float(singular_values[0]) * tol_factor
    return int(np.count_nonzero(singular_values > tol))


def _null_basis(cols: np.ndarray, tol_factor: float) -> np.ndarray:
    """Trailing right singular vectors of a D x n matrix, as n x k columns.

    k is n minus the rank that ``_rank`` decides from the singular values;
    k = 0 means the columns have full rank.
    """
    _, s, vt = np.linalg.svd(cols, full_matrices=True)
    return vt[_rank(s, cols.shape[0], tol_factor):].T


def _eliminate(w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Shift mass along a null direction until one weight hits exactly zero.

    Picks t* = min over {j: c_j > 0} of w_j / c_j (smallest index on ties)
    and returns (w - t* c, index of the zeroed entry).  A direction with no
    positive entry is negated first, so t* is always defined; the result is
    nonnegative and the weighted column sum is unchanged in exact arithmetic.
    """
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


class _SpanTracker:
    """Numerical rank of every feature column fed through the sweep.

    ``b`` is a D x r matrix with b b^T close to the sum of c c^T over the
    columns added so far.  ``add`` takes the SVD of [b, cols] and keeps the
    left singular vectors that ``_rank`` counts, each scaled by its singular
    value; the rank is their count.  The scaling keeps a weak direction's
    error at the rounding level of the strongest one.  An orthonormal basis
    would carry an error of eps over the direction's own singular value, and
    on ordered samples of a curve later columns read that error as new
    directions.
    """

    def __init__(self, dim: int, tol_factor: float = 1.0):
        self.dim = dim
        self.tol_factor = tol_factor
        self.b = np.zeros((dim, 0))

    @property
    def rank(self) -> int:
        return self.b.shape[1]

    def add(self, cols: np.ndarray):
        if cols.size == 0 or self.rank >= self.dim:
            return
        u, s, _ = np.linalg.svd(np.hstack([self.b, cols]), full_matrices=False)
        kept = _rank(s, self.dim, self.tol_factor)
        self.b = u[:, :kept] * s[:kept]


def _sweep(
    cols: np.ndarray, weights: np.ndarray, project_constant: bool, tol_factor: float
):
    """Deterministic reduction of a D x n column matrix until its columns are
    linearly independent.

    Returns (surviving column positions, surviving weights, elimination
    steps, factorizations).  ``tol_factor`` loosens rank decisions by the
    noise amplification an internal coordinate rescale introduced, so
    directions below input rounding noise do not count.

    Each round takes one SVD of the live columns and eliminates along its
    null basis in turn.  After each elimination a Gaussian column update
    subtracts a multiple of the used direction from the remaining null
    vectors, so they vanish on the removed atom and stay null vectors of
    the survivors.  A round ends when the basis is used up, or when one
    step zeroes more than one weight (a tie), which the single-column
    update cannot follow; the next round refactorizes.  With at most D
    live columns a round starts with the singular values alone, which
    settle full rank (the closing check) without the null basis.

    With ``project_constant`` (monomial bases, whose entry 0 is the
    constant), each direction is projected onto zero sum.  The constant
    row already makes it sum to zero up to rounding; removing that
    rounding keeps the mass exact along the chain.  Without the
    projection the worst verify residual on the ``reduce-d126`` benchmark
    inputs (seeds 1-3, D = 126) rose from 3.4e-13 to 5.3e-13.
    """
    nrows = cols.shape[0]
    idx = np.arange(cols.shape[1])
    w = weights.astype(float, copy=True)
    steps = factorizations = 0
    while idx.shape[0] >= 2:
        live = cols[:, idx]
        if idx.shape[0] <= nrows:
            factorizations += 1
            svals = np.linalg.svd(live, compute_uv=False)
            if _rank(svals, nrows, tol_factor) == idx.shape[0]:
                break
        factorizations += 1
        null = _null_basis(live, tol_factor)
        if not null.shape[1]:
            # The full SVD's singular values put the rank at n after all
            # (they may differ from svdvals' in the last bits).
            break
        while null.shape[1]:
            c = null[:, 0] / np.abs(null[:, 0]).max()
            if project_constant:
                projected = c - c.sum() / c.shape[0]
                peak = np.abs(projected).max()
                if peak > 1e-8:
                    c = projected / peak
            new_w, j_star = _eliminate(w, c)
            keep = new_w > 0.0
            if not keep.any():
                # Exactly cancelling features (zero moment vector): no atom
                # can be removed without losing representability, stop here.
                return idx, w, steps, factorizations
            steps += 1
            idx = idx[keep]
            w = new_w[keep]
            if idx.shape[0] < keep.shape[0] - 1:
                break  # a tie: refactorize
            rest = null[:, 1:]
            null = (rest - np.outer(c, rest[j_star] / c[j_star]))[keep]
    return idx, w, steps, factorizations


def _tree(
    cols: np.ndarray, weights: np.ndarray, project_constant: bool, tol_factor: float
):
    """Tree recombination of one D x n column matrix.

    Returns (surviving column positions, surviving weights, elimination
    steps, factorizations, tree levels).  Each level reduces the 2D
    contiguous groups' weighted means with ``_sweep`` and keeps the atoms
    of surviving groups, rescaled by new group mass over old; at most 2D
    atoms go to ``_sweep`` as the base case.  A level whose group means
    cancel, so that no group can be removed, returns its atoms and weights
    unreduced.
    """
    dim = cols.shape[0]
    groups = 2 * dim
    pos = np.arange(weights.shape[0])
    w = weights
    steps = factorizations = levels = 0
    while pos.shape[0] > groups:
        bounds = (np.arange(groups + 1) * pos.shape[0]) // groups
        mass = np.add.reduceat(w, bounds[:-1])
        means = np.empty((dim, groups))
        for g in range(groups):
            lo, hi = bounds[g], bounds[g + 1]
            means[:, g] = cols[:, pos[lo:hi]] @ w[lo:hi]
        means /= mass
        kept, new_mass, s, f = _sweep(means, mass, project_constant, tol_factor)
        steps += s
        factorizations += f
        if kept.shape[0] == groups:
            return pos, w, steps, factorizations, levels
        levels += 1
        factor = np.zeros(groups)
        factor[kept] = new_mass / mass[kept]
        w = w * np.repeat(factor, np.diff(bounds))
        live = w > 0.0
        pos = pos[live]
        w = w[live]
    sub, w, s, f = _sweep(cols[:, pos], w, project_constant, tol_factor)
    return pos[sub], w, steps + s, factorizations + f, levels


def _noise_amplification(lo: np.ndarray, hi: np.ndarray) -> float:
    """How much the [-1, 1]^N rescale magnifies coordinate rounding noise.

    ``lo`` and ``hi`` are the atoms' per-coordinate bounds.  Mapping x to
    (x - shift) / half turns the eps * |x| uncertainty of a stored
    coordinate into roughly eps * (|shift| + half) / half; rank decisions in
    rescaled coordinates must not resolve below that.  Constant coordinates
    map to exactly zero and do not contribute.
    """
    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    live = half > 0.0
    if not live.any():
        return 1.0
    return max(1.0, float(((np.abs(center[live]) + half[live]) / half[live]).max()))


def reduce(measure: DiscreteMeasure, features: Features) -> tuple[Cubature, ReductionReport]:
    """Compress a measure onto at most D of its atoms, moments preserved.

    D is the feature count.  Output nodes are original atoms (by index),
    weights are strictly positive, and every feature's weighted sum matches
    the input measure's; the achieved max relative residual is recorded in
    the report.

    Atoms are taken in contiguous chunks of 65,536.  Each chunk's feature
    columns (in [-1, 1]^N coordinates for a monomial basis) are joined to
    the survivors carried from earlier chunks and reduced by ``_tree``; the
    chunk's columns are freed before the next chunk's are built, so extra
    memory is O(D * 65,536) whatever the input size, as long as no chunk's
    group means cancel.  A chunk whose group means do cancel is carried
    into the next chunk unreduced.  The output is stated in original
    coordinates.

    Raises ValueError when the features' weighted sums cancel so that more
    than D atoms remain at the end (a zero moment vector has no positive
    cubature the reduction can find).
    """
    dim = feature_count(features)
    atoms = measure.atoms
    is_monomial = isinstance(features, MonomialBasis)
    rescale = None
    tol_factor = 1.0
    if is_monomial:
        if features.num_vars != measure.num_vars:
            raise ValueError(
                f"basis expects {features.num_vars} coordinates, "
                f"measure has {measure.num_vars}"
            )
        lo = atoms.min(axis=0)
        hi = atoms.max(axis=0)
        rescale = AffineRescale.from_bounds(lo, hi)
        tol_factor = _noise_amplification(lo, hi)

    tracker = _SpanTracker(dim, tol_factor)
    idx = np.empty(0, dtype=np.int64)
    w = np.empty(0)
    carried = np.empty((dim, 0))
    steps = factorizations = levels = 0
    for start in range(0, measure.num_atoms, _CHUNK):
        pts = atoms[start:start + _CHUNK]
        # Errors from a dictionary name the global atom index.
        cols = _feature_block(features, pts if rescale is None else rescale.apply(pts), start)
        # Small slices keep the tracker's SVD workspace O(D^2).
        for k in range(0, cols.shape[1], 2 * dim):
            tracker.add(cols[:, k:k + 2 * dim])
        chunk = np.arange(start, start + cols.shape[1])
        chunk_w = measure.weights[start:start + _CHUNK]
        if idx.shape[0]:
            chunk = np.concatenate([idx, chunk])
            chunk_w = np.concatenate([w, chunk_w])
            cols = np.concatenate([carried, cols], axis=1)
        keep, w, s, f, lv = _tree(cols, chunk_w, is_monomial, tol_factor)
        idx = chunk[keep]
        carried = cols[:, keep]
        del cols  # freed before the next chunk's columns are built
        steps += s
        factorizations += f
        levels += lv
    if idx.shape[0] > dim:
        raise ValueError(
            f"reduction stopped at {idx.shape[0]} atoms, above the feature count "
            f"D = {dim}: the weighted feature sums cancel, so no positive cubature "
            "on at most D atoms was found"
        )

    if is_monomial:
        # The constant monomial is entry 0, so total mass is itself a moment;
        # pin it exactly by one global rescale of the surviving weights.
        w = w * (measure.total_mass / math.fsum(w.tolist()))
    nodes = atoms[idx]
    target = moment_vector(measure, features)
    achieved = moment_vector(DiscreteMeasure(atoms=nodes, weights=w), features)
    residual = float(np.max(np.abs(achieved - target) / (1.0 + np.abs(target))))
    svals = np.linalg.svd(carried, compute_uv=False)

    cubature = Cubature(
        node_indices=idx,
        nodes=nodes,
        weights=w,
        degree=features.max_degree if is_monomial else None,
        basis_id=features.identifier,
    )
    report = ReductionReport(
        initial_atoms=measure.num_atoms,
        final_atoms=int(idx.shape[0]),
        elimination_steps=steps,
        # The final full-rank certificate proves the survivors are
        # independent, so the detected rank is at least their count.
        detected_rank=max(tracker.rank, int(idx.shape[0])),
        max_moment_residual_rel=residual,
        rescaling=rescale.to_dict() if rescale is not None else None,
        tree_levels=levels,
        rank_tol_factor=tol_factor,
        factorizations=factorizations,
        weight_ratio=float(w.max() / w.min()),
        node_condition=float(svals[0] / svals[-1]) if svals[-1] > 0.0 else math.inf,
    )
    return cubature, report


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
    return reduce(measure, build_basis(num_vars, degree_weights, max_degree))
