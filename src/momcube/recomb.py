"""Carathéodory recombination: thin a discrete measure onto few of its atoms.

The kernel takes one factorization of the active atoms' feature columns,
which gives an orthonormal basis of their null space, and applies a
positivity-preserving pivot along each null vector in turn; each pivot
zeroes at least one weight, and a Gaussian column update keeps the
remaining null vectors null on the survivors.  As in a blocked LU, each
update reaches only the rest of its block of 16 null vectors, and the
vectors after the block take the whole block's updates in one matrix
product.  It refactorizes only after a tie or when the basis is used up.
On a tree level it stops at D surviving columns; on the last level, the
base case, whose groups hold one atom each, it goes on until the
surviving columns have full rank.  The weighted feature sums
are invariant under every step, so the survivors form a cubature formula:
at most D nodes drawn from the original atoms, strictly positive weights,
and the same moments as the input measure.

The engine has four layers:

* ``reduce`` checks the input and hands views of it, 32,768 atoms at a
  time, to ``_reduce_blocks``; ``momcube reduce`` hands it the blocks of
  its file instead.
* ``_reduce_blocks`` runs merge-and-reduce over blocks read once, in order
  (Har-Peled & Mazumdar 2004): each block is reduced by one tree in its own
  rescale, equal-level results are merged pairwise like a binary counter
  and the union of their at most 2D atoms is reduced again.  In the same
  pass it accumulates the moments and the exact mass, and at the end it
  assembles the output in original coordinates and checks it with
  ``verify._verification``, whose residual the report carries.  A measure
  of one block is one tree over all atoms.
* ``_tree`` takes a piece, one block or the union of two results, in the
  piece's own rescale, and runs tree recombination (Litterer & Lyons 2012;
  Maalouf, Jubran & Feldman 2019) rather than one elimination per atom:
  each level splits the n live atoms into min(2D, n) contiguous groups,
  reduces the D x groups weighted group means, rescales the atom weights
  of the surviving groups and drops the rest, so every level costs one
  small reduction and roughly halves the atoms.  The last level, at most
  2D atoms, has one atom per group, so its means are the atoms' own
  columns: it is the base case, and its reduction ends with the closing
  full-rank check.  The tree holds three numbers per atom of the piece:
  index, weight and group.  Each level builds the feature columns again,
  4,096 atoms at a time (the base level's at most 2D in one slice), so
  extra memory is O(D * 4,096) on top.
* ``_sweep`` is the kernel above (the Carathéodory step with a null-space
  update of Maalouf, Jubran & Feldman 2019 and Tchernychova 2016),
  applied to a level's D x n group means, n <= 2D.

Every factorization is a ``numpy.linalg.qr`` (LAPACK ``geqrf``) or a
``numpy.linalg.svd`` (LAPACK ``gesdd``).  Above D columns the kernel's null
basis comes from the Householder reflectors of a QR, in compact WY form,
which needs no rank decision; a tree level takes one such factorization
when no tie occurs.  Every rank decision counts singular values above a
tolerance: one per kernel round on at most D columns, in ``_null_basis``,
which is the closing full-rank check and, below full rank, the size of
the null basis; and the detected rank of the input's feature columns,
which takes singular vectors only when the first 2D columns have rank
below D.  Grouping and blocks are fixed and no step is random, so reruns
are identical.

The public entry points are ``reduce`` and ``cubature_of_degree``.  The
kernel's steps (``_null_basis``, ``_eliminate``) and the coordinate
rescale (``_rescale``: two arrays, shift and scale) are internal; the
report carries the rescale as a dict.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .basis import MonomialBasis, build_basis
from .measure import (
    _ATOM_BLOCK,
    DiscreteMeasure,
    Features,
    _feature_block,
    _finite_or_none,
    _MomentSums,
    _views,
    feature_count,
)
from .verify import VerificationReport, _verification

# The benchmark's tracer (perfbench/tracing.py) wraps this name here
# whenever it traces, so it stays until the benchmark's wrap list drops it.
# This module does not call it: the reduction's moments come from
# ``verify._verification``.
from .measure import moment_vector  # noqa: F401

_EPS = np.finfo(float).eps
# The ufunc reductions behind ndarray.any and .max, called directly: the
# same results without the method wrappers, which cost as much as the work
# on the kernel's vectors of at most 2D entries.
_any = np.logical_or.reduce
_max = np.maximum.reduce
# Null vectors per block of the kernel's delayed update (see ``_sweep``).
_BLOCK = 16


def _rescale(atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(shift, scale, tol_factor) of the map x -> (x - shift) / scale that
    sends the atoms' per-coordinate box [lo, hi] onto [-1, 1]^N.

    shift and half are 0.5 * (lo + hi) and 0.5 * (hi - lo), or, where those
    overflow, the same of the halved bounds (exact there).  So lo == hi
    gives a shift of exactly lo, subnormal or not; such a coordinate gets
    scale 1 and maps to 0.  ``tol_factor`` >= 1 is how much the map
    magnifies the eps * |x| rounding noise of a coordinate, the largest
    (|shift| + half) / half; rank decisions must not resolve below it.
    """
    lo = atoms.min(axis=0)
    hi = atoms.max(axis=0)
    with np.errstate(over="ignore"):
        shift = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
    shift = np.where(np.isfinite(shift), shift, lo / 2 + hi / 2)
    half = np.where(np.isfinite(half), half, hi / 2 - lo / 2)
    live = half > 0.0
    scale = np.where(live, half, 1.0)
    amplification = (np.abs(shift) + half) / scale
    return shift, scale, float(np.max(amplification, where=live, initial=1.0))


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
        if not (np.isfinite(weights) & (weights > 0.0)).all():
            raise ValueError("cubature weights must be finite and strictly positive")
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

    ``elimination_steps`` counts every pivot the kernel applied on the
    levels' group means, the base levels' single atoms included.
    ``tree_levels`` counts the levels before the base level that removed
    groups, and ``rank_tol_factor`` is the factor by which the internal
    rescale loosened every rank decision (1 for dictionaries, which are not
    rescaled).  ``factorizations`` counts the kernel's QRs and SVDs: a
    level above the base takes one QR when no tie occurs, and only a base
    level takes the closing full-rank check, a values-only SVD, with a
    thin SVD after it when the columns are dependent.  ``weight_ratio`` is
    the largest final weight over the smallest, and ``node_condition`` the
    ratio of the extreme singular values of the nodes' feature columns in
    the coordinates of ``rescaling`` (original ones for dictionaries),
    infinite when they are singular.  ``max_moment_residual_rel`` is the
    ``max_residual_rel`` of the verification that the reduction ran.
    ``to_dict`` writes a float that is not finite as None (JSON null).

    A measure of more than 32,768 atoms is reduced block by block and the
    results are merged (``_reduce_blocks``), each reduction in its own
    rescale.  Then the counts add up over all reductions; ``rescaling`` is
    the map of the whole measure's box, ``rank_tol_factor`` the largest
    factor any reduction used, and ``detected_rank`` the largest rank any
    reduction detected, or the node count if that is larger, since the
    closing full-rank check certifies the nodes independent.  On one block
    every field is that of the one tree.
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
        return {
            key: _finite_or_none(value) if isinstance(value, float) else value
            for key, value in asdict(self).items()
        }


def _rank(singular_values: np.ndarray, nrows: int, tol_factor: float) -> int:
    """Count singular values above nrows * eps * sigma_max * tol_factor."""
    tol = nrows * _EPS * float(singular_values[0]) * tol_factor
    return int(np.count_nonzero(singular_values > tol))


def _null_basis(cols: np.ndarray, tol_factor: float) -> np.ndarray:
    """Orthonormal null vectors of a D x n matrix, as n x k columns.

    Above D columns they are the trailing n - D columns of the orthogonal
    factor Q of a QR of the transpose: orthogonal to the row space whatever
    the rank, so no rank decision is needed, and k = n - D.  Q is never
    formed.  ``qr(mode="raw")`` gives the Householder reflectors as the
    columns of a unit lower trapezoidal n x D matrix V, with factors tau,
    and Q = I - V T V^T, where T is upper triangular and
    T^-1 = diag(1 / tau) + strictly-upper(V^T V) (compact WY; Joffrain, Low,
    Quintana-Orti, van de Geijn & Van Zee 2006).  So with E = [0; I], the
    columns wanted are Q E = E - V T V[D:]^T: one solve against T^-1, upper
    triangular with a diagonal of at least 1/2, so partial pivoting swaps no
    rows, and one matrix product.  A reflector with tau = 0 is the
    identity; it becomes v = 0 with tau = 1, so nothing divides by zero.

    At most D columns the singular values alone decide the rank (``_rank``):
    this is the closing full-rank check, and at rank n it returns k = 0
    columns without forming a singular vector.  Below rank n a thin SVD
    follows, and its trailing right singular vectors past that same rank
    are the k = n - rank null vectors.
    """
    nrows, n = cols.shape
    if n <= nrows:
        rank = _rank(np.linalg.svd(cols, compute_uv=False), nrows, tol_factor)
        if rank == n:
            return np.empty((n, 0))
        return np.linalg.svd(cols, full_matrices=False)[2][rank:].T
    # The raw factor is the transpose of LAPACK's: row i of h holds
    # reflector i below (to the right of) its diagonal.
    h, tau = np.linalg.qr(cols.T, mode="raw")
    vt = np.triu(h, 1)  # V^T, D x n
    diagonal = np.diag_indices(nrows)
    vt[diagonal] = 1.0
    identity = tau == 0.0
    if _any(identity):
        vt[identity] = 0.0
        tau = np.where(identity, 1.0, tau)
    t_inv = np.triu(vt @ vt.T, 1)
    t_inv[diagonal] = 1.0 / tau
    # Rows of (Q E)^T = E^T - (T V[D:]^T)^T V^T, C-contiguous for ``_sweep``.
    rows = np.linalg.solve(t_inv, -vt[:, nrows:]).T @ vt
    rows[:, nrows:][np.diag_indices(n - nrows)] += 1.0
    return rows.T


def _eliminate(w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Shift mass along a null direction until one weight hits exactly zero.

    ``c`` has unit max-norm, as ``_sweep`` scales it.  Picks t* = min over
    {j: c_j > n * eps} of w_j / c_j (smallest index on ties) and returns
    (w - t* c, index of the zeroed entry).  The floor n * eps is the
    direction's rounding level: an entry below it may be zero in exact
    arithmetic, and pivoting on it would scale the later null vectors'
    updates by its inverse.  Only a weight far below the others' (weights
    spanning hundreds of decades) has its smallest ratio at such an entry.
    A direction with no entry above the floor is negated first, so t* is
    always defined; the result is nonnegative and the weighted column sum
    is unchanged in exact arithmetic.  Every zeroed entry of the result is
    exactly +0.0 and every other entry is positive.
    """
    floor = c.shape[0] * _EPS
    pos = c > floor
    if not _any(pos):
        c = -c
        pos = c > floor
    ratio = np.full(c.shape[0], np.inf)
    np.divide(w, c, out=ratio, where=pos)
    j_star = int(ratio.argmin())
    shift = ratio[j_star] * c
    out = w - shift
    # Entries tying with the minimizer up to rounding are debris from earlier
    # float steps; in exact arithmetic they would be zero, so zero them.  The
    # threshold is nonnegative, so this also zeroes every negative entry.
    thresh = np.abs(shift, out=shift)
    thresh += np.abs(w, out=ratio)
    thresh *= 32.0 * _EPS
    zeroed = out <= thresh
    zeroed[j_star] = True
    out[zeroed] = 0.0
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

    The first slice goes to a values-only SVD: when it already has rank D,
    which generic atoms give, the tracker is full and no singular vector is
    ever formed.  Only a rank-deficient first slice takes the SVD with U.
    """

    def __init__(self, dim: int, tol_factor: float = 1.0):
        self.dim = dim
        self.tol_factor = tol_factor
        self.b = np.zeros((dim, 0))
        self.rank = 0

    def add(self, cols: np.ndarray):
        if cols.size == 0 or self.rank >= self.dim:
            return
        if not self.rank:
            s = np.linalg.svd(cols, compute_uv=False)
            if _rank(s, self.dim, self.tol_factor) == self.dim:
                self.rank = self.dim
                return
        u, s, _ = np.linalg.svd(np.hstack([self.b, cols]), full_matrices=False)
        self.rank = _rank(s, self.dim, self.tol_factor)
        self.b = u[:, :self.rank] * s[:self.rank]


# Above about 1e292 a weight over a direction entry (at least n * eps, see
# ``_eliminate``) can overflow to inf, which only takes that atom out of the
# minimum ratio; nothing else in a round overflows on finite input.
@np.errstate(over="ignore")
def _sweep(cols: np.ndarray, weights: np.ndarray, tol_factor: float, *, certify: bool = True):
    """Deterministic reduction of a D x n column matrix to at most D
    columns, and with ``certify`` until they are linearly independent.

    Returns (surviving column positions, surviving weights, elimination
    steps, factorizations).  ``tol_factor`` loosens rank decisions by the
    noise amplification an internal coordinate rescale introduced, so
    directions below input rounding noise do not count.

    Each round makes one ``_null_basis`` call (at most one rank decision)
    and eliminates along its null basis in turn.  After each elimination
    the remaining null vectors must lose a multiple of the used direction,
    so that they vanish on the removed atom and stay null vectors of the
    survivors.  As in a blocked right-looking LU, the null vectors (rows)
    go in blocks of ``_BLOCK``: a Gaussian update at each elimination
    reaches only the rest of the current block, and the rows after the
    block take all of the block's updates at once, as tail -= X C, where
    the rows of C are the block's used directions and X solves
    X C[:, J] = tail[:, J] on the block's pivots J.  Each used direction
    already vanishes on the earlier pivots, so C[:, J] is triangular and
    the result is the one-at-a-time update's in exact arithmetic.  Removed
    atoms are dropped when the round ends.  A round ends when the basis is
    used up, or when one step zeroes more than one weight (a tie), which
    the single-column update cannot follow; the next round refactorizes,
    and updates still pending are never applied.

    Without ``certify`` (a tree level, which only has to keep at most D of
    its 2D groups) the sweep stops as soon as at most D columns are live.
    With it (the base level) it goes on until ``_null_basis`` returns no
    null vector, which on at most D columns is its closing full-rank check
    from the singular values alone; only this check proves the survivors
    independent.  ``factorizations`` counts that check and, when the
    columns are dependent, the thin SVD after it.  Each direction is only
    scaled to unit max-norm; the mass of a monomial basis is pinned exactly
    by the output step (``_reduce_blocks``), not along the chain.
    """
    nrows = cols.shape[0]
    idx = np.arange(cols.shape[1])
    w = weights.astype(float, copy=True)
    steps = factorizations = 0
    while idx.shape[0] >= 2:
        if idx.shape[0] <= nrows and not certify:
            break
        factorizations += 1
        # One null vector per row, updated in place; removed atoms keep
        # their columns (weight and null entries exactly 0) until the round
        # ends.
        null = np.ascontiguousarray(_null_basis(cols[:, idx], tol_factor).T)
        if not null.shape[0]:
            break  # full rank: the closing check
        if idx.shape[0] <= nrows:
            factorizations += 1  # the thin SVD after the closing check
        # Scratch for every step of the round.
        size = count = idx.shape[0]
        magnitude = np.empty(size)
        buf = np.empty((_BLOCK - 1, size))
        pivots = np.empty(_BLOCK, dtype=np.intp)
        tie = False
        for start in range(0, null.shape[0], _BLOCK):
            block = null[start:start + _BLOCK]
            for b, c in enumerate(block):
                c /= _max(np.abs(c, out=magnitude))
                new_w, j_star = _eliminate(w, c)
                left = int(np.count_nonzero(new_w))
                if not left:
                    # Exactly cancelling features (zero moment vector): no atom
                    # can be removed without losing representability, stop here.
                    alive = w > 0.0
                    return idx[alive], w[alive], steps, factorizations
                steps += 1
                w = new_w
                if left < count - 1:
                    tie = True  # refactorize
                    break
                count = left
                pivots[b] = j_star
                rest = block[b + 1:]
                update = buf[:rest.shape[0]]
                np.multiply.outer(rest[:, j_star] / c[j_star], c, out=update)
                rest -= update
                rest[:, j_star] = 0.0
            if tie:
                break
            tail = null[start + _BLOCK:]
            if tail.shape[0]:
                piv = pivots[:block.shape[0]]
                tail -= np.linalg.solve(block[:, piv].T, tail[:, piv].T).T @ block
                tail[:, piv] = 0.0
        alive = w > 0.0
        idx = idx[alive]
        w = w[alive]
    return idx, w, steps, factorizations


def _columns(features: Features, pts: np.ndarray, rescale: tuple | None) -> np.ndarray:
    """A fresh D x len(pts) block of the feature columns of ``pts``.

    Points go through (x - shift) / scale first when ``rescale`` is given
    as (shift, scale).
    """
    if rescale is not None:
        shift, scale = rescale
        pts = (pts - shift) / scale
    return _feature_block(features, pts)


@dataclass
class _Totals:
    """What the trees of one ``_reduce_blocks`` pass add up to."""

    steps: int = 0
    factorizations: int = 0
    levels: int = 0
    rank: int = 0
    tol_factor: float = 1.0


def _tree(rows, atoms, weights, features: Features, totals: _Totals):
    """Tree recombination over a piece: a block as read, or the union of two
    earlier results.

    ``rows`` are the piece's global atom indices and ``atoms`` its original
    coordinates.  For a monomial basis the tree works in the piece's own
    [-1, 1]^N rescale.  Returns the survivors' (rows, atoms, weights), more
    than D of them when the piece's feature sums cancel, and adds the tree's
    counts into ``totals``.  The tree holds three numbers for each of its
    live atoms: position, weight and group.  Each level splits the n live
    atoms into min(2D, n) contiguous groups and divides every weight by its
    group's mass, so shares lie in [0, 1] and weights may span the float
    range, subnormals included.  It builds the feature columns (rescaled,
    for a monomial basis) 4,096 atoms at a time, weights them by the shares
    in place and adds their per-group sums into the group means.
    ``_sweep`` reduces the means to at most D groups; each atom then gets
    its share of its group's new mass, and atoms left at 0 (a removed
    group, or an underflow) are dropped.  The first level also feeds a
    ``_SpanTracker``, in slices of 2D columns, so no pass is spent on the
    rank alone.

    A level of more than 2D atoms stops its sweep at D groups, with no
    closing check: they may be dependent, and later levels reduce them
    further.  The level of at most 2D atoms is the base case and the last
    level.  Its groups hold one atom each, so every share is w / w = 1.0
    exactly and each mean, a sum over one column, equals that atom's
    column (a -0.0 entry reads 0.0): the level is a sweep of the atoms
    themselves, built in one slice so that the tracker takes them in one
    SVD, and it runs on to the closing full-rank check.  A level whose
    group means cancel, so that no group can be removed, gives every atom
    its weight back and ends the tree with its atoms unreduced.
    """
    rescale = None
    tol_factor = 1.0
    if isinstance(features, MonomialBasis):
        shift, scale, tol_factor = _rescale(atoms)
        rescale = shift, scale
    dim = feature_count(features)
    tracker = _SpanTracker(dim, tol_factor)
    pos = np.arange(atoms.shape[0])  # live atom indices
    w = weights.copy()
    levels = 0
    while True:
        n = w.shape[0]
        groups = min(2 * dim, n)
        base = groups == n  # one atom per group
        bounds = (np.arange(groups + 1) * n) // groups
        group = np.repeat(np.arange(groups), np.diff(bounds))
        mass = np.add.reduceat(w, bounds[:-1])
        w /= mass[group]  # each atom's share of its group
        means = np.zeros((dim, groups))
        block = n if base else _ATOM_BLOCK
        for start in range(0, n, block):
            stop = min(start + block, n)
            first, last = group[start], group[stop - 1] + 1
            cols = _columns(features, atoms[pos[start:stop]], rescale)
            if not levels and tracker.rank < dim:
                # Small slices keep the tracker's SVD workspace O(D^2).
                for k in range(0, stop - start, groups):
                    tracker.add(cols[:, k:k + groups])
            cols *= w[start:stop]
            offsets = bounds[first:last] - start  # where each group starts
            offsets[0] = 0
            means[:, first:last] += np.add.reduceat(cols, offsets, axis=1)
            del cols  # freed before the next block is built
        kept, new_mass, s, f = _sweep(means, mass, tol_factor, certify=base)
        totals.steps += s
        totals.factorizations += f
        # When the means cancel, every group is kept at its own mass.
        group_mass = np.zeros(groups)
        group_mass[kept] = new_mass
        w *= group_mass[group]
        live = w > 0.0
        w = w[live]
        pos = pos[live]
        if base or kept.shape[0] == groups:
            break  # the base level, or a level that removed no group
        levels += 1
    totals.levels += levels
    totals.rank = max(totals.rank, tracker.rank)
    totals.tol_factor = max(totals.tol_factor, tol_factor)
    return rows[pos], atoms[pos], w


def _reduce_blocks(
    blocks, features: Features
) -> tuple[Cubature, ReductionReport, VerificationReport]:
    """``reduce`` by merge-and-reduce over (atoms, weights) blocks read
    once, in order: the one engine behind ``reduce`` and ``momcube reduce``.
    Returns (cubature, report, verification).

    Each block is reduced by its own tree (``_tree``) and pushed on a stack
    of (level, result) pairs, a binary counter: while the top has the new
    result's level, the two are merged, older rows first, and the union of
    their at most 2D atoms is reduced again, one level up (Har-Peled &
    Mazumdar 2004; Maalouf, Jubran & Feldman 2019).  The results left at
    the end are merged from the top, the lowest level, down.  So one block
    and about log2(blocks) results of at most D atoms are held at a time.
    Recombination is exact on each piece and moments add, so the nodes
    carry the moments of all blocks.  One block gives one tree over it.

    Each block goes into one ``_MomentSums`` (moments and exact mass)
    before it is reduced, so a moment that overflows, or a dictionary that
    fails on an atom, stops the pass at its block and names the atom by its
    global row.  A ``FunctionDictionary`` is deterministic, so the trees,
    which evaluate it again at the same atoms, cannot fail where the sums
    passed.  At the end the sums go to ``verify._verification`` with the
    nodes as read, and the report's residual is the verification's.  A
    result whose feature sums cancel keeps its atoms unreduced, since later
    blocks may undo the cancellation, so more than D survivors are an error
    only at the end.
    """
    dim = feature_count(features)
    is_monomial = isinstance(features, MonomialBasis)
    sums = _MomentSums(features)
    stack = []  # (level, result of 2**level blocks), levels falling to the top
    totals = _Totals()
    box = None  # per coordinate, the least and the largest value so far
    for atoms, weights in blocks:
        offset = sums.count
        sums.add(atoms, weights)
        lo_hi = np.stack([atoms.min(axis=0), atoms.max(axis=0)])
        box = lo_hi if box is None else np.stack(
            [np.minimum(box[0], lo_hi[0]), np.maximum(box[1], lo_hi[1])]
        )
        rows = np.arange(offset, offset + weights.shape[0])
        piece = _tree(rows, atoms, weights, features, totals)
        level = 0
        while stack and stack[-1][0] == level:
            piece = _tree(*map(np.concatenate, zip(stack.pop()[1], piece)), features, totals)
            level += 1
        stack.append((level, piece))
    _, piece = stack.pop()
    while stack:
        piece = _tree(*map(np.concatenate, zip(stack.pop()[1], piece)), features, totals)
    idx, nodes, w = piece
    if idx.shape[0] > dim:
        raise ValueError(
            f"reduction stopped at {idx.shape[0]} atoms, above the feature count "
            f"D = {dim}: the weighted feature sums cancel, so no positive cubature "
            "on at most D atoms was found"
        )

    rescale = rescaling = None
    if is_monomial:
        # The constant monomial is entry 0, so total mass is itself a moment;
        # pin it exactly by one global rescale of the surviving weights.
        w = w * (sums.mass / math.fsum(w.tolist()))
        shift, scale, _ = _rescale(box)
        rescale = shift, scale
        rescaling = {"shift": shift.tolist(), "scale": scale.tolist()}
    cubature = Cubature(
        node_indices=idx,
        nodes=nodes,
        weights=w,
        degree=features.max_degree if is_monomial else None,
        basis_id=features.identifier,
    )
    verification = _verification(sums, nodes, cubature, features)
    svals = np.linalg.svd(_columns(features, nodes, rescale), compute_uv=False)
    report = ReductionReport(
        initial_atoms=sums.count,
        final_atoms=cubature.num_nodes,
        elimination_steps=totals.steps,
        # The closing full-rank check certifies the final nodes independent.
        detected_rank=max(totals.rank, cubature.num_nodes),
        max_moment_residual_rel=verification.max_residual_rel,
        rescaling=rescaling,
        tree_levels=totals.levels,
        rank_tol_factor=totals.tol_factor,
        factorizations=totals.factorizations,
        # Python floats: a ratio beyond the float range is inf, not a warning.
        weight_ratio=float(w.max()) / float(w.min()),
        node_condition=float(svals[0] / svals[-1]) if svals[-1] > 0.0 else math.inf,
    )
    return cubature, report, verification


def reduce(measure: DiscreteMeasure, features: Features) -> tuple[Cubature, ReductionReport]:
    """Compress a measure onto at most D of its atoms, moments preserved.

    D is the feature count.  Output nodes are original atoms (by index),
    weights are strictly positive, and every feature's weighted sum matches
    the input measure's; the achieved max relative residual, as
    ``verify_cubature`` computes it, is recorded in the report.

    The atoms go through merge-and-reduce (``_reduce_blocks``) in views of
    32,768 rows, the blocks in which ``momcube reduce`` reads a file: one
    tree (``_tree``) per block, for a monomial basis in the block's own
    [-1, 1]^N coordinates, and the results merged pairwise like a binary
    counter.  A measure of at most 32,768 atoms is one block and one tree
    over all atoms.  Feature columns are built 4,096 atoms at a time and
    dropped after use, so extra memory is O(D * 4,096) plus a few numbers
    per atom of one block, whatever the input size.  The output is stated in
    original coordinates.

    Raises ValueError when a moment of the measure overflows the float
    range, and when the features' weighted sums cancel so that more than D
    atoms remain at the end (a zero moment vector has no positive cubature
    the reduction can find).
    """
    if isinstance(features, MonomialBasis) and features.num_vars != measure.num_vars:
        raise ValueError(
            f"basis expects {features.num_vars} coordinates, "
            f"measure has {measure.num_vars}"
        )
    return _reduce_blocks(_views(measure), features)[:2]


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
