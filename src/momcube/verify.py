"""Independent validation of a claimed cubature against its source measure.

Everything is recomputed from scratch in original coordinates with
compensated summation: this module must not inherit any state (rescaling,
cached features) from the engine that produced the cubature, otherwise it
would inherit its errors too.  ``verify_cubature`` takes no tolerance: its
report carries the raw residuals and flags, and callers judge it with
``VerificationReport.passes(tol, mass_tol)``.

The measure's side is one pass in blocks (``_verify_blocks``): moments and
exact mass accumulate in ``measure._MomentSums``, in original coordinates,
and the measure's rows at the node indices are picked up as their blocks
go by.  ``verify_cubature`` feeds it views of an in-memory measure and
``momcube verify`` the blocks of its file, so neither holds the whole
measure.  ``_verification`` builds the report from a finished pass.  The
reduction (``recomb._reduce_blocks``) reads its blocks once, so it calls
``_verification`` with the sums of the pass that also fed its trees, and
with the node rows as read; the trees only read those blocks, and their
rescales never reach the sums.  So a reduction's achieved moments and
residual are computed here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .measure import (
    DiscreteMeasure,
    Features,
    _finite_or_none,
    _MomentSums,
    _views,
    feature_count,
    moment_vector,
)

if TYPE_CHECKING:  # recomb imports this module, for _verification
    from .recomb import Cubature


@dataclass(frozen=True)
class VerificationReport:
    """Per-moment residuals plus the hard pass/fail flags."""

    per_moment_residual_rel: np.ndarray
    max_residual_rel: float
    weights_positive: bool
    support_ok: bool
    cardinality_ok: bool
    mass_gap_rel: float

    def __post_init__(self):
        res = np.asarray(self.per_moment_residual_rel, dtype=float).reshape(-1)
        res.setflags(write=False)
        object.__setattr__(self, "per_moment_residual_rel", res)

    def passes(self, tol: float, mass_tol: float) -> bool:
        return (
            self.weights_positive
            and self.support_ok
            and self.cardinality_ok
            and self.max_residual_rel <= tol
            and self.mass_gap_rel <= mass_tol
        )

    def to_dict(self) -> dict:
        """The report as JSON values; a residual that is not finite is None."""
        return {
            "per_moment_residual_rel": [
                _finite_or_none(r) for r in self.per_moment_residual_rel.tolist()
            ],
            "max_residual_rel": _finite_or_none(self.max_residual_rel),
            "weights_positive": self.weights_positive,
            "support_ok": self.support_ok,
            "cardinality_ok": self.cardinality_ok,
            "mass_gap_rel": _finite_or_none(self.mass_gap_rel),
        }


def verify_cubature(
    measure: DiscreteMeasure,
    cubature: Cubature,
    features: Features,
) -> VerificationReport:
    """Recompute both moment vectors and compare, flagging every invariant.

    Node indices outside the measure are an error (they cannot be checked
    against anything); a node whose coordinates disagree with the indexed
    atom is reported as a support violation instead.
    """
    return _verify_blocks(_views(measure), cubature, features)


def _verify_blocks(blocks, cubature: Cubature, features: Features) -> VerificationReport:
    """``verify_cubature`` over a measure's (atoms, weights) blocks, read
    once and in order; the index check comes when the atom count is known,
    at the end."""
    idx = cubature.node_indices
    sums = _MomentSums(features)
    rows = None  # the measure's rows at idx, filled in block by block
    for atoms, weights in blocks:
        if rows is None:
            rows = np.empty((idx.shape[0], atoms.shape[1]))
        here = (idx >= sums.count) & (idx < sums.count + weights.shape[0])
        rows[here] = atoms[idx[here] - sums.count]
        sums.add(atoms, weights)
        del atoms, weights  # not held while the next block is read
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= sums.count:
        raise IndexError(
            f"cubature references atom indices outside 0..{sums.count - 1}"
        )
    return _verification(sums, rows, cubature, features)


def _verification(
    sums: _MomentSums, rows: np.ndarray, cubature: Cubature, features: Features
) -> VerificationReport:
    """The report from a finished pass over the measure: ``sums`` holds its
    moments and mass, ``rows`` its atoms at the cubature's node indices."""
    target = sums.moments()
    # Both sides go through the same compensated accumulation, so an
    # identity cubature compares bitwise equal and reports zero residual.
    node_measure = DiscreteMeasure(atoms=cubature.nodes, weights=cubature.weights)
    achieved = moment_vector(node_measure, features)
    # The residual that ``reduce`` reports and ``verify_cubature`` judges by.
    residual = np.abs(achieved - target) / (1.0 + np.abs(target))

    support_ok = bool(np.array_equal(cubature.nodes, rows))
    weights_positive = bool((cubature.weights > 0.0).all())
    cardinality_ok = cubature.num_nodes <= feature_count(features)

    measure_mass = sums.mass
    cubature_mass = math.fsum(cubature.weights.tolist())
    mass_gap_rel = abs(cubature_mass - measure_mass) / measure_mass

    return VerificationReport(
        per_moment_residual_rel=residual,
        max_residual_rel=float(residual.max()),
        weights_positive=weights_positive,
        support_ok=support_ok,
        cardinality_ok=cardinality_ok,
        mass_gap_rel=mass_gap_rel,
    )
