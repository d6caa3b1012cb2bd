"""Independent validation of a claimed cubature against its source measure.

Everything is recomputed from scratch in original coordinates with
compensated summation: this module must not inherit any state (rescaling,
cached features) from the engine that produced the cubature, otherwise it
would inherit its errors too.  It shares only the residual function,
``measure._relative_residuals``, a pure function of two moment vectors.
``verify_cubature`` takes no tolerance: its report carries the raw
residuals and flags, and callers judge it with
``VerificationReport.passes(tol, mass_tol)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    DiscreteMeasure,
    Features,
    _finite_or_none,
    _relative_residuals,
    feature_count,
    moment_vector,
)
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

    def passes(self, tol: float, mass_tol: float | None = None) -> bool:
        ok = (
            self.weights_positive
            and self.support_ok
            and self.cardinality_ok
            and self.max_residual_rel <= tol
        )
        if mass_tol is not None:
            ok = ok and self.mass_gap_rel <= mass_tol
        return ok

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
    idx = cubature.node_indices
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= measure.num_atoms:
        raise IndexError(
            f"cubature references atom indices outside 0..{measure.num_atoms - 1}"
        )

    target = moment_vector(measure, features)
    # Both sides go through the same compensated accumulation, so an
    # identity cubature compares bitwise equal and reports zero residual.
    node_measure = DiscreteMeasure(atoms=cubature.nodes, weights=cubature.weights)
    achieved = moment_vector(node_measure, features)
    residual = _relative_residuals(achieved, target)

    support_ok = bool(np.array_equal(cubature.nodes, measure.atoms[idx]))
    weights_positive = bool((cubature.weights > 0.0).all())
    cardinality_ok = cubature.num_nodes <= feature_count(features)

    measure_mass = measure.total_mass
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
