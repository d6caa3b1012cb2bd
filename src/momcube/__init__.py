"""momcube: compress discrete measures into exact cubature formulas.

A discrete positive measure on R^N is thinned onto at most D of its own
atoms (D the dimension of the weighted-degree polynomial space), with
strictly positive weights and every moment up to the degree bound
preserved.  The geometry side answers truncated moment problems over a
candidate grid via certified convex membership.
"""

from .basis import (
    BasisError,
    DegreeFunction,
    MonomialBasis,
    MultiIndex,
    basis_from_config,
    build_basis,
    embed_block,
)
from .geometry import (
    FeasibilityResult,
    FeasibilityStatus,
    SeparatingFunctional,
    cone_membership,
    hull_membership,
    load_moment_file,
    moments_to_dict,
    truncated_moment_feasible,
)
from .measure import (
    DiscreteMeasure,
    FunctionDictionary,
    MeasureFormatError,
    load_measure,
    moment_vector,
)
from .recomb import (
    Cubature,
    ReductionReport,
    cubature_of_degree,
    reduce,
)
from .verify import VerificationReport, verify_cubature

__version__ = "0.1.0"

__all__ = [
    "BasisError",
    "Cubature",
    "DegreeFunction",
    "DiscreteMeasure",
    "FeasibilityResult",
    "FeasibilityStatus",
    "FunctionDictionary",
    "MeasureFormatError",
    "MonomialBasis",
    "MultiIndex",
    "ReductionReport",
    "SeparatingFunctional",
    "VerificationReport",
    "basis_from_config",
    "build_basis",
    "cone_membership",
    "cubature_of_degree",
    "embed_block",
    "hull_membership",
    "load_measure",
    "load_moment_file",
    "moment_vector",
    "moments_to_dict",
    "reduce",
    "truncated_moment_feasible",
    "verify_cubature",
]
