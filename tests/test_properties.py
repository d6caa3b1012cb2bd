"""Property tests: the cubature contract of ``reduce`` over generated inputs.

Hypothesis runs derandomized with no deadline, so every run draws the same
examples.  It draws the shape of a measure (size, scale, offset, duplicate
or collinear structure) and a seed; the atoms themselves come from that
seeded generator, so they are generic within their structure.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from momcube import DiscreteMeasure, build_basis, reduce, verify_cubature

MOMENT_TOL = 1e-8
MASS_TOL = 1e-12


@st.composite
def measures_and_bases(draw):
    num_vars = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    basis = build_basis(num_vars, [1] * num_vars, degree)
    groups = 2 * basis.dimension
    # Below 2D the base case alone runs; above it one or more tree levels.
    num_atoms = draw(st.one_of(
        st.integers(1, groups),
        st.integers(groups + 1, 4 * groups),
        st.integers(4 * groups + 1, 3000),
    ))
    structure = draw(st.sampled_from(["generic", "duplicates", "collinear"]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1.0, -250.0, 1e6]))
    seed = draw(st.integers(0, 2**32 - 1))

    rng = np.random.default_rng(seed)
    if structure == "duplicates":
        pool = rng.uniform(-1.0, 1.0, (max(1, num_atoms // 4), num_vars))
        unit = pool[rng.integers(0, pool.shape[0], num_atoms)]
    elif structure == "collinear":
        # Every atom on one line through the box: rank-deficient features.
        t = rng.uniform(-1.0, 1.0, (num_atoms, 1))
        unit = t * rng.uniform(-1.0, 1.0, (1, num_vars))
    else:
        unit = rng.uniform(-1.0, 1.0, (num_atoms, num_vars))
    atoms = offset + scale * unit
    weights = rng.uniform(0.1, 2.0, num_atoms)
    return DiscreteMeasure(atoms, weights), basis


@settings(derandomize=True, deadline=None, max_examples=120)
@given(measures_and_bases())
def test_reduce_meets_the_cubature_contract(case):
    measure, basis = case
    cubature, report = reduce(measure, basis)

    assert 1 <= cubature.num_nodes <= basis.dimension
    np.testing.assert_array_equal(cubature.nodes, measure.atoms[cubature.node_indices])
    assert (cubature.weights > 0.0).all()
    verification = verify_cubature(measure, cubature, basis)
    assert verification.passes(MOMENT_TOL, mass_tol=MASS_TOL), verification.to_dict()
    mass = measure.total_mass
    assert abs(math.fsum(cubature.weights.tolist()) - mass) <= MASS_TOL * mass

    if measure.num_atoms <= 2 * basis.dimension:
        assert report.tree_levels == 0
    else:
        assert report.tree_levels >= 1
    assert report.elimination_steps <= measure.num_atoms - cubature.num_nodes

    again, _ = reduce(measure, basis)
    np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
    np.testing.assert_array_equal(again.weights, cubature.weights)
