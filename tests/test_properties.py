"""Property tests: the cubature contract of ``reduce`` over generated inputs.

Hypothesis runs derandomized with no deadline, so every run draws the same
examples.  It draws the shape of a measure (size, scale, offset, duplicate
or collinear structure) and a seed; the atoms themselves come from that
seeded generator, so they are generic within their structure.  Two more
properties vary the weights alone: scaling them by a power of two, and
weights from 1e-320 to 1e300.  One scales the coordinates by a power of
two.  One more test runs the contract on the benchmark's D = 126 measures
for ten seeds.
"""

import math

import numpy as np
import pytest
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
    report = _assert_contract(measure, basis)
    if measure.num_atoms <= 2 * basis.dimension:
        assert report.tree_levels == 0
    else:
        assert report.tree_levels >= 1
    assert report.elimination_steps <= measure.num_atoms - report.final_atoms


@pytest.mark.parametrize("seed", range(1, 11))
def test_reduce_d126_benchmark_measures_meet_the_contract(seed):
    # The draws of the benchmark's reduce-d126 workload
    # (perfbench/workloads.py, ReduceD126.setup): 1,000, 1,500 and 3,000
    # atoms in [-1, 1]^4 from one generator per seed, at D = 126.
    rng = np.random.default_rng(seed)
    basis = build_basis(4, None, 5)
    for num_atoms in (1000, 1500, 3000):
        atoms = rng.uniform(-1.0, 1.0, size=(num_atoms, 4))
        weights = rng.uniform(0.1, 2.0, size=num_atoms)
        _assert_contract(DiscreteMeasure(atoms, weights), basis)


def _assert_contract(measure, basis):
    """The five-part contract for ``reduce``; returns its report."""
    cubature, report = reduce(measure, basis)

    assert 1 <= cubature.num_nodes <= basis.dimension
    np.testing.assert_array_equal(cubature.nodes, measure.atoms[cubature.node_indices])
    assert (cubature.weights > 0.0).all()
    verification = verify_cubature(measure, cubature, basis)
    assert verification.passes(MOMENT_TOL, mass_tol=MASS_TOL), verification.to_dict()
    mass = measure.total_mass
    assert abs(math.fsum(cubature.weights.tolist()) - mass) <= MASS_TOL * mass

    again, _ = reduce(measure, basis)
    np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
    np.testing.assert_array_equal(again.weights, cubature.weights)
    return report


@settings(derandomize=True, deadline=None, max_examples=40)
@given(measures_and_bases(), st.integers(-900, 900))
def test_scaling_weights_by_a_power_of_two_scales_the_cubature_exactly(case, k):
    measure, basis = case
    scale = math.ldexp(1.0, k)
    cubature, _ = reduce(measure, basis)
    scaled, _ = reduce(DiscreteMeasure(measure.atoms, measure.weights * scale), basis)
    np.testing.assert_array_equal(scaled.node_indices, cubature.node_indices)
    np.testing.assert_array_equal(scaled.weights, cubature.weights * scale)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(measures_and_bases(), st.integers(-60, 60))
def test_scaling_coordinates_by_a_power_of_two_keeps_the_cubature_exactly(case, k):
    # x -> 2^k x scales the box's shift and half-width by 2^k exactly, so
    # the rescaled coordinates, and with them every step of the trees, are
    # bit-identical.  Far enough out (k = 344 at degree 3) a moment
    # overflows and reduce raises, which is another matter.  The verdict is
    # not compared: its residual is not unit-invariant.
    measure, basis = case
    cubature, report = reduce(measure, basis)
    scaled, scaled_report = reduce(
        DiscreteMeasure(np.ldexp(measure.atoms, k), measure.weights), basis
    )
    np.testing.assert_array_equal(scaled.node_indices, cubature.node_indices)
    assert scaled.weights.tobytes() == cubature.weights.tobytes()
    assert scaled_report.elimination_steps == report.elimination_steps
    assert scaled_report.rank_tol_factor == report.rank_tol_factor


@settings(derandomize=True, deadline=None, max_examples=40)
@given(measures_and_bases(), st.integers(0, 2**32 - 1))
def test_weights_from_subnormal_to_huge_meet_the_contract(case, seed):
    measure, basis = case
    # Atoms in [-1, 1]^N keep every moment below 3000 * 1e300.
    atoms = measure.atoms / max(1.0, np.abs(measure.atoms).max())
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-320.0, 300.0, measure.num_atoms)
    weights[0] = 1e-320
    weights[-1] = 1e300
    _assert_contract(DiscreteMeasure(atoms, weights), basis)
