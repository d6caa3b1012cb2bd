"""Tests for independent cubature verification."""

import json

import numpy as np
import pytest

from momcube import (
    Cubature,
    DiscreteMeasure,
    FunctionDictionary,
    build_basis,
    cubature_of_degree,
    reduce,
    verify_cubature,
)


def _identity_cubature(measure, basis):
    return Cubature(
        node_indices=np.arange(measure.num_atoms),
        nodes=measure.atoms,
        weights=measure.weights,
        degree=basis.max_degree,
        basis_id=basis.identifier,
    )


@pytest.fixture
def grid_measure():
    # 5 atoms <= dimension 6 of the degree-2 basis, so an identity cubature
    # satisfies every flag including cardinality.
    rng = np.random.default_rng(97)
    return DiscreteMeasure(rng.uniform(-2, 2, (5, 2)), rng.uniform(0.5, 2, 5))


@pytest.fixture
def grid_basis():
    return build_basis(2, [1, 1], 2)


class TestVerifyCubature:
    def test_identity_cubature_is_exact(self, grid_measure, grid_basis):
        report = verify_cubature(
            grid_measure, _identity_cubature(grid_measure, grid_basis), grid_basis
        )
        assert report.max_residual_rel == 0.0
        assert report.per_moment_residual_rel.max() == 0.0
        assert report.weights_positive and report.support_ok
        assert report.mass_gap_rel == 0.0
        assert report.passes(1e-8, 1e-12)

    def test_tampered_weight_fails_mass(self, grid_measure, grid_basis):
        weights = grid_measure.weights.copy()
        weights[0] *= 2.0
        tampered = Cubature(
            node_indices=np.arange(grid_measure.num_atoms),
            nodes=grid_measure.atoms,
            weights=weights,
            degree=grid_basis.max_degree,
            basis_id=grid_basis.identifier,
        )
        report = verify_cubature(grid_measure, tampered, grid_basis)
        assert report.mass_gap_rel > 1e-8
        assert not report.passes(1e-8, 1e-12)

    def test_tampered_node_flags_support(self, grid_measure, grid_basis):
        nodes = grid_measure.atoms.copy()
        nodes[2, 0] += 1e-3
        tampered = Cubature(
            node_indices=np.arange(grid_measure.num_atoms),
            nodes=nodes,
            weights=grid_measure.weights,
            degree=grid_basis.max_degree,
            basis_id=grid_basis.identifier,
        )
        report = verify_cubature(grid_measure, tampered, grid_basis)
        assert not report.support_ok
        assert not report.passes(1e-8)

    def test_out_of_range_index_is_an_error(self, grid_measure, grid_basis):
        bad = Cubature(
            node_indices=np.array([0, 99]),
            nodes=grid_measure.atoms[:2],
            weights=np.ones(2),
            degree=grid_basis.max_degree,
            basis_id=grid_basis.identifier,
        )
        with pytest.raises(IndexError):
            verify_cubature(grid_measure, bad, grid_basis)

    def test_cardinality_flag(self, grid_measure):
        tiny_basis = build_basis(2, [1, 1], 0)
        report = verify_cubature(
            grid_measure, _identity_cubature(grid_measure, tiny_basis), tiny_basis
        )
        assert not report.cardinality_ok
        assert not report.passes(1e-8)

    def test_reduction_output_verifies(self):
        measure = DiscreteMeasure(
            np.linspace(0, 1, 101).reshape(-1, 1), np.ones(101)
        )
        basis = build_basis(1, [1], 4)
        cubature, _ = cubature_of_degree(measure, 1, [1], 4)
        report = verify_cubature(measure, cubature, basis)
        assert report.max_residual_rel <= 1e-10
        assert report.passes(1e-10, 1e-12)

    def test_report_json_keys_are_stable(self, grid_measure, grid_basis):
        report = verify_cubature(
            grid_measure, _identity_cubature(grid_measure, grid_basis), grid_basis
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert list(payload) == [
            "per_moment_residual_rel",
            "max_residual_rel",
            "weights_positive",
            "support_ok",
            "cardinality_ok",
            "mass_gap_rel",
        ]

    def test_inputs_not_mutated(self, grid_measure, grid_basis):
        cubature = _identity_cubature(grid_measure, grid_basis)
        atoms_before = grid_measure.atoms.copy()
        weights_before = cubature.weights.copy()
        verify_cubature(grid_measure, cubature, grid_basis)
        np.testing.assert_array_equal(grid_measure.atoms, atoms_before)
        np.testing.assert_array_equal(cubature.weights, weights_before)


class TestResidualsAgree:
    """reduce's reported residual is verify_cubature's, to the last bit."""

    @pytest.mark.parametrize("n, num_vars, degree", [(50, 1, 4), (3000, 2, 5), (20_000, 3, 3)])
    def test_monomial_basis(self, n, num_vars, degree):
        rng = np.random.default_rng(n)
        measure = DiscreteMeasure(
            rng.uniform(-3.0, 5.0, (n, num_vars)), rng.uniform(0.1, 2.0, n)
        )
        basis = build_basis(num_vars, None, degree)
        cubature, report = reduce(measure, basis)
        verification = verify_cubature(measure, cubature, basis)
        assert report.max_moment_residual_rel > 0.0
        assert report.max_moment_residual_rel == verification.max_residual_rel

    def test_function_dictionary(self):
        measure = DiscreteMeasure(np.linspace(0.0, 3.0, 500).reshape(-1, 1), np.ones(500))
        features = FunctionDictionary(
            3, lambda x: np.array([np.sin(x[0]), np.cos(x[0]), x[0]])
        )
        cubature, report = reduce(measure, features)
        verification = verify_cubature(measure, cubature, features)
        assert report.max_moment_residual_rel == verification.max_residual_rel
