"""Tests for the recombination engine: null vectors, pivots, reduction."""

import math

import numpy as np
import pytest

from momcube import (
    DiscreteMeasure,
    FunctionDictionary,
    build_basis,
    cubature_of_degree,
    elimination_step,
    find_null_vector,
    moment_vector,
    reduce,
    verify_cubature,
)
from oracles import enumerate_positive_cubatures, fsum_moments


def _unit_grid_measure(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    return DiscreteMeasure(pts, np.ones(pts.shape[0]))


class TestFindNullVector:
    def test_duplicate_columns(self):
        y = np.array([[1.0], [2.0], [-0.5]])
        c = find_null_vector(np.hstack([y, y]))
        assert c is not None
        np.testing.assert_allclose(c / c[0], [1.0, -1.0], atol=1e-14)

    def test_two_by_three(self):
        cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        c = find_null_vector(cols)
        assert c is not None
        reference = np.array([1.0, 1.0, -1.0])
        scale = c[np.argmax(np.abs(c))] / reference[np.argmax(np.abs(c))]
        np.testing.assert_allclose(c, scale * reference, atol=1e-14)

    def test_independent_columns_full_rank(self):
        assert find_null_vector(np.eye(3)) is None

    def test_single_nonzero_column_full_rank(self):
        assert find_null_vector(np.array([[2.0], [1.0]])) is None

    def test_residual_and_normalization_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(d + 1, 2 * d + 4))
            cols = rng.standard_normal((d, m)) * rng.uniform(0.5, 20)
            c = find_null_vector(cols)
            assert c is not None
            assert np.abs(c).max() == 1.0
            max_colnorm = np.linalg.norm(cols, axis=0).max()
            bound = 100 * d * np.finfo(float).eps * max_colnorm * np.linalg.norm(c)
            assert np.linalg.norm(cols @ c) <= bound

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            find_null_vector(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            find_null_vector(np.ones(3))


class TestEliminationStep:
    def test_two_atom_transfer(self):
        w, j = elimination_step(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(w, [0.0, 2.0])
        assert j == 0

    def test_min_ratio_picks_smaller(self):
        w, j = elimination_step(np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, -1.0]))
        np.testing.assert_array_equal(w, [1.0, 0.0, 2.0])
        assert j == 1

    def test_single_positive_entry(self):
        w, j = elimination_step(np.array([3.0, 4.0, 5.0]), np.array([0.0, 2.0, 0.0]))
        np.testing.assert_array_equal(w, [3.0, 0.0, 5.0])
        assert j == 1

    def test_all_negative_direction_is_negated(self):
        w, j = elimination_step(np.array([1.0, 2.0]), np.array([-1.0, -4.0]))
        assert j == 1
        np.testing.assert_allclose(w, [0.5, 0.0])

    def test_tie_breaks_to_smallest_index(self):
        w, j = elimination_step(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert j == 0
        np.testing.assert_array_equal(w, [0.0, 0.0])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            elimination_step(np.ones(3), np.zeros(3))

    def test_preserves_weighted_column_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d, m = 4, 9
            cols = rng.standard_normal((d, m))
            w = rng.uniform(0.1, 3.0, m)
            c = find_null_vector(cols)
            new_w, j = elimination_step(w, c)
            assert new_w[j] == 0.0
            assert (new_w >= 0.0).all()
            np.testing.assert_allclose(cols @ new_w, cols @ w, atol=1e-10)


class TestReduce:
    def test_single_atom_unchanged(self):
        measure = DiscreteMeasure(np.array([[4.0, -1.0]]), np.array([2.5]))
        cubature, report = reduce(measure, build_basis(2, [1, 1], 3))
        assert cubature.num_nodes == 1
        np.testing.assert_array_equal(cubature.nodes, measure.atoms)
        np.testing.assert_allclose(cubature.weights, [2.5])
        assert report.elimination_steps == 0

    def test_five_point_grid_in_oracle_set(self):
        measure = _unit_grid_measure([0, 1, 2, 3, 4])
        basis = build_basis(1, [1], 2)
        cubature, report = reduce(measure, basis)
        assert cubature.num_nodes <= 3
        valid = enumerate_positive_cubatures(
            measure.atoms, measure.weights, basis.indices, max_nodes=3
        )
        supports = {s for s, _ in valid}
        key = tuple(cubature.node_indices.tolist())
        assert key in supports
        oracle_weights = dict(valid)[key]
        np.testing.assert_allclose(cubature.weights, oracle_weights, rtol=1e-9)

    def test_collinear_atoms_rank_two(self):
        rng = np.random.default_rng(37)
        xs = rng.uniform(-5, 5, 40)
        atoms = np.column_stack([xs, 0.7 * xs - 2.0])
        measure = DiscreteMeasure(atoms, rng.uniform(0.5, 1.5, 40))
        cubature, report = reduce(measure, build_basis(2, [1, 1], 1))
        assert report.detected_rank == 2
        assert cubature.num_nodes <= 2

    def test_random_suite_contract(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            num_atoms = int(rng.integers(2, 60))
            atoms = rng.uniform(-10, 10, (num_atoms, n))
            weights = rng.uniform(0.1, 5.0, num_atoms)
            measure = DiscreteMeasure(atoms, weights)
            basis = build_basis(n, [1] * n, m)
            cubature, report = reduce(measure, basis)
            assert 1 <= cubature.num_nodes <= basis.dimension
            assert cubature.num_nodes <= report.detected_rank
            assert report.elimination_steps <= num_atoms - cubature.num_nodes
            assert (cubature.weights > 0).all()
            np.testing.assert_array_equal(
                cubature.nodes, measure.atoms[cubature.node_indices]
            )
            verification = verify_cubature(measure, cubature, basis, 1e-8)
            assert verification.max_residual_rel <= 1e-8
            assert verification.mass_gap_rel <= 1e-12

    def test_dictionary_features(self):
        rng = np.random.default_rng(43)
        measure = DiscreteMeasure(rng.uniform(0, 3, (30, 1)), rng.uniform(0.5, 2, 30))
        features = FunctionDictionary(
            3, lambda x: np.array([np.sin(x[0]), np.cos(x[0]), x[0]]), name="trig"
        )
        target = moment_vector(measure, features).values
        cubature, report = reduce(measure, features)
        assert cubature.num_nodes <= 3
        assert cubature.degree is None
        assert cubature.basis_id == "trig:d=3"
        achieved = np.array(
            [
                math.fsum(
                    w * f
                    for w, f in zip(
                        cubature.weights, [features.evaluate(x)[j] for x in cubature.nodes]
                    )
                )
                for j in range(3)
            ]
        )
        np.testing.assert_allclose(achieved, target, rtol=1e-9, atol=1e-12)

    def test_duplicate_atoms_merge(self):
        atoms = np.array([[1.0], [1.0], [1.0]])
        measure = DiscreteMeasure(atoms, np.array([1.0, 2.0, 3.0]))
        cubature, _ = reduce(measure, build_basis(1, [1], 2))
        assert cubature.num_nodes == 1
        np.testing.assert_allclose(cubature.weights, [6.0])

    def test_micro_oracle_cubic(self):
        # Integer-grid micro measures against exhaustive enumeration, D = 4.
        basis = build_basis(1, [1], 3)
        rng = np.random.default_rng(71)
        for _ in range(10):
            size = int(rng.integers(2, 9))
            subset = rng.choice(8, size=size, replace=False)
            subset.sort()
            atoms = subset.astype(float).reshape(-1, 1)
            measure = DiscreteMeasure(atoms, np.ones(size))
            cubature, _ = reduce(measure, basis)
            assert cubature.num_nodes <= 4
            valid = dict(
                enumerate_positive_cubatures(atoms, measure.weights, basis.indices, 4)
            )
            key = tuple(cubature.node_indices.tolist())
            assert key in valid
            np.testing.assert_allclose(cubature.weights, valid[key], rtol=1e-8, atol=1e-9)


class TestReduceStreaming:
    """reduce on inputs far larger than its working set."""

    def test_large_grid_matches_direct_sums(self):
        pts = np.linspace(0.0, 1.0, 10_000)
        measure = _unit_grid_measure(pts)
        basis = build_basis(1, [1], 4)
        cubature, report = reduce(measure, basis)
        assert cubature.num_nodes <= 5
        target = fsum_moments(measure.atoms, measure.weights, basis.indices)
        achieved = np.array(
            [
                math.fsum(
                    w * x[0] ** sum(alpha)
                    for w, x in zip(cubature.weights, cubature.nodes)
                )
                for alpha in basis.indices
            ]
        )
        np.testing.assert_allclose(achieved, target, rtol=1e-10)

    def test_dictionary_error_names_the_global_atom(self):
        def failing_at_150(x):
            if x[0] == 150.0:
                raise RuntimeError("boom")
            return np.array([1.0, x[0]])

        measure = _unit_grid_measure(np.arange(200))
        with pytest.raises(ValueError, match=r"atom 150\b"):
            reduce(measure, FunctionDictionary(2, failing_at_150))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_dictionary_features(self, bad):
        measure = _unit_grid_measure(np.linspace(0.0, 1.0, 201))
        features = FunctionDictionary(
            2, lambda x: np.array([1.0, x[0] if x[0] <= 0.5 else bad])
        )
        with pytest.raises(ValueError, match=r"non-finite value at atom 101\b"):
            reduce(measure, features)


class TestCubatureOfDegree:
    def test_hundred_and_one_point_grid(self):
        measure = _unit_grid_measure(np.linspace(0.0, 1.0, 101))
        cubature, report = cubature_of_degree(measure, 1, [1], 4)
        assert cubature.num_nodes <= 5
        basis = build_basis(1, [1], 4)
        verification = verify_cubature(measure, cubature, basis, 1e-10)
        assert verification.max_residual_rel <= 1e-10
        assert report.rescaling is not None

    def test_single_atom(self):
        measure = DiscreteMeasure(np.array([[7.0]]), np.array([3.0]))
        cubature, _ = cubature_of_degree(measure, 1, [1], 6)
        assert cubature.num_nodes == 1
        np.testing.assert_array_equal(cubature.nodes, [[7.0]])
        np.testing.assert_allclose(cubature.weights, [3.0])

    def test_weighted_degree_bound(self):
        rng = np.random.default_rng(59)
        measure = DiscreteMeasure(rng.uniform(-10, 10, (1000, 2)), rng.uniform(0.1, 2, 1000))
        cubature, report = cubature_of_degree(measure, 2, [1, 2], 3)
        assert cubature.num_nodes <= 6
        assert report.detected_rank <= 6

    def test_dimension_mismatch_rejected(self):
        measure = _unit_grid_measure([0, 1])
        with pytest.raises(ValueError):
            cubature_of_degree(measure, 2, [1, 1], 2)

    def test_mass_conserved_tightly(self):
        rng = np.random.default_rng(61)
        measure = DiscreteMeasure(
            rng.uniform(-10, 10, (2000, 3)), rng.uniform(1e-3, 1e3, 2000)
        )
        cubature, _ = cubature_of_degree(measure, 3, [1, 1, 1], 2)
        mass = measure.total_mass
        assert abs(math.fsum(cubature.weights.tolist()) - mass) <= 1e-12 * mass

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(67)
        atoms = rng.uniform(-4, 4, (800, 2))
        weights = rng.uniform(0.1, 1, 800)
        first, _ = cubature_of_degree(DiscreteMeasure(atoms, weights), 2, [1, 1], 3)
        second, _ = cubature_of_degree(DiscreteMeasure(atoms, weights), 2, [1, 1], 3)
        np.testing.assert_array_equal(first.node_indices, second.node_indices)
        np.testing.assert_array_equal(first.weights, second.weights)
        np.testing.assert_array_equal(first.nodes, second.nodes)

    def test_large_input_matches_reduce(self):
        rng = np.random.default_rng(5)
        measure = DiscreteMeasure(rng.uniform(-1, 1, (400, 2)), rng.uniform(0.1, 2, 400))
        # D = 10: 400 atoms pass through several 64-column working sets.
        basis = build_basis(2, [1, 1], 3)
        direct, _ = reduce(measure, basis)
        cubature, _ = cubature_of_degree(measure, 2, [1, 1], 3)
        np.testing.assert_array_equal(cubature.node_indices, direct.node_indices)
        np.testing.assert_array_equal(cubature.weights, direct.weights)

    def test_degree_zero_single_node_total_mass(self):
        measure = _unit_grid_measure([3, 4, 5])
        cubature, _ = cubature_of_degree(measure, 1, [1], 0)
        assert cubature.num_nodes == 1
        np.testing.assert_allclose(cubature.weights.sum(), 3.0)
