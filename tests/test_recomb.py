"""Tests for the recombination engine: null vectors, pivots, reduction."""

import math

import numpy as np
import pytest

from momcube import (
    DiscreteMeasure,
    FunctionDictionary,
    build_basis,
    cubature_of_degree,
    moment_vector,
    reduce,
    verify_cubature,
)
from momcube.recomb import _eliminate, _null_basis
from oracles import enumerate_positive_cubatures, fsum_moments


def _unit_grid_measure(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    return DiscreteMeasure(pts, np.ones(pts.shape[0]))


def _symmetric(per_side):
    """Points in [1, 2] and their mirror images, none at 0."""
    side = np.linspace(1.0, 2.0, per_side)
    return np.concatenate([side, -side])


class TestFindNullVector:
    """The kernel's null basis, ``_null_basis``, at the unit rank tolerance."""

    def test_duplicate_columns(self):
        y = np.array([[1.0], [2.0], [-0.5]])
        null = _null_basis(np.hstack([y, y]), 1.0)
        assert null.shape == (2, 1)
        np.testing.assert_allclose(null[:, 0] / null[0, 0], [1.0, -1.0], atol=1e-14)

    def test_two_by_three(self):
        cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        null = _null_basis(cols, 1.0)
        assert null.shape == (3, 1)
        c = null[:, 0]
        reference = np.array([1.0, 1.0, -1.0])
        scale = c[np.argmax(np.abs(c))] / reference[np.argmax(np.abs(c))]
        np.testing.assert_allclose(c, scale * reference, atol=1e-14)

    def test_independent_columns_full_rank(self):
        assert _null_basis(np.eye(3), 1.0).shape == (3, 0)

    def test_single_nonzero_column_full_rank(self):
        assert _null_basis(np.array([[2.0], [1.0]]), 1.0).shape == (1, 0)

    def test_residual_and_normalization_randomized(self):
        # Every column is a null vector, and the columns are orthonormal.
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(d + 1, 2 * d + 4))
            cols = rng.standard_normal((d, m)) * rng.uniform(0.5, 20)
            null = _null_basis(cols, 1.0)
            assert null.shape == (m, m - d)
            np.testing.assert_allclose(null.T @ null, np.eye(m - d), atol=1e-13)
            max_colnorm = np.linalg.norm(cols, axis=0).max()
            bound = 100 * d * np.finfo(float).eps * max_colnorm
            assert np.linalg.norm(cols @ null, axis=0).max() <= bound


class TestEliminationStep:
    """One pivot of the kernel, ``_eliminate``."""

    def test_two_atom_transfer(self):
        w, j = _eliminate(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(w, [0.0, 2.0])
        assert j == 0

    def test_min_ratio_picks_smaller(self):
        w, j = _eliminate(np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0, -1.0]))
        np.testing.assert_array_equal(w, [1.0, 0.0, 2.0])
        assert j == 1

    def test_single_positive_entry(self):
        w, j = _eliminate(np.array([3.0, 4.0, 5.0]), np.array([0.0, 2.0, 0.0]))
        np.testing.assert_array_equal(w, [3.0, 0.0, 5.0])
        assert j == 1

    def test_all_negative_direction_is_negated(self):
        w, j = _eliminate(np.array([1.0, 2.0]), np.array([-1.0, -4.0]))
        assert j == 1
        np.testing.assert_allclose(w, [0.5, 0.0])

    def test_tie_breaks_to_smallest_index(self):
        w, j = _eliminate(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert j == 0
        np.testing.assert_array_equal(w, [0.0, 0.0])

    def test_preserves_weighted_column_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d, m = 4, 9
            cols = rng.standard_normal((d, m))
            w = rng.uniform(0.1, 3.0, m)
            c = _null_basis(cols, 1.0)[:, 0]
            new_w, j = _eliminate(w, c)
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
            verification = verify_cubature(measure, cubature, basis)
            assert verification.max_residual_rel <= 1e-8
            assert verification.mass_gap_rel <= 1e-12

    def test_dictionary_features(self):
        rng = np.random.default_rng(43)
        measure = DiscreteMeasure(rng.uniform(0, 3, (30, 1)), rng.uniform(0.5, 2, 30))
        features = FunctionDictionary(
            3, lambda x: np.array([np.sin(x[0]), np.cos(x[0]), x[0]]), name="trig"
        )
        target = moment_vector(measure, features)
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

    @pytest.mark.parametrize(
        "points",
        [
            pytest.param(_symmetric(3), id="3"),
            pytest.param(_symmetric(100), id="100"),
            pytest.param([-1.0, 0.0, 1.0], id="zero-in-middle"),
            pytest.param([-1.0, 1.0, 0.0], id="zero-last"),
        ],
    )
    def test_cancelling_features_raise(self, points):
        # x sums to zero over atoms symmetric about 0.  Above 2D atoms the
        # group means cancel and the atoms stay unreduced, so the outcome does
        # not depend on the atom order, also when an atom sits at x = 0.
        measure = _unit_grid_measure(points)
        with pytest.raises(ValueError, match="cancel"):
            reduce(measure, FunctionDictionary(1, lambda x: np.array([x[0]])))

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


class TestSweepFactorizations:
    """The kernel factorizes once per round and eliminates along the null
    basis with Gaussian column updates."""

    def test_two_factorizations_per_kernel_call_at_d126(self):
        rng = np.random.default_rng(131)
        measure = DiscreteMeasure(
            rng.uniform(-1.0, 1.0, (3000, 4)), rng.uniform(0.1, 2.0, 3000)
        )
        cubature, report = cubature_of_degree(measure, 4, [1, 1, 1, 1], 5)
        assert cubature.num_nodes <= 126
        # One kernel call per tree level plus the base case; each takes one
        # SVD and one closing check.  Uniform atoms give no ties, so no
        # round ends early.
        kernel_calls = report.tree_levels + 1
        assert report.tree_levels > 0
        assert report.factorizations <= 2 * kernel_calls
        assert 20 * report.factorizations < report.elimination_steps

    def test_tie_refactorizes(self):
        # The one null direction is proportional to (1, -2, 2, -1); with
        # weights (1, 2, 2, 1) either sign zeroes two weights in one step,
        # which ends the round: the next factorization is the closing check.
        measure = DiscreteMeasure(
            np.array([[-1.0], [-0.5], [0.5], [1.0]]), np.array([1.0, 2.0, 2.0, 1.0])
        )
        basis = build_basis(1, [1], 2)
        cubature, report = reduce(measure, basis)
        assert report.elimination_steps == 1
        assert report.factorizations == 2
        assert cubature.num_nodes == 2
        target = fsum_moments(measure.atoms, measure.weights, basis.indices)
        achieved = fsum_moments(cubature.nodes, cubature.weights, basis.indices)
        assert (np.abs(achieved - target) <= 1e-14 * (1.0 + np.abs(target))).all()

    @pytest.mark.parametrize(
        "atoms, min_tol_factor",
        [
            pytest.param(
                np.random.default_rng(137).uniform(0.0, 1.0, 42) ** 3, 1.0, id="clustered"
            ),
            pytest.param(
                1e6 + np.random.default_rng(139).uniform(0.0, 1.0, 42), 1e6, id="offset"
            ),
        ],
    )
    def test_long_update_chain_keeps_the_contract(self, atoms, min_tol_factor):
        # 42 atoms at degree 20 (D = 21) are one base case: about 21
        # eliminations ride on Gaussian updates of one ill-conditioned null
        # basis.
        measure = DiscreteMeasure(
            atoms.reshape(-1, 1), np.random.default_rng(149).uniform(0.5, 2.0, 42)
        )
        basis = build_basis(1, [1], 20)
        cubature, report = reduce(measure, basis)
        assert report.elimination_steps > 2 * report.factorizations
        assert report.rank_tol_factor >= min_tol_factor
        assert 1 <= cubature.num_nodes <= basis.dimension
        assert (cubature.weights > 0).all()
        np.testing.assert_array_equal(cubature.nodes, measure.atoms[cubature.node_indices])
        verification = verify_cubature(measure, cubature, basis)
        assert verification.max_residual_rel <= 1e-8
        assert verification.mass_gap_rel <= 1e-12
        again, _ = reduce(measure, basis)
        np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
        np.testing.assert_array_equal(again.weights, cubature.weights)


def _on_line(n, offset):
    xs = offset + np.linspace(0.0, 1.0, n)
    return np.column_stack([xs, 2.0 * xs + 1.0])


def _on_circle(n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(t), np.sin(t)])


class TestDetectedRank:
    """``detected_rank`` is the dimension of the span of the atoms' feature
    columns, decided from singular values; on these inputs it is known in
    closed form."""

    @pytest.mark.parametrize("atoms, degree, rank", [
        # Polynomials of degree <= 3 restricted to a line: 1, t, t^2, t^3.
        (_on_line(500, 0.0), 3, 4),
        # Six quadratics, one relation x^2 + y^2 = 1.
        (_on_circle(200), 2, 5),
        # On the circle, degree 2m spans 4m + 1 trigonometric functions.
        (_on_circle(200), 4, 9),
        # Far from the origin: the rescale's noise factor keeps the rank.
        (_on_line(200, 1e6), 2, 3),
        # Seven distinct points, each repeated 40 times.
        (np.repeat(np.linspace(-3.0, 3.0, 7), 40).reshape(-1, 1), 9, 7),
        # Generic points span every monomial: D = C(4 + 5, 4).
        (np.random.default_rng(5).uniform(-1.0, 1.0, (3000, 4)), 5, 126),
    ], ids=["line-deg3", "circle-deg2", "circle-deg4", "offset-line-deg2",
            "repeated-points-deg9", "cube4-deg5"])
    def test_closed_form_rank(self, atoms, degree, rank):
        num_vars = atoms.shape[1]
        measure = DiscreteMeasure(atoms, np.ones(atoms.shape[0]))
        cubature, report = cubature_of_degree(measure, num_vars, [1] * num_vars, degree)
        assert report.detected_rank == rank
        assert cubature.num_nodes <= rank


class TestReduceStreaming:
    """reduce on inputs far larger than D: many tree levels, several chunks."""

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

    def test_tree_keeps_elimination_count_low(self):
        # One elimination per removed atom would be 99,980 steps here.
        rng = np.random.default_rng(97)
        measure = DiscreteMeasure(
            rng.uniform(-10, 10, (100_000, 3)), rng.uniform(0.1, 2.0, 100_000)
        )
        cubature, report = reduce(measure, build_basis(3, [1, 1, 1], 3))
        assert cubature.num_nodes <= 20
        assert report.tree_levels > 0
        assert report.elimination_steps < 10_000
        assert report.rank_tol_factor >= 1.0
        assert {"tree_levels", "rank_tol_factor"} <= set(report.to_dict())

    def test_dictionary_reduction_across_chunk_boundary(self):
        # 70,000 atoms span two 65,536-atom chunks.
        n = 70_000
        measure = DiscreteMeasure(
            np.linspace(-1.0, 2.0, n).reshape(-1, 1), 1.0 + 0.5 * np.sin(np.arange(n))
        )
        features = FunctionDictionary(3, lambda x: np.array([1.0, x[0], x[0] ** 2]))
        cubature, report = reduce(measure, features)
        assert cubature.num_nodes <= 3
        np.testing.assert_array_equal(
            cubature.nodes, measure.atoms[cubature.node_indices]
        )
        target = moment_vector(measure, features)
        achieved = moment_vector(
            DiscreteMeasure(cubature.nodes, cubature.weights), features
        )
        np.testing.assert_allclose(achieved, target, rtol=1e-12)
        assert report.detected_rank == 3
        again, _ = reduce(measure, features)
        np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
        np.testing.assert_array_equal(again.weights, cubature.weights)

    def test_cancelling_first_chunk_is_carried_into_the_next(self):
        # The first 65,536-atom chunk is symmetric about 0, so its group means
        # cancel and it is carried, unreduced, into the second chunk, whose
        # 100 extra atoms break the symmetry.  Sweeping the first chunk atom
        # by atom instead took 65,542 eliminations.
        pts = np.concatenate([_symmetric(32_768), np.linspace(0.5, 1.0, 100)])
        measure = _unit_grid_measure(pts)
        features = FunctionDictionary(1, lambda x: np.array([x[0]]))
        cubature, report = reduce(measure, features)
        assert cubature.num_nodes <= 1
        assert (cubature.weights > 0).all()
        np.testing.assert_array_equal(
            cubature.nodes, measure.atoms[cubature.node_indices]
        )
        target = moment_vector(measure, features)
        achieved = moment_vector(
            DiscreteMeasure(cubature.nodes, cubature.weights), features
        )
        np.testing.assert_allclose(achieved, target, rtol=1e-12)
        assert report.max_moment_residual_rel <= 1e-12
        assert report.elimination_steps < 1000
        again, _ = reduce(measure, features)
        np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
        np.testing.assert_array_equal(again.weights, cubature.weights)

    def test_second_chunk_error_names_the_global_atom(self):
        def failing_at_70000(x):
            if x[0] == 70_000.0:
                raise RuntimeError("boom")
            return np.array([1.0, x[0]])

        measure = _unit_grid_measure(np.arange(70_001))
        with pytest.raises(ValueError, match=r"atom 70000\b"):
            reduce(measure, FunctionDictionary(2, failing_at_70000))

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
        verification = verify_cubature(measure, cubature, basis)
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
        # D = 10: 400 atoms take several tree levels above the 20-atom base case.
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
