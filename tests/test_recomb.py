"""Tests for the recombination engine: null vectors, pivots, reduction."""

import math
import tracemalloc

import numpy as np
import pytest

import momcube.recomb
from momcube import (
    DiscreteMeasure,
    FunctionDictionary,
    build_basis,
    cubature_of_degree,
    moment_vector,
    reduce,
    verify_cubature,
)
from momcube.basis import embed_block
from momcube.recomb import _eliminate, _null_basis, _sweep
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

    def test_full_rank_check_forms_no_singular_vectors(self, monkeypatch):
        # At most D columns of full rank: the values-only SVD is the closing
        # check, and no U or V is formed.
        calls = []
        svd = np.linalg.svd

        def logged_svd(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", logged_svd)
        cols = np.random.default_rng(201).standard_normal((9, 7))
        assert _null_basis(cols, 1.0).shape == (7, 0)
        assert calls == [False]

    def test_rank_deficient_narrow_inputs(self):
        # At most D columns of rank r < n: n - r orthonormal null vectors.
        rng = np.random.default_rng(203)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            n = int(rng.integers(2, d + 1))
            rank = int(rng.integers(1, n))
            cols = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
            null = _null_basis(cols, 1.0)
            assert null.shape == (n, n - rank)
            np.testing.assert_allclose(null.T @ null, np.eye(n - rank), atol=1e-13)
            bound = 100 * d * np.finfo(float).eps * np.linalg.norm(cols, axis=0).max()
            assert np.linalg.norm(cols @ null, axis=0).max() <= bound

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

    def test_rank_deficient_wide_inputs(self):
        # Above d columns the basis takes no rank decision: whatever the
        # rank, every returned column is a null vector.
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            rank = int(rng.integers(1, d))
            m = int(rng.integers(d + 1, 2 * d + 4))
            cols = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, m))
            cols *= rng.uniform(0.5, 20)
            null = _null_basis(cols, 1.0)
            assert null.shape == (m, m - d)
            np.testing.assert_allclose(null.T @ null, np.eye(m - d), atol=1e-13)
            max_colnorm = np.linalg.norm(cols, axis=0).max()
            bound = 100 * d * np.finfo(float).eps * max_colnorm
            assert np.linalg.norm(cols @ null, axis=0).max() <= bound


    @pytest.mark.parametrize("zero_row", [0, 2])
    def test_identity_reflector_divides_by_nothing(self, zero_row):
        # A feature that vanishes on every atom is a zero column of the
        # transpose, so its Householder reflector is the identity (tau = 0),
        # and a repeated feature makes the columns dependent.  The compact WY
        # form must neither divide by that tau nor lose orthonormality.
        rng = np.random.default_rng(181)
        cols = rng.standard_normal((6, 14))
        cols[zero_row] = 0.0
        cols[4] = cols[3]
        assert (np.linalg.qr(cols.T, mode="raw")[1] == 0.0).any()
        with np.errstate(all="raise"):
            null = _null_basis(cols, 1.0)
        assert null.shape == (14, 8)
        np.testing.assert_allclose(null.T @ null, np.eye(8), atol=1e-13)
        bound = 100 * 6 * np.finfo(float).eps * np.linalg.norm(cols, axis=0).max()
        assert np.linalg.norm(cols @ null, axis=0).max() <= bound

    def test_matches_the_complete_qr(self):
        # The WY form gives the trailing columns of the same Q as a complete
        # QR, up to rounding.
        rng = np.random.default_rng(191)
        for d, m in [(1, 2), (5, 9), (20, 40), (56, 112)]:
            cols = rng.standard_normal((d, m))
            expected = np.linalg.qr(cols.T, mode="complete")[0][:, d:]
            np.testing.assert_allclose(_null_basis(cols, 1.0), expected, atol=1e-13)


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

    def test_matches_the_formula_with_a_closing_clamp_bit_for_bit(self):
        # The kernel once ended with np.maximum(out, 0); the debris threshold
        # is nonnegative and already zeroes every negative entry, so dropping
        # the clamp must not change a single bit.  Dead atoms carry weight 0
        # and direction entry 0, as in the kernel.
        def clamped(w, c):
            pos = c > 0.0
            if not pos.any():
                c = -c
                pos = c > 0.0
            ratio = np.full(c.shape[0], np.inf)
            np.divide(w, c, out=ratio, where=pos)
            j_star = int(np.argmin(ratio))
            shift = ratio[j_star] * c
            out = w - shift
            out[out <= 32.0 * np.finfo(float).eps * (np.abs(w) + np.abs(shift))] = 0.0
            out[j_star] = 0.0
            np.maximum(out, 0.0, out=out)
            return out, j_star

        rng = np.random.default_rng(73)
        for trial in range(300):
            m = int(rng.integers(2, 60))
            w = rng.uniform(0.0, 3.0, m) * 10.0 ** rng.integers(-3, 4)
            c = rng.standard_normal(m)
            dead = rng.random(m) < 0.3
            dead[int(rng.integers(m))] = False
            w[dead] = 0.0
            c[dead] = 0.0
            if trial % 3 == 0:
                c = -np.abs(c)  # no positive entry: the direction is negated
            # Weights whose ratios tie with the minimum up to a few hundred
            # ulps land on both sides of the debris threshold.
            near = (np.sign(c) == (1.0 if (c > 0.0).any() else -1.0)) & (rng.random(m) < 0.5)
            if near.any():
                ratio = np.min(w[near] / np.abs(c[near]))
                ulps = rng.integers(-4, 200, int(near.sum()))
                w[near] = ratio * np.abs(c[near]) * (1.0 + ulps * np.finfo(float).eps)
            expected, j_expected = clamped(w.copy(), c.copy())
            out, j_star = _eliminate(w.copy(), c.copy())
            assert j_star == j_expected
            assert out.tobytes() == expected.tobytes()

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
        # One kernel call per tree level plus the base case.  A level takes
        # one QR and stops at D groups; the base case takes one QR and the
        # closing check.  Uniform atoms give no ties, so no round ends early.
        assert report.tree_levels > 0
        assert report.factorizations == report.tree_levels + 2
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

    def test_rank_deficient_base_case_continues_after_the_qr_basis(self):
        # 30 atoms on the unit circle at degree 4 (D = 15) are one base case
        # of rank 9.  The QR basis of the 30 columns has 15 null vectors;
        # the 15 survivors are still dependent, so the round after it takes
        # the closing check's singular values and a thin SVD for the null
        # basis, and the last round's check finds full rank: 4
        # factorizations, 21 eliminations.
        t = 0.1 + 2.0 * np.pi * np.arange(30) / 30
        measure = DiscreteMeasure(
            np.column_stack([np.cos(t), np.sin(t)]),
            np.random.default_rng(151).uniform(0.5, 2.0, 30),
        )
        basis = build_basis(2, [1, 1], 4)
        cubature, report = reduce(measure, basis)
        assert basis.dimension == 15
        assert report.tree_levels == 0
        assert report.detected_rank == 9
        assert report.elimination_steps == 21
        assert report.factorizations == 4
        assert 1 <= cubature.num_nodes <= 9
        assert (cubature.weights > 0).all()
        np.testing.assert_array_equal(cubature.nodes, measure.atoms[cubature.node_indices])
        verification = verify_cubature(measure, cubature, basis)
        assert verification.max_residual_rel <= 1e-8
        assert verification.mass_gap_rel <= 1e-12
        again, _ = reduce(measure, basis)
        np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
        np.testing.assert_array_equal(again.weights, cubature.weights)

    def test_rank_deficient_group_means_keep_the_contract(self):
        # 400 atoms on the unit circle at degree 4 (D = 15, rank 9): every
        # level's 30 group means have rank 9, and the level keeps 15 groups,
        # which are not independent, with no closing check.  Later levels
        # and the base case reduce them further, and the base case proves
        # the nodes independent.
        t = 0.1 + 2.0 * np.pi * np.random.default_rng(193).random(400)
        measure = DiscreteMeasure(
            np.column_stack([np.cos(t), np.sin(t)]),
            np.random.default_rng(197).uniform(0.5, 2.0, 400),
        )
        basis = build_basis(2, [1, 1], 4)
        cubature, report = reduce(measure, basis)
        assert report.tree_levels == 4
        assert report.factorizations == 8
        assert report.elimination_steps == 79
        assert report.detected_rank == 9
        assert 1 <= cubature.num_nodes <= 9
        assert np.unique(cubature.node_indices).shape[0] == cubature.num_nodes
        assert (cubature.weights > 0).all()
        np.testing.assert_array_equal(cubature.nodes, measure.atoms[cubature.node_indices])
        verification = verify_cubature(measure, cubature, basis)
        assert verification.max_residual_rel <= 1e-8
        assert verification.mass_gap_rel <= 1e-12
        again, _ = reduce(measure, basis)
        np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
        assert again.weights.tobytes() == cubature.weights.tobytes()

    def test_a_level_stops_at_d_columns_without_a_closing_check(self):
        # A level's sweep keeps at most D of its 2D group means after one QR
        # and no SVD; the base case's sweep ends with the closing check.
        basis = build_basis(2, [1, 1], 4)
        t = 2.0 * np.pi * np.arange(60) / 60
        cols = embed_block(basis, np.column_stack([np.cos(t), np.sin(t)]))[:, :30]
        weights = np.random.default_rng(199).uniform(0.5, 2.0, 30)
        sub, _, steps, factorizations = _sweep(cols, weights, 1.0, certify=False)
        assert (sub.shape[0], steps, factorizations) == (15, 15, 1)
        sub, new_w, steps, factorizations = _sweep(cols, weights, 1.0)
        assert (sub.shape[0], steps, factorizations) == (9, 21, 4)
        assert np.linalg.matrix_rank(cols[:, sub]) == sub.shape[0]
        np.testing.assert_allclose(cols[:, sub] @ new_w, cols @ weights, atol=1e-12)

    @pytest.mark.parametrize("features", [
        pytest.param(build_basis(2, [1, 1], 3), id="monomial"),
        pytest.param(FunctionDictionary(
            6, lambda x: np.array([1.0, x[0], x[1], x[0] * x[1], np.cos(x[0]), x[1] ** 3])
        ), id="dictionary"),
    ])
    @pytest.mark.parametrize("extra", [0, 3])
    def test_a_base_level_is_a_direct_sweep(self, features, extra):
        # At most 2D atoms make one base level: one atom per group, so every
        # share is exactly 1 and the group means are the atoms' own columns.
        # The tree's survivors are a direct sweep's, bit for bit.  Atom 0
        # sits at the box's centre in x and below it in y, so its rescaled
        # columns hold -0.0 where the means hold 0.0.
        dim = momcube.recomb.feature_count(features)
        n = 2 * dim - extra
        rng = np.random.default_rng(205)
        atoms = rng.uniform(-1.0, 1.0, (n, 2))
        atoms[0] = 0.5 * (atoms[1:, 0].min() + atoms[1:, 0].max()), -0.5
        weights = rng.uniform(0.5, 2.0, n)
        rescale, tol_factor = None, 1.0
        if isinstance(features, momcube.recomb.MonomialBasis):
            shift, scale, tol_factor = momcube.recomb._rescale(atoms)
            rescale = shift, scale
        cols = momcube.recomb._columns(features, atoms, rescale)
        sub, w, steps, factorizations = _sweep(cols, weights, tol_factor)
        totals = momcube.recomb._Totals()
        rows, nodes, tree_w = momcube.recomb._tree(
            np.arange(n) + 100, atoms, weights, features, totals
        )
        np.testing.assert_array_equal(rows, sub + 100)
        assert nodes.tobytes() == atoms[sub].tobytes()
        assert tree_w.tobytes() == w.tobytes()
        assert (totals.steps, totals.factorizations, totals.levels) == (steps, factorizations, 0)
        assert steps > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monomials_and_their_dictionary_share_one_kernel_path(self, seed):
        # Atoms whose box is exactly [-1, 1]^3 rescale to themselves, so a
        # monomial basis and a dictionary of the same monomials give the
        # sweep the same columns and the same tolerance.  The trees then keep
        # the same nodes with the same weights; only the output step differs,
        # pinning the monomial basis's mass by one global rescale.
        basis = build_basis(3, [1, 1, 1], 4)
        rng = np.random.default_rng(seed)
        atoms = rng.uniform(-1.0, 1.0, (2000, 3))
        atoms[0], atoms[1] = -1.0, 1.0
        measure = DiscreteMeasure(atoms, rng.uniform(0.5, 2.0, 2000))
        dictionary = FunctionDictionary(
            basis.dimension, lambda x: embed_block(basis, x[np.newaxis])[:, 0]
        )
        cubature, report = reduce(measure, basis)
        dict_cubature, dict_report = reduce(measure, dictionary)
        assert report.rank_tol_factor == dict_report.rank_tol_factor == 1.0
        np.testing.assert_array_equal(cubature.node_indices, dict_cubature.node_indices)
        pin = measure.total_mass / math.fsum(dict_cubature.weights.tolist())
        assert cubature.weights.tobytes() == (dict_cubature.weights * pin).tobytes()

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


class TestBlockedUpdate:
    """A kernel round updates its null vectors in blocks of ``_BLOCK`` rows:
    one at a time inside a block, and the rows after it by one solve and
    one matrix product per block."""

    def test_four_blocks_without_a_tie(self, monkeypatch):
        # 112 generic atoms at degree 5 in three variables (D = 56): the QR
        # basis has 56 null vectors, four blocks of 16, 16, 16 and 8.  With
        # no tie every one of them removes exactly one atom in one round, and
        # the closing check finds the 56 survivors independent.
        basis = build_basis(3, [1, 1, 1], 5)
        rng = np.random.default_rng(157)
        cols = embed_block(basis, rng.uniform(-1.0, 1.0, (112, 3)))
        weights = rng.uniform(0.1, 2.0, 112)
        assert basis.dimension == 56
        assert momcube.recomb._BLOCK == 16
        sub, new_w, steps, factorizations = _sweep(cols, weights, 1.0)
        assert steps == 56
        assert factorizations == 2
        # The contract: at most D distinct input atoms, positive weights, the
        # weighted feature sums and (row 0 is the constant) the mass kept.
        assert sub.shape[0] == 56
        assert np.unique(sub).shape[0] == sub.shape[0]
        assert (new_w > 0.0).all()
        target = cols @ weights
        assert (np.abs(cols[:, sub] @ new_w - target) <= 1e-12 * (1.0 + np.abs(target))).all()
        mass = math.fsum(weights.tolist())
        assert abs(math.fsum(new_w.tolist()) - mass) <= 1e-12 * mass
        again = _sweep(cols, weights, 1.0)
        np.testing.assert_array_equal(again[0], sub)
        assert again[1].tobytes() == new_w.tobytes()
        # The one-at-a-time update (a single block) keeps the same atoms.
        monkeypatch.setattr(momcube.recomb, "_BLOCK", 56)
        single = _sweep(cols, weights, 1.0)
        np.testing.assert_array_equal(single[0], sub)
        np.testing.assert_allclose(single[1], new_w, rtol=1e-10)

    def test_tie_after_the_first_block_refactorizes(self, monkeypatch):
        # Feature i (D = 20) is +1 on atoms i and 2D + i, -1 on atoms D + i
        # and 3D + i, and 0 elsewhere.  The complete QR's reflectors then act
        # on one group of four atoms each, so the first D null vectors are,
        # in order, (1/2, 5/6, 1/6, -1/6) on groups 0, 1, ...: exact zeros
        # elsewhere, and the rest of each group's basis comes after them.
        # With weights (3, 1, 2, 1) the 5/6 entry alone has the least ratio;
        # group 16's weights (3, 6, 1, 0.5) give the 1/2 and 1/6 entries the
        # same ratio.  So 16 steps fill the first block, its delayed update
        # reaches the rows after it, and step 17 zeroes two weights: the
        # round ends and the next takes a new basis of the 62 survivors.
        dim = 20
        eye = np.eye(dim)
        cols = np.hstack([eye, -eye, eye, -eye])
        weights = np.repeat([3.0, 1.0, 2.0, 1.0], dim)
        weights[16::dim] = [3.0, 6.0, 1.0, 0.5]
        rounds = []  # per null basis: live columns, eliminations, atoms removed
        null_basis, eliminate = momcube.recomb._null_basis, momcube.recomb._eliminate

        def logged_null_basis(live, tol_factor):
            rounds.append([live.shape[1], 0, 0])
            return null_basis(live, tol_factor)

        def logged_eliminate(w, c):
            out, j_star = eliminate(w, c)
            rounds[-1][1] += 1
            rounds[-1][2] += int(np.count_nonzero(w > 0.0) - np.count_nonzero(out > 0.0))
            return out, j_star

        monkeypatch.setattr(momcube.recomb, "_null_basis", logged_null_basis)
        monkeypatch.setattr(momcube.recomb, "_eliminate", logged_eliminate)
        sub, new_w, steps, factorizations = _sweep(cols, weights, 1.0)
        assert momcube.recomb._BLOCK == 16
        assert rounds[0] == [80, 17, 18]
        assert rounds[1][0] == 62
        assert steps == sum(r[1] for r in rounds) == 59
        assert factorizations >= 3
        # The contract: at most D distinct input atoms, positive weights,
        # every weighted feature sum kept, identical reruns.
        assert sub.shape[0] <= dim
        assert np.unique(sub).shape[0] == sub.shape[0]
        assert (new_w > 0.0).all()
        np.testing.assert_allclose(cols[:, sub] @ new_w, cols @ weights, rtol=0, atol=1e-14)
        again = _sweep(cols, weights, 1.0)
        np.testing.assert_array_equal(again[0], sub)
        assert again[1].tobytes() == new_w.tobytes()


def _on_line(n, offset):
    xs = offset + np.linspace(0.0, 1.0, n)
    return np.column_stack([xs, 2.0 * xs + 1.0])


def _hermite_grid():
    """The 4^3 tensor grid of Gauss-Hermite nodes."""
    x = np.polynomial.hermite_e.hermegauss(4)[0]
    return np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)


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
        # Full rank on the first level's 2D = 56 group means.
        (np.random.default_rng(7).uniform(-1.0, 1.0, (500, 2)), 6, 28),
        # A grouped first level on degenerate atoms: the grid tiled 40 times
        # and shuffled, 2,560 atoms.  Degree 6 spans the monomials with
        # every exponent at most 3: 64 less the 10 of degree 7 to 9.
        (np.random.default_rng(0).permutation(np.tile(_hermite_grid(), (40, 1))), 6, 54),
    ], ids=["line-deg3", "circle-deg2", "circle-deg4", "offset-line-deg2",
            "repeated-points-deg9", "cube4-deg5", "square2-deg6", "hermite-tile-deg6"])
    def test_closed_form_rank(self, atoms, degree, rank):
        num_vars = atoms.shape[1]
        measure = DiscreteMeasure(atoms, np.ones(atoms.shape[0]))
        cubature, report = cubature_of_degree(measure, num_vars, [1] * num_vars, degree)
        assert report.detected_rank == rank
        assert cubature.num_nodes <= rank

    def test_rank_of_grouped_means_on_a_tiled_grid(self):
        # The grid spans 60 of the D = 120 monomials of degree 7, but the
        # first level's group means of the unshuffled tile span only 59.
        # The detected rank is theirs, and the nodes match it.
        atoms = np.tile(_hermite_grid(), (40, 1))
        measure = DiscreteMeasure(atoms, np.ones(atoms.shape[0]))
        cubature, report = cubature_of_degree(measure, 3, [1, 1, 1], 7)
        assert report.detected_rank == report.final_atoms == 59


class TestReduceStreaming:
    """reduce on inputs far larger than D: one tree, many levels, each
    level's feature columns built in 4,096-atom blocks."""

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
        # 70,000 atoms: 18 blocks of 4,096 on the first level, one tree.
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

    def test_symmetric_bulk_with_an_asymmetric_tail_reduces_in_one_tree(self):
        # The first 65,536 atoms are symmetric about 0, so their moment x is
        # 0; only the 100 atoms after them make the total positive.  The
        # tree's group means cover the whole measure, so no level cancels.
        # (Sweeping the symmetric atoms one by one took 65,542 eliminations.)
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
        # The merge of the two symmetric blocks' results cancels and keeps
        # 2 atoms unreduced; they are not independent, so D = 1 stays the rank.
        assert report.detected_rank == 1
        again, _ = reduce(measure, features)
        np.testing.assert_array_equal(again.node_indices, cubature.node_indices)
        np.testing.assert_array_equal(again.weights, cubature.weights)

    def test_seventy_thousand_atom_monomial_reduction_meets_the_contract(self):
        rng = np.random.default_rng(71)
        n = 70_000
        measure = DiscreteMeasure(rng.uniform(-3.0, 5.0, (n, 2)), rng.uniform(0.1, 2.0, n))
        basis = build_basis(2, [1, 1], 4)
        cubature, report = reduce(measure, basis)
        assert report.tree_levels > 0
        assert 1 <= cubature.num_nodes <= basis.dimension
        assert (cubature.weights > 0.0).all()
        np.testing.assert_array_equal(cubature.nodes, measure.atoms[cubature.node_indices])
        verification = verify_cubature(measure, cubature, basis)
        assert verification.passes(1e-8, mass_tol=1e-12), verification.to_dict()
        assert "chunks" not in report.to_dict()
        again, _ = reduce(measure, basis)
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


class TestTreeMemory:
    """Each block of 32,768 atoms gets its own tree, which keeps three
    numbers per atom (index, weight and group) and builds feature columns
    4,096 atoms at a time, so the traced peak stays far below one
    D x 65,536 column matrix (63 MiB at D = 126, 10 MiB at D = 20).  The
    measure is built before tracing starts."""

    @staticmethod
    def _traced_peak(measure, features):
        tracemalloc.start()
        try:
            _, report = reduce(measure, features)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_at_d126(self):
        # Reducing 65,536-atom chunks of columns, this read 67 MiB.
        rng = np.random.default_rng(29)
        n = 100_000
        measure = DiscreteMeasure(rng.uniform(-1.0, 1.0, (n, 4)), rng.uniform(0.1, 2.0, n))
        basis = build_basis(4, [1, 1, 1, 1], 5)
        assert basis.dimension == 126
        report, peak = self._traced_peak(measure, basis)
        assert report.final_atoms <= 126 and report.max_moment_residual_rel <= 1e-8
        assert peak <= 16 * 2**20, peak

    def test_peak_at_d20(self):
        # Reducing 65,536-atom chunks of columns, this read 21.0 MiB.
        rng = np.random.default_rng(31)
        n = 200_000
        measure = DiscreteMeasure(rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(0.1, 2.0, n))
        basis = build_basis(3, [1, 1, 1], 3)
        assert basis.dimension == 20
        report, peak = self._traced_peak(measure, basis)
        assert report.final_atoms <= 20 and report.max_moment_residual_rel <= 1e-8
        assert peak <= 10 * 2**20, peak

    def test_peak_at_d20_is_the_weights_and_survivors(self):
        # One block's weights, atom indices and group indices (256 KiB
        # each) with a level's temporaries of the same length, plus
        # O(D * 4,096) blocks: 1.8 MiB.
        rng = np.random.default_rng(53)
        n = 200_000
        measure = DiscreteMeasure(rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(0.1, 2.0, n))
        basis = build_basis(3, [1, 1, 1], 3)
        report, peak = self._traced_peak(measure, basis)
        assert report.final_atoms <= 20 and report.max_moment_residual_rel <= 1e-8
        assert peak <= 4.5 * 2**20, peak

    def test_dictionary_is_evaluated_at_most_three_times_per_atom(self):
        # The moment target takes one call per atom and the tree levels
        # about two (n + n/2 + n/4 + ...); a separate pass for the rank
        # would make it four.
        calls = 0

        def evaluator(x):
            nonlocal calls
            calls += 1
            return np.array([1.0, x[0], x[1], x[0] * x[1]])

        rng = np.random.default_rng(37)
        n = 100_000
        measure = DiscreteMeasure(rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(0.1, 2.0, n))
        cubature, report = reduce(measure, FunctionDictionary(4, evaluator))
        assert cubature.num_nodes <= 4 and report.tree_levels > 0
        assert calls <= 3 * n, calls / n


class TestAffineRescale:
    """The [-1, 1] rescale's shift and half-width are 0.5 * (lo + hi) and
    0.5 * (hi - lo) wherever those are finite, and stay finite up to the
    float maximum."""

    def test_constant_subnormal_coordinate_maps_to_zero(self):
        lo = np.array([5e-324, -5e-324, 1.0])
        shift, scale, tol_factor = momcube.recomb._rescale(lo[None, :])
        assert shift.tolist() == lo.tolist()
        assert ((lo[None, :] - shift) / scale).tolist() == [[0.0, 0.0, 0.0]]
        assert tol_factor == 1.0

    def test_finite_sums_give_the_plain_formula_bit_for_bit(self):
        lo = np.array([5e-324, -3.0, 1e-310, 0.1, -1e307])
        hi = np.array([1.5e-323, 7.0, 3e-310, 0.7, 1e307])
        shift, scale, _ = momcube.recomb._rescale(np.stack([lo, hi]))
        assert shift.tolist() == (0.5 * (lo + hi)).tolist()
        assert scale.tolist() == (0.5 * (hi - lo)).tolist()

    def test_bounds_near_the_float_maximum_stay_finite(self):
        lo = np.array([1.6e308, -1.7e308])
        hi = np.array([1.7e308, 1.7e308])
        with np.errstate(all="raise"):
            shift, scale, tol_factor = momcube.recomb._rescale(np.stack([lo, hi]))
        # Halving these bounds is exact, so only the final sum rounds.
        assert shift.tolist() == (lo / 2 + hi / 2).tolist()
        assert scale.tolist() == (hi / 2 - lo / 2).tolist()
        assert 1.6e308 < shift[0] < 1.7e308 and scale[1] == 1.7e308
        assert math.isfinite(tol_factor)


class TestCubatureOfDegree:
    def test_hundred_and_one_point_grid(self):
        measure = _unit_grid_measure(np.linspace(0.0, 1.0, 101))
        cubature, report = cubature_of_degree(measure, 1, [1], 4)
        assert cubature.num_nodes <= 5
        basis = build_basis(1, [1], 4)
        verification = verify_cubature(measure, cubature, basis)
        assert verification.max_residual_rel <= 1e-10
        assert report.rescaling is not None
        shift, scale, tol_factor = momcube.recomb._rescale(measure.atoms)
        assert report.rescaling == {"shift": shift.tolist(), "scale": scale.tolist()}
        assert report.rank_tol_factor == tol_factor

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


class TestSubnormalWeights:
    """Weights down to the smallest subnormal: group means and new weights
    come from each atom's share of its group's mass, so no step divides by
    a subnormal mass (at the parent, the first two rows read 57 and 5.06)."""

    @pytest.mark.parametrize(
        "every, value, bound",
        [(2, 5e-324, 1e-13), (3, 1e-310, 1e-13), (7, 5e-324, 1e-12), (7, 1e-300, 1e-12)],
    )
    def test_moment_contract_holds(self, every, value, bound):
        rng = np.random.default_rng(163)
        atoms = rng.uniform(-1.0, 1.0, (3000, 2))
        weights = rng.uniform(0.1, 2.0, 3000)
        weights[::every] = value
        measure = DiscreteMeasure(atoms, weights)
        basis = build_basis(2, [1, 1], 3)
        cubature, report = reduce(measure, basis)
        assert 1 <= cubature.num_nodes <= basis.dimension
        assert (cubature.weights > 0.0).all()
        verification = verify_cubature(measure, cubature, basis)
        assert verification.max_residual_rel == report.max_moment_residual_rel
        assert report.max_moment_residual_rel <= bound
        assert verification.passes(1e-8, mass_tol=1e-12), verification.to_dict()

    def test_no_pivot_on_a_direction_entry_at_rounding_level(self):
        # Eight atoms on two points: every null vector is zero, in exact
        # arithmetic, on one point's atoms.  With weights spanning 620
        # decades, the smallest ratio w_j / c_j could sit at such an entry's
        # rounding noise; pivoting there broke the contract on 24 of these
        # 300 seeds (residuals up to 35) before the kernel got its floor.
        basis = build_basis(3, [1, 1, 1], 2)
        points = np.array([[0.45, -0.72, 1.0], [0.17, -0.12, 0.87]])
        for seed in range(300):
            rng = np.random.default_rng(seed)
            measure = DiscreteMeasure(
                points[rng.integers(0, 2, 8)], 10.0 ** rng.uniform(-320.0, 300.0, 8)
            )
            cubature, _ = reduce(measure, basis)
            verification = verify_cubature(measure, cubature, basis)
            assert verification.passes(1e-8, mass_tol=1e-12), (seed, verification.to_dict())
