"""Tests for cone/hull membership and truncated moment feasibility."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momcube import (
    DiscreteMeasure,
    FeasibilityResult,
    FeasibilityStatus,
    build_basis,
    cone_membership,
    embed_block,
    hull_membership,
    load_moment_file,
    moment_vector,
    moments_to_dict,
    reduce,
    truncated_moment_feasible,
    verify_cubature,
)
from momcube.geometry import (
    DEFAULT_FEAS_TOL,
    SeparatingFunctional,
    _nnls,
    moment_key,
    parse_moment_key,
)
from oracles import (
    cone_member_bruteforce,
    fsum_moments,
    hull_member_bruteforce,
    interval_moment_vector,
    line_moment_vector,
)


def _grid_columns(points, max_degree):
    basis = build_basis(1, [1], max_degree)
    return basis, embed_block(basis, np.asarray(points, dtype=float).reshape(-1, 1))


def _witness_residual(result, columns, target):
    achieved = columns @ result.weights
    return np.abs(achieved - target).max() / (1.0 + np.abs(target).max())


class TestConeMembership:
    def test_own_moments_are_feasible(self):
        rng = np.random.default_rng(71)
        measure = DiscreteMeasure(rng.uniform(-2, 2, (12, 2)), rng.uniform(0.5, 2, 12))
        basis = build_basis(2, [1, 1], 2)
        columns = embed_block(basis, measure.atoms)
        target = moment_vector(measure, basis)
        result = cone_membership(target, columns)
        assert result.status is FeasibilityStatus.FEASIBLE
        assert _witness_residual(result, columns, target) <= 1e-9
        assert np.count_nonzero(result.weights) <= basis.dimension

    def test_negative_mass_is_infeasible(self):
        columns = np.ones((1, 4))
        result = cone_membership(np.array([-1.0]), columns)
        assert result.status is FeasibilityStatus.INFEASIBLE
        np.testing.assert_allclose(result.certificate.normal, [-1.0])
        assert result.certificate.offset == 0.0
        assert result.certificate.is_valid(columns, np.array([-1.0]), 1e-9)

    @pytest.mark.parametrize(
        "c,expected",
        [(-0.2, False), (0.0, True), (0.25, True), (0.5, True), (1.0, True), (1.01, False), (1.5, False)],
    )
    def test_second_moment_family(self, c, expected):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        target = np.array([1.0, 0.0, c])
        assert cone_member_bruteforce(target, columns) is expected
        result = cone_membership(target, columns)
        want = FeasibilityStatus.FEASIBLE if expected else FeasibilityStatus.INFEASIBLE
        assert result.status is want

    def test_randomized_against_bruteforce(self):
        rng = np.random.default_rng(73)
        agree = 0
        for _ in range(40):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(2, 7))
            columns = rng.standard_normal((d, m))
            if rng.random() < 0.5:
                target = columns @ rng.uniform(0.0, 2.0, m)  # member by construction
            else:
                target = rng.standard_normal(d) * 2.0
            expected = cone_member_bruteforce(target, columns, tol=1e-9)
            result = cone_membership(target, columns)
            if result.status is FeasibilityStatus.INDETERMINATE:
                continue  # boundary noise; soundness is checked below
            got = result.status is FeasibilityStatus.FEASIBLE
            assert got is expected
            agree += 1
            if result.status is FeasibilityStatus.FEASIBLE:
                assert _witness_residual(result, columns, target) <= 1e-9
            else:
                assert result.certificate.is_valid(columns, target, 1e-9)
        assert agree >= 35  # indeterminate must stay rare

    def test_iteration_cap_yields_indeterminate(self):
        _, columns = _grid_columns([-1.0, -0.3, 0.4, 1.0], 2)
        target = np.array([1.0, 0.1, 0.5])
        result = cone_membership(target, columns, max_iterations=1)
        assert result.status is FeasibilityStatus.INDETERMINATE
        assert result.weights is None and result.certificate is None
        assert result.reason == "iteration_limit"
        assert result.residual is None and result.margin is None

    def test_weights_xor_certificate(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        feasible = cone_membership(np.array([1.0, 0.0, 0.5]), columns)
        infeasible = cone_membership(np.array([1.0, 0.0, 2.0]), columns)
        assert feasible.weights is not None and feasible.certificate is None
        assert infeasible.weights is None and infeasible.certificate is not None

    def test_no_columns_zero_target_is_feasible(self):
        result = cone_membership(np.zeros(3), np.zeros((3, 0)))
        assert result.status is FeasibilityStatus.FEASIBLE
        assert result.weights.shape == (0,) and result.residual == 0.0

    def test_no_columns_nonzero_target_is_infeasible(self):
        target = np.array([2.0, -1.0, 0.5])
        result = cone_membership(target, np.zeros((3, 0)))
        assert result.status is FeasibilityStatus.INFEASIBLE
        np.testing.assert_allclose(result.certificate.normal, target / 2.0)
        assert result.certificate.offset == 0.0
        assert result.certificate.is_valid(np.zeros((3, 0)), target, 1e-9)

    def test_residual_and_margin_are_reported(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        feasible = cone_membership(np.array([1.0, 0.0, 0.5]), columns)
        assert feasible.residual <= 1e-12 and feasible.margin is None
        target = np.array([1.0, 0.0, 2.0])
        infeasible = cone_membership(target, columns)
        assert infeasible.residual > DEFAULT_FEAS_TOL
        assert infeasible.margin == infeasible.certificate.margin(target) > 0.0
        payload = infeasible.to_dict()
        assert payload["residual"] == infeasible.residual
        assert payload["margin"] == infeasible.margin

    def test_witness_reduces_consistently(self):
        rng = np.random.default_rng(101)
        basis = build_basis(2, [1, 1], 2)
        measure = DiscreteMeasure(rng.uniform(-2, 2, (25, 2)), rng.uniform(0.1, 1, 25))
        columns = embed_block(basis, measure.atoms)
        target = moment_vector(measure, basis)
        result = cone_membership(target, columns)
        assert result.status is FeasibilityStatus.FEASIBLE
        support = np.flatnonzero(result.weights > 0)
        witness = DiscreteMeasure(measure.atoms[support], result.weights[support])
        cubature, _ = reduce(witness, basis)
        assert cubature.num_nodes <= basis.dimension
        verification = verify_cubature(witness, cubature, basis)
        assert verification.max_residual_rel <= 1e-8

    def test_integer_beyond_the_float_range_is_refused(self):
        # np.asarray of a 400-digit integer raised OverflowError, a traceback.
        with pytest.raises(ValueError, match="^moment vector must be finite$"):
            cone_membership([10**400, 1.0], np.eye(2))


class TestHullMembership:
    def test_mean_of_two_atoms(self):
        basis, columns = _grid_columns([-1.0, 1.0], 2)
        target = 0.5 * columns[:, 0] + 0.5 * columns[:, 1]
        result = hull_membership(target, columns)
        assert result.status is FeasibilityStatus.FEASIBLE
        np.testing.assert_allclose(columns @ result.weights, target, atol=1e-12)
        np.testing.assert_allclose(result.weights.sum(), 1.0, atol=1e-12)

    def test_negative_second_moment_infeasible(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        target = np.array([1.0, 0.0, -0.1])
        result = hull_membership(target, columns)
        assert result.status is FeasibilityStatus.INFEASIBLE
        assert result.certificate.is_valid(columns, target, 1e-9)

    def test_unique_witness_recovered(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        result = hull_membership(np.array([1.0, 0.0, 1.0]), columns)
        assert result.status is FeasibilityStatus.FEASIBLE
        np.testing.assert_allclose(result.weights, [0.5, 0.0, 0.5], atol=1e-10)

    def test_no_columns_is_infeasible(self):
        target = np.array([1.0, 0.3])
        result = hull_membership(target, np.zeros((2, 0)))
        assert result.status is FeasibilityStatus.INFEASIBLE
        assert result.certificate.is_valid(np.zeros((2, 0)), target, 1e-9)
        assert result.margin > 0.0

    def test_rejects_unnormalized_target(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        with pytest.raises(ValueError, match="normalized"):
            hull_membership(np.array([2.0, 0.0, 1.0]), columns)

    def test_randomized_against_bruteforce(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            pts = np.sort(rng.uniform(-2, 2, m))
            basis, columns = _grid_columns(pts, 2)
            if rng.random() < 0.5:
                w = rng.uniform(0, 1, m)
                w /= w.sum()
                target = columns @ w
            else:
                target = np.array([1.0, rng.uniform(-2, 2), rng.uniform(-1, 4)])
            expected = hull_member_bruteforce(target, columns, tol=1e-9)
            result = hull_membership(target, columns)
            if result.status is FeasibilityStatus.INDETERMINATE:
                continue
            assert (result.status is FeasibilityStatus.FEASIBLE) is expected


class TestTruncatedMomentFeasible:
    def test_roundtrip_reproduces_moments(self):
        rng = np.random.default_rng(83)
        grid = rng.uniform(-3, 3, (15, 2))
        weights = rng.uniform(0.1, 2.0, 15)
        basis = build_basis(2, [1, 1], 2)
        measure = DiscreteMeasure(grid, weights)
        target = moment_vector(measure, basis)
        moments = {alpha: float(v) for alpha, v in zip(basis.indices, target)}
        result, witness = truncated_moment_feasible(moments, grid, 2, [1, 1], 2)
        assert result.status is FeasibilityStatus.FEASIBLE
        assert witness is not None
        assert witness.num_atoms <= basis.dimension
        reproduced = fsum_moments(witness.atoms, witness.weights, basis.indices)
        np.testing.assert_allclose(reproduced, target, rtol=1e-8, atol=1e-10)

    def test_excess_second_moment_infeasible(self):
        result, witness = truncated_moment_feasible(
            {(0,): 1.0, (1,): 0.0, (2,): 2.0}, [[-1.0], [0.0], [1.0]], 1, [1], 2
        )
        assert result.status is FeasibilityStatus.INFEASIBLE
        assert witness is None

    def test_two_point_interpolation(self):
        result, witness = truncated_moment_feasible(
            {(0,): 1.0, (1,): 0.25}, [[0.0], [1.0]], 1, [1], 1
        )
        assert result.status is FeasibilityStatus.FEASIBLE
        np.testing.assert_allclose(result.weights, [0.75, 0.25], atol=1e-10)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            truncated_moment_feasible({(0,): 1.0}, [[0.0]], 1, [1], 1)

    def test_extra_key_rejected(self):
        with pytest.raises(ValueError, match="unexpected"):
            truncated_moment_feasible(
                {(0,): 1.0, (1,): 0.0, (5,): 1.0}, [[0.0]], 1, [1], 1
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            truncated_moment_feasible({(0,): 1.0, (1,): 0.0}, np.empty((0, 1)), 1, [1], 1)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            truncated_moment_feasible({(0,): 0.0, (1,): 0.0}, [[0.0]], 1, [1], 1)

    def test_moments_over_a_tiny_mass_overflow_to_a_refused_target(self):
        # 1e10 / 1e-300 is beyond the float range.  Under the suite's
        # error::RuntimeWarning filter the division used to raise its
        # overflow warning before the target was checked.
        with pytest.raises(ValueError, match="^moment vector must be finite$"):
            truncated_moment_feasible({(0,): 1e-300, (1,): 1e10}, [[0.0]], 1, [1], 1)

    @pytest.mark.parametrize("moments, message", [
        ({(0,): 10**400, (1,): 0.0}, r"^total mass \(constant moment\) must be positive, got inf$"),
        ({(0,): 1, (1,): -10**400}, "^moment vector must be finite$"),
    ], ids=["mass", "moment"])
    def test_integer_beyond_the_float_range_is_refused(self, moments, message):
        # float() of a 400-digit integer raised OverflowError, a traceback;
        # it reads as +-inf, as load_moment_file reads it.
        with pytest.raises(ValueError, match=message):
            truncated_moment_feasible(moments, [[0.0]], 1, [1], 1)

    @pytest.mark.parametrize(
        "grid, ncoords",
        [([[0.0, 1.0], [1.0, 0.0]], 2), ([-1.0, 0.0, 1.0], 3)],
    )
    def test_grid_dimension_mismatch_rejected(self, grid, ncoords):
        # A flat list is one point with one coordinate per entry, not a
        # column of N=1 points.
        with pytest.raises(
            ValueError, match=f"grid points have {ncoords} coordinates, expected 1"
        ):
            truncated_moment_feasible({(0,): 1.0, (1,): 0.0}, grid, 1, [1], 1)

    def test_witness_feeds_back_into_reduction(self):
        rng = np.random.default_rng(89)
        grid = rng.uniform(-1, 1, (20, 1))
        weights = rng.uniform(0.1, 1.0, 20)
        basis = build_basis(1, [1], 3)
        measure = DiscreteMeasure(grid, weights)
        target = moment_vector(measure, basis)
        moments = dict(zip(basis.indices, target))
        result, witness = truncated_moment_feasible(moments, grid, 1, [1], 3)
        assert result.status is FeasibilityStatus.FEASIBLE
        cubature, _ = reduce(witness, basis)
        assert cubature.num_nodes <= basis.dimension
        verification = verify_cubature(witness, cubature, basis)
        assert verification.max_residual_rel <= 1e-8


def _tensor_grid(side):
    line = np.linspace(-1.0, 1.0, side)
    return np.array([(x, y) for x in line for y in line])


def _moments(basis, points, weights):
    return dict(zip(basis.indices, fsum_moments(points, weights, basis.indices)))


def _assert_witness(result, witness, grid, basis, moments):
    """FEASIBLE with at most D positive-weight grid points matching the moments."""
    assert result.status is FeasibilityStatus.FEASIBLE
    assert result.reason is None and result.iterations >= 1
    assert witness.num_atoms <= basis.dimension
    assert (witness.weights > 0.0).all()
    rows = {tuple(p) for p in grid.tolist()}
    assert all(tuple(p) in rows for p in witness.atoms.tolist())
    target = np.array([moments[a] for a in basis.indices])
    mass = target[0]
    achieved = fsum_moments(witness.atoms, witness.weights, basis.indices)
    limit = DEFAULT_FEAS_TOL * (1.0 + np.abs(target / mass).max()) * mass
    assert np.abs(achieved - target).max() <= limit


class TestDegenerateGrids:
    """A 20 x 20 tensor grid at degree 6 (D = 28) has many collinear points,
    so the columns are far from general position."""

    @pytest.mark.parametrize("support", [10, 400], ids=["sparse", "full"])
    @pytest.mark.parametrize("seed", [3, 7, 11, 45, 50, 165])
    def test_tensor_grid_targets_are_decided_feasible(self, seed, support):
        # Seed 45's sparse target makes the solver cycle through a few
        # columns at rounding level unless a non-improving step stops it.
        # Seed 165's sparse target stalls at |r| ~ 1e-8 with every gradient
        # under the tolerance unless the stall rule enters a column.
        rng = np.random.default_rng(seed)
        grid = _tensor_grid(20)
        basis = build_basis(2, [1, 1], 6)
        chosen = np.sort(rng.choice(grid.shape[0], size=support, replace=False))
        moments = _moments(basis, grid[chosen], rng.uniform(0.1, 2.0, support))
        result, witness = truncated_moment_feasible(moments, grid, 2, [1, 1], 6)
        _assert_witness(result, witness, grid, basis, moments)

    def test_face_target_certificate_is_valid(self):
        rng = np.random.default_rng(5)
        grid = _tensor_grid(20)
        basis = build_basis(2, [1, 1], 6)
        points = rng.uniform(-1.0, 1.0, size=(10, 2))
        points[:, 0] = rng.uniform(1.2, 2.0, size=10)  # beyond the face x = 1
        moments = _moments(basis, points, rng.uniform(0.1, 2.0, 10))
        result, witness = truncated_moment_feasible(moments, grid, 2, [1, 1], 6)
        assert result.status is FeasibilityStatus.INFEASIBLE and witness is None
        target = np.array([moments[a] for a in basis.indices])
        columns = embed_block(basis, grid)
        assert result.certificate.is_valid(columns, target / target[0], 1e-9)

    @pytest.mark.parametrize(
        "seed, degree, layout",
        [(1, 2, "repeated"), (2, 2, "repeated"), (3, 3, "mirrored")],
    )
    def test_duplicated_points_keep_support_within_dimension(self, seed, degree, layout):
        # Left alone, the solver's support here is D + 1 columns of rank D.
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, size=(40, 2))
        if layout == "repeated":
            grid = np.repeat(points[:12], 3, axis=0)
        else:
            grid = np.concatenate([points, points[::-1], points[:7]])
        basis = build_basis(2, [1, 1], degree)
        moments = _moments(basis, grid, rng.uniform(0.1, 2.0, grid.shape[0]))
        result, witness = truncated_moment_feasible(moments, grid, 2, [1, 1], degree)
        _assert_witness(result, witness, grid, basis, moments)

    def test_one_iteration_is_indeterminate(self):
        rng = np.random.default_rng(3)
        grid = _tensor_grid(20)
        basis = build_basis(2, [1, 1], 6)
        moments = _moments(basis, grid, rng.uniform(0.1, 2.0, grid.shape[0]))
        result, witness = truncated_moment_feasible(
            moments, grid, 2, [1, 1], 6, max_iterations=1
        )
        assert result.status is FeasibilityStatus.INDETERMINATE and witness is None
        assert result.reason == "iteration_limit" and result.iterations == 1


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFeasibilityMemory:
    """A query's traced peak is about its one (D+1) x M equilibrated system.
    Grids, columns and targets are built before tracing starts."""

    degree = 6

    @pytest.fixture(scope="class")
    def query(self):
        rng = np.random.default_rng(101)
        grid = rng.uniform(-1.0, 1.0, (10_000, 2))
        basis = build_basis(2, None, self.degree)
        inside = grid[rng.choice(grid.shape[0], 100, replace=False)]
        outside = rng.uniform(-1.0, 1.0, (10, 2))
        outside[:, 0] = rng.uniform(1.2, 2.0, 10)
        targets = {
            FeasibilityStatus.FEASIBLE: _moments(basis, inside, rng.uniform(0.1, 2.0, 100)),
            FeasibilityStatus.INFEASIBLE: _moments(basis, outside, rng.uniform(0.1, 2.0, 10)),
        }
        system_bytes = (basis.dimension + 1) * grid.shape[0] * 8
        return grid, basis, targets, system_bytes

    @pytest.mark.parametrize(
        "status", [FeasibilityStatus.FEASIBLE, FeasibilityStatus.INFEASIBLE], ids=lambda s: s.value
    )
    def test_grid_query_peak_is_about_the_system(self, query, status):
        # The embedded columns, their equilibrated copy and np.abs
        # temporaries made this 3.0x.
        grid, _, targets, system_bytes = query
        (result, _), peak = _traced_peak(
            lambda: truncated_moment_feasible(targets[status], grid, 2, None, self.degree)
        )
        assert result.status is status
        assert peak <= 1.2 * system_bytes, peak / system_bytes

    @pytest.mark.parametrize(
        "status", [FeasibilityStatus.FEASIBLE, FeasibilityStatus.INFEASIBLE], ids=lambda s: s.value
    )
    def test_held_columns_peak_is_about_the_system(self, query, status):
        # The finiteness mask and np.abs temporaries made this 2.0x.
        grid, basis, targets, system_bytes = query
        columns = embed_block(basis, grid)
        target = np.array([targets[status][a] for a in basis.indices])
        target /= target[0]
        result, peak = _traced_peak(lambda: hull_membership(target, columns))
        assert result.status is status
        assert peak <= 1.2 * system_bytes, peak / system_bytes

    def test_overflowing_grid_point_is_refused_without_a_warning(self, query):
        # 1e60 ** 6 overflows; the embedding used to warn before the
        # finiteness check refused it.
        grid, _, targets, _ = query
        grid = grid.copy()
        grid[17, 1] = 1e60
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="feature columns must be finite"):
                truncated_moment_feasible(
                    targets[FeasibilityStatus.FEASIBLE], grid, 2, None, self.degree
                )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("decide", [cone_membership, hull_membership])
    def test_non_finite_held_column_is_refused(self, decide, bad):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        columns[2, 1] = bad
        with pytest.raises(ValueError, match="feature columns must be finite"):
            decide(np.array([1.0, 0.0, 0.5]), columns)


class TestIntervalOracle:
    """Verdicts on a fine grid of [-1, 1] against the closed-form 1-D answer.

    The family: 5-atom probability measures in [-1, 1], with one moment of
    degree 2-6 moved by +-10^U(-8, -1), decided at m = 6 on 2,001 points.
    A FEASIBLE witness is a measure on the grid whose moments are within
    feas_tol (1 + max|y|) <= 2.2e-9 of the target; moving y that far moves
    the 4 x 4 Hankel and 3 x 3 localizing eigenvalues by at most 4 and 6
    times that, below 1.4e-8.  So a target outside by the margin can never
    be FEASIBLE.  Inside, the grid is fine enough that it is.
    """

    margin = 2e-8
    grid = np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)

    def test_oracle_tells_the_interval_from_the_line(self):
        atoms = np.array([-0.9, -0.3, 0.2, 0.6, 0.95])
        weights = np.full(5, 0.2)
        inside = fsum_moments(atoms.reshape(-1, 1), weights, [(j,) for j in range(7)])
        assert interval_moment_vector(inside, -1.0, 1.0, self.margin) is True
        assert line_moment_vector(inside, self.margin) is True
        atoms[-1] = 1.5
        beyond = fsum_moments(atoms.reshape(-1, 1), weights, [(j,) for j in range(7)])
        assert interval_moment_vector(beyond, -1.0, 1.0, self.margin) is False
        assert line_moment_vector(beyond, self.margin) is True

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-8.0, -1.0),
    )
    def test_verdict_agrees_with_the_oracle(self, seed, degree, sign, exponent):
        rng = np.random.default_rng(seed)
        atoms = rng.uniform(-1.0, 1.0, (5, 1))
        weights = rng.uniform(0.1, 2.0, 5)
        weights /= weights.sum()
        target = fsum_moments(atoms, weights, [(j,) for j in range(7)])
        target[degree] += sign * 10.0**exponent
        inside = interval_moment_vector(target, -1.0, 1.0, self.margin)
        moments = {(j,): float(v) for j, v in enumerate(target)}
        result, _ = truncated_moment_feasible(moments, self.grid, 1, None, 6)
        if inside is True:
            assert result.status is FeasibilityStatus.FEASIBLE, result
        elif inside is False:
            assert result.status is not FeasibilityStatus.FEASIBLE, result


class TestIndeterminateReasons:
    def test_unreachable_residual_tolerance(self):
        rng = np.random.default_rng(29)
        columns = rng.uniform(0.1, 1.0, (4, 9))
        target = columns @ rng.uniform(0.1, 1.0, 9)
        result = cone_membership(target, columns, feas_tol=1e-300)
        assert result.status is FeasibilityStatus.INDETERMINATE
        assert result.reason == "residual_check"
        assert result.to_dict()["reason"] == "residual_check"

    def test_unreachable_certificate_tolerance(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        result = cone_membership(np.array([1.0, 0.0, 2.0]), columns, cert_tol=-0.5)
        assert result.status is FeasibilityStatus.INDETERMINATE
        assert result.reason == "certificate_check"

    def test_decided_results_carry_no_reason(self):
        _, columns = _grid_columns([-1.0, 0.0, 1.0], 2)
        for target in ([1.0, 0.0, 0.5], [1.0, 0.0, 2.0]):
            payload = cone_membership(np.array(target), columns).to_dict()
            assert payload["reason"] is None and payload["iterations"] >= 1

    def test_reason_only_for_indeterminate(self):
        with pytest.raises(ValueError, match="reason"):
            FeasibilityResult(FeasibilityStatus.FEASIBLE, np.ones(2), reason="residual_check")
        with pytest.raises(ValueError, match="reason"):
            FeasibilityResult(FeasibilityStatus.INDETERMINATE)


class TestSeparatingFunctional:
    def test_is_valid_without_columns(self):
        functional = SeparatingFunctional(normal=np.array([1.0, 0.0]))
        assert functional.is_valid(np.zeros((2, 0)), np.array([1.0, 0.0]), 1e-9)
        assert not functional.is_valid(np.zeros((2, 0)), np.array([0.0, 1.0]), 1e-9)


def _nnls_problem(kind, rng):
    """A seeded (A, b): b is either in cone(A) or a random vector."""
    if kind == "wide":
        A = rng.standard_normal((5, 30))
    elif kind == "tall":  # M < D
        A = rng.standard_normal((8, 5))
    elif kind == "square_plus_one":  # M = D + 1
        A = rng.standard_normal((6, 7))
    elif kind == "duplicated":
        A = rng.standard_normal((6, 10))
        A = np.concatenate([A, A[:, :4], 2.0 * A[:, 5:7]], axis=1)
    else:  # rank 3 in 6 rows
        A = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 20))
    if rng.random() < 0.5:
        b = A @ (rng.uniform(0.0, 1.0, A.shape[1]) * (rng.random(A.shape[1]) < 0.4))
    else:
        b = rng.standard_normal(A.shape[0])
    return A, b


_NNLS_KINDS = ["wide", "tall", "square_plus_one", "duplicated", "rank_deficient"]


class TestNNLS:
    """Karush-Kuhn-Tucker conditions of the solver on seeded random problems."""

    @pytest.mark.parametrize("kind", _NNLS_KINDS)
    def test_kkt_conditions(self, kind):
        rng = np.random.default_rng(_NNLS_KINDS.index(kind))
        for _ in range(25):
            A, b = _nnls_problem(kind, rng)
            x, r, iterations, converged = _nnls(A, b, 50 * sum(A.shape))
            assert converged and iterations >= 1
            tol = 1e-10 * np.abs(A).sum(axis=0).max() * (1.0 + np.linalg.norm(b))
            assert (x >= 0.0).all()
            np.testing.assert_allclose(r, b - A @ x, atol=tol)
            grad = A.T @ r
            on = x > 0.0
            assert np.count_nonzero(on) <= A.shape[0]
            assert grad[~on].max(initial=-np.inf) <= tol
            assert np.abs(grad[on]).max(initial=0.0) <= tol

    @pytest.mark.parametrize("kind", _NNLS_KINDS)
    def test_residual_matches_scipy(self, kind):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(100 + _NNLS_KINDS.index(kind))
        for _ in range(25):
            A, b = _nnls_problem(kind, rng)
            _, r, _, _ = _nnls(A, b, 50 * sum(A.shape))
            _, reference = optimize.nnls(A, b)
            assert abs(np.linalg.norm(r) - reference) <= 1e-9 * (1.0 + np.linalg.norm(b))

    @pytest.mark.parametrize("seed", [207, 267, 946, 1294, 1724, 2614])
    def test_dependent_column_is_refused(self, seed):
        # Three columns and eight combinations of them, with a target far
        # outside their span.  A test of |R_kk| against D eps max |R_ii|
        # alone lets a combination enter on seeds 207, 267, 1294 and 1724,
        # with weights of 1e15 to 1e21; Lawson and Hanson's test alone lets
        # one enter on the row-equilibrated system of seeds 946 and 2614.
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((6, 3)) * 10.0 ** rng.uniform(-1.0, 1.0, 3)
        A = np.concatenate([B, B @ rng.standard_normal((3, 8))], axis=1)
        b = rng.standard_normal(6) * 10.0 ** rng.uniform(0.0, 6.0)
        x, r, _, converged = _nnls(A, b, 50 * sum(A.shape))
        assert converged and np.count_nonzero(x) <= 3
        np.testing.assert_allclose(r, b - A @ x, atol=1e-9 * np.linalg.norm(b))
        result = cone_membership(b, A)
        assert result.status is FeasibilityStatus.INFEASIBLE
        assert result.certificate.is_valid(A, b, 1e-9)

    def test_no_columns(self):
        b = np.array([1.0, -2.0])
        x, r, iterations, converged = _nnls(np.zeros((2, 0)), b, 10)
        assert x.shape == (0,) and converged and iterations == 1
        np.testing.assert_array_equal(r, b)


class TestMomentFiles:
    def test_key_roundtrip(self):
        assert moment_key((2, 0)) == "2,0"
        assert parse_moment_key("2,0") == (2, 0)
        with pytest.raises(ValueError):
            parse_moment_key("2,x")

    def test_file_roundtrip(self, tmp_path):
        basis = build_basis(2, [1, 2], 3)
        values = np.arange(1.0, basis.dimension + 1)
        payload = moments_to_dict(basis, values)
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(payload))
        loaded_basis, loaded = load_moment_file(path)
        assert loaded_basis.indices == basis.indices
        assert loaded == {a: float(v) for a, v in zip(basis.indices, values)}

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO], ids=["bytes", "BytesIO"])
    def test_in_memory_source_with_byte_order_mark(self, wrap):
        # Decoded as measure files are: the BOM is dropped, "\r\n" ends lines.
        basis = build_basis(1, [1], 2)
        payload = moments_to_dict(basis, [1.0, 0.5, 0.25])
        text = json.dumps(payload, indent=2).replace("\n", "\r\n")
        loaded_basis, loaded = load_moment_file(wrap(b"\xef\xbb\xbf" + text.encode()))
        assert loaded_basis.indices == basis.indices
        assert loaded == {(0,): 1.0, (1,): 0.5, (2,): 0.25}

    def test_integer_too_large_for_a_float_reads_as_infinity(self):
        # float() of a 400-digit literal raised OverflowError, a traceback.
        text = '{"basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 1}, ' \
            '"moments": {"0": 1, "1": -1%s}}' % ("0" * 400)
        _, loaded = load_moment_file(text.encode())
        assert loaded == {(0,): 1.0, (1,): -math.inf}

    @pytest.mark.parametrize("keys, message", [
        (("1", "01"), "moment keys '1' and '01' name the same moment"),
        (("01", "1"), "moment keys '01' and '1' name the same moment"),
        (("1", "1"), "key '1' appears twice in one object"),
    ])
    def test_two_keys_for_one_moment_are_refused(self, keys, message):
        # Whichever key came later used to win, and so decide the verdict.
        text = '{"basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 1}, ' \
            '"moments": {"0": 1.0, "%s": 0.5, "%s": 9.0}}' % keys
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_moment_file(text.encode())

    def test_file_requires_blocks(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"moments": {}}')
        with pytest.raises(ValueError, match="basis"):
            load_moment_file(path)

    def test_value_count_checked(self):
        basis = build_basis(1, [1], 2)
        with pytest.raises(ValueError):
            moments_to_dict(basis, [1.0, 2.0])
