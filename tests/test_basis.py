"""Tests for the weighted-degree monomial basis and the point embedding."""

import itertools
import math
import time

import numpy as np
import pytest

import momcube.basis
from momcube import (
    BasisError,
    basis_from_config,
    build_basis,
    embed_block,
)
from oracles import enumerate_multi_indices, naive_embedding


class TestBuildBasis:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
    def test_univariate_gives_all_powers(self, m):
        basis = build_basis(1, [1], m)
        assert basis.indices == tuple((e,) for e in range(m + 1))
        assert basis.dimension == m + 1

    def test_weighted_bivariate_matches_enumeration(self):
        basis = build_basis(2, [1, 2], 3)
        assert set(basis.indices) == enumerate_multi_indices((1, 2), 3)
        assert basis.dimension == 6

    def test_degree_zero_keeps_only_constant(self):
        basis = build_basis(3, [1, 1, 1], 0)
        assert basis.indices == ((0, 0, 0),)
        assert basis.dimension == 1

    def test_constant_is_entry_zero(self):
        for n, ws, m in [(1, [1], 4), (2, [2, 3], 7), (4, [1, 1, 2, 1], 3)]:
            basis = build_basis(n, ws, m)
            assert basis.indices[0] == (0,) * n

    def test_order_is_graded_then_lexicographic(self):
        basis = build_basis(3, [1, 2, 1], 5)
        keys = [
            (basis.degree_fn.weighted_degree(alpha), alpha) for alpha in basis.indices
        ]
        assert keys == sorted(keys)
        assert len(set(basis.indices)) == basis.dimension

    def test_identical_builds_identical_order(self):
        first = build_basis(3, [1, 2, 3], 6)
        second = build_basis(3, [1, 2, 3], 6)
        assert first.indices == second.indices

    def test_completeness_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            weights = rng.integers(1, 4, size=n).tolist()
            m = int(rng.integers(0, 7))
            basis = build_basis(n, weights, m)
            assert set(basis.indices) == enumerate_multi_indices(tuple(weights), m)

    @pytest.mark.parametrize("weights", [(1,), (3,), (1, 1), (2, 1), (1, 3, 2), (2, 2, 2),
                                         (1, 1, 1, 1), (4, 1, 3, 2)])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 8])
    def test_order_matches_a_sorted_product(self, weights, m):
        def degree(alpha):
            return sum(k * a for k, a in zip(weights, alpha))

        grid = itertools.product(*(range(m // k + 1) for k in weights))
        reference = sorted((a for a in grid if degree(a) <= m), key=lambda a: (degree(a), a))
        assert build_basis(len(weights), list(weights), m).indices == tuple(reference)

    def test_five_thousand_coordinates(self):
        # One loop, no recursion per coordinate: the constant, then x_i in
        # lexicographic order, which puts the last coordinate first.
        basis = build_basis(5000, None, 1)
        assert basis.dimension == 5001
        assert basis.indices[0] == (0,) * 5000
        assert basis.indices[1] == (0,) * 4999 + (1,)
        assert basis.indices[-1] == (1,) + (0,) * 4999
        assert basis._recurrence[0] == (0, 4999)
        assert basis._recurrence[-1] == (0, 0)

    def test_unit_weights_past_the_cap_are_refused_before_they_are_built(self):
        start = time.perf_counter()
        with pytest.raises(BasisError, match="cap"):
            build_basis(10**12, None, 1)
        with pytest.raises(BasisError, match="cap"):
            build_basis(5000, None, 2)  # 12,507,501 entries
        assert time.perf_counter() - start < 1.0

    def test_exponent_cells_past_the_cap_are_refused_before_they_are_built(self):
        # Every entry holds N integers: 491,536 entries of 990 coordinates
        # are under the entry cap but would take gigabytes, and a degree-0
        # basis over 10^12 coordinates has one entry of 10^12 integers.
        start = time.perf_counter()
        with pytest.raises(BasisError, match="cap"):
            build_basis(990, None, 2)
        with pytest.raises(BasisError, match="cap"):
            build_basis(10**12, None, 0)
        assert time.perf_counter() - start < 1.0

    def test_cell_cap_is_32_times_the_entry_cap(self, monkeypatch):
        # At an entry cap of 1,000 the cell cap is 32,000: 501 entries of 500
        # coordinates are under the first but 250,500 cells are over the
        # second, with unit weights or explicit ones.
        monkeypatch.setattr(momcube.basis, "DEFAULT_DIMENSION_CAP", 1000)
        with pytest.raises(BasisError, match="cap"):
            build_basis(500, None, 1)
        with pytest.raises(BasisError, match="cap"):
            build_basis(500, [1] * 500, 1)
        assert build_basis(178, None, 1).dimension == 179  # 31,862 cells
        with pytest.raises(BasisError, match="cap"):
            build_basis(179, None, 1)  # 32,220 cells
        assert build_basis(32_000, [2] * 32_000, 1).dimension == 1

    def test_degree_bound_far_beyond_the_entry_count(self):
        # The count and the enumeration take no step per degree unit.
        basis = build_basis(2, [10**9, 3 * 10**9], 5 * 10**9)
        assert basis.indices == ((0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (1, 1), (4, 0),
                                 (2, 1), (5, 0))
        with pytest.raises(BasisError, match="cap"):
            build_basis(1, [1], 10**15)

    @pytest.mark.parametrize(
        "n,m", [(1, 5), (2, 2), (2, 3), (3, 4), (4, 6)]
    )
    def test_unit_weight_dimension_is_binomial(self, n, m):
        basis = build_basis(n, [1] * n, m)
        assert basis.dimension == math.comb(n + m, m)

    def test_known_dimension_examples(self):
        assert build_basis(1, [1], 5).dimension == 6
        assert build_basis(2, [1, 1], 2).dimension == 6
        assert build_basis(2, [1, 2], 3).dimension == 6

    @pytest.mark.parametrize(
        "args",
        [
            (0, [], 2),
            (2, [1, 0], 2),
            (2, [1, -3], 2),
            (2, [1.5, 1], 2),
            (1, [1], -1),
            (1, [1, 1], 2),
            (2, None, 1.5),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(BasisError):
            build_basis(*args)

    @pytest.mark.parametrize("value, accepted", [
        (3, True), (np.int64(3), True), (np.uint8(3), True), (10**400, True),
        (True, False), (np.bool_(True), False), (3.0, False), ("3", False), (None, False),
    ])
    def test_one_integer_rule(self, value, accepted):
        # Basis sizes and degrees, CLI integers, cubature-file integers and
        # moment-key exponents all pass this one check.
        assert momcube.basis._is_integer(value) is accepted

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(momcube.basis, "DEFAULT_DIMENSION_CAP", 5000)
        with pytest.raises(BasisError):
            build_basis(2, [1, 1], 100)  # needs 5151
        monkeypatch.setattr(momcube.basis, "DEFAULT_DIMENSION_CAP", 5151)
        assert build_basis(2, [1, 1], 100).dimension == 5151

    def test_from_config_defaults_to_unit_weights(self):
        basis = basis_from_config({"num_vars": 2, "max_degree": 2})
        assert basis.degree_fn.weights == (1, 1)
        assert basis.dimension == 6

    def test_from_config_missing_key(self):
        with pytest.raises(BasisError):
            basis_from_config({"num_vars": 2})


class TestEvaluateEmbedding:
    """One point's embedding: a one-column ``embed_block``, checked against
    the ``naive_embedding`` oracle."""

    def test_at_origin_only_constant_survives(self):
        basis = build_basis(1, [1], 3)
        np.testing.assert_array_equal(
            embed_block(basis, [0.0])[:, 0], [1.0, 0.0, 0.0, 0.0]
        )

    def test_powers_of_two(self):
        basis = build_basis(1, [1], 4)
        np.testing.assert_allclose(
            embed_block(basis, [2.0])[:, 0], [1.0, 2.0, 4.0, 8.0, 16.0], rtol=0
        )

    def test_weighted_bivariate_values(self):
        basis = build_basis(2, [1, 2], 3)
        values = embed_block(basis, [2.0, 3.0])[:, 0]
        np.testing.assert_allclose(values, naive_embedding(basis.indices, [2.0, 3.0]), rtol=0)
        assert sorted(values.tolist()) == [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]

    def test_matches_naive_powering(self):
        rng = np.random.default_rng(11)
        for n, weights, m in [(1, [1], 12), (2, [1, 1], 8), (3, [1, 2, 1], 7), (4, [1, 1, 1, 1], 5)]:
            basis = build_basis(n, weights, m)
            assert basis.dimension <= 500
            points = rng.uniform(-10, 10, size=(5, n))
            block = embed_block(basis, points)
            for a, point in enumerate(points):
                want = naive_embedding(basis.indices, point)
                np.testing.assert_allclose(block[:, a], want, rtol=1e-14, atol=0)

    def test_block_matches_single_point(self):
        basis = build_basis(3, [1, 2, 1], 4)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(17, 3))
        block = embed_block(basis, pts)
        assert block.shape == (basis.dimension, 17)
        for a in range(17):
            np.testing.assert_array_equal(block[:, a], embed_block(basis, pts[a])[:, 0])
            np.testing.assert_allclose(
                block[:, a], naive_embedding(basis.indices, pts[a]), rtol=1e-14, atol=0
            )

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf]])
    def test_rejects_non_finite(self, bad):
        basis = build_basis(1, [1], 2)
        with pytest.raises(BasisError):
            embed_block(basis, bad)

    def test_rejects_wrong_length(self):
        basis = build_basis(2, [1, 1], 2)
        with pytest.raises(BasisError):
            embed_block(basis, [1.0])
