"""Tests for the weighted-degree monomial basis and the point embedding."""

import math

import numpy as np
import pytest

import momcube.basis
from momcube import (
    BasisError,
    basis_from_config,
    build_basis,
    embed_block,
    evaluate_embedding,
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
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(BasisError):
            build_basis(*args)

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
    def test_at_origin_only_constant_survives(self):
        basis = build_basis(1, [1], 3)
        np.testing.assert_array_equal(
            evaluate_embedding(basis, [0.0]), [1.0, 0.0, 0.0, 0.0]
        )

    def test_powers_of_two(self):
        basis = build_basis(1, [1], 4)
        np.testing.assert_allclose(
            evaluate_embedding(basis, [2.0]), [1.0, 2.0, 4.0, 8.0, 16.0], rtol=0
        )

    def test_weighted_bivariate_values(self):
        basis = build_basis(2, [1, 2], 3)
        values = evaluate_embedding(basis, [2.0, 3.0])
        np.testing.assert_allclose(values, naive_embedding(basis.indices, [2.0, 3.0]), rtol=0)
        assert sorted(values.tolist()) == [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]

    def test_matches_naive_powering(self):
        rng = np.random.default_rng(11)
        for n, weights, m in [(1, [1], 12), (2, [1, 1], 8), (3, [1, 2, 1], 7), (4, [1, 1, 1, 1], 5)]:
            basis = build_basis(n, weights, m)
            assert basis.dimension <= 500
            for _ in range(5):
                point = rng.uniform(-10, 10, size=n)
                got = evaluate_embedding(basis, point)
                want = naive_embedding(basis.indices, point)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_block_matches_single_point(self):
        basis = build_basis(3, [1, 2, 1], 4)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(17, 3))
        block = embed_block(basis, pts)
        assert block.shape == (basis.dimension, 17)
        for a in range(17):
            np.testing.assert_array_equal(block[:, a], evaluate_embedding(basis, pts[a]))

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf]])
    def test_rejects_non_finite(self, bad):
        basis = build_basis(1, [1], 2)
        with pytest.raises(BasisError):
            evaluate_embedding(basis, bad)

    def test_rejects_wrong_length(self):
        basis = build_basis(2, [1, 1], 2)
        with pytest.raises(BasisError):
            evaluate_embedding(basis, [1.0])
