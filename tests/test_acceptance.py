"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4 share a 200-case randomized measure suite (session fixture).
Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and the measured 10^6-atom reduction time.
"""

import itertools
import json
import time

import numpy as np
import pytest

from momcube import (
    DiscreteMeasure,
    FeasibilityStatus,
    build_basis,
    cone_membership,
    cubature_of_degree,
    embed_block,
    hull_membership,
    moment_vector,
    reduce,
    truncated_moment_feasible,
    verify_cubature,
)
from momcube.cli import main as cli_main
from momcube.geometry import DEFAULT_FEAS_TOL
from oracles import (
    enumerate_positive_cubatures,
    fsum_moments,
    gaussian_moment,
    student_t_moment,
)

MOMENT_TOL = 1e-8
MASS_TOL = 1e-12
CERT_TOL = 1e-9


def _suite_cases():
    """Deterministic 200-case grid over M, N, degree weights, and m.

    Heavy basis dimensions only pair with small atom counts so the whole
    suite stays within the runtime target.
    """
    rng = np.random.default_rng(260808)
    cases = []

    def degree_weights(kind, n):
        return [1] * n if kind == "unit" else rng.integers(1, 4, size=n).tolist()

    for num_atoms in (10, 100):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4, 5, 6):
                for kind in ("unit", "random", "random"):
                    cases.append((num_atoms, n, degree_weights(kind, n), m))
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3):
            for kind in ("unit", "random"):
                cases.append((1000, n, degree_weights(kind, n), m))
    for n, m in ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4)):
        for kind in ("unit", "random"):
            cases.append((1000, n, degree_weights(kind, n), m))
    for n, m in ((1, 6), (2, 4), (3, 3), (4, 2)):
        for kind in ("unit", "random"):
            cases.append((100_000, n, degree_weights(kind, n), m))
    for n in (1, 2, 3, 4):
        for m in (2, 4, 6):
            cases.append((10, n, degree_weights("random", n), m))

    assert len(cases) == 200
    return cases


@pytest.fixture(scope="session")
def randomized_suite():
    rng = np.random.default_rng(314159)
    results = []
    started = time.perf_counter()
    for index, (num_atoms, n, weights, m) in enumerate(_suite_cases()):
        atoms = rng.uniform(-10.0, 10.0, size=(num_atoms, n))
        if index % 2:
            atom_weights = rng.uniform(0.05, 5.0, size=num_atoms)
        else:
            atom_weights = np.ones(num_atoms)
        measure = DiscreteMeasure(atoms, atom_weights)
        basis = build_basis(n, weights, m)
        cubature, report = cubature_of_degree(measure, n, weights, m)
        verification = verify_cubature(measure, cubature, basis)
        results.append(
            {
                "case": (num_atoms, n, tuple(weights), m),
                "dimension": basis.dimension,
                "nodes": cubature.num_nodes,
                "node_indices": cubature.node_indices,
                "weights": cubature.weights,
                "verification": verification,
            }
        )
    elapsed = time.perf_counter() - started
    return results, elapsed


class TestAcceptance:
    def test_01_cardinality_bound(self, randomized_suite):
        results, elapsed = randomized_suite
        assert len(results) == 200
        violations = [
            r["case"] for r in results if not (1 <= r["nodes"] <= r["dimension"])
        ]
        assert not violations
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s, target is 5 minutes"
        print(
            f"\nACCEPTANCE 01 cardinality-bound: PASS "
            f"(200 measures, suite ran in {elapsed:.1f}s)"
        )

    def test_02_exact_moment_preservation(self, randomized_suite):
        results, _ = randomized_suite
        worst = max(r["verification"].max_residual_rel for r in results)
        assert worst <= MOMENT_TOL
        print(f"\nACCEPTANCE 02 moment-preservation: PASS (worst residual {worst:.2e})")

    def test_03_positivity_and_support(self, randomized_suite):
        results, _ = randomized_suite
        for r in results:
            assert (r["weights"] > 0.0).all(), r["case"]
            assert r["verification"].support_ok, r["case"]
            assert len(set(r["node_indices"].tolist())) == r["nodes"]
        print("\nACCEPTANCE 03 positivity-and-support: PASS (zero violations)")

    def test_04_mass_conservation(self, randomized_suite):
        results, _ = randomized_suite
        worst = max(r["verification"].mass_gap_rel for r in results)
        assert worst <= MASS_TOL
        print(f"\nACCEPTANCE 04 mass-conservation: PASS (worst gap {worst:.2e})")

    def test_05_univariate_grid_example(self):
        measure = DiscreteMeasure(
            np.linspace(0.0, 1.0, 101).reshape(-1, 1), np.ones(101)
        )
        basis = build_basis(1, [1], 4)
        started = time.perf_counter()
        cubature, _ = cubature_of_degree(measure, 1, [1], 4)
        elapsed = time.perf_counter() - started
        verification = verify_cubature(measure, cubature, basis)
        assert cubature.num_nodes <= 5
        assert verification.max_residual_rel <= 1e-10
        assert elapsed < 1.0
        print(
            f"\nACCEPTANCE 05 univariate-grid: PASS "
            f"(k={cubature.num_nodes}, residual {verification.max_residual_rel:.2e}, "
            f"{elapsed * 1000:.0f} ms)"
        )

    def test_06_micro_bruteforce_equivalence(self):
        basis = build_basis(1, [1], 2)
        checked = 0
        for size in range(1, 9):
            for subset in itertools.combinations(range(8), size):
                atoms = np.array(subset, dtype=float).reshape(-1, 1)
                measure = DiscreteMeasure(atoms, np.ones(len(subset)))
                cubature, _ = reduce(measure, basis)
                assert cubature.num_nodes <= 3
                valid = enumerate_positive_cubatures(
                    atoms, measure.weights, basis.indices, max_nodes=3
                )
                supports = dict(valid)
                key = tuple(cubature.node_indices.tolist())
                assert key in supports, (subset, key)
                np.testing.assert_allclose(
                    cubature.weights, supports[key], rtol=1e-8, atol=1e-10
                )
                checked += 1
        assert checked == 255
        print(f"\nACCEPTANCE 06 micro-oracle-equivalence: PASS ({checked} measures)")

    def test_07_rank_degeneracy(self):
        rng = np.random.default_rng(727)
        basis = build_basis(2, [1, 1], 1)
        for trial in range(25):
            num_atoms = int(rng.integers(3, 80))
            xs = rng.uniform(-9, 9, num_atoms)
            if trial % 5 == 4:  # vertical line
                atoms = np.column_stack([np.full(num_atoms, rng.uniform(-5, 5)), xs])
            else:
                slope, intercept = rng.uniform(-3, 3, 2)
                atoms = np.column_stack([xs, slope * xs + intercept])
            measure = DiscreteMeasure(atoms, rng.uniform(0.1, 2.0, num_atoms))
            cubature, report = reduce(measure, basis)
            assert report.detected_rank == 2, trial
            assert cubature.num_nodes <= 2, trial
            verification = verify_cubature(measure, cubature, basis)
            assert verification.max_residual_rel <= MOMENT_TOL
        print("\nACCEPTANCE 07 rank-degeneracy: PASS (25 collinear trials)")

    def test_08_geometry_soundness(self):
        rng = np.random.default_rng(883)

        # Feasible witnesses re-verify at the certificate tolerance.
        checked_feasible = 0
        for _ in range(20):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            count = int(rng.integers(3, 15))
            basis = build_basis(n, [1] * n, m)
            measure = DiscreteMeasure(
                rng.uniform(-3, 3, (count, n)), rng.uniform(0.1, 2.0, count)
            )
            columns = embed_block(basis, measure.atoms)
            target = moment_vector(measure, basis)
            result = cone_membership(target, columns)
            assert result.status is FeasibilityStatus.FEASIBLE
            residual = np.abs(columns @ result.weights - target).max()
            assert residual <= CERT_TOL * (1.0 + np.abs(target).max())
            checked_feasible += 1

        basis = build_basis(1, [1], 2)
        columns = embed_block(basis, np.array([[-1.0], [0.0], [1.0]]))

        # Certified infeasibility for a negative second moment.
        negative = hull_membership(np.array([1.0, 0.0, -0.1]), columns)
        assert negative.status is FeasibilityStatus.INFEASIBLE
        lifted_cols = np.vstack([columns, np.ones(3)])
        lifted_cert = np.append(
            negative.certificate.normal, -negative.certificate.offset
        )
        lifted_target = np.array([1.0, 0.0, -0.1, 1.0])
        assert (lifted_cert @ lifted_cols).max() <= CERT_TOL
        assert lifted_cert @ lifted_target > CERT_TOL

        # The boundary flip of the second-moment family.
        at_boundary = cone_membership(np.array([1.0, 0.0, 1.0]), columns)
        outside = cone_membership(np.array([1.0, 0.0, 1.01]), columns)
        assert at_boundary.status is FeasibilityStatus.FEASIBLE
        assert outside.status is FeasibilityStatus.INFEASIBLE
        cert = outside.certificate
        assert (cert.normal @ columns).max() <= CERT_TOL
        assert cert.normal @ np.array([1.0, 0.0, 1.01]) > CERT_TOL

        print(
            f"\nACCEPTANCE 08 geometry-soundness: PASS "
            f"({checked_feasible} witnesses, certified flip at c=1 vs 1.01)"
        )

    def test_09_streaming_equivalence_and_scale(self):
        rng = np.random.default_rng(909)
        basis = build_basis(3, [1, 1, 1], 3)
        assert basis.dimension == 20

        measure = DiscreteMeasure(
            rng.uniform(-10, 10, (100_000, 3)), rng.uniform(0.1, 2.0, 100_000)
        )
        cubature, _ = reduce(measure, basis)
        verification = verify_cubature(measure, cubature, basis)
        assert 1 <= cubature.num_nodes <= basis.dimension
        assert verification.max_residual_rel <= MOMENT_TOL
        assert (cubature.weights > 0).all()
        assert verification.support_ok
        assert verification.mass_gap_rel <= MASS_TOL

        big = DiscreteMeasure(
            rng.uniform(-10, 10, (1_000_000, 3)), rng.uniform(0.1, 2.0, 1_000_000)
        )
        started = time.perf_counter()
        cubature, report = reduce(big, basis)
        elapsed = time.perf_counter() - started
        verification = verify_cubature(big, cubature, basis)
        assert cubature.num_nodes <= basis.dimension
        assert verification.max_residual_rel <= MOMENT_TOL
        assert verification.mass_gap_rel <= MASS_TOL
        within = "within" if elapsed < 60.0 else "OVER"
        print(
            f"\nACCEPTANCE 09 windowed-scale: PASS "
            f"(10^6 atoms in {elapsed:.1f}s, {within} the 60s soft target)"
        )

    def test_10_byte_identical_runs(self, tmp_path):
        rng = np.random.default_rng(1010)
        rows = "\n".join(
            f"{x!r},{y!r},{w!r}"
            for x, y, w in zip(
                rng.uniform(-5, 5, 400).tolist(),
                rng.uniform(-5, 5, 400).tolist(),
                rng.uniform(0.1, 2.0, 400).tolist(),
            )
        )
        source = tmp_path / "measure.csv"
        source.write_text(rows + "\n")
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main(
                [
                    "reduce",
                    "--input", str(source),
                    "--num-vars", "2",
                    "--degree", "3",
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            payloads.append((out / "cubature.json").read_bytes())
        assert payloads[0] == payloads[1]
        parsed = json.loads(payloads[0])
        assert len(parsed["weights"]) <= 10
        print("\nACCEPTANCE 10 determinism: PASS (byte-identical cubature JSON)")

    @pytest.mark.parametrize(
        "num_vars, degree, points", [(2, 6, 2_000), (2, 10, 10_000)], ids=["m6", "m10"]
    )
    def test_11_tchakaloff_gaussian(self, num_vars, degree, points):
        # The Gaussian is not compactly supported; Tchakaloff's theorem still
        # gives a degree-m cubature with nodes in its support.  The candidate
        # nodes are a sample cloud spread 1.3 times wider than the measure.
        cloud = 1.3 * np.random.default_rng(0).standard_normal((points, num_vars))
        basis = build_basis(num_vars, [1] * num_vars, degree)
        moments = {alpha: gaussian_moment(alpha) for alpha in basis.indices}
        started = time.perf_counter()
        result, witness = truncated_moment_feasible(
            moments, cloud, num_vars, [1] * num_vars, degree
        )
        elapsed = time.perf_counter() - started
        assert result.status is FeasibilityStatus.FEASIBLE
        assert witness.num_atoms <= basis.dimension
        assert (witness.weights > 0).all()
        rows = {tuple(p) for p in cloud.tolist()}
        assert all(tuple(p) in rows for p in witness.atoms.tolist())
        target = np.array([moments[alpha] for alpha in basis.indices])
        achieved = fsum_moments(witness.atoms, witness.weights, basis.indices)
        assert np.abs(achieved - target).max() <= DEFAULT_FEAS_TOL * (
            1.0 + np.abs(target).max()
        )
        print(
            f"\nACCEPTANCE 11 tchakaloff-gaussian: PASS (N={num_vars}, m={degree}, "
            f"{witness.num_atoms} of {points} nodes, D={basis.dimension}, {elapsed:.2f}s)"
        )

    @pytest.mark.parametrize("half_width", [20.0, 100.0], ids=["20", "100"])
    def test_12_tchakaloff_student_t(self, half_width):
        # Student's t with nu = 7 has no 7th moment, the case that results
        # needing an (m+1)st moment exclude; Tchakaloff still gives degree 6
        # on D = 7 nodes.  Candidates: 2,001 equispaced points.
        nu, degree = 7, 6
        assert student_t_moment(nu, 2) == pytest.approx(nu / (nu - 2), rel=1e-14)
        assert student_t_moment(nu, 5) == 0.0
        with pytest.raises(ValueError):
            student_t_moment(nu, 7)
        grid = np.linspace(-half_width, half_width, 2001).reshape(-1, 1)
        target = np.array([student_t_moment(nu, k) for k in range(degree + 1)])
        moments = {(k,): float(target[k]) for k in range(degree + 1)}
        result, witness = truncated_moment_feasible(moments, grid, 1, [1], degree)
        assert result.status is FeasibilityStatus.FEASIBLE
        assert witness.num_atoms == degree + 1
        assert (witness.weights > 0).all()
        assert set(witness.atoms[:, 0].tolist()) <= set(grid[:, 0].tolist())
        achieved = fsum_moments(witness.atoms, witness.weights, [(k,) for k in range(degree + 1)])
        assert np.abs(achieved - target).max() <= DEFAULT_FEAS_TOL * (
            1.0 + np.abs(target).max()
        )
        print(
            f"\nACCEPTANCE 12 tchakaloff-student-t: PASS (nu={nu}, m={degree}, "
            f"[-{half_width:g}, {half_width:g}], {witness.num_atoms} nodes)"
        )
