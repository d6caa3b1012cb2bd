"""End-to-end tests for the command-line interface."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from momcube.cli import main
from oracles import enumerate_positive_cubatures


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def five_atom_csv(tmp_path):
    return _write(tmp_path / "grid.csv", "0\n1\n2\n3\n4\n")


class TestReduceCommand:
    def test_five_atom_reduce_exits_zero(self, tmp_path, five_atom_csv, capsys):
        out = tmp_path / "out"
        code = main([
            "reduce", "--input", five_atom_csv, "--format", "csv",
            "--num-vars", "1", "--degree", "2", "--out-dir", str(out),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

        cubature = json.loads((out / "cubature.json").read_text())
        assert len(cubature["weights"]) <= 3
        assert cubature["degree"] == 2
        assert cubature["basis"] == {
            "num_vars": 1, "degree_weights": [1], "max_degree": 2,
        }
        valid = enumerate_positive_cubatures(
            np.arange(5.0).reshape(-1, 1), np.ones(5), ((0,), (1,), (2,)), 3
        )
        supports = {s for s, _ in valid}
        assert tuple(cubature["node_indices"]) in supports

        assert set(cubature) == {"nodes", "weights", "degree", "basis", "node_indices"}

        report = json.loads((out / "reduction_report.json").read_text())
        assert report["initial_atoms"] == 5
        assert report["tree_levels"] == 0  # 5 atoms fit the base case (2D = 6)
        assert report["rank_tol_factor"] >= 1.0
        assert report["factorizations"] >= 1
        assert report["weight_ratio"] >= 1.0
        assert report["node_condition"] >= 1.0
        verification = json.loads((out / "verification_report.json").read_text())
        assert verification["max_residual_rel"] <= 1e-8

    def test_reports_agree_on_the_residual(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["gen", "--seed", "5", "--num-atoms", "3000", "--num-vars", "2",
                     "--out-dir", str(data)]) == 0
        assert main(["reduce", "--input", str(data / "measure.csv"), "--num-vars", "2",
                     "--degree", "4", "--out-dir", str(out)]) == 0
        report = json.loads((out / "reduction_report.json").read_text())
        verification = json.loads((out / "verification_report.json").read_text())
        assert report["max_moment_residual_rel"] > 0.0
        assert report["max_moment_residual_rel"] == verification["max_residual_rel"]

    def test_empty_csv_exits_two(self, tmp_path, capsys):
        empty = _write(tmp_path / "empty.csv", "")
        code = main([
            "reduce", "--input", empty, "--num-vars", "1", "--degree", "2",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "no atoms" in capsys.readouterr().err

    def test_degree_zero_single_node(self, tmp_path, five_atom_csv):
        out = tmp_path / "out"
        code = main([
            "reduce", "--input", five_atom_csv, "--num-vars", "1",
            "--degree", "0", "--out-dir", str(out),
        ])
        assert code == 0
        cubature = json.loads((out / "cubature.json").read_text())
        assert len(cubature["weights"]) == 1
        assert cubature["weights"][0] == pytest.approx(5.0)

    def test_missing_degree_exits_two(self, tmp_path, five_atom_csv, capsys):
        code = main(["reduce", "--input", five_atom_csv, "--num-vars", "1"])
        assert code == 2
        assert "degree" in capsys.readouterr().err

    def test_csv_without_num_vars_exits_two(self, tmp_path, five_atom_csv, capsys):
        code = main(["reduce", "--input", five_atom_csv, "--degree", "2"])
        assert code == 2
        assert "num-vars" in capsys.readouterr().err

    def test_jsonl_input_infers_dimension(self, tmp_path):
        source = _write(
            tmp_path / "m.jsonl",
            "\n".join(f'{{"x": [{v}.0]}}' for v in range(5)) + "\n",
        )
        code = main([
            "reduce", "--input", source, "--format", "jsonl",
            "--degree", "2", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_byte_identical_reruns(self, tmp_path):
        rng = np.random.default_rng(101)
        rows = "\n".join(
            f"{x},{y},{w}" for x, y, w in
            zip(rng.uniform(-5, 5, 300), rng.uniform(-5, 5, 300), rng.uniform(0.1, 1, 300))
        )
        measure = _write(tmp_path / "m.csv", rows + "\n")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "reduce", "--input", measure, "--num-vars", "2",
                "--degree", "3", "--out-dir", str(out),
            ])
            assert code == 0
            outputs.append((out / "cubature.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_file_with_flag_override(self, tmp_path, five_atom_csv):
        config = _write(tmp_path / "cfg.json", json.dumps({
            "basis": {"num_vars": 1, "max_degree": 4},
            "input": five_atom_csv,
            "out_dir": str(tmp_path / "from_config"),
        }))
        code = main(["reduce", "--config", config, "--degree", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        cubature = json.loads((tmp_path / "out" / "cubature.json").read_text())
        assert cubature["degree"] == 2  # flag beat the config
        assert not (tmp_path / "from_config").exists()

    def test_bad_config_exits_two(self, tmp_path, five_atom_csv, capsys):
        config = _write(tmp_path / "cfg.json", "{not json")
        code = main(["reduce", "--config", config, "--input", five_atom_csv])
        assert code == 2
        assert "config" in capsys.readouterr().err


class TestMomentsCommand:
    def test_moments_file_feeds_feasible(self, tmp_path, five_atom_csv):
        out = tmp_path / "out"
        code = main([
            "moments", "--input", five_atom_csv, "--num-vars", "1",
            "--degree", "2", "--out-dir", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "moments.json").read_text())
        assert payload["moments"] == {"0": 5.0, "1": 10.0, "2": 30.0}

        code = main([
            "feasible", "--input", str(out / "moments.json"),
            "--grid", five_atom_csv, "--out-dir", str(out),
        ])
        assert code == 0
        feasibility = json.loads((out / "feasibility.json").read_text())
        assert feasibility["status"] == "feasible"
        assert feasibility["witness"] is not None


    def test_jsonl_integer_too_large_for_a_float_exits_two(self, tmp_path, capsys):
        source = _write(tmp_path / "m.jsonl", '{"x": [1.0]}\n{"x": [1%s]}\n' % ("0" * 400))
        code = main(["moments", "--input", source, "--format", "jsonl",
                     "--degree", "2", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "line 2: non-finite coordinate" in capsys.readouterr().err


class TestFeasibleCommand:
    def _moment_file(self, tmp_path, values):
        payload = {
            "basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 2},
            "moments": {"0": values[0], "1": values[1], "2": values[2]},
        }
        return _write(tmp_path / "moments.json", json.dumps(payload))

    def test_negative_second_moment_exits_one(self, tmp_path):
        grid = _write(tmp_path / "grid.csv", "-1\n0\n1\n")
        moments = self._moment_file(tmp_path, [1.0, 0.0, -0.1])
        code = main(["feasible", "--input", moments, "--grid", grid,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        payload = json.loads((tmp_path / "out" / "feasibility.json").read_text())
        assert payload["status"] == "infeasible"
        assert payload["certificate"] is not None
        assert payload["margin"] > 0.0 and payload["residual"] > 0.0

    def test_interior_point_witness(self, tmp_path):
        grid = _write(tmp_path / "grid.csv", "-1\n0\n1\n")
        moments = self._moment_file(tmp_path, [1.0, 0.0, 0.5])
        code = main(["feasible", "--input", moments, "--grid", grid,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "feasibility.json").read_text())
        np.testing.assert_allclose(payload["weights"], [0.25, 0.5, 0.25], atol=1e-9)
        assert payload["iterations"] >= 1 and payload["reason"] is None
        assert payload["residual"] <= 1e-9 and payload["margin"] is None

    def test_malformed_moment_file_exits_two(self, tmp_path, capsys):
        grid = _write(tmp_path / "grid.csv", "0\n")
        moments = _write(tmp_path / "moments.json", '{"moments": {}}')
        code = main(["feasible", "--input", moments, "--grid", grid])
        assert code == 2
        assert "basis" in capsys.readouterr().err

    def test_missing_grid_exits_two(self, tmp_path):
        moments = self._moment_file(tmp_path, [1.0, 0.0, 0.5])
        assert main(["feasible", "--input", moments]) == 2

    def test_moments_over_a_tiny_mass_exit_two(self, tmp_path, capsys):
        grid = _write(tmp_path / "grid.csv", "-1\n0\n1\n")
        payload = {
            "basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 1},
            "moments": {"0": 1e-300, "1": 1e10},
        }
        path = _write(tmp_path / "moments.json", json.dumps(payload))
        code = main(["feasible", "--input", path, "--grid", grid,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "moment vector must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, message", [
        ("0", "total mass (constant moment) must be positive, got inf"),
        ("1", "moment vector must be finite"),
    ], ids=["mass", "first-moment"])
    def test_integer_too_large_for_a_float_exits_two(self, tmp_path, capsys, key, message):
        grid = _write(tmp_path / "grid.csv", "0.5\n1.5\n")
        moments = {"0": "1", "1": "0.5"}
        moments[key] = "1" + "0" * 400
        text = '{"basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 1}, ' \
            '"moments": {%s}}' % ", ".join(f'"{k}": {v}' for k, v in moments.items())
        path = _write(tmp_path / "moments.json", text)
        code = main(["feasible", "--input", path, "--grid", grid,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("keys, message", [
        (("1", "01"), "moment keys '1' and '01' name the same moment"),
        (("01", "1"), "moment keys '01' and '1' name the same moment"),
        (("1", "1"), "key '1' appears twice in one object"),
    ])
    def test_two_keys_for_one_moment_exit_two(self, tmp_path, capsys, keys, message):
        # On the grid {0.5, 1.5} a mean of 0.5 is feasible and 9 is not, so
        # the later key used to decide the exit code.
        grid = _write(tmp_path / "grid.csv", "0.5\n1.5\n")
        text = '{"basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 1}, ' \
            '"moments": {"0": 1, "%s": 0.5, "%s": 9.0}}' % keys
        path = _write(tmp_path / "moments.json", text)
        code = main(["feasible", "--input", path, "--grid", grid,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.strip().endswith(f"{path}: {message}")
        assert not (tmp_path / "out" / "feasibility.json").exists()

    @pytest.mark.parametrize(
        "moments", [[1, 2, 3], {"0": [1.0], "1": 0.0, "2": 0.5}], ids=["list", "list-value"]
    )
    def test_moments_not_an_object_of_numbers_exits_two(self, tmp_path, capsys, moments):
        grid = _write(tmp_path / "grid.csv", "-1\n0\n1\n")
        payload = {
            "basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 2},
            "moments": moments,
        }
        path = _write(tmp_path / "moments.json", json.dumps(payload))
        code = main(["feasible", "--input", path, "--grid", grid,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert '"moments" must be an object' in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_accepts_reduce_output(self, tmp_path, five_atom_csv):
        out = tmp_path / "out"
        assert main([
            "reduce", "--input", five_atom_csv, "--num-vars", "1",
            "--degree", "2", "--out-dir", str(out),
        ]) == 0
        assert main([
            "verify", "--input", five_atom_csv, "--num-vars", "1",
            "--cubature", str(out / "cubature.json"),
            "--out-dir", str(tmp_path / "check"),
        ]) == 0

    def test_verify_rejects_tampered_cubature(self, tmp_path, five_atom_csv):
        out = tmp_path / "out"
        main(["reduce", "--input", five_atom_csv, "--num-vars", "1",
              "--degree", "2", "--out-dir", str(out)])
        payload = json.loads((out / "cubature.json").read_text())
        payload["weights"][0] *= 2.0
        tampered = _write(tmp_path / "tampered.json", json.dumps(payload))
        code = main([
            "verify", "--input", five_atom_csv, "--num-vars", "1",
            "--cubature", tampered, "--out-dir", str(tmp_path / "check"),
        ])
        assert code == 1


    @staticmethod
    def _verify_identity(tmp_path, **fields):
        """Exit code of verify on an identity cubature of three atoms, with
        ``fields`` replaced in the cubature file."""
        measure = _write(tmp_path / "line.csv", "0\n1\n2\n")
        payload = {
            "nodes": [[0.0], [1.0], [2.0]], "weights": [1.0, 1.0, 1.0], "degree": 2,
            "basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 2},
            "node_indices": [0, 1, 2], **fields,
        }
        cubature = _write(tmp_path / "cubature.json", json.dumps(payload))
        return main([
            "verify", "--input", measure, "--num-vars", "1",
            "--cubature", cubature, "--out-dir", str(tmp_path / "check"),
        ])

    def test_identity_cubature_file_passes(self, tmp_path):
        assert self._verify_identity(tmp_path) == 0
        assert (tmp_path / "check" / "verification_report.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("node_indices", [0, 1.5, 2]),
        ("node_indices", [0, "1", 2]),
        ("node_indices", [0, True, 2]),
        ("node_indices", [0, 1e20, 2]),
        ("node_indices", [0, 10**20, 2]),
        ("node_indices", 1),
        ("nodes", [[0.0], ["1"], [2.0]]),
        ("nodes", [[0.0], [True], [2.0]]),
        ("weights", [1.0, "1", 1.0]),
        ("weights", [1.0, True, 1.0]),
        ("nodes", [[0.0], [float("inf")], [2.0]]),
        ("weights", [float("nan"), 1.0, 1.0]),
    ], ids=["index-float", "index-string", "index-true", "index-1e20", "index-int-1e20",
            "index-not-array", "node-string", "node-true", "weight-string", "weight-true",
            "node-infinity", "weight-nan"])
    def test_bad_cubature_file_value_exits_two(self, tmp_path, capsys, field, value):
        assert self._verify_identity(tmp_path, **{field: value}) == 2
        assert repr(field) in capsys.readouterr().err
        assert not (tmp_path / "check" / "verification_report.json").exists()

    @pytest.mark.parametrize("degree, max_degree", [
        (7, 2), (1, 2), (2.0, 2), ("x", 2), (None, 2), (True, 1),
    ], ids=["other", "lower", "float", "string", "null", "true-for-1"])
    def test_degree_other_than_the_basis_exits_two(
        self, tmp_path, capsys, degree, max_degree
    ):
        basis = {"num_vars": 1, "degree_weights": [1], "max_degree": max_degree}
        assert self._verify_identity(tmp_path, degree=degree, basis=basis) == 2
        err = capsys.readouterr().err
        assert "bad cubature file" in err and "'degree'" in err
        assert not (tmp_path / "check" / "verification_report.json").exists()

    def test_basis_of_other_dimension_exits_two(self, tmp_path, capsys):
        measure = _write(tmp_path / "plane.csv", "0,0\n1,0\n0,1\n1,1\n")
        out = tmp_path / "out"
        assert main([
            "reduce", "--input", measure, "--num-vars", "2",
            "--degree", "1", "--out-dir", str(out),
        ]) == 0
        payload = json.loads((out / "cubature.json").read_text())
        payload["basis"]["num_vars"] = 3
        payload["basis"]["degree_weights"] = [1, 1, 1]
        other = _write(tmp_path / "other.json", json.dumps(payload))
        code = main([
            "verify", "--input", measure, "--num-vars", "2",
            "--cubature", other, "--out-dir", str(tmp_path / "check"),
        ])
        assert code == 2
        assert "basis has 3 coordinates" in capsys.readouterr().err


class TestGenCommand:
    def test_gen_then_reduce_pipeline(self, tmp_path):
        out = tmp_path / "data"
        assert main([
            "gen", "--seed", "5", "--num-atoms", "200", "--num-vars", "2",
            "--format", "csv", "--out-dir", str(out),
        ]) == 0
        assert main([
            "reduce", "--input", str(out / "measure.csv"), "--num-vars", "2",
            "--degree", "2", "--out-dir", str(tmp_path / "red"),
        ]) == 0

    def test_gen_is_seed_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert main([
                "gen", "--seed", "9", "--num-atoms", "50", "--num-vars", "1",
                "--format", "jsonl", "--out-dir", str(tmp_path / name),
            ]) == 0
        assert (tmp_path / "a" / "measure.jsonl").read_bytes() == \
               (tmp_path / "b" / "measure.jsonl").read_bytes()

    def test_gen_unit_weights(self, tmp_path):
        out = tmp_path / "data"
        assert main([
            "gen", "--seed", "1", "--num-atoms", "10", "--num-vars", "1",
            "--format", "jsonl", "--unit-weights", "--out-dir", str(out),
        ]) == 0
        lines = (out / "measure.jsonl").read_text().splitlines()
        assert all(json.loads(line)["w"] == 1.0 for line in lines)

    def test_gen_without_num_vars_exits_two(self, tmp_path):
        assert main(["gen", "--seed", "1", "--out-dir", str(tmp_path)]) == 2


class TestOutDir:
    """An --out-dir that cannot be a directory is an input error (exit 2),
    raised before the command loads or computes anything."""

    @pytest.fixture
    def inputs(self, tmp_path, five_atom_csv):
        out = tmp_path / "good"
        common = ["--input", five_atom_csv, "--num-vars", "1", "--degree", "2"]
        assert main(["reduce", *common, "--out-dir", str(out)]) == 0
        assert main(["moments", *common, "--out-dir", str(out)]) == 0
        return {
            "reduce": common,
            "moments": common,
            "feasible": ["--input", str(out / "moments.json"), "--grid", five_atom_csv],
            "verify": ["--input", five_atom_csv, "--num-vars", "1",
                       "--cubature", str(out / "cubature.json")],
            "gen": ["--num-vars", "1", "--num-atoms", "5"],
        }

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", ["reduce", "moments", "feasible", "verify", "gen"])
    def test_out_dir_that_is_a_file_exits_two(self, tmp_path, capsys, inputs, command, below):
        blocker = tmp_path / "afile"
        blocker.write_text("keep\n")
        out_dir = blocker / "sub" if below else blocker
        capsys.readouterr()
        assert main([command, *inputs[command], "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot create output directory {out_dir}" in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "keep\n"


class TestOptionTable:
    """Each subcommand takes only the options it reads; config values pass
    the same check as the flags."""

    @pytest.mark.parametrize("command, flags", [
        ("reduce", "--input --format --out-dir --num-vars --degree --weights --tol --mass-tol"),
        ("moments", "--input --format --out-dir --num-vars --degree --weights"),
        ("feasible", "--input --format --out-dir --grid --feas-tol"),
        ("verify", "--input --format --out-dir --num-vars --cubature --tol --mass-tol"),
        ("gen", "--format --out-dir --num-vars --seed --num-atoms --unit-weights"),
    ])
    def test_help_lists_exactly_the_options_read(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", "--config", *flags.split()}

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--input"), ("gen", "--tol"), ("gen", "--degree"), ("gen", "--weights"),
        ("verify", "--degree"), ("verify", "--weights"),
        ("moments", "--tol"), ("feasible", "--tol"),
    ])
    def test_option_the_command_does_not_read_exits_two(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "1", "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command, config, flag", [
        ("gen", {"unit_weights": "false"}, "--unit-weights"),
        ("gen", {"seed": 1.9}, "--seed"),
        ("reduce", {"tol": True}, "--tol"),
    ])
    def test_bad_config_value_names_its_flag(
        self, tmp_path, five_atom_csv, capsys, command, config, flag
    ):
        path = _write(tmp_path / "cfg.json", json.dumps({
            "basis": {"num_vars": 1, "max_degree": 2}, "input": five_atom_csv, **config,
        }))
        assert main([command, "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: {flag} (config key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, argv, flag", [
        ("moments", ["--num-vars", "1", "--degree", "2"], "--input"),
        ("feasible", ["--input", "moments.json"], "--grid"),
        ("verify", ["--input", "grid.csv", "--num-vars", "1"], "--cubature"),
    ])
    def test_missing_required_option_exits_two(self, tmp_path, capsys, command, argv, flag):
        assert main([command, *argv, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: missing {flag}" in capsys.readouterr().err

    def test_config_string_is_read_like_its_flag(self, tmp_path, five_atom_csv):
        config = _write(tmp_path / "cfg.json", json.dumps({"basis": {"num_vars": "1"}}))
        args = ["--input", five_atom_csv, "--degree", "2"]
        assert main(["reduce", *args, "--config", config, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["reduce", *args, "--num-vars", "1", "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "cubature.json").read_bytes() == \
               (tmp_path / "b" / "cubature.json").read_bytes()

    def test_option_the_command_does_not_read_is_not_checked(self, tmp_path, five_atom_csv):
        config = _write(tmp_path / "cfg.json", json.dumps({"feas_tol": 0}))
        assert main([
            "reduce", "--config", config, "--input", five_atom_csv, "--num-vars", "1",
            "--degree", "2", "--out-dir", str(tmp_path / "out"),
        ]) == 0


class TestByteOrderMark:
    """Every JSON input may start with a UTF-8 byte-order mark."""

    @staticmethod
    def _with_bom(path):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return str(path)

    def test_config(self, tmp_path, five_atom_csv):
        config = self._with_bom(Path(_write(tmp_path / "cfg.json", json.dumps({
            "basis": {"num_vars": 1, "max_degree": 2}, "input": five_atom_csv,
        }))))
        assert main(["reduce", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0

    def test_moment_file(self, tmp_path, five_atom_csv):
        out = tmp_path / "out"
        assert main(["moments", "--input", five_atom_csv, "--num-vars", "1",
                     "--degree", "2", "--out-dir", str(out)]) == 0
        moments = self._with_bom(out / "moments.json")
        assert main(["feasible", "--input", moments, "--grid", five_atom_csv,
                     "--out-dir", str(out)]) == 0

    def test_cubature_file(self, tmp_path, five_atom_csv):
        out = tmp_path / "out"
        assert main(["reduce", "--input", five_atom_csv, "--num-vars", "1",
                     "--degree", "2", "--out-dir", str(out)]) == 0
        cubature = self._with_bom(out / "cubature.json")
        assert main(["verify", "--input", five_atom_csv, "--num-vars", "1",
                     "--cubature", cubature, "--out-dir", str(out)]) == 0


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestNonFiniteValues:
    """Moments that overflow are input errors (with no RuntimeWarning, which
    the test run turns into an error), and every file the CLI writes is
    strict JSON: no NaN or Infinity tokens."""

    @pytest.fixture
    def overflow_csv(self, tmp_path):
        # x^2 * w = 1.00000054e312 overflows; the one-node cubature is exact.
        return _write(tmp_path / "over.csv", "1000000.27,1e300\n")

    def _assert_input_error(self, code, out, capsys):
        assert code == 2
        captured = capsys.readouterr()
        assert 'moment "2" of the measure overflows the float range' in captured.err
        assert captured.out == ""
        assert not list(out.glob("*.json"))

    def test_reduce_exits_two(self, tmp_path, overflow_csv, capsys):
        out = tmp_path / "r"
        code = main(["reduce", "--input", overflow_csv, "--num-vars", "1",
                     "--degree", "2", "--out-dir", str(out)])
        self._assert_input_error(code, out, capsys)

    def test_moments_exits_two(self, tmp_path, overflow_csv, capsys):
        out = tmp_path / "m"
        code = main(["moments", "--input", overflow_csv, "--num-vars", "1",
                     "--degree", "2", "--out-dir", str(out)])
        self._assert_input_error(code, out, capsys)

    def test_verify_exits_two(self, tmp_path, overflow_csv, capsys):
        cubature = _write(tmp_path / "cubature.json", json.dumps({
            "nodes": [[1000000.27]], "weights": [1e300], "degree": 2,
            "basis": {"num_vars": 1, "degree_weights": [1], "max_degree": 2},
            "node_indices": [0],
        }))
        out = tmp_path / "v"
        code = main(["verify", "--input", overflow_csv, "--num-vars", "1",
                     "--cubature", cubature, "--out-dir", str(out)])
        self._assert_input_error(code, out, capsys)

    def test_bounds_near_the_float_maximum_reduce(self, tmp_path, capsys):
        # lo + hi overflows here; the rescale halves each bound first.
        source = _write(tmp_path / "huge.csv", "1.7e308,1e-10\n1.6e308,2e-10\n1.65e308,1e-10\n")
        out = tmp_path / "r"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["reduce", "--input", source, "--num-vars", "1",
                         "--degree", "1", "--out-dir", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((out / "reduction_report.json").read_text())
        assert report["final_atoms"] == 2
        assert report["max_moment_residual_rel"] <= 1e-15
        [shift] = report["rescaling"]["shift"]
        assert 1.6e308 < shift < 1.7e308

    def test_infinite_weight_ratio_is_written_as_null(self, tmp_path):
        source = _write(tmp_path / "two.csv", "0.1,1e-320\n0.9,1e300\n")
        out = tmp_path / "r"
        code = main(["reduce", "--input", source, "--num-vars", "1",
                     "--degree", "3", "--out-dir", str(out)])
        assert code == 0
        text = (out / "reduction_report.json").read_text()
        report = json.loads(text, parse_constant=_refuse_constant)
        assert report["weight_ratio"] is None
        assert report["node_condition"] is not None

    def test_every_written_file_is_strict_json(self, tmp_path):
        runs = [
            ["gen", "--seed", "3", "--num-atoms", "400", "--num-vars", "2",
             "--out-dir", str(tmp_path / "d")],
            ["gen", "--seed", "3", "--num-atoms", "50", "--num-vars", "2",
             "--format", "jsonl", "--out-dir", str(tmp_path / "d")],
        ]
        measure = str(tmp_path / "d" / "measure.csv")
        two = _write(tmp_path / "two.csv", "0.1,1e-320\n0.9,1e300\n")
        common = ["--input", measure, "--num-vars", "2"]
        runs += [
            ["reduce", *common, "--degree", "3", "--out-dir", str(tmp_path / "r")],
            ["verify", *common, "--cubature", str(tmp_path / "r" / "cubature.json"),
             "--out-dir", str(tmp_path / "v")],
            ["moments", *common, "--degree", "2", "--out-dir", str(tmp_path / "m")],
            ["feasible", "--input", str(tmp_path / "m" / "moments.json"),
             "--grid", measure, "--out-dir", str(tmp_path / "f")],
            ["reduce", "--input", two, "--num-vars", "1", "--degree", "3",
             "--out-dir", str(tmp_path / "r2")],
        ]
        for argv in runs:
            assert main(argv) in (0, 1, 3), argv
        files = sorted(tmp_path.glob("*/*.json"))
        assert {p.parent.name for p in files} == {"r", "v", "m", "f", "r2"}
        assert len(files) == 9
        for path in files:
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        lines = (tmp_path / "d" / "measure.jsonl").read_text().splitlines()
        assert len(lines) == 50
        for line in lines:
            json.loads(line, parse_constant=_refuse_constant)
