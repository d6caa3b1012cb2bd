"""One pass over a measure file, in blocks of 32,768 rows.

`momcube reduce`, `verify` and `moments` read their input once, in blocks,
and never hold the whole measure.  These tests check that the blocks, the
merge-and-reduce engine and the block accumulators give what the library
gives on the loaded measure, that a fault in any block is reported as
``load_measure`` reports it, and that the commands' memory does not grow
with the row count.
"""

import io
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from momcube import (
    DiscreteMeasure,
    MeasureFormatError,
    build_basis,
    embed_block,
    load_measure,
    moment_vector,
    moments_to_dict,
    reduce,
    verify_cubature,
)
from momcube import measure, recomb
from momcube.cli import main

B = measure._READ_BLOCK
BASIS = build_basis(3, [1, 1, 1], 3)


def _draws(rows, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-10.0, 10.0, (rows, 3)), rng.uniform(0.1, 2.0, rows)


def _csv_lines(atoms, weights):
    return [",".join(map(repr, x + [w])) for x, w in zip(atoms.tolist(), weights.tolist())]


def _jsonl_lines(atoms, weights):
    return [json.dumps({"x": x, "w": w}) for x, w in zip(atoms.tolist(), weights.tolist())]


def _run(argv):
    """main(argv) with every warning an error; its exit code."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def test_block_is_a_multiple_of_the_moment_block():
    # The moment sums go over the same 4,096-atom blocks whether a measure
    # is read in pieces or held whole, which keeps moments.json unchanged.
    assert B == 32_768 and B % measure._ATOM_BLOCK == 0


class TestCommandsMatchTheLibrary:
    """At 3 * B + 5 rows the commands' output is the library's on the loaded
    measure, bit for bit: both run one engine over blocks of B rows."""

    @pytest.fixture(scope="class")
    def draws(self):
        return _draws(3 * B + 5, 2304)

    @pytest.mark.parametrize("layout", ["csv", "csv-header-blank-crlf-bom", "jsonl"])
    def test_reduce_verify_and_moments(self, tmp_path, draws, layout):
        atoms, weights = draws
        fmt = "jsonl" if layout == "jsonl" else "csv"
        lines = (_jsonl_lines if fmt == "jsonl" else _csv_lines)(atoms, weights)
        end, head = "\n", ""
        if layout == "csv-header-blank-crlf-bom":
            end, head = "\r\n", "\ufeffx,y,z,w\r\n\r\n"
            for k in (5, B - 1, B + 7, 2 * B):  # blank lines inside blocks
                lines[k] += "\r\n"
        path = tmp_path / f"measure.{fmt}"
        path.write_bytes((head + end.join(lines) + end).encode("utf-8"))
        common = ["--input", str(path), "--format", fmt, "--num-vars", "3"]

        # Blank lines, a header, CRLF and a byte-order mark stay on the
        # block parse; the line parser would take seconds here.
        with mock.patch.object(measure, "_csv_rows", side_effect=AssertionError):
            assert _run(["reduce", *common, "--degree", "3",
                         "--out-dir", str(tmp_path / "r")]) == 0
            assert _run(["verify", *common, "--cubature", str(tmp_path / "r/cubature.json"),
                         "--out-dir", str(tmp_path / "v")]) == 0
            assert _run(["moments", *common, "--degree", "3",
                         "--out-dir", str(tmp_path / "m")]) == 0

        loaded = load_measure(path, fmt, num_vars=3)
        np.testing.assert_array_equal(loaded.atoms, atoms)
        cubature, report = reduce(loaded, BASIS)
        written = json.loads((tmp_path / "r/cubature.json").read_text())
        assert written["node_indices"] == cubature.node_indices.tolist()
        assert written["nodes"] == cubature.nodes.tolist()
        assert written["weights"] == cubature.weights.tolist()
        assert json.loads((tmp_path / "r/reduction_report.json").read_text()) == report.to_dict()
        verification = verify_cubature(loaded, cubature, BASIS).to_dict()
        assert verification["mass_gap_rel"] <= 1e-12
        for out in ("r", "v"):
            path_out = tmp_path / out / "verification_report.json"
            assert json.loads(path_out.read_text()) == verification
        moments = moments_to_dict(BASIS, moment_vector(loaded, BASIS))
        assert json.loads((tmp_path / "m/moments.json").read_text()) == moments
        assert report.initial_atoms == 3 * B + 5 and report.final_atoms <= 20


def test_blocks_merge_in_binary_counter_order():
    # Seven blocks: the end of the pass merges the leftover levels 1 and 0,
    # then 2, which a power-of-two block count never reaches.
    rows = 20
    basis = build_basis(2, [1, 1], 2)
    rng = np.random.default_rng(77)
    blocks = [(rng.uniform(-1.0, 1.0, (rows, 2)), rng.uniform(0.1, 2.0, rows))
              for _ in range(7)]
    calls = []  # (rows in, rows out) of each reduction
    tree = recomb._tree

    def record(piece_rows, *args):
        out = tree(piece_rows, *args)
        calls.append((piece_rows, out[0]))
        return out

    with mock.patch.object(recomb, "_tree", wraps=record):
        _, report, _ = recomb._reduce_blocks(iter(blocks), basis)
    assert report.initial_atoms == 7 * rows

    carried = {}  # a result's rows -> the blocks it stands for
    merged = []
    for rows_in, rows_out in calls:
        assert (np.diff(rows_in) > 0).all()  # older rows first
        if rows_in.shape[0] == rows:  # a block as read; a union has <= 2D = 12
            label = str(rows_in[0] // rows + 1)
        else:
            label = next(carried[a] + carried[b] for a in carried for b in carried
                         if a + b == tuple(rows_in.tolist()))
        carried[tuple(rows_out.tolist())] = label
        merged.append(label)
    assert merged == [
        "1", "2", "12", "3", "4", "34", "1234", "5", "6", "56", "7", "567", "1234567",
    ]


def test_node_condition_is_taken_in_the_reported_rescale():
    # Three blocks, each reduced in its own rescale: the condition number is
    # that of the nodes' columns in the whole measure's map, as reported.
    atoms, weights = _draws(2 * B + 5, 3)
    cubature, report = reduce(DiscreteMeasure(atoms, weights), BASIS)
    shift, scale = (np.array(report.rescaling[key]) for key in ("shift", "scale"))
    cols = embed_block(BASIS, (cubature.nodes - shift) / scale)
    svals = np.linalg.svd(cols, compute_uv=False)
    assert report.node_condition == svals[0] / svals[-1]


class TestStreamedSums:
    def test_moments_and_mass_of_weights_spanning_40_decades(self):
        rng = np.random.default_rng(4040)
        n = 2 * B + 123
        atoms = rng.uniform(-1.0, 1.0, (n, 3))
        weights = 10.0 ** rng.uniform(-20.0, 20.0, n)
        text = "\n".join(_csv_lines(atoms, weights)) + "\n"
        sums = measure._MomentSums(BASIS)
        for block_atoms, block_weights in measure._read_blocks(text.encode(), "csv", 3):
            sums.add(block_atoms, block_weights)
        loaded = load_measure(text.encode(), "csv", num_vars=3)
        assert sums.count == n
        assert sums.moments().tobytes() == moment_vector(loaded, BASIS).tobytes()
        fsum = math.fsum(weights.tolist())
        assert sums.mass == fsum
        assert loaded.total_mass == fsum
        # A sum of per-block fsums rounds once per block; on these weights
        # that is not the correctly rounded total.
        per_block = math.fsum(
            math.fsum(weights[k:k + B].tolist()) for k in range(0, n, B)
        )
        assert per_block != fsum

    def test_exact_mass_of_subnormal_and_huge_weights(self):
        rng = np.random.default_rng(17)
        weights = np.concatenate([
            np.full(5000, 5e-324), rng.uniform(1e-310, 1e-308, 5000),
            10.0 ** rng.uniform(-300.0, 300.0, 5000), [1e300, 3.0],
        ])
        rng.shuffle(weights)
        units = sum(
            measure._mass_units(weights[k:k + 4096]) for k in range(0, weights.size, 4096)
        )
        assert measure._mass_value(units) == math.fsum(weights.tolist())


def _rows_text(rows, bad=None):
    """``rows`` data lines "x,y,z,w"; ``bad`` = (1-based line, text)."""
    lines = _csv_lines(*_draws(rows, 7))
    if bad is not None:
        lines[bad[0] - 1] = bad[1]
    return "\n".join(lines) + "\n"


class TestFaultsInLaterBlocks:
    """A fault in any block gives load_measure's message and line number,
    after the blocks before it have been delivered."""

    @pytest.mark.parametrize("line, text, message", [
        (B + 10, "1.0,abc,2.0,1.0", f"line {B + 10}: non-numeric value"),
        (3 * B + 3, "1.0,2.0,1.0", f"line {3 * B + 3}: expected 4 columns, got 3"),
        (2 * B + 7, "1.0,2.0,3.0,-1.0", f"line {2 * B + 7}: non-positive weight -1.0"),
    ], ids=["non-numeric", "short-row-in-last-block", "non-positive-weight"])
    def test_same_message_as_load_measure(self, tmp_path, capsys, line, text, message):
        data = _rows_text(3 * B + 5, bad=(line, text)).encode()
        with pytest.raises(MeasureFormatError) as loaded:
            load_measure(data, "csv", num_vars=3)
        assert str(loaded.value) == message
        delivered = 0
        with pytest.raises(MeasureFormatError) as streamed:
            for _, block_weights in measure._read_blocks(data, "csv", 3):
                delivered += block_weights.shape[0]
        assert str(streamed.value) == message
        assert delivered == (line - 1) // B * B

        path = tmp_path / "measure.csv"
        path.write_bytes(data)
        for command in ("reduce", "moments"):
            code = main([command, "--input", str(path), "--num-vars", "3",
                         "--degree", "3", "--out-dir", str(tmp_path / command)])
            assert code == 2
            assert capsys.readouterr().err.strip().endswith(f"{path}: {message}")
        assert not (tmp_path / "reduce" / "cubature.json").exists()

    def test_underscore_cell_in_block_two_parses_to_the_same_doubles(self):
        # np.loadtxt refuses "1_0.5" and float() takes it, so the line
        # parser reads the file again and skips the rows already delivered.
        lines = _rows_text(2 * B + 50).splitlines()
        lines[B + 100] = "1_0.5" + lines[B + 100][lines[B + 100].index(","):]
        data = ("\n".join(lines) + "\n").encode()
        blocks = list(measure._read_blocks(data, "csv", 3))
        assert [w.shape[0] for _, w in blocks] == [B, B, 50]
        loaded = load_measure(data, "csv", num_vars=3)
        assert loaded.atoms[B + 100, 0] == 10.5
        np.testing.assert_array_equal(np.concatenate([a for a, _ in blocks]), loaded.atoms)
        np.testing.assert_array_equal(np.concatenate([w for _, w in blocks]), loaded.weights)

    def test_jsonl_fault_in_block_two_names_its_line(self):
        lines = _jsonl_lines(*_draws(B + 20, 3))
        lines[B + 4] = '{"x": [1.0, 2.0]}'
        data = ("\n".join(lines) + "\n").encode()
        message = f"line {B + 5}: expected 3 coordinates, got 2"
        with pytest.raises(MeasureFormatError, match=f"^{message}$"):
            load_measure(data, "jsonl", num_vars=3)
        with pytest.raises(MeasureFormatError, match=f"^{message}$"):
            list(measure._read_blocks(io.BytesIO(data), "jsonl", 3))


class TestCommandMemory:
    """Each command holds one block at a time, so its traced peak at 2 * 10^5
    rows is its peak at 10^5 rows.  Holding the loaded measure, it doubled."""

    @staticmethod
    def _peaks(tmp_path, rows):
        path = tmp_path / f"measure{rows}.csv"
        path.write_text("\n".join(_csv_lines(*_draws(rows, rows))) + "\n")
        common = ["--input", str(path), "--num-vars", "3"]
        out = tmp_path / f"out{rows}"
        argvs = {
            "reduce": ["reduce", *common, "--degree", "3", "--out-dir", str(out)],
            "verify": ["verify", *common, "--cubature", str(out / "cubature.json"),
                       "--out-dir", str(out)],
            "moments": ["moments", *common, "--degree", "3", "--out-dir", str(out)],
        }
        peaks = {}
        for command, argv in argvs.items():
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_does_not_grow_with_the_row_count(self, tmp_path, capsys):
        small = self._peaks(tmp_path, 100_000)
        large = self._peaks(tmp_path, 200_000)
        for command in small:
            assert large[command] <= 1.1 * small[command], (command, small, large)
            # One block of 32,768 rows is 1 MiB of float64.
            assert large[command] <= 8 * 2**20, (command, large)
