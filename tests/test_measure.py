"""Tests for measure ingestion, feature blocks, and moment vectors."""

import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momcube import (
    DiscreteMeasure,
    FunctionDictionary,
    MeasureFormatError,
    build_basis,
    embed_block,
    load_measure,
    moment_vector,
)
from momcube import measure
from oracles import fsum_moments, naive_embedding


def _csv(text):
    return io.StringIO(text)


class TestLoadMeasureCsv:
    def test_no_weight_column_defaults_to_unit(self):
        m = load_measure(_csv("0\n1\n2\n"), "csv", num_vars=1)
        np.testing.assert_array_equal(m.atoms, [[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(m.weights, [1.0, 1.0, 1.0])

    def test_weight_column_parsed(self):
        m = load_measure(_csv("0.5,0.5,2.0\n"), "csv", num_vars=2)
        np.testing.assert_array_equal(m.atoms, [[0.5, 0.5]])
        np.testing.assert_array_equal(m.weights, [2.0])

    def test_non_positive_weight_rejected_with_line(self):
        with pytest.raises(MeasureFormatError, match="line 1.*non-positive weight"):
            load_measure(_csv("1.0,2.0,-0.5\n"), "csv", num_vars=2)

    def test_zero_weight_rejected(self):
        with pytest.raises(MeasureFormatError, match="non-positive weight"):
            load_measure(_csv("1.0,0.0\n"), "csv", num_vars=1)

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(MeasureFormatError, match="line 2"):
            load_measure(_csv("1.0,2.0\n1.0\n"), "csv")

    def test_non_numeric_mid_file_rejected(self):
        with pytest.raises(MeasureFormatError, match="line 2.*non-numeric"):
            load_measure(_csv("1.0\nabc\n"), "csv")

    def test_nan_rejected(self):
        with pytest.raises(MeasureFormatError, match="non-finite"):
            load_measure(_csv("1.0\nnan\n"), "csv")

    def test_header_detected_and_skipped(self):
        m = load_measure(_csv("x,w\n1.0,2.0\n"), "csv", num_vars=1)
        np.testing.assert_array_equal(m.atoms, [[1.0]])
        np.testing.assert_array_equal(m.weights, [2.0])

    def test_partly_numeric_first_row_rejected_not_skipped(self):
        # A first row with a number in it is data with a missing cell, not a
        # header; skipping it would silently drop an atom.
        with pytest.raises(MeasureFormatError, match="line 1: non-numeric value"):
            load_measure(_csv("1,,2\n3,4,5\n6,7,8\n"), "csv", num_vars=2)

    def test_empty_file_rejected(self):
        for text in ["", "\n\n", "x,w\n"]:  # empty, blank lines only, a header only
            with pytest.raises(MeasureFormatError, match="no atoms"):
                load_measure(_csv(text), "csv")

    def test_wrong_column_count_for_declared_vars(self):
        with pytest.raises(MeasureFormatError, match="coordinate columns"):
            load_measure(_csv("1.0,2.0,3.0,4.0\n"), "csv", num_vars=2)

    def test_path_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.25,1.5\n-3.0,0.5\n")
        m = load_measure(path, "csv", num_vars=1)
        np.testing.assert_array_equal(m.atoms, [[0.25], [-3.0]])
        np.testing.assert_array_equal(m.weights, [1.5, 0.5])


BOM = "\ufeff".encode("utf-8")


class TestLoadMeasureBom:
    def test_headerless_csv_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(BOM + b"1.0,2.0,0.5\n3.0,4.0,1.5\n")
        m = load_measure(path, "csv", num_vars=2)
        np.testing.assert_array_equal(m.atoms, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m.weights, [0.5, 1.5])

    def test_headerless_csv_bytes_on_the_line_parser(self):
        # 1_000 sends the file to the line parser, which must not see the BOM.
        m = load_measure(BOM + b"1_000,2.0,0.5\n", "csv", num_vars=2)
        np.testing.assert_array_equal(m.atoms, [[1000.0, 2.0]])

    def test_jsonl(self):
        m = load_measure(io.BytesIO(BOM + b'{"x": [1.0, 2.0], "w": 0.5}\n'), "jsonl")
        np.testing.assert_array_equal(m.atoms, [[1.0, 2.0]])
        np.testing.assert_array_equal(m.weights, [0.5])


def _source(kind, text, tmp_path):
    if kind == "path":
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        return path
    if kind == "bytes":
        return text.encode("utf-8")
    if kind == "BytesIO":
        return io.BytesIO(text.encode("utf-8"))
    return io.StringIO(text, newline="")  # keeps "\r" as written


@pytest.mark.parametrize("fmt, lines", [
    ("csv", ["x,w", "1.0,2.0", "2.0,0.5"]),
    ("jsonl", ['{"x": [1.0], "w": 2.0}', '{"x": [2.0], "w": 0.5}']),
])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("kind", ["path", "bytes", "BytesIO", "StringIO"])
def test_every_source_reads_universal_newlines(tmp_path, fmt, lines, end, kind):
    m = load_measure(_source(kind, end.join(lines) + end, tmp_path), fmt, num_vars=1)
    np.testing.assert_array_equal(m.atoms, [[1.0], [2.0]])
    np.testing.assert_array_equal(m.weights, [2.0, 0.5])


def _rows(count, bad=None):
    """count gen-style rows "x,y,z,w"; row ``bad`` (1-based) replaced."""
    lines = [f"{0.5 * i!r},{-0.25 * i!r},{1.0 + i!r},{0.5 + i % 7!r}\n" for i in range(count)]
    if bad is not None:
        index, text = bad
        lines[index - 1] = text
    return "".join(lines)


class TestCsvBlockFallback:
    """Inputs the block parse refuses are read again by the line parser."""

    def test_block_parse_takes_well_formed_files(self):
        with mock.patch.object(measure, "_csv_rows", side_effect=AssertionError):
            for text in ["1.0,2.0,0.5\n", "x,y,w\n\n1.0,2.0,0.5\r\n3,4,1\r\n", " 1 , 2 \n3,4\n\n"]:
                assert load_measure(_csv(text), "csv", num_vars=2).num_atoms >= 1, text

    def test_last_row_nan_names_its_line(self):
        text = _rows(70_001, bad=(70_001, "1.0,2.0,nan,1.0\n"))
        with pytest.raises(MeasureFormatError, match="^line 70001: non-finite value$"):
            load_measure(_csv(text), "csv", num_vars=3)

    def test_wrong_width_deep_in_the_file_names_its_line(self):
        text = _rows(70_001, bad=(50_000, "1.0,2.0,1.0\n"))
        with pytest.raises(MeasureFormatError, match="^line 50000: expected 4 columns, got 3$"):
            load_measure(_csv(text), "csv", num_vars=3)

    def test_underscore_digits_load(self):
        m = load_measure(_csv("1_000,2.5\n3,4\n"), "csv", num_vars=1)
        np.testing.assert_array_equal(m.atoms, [[1000.0], [3.0]])
        np.testing.assert_array_equal(m.weights, [2.5, 4.0])

    def test_whitespace_only_line_skipped(self):
        m = load_measure(_csv("1.0,2.0\n \t \n3.0,4.0\n"), "csv", num_vars=2)
        np.testing.assert_array_equal(m.atoms, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m.weights, [1.0, 1.0])


_NUMBERS = st.one_of(st.floats(1e-3, 1e3), st.floats(allow_nan=False), st.integers(1, 9))
_ODD_CELLS = st.sampled_from([
    "0", "-0.0", "-1.5", "1e400", "1e-400", "+.5", "-iNF", "inf", "nan", "1_000", "\u0661",
    "", "#1", '"2"', "abc", "1d5", "0x10",
])


@st.composite
def csv_texts(draw):
    """(CSV text, num_vars): mostly well formed, with every kind of defect."""
    width = draw(st.integers(1, 4))
    lines = []
    header = draw(st.sampled_from([None, None, "names", "names", "odd"]))
    if header is not None:
        names = ["x", "y", " w ", "label"] + (["1", ""] if header == "odd" else [])
        n = draw(st.integers(width - 1, width + 1)) if header == "odd" else width
        lines.append(",".join(draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["odd", "ragged", "blank", "space", "trailing"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \x0c "])))
            continue
        n = draw(st.integers(1, width + 2)) if kind == "ragged" else width
        cells = [repr(v) if isinstance(v, float) else str(v)
                 for v in draw(st.lists(_NUMBERS, min_size=n, max_size=n))]
        if kind == "odd":
            cells[draw(st.integers(0, n - 1))] = draw(_ODD_CELLS)
        pad = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(",".join(pad + c + pad for c in cells) + ("," if kind == "trailing" else ""))
    ends = draw(st.lists(st.sampled_from(["\n"] * 8 + ["\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    num_vars = draw(st.sampled_from([None, width] + ([width - 1] if width > 1 else [])))
    return text, num_vars


def _outcome(source, num_vars):
    try:
        m = load_measure(source, "csv", num_vars=num_vars)
    except MeasureFormatError as exc:
        return "error", str(exc)
    return m.atoms.shape, m.atoms.tobytes(), m.weights.tobytes()


def _streamed_outcome(source, num_vars, rows):
    """``_outcome`` of the blocks that the CLI's reader yields."""
    try:
        blocks = list(measure._read_blocks(source, "csv", num_vars, rows))
    except MeasureFormatError as exc:
        return "error", str(exc)
    atoms = np.concatenate([a for a, _ in blocks])
    weights = np.concatenate([w for _, w in blocks])
    return atoms.shape, atoms.tobytes(), weights.tobytes()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(csv_texts(), st.booleans())
@example(("1,2\n#3,4\n", None), False)  # "#" starts no comment
@example(("x,y\n", 2), True)
@example(("x,y\n\na,b\n1,2\n", None), False)  # only the first line can be a header
def test_block_parse_matches_the_line_parser(case, bom):
    text, num_vars = case
    data = ("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8")
    with mock.patch.object(measure.np, "loadtxt", side_effect=ValueError):  # line parser only
        want = _outcome(data, num_vars)
    assert _outcome(data, num_vars) == want
    # In blocks of two rows, a header, blank lines and faults fall at and
    # across block boundaries.
    assert _streamed_outcome(data, num_vars, 2) == want


class TestLoadMeasureJsonl:
    def test_basic_object(self):
        m = load_measure(_csv('{"x": [0.5, 0.5], "w": 2.0}\n'), "jsonl")
        np.testing.assert_array_equal(m.atoms, [[0.5, 0.5]])
        np.testing.assert_array_equal(m.weights, [2.0])

    def test_weight_defaults_to_unit(self):
        m = load_measure(_csv('{"x": [1.0]}\n{"x": [2.0]}\n'), "jsonl")
        np.testing.assert_array_equal(m.weights, [1.0, 1.0])

    def test_missing_x_rejected(self):
        with pytest.raises(MeasureFormatError, match='line 1.*"x"'):
            load_measure(_csv('{"w": 1.0}\n'), "jsonl")

    def test_bad_weight_rejected(self):
        with pytest.raises(MeasureFormatError, match="line 1.*weight"):
            load_measure(_csv('{"x": [1.0], "w": -2.0}\n'), "jsonl")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"x": [true, 2.0]}', '"x" must be an array of numbers'),
            ('{"x": [1.0], "w": true}', "non-positive weight True"),
        ],
        ids=["x", "w"],
    )
    def test_booleans_rejected(self, line, message):
        with pytest.raises(MeasureFormatError, match=f"line 1: {message}"):
            load_measure(_csv(line + "\n"), "jsonl")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"x": [%s]}', "non-finite coordinate"),
            ('{"x": [-%s]}', "non-finite coordinate"),
            ('{"x": [1.0], "w": %s}', "non-finite weight"),
        ],
        ids=["x", "negative-x", "w"],
    )
    def test_integer_too_large_for_a_float_rejected(self, line, message):
        huge = "1" + "0" * 400
        with pytest.raises(MeasureFormatError, match=f"line 2: {message}"):
            load_measure(_csv('{"x": [1.0]}\n' + line % huge + "\n"), "jsonl")

    def test_inconsistent_length_rejected(self):
        with pytest.raises(MeasureFormatError, match="line 2"):
            load_measure(_csv('{"x": [1.0, 2.0]}\n{"x": [1.0]}\n'), "jsonl")

    def test_invalid_json_rejected(self):
        with pytest.raises(MeasureFormatError, match="line 1.*JSON"):
            load_measure(_csv("not json\n"), "jsonl")

    def test_deeply_nested_line_rejected(self):
        deep = "[" * 100_000 + "]" * 100_000  # deeper than the JSON parser's recursion
        with pytest.raises(MeasureFormatError, match="^line 2: invalid JSON"):
            load_measure(_csv('{"x": [1.0]}\n{"x": %s}\n' % deep), "jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(MeasureFormatError, match="unknown format"):
            load_measure(_csv("1.0\n"), "parquet")

    def test_unsupported_source_rejected(self):
        with pytest.raises(MeasureFormatError, match="unsupported measure source int"):
            load_measure(42)


class TestLoadJson:
    """``measure._load_json``, the reader of moment, config and cubature files."""

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO, lambda b: io.StringIO(b.decode())],
                             ids=["bytes", "binary-file", "text-file"])
    def test_bom_and_any_line_end(self, wrap):
        text = b'\xef\xbb\xbf{"a": 1,\r\n"b": {"c": [2]}\r}\n'
        assert measure._load_json(wrap(text)) == {"a": 1, "b": {"c": [2]}}

    @pytest.mark.parametrize("text, key", [
        ('{"a": 1, "a": 2}', "a"),
        ('{"a": {"b": 1, "b": 1}}', "b"),
        ('{"a": [{"c": 1}, {"c": 1, "c": 2}]}', "c"),
    ], ids=["top", "nested", "in-array"])
    def test_key_named_twice_is_refused(self, text, key):
        with pytest.raises(ValueError, match=f"^key '{key}' appears twice in one object$"):
            measure._load_json(text.encode())

    @pytest.mark.parametrize("text", ["{not json", "", '{"a": 1} 2', "[" * 100_000 + "]" * 100_000],
                             ids=["syntax", "empty", "trailing", "deep"])
    def test_invalid_json_is_refused(self, text):
        with pytest.raises(ValueError, match="^invalid JSON: "):
            measure._load_json(text.encode())

    @pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
    def test_document_that_is_not_an_object_is_refused(self, text):
        with pytest.raises(ValueError, match="^expected a JSON object at the top level$"):
            measure._load_json(text.encode())


class TestDiscreteMeasure:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.empty((0, 2)), np.empty(0))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_rejects_non_finite_atoms(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((2, 1)), np.ones(3))

    def test_arrays_are_read_only(self):
        m = DiscreteMeasure(np.zeros((2, 1)), np.ones(2))
        with pytest.raises(ValueError):
            m.atoms[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    def test_total_mass(self):
        m = DiscreteMeasure(np.zeros((3, 1)), np.array([0.5, 1.25, 0.25]))
        assert m.total_mass == 2.0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOwnership:
    """The constructor copies; a loaded measure owns the parsed arrays."""

    def test_constructor_copies_its_inputs(self):
        atoms = np.array([[0.0, 1.0], [2.0, 3.0]])
        weights = np.array([0.5, 1.5])
        m = DiscreteMeasure(atoms, weights)
        atoms[0, 0] = 7.0
        weights[1] = 9.0
        np.testing.assert_array_equal(m.atoms, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(m.weights, [0.5, 1.5])

    @pytest.mark.parametrize("text, fmt", [
        ("1.0,2.0,0.5\n3.0,4.0,1.5\n", "csv"),  # np.loadtxt's block
        ("1_0.0,2.0,0.5\n3.0,4.0,1.5\n", "csv"),  # the line parser
        ('{"x": [1.0, 2.0], "w": 0.5}\n{"x": [3.0, 4.0]}\n', "jsonl"),
    ])
    def test_loaded_arrays_are_read_only(self, text, fmt):
        m = load_measure(_csv(text), fmt, num_vars=2)
        assert m.num_atoms == 2
        for arr in (m.atoms, m.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("num_atoms", [4095, 4096, 4097, 3 * 4096 + 5])
    def test_total_mass_is_fsum_bit_for_bit(self, num_atoms):
        assert measure._ATOM_BLOCK == 4096
        rng = np.random.default_rng(num_atoms)
        # Weights over 40 decades, so a plain or blocked float sum would
        # round differently from the correctly rounded one.
        weights = 10.0 ** rng.uniform(-20.0, 20.0, num_atoms)
        m = DiscreteMeasure(np.zeros((num_atoms, 1)), weights)
        assert m.total_mass == math.fsum(weights.tolist())


class TestIngestMemory:
    """Traced peaks of ingest and of the mass sum.  Files and measures are
    built before tracing starts."""

    num_rows = 30_000

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(41)
        return rng.uniform(-1.0, 1.0, (self.num_rows, 3)), rng.uniform(0.1, 2.0, self.num_rows)

    @pytest.mark.parametrize("path, source", [
        pytest.param(path, source, id=path if source == "path" else f"{path}-{source}")
        for path in ("block", "lines", "jsonl")
        for source in ("path", "bytes", "BytesIO", "StringIO")
    ])
    def test_load_peak_is_about_the_measure(self, rows, path, source, tmp_path):
        # A copy of the parsed arrays made this 2.0x on all three paths, and
        # decoding an in-memory source whole into an io.StringIO 12x.
        atoms, weights = rows
        lines = []
        for k, (row, w) in enumerate(zip(atoms.tolist(), weights.tolist())):
            if path == "jsonl":
                lines.append(json.dumps({"x": row, "w": w}) + "\n")
            elif path == "lines" and k == 0:
                # np.loadtxt refuses the underscore; float() takes it.
                lines.append(f"1_0.5,{row[1]!r},{row[2]!r},{w!r}\n")
            else:
                lines.append(",".join(map(repr, row + [w])) + "\n")
        text = "".join(lines)
        data = text.encode()
        if source == "path":
            (tmp_path / "measure.txt").write_bytes(data)
            src = str(tmp_path / "measure.txt")
        elif source == "StringIO":
            src = io.StringIO(text)
        else:
            src = data if source == "bytes" else io.BytesIO(data)
        fmt = "jsonl" if path == "jsonl" else "csv"
        m, peak = _traced_peak(lambda: load_measure(src, fmt, num_vars=3))
        assert m.num_atoms == self.num_rows
        if path != "lines":
            np.testing.assert_array_equal(m.atoms, atoms)
        np.testing.assert_array_equal(m.weights, weights)
        measure_bytes = m.atoms.nbytes + m.weights.nbytes
        if source == "StringIO":
            # The text is encoded into one buffer 64 Ki characters at a time.
            # Reading the whole str before encoding it made this twice the
            # text, 4.9x the measure for this CSV.
            limit = 1.6 * len(data) + 0.1 * measure_bytes
        else:
            limit = 1.3 * measure_bytes
        assert peak <= limit, peak / measure_bytes

    def test_total_mass_peak_does_not_grow_with_the_atom_count(self):
        # One Python float per weight made this 6.1 MiB at 2 * 10^5 atoms.
        rng = np.random.default_rng(43)
        peaks = []
        for num_atoms in (20_000, 200_000):
            m = DiscreteMeasure(np.zeros((num_atoms, 1)), rng.uniform(0.1, 2.0, num_atoms))
            peaks.append(_traced_peak(lambda: m.total_mass)[1])
        small, large = peaks
        assert large <= 1.1 * small, peaks
        assert large <= 2**20, peaks


class TestFeatureMatrix:
    """Feature columns: ``embed_block`` for a monomial basis, and a
    dictionary's checks as ``moment_vector`` meets them."""

    def test_two_atom_basis_columns(self):
        measure = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.ones(2))
        basis = build_basis(1, [1], 2)
        cols = embed_block(basis, measure.atoms)
        np.testing.assert_array_equal(cols, [[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0]])

    def test_origin_column_is_unit_vector(self):
        measure = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
        basis = build_basis(2, [1, 1], 3)
        cols = embed_block(basis, measure.atoms)
        expected = np.zeros((basis.dimension, 1))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(cols, expected)

    def test_constant_dictionary_gives_row_of_ones(self):
        measure = DiscreteMeasure(np.arange(4.0).reshape(-1, 1), np.ones(4))
        features = FunctionDictionary(1, lambda x: np.array([1.0]))
        np.testing.assert_array_equal(moment_vector(measure, features), [4.0])

    def test_columns_match_embedding_bitwise(self):
        # A one-atom measure of unit weight has the atom's column as its
        # moment vector, bit for bit.
        rng = np.random.default_rng(5)
        measure = DiscreteMeasure(rng.uniform(-3, 3, (23, 2)), rng.uniform(0.5, 2, 23))
        basis = build_basis(2, [1, 2], 4)
        cols = embed_block(basis, measure.atoms)
        for a in range(measure.num_atoms):
            np.testing.assert_array_equal(
                cols[:, a], moment_vector(DiscreteMeasure(measure.atoms[a], [1.0]), basis)
            )
            np.testing.assert_allclose(
                cols[:, a], naive_embedding(basis.indices, measure.atoms[a]), rtol=1e-14, atol=0
            )

    def test_dictionary_failure_carries_atom_index(self):
        def flaky(x):
            if x[0] > 2.5:
                raise RuntimeError("boom")
            return np.array([x[0]])

        measure = DiscreteMeasure(np.arange(5.0).reshape(-1, 1), np.ones(5))
        with pytest.raises(ValueError, match="atom 3"):
            moment_vector(measure, FunctionDictionary(1, flaky))

    def test_dictionary_failure_past_the_first_block_names_the_global_index(self):
        def flaky(x):
            if x[0] == 5000.0:
                raise RuntimeError("boom")
            return np.array([1.0])

        measure = DiscreteMeasure(np.arange(6000.0).reshape(-1, 1), np.ones(6000))
        with pytest.raises(ValueError, match="atom 5000:"):
            moment_vector(measure, FunctionDictionary(1, flaky))

    def test_dictionary_non_finite_value_past_the_first_block_names_the_global_index(self):
        def spiky(x):
            return np.array([np.inf if x[0] == 4100.0 else 1.0])

        measure = DiscreteMeasure(np.arange(4200.0).reshape(-1, 1), np.ones(4200))
        with pytest.raises(ValueError, match="non-finite value at atom 4100$"):
            moment_vector(measure, FunctionDictionary(1, spiky))

    def test_dictionary_of_size_zero_is_refused(self):
        with pytest.raises(ValueError, match="size >= 1"):
            FunctionDictionary(0, lambda x: np.empty(0))

    def test_dictionary_wrong_size_rejected(self):
        measure = DiscreteMeasure(np.ones((1, 1)), np.ones(1))
        with pytest.raises(ValueError, match="expected 2"):
            moment_vector(measure, FunctionDictionary(2, lambda x: np.array([1.0])))


class TestMomentVector:
    def test_returns_read_only_float64_array(self):
        measure = DiscreteMeasure(np.array([[1.0, 2.0]]), np.array([3.0]))
        values = moment_vector(measure, build_basis(2, [1, 1], 1))
        assert type(values) is np.ndarray
        assert values.dtype == np.float64 and values.shape == (3,)
        assert not values.flags.writeable
        np.testing.assert_array_equal(values, [3.0, 6.0, 3.0])  # 1, y, x

    def test_symmetric_pair(self):
        measure = DiscreteMeasure(np.array([[-1.0], [1.0]]), np.ones(2))
        basis = build_basis(1, [1], 2)
        np.testing.assert_allclose(moment_vector(measure, basis), [2.0, 0.0, 2.0], atol=0)

    def test_grid_oracle(self):
        measure = DiscreteMeasure(np.arange(5.0).reshape(-1, 1), np.ones(5))
        basis = build_basis(1, [1], 2)
        want = fsum_moments(measure.atoms, measure.weights, basis.indices)
        np.testing.assert_array_equal(want, [5.0, 10.0, 30.0])
        np.testing.assert_allclose(moment_vector(measure, basis), want, rtol=1e-14)

    def test_degree_zero_is_total_mass(self):
        rng = np.random.default_rng(9)
        measure = DiscreteMeasure(rng.uniform(-5, 5, (100, 3)), rng.uniform(0.1, 4, 100))
        basis = build_basis(3, [1, 1, 1], 0)
        values = moment_vector(measure, basis)
        assert values.shape == (1,)
        np.testing.assert_allclose(values[0], measure.total_mass, rtol=1e-15)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(13)
        atoms = rng.uniform(-8, 8, (150, 2))
        w1 = rng.uniform(0.1, 2, 150)
        w2 = rng.uniform(0.1, 2, 150)
        basis = build_basis(2, [1, 1], 4)
        e1 = moment_vector(DiscreteMeasure(atoms, w1), basis)
        e2 = moment_vector(DiscreteMeasure(atoms, w2), basis)
        e12 = moment_vector(DiscreteMeasure(atoms, w1 + w2), basis)
        np.testing.assert_allclose(e12, e1 + e2, rtol=1e-12)

    def test_entry_zero_equals_mass_at_scale(self):
        rng = np.random.default_rng(17)
        n = 200_000
        weights = np.concatenate(
            [rng.uniform(1e-6, 1e-3, n // 2), rng.uniform(0.1, 100.0, n - n // 2)]
        )
        measure = DiscreteMeasure(rng.uniform(-1, 1, (n, 1)), weights)
        basis = build_basis(1, [1], 3)
        total = moment_vector(measure, basis)[0]
        mass = measure.total_mass
        assert abs(total - mass) <= 1e-13 * mass

    def test_dictionary_moments(self):
        measure = DiscreteMeasure(np.array([[0.0], [np.pi / 2]]), np.array([2.0, 3.0]))
        features = FunctionDictionary(2, lambda x: np.array([np.sin(x[0]), np.cos(x[0])]))
        values = moment_vector(measure, features)
        np.testing.assert_allclose(values, [3.0, 2.0], atol=1e-15)

    def test_overflowing_moment_is_named(self):
        # x^2 * w overflows; x * w and w do not.
        measure = DiscreteMeasure(np.array([[1000000.27]]), np.array([1e300]))
        with pytest.raises(ValueError, match=r'moment "2" of the measure overflows'):
            moment_vector(measure, build_basis(1, [1], 2))
        # Each weighted term of feature 1 is 1.5e308; their sum overflows.
        features = FunctionDictionary(2, lambda x: np.array([1.0, 1e308 * x[0]]))
        pair = DiscreteMeasure(np.array([[1.0], [1.5]]), np.array([1.5, 1.0]))
        with pytest.raises(ValueError, match=r"moment 1 of the measure overflows"):
            moment_vector(pair, features)

    @pytest.mark.parametrize("num_atoms", [4095, 4096, 4097, 3 * 4096 + 5])
    def test_block_boundaries_match_fsum(self, num_atoms):
        assert measure._ATOM_BLOCK == 4096
        rng = np.random.default_rng(num_atoms)
        atoms = rng.uniform(0.5, 2.0, (num_atoms, 2))
        weights = rng.uniform(0.1, 2.0, num_atoms)
        basis = build_basis(2, [1, 1], 3)
        got = moment_vector(DiscreteMeasure(atoms, weights), basis)
        want = fsum_moments(atoms, weights, basis.indices)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        if num_atoms <= 4096:
            # One block: the plain weighted column sum, bit for bit.
            cols = embed_block(basis, atoms)
            np.testing.assert_array_equal(got, (cols * weights).sum(axis=1))

    def test_traced_peak_does_not_grow_with_the_atom_count(self):
        # D = 20: one 20 x 4,096 block is 640 KiB.  The measure is built
        # before tracing starts, so the peak is moment_vector's own.
        basis = build_basis(3, [1, 1, 1], 3)
        assert basis.dimension == 20
        rng = np.random.default_rng(23)
        peaks = []
        for num_atoms in (20_000, 200_000):
            m = DiscreteMeasure(rng.uniform(-1, 1, (num_atoms, 3)), rng.uniform(0.1, 2, num_atoms))
            tracemalloc.start()
            try:
                moment_vector(m, basis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert abs(large - small) <= 0.1 * small, peaks
        assert large < 2 * 2**20, peaks
