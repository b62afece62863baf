import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsionforge.exactmat import int_matrix
from torsionforge.fileio import (
    FileFormatError,
    _format_rows,
    complex_from_json,
    complex_to_json,
    read_complex,
    read_facets,
    read_matrix,
    read_sequence,
    write_facets,
    write_matrix,
    write_sequence,
)
from torsionforge.hadamard import walsh
from torsionforge.hmt_builder import build_hmt
from torsionforge.triangulation import SimplicialComplex2
from torsionforge.valid_sequences import ValidSequence, valid_sequence

from .oracles import format_rows


class TestMatrixFormat:
    def test_round_trip(self):
        m = int_matrix([[1, -2, 3], [0, 5, -6]])
        assert np.array_equal(read_matrix(write_matrix(m)), m)

    def test_text_layout(self):
        assert write_matrix(walsh(2)) == "2 2\n1 1\n1 -1\n"

    def test_big_integers(self):
        m = int_matrix([[2**100, -(2**90)]])
        back = read_matrix(write_matrix(m))
        assert back.dtype == object and np.array_equal(back, m)

    def test_entries_may_wrap_lines(self):
        assert np.array_equal(read_matrix("2 2\n1 2 3\n4\n"), int_matrix([[1, 2], [3, 4]]))

    def test_any_whitespace_separates_entries(self):
        assert np.array_equal(read_matrix("2 2\r\n1\t2\n\n3 \x0c4\v"), int_matrix([[1, 2], [3, 4]]))

    def test_bad_token_deep_in_large_matrix(self):
        rows = [[str((7 * i + 3 * j) % 19 - 9) for j in range(100)] for i in range(100)]
        rows[76][45] = "4x"
        text = "100 100\n" + "".join(" ".join(r) + "\n" for r in rows)
        col = len(" ".join(rows[76][:45])) + 2
        with pytest.raises(FileFormatError) as exc:
            read_matrix(text)
        assert str(exc.value) == f"line 78, col {col}: expected an integer, got '4x'"

    def test_json_object_form(self):
        m = read_matrix('{"rows": [[1, 1], [1, -1]]}')
        assert np.array_equal(m, walsh(2))

    def test_bad_token_position(self):
        with pytest.raises(FileFormatError) as exc:
            read_matrix("2 2\n1 x\n3 4\n")
        assert exc.value.line == 2 and exc.value.col == 3

    def test_missing_entries(self):
        with pytest.raises(FileFormatError, match="expected 4 entries"):
            read_matrix("2 2\n1 2 3\n")

    def test_extra_entries(self):
        with pytest.raises(FileFormatError, match="extra token"):
            read_matrix("1 2\n1 2 3\n")

    def test_bad_json(self):
        with pytest.raises(FileFormatError, match="bad JSON"):
            read_matrix("{oops}")

    def test_json_float_rejected(self):
        with pytest.raises(FileFormatError, match="non-integer"):
            read_matrix('{"rows": [[1.5]]}')

    def test_json_ragged_rejected(self):
        with pytest.raises(FileFormatError, match="ragged"):
            read_matrix('{"rows": [[1, 2], [3]]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rows": [[true]]}', "non-integer matrix entry True"),
            ('{"rows": [[1, "2"]]}', "non-integer matrix entry '2'"),
            ('{"rows": [[]]}', "matrix needs at least one row and one column"),
            ('{"rows": []}', '"rows" must be a non-empty list of integer lists'),
            ('{"rows": [1, 2]}', '"rows" must be a non-empty list of integer lists'),
            ("0 1\n", "matrix dimensions 0x1 must be positive"),
            ("2 0\n", "matrix dimensions 2x0 must be positive"),
            ("", "matrix file needs a 'rows cols' header"),
        ],
        ids=["json-bool", "json-string", "json-no-column", "json-no-row", "json-flat", "text-no-row",
             "text-no-column", "text-empty"],
    )
    def test_shape_and_entry_errors(self, text, message):
        with pytest.raises(FileFormatError, match=message):
            read_matrix(text)

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("2 2\n-1 9223372036854775808\n3 5\n", [[-1, 2**63], [3, 5]]),
            ("1 2\n18446744073709551615 2\n", [[2**64 - 1, 2]]),
            ('{"rows": [[-1, 9223372036854775808]]}', [[-1, 2**63]]),
        ],
        ids=["text-float64-trap", "text-uint64-trap", "json-float64-trap"],
    )
    def test_entries_past_int64_are_python_ints(self, text, rows):
        m = read_matrix(text)
        assert m.dtype == object and m.tolist() == rows
        assert all(type(x) is int for x in m.ravel())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n1 99999999999999999999\n3 4x\n", "line 3, col 3: expected an integer, got '4x'"),
            ("99999999999999999999 1\n1\n", "line 2, col 1: expected 99999999999999999999 entries, file has 1"),
            ("1 2\n1 99999999999999999999 3\n", "line 2, col 24: unexpected extra token"),
        ],
        ids=["bad-token-after-overflow", "header-past-int64", "extra-token-after-overflow"],
    )
    def test_entries_past_int64_keep_positioned_errors(self, text, message):
        with pytest.raises(FileFormatError, match=f"^{message}"):
            read_matrix(text)

    def test_int64_entries_stay_int64(self):
        text = "1 2\n-9223372036854775808 9223372036854775807\n"
        m = read_matrix(text)
        assert m.dtype == np.int64 and m.tolist() == [[-(2**63), 2**63 - 1]]
        assert write_matrix(m) == text


class TestSequenceFormat:
    def test_round_trip(self):
        seq = valid_sequence(8)
        assert read_sequence(write_sequence(seq)) == seq

    def test_layout(self):
        assert write_sequence(valid_sequence(2)) == "1 2\n1 2\n"

    @pytest.mark.parametrize(
        "rows",
        [
            [[5, -3, 9], [9, 5, -3], [-3, 9, 5]],
            [[-(2**63), 0, 2**63 - 1], [2**63 - 1, -(2**63), 7], [0, 7, 0]],
            [[4]],
        ],
    )
    def test_matches_one_format_per_row(self, rows):
        seq = ValidSequence(np.array(rows, dtype=np.int64))
        line = " ".join(["%d"] * seq.n) + "\n"
        assert write_sequence(seq) == "".join(line % tuple(row) for row in rows)

    def test_non_square_rejected(self):
        with pytest.raises(FileFormatError):
            read_sequence("1 2\n1\n")

    def test_bad_token(self):
        with pytest.raises(FileFormatError) as exc:
            read_sequence("1 z\n1 2\n")
        assert exc.value.line == 1 and exc.value.col == 3

    def test_positions_count_blank_lines(self):
        with pytest.raises(FileFormatError) as exc:
            read_sequence("\n\n1 2\n1 x\n")
        assert str(exc.value) == "line 4, col 3: expected an integer, got 'x'"
        with pytest.raises(FileFormatError, match="line 4, col 1: ordering has 1 labels"):
            read_sequence("\n1 2\n\n2\n")

    def test_any_shape_is_parseable(self):
        # files are shape-checked only; validity is the checker's job
        seq = read_sequence("1 1\n2 1\n")
        assert isinstance(seq, ValidSequence)

    def test_reads_one_int64_array(self):
        seq = read_sequence("\n1 2\n\n1 2\n")
        assert seq.perms.dtype == np.int64 and seq.perms.tolist() == [[1, 2], [1, 2]]

    @pytest.mark.parametrize("label", [str(2**63), str(-(2**63) - 1)])
    def test_label_past_64_bits_names_position(self, label):
        with pytest.raises(FileFormatError) as exc:
            read_sequence(f"1 2\n1 {label}\n")
        assert str(exc.value) == f"line 2, col 3: label {label} does not fit in 64 bits"


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# int64 values of every decimal length, so that a word and its terminator
# fall on both sides of 8 and 16 bytes and reach the 24-byte width
_by_digits = st.integers(1, 19).flatmap(lambda d: st.integers(10 ** (d - 1), min(10**d - 1, INT64_MAX)))
_values = st.one_of(_by_digits, _by_digits.map(lambda v: -v), st.sampled_from([0, INT64_MIN, INT64_MAX]))


@st.composite
def int_tables(draw):
    """An int64 table of 1 to 6 columns and 0 to 50 rows, and ascending
    distinct ids that hold every entry: a contiguous run or a gapped set."""
    cols, nrows = draw(st.integers(1, 6)), draw(st.integers(0, 50))
    if draw(st.booleans()):
        size = draw(st.integers(1, 40))
        start = min(draw(_values), INT64_MAX - size + 1)
        ids = np.arange(size, dtype=np.int64) + np.int64(start)
        entries = st.integers(start, start + size - 1)
    else:
        ids, entries = None, _values
    rows = np.array(draw(st.lists(entries, min_size=nrows * cols, max_size=nrows * cols)), dtype=np.int64)
    rows = rows.reshape(nrows, cols)
    return rows, np.unique(rows) if ids is None else ids


class TestFormatRows:
    """The byte-table writer against the object-join formatter."""

    @settings(max_examples=100, deadline=None)
    @given(int_tables())
    @example((np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64)))
    @example((np.array([[INT64_MIN, INT64_MAX], [-1, INT64_MIN]], dtype=np.int64), np.array([INT64_MIN, -1, INT64_MAX], dtype=np.int64)))
    @example((np.array([[1234567, 12345678, 123456789]], dtype=np.int64), np.array([1234567, 12345678, 123456789], dtype=np.int64)))
    def test_equals_object_join(self, table):
        rows, ids = table
        assert _format_rows(rows, ids) == format_rows(rows)


class TestFacetFormat:
    def test_round_trip_simplices(self):
        k = build_hmt(4)
        back = read_facets(write_facets(k))
        assert sorted(back.labels) == sorted(k.labels) and np.array_equal(back.triangles, k.triangles)

    def test_canonical_output_is_sorted(self):
        k = build_hmt(2)
        lines = write_facets(k).splitlines()
        tuples = [tuple(int(x) for x in l.split()) for l in lines]
        assert tuples == sorted(tuples)
        assert write_facets(k).endswith("\n")

    @pytest.mark.parametrize(
        "ids",
        [[0, 3, 10, 11, 12, 40], [-7, -5, -2, 0, 9, 2**40], [-(2**63), -1, 0, 1, 2**63 - 2, 2**63 - 1]],
        ids=["gaps", "negative", "int64-extremes"],
    )
    def test_matches_one_format_string(self, ids):
        tris = [(0, 1, 2), (0, 2, 3), (3, 4, 5), (1, 4, 5), (0, 1, 5)]
        k = SimplicialComplex2({v: str(v) for v in ids}, [tuple(ids[v] for v in t) for t in tris])
        expected = ("%d %d %d\n" * len(k.triangles)) % tuple(k.triangles.ravel().tolist())
        assert write_facets(k) == expected
        assert write_facets(SimplicialComplex2({}, [])) == ""

    def test_triangles_assigned_off_the_labels_are_written_as_they_are(self):
        # triangles off the labels cannot be assigned, so the rows written
        # are those the constructor checked
        k = build_hmt(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.triangles = k.triangles * 3 - 100
        assert write_facets(k) == ("%d %d %d\n" * len(k.triangles)) % tuple(k.triangles.ravel().tolist())
        assert set(k.triangles.ravel().tolist()) <= set(k.labels)

    def test_rejects_unsorted_vertices(self):
        with pytest.raises(FileFormatError, match="ascending"):
            read_facets("0 2 1\n")

    def test_rejects_wrong_arity(self):
        with pytest.raises(FileFormatError, match="3 vertex ids"):
            read_facets("0 1\n")

    def test_rejects_empty(self):
        with pytest.raises(FileFormatError, match="no triangles"):
            read_facets("\n\n")

    def test_rejects_repeated_line(self):
        # the JSON form rejects a repeated triangle too
        with pytest.raises(ValueError, match=r"^duplicate triangle \(0, 1, 2\)$"):
            read_facets("0 1 2\n1 2 3\n0 1 2\n")

    def test_json_complex_round_trip_keeps_labels(self):
        k = build_hmt(2)
        back = complex_from_json(complex_to_json(k))
        assert sorted(back.labels) == sorted(k.labels) and np.array_equal(back.triangles, k.triangles)
        assert back.labels == k.labels

    @pytest.mark.parametrize(
        "vertices, triangles, why",
        [
            ([[0, "a"], [1, "b"], [2, "c"]], [[0.9, 1.2, 2.7]], "non-integer vertex id 0.9"),
            ([[0, "a"], [1, "b"], [2, "c"]], [[0, 1, "2"]], "non-integer vertex id '2'"),
            ([[0, "a"], [1, "b"], [2.0, "c"]], [[0, 1, 2]], "non-integer vertex id 2.0"),
            ([[0, "a"], [1, "b"], [True, "d"]], [[0, 1, 2]], "non-integer vertex id True"),
            ([[0, "a"], [1, "b"], [2, "c"], [1, "d"]], [[0, 1, 2]], "repeated vertex id 1"),
        ],
        ids=["float-triangle", "string-triangle", "float-vertex", "bool-vertex", "repeated-vertex"],
    )
    def test_json_complex_rejects_bad_ids(self, vertices, triangles, why):
        text = json.dumps({"vertices": vertices, "edges": [], "triangles": triangles})
        with pytest.raises(FileFormatError) as exc:
            complex_from_json(text)
        assert str(exc.value) == f"bad complex object: {why}"

    def test_json_complex_rejects_bool_edge_id(self):
        obj = json.loads(complex_to_json(build_hmt(2)))
        obj["edges"][0][0] = False
        with pytest.raises(FileFormatError, match="non-integer vertex id False"):
            complex_from_json(json.dumps(obj))

    def test_read_complex_sniffs_format(self):
        k = build_hmt(2)
        for back in (read_complex(write_facets(k)), read_complex(complex_to_json(k))):
            assert sorted(back.labels) == sorted(k.labels) and np.array_equal(back.triangles, k.triangles)

