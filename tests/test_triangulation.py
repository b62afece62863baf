import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionforge import triangulation
from torsionforge.cli import main
from torsionforge.disc_complex import DiscComplexSpec, from_matrix
from torsionforge.exactmat import int_matrix
from torsionforge.fileio import FileFormatError, complex_from_json, complex_to_json, read_facets, write_facets
from torsionforge.hadamard import walsh
from torsionforge.hmt_builder import build_hmt
from torsionforge.homology import boundary_matrices, simplicial_homology
from torsionforge.speyer import build_speyer_complex
from torsionforge.triangulation import (
    MAX_VERTICES,
    SimplicialComplex2,
    _index_in,
    _pack,
    _sorted_columns,
    _unknown_rows,
    _unpack,
    triangulate_generic,
    validate_complex,
)

from .oracles import (
    complex_fields_reference,
    disc_words,
    euler_characteristic,
    face_vector,
    generic_disc_faces,
    speyer_matrix_dense,
    vertex_count_formula,
)
from .test_disc_complex import random_matrix_no_zero_lines

H2_FACETS = """0 1 5
0 1 8
0 2 6
0 2 9
0 3 6
0 3 10
0 4 7
0 4 9
0 5 7
0 8 10
1 2 5
1 2 8
2 5 6
2 8 9
3 4 7
3 4 10
3 6 7
4 9 10
5 6 7
8 9 10
"""


def complex_from_triangles(tris):
    return SimplicialComplex2({v: str(v) for v in sorted({v for t in tris for v in t})}, tris)


def tetrahedron():
    return complex_from_triangles([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def claimed(k):
    """The interior claims of k as ((u, v), owner name) pairs."""
    return [(tuple(e), k.owners[o]) for e, o in zip(k.claims.tolist(), k.claim_owner.tolist())]


class TestVertexCounts:
    def test_speyer_11_has_29_vertices(self):
        k = triangulate_generic(from_matrix(speyer_matrix_dense(11), "grouped"))
        assert face_vector(k)[0] == 29

    def test_two_two(self):
        k = triangulate_generic(from_matrix(int_matrix([[2, 2]]), "grouped"))
        assert face_vector(k)[0] == 1 + 4 + 6

    def test_walsh2(self):
        k = triangulate_generic(from_matrix(walsh(2), "grouped"))
        assert face_vector(k)[0] == 1 + 4 + 3 + 3

    def test_formula_and_bound(self):
        rng = random.Random(31337)
        for _ in range(40):
            m = random_matrix_no_zero_lines(rng)
            for ordering in ("grouped", "interleaved"):
                spec = from_matrix(m, ordering)
                k = triangulate_generic(spec)
                f0 = face_vector(k)[0]
                assert f0 == vertex_count_formula(spec)
                total = int(np.abs(m).sum())
                assert 2 * f0 <= 2 * (2 * m.shape[1] + len(m) + 1) + 3 * total


class TestGenericTriangulation:
    def test_facets_golden_walsh2(self):
        k = triangulate_generic(from_matrix(walsh(2), "grouped"))
        assert write_facets(k) == H2_FACETS

    def test_single_letter_disc(self):
        # one cycle traversed once: 5 vertices, 5 triangles, collapsed inner edge
        k = triangulate_generic(DiscComplexSpec(1, ((1,),)))
        assert face_vector(k) == (5, 9, 5)
        validate_complex(k)  # raises on an invalid complex
        assert euler_characteristic(k) == 1

    def test_two_letter_disc(self):
        k = triangulate_generic(DiscComplexSpec(1, ((1, 1),)))
        assert face_vector(k)[0] == 1 + 2 + 3
        validate_complex(k)  # raises on an invalid complex

    def test_generated_complexes_validate(self):
        rng = random.Random(777)
        for _ in range(25):
            m = random_matrix_no_zero_lines(rng)
            for ordering in ("grouped", "interleaved"):
                k = triangulate_generic(from_matrix(m, ordering))
                validate_complex(k)

    def test_interior_edges_have_two_incident_triangles(self):
        rng = random.Random(555)
        for _ in range(15):
            m = random_matrix_no_zero_lines(rng)
            k = triangulate_generic(from_matrix(m, "grouped"))
            incidence = {}
            for t in k.triangles.tolist():
                for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                    incidence[e] = incidence.get(e, 0) + 1
            for e, _owner in claimed(k):
                assert incidence[e] == 2, (m, e)

    @staticmethod
    def assert_matches_face_by_face(k, n_cycles, words):
        labels, triangles, claims = generic_disc_faces(n_cycles, words)
        assert list(k.labels.items()) == list(labels.items())
        assert k.triangles.tolist() == sorted(sorted(t) for t in triangles)
        assert k.owners == tuple(f"disc{i}" for i in range(1, len(words) + 1))
        assert claimed(k) == sorted({(tuple(sorted((u, v))), f"disc{i + 1}") for u, v, i in claims})

    def test_random_words_match_face_by_face_construction(self):
        # word lengths 1 to 6: odd and even boundary walks, and p = 2
        rng = random.Random(2718)
        lengths = set()
        for _ in range(60):
            n = rng.randint(1, 4)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            words = [[rng.randint(1, n) for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(1, 3))]
            words.append(list(range(1, n + 1)))  # every cycle used
            words = [tuple(signs[j - 1] * j for j in word) for word in words]
            lengths.update(map(len, words))
            k = triangulate_generic(DiscComplexSpec(n, tuple(words)))
            self.assert_matches_face_by_face(k, n, words)
        assert lengths >= set(range(1, 7))

    def test_matrices_match_face_by_face_construction(self):
        rng = random.Random(1618)
        matrices = [random_matrix_no_zero_lines(rng) for _ in range(30)]
        matrices += [int_matrix([[2, 0, -3, 1], [1, 1, 0, -2]]), speyer_matrix_dense(11), speyer_matrix_dense(2**61 - 1)]
        for m in matrices:
            for ordering in ("grouped", "interleaved"):
                k = triangulate_generic(from_matrix(m, ordering))
                self.assert_matches_face_by_face(k, m.shape[1], disc_words(m.tolist(), ordering))

    def test_cone_walk_end_has_two_or_three_boundary_spokes(self):
        # odd boundary walk: the last inner vertex reaches only 2 boundary
        # vertices; even walk: 3
        for word, expected in (((1, 2, 2), 2), ((1, 1, 2, 2), 3)):
            spec = DiscComplexSpec(2, (word,))
            k = triangulate_generic(spec)
            n = spec.n_cycles
            last_inner = max(k.labels)
            boundary_neighbors = {
                (e[0] if e[1] == last_inner else e[1])
                for e in k.edges.tolist()
                if last_inner in e and min(e) <= 2 * n
            }
            assert len(boundary_neighbors) == expected


def with_json_edges(k, edges):
    """The JSON text of ``k`` with its edge list replaced by ``edges``."""
    obj = json.loads(complex_to_json(k))
    obj["edges"] = [list(e) for e in edges]
    return json.dumps(obj)


class TestValidator:
    """Faults of a complex: the constructor rejects those of its triangles,
    labels and claims, the JSON reader those of a given edge list, and the
    validator a claimed interior edge that is not an edge."""

    def test_generic_output_passes(self):
        k = triangulate_generic(from_matrix(walsh(2)))
        validate_complex(k)  # raises on an invalid complex

    def test_duplicate_triangle_detected(self):
        k = tetrahedron()
        with pytest.raises(ValueError, match=r"^duplicate triangle \(0, 1, 2\)$"):
            SimplicialComplex2(k.labels, np.vstack([k.triangles, [(0, 1, 2)]]))

    def test_missing_edge_detected(self):
        # edges that disagree with the triangles, as a construction fault
        # would leave, can no longer be assigned; the derived edges cover
        # every triangle side
        k = tetrahedron()
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.edges = k.edges[1:]
        assert len(k.edges) == 6
        edges = k.edges[validate_complex(k)[1]]
        assert np.array_equal(edges[:, 0], k.triangles[:, [0, 1]])
        assert np.array_equal(edges[:, 1], k.triangles[:, [0, 2]])
        assert np.array_equal(edges[:, 2], k.triangles[:, [1, 2]])

    def test_loop_detected(self):
        k = tetrahedron()
        with pytest.raises(FileFormatError, match=r"^edge \(2, 2\) is not a side of any triangle$"):
            complex_from_json(with_json_edges(k, k.edges.tolist() + [(2, 2)]))

    def test_isolated_vertex_detected(self):
        k = tetrahedron()
        with pytest.raises(ValueError, match=r"^vertex 9 lies in no triangle$"):
            SimplicialComplex2({**k.labels, 9: "stray"}, k.triangles)

    def test_dangling_edge_detected(self):
        k = complex_from_triangles([(0, 1, 2), (1, 2, 3)])
        with pytest.raises(FileFormatError, match=r"^edge \(0, 3\) is not a side of any triangle$"):
            complex_from_json(with_json_edges(k, k.edges.tolist() + [(3, 0)]))

    def test_conflicting_interior_claims_detected(self):
        k = tetrahedron()
        with pytest.raises(ValueError, match=r"^interior edge \(0, 1\) claimed by both disc1 and disc2$"):
            SimplicialComplex2(k.labels, k.triangles, [(0, 1), (0, 1)], [0, 1], ("disc1", "disc2"))

    def test_problem_texts_print_plain_ints(self):
        k = tetrahedron()
        labels = {**k.labels, 7: "7", 9: "stray"}
        triangles = np.vstack([k.triangles, [(0, 7, 9)]])
        for bad, text in (
            ([(3, 3, 1)], "degenerate triangle (1, 3, 3)"),
            ([(0, 2, 8)], "triangle (0, 2, 8) uses an unknown vertex"),
            ([(0, 1, 2)], "duplicate triangle (0, 1, 2)"),
            ([], "vertex 7 lies in no triangle"),
        ):
            rows = np.vstack([k.triangles, np.array(bad, dtype=np.int64).reshape(-1, 3)])
            with pytest.raises(ValueError) as exc:
                SimplicialComplex2(labels, rows)
            assert str(exc.value) == text
        with pytest.raises(ValueError) as exc:
            SimplicialComplex2(labels, triangles, np.array([(0, 1), (1, 0)]), np.array([0, 1]), ("disc1", "disc2"))
        assert str(exc.value) == "interior edge (0, 1) claimed by both disc1 and disc2"
        with pytest.raises(ValueError) as exc:
            SimplicialComplex2(labels, triangles, np.array([(0, 4)]), np.array([0]), ("disc1",))
        assert str(exc.value) == "interior edge (0, 4) uses an unknown vertex"

        k = SimplicialComplex2(labels, triangles, np.array([(1, 0), (9, 1), (2, 7)]), np.array([0, 1, 0]), ("d1", "d2"))
        for check in (validate_complex, simplicial_homology):
            with pytest.raises(ValueError) as exc:
                check(k)
            assert str(exc.value) == "invalid complex: claimed interior edge (1, 9) is not an edge of the complex"

    def test_shuffled_input_gives_the_same_complex(self):
        rng = random.Random(99)
        for k in (tetrahedron(), build_hmt(4), build_speyer_complex(11)):
            rows = k.triangles.tolist()
            rng.shuffle(rows)
            for row in rows:
                rng.shuffle(row)
            again = SimplicialComplex2(dict(reversed(k.labels.items())), rows)
            assert sorted(again.labels) == sorted(k.labels) and np.array_equal(again.triangles, k.triangles)
            assert np.array_equal(again.edges, k.edges)
            assert write_facets(again) == write_facets(k)


def relabeled_hmt2():
    """HMT(2) on shuffled, widely spread and partly negative vertex ids."""
    k = build_hmt(2)
    ids = sorted(k.labels)
    spread = [7**t - 5000 for t in range(len(ids))]
    random.Random(7).shuffle(spread)
    relabel = dict(zip(ids, spread))
    return complex_from_triangles([tuple(relabel[v] for v in t) for t in k.triangles.tolist()])


class TestBoundaryIndex:
    """A valid complex's boundaries in index form."""

    @pytest.mark.parametrize(
        "make",
        [lambda: build_hmt(4), lambda: build_speyer_complex(11), relabeled_hmt2],
        ids=["hmt4", "speyer11", "relabeled"],
    )
    def test_index_arrays_match_boundary_matrices(self, make):
        k = make()
        edge_vertices, triangle_edges = validate_complex(k)
        d1, d2 = boundary_matrices(k)
        assert edge_vertices.shape == (len(k.edges), 2)
        assert triangle_edges.shape == (len(k.triangles), 3)
        expected_d1 = [[0] * len(k.labels) for _ in k.edges]
        for row, (tail, head) in zip(expected_d1, edge_vertices.tolist()):
            row[tail], row[head] = -1, 1
        expected_d2 = [[0] * len(k.edges) for _ in k.triangles]
        for row, (ab, ac, bc) in zip(expected_d2, triangle_edges.tolist()):
            row[ab], row[ac], row[bc] = 1, -1, 1
        assert d1.dtype == d2.dtype == np.int64
        assert d1.tolist() == expected_d1
        assert d2.tolist() == expected_d2

    def test_index_arrays_name_the_simplices(self):
        k = relabeled_hmt2()
        edge_vertices, triangle_edges = validate_complex(k)
        vids = np.array(sorted(k.labels))
        assert np.array_equal(vids[edge_vertices], k.edges)
        edges = k.edges[triangle_edges]
        tri = k.triangles
        assert np.array_equal(edges[:, 0], tri[:, [0, 1]])
        assert np.array_equal(edges[:, 1], tri[:, [0, 2]])
        assert np.array_equal(edges[:, 2], tri[:, [1, 2]])

    def test_empty_complex_has_no_index(self):
        with pytest.raises(ValueError, match=r"^complex has no triangles$"):
            validate_complex(SimplicialComplex2({}, []))

    def test_invalid_complex_has_no_index(self):
        k = SimplicialComplex2({v: str(v) for v in range(4)}, [(0, 1, 2), (1, 2, 3)], [(1, 2), (3, 0)], [0, 0], ("d",))
        with pytest.raises(ValueError, match=r"^invalid complex: claimed interior edge \(0, 3\) is not an edge"):
            validate_complex(k)


class TestMakeComplex:
    """What the constructor of SimplicialComplex2 derives and rejects, one
    check per test."""

    labels = {v: str(v) for v in range(4)}

    def test_canonical_order_and_derived_edges(self):
        k = SimplicialComplex2(self.labels, [(3, 1, 2), (2, 0, 1)])
        assert k.triangles.tolist() == [[0, 1, 2], [1, 2, 3]]
        assert k.edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]
        assert k.triangles.dtype == np.int64

    def test_degenerate_triangle(self):
        with pytest.raises(ValueError, match=r"^degenerate triangle \(1, 1, 3\)$"):
            SimplicialComplex2(self.labels, [(0, 1, 2), (3, 1, 1)])

    def test_duplicate_triangle(self):
        with pytest.raises(ValueError, match=r"^duplicate triangle \(1, 2, 3\)$"):
            SimplicialComplex2(self.labels, [(1, 2, 3), (0, 1, 2), (3, 0, 1), (3, 2, 1), (0, 3, 1)])

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match=r"^triangle \(2, 3, 7\) uses an unknown vertex$"):
            SimplicialComplex2(self.labels, [(0, 1, 2), (7, 2, 3)])

    def test_conflicting_claims(self):
        with pytest.raises(ValueError, match=r"^interior edge \(0, 1\) claimed by both disc1 and disc2$"):
            SimplicialComplex2(
                self.labels, [(0, 1, 2), (0, 1, 3)], [(1, 0), (1, 2), (0, 1), (2, 1)], [0, 0, 1, 1], ("disc1", "disc2")
            )

    def test_repeated_claim_by_one_owner_counts_once(self):
        k = SimplicialComplex2(self.labels, [(0, 1, 2), (0, 1, 3)], [(1, 0), (0, 1), (2, 1)], [1, 1, 0], ("disc1", "disc2"))
        assert claimed(k) == [((0, 1), "disc2"), ((1, 2), "disc1")]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

int64s = st.integers(INT64_MIN, INT64_MAX)


@st.composite
def id_sets(draw):
    """Ascending distinct int64 ids: one contiguous run, or any set."""
    if draw(st.booleans()):
        size = draw(st.integers(1, 20))
        start = draw(st.integers(INT64_MIN, INT64_MAX - size + 1))
        return np.arange(size, dtype=np.int64) + np.int64(start)
    return np.array(sorted(draw(st.sets(int64s, max_size=20))), dtype=np.int64)


class TestIndexIn:
    """Ids to indices: by offset when the ids are one contiguous run, by
    binary search otherwise, with the same answer either way."""

    @staticmethod
    def binary_search(ids, x):
        idx = np.searchsorted(ids, x)
        return idx, len(ids) > 0 and ids.take(idx, mode="clip") == x

    @staticmethod
    def index_and_known(ids, x):
        """_index_in of x, and _unknown_rows of x taken one entry a row."""
        known = np.ones(x.size, dtype=bool)
        known[_unknown_rows(ids, x.reshape(-1, 1), _index_in(ids, x.reshape(-1, 1)))] = False
        return _index_in(ids, x), known.reshape(x.shape)

    @settings(max_examples=300, deadline=None)
    @given(id_sets(), st.lists(int64s, max_size=10), st.data())
    def test_offset_path_equals_binary_search(self, ids, others, data):
        near = [int(v) + d for v in ids.tolist()[:3] + ids.tolist()[-3:] for d in (-1, 0, 1)]
        near += [INT64_MIN, INT64_MAX] + others
        x = np.array([v for v in near if INT64_MIN <= v <= INT64_MAX], dtype=np.int64)
        idx, known = self.index_and_known(ids, x)
        ref_idx, ref_known = self.binary_search(ids, x)
        assert np.array_equal(known, np.broadcast_to(ref_known, x.shape))
        assert np.array_equal(idx[known], ref_idx[known])

    @pytest.mark.parametrize(
        "ids, x",
        [
            ([INT64_MAX - 2, INT64_MAX - 1, INT64_MAX], INT64_MIN + 1),
            ([INT64_MIN, INT64_MIN + 1, INT64_MIN + 2], INT64_MAX),
        ],
        ids=["ids-at-max", "ids-at-min"],
    )
    def test_offset_that_wraps_is_unknown(self, ids, x):
        ids = np.array(ids, dtype=np.int64)
        assert int(ids[-1]) - int(ids[0]) == len(ids) - 1  # the offset path
        _, known = self.index_and_known(ids, np.array([x, ids[1]], dtype=np.int64))
        assert known.tolist() == [False, True]

    def test_rows_of_ids(self):
        x = np.array([[3, 6], [7, 4]], dtype=np.int64)
        for ids in ([3, 4, 5, 6], [3, 4, 6, 9]):  # by offset, then by binary search
            ids = np.array(ids, dtype=np.int64)
            idx, known = self.index_and_known(ids, x)
            assert idx[known].tolist() == [0, ids.tolist().index(6), 1]
            assert known.tolist() == [[True, True], [False, True]]
            assert _unknown_rows(ids, x, idx).tolist() == [1]
            assert _unknown_rows(ids[:0], x, _index_in(ids[:0], x)).tolist() == [0, 1]


class TestTriangleKeys:
    """One int64 key per triangle, its vertex indices packed 21 bits each:
    the duplicate check, canonical order and the vertex bound that keeps
    every index inside its 21 bits."""

    def test_sorted_rows_match_np_sort(self):
        rng = np.random.default_rng(3)
        for width in (2, 3):
            rows = rng.integers(-4, 4, size=(200, width))
            assert np.array_equal(np.stack(_sorted_columns(rows), axis=1), np.sort(rows, axis=1))

    def test_first_repeat_in_input_order_is_named(self):
        # (0, 1, 2) sorts first, but (0, 1, 3) is repeated first
        rows = [(0, 1, 3), (0, 1, 2), (3, 1, 0), (2, 1, 0)]
        with pytest.raises(ValueError, match=r"^duplicate triangle \(0, 1, 3\)$"):
            complex_from_triangles(rows)
        with pytest.raises(ValueError, match=r"^duplicate triangle \(0, 1, 2\)$"):
            complex_from_triangles(rows[1:] + rows[:1])

    def test_keys_fit_in_int64(self):
        assert MAX_VERTICES**3 <= 2**63

    def test_packing_round_trips_at_the_largest_index(self):
        top = MAX_VERTICES - 1
        rows = np.array([(0, 0, 0), (top, top, top), (top, 0, top), (0, top, 0), (1, top - 1, 2)], dtype=np.int32)
        for width in (2, 3):  # edges, triangles; an owner index is the third field of a claim
            cols = rows[:, :width]
            keys = _pack(*cols.T)
            assert keys.dtype == np.int64 and (keys >= 0).all()
            assert np.argsort(keys).tolist() == np.lexsort(cols.T[::-1]).tolist()
            out = np.full((len(rows), width), -1, dtype=np.int64)
            _unpack(keys, *out.T)
            assert out.tolist() == cols.tolist()

    def test_ascending_keys_that_repeat_a_line_are_a_duplicate(self):
        # the facet reader's rows ascend, so the keys do; a repeat does not
        # let the sort be skipped
        text = "0 1 2\n0 1 3\n0 1 3\n0 2 3\n1 2 3\n"
        with pytest.raises(ValueError, match=r"^duplicate triangle \(0, 1, 3\)$"):
            read_facets(text)

    def test_too_many_vertices(self, monkeypatch):
        monkeypatch.setattr(triangulation, "MAX_VERTICES", 3)
        with pytest.raises(ValueError, match=r"^4 vertices, more than the 3 allowed$"):
            tetrahedron()
        assert complex_from_triangles([(0, 1, 2)]).triangles.tolist() == [[0, 1, 2]]

    def test_homology_exits_2_past_the_vertex_bound(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "k.txt"
        path.write_text(write_facets(build_hmt(4)))
        monkeypatch.setattr(triangulation, "MAX_VERTICES", 18)
        assert main(["homology", "--complex", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 19 vertices, more than the 18 allowed\n"

    def test_homology_exits_2_on_a_facet_file_past_the_vertex_bound(self, tmp_path, capsys):
        # disjoint triangles on MAX_VERTICES + 1 vertices, at the real bound
        rows = np.arange(MAX_VERTICES + 1).reshape(-1, 3)
        path = tmp_path / "big.txt"
        path.write_text(("%d %d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))
        assert main(["homology", "--complex", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {MAX_VERTICES + 1} vertices, more than the {MAX_VERTICES} allowed\n"

    @pytest.mark.parametrize("ids", [[-9, -4, 0, 2, 7, 40], [INT64_MIN, -1, 0, 5, INT64_MAX - 1, INT64_MAX]])
    def test_wide_and_negative_ids(self, ids):
        tris = [(0, 1, 2), (0, 2, 3), (3, 4, 5), (1, 4, 5), (0, 1, 5)]
        rows = [tuple(ids[v] for v in t) for t in tris]
        k = complex_from_triangles(rows[::-1])
        assert k.triangles.tolist() == sorted(sorted(r) for r in rows)
        validate_complex(k)  # raises on an invalid complex


INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


def as_form(rows, form: str):
    """rows as a list, an int64 array or, when every entry fits, an int32
    array."""
    if form == "list":
        return rows
    fits = all(INT32_MIN <= v <= INT32_MAX for v in np.ravel(np.array(rows, dtype=object)).tolist())
    return np.array(rows, dtype=np.int32 if form == "int32" and fits else np.int64)


@st.composite
def constructor_inputs(draw):
    """Arguments of SimplicialComplex2 on a few ids, contiguous (from 0, or
    anywhere up to the int64 extremes) or gapped, that are valid or carry
    some of the faults the constructor names: degenerate, unknown-vertex
    and repeated triangles, uncovered labels, claims on unknown vertices,
    owner indices outside the owners, and edges claimed twice."""
    if draw(st.booleans()):
        size = draw(st.integers(3, 8))
        start = draw(st.one_of(st.just(0), st.sampled_from([INT64_MIN, INT64_MAX - size + 1]), int64s))
        start = min(start, INT64_MAX - size + 1)
        ids = list(range(start, start + size))
    else:
        extremes = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX])
        ids = sorted(draw(st.sets(st.one_of(extremes, int64s, st.integers(-20, 20)), min_size=3, max_size=8)))
    stranger = draw(st.one_of(int64s, st.sampled_from([ids[0] - 1, ids[-1] + 1, ids[1] + 1])))
    stranger = min(max(stranger, INT64_MIN), INT64_MAX)
    known = stranger in ids
    triple = st.lists(st.sampled_from(ids), min_size=3, max_size=3, unique=True)
    tris = draw(st.lists(triple, min_size=1, max_size=8, unique_by=frozenset))
    used = {v for t in tris for v in t}
    tris += [[v, *tris[0][:2]] for v in ids if v not in used]
    kinds = st.sampled_from(["none", "degenerate", "unknown", "duplicate", "uncovered", "claim-unknown", "owner", "clash"])
    faults = {draw(kinds), draw(kinds)}
    if "degenerate" in faults:
        t = draw(st.sampled_from(tris))
        tris.insert(draw(st.integers(0, len(tris))), [t[0], t[1], t[0]])
    if "unknown" in faults and not known:
        at = draw(st.integers(0, len(tris) - 1))
        tris[at] = [stranger, *tris[at][1:]]
    if "duplicate" in faults:
        t = draw(st.sampled_from(tris))
        tris.insert(draw(st.integers(0, len(tris))), draw(st.permutations(t)))
    labels = {v: f"v{v}" for v in ids}
    if "uncovered" in faults and not known:
        labels[stranger] = "stray"
    m = draw(st.integers(0, 3))
    pair = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
    claims = draw(st.lists(pair, min_size=min(m, 1), max_size=6))
    owner = [draw(st.integers(0, m - 1)) if m else 0 for _ in claims]
    if claims and "claim-unknown" in faults and not known:
        claims[-1] = [claims[-1][0], stranger]
    if claims and "owner" in faults:
        owner[draw(st.integers(0, len(claims) - 1))] = draw(st.sampled_from([-1, m, INT32_MIN, INT32_MAX]))
    if claims and "clash" in faults and m > 1:
        at, to = draw(st.integers(0, len(claims) - 1)), draw(st.integers(0, len(claims)))
        claims.insert(to, claims[at][::-1])
        owner.insert(to, (owner[at] + 1) % m)
    owners = tuple(f"unit{i}" for i in range(m))
    form = st.sampled_from(["list", "int64", "int32"])
    return labels, as_form(tris, draw(form)), as_form(claims, draw(form)), as_form(owner, draw(form)), owners


def outcome(make, *args):
    """The fields of make(*args), or the type and text of what it raised."""
    try:
        k = make(*args)
    except Exception as e:  # noqa: BLE001 - the type is compared too
        return type(e), str(e)
    if isinstance(k, SimplicialComplex2):
        for name in ("triangles", "claims", "claim_owner"):
            x = getattr(k, name)
            assert x.dtype == np.int64 and not x.flags.writeable, name
        k = {f.name: getattr(k, f.name) for f in dataclasses.fields(k)}
    return {
        name: dict(x) if name == "labels" else (x.dtype.str, x.shape, x.tolist()) if isinstance(x, np.ndarray) else x
        for name, x in k.items()
    }


class TestAgainstReference:
    """The constructor against the one it replaced (oracles), field for
    field, or error type and message for error type and message."""

    @settings(max_examples=600, deadline=None)
    @given(constructor_inputs())
    def test_same_fields_or_same_error(self, args):
        assert outcome(SimplicialComplex2, *args) == outcome(complex_fields_reference, *args)

    @pytest.mark.parametrize("form", ["list", "int64", "int32"])
    def test_built_complexes(self, form):
        for k in (build_hmt(8), build_hmt(4, keep_first_digon=True), build_speyer_complex(2**61 - 1)):
            args = (k.labels, as_form(k.triangles.tolist()[::-1], form), as_form(k.claims.tolist(), form),
                    as_form(k.claim_owner.tolist(), form), k.owners)
            assert outcome(SimplicialComplex2, *args) == outcome(complex_fields_reference, *args)

    @pytest.mark.parametrize("step", [1, 3])  # ids by offset, then by binary search
    def test_indices_past_16_bits(self, step):
        # disjoint triangles on 3 * 25000 vertices, rows and their entries shuffled
        rng = np.random.default_rng(16)
        rows = rng.permuted(rng.permutation(np.arange(75_000).reshape(-1, 3)), axis=1) * step
        args = ({v: "" for v in range(0, 75_000 * step, step)}, rows.astype(np.int32), rows[:10, :2], [0] * 10, ("a",))
        assert outcome(SimplicialComplex2, *args) == outcome(complex_fields_reference, *args)


class TestClaims:
    """Claims kept once per edge, checked against a loop over the claims in
    input order."""

    @staticmethod
    def reference(claims, owner, owners):
        first = {}
        for (u, v), o in zip(claims, owner):
            e = (min(u, v), max(u, v))
            first.setdefault(e, o)
            if first[e] != o:
                return f"interior edge {e} claimed by both {owners[first[e]]} and {owners[o]}"
        return sorted(first.items())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)), max_size=12), st.booleans())
    def test_kept_claims_and_conflicts_match_a_loop(self, rows, one_owner_per_edge):
        rows = [(u, v, o) for u, v, o in rows if u != v]
        if one_owner_per_edge:
            rows = [(u, v, (u + v) % 3) for u, v, _ in rows]
        claims, owner = [(u, v) for u, v, _ in rows], [o for *_, o in rows]
        owners = ("d1", "d2", "d3")
        expected = self.reference(claims, owner, owners)
        labels = {v: str(v) for v in range(5)}
        triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4), (0, 1, 3)]
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                SimplicialComplex2(labels, triangles, claims, owner, owners)
            assert str(exc.value) == expected
        else:
            k = SimplicialComplex2(labels, triangles, claims, owner, owners)
            assert [(tuple(e), o) for e, o in zip(k.claims.tolist(), k.claim_owner.tolist())] == expected


    @pytest.mark.parametrize("owner", [[0, 5], [-1, 0], [0, 1]])
    def test_owner_index_outside_the_owners(self, owner):
        bad = 0 if owner[0] else 1
        with pytest.raises(ValueError, match=rf"^interior edge \(0, 1\) has owner index {owner[bad]}, not one of 1 owners$"):
            SimplicialComplex2({v: str(v) for v in range(4)}, tetrahedron().triangles, [(1, 0), (0, 1)], owner, ("a",))
        with pytest.raises(ValueError, match=r"^interior edge \(0, 1\) has owner index 0, not one of 0 owners$"):
            SimplicialComplex2({v: str(v) for v in range(4)}, tetrahedron().triangles, [(1, 0)], [0])

    def test_too_many_owners(self, monkeypatch):
        monkeypatch.setattr(triangulation, "MAX_VERTICES", 4)
        with pytest.raises(ValueError, match=r"^5 owners, more than the 4 allowed$"):
            SimplicialComplex2({v: str(v) for v in range(4)}, tetrahedron().triangles, owners=tuple("abcde"))


class TestAfterConstruction:
    """What holds once a complex is built: no field can be reassigned and
    its arrays are read-only, so the constructor's checks hold for its
    lifetime."""

    def test_arrays_are_read_only(self):
        k = SimplicialComplex2({v: str(v) for v in range(4)}, tetrahedron().triangles, [(0, 1)], [0], ("disc1",))
        for name in ("triangles", "edges", "claims", "claim_owner"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(k, name)[0] = 0

    def test_labels_are_a_read_only_copy(self):
        given = {v: str(v) for v in range(4)}
        k = SimplicialComplex2(given, tetrahedron().triangles)
        with pytest.raises(TypeError):
            k.labels[9] = "stray"
        given[9] = "stray"
        assert dict(k.labels) == {v: str(v) for v in range(4)}
        assert str(simplicial_homology(k).h0) == "Z"
        back = complex_from_json(complex_to_json(k))
        assert dict(back.labels) == dict(k.labels) and np.array_equal(back.triangles, k.triangles)
        assert write_facets(k) == "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
        assert k == k and k != SimplicialComplex2(k.labels, k.triangles)

    def test_fields_cannot_be_reassigned(self):
        k = SimplicialComplex2({v: str(v) for v in range(4)}, tetrahedron().triangles, [(0, 1)], [0], ("disc1",))
        names = [f.name for f in dataclasses.fields(k)]
        assert set(names) == {"labels", "triangles", "claims", "claim_owner", "owners"}
        # edges is derived on first use, not a field, and just as fixed:
        # neither before nor after it is derived can it be set or deleted
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.edges = np.zeros((0, 2), dtype=np.int64)
        for name in names + ["edges"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(k, name, getattr(k, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(k, name)
        assert k.edges is k.edges
        assert k.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_rewritten_row_with_unknown_vertex_is_reported(self):
        k = complex_from_triangles([(0, 2, 4), (0, 2, 6), (0, 4, 6), (2, 4, 6)])
        rows = k.triangles.copy()
        rows[0] = (0, 1, 4)  # 1 is no label; binary search alone would take it for 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.triangles = rows
        with pytest.raises(ValueError, match=r"^triangle \(0, 1, 4\) uses an unknown vertex$"):
            SimplicialComplex2(k.labels, rows)
        assert k.triangles.tolist() == [[0, 2, 4], [0, 2, 6], [0, 4, 6], [2, 4, 6]]

    def test_unknown_vertices_past_contiguous_labels_are_reported(self):
        k = SimplicialComplex2({v: str(v) for v in range(4)}, tetrahedron().triangles, [(0, 1)], [0], ("disc1",))
        faults = {
            "triangles": np.vstack([k.triangles, [(-1, 0, 1)]]),
            "claims": np.array([(2, 9), (0, 1)]),
            "edges": np.vstack([k.edges, [(3, 4)]]),
        }
        for name, value in faults.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(k, name, value)
        with pytest.raises(ValueError, match=r"^triangle \(-1, 0, 1\) uses an unknown vertex$"):
            SimplicialComplex2(k.labels, faults["triangles"])
        with pytest.raises(ValueError, match=r"^interior edge \(2, 9\) uses an unknown vertex$"):
            SimplicialComplex2(k.labels, k.triangles, faults["claims"], [0, 0], ("disc1",))
        assert (len(k.triangles), len(k.claims), len(k.edges)) == (4, 1, 6)
        validate_complex(k)  # raises on an invalid complex

    def test_edges_out_of_order_are_reported(self):
        k = tetrahedron()
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.edges = k.edges[::-1]
        tuples = [tuple(e) for e in k.edges.tolist()]
        assert tuples == sorted(set(tuples))


class TestFaceVector:
    def test_tetrahedron(self):
        k = tetrahedron()
        assert face_vector(k) == (4, 6, 4)
        assert euler_characteristic(k) == 2

    def test_disc_complexes_have_euler_characteristic_from_matrix(self):
        # chi = 1 - n + m for an (m x n) blueprint, independent of words
        rng = random.Random(2718)
        for _ in range(20):
            m = random_matrix_no_zero_lines(rng)
            k = triangulate_generic(from_matrix(m, "grouped"))
            assert euler_characteristic(k) == 1 - m.shape[1] + len(m)
