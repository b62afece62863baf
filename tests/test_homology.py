import random

import numpy as np
import pytest

from torsionforge import homology
from torsionforge.disc_complex import cellular_homology, from_matrix
from torsionforge.exactmat import free_group, group_from_factors, int_matrix, smith_normal_form
from torsionforge.hadamard import walsh
from torsionforge.hmt_builder import build_hmt
from torsionforge.homology import boundary_matrices, simplicial_homology
from torsionforge.speyer import build_speyer_complex
from torsionforge.triangulation import SimplicialComplex2, face_vector, triangulate_generic

from .oracles import component_count
from .test_disc_complex import random_matrix_no_zero_lines
from .test_triangulation import complex_from_triangles, tetrahedron

# minimal 6-vertex projective plane (antipodal quotient of the icosahedron)
RP2_TRIANGLES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def corpus():
    yield tetrahedron()
    yield complex_from_triangles(RP2_TRIANGLES)
    yield build_speyer_complex(11)
    yield build_hmt(2)
    yield build_hmt(4)
    rng = random.Random(808)
    for _ in range(6):
        yield triangulate_generic(from_matrix(random_matrix_no_zero_lines(rng)))


class TestBoundaryMatrices:
    def test_single_triangle_row(self):
        k = complex_from_triangles([(0, 1, 2)])
        d1, d2 = boundary_matrices(k)
        # edges sorted: (0,1), (0,2), (1,2)
        assert d2.tolist() == [[1, -1, 1]]
        assert d1.tolist() == [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]

    def test_tetrahedron_rank(self):
        _, d2 = boundary_matrices(tetrahedron())
        assert smith_normal_form(d2).rank == 3

    def test_hmt2_shapes(self):
        d1, d2 = boundary_matrices(build_hmt(2))
        assert d1.shape == (24, 9) and d1.dtype == np.int64
        assert d2.shape == (16, 24) and d2.dtype == np.int64

    def test_boundary_of_boundary_vanishes(self):
        for k in corpus():
            d1, d2 = boundary_matrices(k)
            prod = d2 @ d1
            assert not prod.any()

    def test_invalid_complex_rejected(self):
        k = SimplicialComplex2({v: str(v) for v in range(4)}, [(0, 1, 2), (1, 2, 3)], [(0, 3)], [0], ("disc1",))
        with pytest.raises(ValueError, match="invalid complex"):
            boundary_matrices(k)


class TestSimplicialHomology:
    def test_sphere(self):
        hom = simplicial_homology(tetrahedron())
        assert hom.h0 == free_group(1)
        assert hom.h1.is_trivial
        assert hom.h2 == free_group(1)

    def test_projective_plane_six_vertices(self):
        hom = simplicial_homology(complex_from_triangles(RP2_TRIANGLES))
        assert (str(hom.h0), str(hom.h1), str(hom.h2)) == ("Z", "Z_2", "0")

    def test_rp2_d2_snf_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        from torsionforge.exactmat import smith_normal_form

        _, d2 = boundary_matrices(complex_from_triangles(RP2_TRIANGLES))
        diag = sympy_snf(sympy.Matrix(d2.tolist()))
        expected = sorted(
            abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i] != 0
        )
        assert sorted(smith_normal_form(d2).invariant_factors) == expected

    def test_two_spheres(self):
        k = complex_from_triangles(
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
        )
        hom = simplicial_homology(k)
        assert hom.h0 == free_group(2)
        assert hom.h2 == free_group(2)

    def test_h0_rank_is_component_count(self):
        for k in corpus():
            hom = simplicial_homology(k)
            assert hom.h0.free_rank == component_count(sorted(k.labels), k.edges.tolist())
            assert not hom.h0.invariant_factors

    def test_euler_poincare(self):
        for k in corpus():
            fv = face_vector(k)
            hom = simplicial_homology(k)
            assert fv.f0 - fv.f1 + fv.f2 == hom.h0.free_rank - hom.h1.free_rank + hom.h2.free_rank

    def test_relabeling_invariance(self):
        rng = random.Random(64)
        for k in (tetrahedron(), complex_from_triangles(RP2_TRIANGLES), build_hmt(2)):
            base = simplicial_homology(k).as_tuple()
            ids = sorted(k.labels)
            shuffled = ids[:]
            rng.shuffle(shuffled)
            relabel = dict(zip(ids, shuffled))
            moved = complex_from_triangles(
                [tuple(relabel[v] for v in t) for t in k.triangles.tolist()]
            )
            assert simplicial_homology(moved).as_tuple() == base

    def test_agrees_with_cellular_on_matrix_complexes(self):
        rng = random.Random(1001)
        for _ in range(25):
            m = random_matrix_no_zero_lines(rng)
            expected = cellular_homology(m)
            for ordering in ("grouped", "interleaved"):
                k = triangulate_generic(from_matrix(m, ordering))
                assert simplicial_homology(k).as_tuple() == expected

    def test_elementary_torsion_discs(self):
        # a single disc with r identified coherent edges carries Z_r
        for r in range(2, 8):
            k = triangulate_generic(from_matrix(int_matrix([[r]])))
            hom = simplicial_homology(k)
            assert (str(hom.h0), str(hom.h2)) == ("Z", "0")
            assert hom.h1 == group_from_factors([r])


def reference_homology(k):
    """Homology from the Smith forms of both dense boundary matrices."""
    d1, d2 = boundary_matrices(k)
    r1 = smith_normal_form(d1).rank
    snf2 = smith_normal_form(d2)
    r2 = snf2.rank
    return (
        free_group(d1.shape[1] - r1),
        group_from_factors([f for f in snf2.invariant_factors if f > 1], len(d1) - r1 - r2),
        free_group(len(d2) - r2),
    )


class TestSparseEngine:
    @pytest.mark.parametrize(
        "make",
        [lambda: build_hmt(8)] + [lambda k=k: build_speyer_complex(k) for k in (37, 1000003, 4294967291)],
        ids=["hmt8", "speyer37", "speyer1000003", "speyer4294967291"],
    )
    def test_agrees_with_dense_reference(self, make):
        k = make()
        assert simplicial_homology(k).as_tuple() == reference_homology(k)

    def test_corpus_agrees_with_dense_reference(self):
        for k in corpus():
            assert simplicial_homology(k).as_tuple() == reference_homology(k)

    @pytest.mark.parametrize(
        "n, keep_first_digon",
        [(n, d) for d in (False, True) for n in (4, 8, 16, 32)],
        ids=[f"{n}-digon" if d else str(n) for d in (False, True) for n in (4, 8, 16, 32)],
    )
    def test_hmt_core_is_small(self, n, keep_first_digon, monkeypatch):
        shapes = []

        def spy(m, *args, **kwargs):
            shapes.append(m.shape)
            return smith_normal_form(m, *args, **kwargs)

        monkeypatch.setattr(homology, "smith_normal_form", spy)
        simplicial_homology(build_hmt(n, keep_first_digon=keep_first_digon))
        assert len(shapes) == 1
        rows, cols = shapes[0]
        assert rows <= n - 1 and cols <= 3 * (n - 1)

    def test_unit_made_after_its_column_was_visited(self):
        # Column 0 holds no unit, so the first pass skips it.  Pivoting
        # column 1 on row 0 then turns row 1 into {0: 1}, which only a
        # second pass can pivot.  Rows 2 and 3 are the core [[2, 2], [2, 4]].
        rows = [{0: 2, 1: 1}, {0: 3, 1: 1}, {2: 2, 3: 2}, {2: 2, 3: 4}]
        dense_rank = smith_normal_form(homology._densify(rows, range(4))).rank
        pivots, core = homology._eliminate_unit_pivots([dict(r) for r in rows])
        assert pivots == 2
        assert core and all(v not in (1, -1) for row in core for v in row.values())
        assert pivots + smith_normal_form(homology._densify(core, range(4))).rank == dense_rank

    @pytest.mark.parametrize("k, dtype", [(2**61 - 1, np.int64), (2**64 - 59, object)], ids=["61-bit", "64-bit"])
    def test_core_dtype_follows_its_entries(self, k, dtype, monkeypatch):
        # the Speyer core is one row holding k itself
        cores = []

        def spy(m, *args, **kwargs):
            cores.append(m)
            return smith_normal_form(m, *args, **kwargs)

        monkeypatch.setattr(homology, "smith_normal_form", spy)
        assert simplicial_homology(build_speyer_complex(k)).h1 == group_from_factors([k])
        assert cores[0].dtype == dtype and k in cores[0].tolist()[0]

    def test_empty_core_skips_smith(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("smith_normal_form called on an empty core")

        monkeypatch.setattr(homology, "smith_normal_form", fail)
        hom = simplicial_homology(tetrahedron())
        assert hom.h2 == free_group(1)
        assert hom.h1.is_trivial and hom.h0 == free_group(1)

    def test_empty_complex_rejected(self):
        with pytest.raises(ValueError, match="no triangles"):
            simplicial_homology(SimplicialComplex2({}, []))
