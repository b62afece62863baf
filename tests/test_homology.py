import random

import numpy as np
import pytest

from torsionforge import _kernels, homology
from torsionforge.disc_complex import cellular_homology, from_matrix
from torsionforge.exactmat import free_group, group_from_factors, int_matrix, smith_normal_form
from torsionforge.hadamard import hadamard_snf_closed_form, walsh
from torsionforge.hmt_builder import build_hmt
from torsionforge.homology import boundary_matrices, simplicial_homology
from torsionforge.speyer import build_speyer_complex
from torsionforge.triangulation import SimplicialComplex2, triangulate_generic

from .oracles import component_count, face_vector, snf_factors
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

    def test_ranks_and_factors_are_python_ints(self):
        for k in corpus():
            for group in simplicial_homology(k).as_tuple():
                assert type(group.free_rank) is int
                assert all(type(f) is int for f in group.invariant_factors)

    def test_face_vector_is_the_library_count(self):
        for k in [*corpus(), build_hmt(4, keep_first_digon=True), build_speyer_complex(2**61 - 1)]:
            assert simplicial_homology(k).face_vector == face_vector(k)

    def test_euler_poincare(self):
        for k in corpus():
            f0, f1, f2 = face_vector(k)
            hom = simplicial_homology(k)
            assert f0 - f1 + f2 == hom.h0.free_rank - hom.h1.free_rank + hom.h2.free_rank

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
        [(n, d) for d in (False, True) for n in (2, 4, 8, 16, 32, 64)],
        ids=[f"{n}-digon" if d else str(n) for d in (False, True) for n in (2, 4, 8, 16, 32, 64)],
    )
    def test_hmt_core_is_small(self, n, keep_first_digon, monkeypatch):
        # the array rounds leave an n x n residue of +-1 entries, dense, so
        # it reaches smith_normal_form whole, without the dict pivots, and
        # takes the Walsh route.  HMT(2) leaves [[+-2]], which takes the
        # sweep.
        residues, cores, sweeps = [], [], []
        eliminate, sweep = homology._eliminate_unit_pivots, _kernels.smith_diagonal_int64

        def spy_residue(rows):
            residues.append(len(rows))
            return eliminate(rows)

        def spy_core(m, *args, **kwargs):
            cores.append((m.shape, set(np.abs(m).ravel().tolist())))
            return smith_normal_form(m, *args, **kwargs)

        def spy_sweep(m, *args, **kwargs):
            sweeps.append(m.shape)
            return sweep(m, *args, **kwargs)

        monkeypatch.setattr(homology, "_eliminate_unit_pivots", spy_residue)
        monkeypatch.setattr(homology, "smith_normal_form", spy_core)
        monkeypatch.setattr(_kernels, "smith_diagonal_int64", spy_sweep)
        h1 = simplicial_homology(build_hmt(n, keep_first_digon=keep_first_digon)).h1
        assert h1 == group_from_factors(hadamard_snf_closed_form(n))
        assert residues == []
        if n == 2:
            assert cores == [((1, 1), {2})] and sweeps == [(1, 1)]
        else:
            assert cores == [((n, n), {1})] and sweeps == []

    @pytest.mark.parametrize("k", [181, 2**31 + 12345, 2**61 - 1])
    def test_speyer_residue_is_one_row_and_column_short(self, k, monkeypatch):
        # the rounds leave a (bits-1) x (bits-1) residue; its unit pivots
        # leave a 1 x 1 core holding k
        bits, residues = k.bit_length(), []
        eliminate = homology._eliminate_unit_pivots

        def spy(rows):
            shape = (len(rows), len({j for row in rows for j in row}))
            pivots, core = eliminate(rows)
            residues.append((shape, pivots, [list(row.values()) for row in core]))
            return pivots, core

        monkeypatch.setattr(homology, "_eliminate_unit_pivots", spy)
        simplicial_homology(build_speyer_complex(k))
        assert residues == [((bits - 1, bits - 1), bits - 2, [[k]])]

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


def coordinates(rows):
    """(r, c, v) arrays of the sparse ``rows``, sorted by row and column."""
    entries = [(i, j, x) for i, row in enumerate(rows) for j, x in sorted(row.items())]
    r, c, v = zip(*entries) if entries else ((), (), ())
    return np.array(r, dtype=np.int64), np.array(c, dtype=np.int64), np.array(v, dtype=np.int64)


def factors(r, c, v, shape):
    """Invariant factors of the matrix with entries v at (r, c), 1s included."""
    dense = [[0] * shape[1] for _ in range(shape[0])]
    for i, j, x in zip(r.tolist(), c.tolist(), v.tolist()):
        dense[i][j] = x
    return sorted(snf_factors(dense)) if shape[1] and any(map(any, dense)) else []


def contract(r, c, v, shape):
    """(pivots, r, c, v) of homology._contract on the entries (r, c, v)."""
    entries = [r, c, v]
    pivots = homology._contract(entries, shape)
    return (pivots, *entries)


def reduce_entries(r, c, v, shape):
    """(pivots, core) of homology._reduce on the entries (r, c, v)."""
    return homology._reduce([r, c, v], shape)


def core_factors(core):
    """Invariant factors of a core from homology._reduce, 1s included."""
    return [] if core is None else sorted(snf_factors(core.tolist()))


def random_rows(rng, n_rows, n_cols):
    """Sparse rows, most of them two unit entries of random signs, the rest
    two to three entries in [-3, 3]."""
    rows = []
    for _ in range(n_rows):
        if rng.random() < 0.7:
            a, b = rng.sample(range(n_cols), 2)
            rows.append({a: rng.choice((-1, 1)), b: rng.choice((-1, 1))})
        else:
            cols = rng.sample(range(n_cols), rng.randint(2, 3))
            rows.append({j: rng.choice((-3, -2, -1, 1, 2, 3)) for j in cols})
    return rows


class TestArrayReduction:
    def test_forest_of_a_disconnected_graph(self):
        # components {0, 1, 2} (two parallel edges 0-2), {3, 4, 6} (the path
        # 6-4-3) and the isolated vertex 5
        a, b = np.array([1, 0, 2, 6, 4]), np.array([2, 2, 0, 4, 3])
        root, rel, tree = homology._forest(7, a, b)
        assert root.tolist() == [0, 0, 0, 3, 3, 5, 3]
        assert rel.tolist() == [1] * 7
        assert np.count_nonzero(tree) == 7 - 3
        assert component_count(range(7), zip(a[tree].tolist(), b[tree].tolist())) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_forest_signs_follow_a_consistent_assignment(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        x = rng.choice([-1, 1], n)
        a, b = rng.integers(0, n, 70), rng.integers(0, n, 70)
        root, rel, tree = homology._forest(n, a, b, x[a] * x[b])
        edges = list(zip(a.tolist(), b.tolist()))
        components = component_count(range(n), edges)
        assert np.count_nonzero(root == np.arange(n)) == components
        assert (root[a] == root[b]).all() and (root <= np.arange(n)).all()
        assert np.count_nonzero(tree) == n - components
        assert component_count(range(n), [e for e, t in zip(edges, tree) if t]) == components
        assert (rel == x * x[root]).all()

    def test_peel_pivots_both_kinds_in_one_round(self):
        rows = [
            {0: 1, 1: 2},  # the unit is alone in column 0
            {2: -1},  # alone in row 1; column 2 also has row 2
            {1: 2, 2: 3, 3: 2},
            {1: 2, 3: 4},
            {4: 1},  # alone in its row and in its column: one pivot
        ]
        shape = (5, 5)
        dropped, r, c, v = contract(*coordinates(rows), shape)
        assert dropped == 2 and 2 not in c.tolist() and 4 not in c.tolist()
        deleted, c, r, v = contract(c, r, v, shape[::-1])
        assert dropped + deleted == 3
        assert (r.tolist(), c.tolist(), v.tolist()) == ([2, 2, 3, 3], [1, 3, 1, 3], [2, 2, 2, 4])
        assert factors(*coordinates(rows), shape) == [1] * 3 + factors(r, c, v, shape)

    @pytest.mark.parametrize(
        "rows, left",
        [
            # the second single-unit row on column 0 becomes a zero row
            ([{0: 1}, {0: -1}, {0: 2, 1: 3}], ([2], [1], [3])),
            # the 2 in row 1 goes with column 0, not only the unit of row 0
            ([{0: 1}, {0: 2, 1: 3}], ([1], [1], [3])),
        ],
        ids=["two-rows-on-one-column", "entry-beside-the-unit"],
    )
    def test_single_unit_row_drops_its_whole_column(self, rows, left):
        shape = (len(rows), 2)
        pivots, r, c, v = contract(*coordinates(rows), shape)
        assert pivots == 1
        assert (r.tolist(), c.tolist(), v.tolist()) == left
        assert factors(*coordinates(rows), shape) == [1] + factors(r, c, v, shape)

    def test_pairs_are_counted_after_the_drop(self):
        # row 1 holds two units before column 0 is dropped and one after,
        # so only row 2 is a pair
        rows = [{0: 1}, {0: 1, 1: 1}, {1: 1, 2: -1}, {2: 2, 3: 2}, {3: 3, 1: 1}]
        shape = (5, 4)
        original = factors(*coordinates(rows), shape)
        pivots, r, c, v = contract(*coordinates(rows), shape)
        assert pivots == 2
        assert original == [1] * pivots + factors(r, c, v, shape)
        r, c, v = coordinates(rows)
        pivots, c, r, v = contract(c, r, v, shape[::-1])
        assert original == [1] * pivots + factors(r, c, v, shape)
        pivots, core = reduce_entries(*coordinates(rows), shape)
        assert original == [1] * pivots + core_factors(core)

    @pytest.mark.parametrize("length", [3, 4, 5])
    @pytest.mark.parametrize("consistent", [True, False], ids=["even", "odd"])
    def test_signed_cycle_leaves_one_row_of_0_or_2(self, length, consistent):
        # rows x_j -+ x_(j+1) around a cycle; the number of rows saying
        # x_a = -x_b is even exactly when the cycle is consistent
        signs = [1] * length
        signs[-1] = 1 if consistent else -1
        if length > 3:
            signs[0] = signs[1] = -1
        rows = [{j: 1, (j + 1) % length: -s} for j, s in enumerate(signs)]
        shape = (length, length)
        pivots, r, c, v = contract(*coordinates(rows), shape)
        assert pivots == length - 1
        if consistent:
            assert not len(v)
        else:
            assert c.tolist() == [0] and abs(v).tolist() == [2]
        assert factors(*coordinates(rows), shape) == [1] * pivots + factors(r, c, v, shape)

    @pytest.mark.parametrize("length", [3, 4, 5])
    @pytest.mark.parametrize("consistent", [True, False], ids=["even", "odd"])
    def test_signed_cycle_leaves_one_column_of_0_or_2(self, length, consistent):
        # the transpose: columns x_j -+ x_(j+1) around a cycle, contracted
        # by merging rows, from entries sorted by row rather than column
        signs = [1] * length
        signs[-1] = 1 if consistent else -1
        if length > 3:
            signs[0] = signs[1] = -1
        rows = [{} for _ in range(length)]
        for j, s in enumerate(signs):
            rows[j][j] = 1
            rows[(j + 1) % length][j] = -s
        shape = (length, length)
        r, c, v = coordinates(rows)
        pivots, c, r, v = contract(c, r, v, shape[::-1])
        assert pivots == length - 1
        if consistent:
            assert not len(v)
        else:
            assert r.tolist() == [0] and abs(v).tolist() == [2]
        assert factors(*coordinates(rows), shape) == [1] * pivots + factors(r, c, v, shape)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rounds_keep_the_invariant_factors(self, seed):
        rng = random.Random(seed)
        shape = (rng.randint(3, 8), rng.randint(3, 7))
        rows = random_rows(rng, *shape)
        original = factors(*coordinates(rows), shape)
        pivots, r, c, v = contract(*coordinates(rows), shape)
        assert original == [1] * pivots + factors(r, c, v, shape)
        r, c, v = coordinates(rows)
        pivots, c, r, v = contract(c, r, v, shape[::-1])
        assert original == [1] * pivots + factors(r, c, v, shape)
        pivots, core = reduce_entries(*coordinates(rows), shape)
        # only a dense residue, which has no zero, reaches the core with a unit
        assert core is None or (core != 0).all() or not (np.abs(core) == 1).any()
        assert original == [1] * pivots + core_factors(core)

    def test_contraction_past_int64_goes_on_in_python_ints(self):
        big = 3 * 2**61  # an int64, but the sum of two is not
        # row 2 keeps the residue sparse, so it goes to the dict pivots
        rows = [{0: big, 1: big}, {0: 1, 1: -1}, {2: 2}]
        assert contract(*coordinates(rows), (3, 3))[0] == 0
        pivots, core = reduce_entries(*coordinates(rows), (3, 3))
        assert pivots == 1 and core.dtype == object and core.tolist() == [[2 * big, 0], [0, 2]]

    def test_column_contraction_past_int64_goes_on_in_python_ints(self):
        big = 3 * 2**61
        rows = [{0: big, 1: 1}, {0: big, 1: -1}, {2: 2}]
        r, c, v = coordinates(rows)
        assert contract(c, r, v, (3, 3))[0] == 0
        pivots, core = reduce_entries(r, c, v, (3, 3))
        assert pivots == 1 and core.dtype == object and core.tolist() == [[2 * big, 0], [0, 2]]

    def test_dense_residue_is_one_array_without_dict_pivots(self, monkeypatch):
        # no unit is alone and no row or column holds two units, so the
        # rounds make no pivot; every row meets every column, so the
        # residue goes to the Smith form whole, its units included
        def fail(rows):
            raise AssertionError("dict pivots on a dense residue")

        monkeypatch.setattr(homology, "_eliminate_unit_pivots", fail)
        rows = [{0: 1, 1: 2, 2: 3}, {0: 4, 1: 1, 2: 6}, {0: 2, 1: 5, 2: 1}, {0: 3, 1: 3, 2: 3}]
        pivots, core = reduce_entries(*coordinates(rows), (4, 3))
        assert pivots == 0 and core.dtype == np.int64
        assert core.tolist() == [[1, 2, 3], [4, 1, 6], [2, 5, 1], [3, 3, 3]]
        # the same entries in another order, on sparse ids, give the same array
        r, c, v = coordinates(rows)
        order = np.random.default_rng(3).permutation(len(r))
        pivots, again = reduce_entries(2 * r[order] + 1, 3 * c[order], v[order], (9, 9))
        assert pivots == 0 and np.array_equal(again, core)

    @pytest.mark.parametrize("seed", range(20))
    def test_contract_takes_entries_in_any_order(self, seed):
        rng = random.Random(seed)
        shape = (rng.randint(3, 8), rng.randint(3, 7))
        rows = random_rows(rng, *shape)
        r, c, v = coordinates(rows)
        order = np.random.default_rng(seed).permutation(len(r))
        pivots, *left = contract(r[order], c[order], v[order], shape)
        expected, *kept = contract(r, c, v, shape)
        assert pivots == expected and [x.tolist() for x in left] == [x.tolist() for x in kept]
        assert factors(r, c, v, shape) == [1] * pivots + factors(*left, shape)

    def test_forest_edges_leave_the_columns_of_d2(self, monkeypatch):
        # d2 reaches the unit pivots without the spanning forest's
        # f0 - components edges, and with every other edge
        columns = []
        reduce = homology._reduce

        def spy(entries, shape):
            columns.append(len(set(entries[1].tolist())))
            return reduce(entries, shape)

        monkeypatch.setattr(homology, "_reduce", spy)
        for k in corpus():
            f0, f1, _ = face_vector(k)
            hom = simplicial_homology(k)
            assert columns.pop() == f1 - f0 + hom.h0.free_rank
