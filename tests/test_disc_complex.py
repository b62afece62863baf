import random

import numpy as np
import pytest

from torsionforge.disc_complex import MAX_WORD_LETTERS, DiscComplexSpec, cellular_homology, from_matrix
from torsionforge.exactmat import free_group, group_from_factors, int_matrix
from torsionforge.hadamard import walsh

from .oracles import det_bareiss, speyer_matrix_dense, word_matrix


def random_matrix_no_zero_lines(rng, max_dim=4, lo=-3, hi=3):
    while True:
        r = rng.randint(1, max_dim)
        c = rng.randint(1, max_dim)
        rows = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
        if all(any(row) for row in rows) and all(any(row[j] for row in rows) for j in range(c)):
            return int_matrix(rows)


class TestFromMatrix:
    def test_grouped_word(self):
        spec = from_matrix(int_matrix([[2, 2]]), "grouped")
        assert spec.discs == ((1, 1, 2, 2),)
        # the second row keeps column 2 from being zero
        spec = from_matrix(int_matrix([[2, 0, -3, 1], [0, -1, 0, 0]]), "grouped")
        assert spec.discs == ((1, 1, -3, -3, -3, 4), (-2,))

    def test_interleaved_word(self):
        spec = from_matrix(int_matrix([[2, 2]]), "interleaved")
        assert spec.discs == ((1, 2, 1, 2),)
        spec = from_matrix(int_matrix([[2, 0, -3, 1], [0, -1, 0, 0]]), "interleaved")
        assert spec.discs == ((1, -3, 4, 1, -3, -3), (-2,))

    def test_negative_entries_reverse_orientation(self):
        spec = from_matrix(walsh(2), "grouped")
        assert spec.discs == ((1, 2), (1, -2))

    def test_interleaved_uneven_copies(self):
        spec = from_matrix(int_matrix([[1, -3]]), "interleaved")
        assert spec.discs == ((1, -2, -2, -2),)

    def test_zero_row_rejected_with_index(self):
        with pytest.raises(ValueError, match="row 2"):
            from_matrix(int_matrix([[1, 1], [0, 0]]))

    def test_zero_column_rejected_with_index(self):
        with pytest.raises(ValueError, match="column 2"):
            from_matrix(int_matrix([[1, 0], [1, 0]]))

    def test_word_length_bound(self):
        cap = MAX_WORD_LETTERS
        assert len(from_matrix(int_matrix([[cap // 2, -(cap - cap // 2)]])).discs[0]) == cap
        for m in ([[cap + 1]], [[-cap, 1]], [[2**70]], [[1, -(2**63)]]):
            with pytest.raises(ValueError, match=r"boundary letters, more than the 262144 allowed"):
                from_matrix(int_matrix(m))

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            from_matrix(walsh(2), "sorted")

    def test_round_trip_through_induced_matrix(self):
        rng = random.Random(99)
        for _ in range(50):
            m = random_matrix_no_zero_lines(rng)
            for ordering in ("grouped", "interleaved"):
                assert np.array_equal(word_matrix(from_matrix(m, ordering)), m)


class TestSpecValidation:
    def test_word_with_both_orientations_rejected(self):
        with pytest.raises(ValueError, match="both orientations"):
            DiscComplexSpec(1, ((1, -1),))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DiscComplexSpec(1, ((1,), ()))

    def test_unused_cycle_rejected(self):
        with pytest.raises(ValueError, match="zero column"):
            DiscComplexSpec(2, ((1,),))

    def test_out_of_range_cycle_rejected(self):
        with pytest.raises(ValueError):
            DiscComplexSpec(2, ((1, 3),))

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            DiscComplexSpec(1, ((0,),))

    def test_bool_letter_rejected(self):
        for word in ((True, True), (1, True), (False,)):
            with pytest.raises(ValueError, match="is not a signed cycle index"):
                DiscComplexSpec(1, (word,))

    def test_non_int_cycle_count_rejected(self):
        for n in (1.5, "2", True, None):
            with pytest.raises(ValueError, match="n_cycles must be an int"):
                DiscComplexSpec(n, ((1,),))

    def test_discs_kept_as_tuples(self):
        discs = [[1, -2], [2]]
        spec = DiscComplexSpec(2, discs)
        discs[0].append(-2)
        assert spec.discs == ((1, -2), (2,))
        assert type(spec.discs) is tuple and all(type(word) is tuple for word in spec.discs)


class TestCellularHomology:
    def test_two_two(self):
        h0, h1, h2 = cellular_homology(int_matrix([[2, 2]]))
        assert h0 == free_group(1)
        assert h1 == group_from_factors([2], free_rank=1)
        assert h2.is_trivial

    def test_walsh2_is_projective_plane(self):
        h0, h1, h2 = cellular_homology(walsh(2))
        assert (str(h0), str(h1), str(h2)) == ("Z", "Z_2", "0")

    def test_speyer_11(self):
        h0, h1, h2 = cellular_homology(speyer_matrix_dense(11))
        assert (str(h0), str(h1), str(h2)) == ("Z", "Z_11", "0")

    def test_kernel_contributes_to_h2(self):
        # duplicated row: rank 1, kernel rank 1
        h0, h1, h2 = cellular_homology(int_matrix([[1, 1], [1, 1]]))
        assert h2 == free_group(1)
        assert h1 == free_group(1)

    def test_order_equals_absolute_determinant(self):
        rng = random.Random(123)
        seen = 0
        while seen < 40:
            m = random_matrix_no_zero_lines(rng)
            if m.shape[0] != m.shape[1] or det_bareiss(m) == 0:
                continue
            seen += 1
            _, h1, h2 = cellular_homology(m)
            assert h2.is_trivial
            assert h1.free_rank == 0
            assert h1.torsion_order == abs(det_bareiss(m))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            cellular_homology(int_matrix([[0, 0], [1, 1]]))
