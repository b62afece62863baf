import numpy as np
import pytest

from torsionforge.disc_complex import from_matrix
from torsionforge.exactmat import group_from_factors
from torsionforge.homology import simplicial_homology
from torsionforge.speyer import build_speyer_complex, speyer_matrix
from torsionforge.triangulation import face_vector, validate_complex, vertex_count_formula

from .oracles import det_bareiss


class TestSpeyerMatrix:
    def test_eleven(self):
        assert speyer_matrix(11).tolist() == [
            [1, 0, 1, -1],
            [1, 2, 0, 0],
            [0, 1, 2, 0],
            [0, 0, 1, 2],
        ]
        assert speyer_matrix(11).dtype == np.int64

    def test_two(self):
        assert speyer_matrix(2).tolist() == [[1, 0], [1, 2]]

    def test_three(self):
        assert speyer_matrix(3).tolist() == [[1, -1], [1, 2]]

    def test_determinant_is_k(self):
        for k in range(2, 513):
            assert det_bareiss(speyer_matrix(k)) == k

    @pytest.mark.parametrize("bad", [1, 0, -5])
    def test_rejects_small_k(self, bad):
        with pytest.raises(ValueError):
            speyer_matrix(bad)


class TestSpeyerComplex:
    def test_eleven_reproduction(self):
        k = build_speyer_complex(11)
        assert face_vector(k).f0 == 29
        validate_complex(k)  # raises on an invalid complex
        hom = simplicial_homology(k)
        assert hom.h1 == group_from_factors([11])
        assert str(hom.h0) == "Z" and hom.h2.is_trivial

    def test_torsion_order_is_k(self):
        for k in range(2, 65):
            hom = simplicial_homology(build_speyer_complex(k))
            assert hom.h1.free_rank == 0
            assert hom.h1.torsion_order == k

    def test_prime_k_gives_cyclic_torsion(self):
        for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
            hom = simplicial_homology(build_speyer_complex(k))
            assert hom.h1.invariant_factors == (k,)

    def test_vertex_bound(self):
        for k in range(2, 513):
            m = k.bit_length() - 1
            spec = from_matrix(speyer_matrix(k), "grouped")
            assert vertex_count_formula(spec) <= 9 * m + 6

    def test_power_of_two_torsion(self):
        k = build_speyer_complex(2**10)
        assert face_vector(k).f0 <= 96
        hom = simplicial_homology(k)
        assert hom.h1.torsion_order == 1024
