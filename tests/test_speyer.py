import random

import numpy as np
import pytest

from torsionforge.disc_complex import from_matrix
from torsionforge.exactmat import group_from_factors
from torsionforge.homology import simplicial_homology
from torsionforge.speyer import _speyer_spec, build_speyer_complex
from torsionforge.triangulation import triangulate_generic, validate_complex

from .oracles import det_bareiss, face_vector, speyer_matrix_dense, vertex_count_formula, word_matrix


def random_ks(count: int, seed: int) -> list[int]:
    """``count`` seeded k whose bit lengths spread from 2 to 2048, with
    the two ends of that range."""
    rng = random.Random(seed)
    bits = [2, 2048] + [rng.randint(2, 2048) for _ in range(count - 2)]
    return [rng.getrandbits(b) | 1 << (b - 1) for b in bits]


class TestSpeyerMatrix:
    """M(k), the matrix that the words of ``_speyer_spec(k)`` realize."""

    def test_eleven(self):
        assert word_matrix(_speyer_spec(11)).tolist() == [
            [1, 0, 1, -1],
            [1, 2, 0, 0],
            [0, 1, 2, 0],
            [0, 0, 1, 2],
        ]

    def test_two(self):
        assert word_matrix(_speyer_spec(2)).tolist() == [[1, 0], [1, 2]]

    def test_three(self):
        assert word_matrix(_speyer_spec(3)).tolist() == [[1, -1], [1, 2]]

    def test_determinant_is_k(self):
        for k in range(2, 513):
            assert det_bareiss(word_matrix(_speyer_spec(k))) == k

    @pytest.mark.parametrize("bad", [1, 0, -5])
    def test_rejects_small_k(self, bad):
        with pytest.raises(ValueError, match=f"k must be an integer >= 2, got {bad}$"):
            build_speyer_complex(bad)

    @pytest.mark.parametrize("bad, kind", [(np.int64(11), "int64"), (True, "bool"), (11.0, "float")])
    def test_non_int_k_is_named_by_type(self, bad, kind):
        with pytest.raises(ValueError, match=f"k must be of type int, got .* of type {kind}$"):
            build_speyer_complex(bad)


class TestAgainstDenseMatrix:
    """The words are the one definition of the family; the dense matrix
    they replaced is the oracle for both the matrix and the complex."""

    def test_matrix_matches(self):
        for k in [*range(2, 4097), *random_ks(24, 2047)]:
            assert np.array_equal(word_matrix(_speyer_spec(k)), speyer_matrix_dense(k)), k

    def test_words_are_the_grouped_words_of_the_matrix(self):
        for k in [*range(2, 4097), *random_ks(6, 127), 2**61 - 1, 2**2048 - 1]:
            spec, dense = _speyer_spec(k), from_matrix(speyer_matrix_dense(k), "grouped")
            assert spec.n_cycles == dense.n_cycles and spec.discs == dense.discs, k

    def test_complex_is_the_triangulation_of_the_matrix(self):
        for k in [*range(2, 70), 1000, 4096, 2**61 - 1, 2**64 - 59, *random_ks(4, 61)]:
            built = build_speyer_complex(k)
            dense = triangulate_generic(from_matrix(speyer_matrix_dense(k), "grouped"))
            assert list(built.labels.items()) == list(dense.labels.items()), k
            assert np.array_equal(built.triangles, dense.triangles), k
            assert np.array_equal(built.claims, dense.claims) and np.array_equal(built.claim_owner, dense.claim_owner), k


class TestSpeyerComplex:
    def test_eleven_reproduction(self):
        k = build_speyer_complex(11)
        assert face_vector(k)[0] == 29
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
            assert vertex_count_formula(_speyer_spec(k)) <= 9 * m + 6

    def test_power_of_two_torsion(self):
        k = build_speyer_complex(2**10)
        assert face_vector(k)[0] <= 96
        hom = simplicial_homology(k)
        assert hom.h1.torsion_order == 1024
