import random

import pytest

from torsionforge.exactmat import IntMatrix
from torsionforge.hadamard import walsh
from torsionforge.valid_sequences import (
    ValidSequence,
    check_valid,
    extend_sequence,
    sequence_array,
    valid_sequence,
)

from .oracles import check_valid_bruteforce, valid_sequence_perms

H4_SEQUENCE = ((1, 2, 3, 4), (1, 2, 3, 4), (1, 4, 3, 2), (1, 4, 3, 2))
H8_SEQUENCE = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 4, 3, 2, 5, 8, 7, 6),
    (1, 4, 3, 2, 5, 8, 7, 6),
    (1, 6, 3, 8, 5, 2, 7, 4),
    (1, 6, 3, 8, 5, 2, 7, 4),
    (1, 8, 3, 6, 5, 4, 7, 2),
    (1, 8, 3, 6, 5, 4, 7, 2),
)


class TestConstruction:
    def test_base_case(self):
        assert valid_sequence(1).perms == ((1,),)

    def test_order_two(self):
        assert valid_sequence(2).perms == ((1, 2), (1, 2))

    def test_order_four_canonical(self):
        assert valid_sequence(4).perms == H4_SEQUENCE

    def test_order_eight_canonical(self):
        assert valid_sequence(8).perms == H8_SEQUENCE

    def test_extend_steps(self):
        assert extend_sequence(ValidSequence(1, ((1,),))).perms == ((1, 2), (1, 2))
        assert extend_sequence(ValidSequence(2, ((1, 2), (1, 2)))).perms == H4_SEQUENCE
        assert extend_sequence(ValidSequence(4, H4_SEQUENCE)).perms == H8_SEQUENCE

    @pytest.mark.parametrize("n", [1, 2, 16, 256])
    def test_matches_ordering_by_ordering_reference(self, n):
        expected = valid_sequence_perms(n)
        assert valid_sequence(n).perms == tuple(expected)
        assert sequence_array(n).tolist() == [list(p) for p in expected]

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            valid_sequence(6)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_canonical_sequence_is_valid(self, n):
        assert check_valid(valid_sequence(n), walsh(n)).ok

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_every_ordering_starts_with_one(self, n):
        for p in valid_sequence(n).perms:
            assert p[0] == 1


class TestChecker:
    def test_accepts_alternative_sequence(self):
        # a second valid sequence exists; validity is not uniqueness
        seq = ValidSequence(4, ((1, 3, 2, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 4, 3, 2)))
        assert check_valid(seq, walsh(4)).ok

    def test_repeated_ordering_violates(self):
        seq = ValidSequence(4, ((1, 2, 3, 4),) * 4)
        report = check_valid(seq, walsh(4))
        assert not report.ok
        assert report.condition == 2
        # rows 1 and 3 agree in sign on columns 1 and 2
        assert report.violation == (1, 1, 3, 1)

    def test_condition_one_not_a_permutation(self):
        seq = ValidSequence(2, ((1, 1), (1, 2)))
        report = check_valid(seq, walsh(2))
        assert not report.ok and report.condition == 1
        assert "disc 1" in report.detail

    def test_condition_one_wrong_start(self):
        seq = ValidSequence(2, ((1, 2), (2, 1)))
        report = check_valid(seq, walsh(2))
        assert not report.ok and report.condition == 1
        assert "disc 2" in report.detail

    def test_wraparound_pair_is_checked(self):
        # identical orderings whose only shared pair is (last, first)
        seq = ValidSequence(2, ((1, 2), (1, 2)))
        m = IntMatrix.from_rows([[1, 1], [1, 1]])  # any +-1 matrix is allowed
        report = check_valid(seq, m)
        assert not report.ok and report.violation == (1, 1, 2, 1)

    def test_rejects_non_pm_one_matrix(self):
        with pytest.raises(ValueError):
            check_valid(valid_sequence(2), IntMatrix.from_rows([[1, 0], [0, 1]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_valid(valid_sequence(2), walsh(4))

    def test_matches_bruteforce_on_mutations(self):
        rng = random.Random(4242)
        for n in (2, 4, 8):
            w = walsh(n)
            rows = w.to_rows()
            base = [list(p) for p in valid_sequence(n).perms]
            for _ in range(60):
                perms = [p[:] for p in base]
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(n)
                    if n > 2:
                        a, b = rng.sample(range(1, n), 2)
                        perms[i][a], perms[i][b] = perms[i][b], perms[i][a]
                    else:
                        perms[i] = perms[i][::-1]
                got = check_valid(ValidSequence(n, tuple(tuple(p) for p in perms)), w)
                expected = check_valid_bruteforce(perms, rows)
                if expected[0] == "ok":
                    assert got.ok
                elif expected[0] == "cond1":
                    assert not got.ok and got.condition == 1
                else:
                    assert not got.ok and got.condition == 2
                    assert got.violation == expected[1]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ValidSequence(2, ((1, 2),))
        with pytest.raises(ValueError):
            ValidSequence(2, ((1, 2, 3), (1, 2)))
