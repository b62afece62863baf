import random

import pytest

from torsionforge.exactmat import int_matrix
from torsionforge.hadamard import walsh
import numpy as np

from torsionforge.valid_sequences import ValidSequence, check_valid, valid_sequence

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
        assert valid_sequence(1) == ValidSequence(((1,),))

    def test_order_two(self):
        assert valid_sequence(2) == ValidSequence(((1, 2), (1, 2)))

    def test_order_four_canonical(self):
        assert valid_sequence(4) == ValidSequence(H4_SEQUENCE)

    def test_order_eight_canonical(self):
        assert valid_sequence(8) == ValidSequence(H8_SEQUENCE)

    def test_extend_steps(self):
        # each order doubles the half order: the plain rows [P, P + m], then
        # the merged rows [P + m*odd, P + m*even] (odd, even: of the position)
        for m in (2**k for k in range(11)):
            p = valid_sequence(m).perms
            odd = np.arange(m) % 2 * m
            assert np.array_equal(valid_sequence(2 * m).perms, np.block([[p, p + m], [p + odd, p + m - odd]]))

    @pytest.mark.parametrize("n", [2**k for k in range(12)])
    def test_matches_ordering_by_ordering_reference(self, n):
        assert valid_sequence(n).perms.tolist() == [list(p) for p in valid_sequence_perms(n)]

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            valid_sequence(6)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match="order must be a power of two"):
            valid_sequence(True)

    def test_numpy_int_is_named_by_type(self):
        with pytest.raises(ValueError, match="order must be a power of two of type int, got .* of type int64$"):
            valid_sequence(np.int64(4))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_canonical_sequence_is_valid(self, n):
        assert check_valid(valid_sequence(n), walsh(n)).ok

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_every_ordering_starts_with_one(self, n):
        for p in valid_sequence(n).perms:
            assert p[0] == 1


class TestChecker:
    def test_accepts_alternative_sequence(self):
        # a second valid sequence exists; validity is not uniqueness
        seq = ValidSequence(((1, 3, 2, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 4, 3, 2)))
        assert check_valid(seq, walsh(4)).ok

    def test_repeated_ordering_violates(self):
        seq = ValidSequence(((1, 2, 3, 4),) * 4)
        report = check_valid(seq, walsh(4))
        assert not report.ok
        assert report.condition == 2
        # rows 1 and 3 agree in sign on columns 1 and 2
        assert report.violation == (1, 1, 3, 1)

    def test_condition_one_not_a_permutation(self):
        seq = ValidSequence(((1, 1), (1, 2)))
        report = check_valid(seq, walsh(2))
        assert not report.ok and report.condition == 1
        assert "disc 1" in report.detail

    def test_condition_one_wrong_start(self):
        seq = ValidSequence(((1, 2), (2, 1)))
        report = check_valid(seq, walsh(2))
        assert not report.ok and report.condition == 1
        assert "disc 2" in report.detail

    def test_wraparound_pair_is_checked(self):
        # identical orderings whose only shared pair is (last, first)
        seq = ValidSequence(((1, 2), (1, 2)))
        m = int_matrix([[1, 1], [1, 1]])  # any +-1 matrix is allowed
        report = check_valid(seq, m)
        assert not report.ok and report.violation == (1, 1, 2, 1)

    def test_rejects_non_pm_one_matrix(self):
        with pytest.raises(ValueError):
            check_valid(valid_sequence(2), int_matrix([[1, 0], [0, 1]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_valid(valid_sequence(2), walsh(4))

    def test_rejects_one_dimensional_matrix(self):
        with pytest.raises(ValueError, match=r"against a matrix of shape \(2,\)$"):
            check_valid(valid_sequence(2), np.array([1, 1]))

    def test_matches_bruteforce_on_mutations(self):
        # swaps behind position 1 keep condition 1 (for n > 2); on every
        # second trial a repeated label or a moved label 1 may break it, in
        # up to three discs at once
        rng = random.Random(4242)
        several_broken = 0
        for n in (2, 4, 8):
            w = walsh(n)
            rows = w.tolist()
            base = valid_sequence(n).perms.tolist()
            for trial in range(120):
                kinds = ("swap", "repeat", "move-1") if trial % 2 else ("swap",)
                perms = [p[:] for p in base]
                for _ in range(rng.randint(1, 3)):
                    p = perms[rng.randrange(n)]
                    kind = rng.choice(kinds)
                    if kind == "swap" and n > 2:
                        a, b = rng.sample(range(1, n), 2)
                    elif kind == "repeat":
                        a, b = rng.sample(range(n), 2)
                        p[a] = p[b]
                        continue
                    else:
                        a, b = 0, rng.randrange(1, n)
                    p[a], p[b] = p[b], p[a]
                got = check_valid(ValidSequence(perms), w)
                expected = check_valid_bruteforce(perms, rows)
                if expected[0] == "ok":
                    assert got.ok
                elif expected[0] == "cond1":
                    disc = expected[1]
                    assert not got.ok and got.condition == 1
                    assert got.detail.startswith(f"disc {disc}: ")
                    permutes = sorted(perms[disc - 1]) == list(range(1, n + 1))
                    assert ("starts with" in got.detail) == permutes
                    several_broken += sum(sorted(p) != list(range(1, n + 1)) or p[0] != 1 for p in perms) > 1
                else:
                    assert not got.ok and got.condition == 2
                    assert got.violation == expected[1]
        assert several_broken >= 10

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ValidSequence(((1, 2),))
        with pytest.raises(ValueError):
            ValidSequence(((1, 2, 3), (1, 2)))
        with pytest.raises(ValueError):
            ValidSequence(())
        with pytest.raises(ValueError):
            ValidSequence(((1.0, 2.0), (1.0, 2.0)))

    def test_rejects_labels_outside_int64(self):
        with pytest.raises(ValueError, match=f"within int64, got {2**64 - 1}$"):
            ValidSequence(np.array([[1, 2**64 - 1], [1, 2]], dtype=np.uint64))
        # numpy holds Python ints past int64 as objects: the message names
        # the label, unless a label is no int at all
        for label in (2**70, -(2**63) - 1):
            with pytest.raises(ValueError, match=f"within int64, got {label}$"):
                ValidSequence([[1, label], [1, 2]])
        with pytest.raises(ValueError, match="integer labels, got dtype object$"):
            ValidSequence([[1, 2**70], [1, 2.5]])
        # unsigned labels that fit are kept
        assert ValidSequence(np.array([[1, 2], [1, 2]], dtype=np.uint64)) == valid_sequence(2)

    def test_object_array_of_labels_within_int64_is_kept(self):
        seq = ValidSequence(np.array([[1, 2], [1, 2]], dtype=object))
        assert seq.perms.dtype == np.int64 and seq == valid_sequence(2)
        edge = ValidSequence(np.array([[1, 2**63 - 1], [1, -(2**63)]], dtype=object))
        assert edge.perms.tolist() == [[1, 2**63 - 1], [1, -(2**63)]]

    def test_holds_one_read_only_int64_array(self):
        seq = ValidSequence([[1, 2], [1, 2]])
        assert seq.perms.dtype == np.int64 and seq.perms.shape == (2, 2) and seq.n == 2
        with pytest.raises(ValueError):
            seq.perms[0, 0] = 2
        assert seq == valid_sequence(2) and seq != ValidSequence([[1, 2], [2, 1]])
