import numpy as np
import pytest

from torsionforge.exactmat import int_matrix, smith_normal_form
from torsionforge.hadamard import augment, hadamard_snf_closed_form, walsh

from .oracles import det_bareiss, is_hadamard_by_gram


class TestWalsh:
    def test_order_one(self):
        assert walsh(1).tolist() == [[1]]

    def test_order_two(self):
        assert walsh(2).tolist() == [[1, 1], [1, -1]]

    def test_order_four(self):
        assert walsh(4).tolist() == [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]
        assert walsh(4).dtype == np.int64

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, -2])
    def test_rejects_non_powers_of_two(self, bad):
        with pytest.raises(ValueError):
            walsh(bad)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match="order must be a power of two"):
            walsh(True)

    def test_numpy_int_is_named_by_type(self):
        with pytest.raises(ValueError, match="order must be a power of two of type int, got .* of type int64$"):
            walsh(np.int64(4))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_rows_orthogonal(self, n):
        assert is_hadamard_by_gram(walsh(n))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 256])
    def test_first_column_all_ones(self, n):
        w = walsh(n)
        assert all(w[i, 0] == 1 for i in range(n))


class TestSylvester:
    """walsh(2m) is Sylvester's doubling (H H; H -H) of walsh(m)."""

    @staticmethod
    def doubled(h):
        return np.block([[h, h], [h, -h]])

    def test_doubles_the_base(self):
        assert np.array_equal(self.doubled(int_matrix([[1]])), walsh(2))

    def test_doubles_order_two(self):
        for m in (2**k for k in range(1, 10)):
            assert np.array_equal(self.doubled(walsh(m)), walsh(2 * m))

    def test_object_matrix_doubles_exactly(self):
        h = walsh(2).astype(object)
        assert is_hadamard_by_gram(h)
        assert np.array_equal(self.doubled(h), walsh(4))


class TestClosedForm:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, (1,)),
            (2, (1, 2)),
            (4, (1, 2, 2, 4)),
            (8, (1, 2, 2, 2, 4, 4, 4, 8)),
        ],
    )
    def test_small_values(self, n, expected):
        assert hadamard_snf_closed_form(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    def test_matches_elimination(self, n):
        assert smith_normal_form(walsh(n)).invariant_factors == hadamard_snf_closed_form(n)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_product_is_hadamard_bound(self, n):
        prod = 1
        for f in hadamard_snf_closed_form(n):
            prod *= f
        assert prod == n ** (n // 2)

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            hadamard_snf_closed_form(12)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match="order must be a power of two"):
            hadamard_snf_closed_form(True)

    def test_numpy_int_is_named_by_type(self):
        with pytest.raises(ValueError, match="order must be a power of two of type int, got .* of type int64$"):
            hadamard_snf_closed_form(np.int64(4))


class TestDeterminantBound:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_walsh_attains_bound(self, n):
        assert abs(det_bareiss(walsh(n))) == n ** (n // 2)


class TestAugment:
    def test_order_two(self):
        assert augment(walsh(2)).tolist() == [
            [1, 0, 1, 0],
            [1, 0, 0, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ]

    def test_order_one(self):
        assert augment(walsh(1)).tolist() == [[1, 0], [1, 1]]
        assert augment(walsh(1)).dtype == np.int64

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_preserves_absolute_determinant(self, n):
        w = walsh(n)
        assert abs(det_bareiss(augment(w))) == abs(det_bareiss(w))

    def test_rejects_non_pm_one(self):
        with pytest.raises(ValueError):
            augment(int_matrix([[1, 0], [0, 1]]))
        with pytest.raises(ValueError):
            augment(int_matrix([[1, 1, -1]]))
