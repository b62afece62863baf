import numpy as np
import pytest

from torsionforge import _kernels
from torsionforge.exactmat import int_matrix, smith_normal_form
from torsionforge.hadamard import _kronecker_diagonal, augment, hadamard_snf_closed_form, walsh, walsh_smith_factors

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

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_matches_elimination(self, n):
        # the dense sweep itself; smith_normal_form takes the Walsh route
        assert _kernels.smith_diagonal_int64(walsh(n)) == list(hadamard_snf_closed_form(n))

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


def signed_permutation(h, rng):
    """h with its rows and columns permuted and signed at random."""
    n = len(h)
    rows, cols = rng.permutation(n), rng.permutation(n)
    return h[rows][:, cols] * rng.choice([-1, 1], (n, 1)) * rng.choice([-1, 1], n)


def sign_normalised(h):
    """h with every row and then every column signed to start with +1."""
    h = h * h[:, :1]
    return h * h[:1]


def inequivalent_hadamard_16():
    """[[A, A], [B, -B]] for A = walsh(8) and B = A with its last two
    columns swapped: Hadamard because A and B are, and not equivalent to
    walsh(16) (see the test that uses it)."""
    a = walsh(8)
    b = a[:, [0, 1, 2, 3, 4, 5, 7, 6]]
    return np.block([[a, a], [b, -b]])


@pytest.fixture
def sweeps(monkeypatch):
    """The shapes of the matrices that reach the dense sweep."""
    seen = []
    sweep = _kernels.smith_diagonal_int64

    def spy(m, *args, **kwargs):
        seen.append(m.shape)
        return sweep(m, *args, **kwargs)

    monkeypatch.setattr(_kernels, "smith_diagonal_int64", spy)
    return seen


class TestWalshRoute:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_signed_permutations_take_the_route(self, n, sweeps):
        rng = np.random.default_rng(n)
        for _ in range(2):
            m = signed_permutation(walsh(n), rng)
            res = smith_normal_form(m)
            assert sweeps == []
            expected = hadamard_snf_closed_form(n)
            if n <= 256:  # the sweep's own answer, on the same matrix
                expected = tuple(_kernels.smith_diagonal_int64(m.copy()))
            assert res.invariant_factors == expected and res.rank == n
            assert res.s is None and res.t is None and res.a.dtype == np.int64
            assert np.array_equal(res.a, np.diag(expected))
            sweeps.clear()

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
    def test_one_sign_flipped_takes_the_sweep(self, n, sweeps):
        rng = np.random.default_rng(100 + n)
        m = signed_permutation(walsh(n), rng)
        i, j = rng.integers(n, size=2)
        m[i, j] = -m[i, j]
        assert walsh_smith_factors(m) is None
        expected = _kernels.smith_diagonal_int64(m.copy())
        sweeps.clear()
        assert list(smith_normal_form(m).invariant_factors) == expected
        assert sweeps == [(n, n)]

    def test_order_12_takes_the_sweep(self, sweeps):
        m = np.random.default_rng(12).choice([-1, 1], (12, 12))
        assert walsh_smith_factors(m) is None
        expected = _kernels.smith_diagonal_int64(m.copy())
        sweeps.clear()
        assert list(smith_normal_form(m).invariant_factors) == expected
        assert sweeps == [(12, 12)]

    def test_inequivalent_hadamard_16_takes_the_sweep(self, sweeps):
        h = inequivalent_hadamard_16()
        assert np.array_equal(h @ h.T, 16 * np.eye(16, dtype=np.int64))
        # the sign-normalised rows of a matrix equivalent to walsh(16) are
        # closed under entrywise products; these are not
        rows = {tuple(r) for r in sign_normalised(h).tolist()}
        assert any(
            tuple(x * y) not in rows and tuple(-x * y) not in rows
            for x in sign_normalised(h) for y in sign_normalised(h)
        )
        for m in (h, signed_permutation(h, np.random.default_rng(16))):
            assert walsh_smith_factors(m) is None
            expected = _kernels.smith_diagonal_int64(m.copy())
            sweeps.clear()
            assert list(smith_normal_form(m).invariant_factors) == expected
            assert sweeps == [(16, 16)]
        assert expected != list(hadamard_snf_closed_form(16))

    def test_transforms_take_the_sweep(self, sweeps):
        m = signed_permutation(walsh(8), np.random.default_rng(8))
        res = smith_normal_form(int_matrix(m.tolist()), transforms=True)
        assert sweeps == [(8, 8)]
        assert res.invariant_factors == hadamard_snf_closed_form(8)
        assert np.array_equal(res.s @ res.a @ res.t, m)

    @pytest.mark.parametrize(
        "m",
        [
            walsh(4).astype(object),
            walsh(8)[:, :4],
            walsh(1),
            2 * walsh(4),
            np.zeros((4, 4), dtype=np.int64),
        ],
        ids=["object", "wide", "order-1", "entries-2", "zero"],
    )
    def test_only_square_pm_one_int64_of_order_at_least_2_qualifies(self, m):
        assert walsh_smith_factors(m) is None


class TestKroneckerCertificate:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048])
    def test_walsh_diagonal_is_the_closed_form(self, n):
        assert _kronecker_diagonal(walsh(n)) == hadamard_snf_closed_form(n)

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_anything_but_walsh_fails_the_check(self, n):
        flipped = walsh(n)
        flipped[n - 1, n // 2] *= -1
        assert _kronecker_diagonal(flipped) is None
        assert _kronecker_diagonal(walsh(n)[::-1].copy()) is None
        if n == 16:
            assert _kronecker_diagonal(inequivalent_hadamard_16()) is None


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
