import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionforge import exactmat
from torsionforge.exactmat import (
    AbelianGroup,
    FactorizationBudgetError,
    _prime_factors,
    free_group,
    group_from_factors,
    int_matrix,
    smith_normal_form,
)
from torsionforge.hadamard import walsh

from .oracles import det_bareiss, det_cofactor, snf_factors, snf_factors_by_minor_gcds, speyer_matrix_dense


def matrices(max_dim=6, lo=-5, hi=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.integers(lo, hi), min_size=r * c, max_size=r * c).map(
                lambda es: int_matrix(es[i * c : (i + 1) * c] for i in range(r))
            )
        )
    )


class TestMatrixConstructor:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="ragged matrix: row 2 has 1 entries, expected 2"):
            int_matrix([[1, 2], [3]])
        for empty in ([], [[]], [[], []]):
            with pytest.raises(ValueError, match="matrix needs at least one row and one column"):
                int_matrix(empty)
        with pytest.raises(ValueError, match="ragged matrix: row 2 has 1 entries, expected 0"):
            int_matrix([[], [1]])
        for bad in (1.5, 2.0, True, np.bool_(False), "3"):
            with pytest.raises(ValueError, match=f"non-integer matrix entry {bad!r}"):
                int_matrix([[1, bad]])

    def test_dtype_is_int64_when_every_entry_fits(self):
        for rows in ([[1, 2], [3, 4]], [[-(2**63), 2**63 - 1]], [[np.int64(5), np.int32(-7)]]):
            m = int_matrix(rows)
            assert m.dtype == np.int64 and m.tolist() == [[int(x) for x in r] for r in rows]

    @pytest.mark.parametrize(
        "rows",
        [[[-1, 2**63]], [[2**63]], [[2**64 - 1, 0]], [[3, -(2**63) - 1]], [[np.int64(-1), 2**200]]],
        ids=["float64-trap", "uint64-trap", "uint64-max", "below-int64", "numpy-and-python"],
    )
    def test_object_holds_python_ints_past_int64(self, rows):
        m = int_matrix(rows)
        assert m.dtype == object
        assert all(type(x) is int for x in m.ravel())
        assert m.tolist() == [[int(x) for x in r] for r in rows]

    def test_accessors(self):
        m = int_matrix([[1, 2, 3], [4, 5, 6]])
        assert m[1, 2] == 6
        assert m[0].tolist() == [1, 2, 3]
        assert m.T.tolist() == [[1, 4], [2, 5], [3, 6]]
        assert (m @ m.T).tolist() == [[14, 32], [32, 77]]
        big = int_matrix([[2**64, 1], [0, 1]])
        assert (big @ big.T).tolist() == [[2**128 + 1, 1], [1, 1]]

    def test_big_entries_survive(self):
        big = 2**300
        m = int_matrix([[big]])
        assert det_bareiss(m) == big


class TestDet:
    def test_identity(self):
        assert det_bareiss(int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_walsh4_attains_hadamard_bound(self):
        assert abs(det_bareiss(walsh(4))) == 16

    def test_speyer11(self):
        assert det_bareiss(speyer_matrix_dense(11)) == 11

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_bareiss(int_matrix([[1, 2]]))

    def test_singular(self):
        assert det_bareiss(int_matrix([[1, 2], [2, 4]])) == 0

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_dim=5))
    def test_matches_cofactor_expansion(self, m):
        k = min(m.shape)
        m = m[:k, :k]
        assert det_bareiss(m) == det_cofactor(m.tolist())


class TestSmith:
    def test_row_vector(self):
        assert smith_normal_form(int_matrix([[2, 2]])).invariant_factors == (2,)

    def test_walsh2(self):
        assert smith_normal_form(walsh(2)).invariant_factors == (1, 2)

    def test_identity(self):
        for n in (1, 2, 5):
            eye = int_matrix([[int(i == j) for j in range(n)] for i in range(n)])
            assert smith_normal_form(eye).invariant_factors == (1,) * n

    def test_speyer11(self):
        assert smith_normal_form(speyer_matrix_dense(11)).invariant_factors == (1, 1, 1, 11)

    def test_zero_matrix_convention(self):
        zero = int_matrix([[0, 0, 0], [0, 0, 0]])
        res = smith_normal_form(zero, transforms=True)
        assert res.invariant_factors == ()
        assert np.array_equal(res.s, int_matrix([[1, 0], [0, 1]]))
        assert np.array_equal(res.t, int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert np.array_equal(res.a, zero)
        assert res.s.dtype == res.t.dtype == object and res.a.dtype == np.int64
        assert smith_normal_form(zero).s is None

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_zero_size_matrix_has_rank_zero(self, shape, dtype):
        for transforms in (False, True):
            res = smith_normal_form(np.zeros(shape, dtype=dtype), transforms=transforms)
            assert res.rank == 0 and res.invariant_factors == () and res.a.shape == shape
            if transforms:
                assert res.s.shape == (shape[0],) * 2 and res.t.shape == (shape[1],) * 2

    def test_transforms_absent_by_default(self):
        res = smith_normal_form(walsh(2))
        assert res.s is None and res.t is None

    def test_non_integer_array_rejected(self):
        for bad in (np.ones((2, 2)), np.ones((2, 2), dtype=np.int32), np.ones(3, dtype=np.int64)):
            with pytest.raises(ValueError, match="expected a 2-D int64 or object matrix"):
                smith_normal_form(bad)

    def test_diagonal_past_int64_is_object(self):
        res = smith_normal_form(int_matrix([[2**64, 0], [0, 3]]))
        assert res.invariant_factors == (1, 3 * 2**64)
        assert res.a.dtype == object and res.a.tolist() == [[1, 0], [0, 3 * 2**64]]

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_sat_decomposition_exact(self, m):
        res = smith_normal_form(m, transforms=True)
        assert np.array_equal(res.s @ res.a @ res.t, m)
        assert det_bareiss(res.s) in (1, -1)
        assert det_bareiss(res.t) in (1, -1)
        diag = [res.a[i, i] for i in range(min(m.shape))]
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert nz == list(res.invariant_factors)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        # off-diagonal must vanish
        for i in range(len(m)):
            for j in range(m.shape[1]):
                if i != j:
                    assert res.a[i, j] == 0

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_dim=4, lo=-5, hi=5))
    def test_matches_minor_gcd_oracle(self, m):
        expected = snf_factors_by_minor_gcds(m.tolist())
        assert list(smith_normal_form(m).invariant_factors) == expected

    @settings(max_examples=50, deadline=None)
    @given(matrices(max_dim=5))
    def test_det_is_product_of_factors(self, m):
        if m.shape[0] != m.shape[1]:
            return
        d = det_bareiss(m)
        factors = smith_normal_form(m).invariant_factors
        if d != 0:
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(d)
        else:
            assert len(factors) < len(m)

    @settings(max_examples=50, deadline=None)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, m, rng):
        rows = m.tolist()
        rng.shuffle(rows)
        cols = list(range(m.shape[1]))
        rng.shuffle(cols)
        shuffled = int_matrix([[r[j] for j in cols] for r in rows])
        assert (
            smith_normal_form(shuffled).invariant_factors
            == smith_normal_form(m).invariant_factors
        )

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_fast_path_agrees_with_exact(self, m):
        assert list(smith_normal_form(m).invariant_factors) == snf_factors(m.tolist())

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(20240)
        mats = [walsh(8), speyer_matrix_dense(37)]
        for _ in range(15):
            r = rng.randint(2, 6)
            mats.append(
                int_matrix([[rng.randint(-7, 7) for _ in range(r)] for _ in range(r)])
            )
        for m in mats:
            if det_bareiss(m) == 0:
                continue
            diag = sympy_snf(sympy.Matrix(m.tolist()))
            expected = sorted(abs(int(diag[i, i])) for i in range(len(m)))
            assert sorted(smith_normal_form(m).invariant_factors) == expected


class TestAbelianGroup:
    def test_normalizes_chain(self):
        g = group_from_factors([1, 2, 2, 4])
        assert g.invariant_factors == (2, 2, 4)
        assert g.primary_decomposition == (2, 2, 4)
        assert g.torsion_order == 16
        assert str(g) == "Z_2 x Z_2 x Z_4"

    def test_free(self):
        g = group_from_factors([], free_rank=1)
        assert g == free_group(1)
        assert str(g) == "Z"
        assert g.order is None

    def test_crt_split(self):
        g = group_from_factors([6])
        assert g.invariant_factors == (6,)
        assert g.primary_decomposition == (2, 3)
        # a 32-bit prime factor next to a small prime power
        g = group_from_factors([9 * 4294967291])
        assert g.invariant_factors == (9 * 4294967291,)
        assert g.primary_decomposition == (9, 4294967291)

    def test_non_chain_input_reassembled(self):
        # Z_4 x Z_6 = Z_2 x Z_12
        g = group_from_factors([4, 6])
        assert g.invariant_factors == (2, 12)
        assert g.primary_decomposition == (2, 3, 4)

    def test_trivial(self):
        g = group_from_factors([1, 1])
        assert g.is_trivial
        assert str(g) == "0"
        assert g.order == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            group_from_factors([0])
        with pytest.raises(ValueError):
            group_from_factors([-3])
        with pytest.raises(ValueError):
            group_from_factors([2], free_rank=-1)

    def test_invariants_enforced_on_construction(self):
        assert AbelianGroup(0, (2, 4)).primary_decomposition == (2, 4)
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1, 2))
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())

    def test_merge_does_not_factor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exactmat, "_prime_factors", lambda n: calls.append(n) or [])
        # Z_4 x Z_6 x Z_9 x Z_10 = Z_2 x Z_6 x Z_180
        assert group_from_factors([4, 6, 9, 10]).invariant_factors == (2, 6, 180)
        assert group_from_factors([2, 2, 4, 4, 8]).invariant_factors == (2, 2, 4, 4, 8)
        assert calls == []

    def test_primary_decomposition_factors_largest_factor_once(self, monkeypatch):
        g = group_from_factors([4, 6, 9, 10])
        calls = []
        factor = exactmat._prime_factors
        monkeypatch.setattr(exactmat, "_prime_factors", lambda n: calls.append(n) or factor(n))
        assert g.primary_decomposition == (2, 2, 3, 4, 5, 9)
        assert g.primary_decomposition == (2, 2, 3, 4, 5, 9)
        assert calls == [180]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 600), max_size=6), st.integers(0, 3))
    def test_order_preserved_by_normalization(self, factors, rank):
        sympy = pytest.importorskip("sympy")
        g = group_from_factors(factors, rank)
        prod = 1
        for f in factors:
            prod *= f
        assert g.torsion_order == prod
        assert g.free_rank == rank
        for x, y in zip(g.invariant_factors, g.invariant_factors[1:]):
            assert y % x == 0
        primary = sorted(p**e for f in factors for p, e in sympy.factorint(f).items())
        assert g.primary_decomposition == tuple(primary)


def trial_division_primes(n):
    ps, p = [], 2
    while p * p <= n:
        if n % p == 0:
            ps.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return ps + [n] if n > 1 else ps


class TestPrimeFactors:
    def test_matches_trial_division(self):
        for n in range(1, 5000):
            assert _prime_factors(n) == trial_division_primes(n)

    @pytest.mark.parametrize(
        "n, primes",
        [
            (561, [3, 11, 17]),  # Carmichael numbers
            (41041, [7, 11, 13, 41]),
            (2047, [23, 89]),  # strong pseudoprimes to the first 1, 4 and 9 prime bases
            (3215031751, [151, 751, 28351]),
            (3825123056546413051, [149491, 747451, 34233211]),
            (1000003 * 4294967291, [1000003, 4294967291]),  # cofactor prime after one split
            (2**61 - 1, [2**61 - 1]),
            (9 * 4294967291, [3, 4294967291]),
            (5 * (2**31 - 1) * 2**89, [2, 5, 2**31 - 1]),
            (1000003**2 * 4294967291, [1000003, 4294967291]),  # split by rho, one prime squared
        ],
    )
    def test_known_factorizations(self, n, primes):
        assert _prime_factors(n) == primes

    def test_product_of_two_32_bit_primes(self):
        t0 = time.perf_counter()
        assert _prime_factors(4294967291 * 4294967279) == [4294967279, 4294967291]
        assert time.perf_counter() - t0 < 5.0

    def test_composite_above_certainty_bound_split_by_rho(self):
        n = (2**31 - 1) * (2**61 - 1)
        assert n > 3_317_044_064_679_887_385_961_981
        t0 = time.perf_counter()
        assert _prime_factors(n) == [2**31 - 1, 2**61 - 1]
        assert _prime_factors(5 * n * (2**61 - 1)) == [5, 2**31 - 1, 2**61 - 1]
        assert time.perf_counter() - t0 < 5.0

    def test_rho_budget_names_the_cofactor(self):
        # two 62-bit primes: rho would need about 2^30 steps
        n = (2**61 - 1) * (2**64 - 59)
        t0 = time.perf_counter()
        with pytest.raises(FactorizationBudgetError, match=f"cannot factor {n}:") as exc:
            _prime_factors(7 * n)
        assert exc.value.cofactor == n
        assert time.perf_counter() - t0 < 10.0

    def test_prime_powers_split_by_root(self):
        t0 = time.perf_counter()
        assert _prime_factors((2**61 - 1) ** 3) == [2**61 - 1]
        assert _prime_factors(7 * 4294967291**2 * (2**31 - 1)) == [7, 2**31 - 1, 4294967291]
        assert time.perf_counter() - t0 < 5.0

    def test_probable_prime_above_certainty_bound_refused(self):
        n = 2**127 - 1
        t0 = time.perf_counter()
        with pytest.raises(FactorizationBudgetError, match=f"cannot factor {n}: .*certified prime") as exc:
            _prime_factors(n)
        assert exc.value.cofactor == n
        assert time.perf_counter() - t0 < 1.0

    def test_above_certainty_bound_still_exact(self):
        # no Miller-Rabin answer is used above the bound; small factors still split
        n = 3**60 * 7**5
        assert n > 3_317_044_064_679_887_385_961_981
        assert _prime_factors(n) == [3, 7]
