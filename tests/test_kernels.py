import itertools
import math
import random

import numpy as np
import pytest

from torsionforge import _kernels
from torsionforge.exactmat import det_bareiss, int_matrix, smith_normal_form
from torsionforge.hadamard import walsh
from torsionforge.hmt_builder import build_hmt
from torsionforge.homology import simplicial_homology

from .oracles import snf_factors


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def near_bound_matrix(rng, max_dim=6, rows=None, cols=None):
    # square unless a shape is given, with entries within 2^20 of +-2^30:
    # the sweep starts on int64 and leaves the 2^31 - 1 bound within a pivot
    base = 2**30
    rows = rows or rng.randint(2, max_dim)
    cols = cols or rows
    return [[rng.choice((-1, 1)) * rng.randint(base - 2**20, base + 2**20) for _ in range(cols)]
            for _ in range(rows)]


def test_backends_agree_with_exact():
    rng = random.Random(7)
    promoted = 0
    cases = [random_matrix(rng) for _ in range(120)] + [near_bound_matrix(rng) for _ in range(60)]
    for rows in cases:
        arr = np.array(rows, dtype=np.int64)
        expected = snf_factors(rows)
        assert _kernels.smith_diagonal_int64(arr) == expected, rows
        # an int64 input with a factor past the bound left int64 mid-sweep
        promoted += max(expected, default=0) > _kernels.ENTRY_BOUND
    assert promoted >= 50


def test_overflow_promotes_in_place():
    b = _kernels.ENTRY_BOUND
    rows = [[1, b], [b, b]]
    diag = _kernels.smith_diagonal_int64(np.array(rows, dtype=np.int64))
    assert diag == snf_factors(rows)
    assert diag[0] * diag[1] == abs(b - b * b)


@pytest.fixture
def sweeps(monkeypatch):
    """The dtype of the input of every ``smith_diagonal_int64`` call."""
    seen = []
    sweep = _kernels.smith_diagonal_int64

    def spy(arr, *args):
        seen.append(arr.dtype)
        return sweep(arr, *args)

    monkeypatch.setattr(_kernels, "smith_diagonal_int64", spy)
    return seen


def test_huge_entries_run_sweep_in_object_dtype(sweeps):
    m = int_matrix([[2**40, 1], [3, 2**50]])
    res = smith_normal_form(m)
    assert sweeps == [np.dtype(object)]
    assert list(res.invariant_factors) == snf_factors(m.tolist())


def test_overflowing_input_never_restarts_in_big_int(sweeps):
    b = _kernels.ENTRY_BOUND
    res = smith_normal_form(int_matrix([[1, b], [b, b]]))
    assert res.invariant_factors == (1, b * b - b)
    assert sweeps == [np.dtype(np.int64)]


def test_kernel_leaves_input_untouched():
    arr = np.array([[2, 4], [6, 8]], dtype=np.int64)
    copy = arr.copy()
    _kernels.smith_diagonal_int64(arr)
    assert np.array_equal(arr, copy)


@pytest.fixture
def handoffs(monkeypatch):
    """Every value ``_kernels._modulus`` returns: (mu, det), or None for
    the fallback to Python ints."""
    seen = []
    modulus = _kernels._modulus

    def spy(x):
        seen.append(modulus(x))
        return seen[-1]

    monkeypatch.setattr(_kernels, "_modulus", spy)
    return seen


def sweep_agrees(rows):
    expected = snf_factors(rows)
    assert _kernels.smith_diagonal_int64(np.array(rows, dtype=np.int64)) == expected, rows
    return expected


def modulus_by_cramer(rows):
    # gcd(det B, adj(B) b) for the kernel's fixed b = (1, ..., n), with each
    # entry of adj(B) b a Cramer numerator: det B with column i replaced by b
    n = len(rows)
    b = range(1, n + 1)
    numerators = [det_bareiss(int_matrix([r[:i] + [x] + r[i + 1 :] for r, x in zip(rows, b)]))
                  for i in range(n)]
    return math.gcd(det_bareiss(int_matrix(rows)), *numerators)


def test_square_modulus_beyond_the_leading_factors(handoffs):
    # mu = |det B| / delta is a multiple of d_1 ... d_(n-1); it exceeds that
    # product whenever the denominator delta of B^-1 b misses part of d_n
    rng = random.Random(11)
    missed = 0
    for _ in range(30):
        rows = near_bound_matrix(rng, rows=rng.randint(3, 6))
        mu, det = _kernels._modulus(np.array(rows, dtype=np.int64))
        assert det == det_bareiss(int_matrix(rows))
        assert mu == modulus_by_cramer(rows)
        handoffs.clear()
        expected = sweep_agrees(rows)
        assert handoffs and handoffs[0] is not None
        missed += mu > math.prod(expected[:-1])
    assert missed >= 5


def test_common_factor_planted(handoffs):
    rng = random.Random(12)
    for n in (3, 5, 6):
        rows = [[x // 6 * 6 for x in r] for r in near_bound_matrix(rng, rows=n)]
        mu, _ = _kernels._modulus(np.array(rows, dtype=np.int64))
        assert mu % 6 ** (n - 1) == 0
        handoffs.clear()
        expected = sweep_agrees(rows)
        assert all(f % 6 == 0 for f in expected)
        assert handoffs[0] is not None


@pytest.mark.parametrize("shape", [(3, 5), (4, 7), (5, 3), (7, 4), (2, 6)])
def test_wide_and_tall_take_the_modulus_route(handoffs, shape):
    rng = random.Random(sum(shape))
    for _ in range(5):
        sweep_agrees(near_bound_matrix(rng, rows=shape[0], cols=shape[1]))
    assert handoffs and all(h is not None and h[1] is None for h in handoffs)


def test_transforms_never_take_a_modulus(handoffs):
    # the same input hands off without transforms; with them the sweep
    # stays on Python ints, so S and T are exact
    m = int_matrix(near_bound_matrix(random.Random(18), rows=5))
    plain = smith_normal_form(m)
    assert handoffs and handoffs[0] is not None
    handoffs.clear()
    res = smith_normal_form(m, transforms=True)
    assert handoffs == []
    assert np.array_equal(res.s @ res.a @ res.t, m)
    assert abs(det_bareiss(res.s)) == abs(det_bareiss(res.t)) == 1
    assert res.invariant_factors == plain.invariant_factors

def test_rank_deficient_input_falls_back_to_python_ints(handoffs):
    rng = random.Random(13)
    rows = near_bound_matrix(rng, rows=5)
    rows[4] = [(x + y) // 2 for x, y in zip(rows[0], rows[1])]
    rows[3] = [x + y - z for x, y, z in zip(rows[0], rows[1], rows[4])]  # rows 3 + 4 = rows 0 + 1
    expected = sweep_agrees(rows)
    assert handoffs == [None]
    assert len(expected) == 4


def plant_determinant_multiple(rows, p, at=(0, 0)):
    # det is linear in one entry, det = x * C + R: the entry in [0, p) with
    # x * C + R divisible by p, given that p does not divide C
    i, j = at
    rows[i][j] = 0
    rest = det_bareiss(int_matrix(rows))
    rows[i][j] = 1
    cofactor = det_bareiss(int_matrix(rows)) - rest
    rows[i][j] = -rest * pow(cofactor, -1, p) % p
    return det_bareiss(int_matrix(rows))


def hadamard_slack_matrix(rng, n=6):
    # rows 1 and 3 differ from rows 0 and 2 by entries in [-3, 3], so |det|
    # lies about 2^60 below the Hadamard bound of the near-2^30 columns
    rows = near_bound_matrix(rng, rows=n)
    for i in (1, 3):
        rows[i] = [x + rng.randint(-3, 3) for x in rows[i - 1]]
    return rows


@pytest.fixture
def cofactor_primes(monkeypatch):
    """(prime, invertible) for every prime ``_kernels._solve_mod`` takes."""
    seen = []
    solve_mod = _kernels._solve_mod

    def spy(a, batch):
        dets, ok = solve_mod(a, batch)
        seen.extend(zip(batch, ok.tolist()))
        return dets, ok

    monkeypatch.setattr(_kernels, "_solve_mod", spy)
    return seen


def test_prime_dividing_the_determinant_is_replaced(monkeypatch, cofactor_primes):
    # one determinant divisible by the lifting prime, one by the first
    # cofactor prime: each prime is skipped and the next one taken
    inverted = []
    inverse_mod = _kernels._inverse_mod

    def spy(a, p):
        found = inverse_mod(a, p)
        inverted.append((p, found is not None))
        return found

    monkeypatch.setattr(_kernels, "_inverse_mod", spy)

    rows = near_bound_matrix(random.Random(14), rows=5)
    lifting = _kernels._lifting_primes(np.array(rows, dtype=np.int64))
    first, second = next(lifting), next(lifting)
    det = plant_determinant_multiple(rows, first)
    arr = np.array(rows, dtype=np.int64)
    assert det % first == 0 and det % second
    assert next(_kernels._lifting_primes(arr)) == first
    assert _kernels._modulus(arr) == (modulus_by_cramer(rows), det)
    assert inverted == [(first, False), (second, True)]
    sweep_agrees(rows)

    primes = _kernels._primes()
    next(primes)  # the rank check's prime
    first = next(primes)
    rows = hadamard_slack_matrix(random.Random(19))
    det = plant_determinant_multiple(rows, first, at=(4, 0))
    assert det % first == 0
    inverted.clear()
    cofactor_primes.clear()
    assert _kernels._modulus(np.array(rows, dtype=np.int64)) == (modulus_by_cramer(rows), det)
    assert len(inverted) == 1 and inverted[0][1]
    assert cofactor_primes[0] == (first, False)
    assert len(cofactor_primes) > 1 and all(ok for _, ok in cofactor_primes[1:])
    sweep_agrees(rows)


def test_hadamard_slack_takes_cofactor_primes_beyond_the_lifting_prime(cofactor_primes):
    # c = det / delta is small, but only residues modulo a product above
    # 2 D / delta, D the Hadamard bound, prove it: here 2^62 or more, past
    # the lifting prime (below 2^26) times one ~31-bit prime
    rng = random.Random(20)
    for _ in range(5):
        rows = hadamard_slack_matrix(rng)
        cofactor_primes.clear()
        mu, det = _kernels._modulus(np.array(rows, dtype=np.int64))
        assert (mu, det) == (modulus_by_cramer(rows), det_bareiss(int_matrix(rows)))
        assert len(cofactor_primes) >= 2 and all(ok for _, ok in cofactor_primes)


def test_square_modulus_matches_cramer_and_bareiss():
    # entries up to 2^31 - 1 (some rows scaled by a common factor, so mu
    # grows and sometimes passes the bound); None exactly when mu does, or
    # when the rank check's prime 2^31 - 1 divides the determinant
    rng = random.Random(21)
    beyond = 0
    for _ in range(80):
        n = rng.randint(1, 12)
        bits = rng.choice((2, 10, 31))
        rows = [[rng.randint(-(2**bits - 1), 2**bits - 1) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            f = rng.choice((2, 6, 1024))
            rows = [[max(-_kernels.ENTRY_BOUND, min(_kernels.ENTRY_BOUND, f * x)) for x in r] for r in rows]
        det = det_bareiss(int_matrix(rows))
        if det == 0:
            continue
        mu = modulus_by_cramer(rows)
        found = _kernels._modulus(np.array(rows, dtype=np.int64))
        if mu > _kernels.ENTRY_BOUND or det % next(_kernels._primes()) == 0:
            beyond += 1
            assert found is None, rows
        else:
            assert found == (mu, det), rows
    assert beyond >= 3


@pytest.mark.parametrize("num_bound, den_bound, modulus", [(3, 40, 241), (6, 9, 109), (15, 7, 211)])
def test_rational_reconstruction_finds_the_unique_fraction(num_bound, den_bound, modulus):
    # a prime modulus just above 2 num_bound den_bound: every residue stands
    # for at most one fraction within the bounds, found when it exists
    for y in range(modulus):
        fractions = [(r, t) for t in range(1, den_bound + 1) for r in range(-num_bound, num_bound + 1)
                     if math.gcd(r, t) == 1 and (r - t * y) % modulus == 0]
        assert len(fractions) <= 1
        assert _kernels._rational(y, modulus, num_bound, den_bound) == (fractions[0] if fractions else None)


def test_denominator_is_the_least_common_one():
    # every pair of fractions v / det with |v| <= 15 and 0 < |det| <= 7,
    # from their residues modulo the prime 211 > 2 * 15 * 7
    modulus, num_bound, den_bound = 211, 15, 7
    for det in [d for d in range(-den_bound, den_bound + 1) if d]:
        inverse = pow(det, -1, modulus)
        for v in itertools.product(range(-num_bound, num_bound + 1), repeat=2):
            x = [u * inverse % modulus for u in v]
            expected = abs(det) // math.gcd(det, *v)
            assert _kernels._denominator(x, modulus, num_bound, den_bound) == expected, (v, det)


def test_lifting_prime_keeps_int64_sums_exact():
    # 200 positive entries near 2^31 in a row: a prime near 2^26 would let
    # the product a x of a lifting step pass 2^63, so the lifting prime
    # drops below it; the result agrees with independent residues
    rng = np.random.default_rng(22)
    n = 200
    a = rng.integers(2**30, 2**31 - 1, size=(n, n), dtype=np.int64)
    assert n * int(a.max()) * 2**26 > 2**63
    primes = _kernels._primes()
    next(primes)
    det, delta = _kernels._det_and_denominator(a, primes)
    check = list(itertools.islice(_kernels._primes(2**30), 3))
    residues, ok = _kernels._solve_mod(a, check)
    assert ok.all() and [det % q for q in check] == residues.tolist()
    assert det % delta == 0


def test_rational_reconstruction_at_its_bounds():
    num_bound, den_bound = 3**25, 2**40
    modulus = 2 * num_bound * den_bound + 1
    for r, t in ((num_bound, den_bound), (-num_bound, den_bound), (num_bound, 1), (-1, den_bound), (0, 1)):
        y = r * pow(t, -1, modulus) % modulus
        assert _kernels._rational(y, modulus, num_bound, den_bound) == (r, t)


def test_primes_taken_one_batch_at_a_time_give_the_same_modulus(monkeypatch):
    rng = random.Random(17)
    cases = [np.array(near_bound_matrix(rng, rows=n, cols=c), dtype=np.int64) for n, c in ((6, 6), (4, 7))]
    expected = [_kernels._modulus(x) for x in cases]
    monkeypatch.setattr(_kernels, "_STACK_ENTRIES", 1)
    assert [_kernels._modulus(x) for x in cases] == expected


def test_modulus_past_the_bound_falls_back_to_python_ints(handoffs, cofactor_primes):
    # c * U with U unimodular has d_1 = ... = d_n = c, so mu >= c^(n-1),
    # far above 2^31 - 1 for c near 2^16; the residue of mu modulo the
    # lifting prime and one ~31-bit prime already shows it
    rng = random.Random(15)
    n, c = 5, 2**16 - 15
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(200):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        row = [x + q * y for x, y in zip(u[i], u[j])]
        if max(map(abs, row)) < 2**15:
            u[i] = row
    rows = [[c * x for x in r] for r in u]
    assert max(abs(x) for r in rows for x in r) <= _kernels.ENTRY_BOUND
    assert sweep_agrees(rows) == [c] * n
    assert handoffs == [None]
    assert 1 <= len(cofactor_primes) <= 2



def test_late_overflow_takes_the_modulus_of_the_trailing_block(monkeypatch):
    # 30 small pivots come first and the sweep overflows in the last block,
    # whose Hadamard bound is far cheaper than that of the whole input
    shapes = []
    modulus = _kernels._modulus

    def spy(x):
        shapes.append(x.shape)
        return modulus(x)

    monkeypatch.setattr(_kernels, "_modulus", spy)
    rng = random.Random(16)
    for lead, cols in (([1] * 28 + [2, 6], 4), ([1] * 30, 4), ([1] * 29 + [3], 6)):
        block = [[x // 6 * 6 for x in r] for r in near_bound_matrix(rng, rows=4, cols=cols)]
        width = len(lead) + cols
        rows = [[d * (i == j) for j in range(width)] for i, d in enumerate(lead)]
        rows += [[0] * len(lead) + r for r in block]
        sweep_agrees(rows)
    assert shapes == [(4, 4), (4, 4), (4, 6)]


def test_inputs_that_stay_small_never_compute_a_modulus(monkeypatch):
    def fail(x):
        raise AssertionError("modulus computed")

    monkeypatch.setattr(_kernels, "_modulus", fail)
    for n in (32, 64):
        h1 = simplicial_homology(build_hmt(n)).h1
        assert h1.torsion_order == n ** (n // 2)
    assert math.prod(smith_normal_form(walsh(64)).invariant_factors) == 64**32
    res = smith_normal_form(int_matrix([[2**40, 1], [3, 2**50]]))
    assert res.invariant_factors == (1, 2**90 - 3)
