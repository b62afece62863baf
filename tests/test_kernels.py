import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from torsionforge import _kernels
from torsionforge.exactmat import int_matrix, smith_normal_form
from torsionforge.hadamard import hadamard_snf_closed_form, walsh
from torsionforge.hmt_builder import build_hmt
from torsionforge.homology import simplicial_homology

from .oracles import det_bareiss, det_mod, low_growth_pivot, snf_factors


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


@pytest.fixture
def events(monkeypatch):
    """The sweep's steps in order: ("search", dtype, low_growth) for each
    pivot search, ("clear", k) for each pivot clearing and ("handoff", ok)
    for each modulus hand-off."""
    seen = []
    smallest_nonzero, clear, modulus = _kernels._smallest_nonzero, _kernels._clear_pivot, _kernels._modulus

    def search(sub, low_growth=False):
        seen.append(("search", sub.dtype.name, low_growth))
        return smallest_nonzero(sub, low_growth)

    def clear_pivot(a, k, *args):
        seen.append(("clear", k))
        return clear(a, k, *args)

    def handoff(x):
        found = modulus(x)
        seen.append(("handoff", found is not None))
        return found

    monkeypatch.setattr(_kernels, "_smallest_nonzero", search)
    monkeypatch.setattr(_kernels, "_clear_pivot", clear_pivot)
    monkeypatch.setattr(_kernels, "_modulus", handoff)
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

def test_rank_deficient_input_falls_back_to_python_ints(handoffs, events):
    # no modulus exists, so the sweep goes on where it stands: no pivot is
    # cleared again, and every later search runs on Python ints
    rng = random.Random(13)
    rows = near_bound_matrix(rng, rows=5)
    rows[4] = [(x + y) // 2 for x, y in zip(rows[0], rows[1])]
    rows[3] = [x + y - z for x, y, z in zip(rows[0], rows[1], rows[4])]  # rows 3 + 4 = rows 0 + 1
    expected = sweep_agrees(rows)
    assert handoffs == [None]
    assert len(expected) == 4
    ks = [e[1] for e in events if e[0] == "clear"]
    assert ks == sorted(ks)
    after = events[events.index(("handoff", False)) + 1 :]
    assert {e[1] for e in after if e[0] == "search"} == {"object"}


def test_low_growth_pivot_breaks_ties_by_row_then_column_maxima():
    sub = np.array([[2, 9, 0], [0, 2, 4], [2, 2, 0]], dtype=np.int64)
    assert _kernels._smallest_nonzero(sub) == (0, 0)
    # rows holding a 2 have largest entries 9, 4 and 2: row 2, whose 2s sit
    # in columns with largest entries 2 and 9
    assert _kernels._smallest_nonzero(sub, True) == (2, 0)
    assert _kernels._smallest_nonzero(np.zeros((2, 3), dtype=np.int64), True) is None
    # the 2s share row 0, whose columns have largest entries 9 and 4
    one_row = np.array([[5, 2, 7, -2], [3, 9, 0, 4]], dtype=np.int64)
    assert _kernels._smallest_nonzero(one_row, True) == (0, 3)
    # the 2s share column 1; of their rows, row 1 has the least largest entry
    one_col = np.array([[9, 2, 3], [0, -2, 4], [5, 6, 7]], dtype=np.int64)
    assert _kernels._smallest_nonzero(one_col, True) == (1, 1)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda rc: st.lists(st.integers(-3, 3), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1])
    .map(lambda xs: np.array(xs, dtype=np.int64).reshape(rc))))
def test_low_growth_search_matches_the_reference(sub):
    assert _kernels._smallest_nonzero(sub, True) == low_growth_pivot(sub)


def test_scaled_walsh_never_hands_off_and_stays_on_int64(events):
    # every invariant factor of 2^20 walsh(256) is a multiple of 2^20, so no
    # modulus would fit the bound; low-growth pivots keep the entries below
    # it, so the one sweep never asks for one
    c = 2**20
    assert _kernels.smith_diagonal_int64(c * walsh(256)) == [c * d for d in hadamard_snf_closed_form(256)]
    assert not [e for e in events if e[0] == "handoff"]
    assert {e[1:] for e in events if e[0] == "search"} == {("int64", True)}


def test_searches_after_a_handoff_take_the_plain_first_minimum(events):
    rows = near_bound_matrix(random.Random(18), rows=5)
    sweep_agrees(rows)
    at = events.index(("handoff", True))
    before = {e[2] for e in events[:at] if e[0] == "search"}
    after = {e[2] for e in events[at:] if e[0] == "search"}
    assert before == {True} and after == {False}


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
def inversions(monkeypatch):
    """(prime, invertible) for every call of ``_kernels._inverse_mod``.  In
    a hand-off each maximal minor's first call eliminates the whole block
    modulo the lifting prime, and every later one is a cofactor prime's on
    that minor alone."""
    seen = []
    inverse_mod = _kernels._inverse_mod

    def spy(a, p):
        found = inverse_mod(a, p)
        seen.append((p, found is not None))
        return found

    monkeypatch.setattr(_kernels, "_inverse_mod", spy)
    return seen


def test_lifting_prime_dividing_the_determinant_falls_back_after_one_elimination(inversions):
    # the lifting prime's elimination is the rank check: a square block
    # singular modulo it takes no other prime and stays on Python ints
    rows = near_bound_matrix(random.Random(14), rows=5)
    first = next(_kernels._lifting_primes(np.array(rows, dtype=np.int64)))
    det = plant_determinant_multiple(rows, first)
    arr = np.array(rows, dtype=np.int64)
    assert det and det % first == 0
    assert next(_kernels._lifting_primes(arr)) == first
    assert _kernels._modulus(arr) is None
    assert inversions == [(first, False)]
    sweep_agrees(rows)


def test_prime_dividing_the_determinant_is_replaced(inversions):
    # a determinant divisible by the first cofactor prime: that prime is
    # skipped and the next one taken
    rows = hadamard_slack_matrix(random.Random(19))
    lifting = _kernels._lifting_primes(np.array(rows, dtype=np.int64))
    lifting_prime, first = next(lifting), next(lifting)
    det = plant_determinant_multiple(rows, first, at=(4, 0))
    arr = np.array(rows, dtype=np.int64)
    assert det % first == 0 and det % lifting_prime
    assert list(itertools.islice(_kernels._lifting_primes(arr), 2)) == [lifting_prime, first]
    inversions.clear()
    assert _kernels._modulus(arr) == (modulus_by_cramer(rows), det)
    assert inversions[0] == (lifting_prime, True)
    cofactor_primes = inversions[1:]
    assert cofactor_primes[0] == (first, False)
    assert len(cofactor_primes) > 1 and all(ok for _, ok in cofactor_primes[1:])
    sweep_agrees(rows)


def test_hadamard_slack_takes_cofactor_primes_beyond_the_lifting_prime(inversions):
    # c = det / delta is small, but only residues modulo a product above
    # 2 D / delta, D the Hadamard bound, prove it: here 2^62 or more, past
    # the product of two primes below 2^26
    rng = random.Random(20)
    for _ in range(5):
        rows = hadamard_slack_matrix(rng)
        inversions.clear()
        mu, det = _kernels._modulus(np.array(rows, dtype=np.int64))
        assert (mu, det) == (modulus_by_cramer(rows), det_bareiss(int_matrix(rows)))
        cofactor_primes = inversions[1:]
        assert len(cofactor_primes) >= 2 and all(ok for _, ok in cofactor_primes)


def test_square_handoff_takes_one_elimination_per_prime(monkeypatch, inversions):
    # the lifting prime's elimination is the rank check, and each further
    # prime costs one elimination until the primes' product, times delta,
    # passes twice the Hadamard bound D on |det|; a wide block's lifting
    # elimination picks the pivot columns of each minor, and the cofactor
    # primes eliminate only that minor
    blocks = []
    inverse_mod = _kernels._inverse_mod

    def spy(a, p):
        blocks.append((p, a.copy()))
        return inverse_mod(a, p)

    monkeypatch.setattr(_kernels, "_inverse_mod", spy)
    rng = random.Random(24)
    cases = [hadamard_slack_matrix(rng) for _ in range(3)]
    cases += [near_bound_matrix(rng, rows=n) for n in (2, 4, 6)]
    for rows in cases:
        arr = np.array(rows, dtype=np.int64)
        inversions.clear()
        blocks.clear()
        mu, det = _kernels._modulus(arr)
        assert (mu, det) == (modulus_by_cramer(rows), det_bareiss(int_matrix(rows)))
        primes = [p for p, _ in inversions]
        assert primes == list(itertools.islice(_kernels._lifting_primes(arr), len(primes)))
        assert all(ok for _, ok in inversions)
        delta = abs(det) // mu
        d_bound = math.isqrt(math.prod(sum(x * x for x in col) for col in zip(*rows))) + 1
        assert math.prod(primes[:-1]) * delta <= 2 * d_bound < math.prod(primes) * delta
        assert all(a.shape == arr.shape for _, a in blocks)
    arr = np.array(near_bound_matrix(rng, rows=4, cols=7), dtype=np.int64)
    blocks.clear()
    assert _kernels._modulus(arr) is not None
    lifting_prime = next(_kernels._lifting_primes(arr))
    whole = [(p, a) for p, a in blocks if a.shape == (4, 7)]
    assert [p for p, _ in whole] == [lifting_prime] * 2
    assert np.array_equal(whole[0][1], arr) and np.array_equal(whole[1][1], arr[:, ::-1])
    assert np.array_equal(blocks[0][1], arr)
    columns = {tuple(c) for c in arr.T}
    minors = [a for _, a in blocks if a.shape != (4, 7)]
    assert len(minors) == len(blocks) - 2
    assert all(a.shape == (4, 4) and {tuple(c) for c in a.T} <= columns for a in minors)


def rref_pivots(rows, p):
    """The pivot columns of the reduced row echelon form of ``rows``
    modulo the prime ``p``, from sympy."""
    field = GF(p)
    dm = DomainMatrix([[field(x) for x in r] for r in rows], (len(rows), len(rows[0])), field)
    return list(dm.rref()[1])


@st.composite
def elimination_blocks(draw):
    # m x n blocks (m <= n <= m + 6) modulo 5, 7 or 13, where columns
    # without a pivot are common, some zero or repeating an earlier column;
    # or entries near 2^31 modulo their first lifting prime
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, m + 6))
    near = draw(st.booleans())
    entries = st.integers(2**31 - 2**20, 2**31 - 1) if near else st.integers(-20, 20)
    cols = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    for j in range(n):
        op = draw(st.sampled_from(("keep", "keep", "zero", "repeat")))
        if op == "zero":
            cols[j] = [0] * m
        elif op == "repeat" and j:
            cols[j] = list(cols[draw(st.integers(0, j - 1))])
    a = np.array(cols, dtype=np.int64).T.copy()
    p = next(_kernels._lifting_primes(a)) if near else draw(st.sampled_from((5, 7, 13)))
    return a, p


@settings(max_examples=300, deadline=None)
@given(elimination_blocks())
def test_inverse_mod_picks_the_greedy_pivot_columns(block):
    a, p = block
    m = a.shape[0]
    rows = a.tolist()
    pivots = rref_pivots(rows, p)
    found = _kernels._inverse_mod(a, p)
    assert (found is None) == (len(pivots) < m)
    if found is None:
        return
    inv, perm, det, cols = found
    assert cols == pivots[:m]
    minor = a[:, cols]
    assert np.array_equal(inv @ minor[perm] % p, np.eye(m, dtype=np.int64))
    assert det == det_mod(minor.tolist(), p)


@pytest.mark.parametrize("shape", [(3, 5), (4, 7), (2, 6), (5, 8), (5, 3), (7, 4), (6, 2)])
def test_wide_modulus_is_the_gcd_of_the_two_greedy_minors(shape):
    # the pivot columns from the left and from the right modulo the first
    # lifting prime, from sympy; a tall block is taken through its transpose
    rng = random.Random(100 + sum(shape))
    for _ in range(8):
        rows = near_bound_matrix(rng, rows=shape[0], cols=shape[1])
        if rng.random() < 0.5:
            for r in rows:
                r[0] = r[1]  # a repeated leading column
        arr = np.array(rows, dtype=np.int64)
        a = arr if shape[0] <= shape[1] else arr.T
        m, n = a.shape
        p = next(_kernels._lifting_primes(a))
        left = rref_pivots(a.tolist(), p)
        right = [n - 1 - j for j in rref_pivots(a[:, ::-1].tolist(), p)]
        if len(left) < m:
            assert _kernels._modulus(arr) is None
            continue
        mu = math.gcd(det_bareiss(int_matrix(a[:, left].tolist())),
                      det_bareiss(int_matrix(a[:, right].tolist())))
        assert _kernels._modulus(arr) == ((mu, None) if mu <= _kernels.ENTRY_BOUND else None)


def test_rank_deficient_square_block_falls_back_before_any_bound(handoffs):
    # a zero column makes every square hand-off block singular modulo every
    # prime, and its zero column norm leaves no Hadamard bound on the Cramer
    # numerators
    rows = near_bound_matrix(random.Random(25), rows=6)
    for r in rows:
        r[2] = 0
    assert _kernels._modulus(np.array(rows, dtype=np.int64)) is None
    handoffs.clear()
    assert list(smith_normal_form(int_matrix(rows)).invariant_factors) == snf_factors(rows)
    assert handoffs == [None]


def test_square_modulus_matches_cramer_and_bareiss():
    # entries up to 2^31 - 1 (some rows scaled by a common factor, so mu
    # grows and sometimes passes the bound); None exactly when mu does, or
    # when the first lifting prime, whose elimination is the rank check,
    # divides the determinant
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
        arr = np.array(rows, dtype=np.int64)
        found = _kernels._modulus(arr)
        if mu > _kernels.ENTRY_BOUND or det % next(_kernels._lifting_primes(arr)) == 0:
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
    det, delta = _kernels._det_and_denominator(a)
    rows = a.tolist()
    for q in (2**31 - 1, 2**30 - 35, 2**29 - 3):
        assert det % q == det_mod(rows, q)
    assert det % delta == 0


def test_rational_reconstruction_at_its_bounds():
    num_bound, den_bound = 3**25, 2**40
    modulus = 2 * num_bound * den_bound + 1
    for r, t in ((num_bound, den_bound), (-num_bound, den_bound), (num_bound, 1), (-1, den_bound), (0, 1)):
        y = r * pow(t, -1, modulus) % modulus
        assert _kernels._rational(y, modulus, num_bound, den_bound) == (r, t)


def test_modulus_past_the_bound_falls_back_to_python_ints(handoffs, inversions):
    # c * U with U unimodular has d_1 = ... = d_n = c, so mu >= c^(n-1),
    # far above 2^31 - 1 for c near 2^16; the residue of mu modulo the
    # lifting prime and one more prime already shows it
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
    assert 1 <= len(inversions[1:]) <= 2



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
    # the sweep itself: smith_normal_form takes walsh(64) by the Walsh route
    assert math.prod(_kernels.smith_diagonal_int64(walsh(64))) == 64**32
    res = smith_normal_form(int_matrix([[2**40, 1], [3, 2**50]]))
    assert res.invariant_factors == (1, 2**90 - 3)


def small_rows(max_dim=8):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda rc: st.lists(st.lists(st.integers(-9, 9), min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0])
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 4, 6, 12)), small_rows())
def test_content_scaled_matrices_agree_with_the_oracle(g, m):
    # every invariant factor of g * M is a multiple of g, so pivots of one
    # magnitude come back many times
    rows = [[g * x for x in r] for r in m]
    expected = snf_factors(rows)
    assert _kernels.smith_diagonal_int64(np.array(rows, dtype=np.int64)) == expected
    a = int_matrix(rows)
    res = smith_normal_form(a, transforms=True)
    assert list(res.invariant_factors) == expected
    assert np.array_equal(res.s @ res.a @ res.t, a)


def test_repeated_pivot_is_checked_unless_it_divides_mu(monkeypatch):
    # residues modulo 7 of a multiple of the last pivot 2 need not be even;
    # 2 does not divide 7, so the check runs, adds row 1 to row 0 and the
    # pivot becomes gcd(2, 3) = 1
    a = np.array([[2, 0], [0, 3]], dtype=np.int64)
    assert _kernels._clear_pivot(a, 0, 7, None, None, 2) == 1
    # residues modulo 8 of an even block stay even, so no check runs
    checked = []
    first_row_not_divisible = _kernels._first_row_not_divisible

    def spy(a, k, p):
        checked.append(p)
        return first_row_not_divisible(a, k, p)

    monkeypatch.setattr(_kernels, "_first_row_not_divisible", spy)
    a = np.array([[2, 0], [0, 4]], dtype=np.int64)
    assert _kernels._clear_pivot(a, 0, 8, None, None, 2) == 2
    assert checked == []


def test_divisibility_check_after_the_hand_off(monkeypatch):
    # with a small entry bound small matrices hand off, and each case below
    # reaches a repeated pivot that does not divide mu; skipping checks
    # leaves every pivot as it is when all are checked
    clear = _kernels._clear_pivot
    seen = []

    def sweep(rows, check_all):
        # the pivots of one sweep as (k, mu, p); seen keeps (k, mu, last, p)
        def spy(a, k, mu, s, t, last):
            p = clear(a, k, mu, s, t, 0 if check_all else last)
            seen.append((k, mu, last, p))
            return p

        seen.clear()
        monkeypatch.setattr(_kernels, "_clear_pivot", spy)
        assert _kernels.smith_diagonal_int64(np.array(rows, dtype=np.int64)) == snf_factors(rows), rows
        return [(k, mu, p) for k, mu, _, p in seen]

    cases = [(63, [[-28, -4, -17, -17], [2, 30, 28, -11]]),
             (31, [[-3, -3, -9, 6], [3, 3, 3, 15], [15, -15, 3, -15], [15, 6, 6, 15]]),
             (31, [[9, 6, 3, -9], [-9, -9, -21, -24], [-12, -15, -3, -27], [-12, -27, 12, -9]])]
    for bound, rows in cases:
        monkeypatch.setattr(_kernels, "ENTRY_BOUND", bound)
        checked = sweep(rows, check_all=True)
        assert sweep(rows, check_all=False) == checked, rows
        assert any(mu and p is not None and abs(p) == last and mu % p for _, mu, last, p in seen), rows


def test_divisibility_checked_once_per_pivot_magnitude(monkeypatch):
    # walsh(64) has 64 pivots of 7 magnitudes; the first pivot of each
    # magnitude above 1 is checked, and every later one divides the block
    checked = []
    first_row_not_divisible = _kernels._first_row_not_divisible

    def spy(a, k, p):
        checked.append(abs(p))
        return first_row_not_divisible(a, k, p)

    monkeypatch.setattr(_kernels, "_first_row_not_divisible", spy)
    diag = _kernels.smith_diagonal_int64(walsh(64))
    assert diag == [2**j for j in range(7) for _ in range(math.comb(6, j))]
    assert len(checked) == len(set(checked)) and set(checked) <= set(diag)
    assert len(checked) == len(set(diag)) - 1


@pytest.mark.parametrize("n", [4, 32, 256, 1024])
def test_walsh_schur_core_takes_the_sweep_without_a_modulus(n, monkeypatch):
    # walsh(n)[1:, 1:] - 1, the core that one unit pivot leaves of walsh(n),
    # is what the HMT residues used to hand the sweep; the Walsh route does
    # not recognise it, so it keeps the sweep's largest structured input.
    # Smallest-first pivots would leave the bound at n = 1024
    def fail(x):
        raise AssertionError("modulus computed")

    monkeypatch.setattr(_kernels, "_modulus", fail)
    core = walsh(n)[1:, 1:] - 1
    expected = list(hadamard_snf_closed_form(n)[1:])
    assert _kernels.smith_diagonal_int64(core.copy()) == expected
    if n < 1024:  # the same sweep again, about a second and a half
        assert list(smith_normal_form(core).invariant_factors) == expected
