import random

import numpy as np

from torsionforge import _kernels
from torsionforge.exactmat import IntMatrix, _smith_exact, smith_normal_form


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def test_backends_agree_with_exact():
    rng = random.Random(7)
    for _ in range(120):
        rows = random_matrix(rng)
        arr = np.array(rows, dtype=np.int64)
        expected = list(_smith_exact(IntMatrix.from_rows(rows), transforms=False).invariant_factors)
        assert _kernels.smith_diagonal_int64(arr) == expected, rows


def test_overflow_bails_out():
    b = _kernels.ENTRY_BOUND
    rows = [[1, b], [b, b]]
    arr = np.array(rows, dtype=np.int64)
    assert _kernels.smith_diagonal_int64(arr) is None
    # the public entry point falls back to big-int arithmetic instead
    m = IntMatrix.from_rows(rows)
    res = smith_normal_form(m)
    assert res.invariant_factors == _smith_exact(m, transforms=False).invariant_factors
    prod = res.invariant_factors[0] * res.invariant_factors[1]
    assert prod == abs(b - b * b)


def test_huge_entries_skip_kernel_entirely():
    m = IntMatrix.from_rows([[2**40, 1], [3, 2**50]])
    res = smith_normal_form(m)
    assert res.invariant_factors == _smith_exact(m, transforms=False).invariant_factors


def test_kernel_leaves_input_untouched():
    arr = np.array([[2, 4], [6, 8]], dtype=np.int64)
    copy = arr.copy()
    _kernels.smith_diagonal_int64(arr)
    assert np.array_equal(arr, copy)

