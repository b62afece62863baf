import random

import numpy as np

from torsionforge import _kernels, exactmat
from torsionforge.exactmat import IntMatrix, _smith_exact, smith_normal_form


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def near_bound_matrix(rng, max_dim=6):
    # square, with entries within 2^20 of +-2^30: the sweep starts on int64
    # and a determinant near 2^(30 + 20 (n - 1)) leaves the 2^31 - 1 bound
    base = 2**30
    n = rng.randint(2, max_dim)
    return [[rng.choice((-1, 1)) * rng.randint(base - 2**20, base + 2**20) for _ in range(n)]
            for _ in range(n)]


def test_backends_agree_with_exact():
    rng = random.Random(7)
    promoted = 0
    cases = [random_matrix(rng) for _ in range(120)] + [near_bound_matrix(rng) for _ in range(60)]
    for rows in cases:
        arr = np.array(rows, dtype=np.int64)
        expected = list(_smith_exact(IntMatrix.from_rows(rows)).invariant_factors)
        assert _kernels.smith_diagonal_int64(arr) == expected, rows
        # an int64 input with a factor past the bound was promoted mid-sweep
        promoted += max(expected, default=0) > _kernels.ENTRY_BOUND
    assert promoted >= 50


def test_overflow_promotes_in_place():
    b = _kernels.ENTRY_BOUND
    rows = [[1, b], [b, b]]
    diag = _kernels.smith_diagonal_int64(np.array(rows, dtype=np.int64))
    assert diag == list(_smith_exact(IntMatrix.from_rows(rows)).invariant_factors)
    assert diag[0] * diag[1] == abs(b - b * b)


def test_huge_entries_run_sweep_in_object_dtype(monkeypatch):
    m = IntMatrix.from_rows([[2**40, 1], [3, 2**50]])
    dtypes = []
    sweep = _kernels.smith_diagonal_int64

    def spy(arr):
        dtypes.append(arr.dtype)
        return sweep(arr)

    monkeypatch.setattr(_kernels, "smith_diagonal_int64", spy)
    res = smith_normal_form(m)
    assert dtypes == [np.dtype(object)]
    assert res.invariant_factors == _smith_exact(m).invariant_factors


def test_overflowing_input_never_restarts_in_big_int(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("_smith_exact called without transforms")

    monkeypatch.setattr(exactmat, "_smith_exact", fail)
    b = _kernels.ENTRY_BOUND
    res = smith_normal_form(IntMatrix.from_rows([[1, b], [b, b]]))
    assert res.invariant_factors == (1, b * b - b)


def test_kernel_leaves_input_untouched():
    arr = np.array([[2, 4], [6, 8]], dtype=np.int64)
    copy = arr.copy()
    _kernels.smith_diagonal_int64(arr)
    assert np.array_equal(arr, copy)
