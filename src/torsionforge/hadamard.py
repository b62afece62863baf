"""Walsh-Hadamard matrices by Sylvester doubling, the digon-augmented
matrix, and their Smith normal form: a checked Kronecker certificate and,
apart from it, the closed form.  Each matrix is an int64 numpy array;
``walsh`` is the package's one doubling, and the valid sequence that goes
with it is read off a closed form instead.

The certificate rests on H(2^k) = H(2)^(xk).  With L = [[1, 0], [-1, 1]]
and R = [[1, -1], [0, 1]], L H(2) R = diag(1, -2), so by the mixed-product
rule S = L^(xk) and T = R^(xk), both unit triangular, give
S H(n) T = diag((-2)^popcount(i)).  :func:`walsh_smith_factors` applies S
and T to ``walsh(n)`` by butterflies and checks that diagonal entry by
entry, after recognising its input as ``walsh(n)`` up to signed row and
column permutations by array equality; these are unimodular steps, so the
sorted diagonal is the input's Smith form.
:func:`torsionforge.exactmat.smith_normal_form` takes its factors from
there.  :func:`hadamard_snf_closed_form` states the same factors by the
binomial count alone, with no matrix, so a comparison of the two (as in
``certify``) is not circular.

Only the Sylvester/Walsh family (orders 2^k) is generated; other Hadamard
orders are out of scope.
"""

from __future__ import annotations

import math

import numpy as np


def _require_power_of_two(n: int) -> int:
    """log2(n); a non-int is named by its type, as numpy 1.x prints np.int64(4) as 4."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"order must be a power of two of type int, got {n!r} of type {type(n).__name__}")
    if n < 1 or n & (n - 1):
        raise ValueError(f"order must be a power of two, got {n}")
    return n.bit_length() - 1


def walsh(n: int) -> np.ndarray:
    """The order-n Walsh matrix by Sylvester doubling from (1), in place: the
    leading block H(m) is copied right and down and negated diagonally."""
    k = _require_power_of_two(n)
    h = np.ones((n, n), dtype=np.int64)
    for m in (2**i for i in range(k)):
        h[:m, m : 2 * m] = h[m : 2 * m, :m] = h[:m, :m]
        h[m : 2 * m, m : 2 * m] = -h[:m, :m]
    return h


def hadamard_snf_closed_form(n: int) -> tuple[int, ...]:
    """Invariant factors of the order-n Walsh matrix without any elimination.

    For n = 2^k the diagonal is 2^j repeated C(k, j) times, j = 0..k,
    which is divisibility-ordered by construction.
    """
    k = _require_power_of_two(n)
    out: list[int] = []
    for j in range(k + 1):
        out.extend([2**j] * math.comb(k, j))
    return tuple(out)


def _kronecker_diagonal(h: np.ndarray) -> tuple[int, ...] | None:
    """S h T with S = L^(xk) and T = R^(xk) (see the module docstring), in
    place on the order-n int64 array h: for each bit m, the rows and then
    the columns with bit m set lose their partner with bit m clear.  The
    sorted |d_i| if the result is diagonal with |d_i| = 2^popcount(i),
    which it is for walsh(n); otherwise None."""
    n = len(h)
    m = 1
    while m < n:
        rows = h.reshape(-1, 2, m, n)
        rows[:, 1] -= rows[:, 0]
        cols = h.reshape(n, -1, 2, m)
        cols[:, :, 1] -= cols[:, :, 0]
        m *= 2
    powers = np.ones(1, dtype=np.int64)  # 2^popcount(i): each bit doubles the upper half
    while len(powers) < n:
        powers = np.concatenate((powers, 2 * powers))
    d = np.abs(np.diagonal(h))
    if np.count_nonzero(h) != n or not np.array_equal(d, powers):
        return None
    return tuple(np.sort(d).tolist())


def walsh_smith_factors(m: np.ndarray) -> tuple[int, ...] | None:
    """Invariant factors of ``m`` if it is walsh(n) up to signed row and
    column permutations, from the checked Kronecker certificate; None when
    it is not, or does not qualify (int64, square, order n = 2^k >= 2,
    every entry +-1).

    Signing the rows by the first column and the columns by the first row
    turns such an m into a row and column permutation of walsh(n): with
    entries (-1)^(a_r . b_c) over GF(2)^k, the signs leave
    (-1)^((a_r + a_0) . (b_c + b_0)).  Rows are taken greedily into an
    XOR basis, each one a row that is not constant on the columns that
    the rows before it cannot tell apart; their bits label the columns,
    and the columns labelled 2^t label the rows.  Then the entry at row
    label i and column label j has the sign of i . j, the Walsh entry.
    Placed in label order, m must equal walsh(n) exactly, and it is that
    equality, with the checked diagonal, that proves the factors.
    """
    if m.dtype != np.int64 or m.ndim != 2 or m.shape[0] != m.shape[1]:
        return None
    n = len(m)
    if n < 2 or n & (n - 1) or not (np.abs(m) == 1).all():
        return None
    signed = m * m[:, :1]
    signed *= signed[:1]
    bits = signed < 0
    k = n.bit_length() - 1
    col = np.zeros(n, dtype=np.int64)
    for t in range(k):
        some = np.zeros(1 << t, dtype=np.int64)  # some column of each label
        some[col] = np.arange(n)
        splits = (bits != bits[:, some[col]]).any(axis=1)
        r = int(np.argmax(splits))
        if not splits[r]:
            return None
        col |= bits[r].astype(np.int64) << t
    col_at = _inverse(col)
    if col_at is None:
        return None
    weights = np.int64(1) << np.arange(k, dtype=np.int64)
    row_at = _inverse(bits[:, col_at[weights]] @ weights)
    if row_at is None:
        return None
    h = signed[row_at][:, col_at]
    if not np.array_equal(h, walsh(n)):
        return None
    return _kronecker_diagonal(h)


def _inverse(labels: np.ndarray) -> np.ndarray | None:
    """The inverse of a permutation of range(len(labels)), or None if
    ``labels`` (each in that range) is not one."""
    at = np.full(len(labels), -1, dtype=np.int64)
    at[labels] = np.arange(len(labels))
    return None if (at < 0).any() else at


def augment(h: np.ndarray) -> np.ndarray:
    """Split each column into positive/negative parts and append digon rows.

    Column j of the n x n input becomes columns 2j-1 (its positive entries)
    and 2j (absolute values of its negative entries); row n+j marks the
    digon joining the two copies with 1s in those columns.
    """
    n, cols = h.shape
    if n != cols:
        raise ValueError(f"augmentation needs a square matrix, got {n}x{cols}")
    if not (np.abs(h) == 1).all():
        raise ValueError("augmentation needs +-1 entries")
    parts = np.stack([h > 0, h < 0], axis=2).reshape(n, 2 * n)
    return np.vstack([parts, np.repeat(np.eye(n, dtype=np.int64), 2, axis=1)])
