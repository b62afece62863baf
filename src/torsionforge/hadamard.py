"""Walsh-Hadamard matrices, Sylvester doubling, the digon-augmented matrix,
and the closed form of their Smith normal form.

Only the Sylvester/Walsh family (orders 2^k) is generated; other Hadamard
orders are out of scope.
"""

from __future__ import annotations

import math

import numpy as np

from .exactmat import IntMatrix


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _require_power_of_two(n: int) -> int:
    if not isinstance(n, int) or not is_power_of_two(n):
        raise ValueError(f"order must be a power of two, got {n}")
    return n.bit_length() - 1


def walsh(n: int) -> IntMatrix:
    """The order-n Walsh matrix, built by repeated Sylvester doubling from (1)."""
    _require_power_of_two(n)
    rows = [[1]]
    while len(rows) < n:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return IntMatrix.from_rows(rows)


def is_hadamard(m: IntMatrix) -> bool:
    """Square, all entries +-1, rows mutually orthogonal."""
    if not m.is_square:
        return False
    if any(e not in (1, -1) for e in m.entries):
        return False
    a = np.array(m.to_rows(), dtype=np.int64)
    return bool(np.array_equal(a @ a.T, m.rows * np.eye(m.rows, dtype=np.int64)))


def sylvester_double(h: IntMatrix) -> IntMatrix:
    """Double a Hadamard matrix: block layout (H H; H -H)."""
    if not is_hadamard(h):
        raise ValueError("sylvester doubling needs a Hadamard matrix (+-1 entries, orthogonal rows)")
    rows = h.to_rows()
    return IntMatrix.from_rows([r + r for r in rows] + [r + [-x for x in r] for r in rows])


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


def augment(h: IntMatrix) -> IntMatrix:
    """Split each column into positive/negative parts and append digon rows.

    Column j of the n x n input becomes columns 2j-1 (its positive entries)
    and 2j (absolute values of its negative entries); row n+j marks the
    digon joining the two copies with 1s in those columns.
    """
    if not h.is_square:
        raise ValueError(f"augmentation needs a square matrix, got {h.rows}x{h.cols}")
    if any(e not in (1, -1) for e in h.entries):
        raise ValueError("augmentation needs +-1 entries")
    n = h.rows
    out = []
    for i in range(n):
        row = []
        for x in h.row(i):
            row.extend((1, 0) if x > 0 else (0, 1))
        out.append(row)
    for j in range(n):
        row = [0] * (2 * n)
        row[2 * j] = 1
        row[2 * j + 1] = 1
        out.append(row)
    return IntMatrix.from_rows(out)
