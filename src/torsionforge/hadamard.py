"""Walsh-Hadamard matrices by Sylvester doubling, the digon-augmented
matrix, and the closed form of their Smith normal form.  Each matrix is an
int64 numpy array; ``walsh`` is the package's one doubling, and the valid
sequence that goes with it is read off a closed form instead.

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
