"""int64 fast path for Smith diagonalization.

One vectorized numpy kernel runs the same gcd-driven elimination with
smallest-pivot selection as the big-int reference
``exactmat._smith_exact``, updating whole rows and columns per sweep.
Every intermediate value stays below ``ENTRY_BOUND`` or the kernel gives
up: with |entries| <= 2^31 - 1 a single update ``x - q*y`` is bounded by
2^62 + 2^31, so int64 arithmetic is exact right up to the moment the bound
check runs.  A ``None`` result therefore never means "wrong", only "cannot
certify"; callers rerun in big-int arithmetic.
"""

from __future__ import annotations

import numpy as np

# Largest magnitude the kernel lets any entry reach (2^31 - 1).
ENTRY_BOUND = 2**31 - 1

# Re-pick/merge rounds per pivot before giving up; generous (each round
# shrinks |pivot|, so legitimate runs stay way below this).
_MAX_ROUNDS = 1_000_000


def backend_name() -> str:
    return "numpy"


def smith_diagonal_int64(arr: np.ndarray) -> list[int] | None:
    """Invariant factors of an int64 matrix, or None when int64 cannot certify.

    Works on a private copy, so ``arr`` is left untouched.
    """
    a = np.array(arr, dtype=np.int64, order="C", copy=True)
    m, n = a.shape
    big = np.iinfo(np.int64).max
    diag = []
    k = 0
    mind = min(m, n)
    while k < mind:
        sub = a[k:, k:]
        mag = np.abs(sub)
        mag[sub == 0] = big
        flat = int(mag.argmin())
        if mag.flat[flat] == big:
            break
        i, j = divmod(flat, n - k)
        if i:
            a[[k, k + i], k:] = a[[k + i, k], k:]
        if j:
            a[k:, [k, k + j]] = a[k:, [k + j, k]]

        rounds = 0
        while True:
            rounds += 1
            if rounds > _MAX_ROUNDS:
                return None
            col = a[k + 1 :, k]
            nz = np.nonzero(col)[0]
            if nz.size:
                p = int(a[k, k])
                q = col[nz] // p
                rows = k + 1 + nz
                a[rows, k:] -= q[:, None] * a[k, k:]
                if int(np.abs(a[rows, k:]).max(initial=0)) > ENTRY_BOUND:
                    return None
                col = a[k + 1 :, k]
                nz = np.nonzero(col)[0]
                if nz.size:
                    # a remainder smaller than the pivot exists; promote it
                    i = int(nz[np.abs(col[nz]).argmin()]) + 1
                    a[[k, k + i], k:] = a[[k + i, k], k:]
                    continue
            row = a[k, k + 1 :]
            nz = np.nonzero(row)[0]
            if nz.size:
                p = int(a[k, k])
                q = row[nz] // p
                cols = k + 1 + nz
                a[k:, cols] -= np.outer(a[k:, k], q)
                if int(np.abs(a[k:, cols]).max(initial=0)) > ENTRY_BOUND:
                    return None
                row = a[k, k + 1 :]
                nz = np.nonzero(row)[0]
                if nz.size:
                    j = int(nz[np.abs(row[nz]).argmin()]) + 1
                    a[k:, [k, k + j]] = a[k:, [k + j, k]]
                    continue
            if np.any(a[k + 1 :, k]):
                continue
            p = int(a[k, k])
            rem = a[k + 1 :, k + 1 :] % p
            bad = np.nonzero(rem.any(axis=1))[0]
            if bad.size == 0:
                break
            a[k, k:] += a[k + 1 + int(bad[0]), k:]
            if int(np.abs(a[k, k:]).max(initial=0)) > ENTRY_BOUND:
                return None
        diag.append(abs(int(a[k, k])))
        k += 1
    return diag
