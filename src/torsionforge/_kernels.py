"""Vectorized Smith diagonalization.

One numpy sweep runs the same gcd-driven elimination with smallest-pivot
selection as the big-int reference ``exactmat._smith_exact``, updating
whole rows and columns per step.  It starts on int64 while every entry is
within ``ENTRY_BOUND``: with |entries| <= 2^31 - 1 a single update
``x - q*y`` is bounded by 2^62 + 2^31, so each int64 update is exact.  The
moment an update leaves the bound, the working array is promoted in place
to ``dtype=object`` (Python ints) and the same sweep continues exactly, so
the result is always certified.
"""

from __future__ import annotations

import numpy as np

# Largest magnitude an int64 working array may hold (2^31 - 1); beyond it
# the sweep continues on Python ints.
ENTRY_BOUND = 2**31 - 1

# Re-pick/merge rounds per pivot; generous (each round shrinks |pivot|, so
# legitimate runs stay way below this).
_MAX_ROUNDS = 1_000_000


def backend_name() -> str:
    return "numpy"


def smith_diagonal_int64(arr: np.ndarray) -> list[int]:
    """Invariant factors of an integer matrix, zeros trimmed, unit factors kept.

    ``arr`` is int64 with every entry within ``ENTRY_BOUND``, or ``object``
    holding Python ints of any size.  Works on a private copy, so ``arr`` is
    left untouched.
    """
    a = np.array(arr, order="C", copy=True)
    m, n = a.shape
    diag = []
    k = 0
    mind = min(m, n)
    while k < mind:
        sub = a[k:, k:]
        mag = np.abs(sub)
        top = mag.max()
        if top == 0:
            break
        mag[sub == 0] = top + 1
        i, j = divmod(int(mag.argmin()), n - k)
        if i:
            a[[k, k + i], k:] = a[[k + i, k], k:]
        if j:
            a[k:, [k, k + j]] = a[k:, [k + j, k]]

        rounds = 0
        while True:
            rounds += 1
            if rounds > _MAX_ROUNDS:
                raise RuntimeError(f"Smith sweep made no progress on pivot {k}")
            col = a[k + 1 :, k]
            nz = np.nonzero(col)[0]
            if nz.size:
                p = int(a[k, k])
                q = col[nz] // p
                rows = k + 1 + nz
                a[rows, k:] -= q[:, None] * a[k, k:]
                if a.dtype != object and np.abs(a[rows, k:]).max(initial=0) > ENTRY_BOUND:
                    a = a.astype(object)
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
                if a.dtype != object and np.abs(a[k:, cols]).max(initial=0) > ENTRY_BOUND:
                    a = a.astype(object)
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
            if a.dtype != object and np.abs(a[k, k:]).max(initial=0) > ENTRY_BOUND:
                a = a.astype(object)
        diag.append(abs(int(a[k, k])))
        k += 1
    return diag
