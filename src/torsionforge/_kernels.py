"""Vectorized Smith diagonalization.

One numpy sweep runs gcd-driven elimination, updating whole rows and
columns per step.  Each pivot starts as the smallest nonzero entry of the
block still to be reduced.  Before each reduction of its column (row) by
floor division, a smaller nonzero entry of that column (row) takes its
place; a pivot that does not divide the rest of the block adds the first
row it fails to divide to its own.  On request the sweep records its row
and column operations in transform matrices ``S`` and ``T``; it then runs
on Python ints throughout, so the transforms are exact.  Otherwise it
starts on int64 while every entry is within ``ENTRY_BOUND``: with
|entries| <= 2^31 - 1 a single update ``x - q*y`` is bounded by
2^62 + 2^31, so each int64 update is exact.

An update that would leave the bound hands the sweep to a modulus ``mu``
that is a multiple of every invariant factor still to come (Hafner and
McCurley, "Asymptotically fast triangularization of matrices over rings",
SIAM J. Comput. 1991).  It is computed once, from a matrix ``B`` with the
invariant factors ``d_1 | ... | d_m`` (``m <= n`` after transposing): the
input, or the trailing block still to be reduced when the Hadamard bound
of that block makes it the cheaper of the two.  Elimination modulo ~31-bit
primes finds m columns of ``B`` that are independent modulo one prime;
stacked elimination modulo further primes, combined by the Chinese
remainder theorem up to the Hadamard bound, gives exact values:

- for a square ``B``, ``det B`` and ``adj(B) b`` for a fixed vector ``b``,
  and ``mu = gcd(det B, adj(B) b) = |det B| / delta`` with ``delta`` the
  denominator of ``B^-1 b``.  ``delta`` divides ``d_m``, so
  ``d_1 ... d_(m-1)`` divides ``mu``; ``delta`` is almost always ``d_m``
  itself, so ``mu`` is tiny (the "bonus" of Saunders and Wan, "Smith normal
  form of dense integer matrices, fast algorithms into practice", ISSAC
  2004);
- for a wide ``B``, two exact maximal minors, whose gcd ``mu`` is a
  multiple of ``d_1 ... d_m``.

The pivots found before the hand-off divide every entry of the trailing
block, which has at least two rows and two columns (a single row or column
only ever shrinks), so they divide ``mu`` as well.  The working array is reduced to
symmetric residues modulo ``mu`` and the current pivot is chosen again,
since its entry may now be 0; the same sweep then continues on int64,
reducing every update modulo ``mu``.  Over the principal ideal ring Z/mu
the Smith form is unique up to associates and equals ``diag(gcd(d_i, mu))``,
so each pivot ``s_i`` gives ``gcd(s_i, mu)``, which is ``d_i`` wherever
``d_i`` divides ``mu``, and a trailing block that is all zero modulo ``mu``
gives ``mu`` for each remaining entry.  For a square input the last factor
is ``|det| / (d_1 ... d_(m-1))``.

Two cases keep the sweep exact on Python ints instead: no m columns are
independent modulo the first prime (a rank-deficient input, say), or
``mu`` exceeds ``ENTRY_BOUND``.  Then the working array is promoted to
``dtype=object`` and the same sweep continues, so the result is always
certified.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Largest magnitude an int64 working array may hold (2^31 - 1); beyond it
# the sweep continues modulo a determinant multiple or on Python ints.
ENTRY_BOUND = 2**31 - 1

# Residues the stacked elimination modulo several primes holds at once
# (32 MB of int64); a larger matrix takes its primes in several batches.
_STACK_ENTRIES = 1 << 22

# Re-pick/merge rounds per pivot; generous (each round shrinks |pivot|, so
# legitimate runs stay way below this).
_MAX_ROUNDS = 1_000_000


def backend_name() -> str:
    return "numpy"


def smith_diagonal_int64(arr: np.ndarray, s: np.ndarray | None = None,
                         t: np.ndarray | None = None) -> list[int]:
    """Invariant factors of an integer matrix, zeros trimmed, unit factors kept.

    ``arr`` is int64 with every entry within ``ENTRY_BOUND``, or ``object``
    holding Python ints of any size.  Works on a private copy, so ``arr`` is
    left untouched.  Given ``s`` and ``t``, identity ``object`` arrays of
    the row and of the column count, the sweep runs on Python ints and
    records each row operation in the columns of ``s`` and each column
    operation in the rows of ``t``, so that ``arr = s @ diag @ t`` on return
    (a negative pivot negates its column of ``s``).
    """
    a = np.array(arr, dtype=object if s is not None else arr.dtype, order="C", copy=True)
    m, n = a.shape
    mind = min(m, n)
    diag = []
    mu, det = 0, None
    k = 0
    while k < mind:
        sub = a[k:, k:]
        mag = np.abs(sub)
        top = mag.max()
        if top == 0:
            break
        mag[sub == 0] = top + 1
        i, j = divmod(int(mag.argmin()), n - k)
        _swap_rows(a, s, k, k + i)
        _swap_cols(a, t, k, k + j)
        p = _clear_pivot(a, k, mu, s, t)
        if p is None:
            # the input is equivalent to diag(diag) beside the block a[k:, k:];
            # take the modulus of whichever of the input and that block is cheaper
            block = a[k:, k:]
            source = arr if _crt_work(arr) <= _crt_work(block) else block
            handoff = _modulus(source)
            if handoff is None:
                a = a.astype(object)
            else:
                mu, det = handoff
                if det is not None and source is block:
                    det *= math.prod(diag)
                a = _residues(a, mu)
            continue
        if p < 0 and s is not None:
            s[:, k] = -s[:, k]
        diag.append(abs(p))
        k += 1
    if mu:
        diag = [math.gcd(d, mu) for d in diag] + [mu] * (mind - len(diag))
        if det is not None:
            diag[-1] = abs(det) // math.prod(diag[:-1])
    return diag


def _clear_pivot(a: np.ndarray, k: int, mu: int, s: np.ndarray | None,
                 t: np.ndarray | None) -> int | None:
    """Clear row and column k of ``a`` in place until the pivot ``a[k, k]``
    divides the whole trailing block, and return the pivot.  Before each
    reduction of column (row) k, the smallest nonzero entry of that column
    (row) becomes the pivot if it is smaller than the pivot.  Returns None,
    with the block ``a[k:, k:]`` equivalent to what it was before the
    offending update, when an int64 update would leave ``ENTRY_BOUND``;
    ``mu`` > 0 reduces every update instead."""
    rounds = 0
    while True:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise RuntimeError(f"Smith sweep made no progress on pivot {k}")
        col = a[k + 1 :, k]
        nz = np.nonzero(col)[0]
        if nz.size:
            i = int(nz[np.abs(col[nz]).argmin()])
            if abs(col[i]) < abs(a[k, k]):
                _swap_rows(a, s, k, k + 1 + i)
            rows = k + 1 + nz
            q = col[nz] // int(a[k, k])
            block = _settle(a[rows, k:] - q[:, None] * a[k, k:], mu)
            if block is None:
                return None
            a[rows, k:] = block
            if s is not None:
                s[:, k] += s[:, rows] @ q
            if np.any(a[rows, k]):
                continue
        row = a[k, k + 1 :]
        nz = np.nonzero(row)[0]
        if nz.size:
            j = int(nz[np.abs(row[nz]).argmin()])
            if abs(row[j]) < abs(a[k, k]):
                _swap_cols(a, t, k, k + 1 + j)
            cols = k + 1 + nz
            q = row[nz] // int(a[k, k])
            block = _settle(a[k:, cols] - np.outer(a[k:, k], q), mu)
            if block is None:
                return None
            a[k:, cols] = block
            if t is not None:
                t[k] += q @ t[cols]
            if np.any(a[k, cols]):
                continue
        if np.any(a[k + 1 :, k]):
            continue
        p = int(a[k, k])
        bad = np.nonzero((a[k + 1 :, k + 1 :] % p).any(axis=1))[0]
        if bad.size == 0:
            return p
        i = k + 1 + int(bad[0])
        block = _settle(a[k, k:] + a[i, k:], mu)
        if block is None:
            return None
        a[k, k:] = block
        if s is not None:
            s[:, i] -= s[:, k]


def _swap_rows(a: np.ndarray, s: np.ndarray | None, k: int, i: int):
    """Swap rows k and i of the trailing block of ``a``, and columns k and i
    of ``s``."""
    if i != k:
        a[[k, i], k:] = a[[i, k], k:]
        if s is not None:
            s[:, [k, i]] = s[:, [i, k]]


def _swap_cols(a: np.ndarray, t: np.ndarray | None, k: int, j: int):
    """Swap columns k and j of the trailing block of ``a``, and rows k and j
    of ``t``."""
    if j != k:
        a[k:, [k, j]] = a[k:, [j, k]]
        if t is not None:
            t[[k, j]] = t[[j, k]]


def _settle(block: np.ndarray, mu: int) -> np.ndarray | None:
    """An updated block as the working array stores it: symmetric residues
    modulo ``mu`` once the sweep has a modulus, else the block itself, or
    None when an int64 entry leaves ``ENTRY_BOUND``."""
    if mu:
        return _residues(block, mu)
    if block.dtype != object and np.abs(block).max(initial=0) > ENTRY_BOUND:
        return None
    return block


def _residues(x: np.ndarray, mu: int) -> np.ndarray:
    """``x`` reduced in place to residues in (-mu/2, mu/2]; a remainder
    smaller than a residue pivot is its own residue, so Euclid's steps
    keep shrinking the pivot."""
    x %= mu
    x[x > mu // 2] -= mu
    return x


def _primes():
    """Primes below 2^31, descending."""
    from .exactmat import _passes_miller_rabin  # exactmat imports this module

    return (c for c in range(2**31 - 1, 2, -2) if _passes_miller_rabin(c))


def _crt_work(x: np.ndarray) -> float:
    """Rough cost of :func:`_modulus` on ``x``: r^3 elimination steps per
    prime for r = min(x.shape), times the bits of the Hadamard bound on its
    maximal minors (plus one prime's worth), which set the prime count."""
    if x.shape[0] > x.shape[1]:
        x = x.T
    r = x.shape[0]
    bits = np.log2(np.maximum(np.sqrt((x.astype(float) ** 2).sum(axis=0)), 1))
    return (np.sort(bits)[-r:].sum() + 32) * r**3


def _modulus(x: np.ndarray) -> tuple[int, int | None] | None:
    """``(mu, det)`` for the modulus hand-off of the int64 matrix ``x``:
    ``det`` is its exact determinant when it is square, else None.  Returns
    None when no maximal minor is nonzero modulo the first prime or when
    ``mu`` exceeds ``ENTRY_BOUND``."""
    a = x if x.shape[0] <= x.shape[1] else x.T
    m, n = a.shape
    primes = _primes()
    p0 = next(primes)
    cols = _pivot_columns(a, p0)
    if len(cols) < m:
        return None
    if m == n:
        det, adj_b = _det_and_adjugate_image(a, primes)
        mu = math.gcd(det, *adj_b)
    else:
        other = [n - 1 - j for j in _pivot_columns(a[:, ::-1], p0)]
        det = None
        mu = math.gcd(_det_and_adjugate_image(a[:, cols], primes)[0],
                      _det_and_adjugate_image(a[:, other], primes)[0])
    return (mu, det) if mu <= ENTRY_BOUND else None


def _pivot_columns(a: np.ndarray, p: int) -> list[int]:
    """Pivot columns of the row echelon form of ``a`` modulo ``p``, taken
    greedily from the left."""
    s = a % p
    m, n = s.shape
    cols = []
    for j in range(n):
        r = len(cols)
        if r == m:
            break
        nz = np.nonzero(s[r:, j])[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            s[[r, i]] = s[[i, r]]
        f = s[r + 1 :, j] * pow(int(s[r, j]), -1, p) % p
        s[r + 1 :, j:] = (s[r + 1 :, j:] - f[:, None] * s[r, j:]) % p
        cols.append(j)
    return cols


def _det_and_adjugate_image(a: np.ndarray, primes) -> tuple[int, list[int]]:
    """``det a`` and ``adj(a) b`` for the fixed vector ``b = (1, 2, ..., n)``,
    exactly, for a square int64 ``a`` that is invertible modulo some prime
    (so only the finitely many primes dividing ``det a`` are ever skipped,
    and the loop ends).  Residues come from the
    primes drawn from ``primes`` modulo which ``a`` is invertible; a prime
    where it is singular is skipped and replaced.  They are combined once
    their product exceeds twice the Hadamard bound on the determinant and
    on every Cramer numerator ``det`` of ``a`` with one column replaced by
    ``b``."""
    n = a.shape[0]
    w = np.concatenate([a, np.arange(1, n + 1, dtype=np.int64)[:, None]], axis=1)
    norms = np.log2(np.sqrt((w.astype(float) ** 2).sum(axis=0)))
    bits = norms[:n].sum() + max(0.0, norms[n] - norms[:n].min()) + 2
    found, used, have = [], [], 0.0
    while have <= bits:
        # each prime carries just under 31 bits
        need = max(1, min(math.ceil((bits - have) / 30.9), _STACK_ENTRIES // w.size))
        batch = list(itertools.islice(primes, need))
        residues, ok = _solve_mod(w, batch)
        found.append(residues[ok])
        used += [p for p, good in zip(batch, ok) if good]
        have = sum(math.log2(p) for p in used)
    exact = _crt(np.concatenate(found), used)
    return exact[0], exact[1:]


def _solve_mod(w: np.ndarray, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """For the n x (n+1) matrix ``w = [a | b]`` and each prime ``p``, the
    residues of ``det a`` and ``adj(a) b`` modulo ``p`` as one row of n + 1,
    by Gaussian elimination of all primes at once; the mask marks the
    primes modulo which ``a`` is invertible (other rows are meaningless)."""
    n = w.shape[0]
    layers = len(primes)
    p = np.array(primes, dtype=np.int64)
    pc = p[:, None]
    s = w[None, :, :] % p[:, None, None]
    det = np.ones(layers, dtype=np.int64)
    inv = np.zeros((layers, n), dtype=np.int64)
    ok = np.ones(layers, dtype=bool)
    at = np.arange(layers)
    for j in range(n):
        nz = s[:, j:, j] != 0
        ok &= nz.any(axis=1)
        i = j + nz.argmax(axis=1)
        swap = np.nonzero(i != j)[0]
        if swap.size:
            top = s[swap, j].copy()
            s[swap, j] = s[swap, i[swap]]
            s[swap, i[swap]] = top
            det[swap] = p[swap] - det[swap]
        piv = s[at, j, j]
        det = det * piv % p
        inv[:, j] = [pow(int(v), -1, int(q)) if v else 0 for v, q in zip(piv, primes)]
        f = s[:, j + 1 :, j] * inv[:, j, None] % pc
        rest = s[:, j + 1 :, j + 1 :]
        rest -= f[:, :, None] * s[:, j, None, j + 1 :]
        rest %= p[:, None, None]
    x = np.zeros((layers, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        t = (s[:, j, n] - (s[:, j, j + 1 : n] * x[:, j + 1 :] % pc).sum(axis=1)) % p
        x[:, j] = t * inv[:, j] % p
    return np.concatenate([det[:, None], x * det[:, None] % pc], axis=1), ok


def _crt(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The integers in (-M/2, M/2], M the product of ``primes``, with the
    given residues modulo each prime (one row per prime)."""
    big = math.prod(primes)
    basis = np.empty(len(primes), dtype=object)
    for t, p in enumerate(primes):
        e = big // p
        basis[t] = e * pow(e % p, -1, p)
    total = (residues.astype(object) * basis[:, None]).sum(axis=0)
    return [v - big if v > big // 2 else v for v in (int(x) % big for x in total)]
