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
of that block makes it the cheaper of the two.  Elimination modulo a
~31-bit prime finds m columns of ``B`` that are independent modulo that
prime.  For a square matrix ``A`` of such columns, Dixon's p-adic lifting
("Exact solution of linear equations using p-adic expansions", Numer.
Math. 1982) solves ``A x = b`` for a fixed vector ``b``: one inverse
modulo a prime ``p`` below 2^26, one O(n^2) step per base-``p`` digit up to
twice the product of the Hadamard bounds on ``|det A|`` and on the Cramer
numerators, then rational reconstruction of ``x`` with one shared
denominator ``delta``.  ``delta`` divides ``det A``, and the cofactor
``c = det A / delta`` comes from its residues modulo ``p`` and a few more
~31-bit primes, combined by the Chinese remainder theorem up to the
Hadamard bound over ``delta``; a prime that divides ``det A`` is skipped
and replaced.  This gives exact values:

- for a square ``B``, ``det B`` and ``mu = |det B| / delta = |c|``.
  ``delta`` divides ``d_m``, so ``d_1 ... d_(m-1)`` divides ``mu``;
  ``delta`` is almost always ``d_m`` itself, so ``mu`` is tiny (the "bonus"
  of Saunders and Wan, "Smith normal form of dense integer matrices, fast
  algorithms into practice", ISSAC 2004);
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
``mu`` exceeds ``ENTRY_BOUND``.  For a square ``B`` the latter shows as
soon as ``c`` modulo a product of primes above ``2 ENTRY_BOUND`` does, so
it costs the lifting and typically one more elimination.  Then the
working array is promoted to ``dtype=object`` and the same sweep
continues, so the result is always certified.
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

# Dixon lifting works modulo one prime below this bound, so each step takes
# one base-p digit of just under 26 bits.
_LIFTING_PRIME_BOUND = 2**26

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


def _primes(below: int = 2**31):
    """Primes below ``below``, descending."""
    from .exactmat import _passes_miller_rabin  # exactmat imports this module

    return (c for c in range((below - 2) | 1, 2, -2) if _passes_miller_rabin(c))


def _crt_work(x: np.ndarray) -> float:
    """Rough cost of :func:`_modulus` on ``x``, to compare two candidates:
    r^3 for r = min(x.shape), the order of each elimination, times the bits
    of the Hadamard bound on its maximal minors (plus 32), which set the
    number of lifting steps and of cofactor primes."""
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
        found = _det_and_denominator(a, primes, ENTRY_BOUND)
        if found is None:
            return None
        det, delta = found
        mu = abs(det) // delta
    else:
        other = [n - 1 - j for j in _pivot_columns(a[:, ::-1], p0)]
        det = None
        mu = math.gcd(_det_and_denominator(a[:, cols], primes)[0],
                      _det_and_denominator(a[:, other], primes)[0])
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


def _det_and_denominator(a: np.ndarray, primes, cap: int | None = None) -> tuple[int, int] | None:
    """``(det a, delta)`` for a square int64 ``a`` that is invertible modulo
    some prime, with ``delta`` the denominator of ``a^-1 b`` for the fixed
    vector ``b = (1, 2, ..., n)``.  Dixon lifting modulo one prime ``p``
    (the first of :func:`_lifting_primes` that does not divide ``det a``)
    gives ``a^-1 b`` modulo a power of ``p`` above ``2 N D``, where ``D`` is
    the Hadamard bound on ``|det a|`` and ``N`` that on every Cramer
    numerator, and rational reconstruction gives ``delta``.  Then
    ``det a = c delta`` with ``|c| <= D / delta``; ``c`` comes from its
    residues modulo ``p`` and the primes drawn from ``primes`` modulo which
    ``a`` is invertible (a prime dividing ``det a`` is skipped and
    replaced), combined once their product exceeds ``2 D / delta``.
    Returns None as soon as those residues show ``|c| > cap``."""
    n = a.shape[0]
    squares = _column_squares(a)
    hadamard = math.prod(squares)
    d_bound = math.isqrt(hadamard) + 1
    n_bound = math.isqrt(hadamard // min(squares) * (n * (n + 1) * (2 * n + 1) // 6)) + 1
    for p in _lifting_primes(a):
        found = _inverse_mod(a, p)
        if found is not None:
            break
    inv, perm, det_p = found
    x, modulus = _lift(a, inv, perm, p, 2 * n_bound * d_bound)
    delta = _denominator(x, modulus, n_bound, d_bound)
    residues, used = [det_p * pow(delta, -1, p) % p], [p]
    while (m := math.prod(used)) * delta <= 2 * d_bound:
        if cap is not None and m <= 2 * cap:
            need = 1  # with p, one ~31-bit prime tells whether |c| > cap
        else:
            # each prime carries just under 31 bits
            need = (2 * d_bound // (m * delta)).bit_length() // 30 + 1
        batch = list(itertools.islice(primes, max(1, min(need, _STACK_ENTRIES // a.size))))
        dets, ok = _solve_mod(a, batch)
        for q, v in zip(itertools.compress(batch, ok), dets[ok].tolist()):
            residues.append(v * pow(delta, -1, q) % q)
            used.append(q)
        if cap is not None and math.prod(used) > 2 * cap and abs(_crt(residues, used)) > cap:
            return None
    return _crt(residues, used) * delta, delta


def _column_squares(a: np.ndarray) -> list[int]:
    """The squared Euclidean norm of each column of the int64 ``a``."""
    top = int(np.abs(a).max(initial=0))
    w = a if top * top * a.shape[0] < 2**63 else a.astype(object)
    return [int(v) for v in (w * w).sum(axis=0)]


def _lifting_primes(a: np.ndarray):
    """Primes for the Dixon lifting of the square int64 ``a``, descending:
    below 2^26, and small enough that ``n max|a| p < 2^62`` and
    ``n p^2 < 2^63``, so every int64 sum of n products in
    :func:`_inverse_mod` and :func:`_lift` is exact."""
    n = a.shape[0]
    top = max(int(np.abs(a).max()), 1)
    return _primes(min(_LIFTING_PRIME_BOUND, 2**62 // (n * top), math.isqrt(2**63 // n)))


def _inverse_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """``(inv, perm, det)``: the inverse modulo ``p`` of ``a`` with its rows
    taken in the order ``perm``, so that ``a^-1 r = inv @ r[perm]``, and
    ``det a`` modulo ``p``, by Gauss-Jordan elimination in place; None when
    ``p`` divides ``det a``.  Each step reduces only the pivot row and
    column: every other entry loses one product of two residues per step,
    which ``n p^2 < 2^63`` keeps within int64 for all n steps."""
    n = a.shape[0]
    m = a % p
    perm = np.arange(n)
    det = 1
    for k in range(n):
        col = m[:, k] % p
        nz = np.flatnonzero(col[k:])
        if not nz.size:
            return None
        i = k + int(nz[0])
        if i != k:
            m[[k, i]] = m[[i, k]]
            col[[k, i]] = col[[i, k]]
            perm[[k, i]] = perm[[i, k]]
            det = -det
        piv = int(col[k])
        det = det * piv % p
        row = m[k] % p
        row[k] = 1
        row = row * pow(piv, -1, p) % p
        col[k] = 0
        m[:, k] = 0
        m -= col[:, None] * row
        m[k] = row
    return m % p, perm, det


def _lift(a: np.ndarray, inv: np.ndarray, perm: np.ndarray, p: int,
          bound: int) -> tuple[np.ndarray, int]:
    """``(x, p^k)`` with ``x`` (Python ints) congruent to ``a^-1 b`` modulo
    ``p^k``, the least power of ``p`` above ``bound``, for ``b = (1, ..., n)``:
    each of the k Dixon steps takes one base-``p`` digit ``a^-1 r mod p`` of
    the solution and leaves ``r = (r - a x) / p``, whose entries stay
    within ``n max|a|``."""
    r = np.arange(1, a.shape[0] + 1, dtype=np.int64)
    digits = []
    modulus = 1
    while modulus <= bound:
        x = inv @ (r[perm] % p) % p
        r = (r - a @ x) // p
        digits.append(x)
        modulus *= p
    x = np.zeros(a.shape[0], dtype=object)
    for d in reversed(digits):
        x = x * p + d.astype(object)
    return x, modulus


def _denominator(x: np.ndarray, modulus: int, num_bound: int, den_bound: int) -> int:
    """The least common denominator of the fractions ``v_i / det`` whose
    residues modulo ``modulus > 2 num_bound den_bound`` are ``x``, given
    ``|v_i| <= num_bound`` and ``0 < |det| <= den_bound``.  Each residue is
    scaled by the denominator found so far, which divides ``det``, so the
    scaled fraction still lies within both bounds: one whose symmetric
    residue is within ``num_bound`` is that integer, and adds nothing."""
    delta = 1
    for v in x:
        y = v * delta % modulus
        if min(y, modulus - y) > num_bound:
            delta *= _rational(y, modulus, num_bound, den_bound)[1]
    return delta


def _rational(y: int, modulus: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
    """``(r, t)`` with ``r = t y`` modulo ``modulus``, ``|r| <= num_bound``
    and ``0 < t <= den_bound``, from the extended Euclidean algorithm on
    ``(modulus, y)`` at its first remainder within ``num_bound``, or None
    when its ``t`` is too large.  When ``modulus`` exceeds
    ``2 num_bound den_bound`` and ``y`` stands for a fraction within both
    bounds, that fraction is unique and this is it, in lowest terms (von
    zur Gathen and Gerhard, Modern Computer Algebra, Theorem 5.26)."""
    r0, r1 = modulus, y % modulus
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if t1 <= den_bound else None


def _solve_mod(a: np.ndarray, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The residues of ``det a`` modulo each prime, for a square int64
    ``a``, by Gaussian elimination of all primes at once, and a mask of the
    primes modulo which ``a`` is invertible (other residues are 0)."""
    n = a.shape[0]
    layers = len(primes)
    p = np.array(primes, dtype=np.int64)
    pc = p[:, None]
    s = a[None, :, :] % p[:, None, None]
    det = np.ones(layers, dtype=np.int64)
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
        inv = np.array([pow(int(v), -1, int(q)) if v else 0 for v, q in zip(piv, primes)], dtype=np.int64)
        f = s[:, j + 1 :, j] * inv[:, None] % pc
        rest = s[:, j + 1 :, j + 1 :]
        rest -= f[:, :, None] * s[:, j, None, j + 1 :]
        rest %= p[:, None, None]
    return det, ok


def _crt(residues: list[int], primes: list[int]) -> int:
    """The integer in (-M/2, M/2], M the product of ``primes``, with the
    given residue modulo each prime."""
    big = math.prod(primes)
    total = 0
    for v, p in zip(residues, primes):
        e = big // p
        total += v * e * pow(e % p, -1, p)
    total %= big
    return total - big if total > big // 2 else total
