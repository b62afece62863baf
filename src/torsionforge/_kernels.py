"""Vectorized Smith diagonalization.

One numpy sweep runs gcd-driven elimination, updating whole rows and
columns per step.  Each pivot starts as the smallest nonzero entry of the
block still to be reduced.  An update adds to an entry a pivot-row entry
times the ratio of a pivot-column entry to the pivot, so on int64 until
the sweep has a modulus (below) ties go to the pivot whose row, then
column, has the least largest entry; residues cannot overflow, so after
the hand-off the first smallest entry is taken.  Before each reduction of
its column (row) by floor division, a smaller nonzero entry of that column
(row) takes its place; a pivot that does not divide the rest of the block
adds the first row it fails to divide to its own.  On request the sweep
records its row and column operations in transform matrices ``S`` and
``T``; it then runs on Python ints throughout, so the transforms are
exact.  Otherwise it starts on int64 while every entry is within
``ENTRY_BOUND``: with |entries| <= 2^31 - 1 a single update ``x - q*y``
is bounded by 2^62 + 2^31, so each int64 update is exact.

The sweep skips work it has already done.  A pivot divides every entry of
the block left when it is confirmed, and row and column operations keep
that, as do residues modulo a multiple of it; so a pivot of the previous
pivot's magnitude is taken without a divisibility check before the
hand-off below, and after it when that magnitude divides ``mu``.  The row
pass updates only the pivot row when the pivot's column is zero below it,
which holds unless the pass's own column swap just moved a nonzero there.
On int64 the smallest nonzero entry is found in one pass, as the first
minimum of ``|x| - 1`` viewed as uint64.

An update that would leave the bound hands the sweep to a modulus ``mu``
that is a multiple of every invariant factor still to come (Hafner and
McCurley, "Asymptotically fast triangularization of matrices over rings",
SIAM J. Comput. 1991).  It is computed once, from a matrix ``B`` with the
invariant factors ``d_1 | ... | d_m`` (``m <= n`` after transposing): the
input, or the trailing block still to be reduced when the Hadamard bound
of that block makes it the cheaper of the two.  Every elimination runs
modulo primes below 2^26 that keep its int64 sums exact.  One
Gauss-Jordan elimination of ``B`` modulo the first such prime ``p`` picks
its own pivot columns: it visits the columns from the left and skips one
without a pivot.  It gives the minor ``A`` on those m columns, the inverse
of ``A`` and ``det A`` modulo ``p``.  ``A`` is ``B`` itself when ``B`` is
square; for a wide ``B``, the same elimination of ``B`` with its columns
reversed gives a second minor, from the right.  With that inverse, Dixon's
p-adic lifting ("Exact solution of linear equations using p-adic
expansions", Numer. Math. 1982) solves ``A x = b`` for a fixed vector
``b``: one O(n^2) step per base-``p`` digit up to twice the product of the
Hadamard bounds on ``|det A|`` and on the Cramer numerators, then rational
reconstruction of ``x`` with one shared denominator ``delta``.  ``delta``
divides ``det A``, and the cofactor ``c = det A / delta`` comes from its
residues modulo ``p`` and modulo each next prime, where the same
elimination gives ``det A``, combined by the Chinese remainder theorem up
to the Hadamard bound over ``delta``; a prime that divides ``det A`` is
skipped and replaced.  This gives exact values:

- for a square ``B``, ``det B`` and ``mu = |det B| / delta = |c|``.
  ``delta`` divides ``d_m``, so ``d_1 ... d_(m-1)`` divides ``mu``;
  ``delta`` is almost always ``d_m`` itself, so ``mu`` is tiny (the "bonus"
  of Saunders and Wan, "Smith normal form of dense integer matrices, fast
  algorithms into practice", ISSAC 2004);
- for a wide ``B``, two exact maximal minors, whose gcd ``mu`` is a
  multiple of ``d_1 ... d_m``.

The pivots found before the hand-off divide every entry of the trailing
block, which has at least two rows and two columns (a single row or column
only ever shrinks), so they divide ``mu`` as well.  The working array is
reduced to symmetric residues modulo ``mu`` and the current pivot is
chosen again, since its entry may now be 0; the same sweep then continues
on int64, reducing every update modulo ``mu``.  Over the principal ideal
ring Z/mu the Smith form is unique up to associates and equals
``diag(gcd(d_i, mu))``, so each pivot ``s_i`` gives ``gcd(s_i, mu)``,
which is ``d_i`` wherever ``d_i`` divides ``mu``, and a trailing block
that is all zero modulo ``mu`` gives ``mu`` for each remaining entry.  For
a square input the last factor is ``|det| / (d_1 ... d_(m-1))``.

Two cases give no modulus: no m columns are independent modulo ``p`` (a
rank-deficient input, say; the first elimination shows it, before any
bound is computed), or ``mu`` exceeds ``ENTRY_BOUND``.  For a square
``B`` the latter shows as soon as ``c`` modulo a product of primes above
``2 ENTRY_BOUND`` does: ``p`` and one more prime multiply past 2^32 (for
n below 2^15), so it costs the lifting and one more elimination.  Then
the working array is promoted to ``dtype=object`` where it stands and the
same sweep continues: the failed update left the block equivalent to what
it was, so the result is always certified.  ``mu`` is too large when many
invariant factors are nontrivial, as in the Walsh Schur core
``walsh(n)[1:, 1:] - 1``.  There smallest-first pivots made the growth and
passed 2^33 at n = 1024; the low-growth pivots keep that core below 2^13,
so it stays on int64 and never asks for a modulus.
"""

from __future__ import annotations

import math

import numpy as np

# Largest magnitude an int64 working array may hold (2^31 - 1); beyond it
# the sweep continues modulo a determinant multiple or on Python ints.
ENTRY_BOUND = 2**31 - 1

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
        found = _smallest_nonzero(a[k:, k:], not mu)
        if found is None:
            break
        i, j = found
        _swap_rows(a, s, k, k + i)
        _swap_cols(a, t, k, k + j)
        p = _clear_pivot(a, k, mu, s, t, diag[-1] if diag else 1)
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


def _smallest_nonzero(sub: np.ndarray, low_growth: bool = False) -> tuple[int, int] | None:
    """The position of the first entry of least nonzero magnitude in
    ``sub``, in row-major order, or None when ``sub`` is all zero.  On int64
    one pass takes the first minimum of ``|x| - 1`` viewed as uint64, where
    0 wraps to the largest value.

    With ``low_growth`` (int64 only), ties go to the first row holding an
    entry of least magnitude whose largest magnitude is least, and in it to
    the first such entry whose column's largest magnitude is least: the
    pivot's row and column then scale the block's update least."""
    mag = np.abs(sub)
    if mag.dtype == object:
        top = mag.max()
        if top == 0:
            return None
        mag[sub == 0] = top + 1
        at = int(mag.argmin())
    else:
        mag -= 1
        at = int(mag.view(np.uint64).argmin())
        if mag.flat[at] == -1:
            return None
        if low_growth:
            # mag holds |x| - 1, which orders the magnitudes alike; a row
            # without a tie reads -1, the largest uint64
            ties = mag == mag.flat[at]
            tie_rows = ties.any(axis=1)
            i = at // sub.shape[1]
            if np.count_nonzero(tie_rows) > 1:
                i = int(np.where(tie_rows, mag.max(axis=1), -1).view(np.uint64).argmin())
            cols = np.flatnonzero(ties[i])
            j = cols[0] if cols.size == 1 else cols[mag[:, cols].max(axis=0).argmin()]
            return i, int(j)
    return divmod(at, sub.shape[1])


def _clear_pivot(a: np.ndarray, k: int, mu: int, s: np.ndarray | None,
                 t: np.ndarray | None, last: int) -> int | None:
    """Clear row and column k of ``a`` in place until the pivot ``a[k, k]``
    divides the whole trailing block, and return the pivot.  Before each
    reduction of column (row) k, the smallest nonzero entry of that column
    (row) becomes the pivot if it is smaller than the pivot.  Returns None,
    with the block ``a[k:, k:]`` equivalent to what it was before the
    offending update, when an int64 update would leave ``ENTRY_BOUND``;
    ``mu`` > 0 reduces every update instead.

    ``last`` is the previous pivot's magnitude (1 for the first), which
    divided every entry of the block when it was confirmed.  Row and column
    operations keep that, and so do residues modulo a multiple of it, so a
    pivot of that magnitude divides the block without a check when ``mu``
    is 0 or a multiple of it."""
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
            # while column k is zero below the pivot only row k changes; the
            # swap above may have moved a nonzero there
            end = None if np.any(a[k + 1 :, k]) else k + 1
            block = _settle(a[k:end, cols] - np.outer(a[k:end, k], q), mu)
            if block is None:
                return None
            a[k:end, cols] = block
            if t is not None:
                t[k] += q @ t[cols]
            if np.any(a[k, cols]):
                continue
        if np.any(a[k + 1 :, k]):
            continue
        p = int(a[k, k])
        if abs(p) == last and (not mu or mu % p == 0):
            return p
        i = _first_row_not_divisible(a, k, p)
        if i is None:
            return p
        block = _settle(a[k, k:] + a[i, k:], mu)
        if block is None:
            return None
        a[k, k:] = block
        if s is not None:
            s[:, i] -= s[:, k]


def _first_row_not_divisible(a: np.ndarray, k: int, p: int) -> int | None:
    """The first row below k of ``a`` whose trailing entries past column k
    ``p`` does not divide, or None when it divides them all."""
    bad = np.flatnonzero((a[k + 1 :, k + 1 :] % p).any(axis=1))
    return k + 1 + int(bad[0]) if bad.size else None


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


def _primes(below: int):
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
    None when no maximal minor is nonzero modulo the first of
    :func:`_lifting_primes` or when ``mu`` exceeds ``ENTRY_BOUND``.  A wide
    block's ``mu`` is the gcd of the determinants of its minors on the
    greedy pivot columns from the left and from the right."""
    a = x if x.shape[0] <= x.shape[1] else x.T
    square = a.shape[0] == a.shape[1]
    # a wide block's minors may each pass the bound while their gcd does not
    found = _det_and_denominator(a, ENTRY_BOUND if square else None)
    if found is None:
        return None
    det, delta = found
    if square:
        mu = abs(det) // delta
    else:
        # the reversed block has the same rank modulo the lifting prime
        det, mu = None, math.gcd(det, _det_and_denominator(a[:, ::-1])[0])
    return (mu, det) if mu <= ENTRY_BOUND else None


def _det_and_denominator(a: np.ndarray, cap: int | None = None) -> tuple[int, int] | None:
    """``(det A, delta)`` for the minor ``A = a[:, cols]`` of an int64
    m x n ``a`` (m <= n) on the pivot columns that :func:`_inverse_mod`
    picks modulo the first prime ``p`` of :func:`_lifting_primes`, with
    ``delta`` the denominator of ``A^-1 b`` for the fixed vector
    ``b = (1, 2, ..., m)``, or None when ``a`` has rank below m modulo
    ``p``.  Dixon lifting modulo ``p`` gives ``A^-1 b`` modulo a power of
    ``p`` above ``2 N D``, where ``D`` is the Hadamard bound on ``|det A|``
    and ``N`` that on every Cramer numerator, and rational reconstruction
    gives ``delta``.  Then ``det A = c delta`` with ``|c| <= D / delta``;
    ``c`` comes from its residues modulo ``p`` and the further lifting
    primes, each from the determinant that :func:`_inverse_mod` finds (a
    prime dividing ``det A`` is skipped and replaced), combined once their
    product exceeds ``2 D / delta``.  Returns None as soon as those
    residues show ``|c| > cap``."""
    primes = _lifting_primes(a)
    p = next(primes)
    found = _inverse_mod(a, p)
    if found is None:
        return None
    inv, perm, det_p, cols = found
    # take, unlike a[:, cols], keeps the rows contiguous for the row operations
    a = a.take(cols, axis=1)
    # the minor is invertible modulo p, so no column is zero and min(squares) > 0
    n = a.shape[0]
    squares = _column_squares(a)
    hadamard = math.prod(squares)
    d_bound = math.isqrt(hadamard) + 1
    n_bound = math.isqrt(hadamard // min(squares) * (n * (n + 1) * (2 * n + 1) // 6)) + 1
    x, modulus = _lift(a, inv, perm, p, 2 * n_bound * d_bound)
    delta = _denominator(x, modulus, n_bound, d_bound)
    residues, used = [det_p * pow(delta, -1, p) % p], [p]
    while math.prod(used) * delta <= 2 * d_bound:
        q = next(primes)
        found = _inverse_mod(a, q)
        if found is None:
            continue
        residues.append(found[2] * pow(delta, -1, q) % q)
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
    """Primes for the Dixon lifting of the int64 ``a`` with n rows, or of
    any n x n minor of it, descending: below 2^26, and small enough that
    ``n max|a| p < 2^62`` and ``n p^2 < 2^63``, so every int64 sum of n
    products in :func:`_inverse_mod` and :func:`_lift` is exact."""
    n = a.shape[0]
    top = max(int(np.abs(a).max()), 1)
    return _primes(min(_LIFTING_PRIME_BOUND, 2**62 // (n * top), math.isqrt(2**63 // n)))


def _inverse_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, int, list[int]] | None:
    """``(inv, perm, det, cols)`` for an m x n ``a`` (m <= n) by
    Gauss-Jordan elimination modulo ``p``: ``cols`` are the pivot columns
    taken greedily from the left, a column without a pivot skipped, and
    ``inv`` is the inverse modulo ``p`` of the minor ``A = a[:, cols]``
    with its rows taken in the order ``perm``, so that
    ``A^-1 r = inv @ r[perm]``, and ``det`` is ``det A`` modulo ``p``.
    None as soon as the columns left cannot supply the missing pivots; on
    a square ``a``, when ``p`` divides ``det a``.  Each step reduces only
    the pivot row and column: every other entry loses one product of two
    residues per step, which ``m p^2 < 2^63`` keeps within int64 for all m
    steps."""
    m, n = a.shape
    w = a % p
    perm = np.arange(m)
    cols = []
    det = 1
    for j in range(n):
        k = len(cols)
        if k == m:
            break
        col = w[:, j] % p
        nz = np.flatnonzero(col[k:])
        if not nz.size:
            if n - j <= m - k:
                return None
            continue
        i = k + int(nz[0])
        if i != k:
            w[[k, i]] = w[[i, k]]
            col[[k, i]] = col[[i, k]]
            perm[[k, i]] = perm[[i, k]]
            det = -det
        piv = int(col[k])
        det = det * piv % p
        row = w[k] % p
        row[j] = 1
        row = row * pow(piv, -1, p) % p
        col[k] = 0
        w[:, j] = 0
        w -= col[:, None] * row
        w[k] = row
        cols.append(j)
    return w[:, cols] % p, perm, det, cols


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
