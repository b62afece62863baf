"""Exact integer matrix kernel: Bareiss determinant, Smith normal form,
and canonical finitely generated abelian groups.

Everything here is exact at any magnitude.  Smith reduction without
transforms runs the vectorized sweep in :mod:`torsionforge._kernels`, which
starts on int64 and, once an entry would outgrow the int64-safe bound,
continues on int64 modulo a multiple of the determinant computed from the
input (Hafner and McCurley 1991, with the largest invariant factor taken
from a rational solve as in Saunders and Wan 2004), or on Python ints when
no such modulus fits; transform matrices come from the big-int reduction
``_smith_exact``.  Group orders are factored by trial division,
Miller-Rabin and Pollard-Brent rho; rho has a fixed step budget, past which
:class:`FactorizationBudgetError` names the cofactor it could not split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError(f"non-integer entry {e!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"ragged matrix: row {i + 1} has {len(r)} entries, expected {width}")
        flat = tuple(int(x) if isinstance(x, (int, np.integer)) else x for r in rows for x in r)
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {(i, j)} out of range for {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        orows = other.to_rows()
        for i in range(self.rows):
            srow = self.row(i)
            acc = [0] * other.cols
            for t, s in enumerate(srow):
                if s:
                    orow = orows[t]
                    for j in range(other.cols):
                        acc[j] += s * orow[j]
            out.append(acc)
        return IntMatrix.from_rows(out)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``original = s @ a @ t`` with unimodular s, t.

    ``s`` and ``t`` are only populated when transforms were requested;
    ``invariant_factors`` are the positive diagonal entries (zeros trimmed,
    unit factors kept), chain-divisible.
    """

    a: IntMatrix
    s: IntMatrix | None
    t: IntMatrix | None
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in both canonical presentations.

    ``invariant_factors`` is the chain-divisible presentation with unit
    factors dropped; ``primary_decomposition`` the multiset of prime powers.
    Use :func:`group_from_factors` to build one from raw factors.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]
    primary_decomposition: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank cannot be negative")
        for f in self.invariant_factors:
            if f <= 1:
                raise ValueError(f"invariant factor {f} must exceed 1")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors not chain-divisible: {a} does not divide {b}")
        expected = tuple(sorted(pp for f in self.invariant_factors for _, pp in _prime_powers(f)))
        if tuple(sorted(self.primary_decomposition)) != expected:
            raise ValueError("primary decomposition does not match the invariant factors")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def torsion_order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    @property
    def order(self) -> int | None:
        """Group order, or None for infinite groups."""
        return self.torsion_order if self.free_rank == 0 else None

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{f}" for f in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization of n > 1 as (prime, prime power) pairs,
    e.g. 12 -> [(2, 4), (3, 3)]."""
    out = []
    for p in _prime_factors(n):
        pe = 1
        while n % p == 0:
            n //= p
            pe *= p
        out.append((p, pe))
    return out


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _passes_miller_rabin(m: int) -> bool:
    """True for a prime m, and for no composite m below _MR_LIMIT.  False
    always means composite, so above the limit a False is certain too."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# Trial division always runs up to this divisor; past it, a cofactor that
# Miller-Rabin finds composite is split by Pollard-Brent rho.
_RHO_START = 1000

# Polynomial steps Pollard-Brent rho may take on one cofactor, about 1.5 s
# of Python on a 2-vCPU machine.  Rho needs about sqrt(p) steps to find a
# prime factor p, so this typically splits a cofactor whose second-largest
# prime factor has up to about 40 bits.
_RHO_STEPS = 1 << 21


class FactorizationBudgetError(ValueError):
    """Pollard-Brent rho found no divisor of ``cofactor`` within _RHO_STEPS."""

    def __init__(self, cofactor: int):
        self.cofactor = cofactor
        super().__init__(
            f"cannot factor {cofactor}: Pollard-Brent rho found no divisor within {_RHO_STEPS} steps"
        )


def _brent_divisor(m: int) -> int:
    """A nontrivial divisor of a composite m with no prime factor below
    _RHO_START (Brent, "An improved Monte Carlo factorization algorithm",
    1980).  Each polynomial x^2 + c that only finds m itself is replaced by
    the next c; all of them share one budget of about _RHO_STEPS steps, past
    which :class:`FactorizationBudgetError` is raised."""
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            steps += r
            k = 0
            while k < r and g == 1:
                if steps > _RHO_STEPS:
                    raise FactorizationBudgetError(m)
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += 128
                steps += batch
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def _integer_root(m: int, e: int) -> int:
    """floor(m^(1/e)) for m >= 1, by Newton's iteration from above."""
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _perfect_root(m: int) -> int | None:
    """r if m = r^e for some e >= 2, else None; m has no prime factor below
    _RHO_START, so e stays below log2(m) / 9."""
    for e in range(2, m.bit_length() // 9 + 1):
        r = _integer_root(m, e)
        if r**e == m:
            return r
    return None


def _rho_prime_factors(m: int) -> set[int]:
    """Distinct prime factors of a composite m with no prime factor below
    _RHO_START.  Rho needs about sqrt(p) steps to split a power of the prime
    p, so perfect powers are split by their root first.  A part that passes
    Miller-Rabin at or above _MR_LIMIT is only a probable prime, so it goes
    back to :func:`_prime_factors`."""
    primes, todo = set(), [m]
    while todo:
        x = todo.pop()
        if not _passes_miller_rabin(x):
            root = _perfect_root(x)
            d = root if root is not None else _brent_divisor(x)
            todo += (d, x // d)
        elif x < _MR_LIMIT:
            primes.add(x)
        else:
            primes.update(_prime_factors(x))
    return primes


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n > 1, ascending.  Trial division stops as
    soon as the unfactored cofactor is certainly prime (it passes
    Miller-Rabin below _MR_LIMIT), or once it passes _RHO_START with a
    cofactor that Miller-Rabin finds composite, which Pollard-Brent rho
    then splits.  A probable prime at or above _MR_LIMIT is only ever
    trial-divided, since no prime there can be certified."""
    ps = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            ps.append(p)
            while m % p == 0:
                m //= p
    probable = _passes_miller_rabin(m)
    f = 5
    while not (probable and m < _MR_LIMIT) and f * f <= m and (f < _RHO_START or probable):
        for p in (f, f + 2):
            if m % p == 0:
                ps.append(p)
                while m % p == 0:
                    m //= p
                probable = _passes_miller_rabin(m)
        f += 6
    if (probable and m < _MR_LIMIT) or f * f > m:
        if m > 1:
            ps.append(m)
    else:
        ps.extend(sorted(_rho_prime_factors(m)))
    return ps


def group_from_factors(factors: Iterable[int], free_rank: int = 0) -> AbelianGroup:
    """Canonical AbelianGroup from arbitrary positive factors.

    Factors need not be chain-divisible; they are split into prime powers
    and reassembled.  Unit factors are dropped.  Non-positive factors are
    rejected.
    """
    if free_rank < 0:
        raise ValueError("free rank cannot be negative")
    exps: dict[int, list[int]] = {}
    for f in factors:
        f = int(f)
        if f <= 0:
            raise ValueError(f"group factor {f} must be positive")
        if f == 1:
            continue
        for p, pp in _prime_powers(f):
            exps.setdefault(p, []).append(pp)
    depth = max((len(v) for v in exps.values()), default=0)
    for v in exps.values():
        v.sort(reverse=True)
    invariant = []
    for i in range(depth):
        x = 1
        for v in exps.values():
            if i < len(v):
                x *= v[i]
        invariant.append(x)
    invariant.reverse()
    primary = tuple(sorted(pp for v in exps.values() for pp in v))
    return AbelianGroup(free_rank, tuple(invariant), primary)


def free_group(rank: int) -> AbelianGroup:
    return AbelianGroup(rank, (), ())


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = m.to_rows()
    sign = 1
    prev = 1
    for t in range(n - 1):
        piv = None
        for i in range(t, n):
            if a[i][t]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        att = a[t][t]
        for i in range(t + 1, n):
            ait = a[i][t]
            arow = a[i]
            trow = a[t]
            for j in range(t + 1, n):
                arow[j] = (arow[j] * att - ait * trow[j]) // prev
            arow[t] = 0
        prev = att
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix, transforms: bool = False) -> SnfResult:
    """Smith normal form with divisibility-ordered nonnegative diagonal.

    Transform matrices are only computed when ``transforms`` is set, by the
    big-int reduction; without them the vectorized sweep of
    :mod:`torsionforge._kernels` runs, on int64 while entries stay small,
    then modulo a determinant multiple or on Python ints.  An all-zero
    matrix yields empty invariant factors with identity transforms.
    """
    bound = _kernels.ENTRY_BOUND
    try:
        a = np.array(m.entries, dtype=np.int64)
        if a.max() > bound or a.min() < -bound:
            a = a.astype(object)
    except OverflowError:
        a = np.array(m.entries, dtype=object)
    if not a.any():
        return SnfResult(
            a=IntMatrix.zero(m.rows, m.cols),
            s=IntMatrix.identity(m.rows),
            t=IntMatrix.identity(m.cols),
            invariant_factors=(),
        )
    if transforms:
        return _smith_exact(m)
    diag = _kernels.smith_diagonal_int64(a.reshape(m.rows, m.cols))
    return SnfResult(
        a=_diag_matrix(m.rows, m.cols, diag),
        s=None,
        t=None,
        invariant_factors=tuple(diag),
    )


def _diag_matrix(rows: int, cols: int, diag: Sequence[int]) -> IntMatrix:
    flat = [0] * (rows * cols)
    for i, d in enumerate(diag):
        flat[i * cols + i] = int(d)
    return IntMatrix(rows, cols, tuple(flat))


def _smith_exact(matrix: IntMatrix) -> SnfResult:
    """Big-int Smith reduction, maintaining original = S * A * T throughout."""
    m, n = matrix.rows, matrix.cols
    a = matrix.to_rows()
    s = [[int(i == j) for j in range(m)] for i in range(m)]
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        for r in range(m):
            s[r][i], s[r][k] = s[r][k], s[r][i]

    def row_submul(i, k, q):
        # a[i] -= q * a[k]  (undone in S by adding q * col i to col k)
        ai, ak = a[i], a[k]
        for j in range(n):
            ai[j] -= q * ak[j]
        for r in range(m):
            s[r][k] += q * s[r][i]

    def row_negate(i):
        ai = a[i]
        for j in range(n):
            ai[j] = -ai[j]
        for r in range(m):
            s[r][i] = -s[r][i]

    def col_swap(j, l):
        for i in range(m):
            a[i][j], a[i][l] = a[i][l], a[i][j]
        t[j], t[l] = t[l], t[j]

    def col_submul(j, l, q):
        # col j -= q * col l  (undone in T by adding q * row j to row l)
        for i in range(m):
            a[i][j] -= q * a[i][l]
        tl, tj = t[l], t[j]
        for c in range(n):
            tl[c] += q * tj[c]

    mind = min(m, n)
    k = 0
    while k < mind:
        bi = bj = -1
        bv = None
        for i in range(k, m):
            for j in range(k, n):
                v = abs(a[i][j])
                if v and (bv is None or v < bv):
                    bi, bj, bv = i, j, v
            if bv == 1:
                break
        if bi < 0:
            break
        if bi != k:
            row_swap(k, bi)
        if bj != k:
            col_swap(k, bj)
        while True:
            bi = k
            bv = abs(a[k][k])
            for i in range(k + 1, m):
                v = abs(a[i][k])
                if v and v < bv:
                    bi, bv = i, v
            if bi != k:
                row_swap(k, bi)
            dirty = False
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    if q:
                        row_submul(i, k, q)
                    if a[i][k]:
                        dirty = True
            if dirty:
                continue
            bj = k
            bv = abs(a[k][k])
            for j in range(k + 1, n):
                v = abs(a[k][j])
                if v and v < bv:
                    bj, bv = j, v
            if bj != k:
                col_swap(k, bj)
            dirty = False
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    if q:
                        col_submul(j, k, q)
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            if any(a[i][k] for i in range(k + 1, m)):
                continue
            p = a[k][k]
            bad = -1
            for i in range(k + 1, m):
                if any(x % p for x in a[i][k + 1 :]):
                    bad = i
                    break
            if bad < 0:
                break
            row_submul(k, bad, -1)
        k += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            row_negate(i)
    diag = [a[i][i] for i in range(min(m, n)) if a[i][i]]
    return SnfResult(
        a=IntMatrix.from_rows(a),
        s=IntMatrix.from_rows(s),
        t=IntMatrix.from_rows(t),
        invariant_factors=tuple(diag),
    )


def rank(m: IntMatrix) -> int:
    """Rank over the integers (= rank over Q)."""
    return smith_normal_form(m).rank
