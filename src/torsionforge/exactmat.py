"""Exact integer matrix kernel: Smith normal form and canonical finitely
generated abelian groups.

A matrix is a 2-D numpy array as :func:`int_matrix` makes it: int64 when
every entry fits, otherwise ``dtype=object`` holding Python ints.
Everything here is exact at any magnitude.  A matrix that is a Walsh
matrix up to signed row and column permutations has its Smith form read
off the checked Kronecker certificate of :mod:`torsionforge.hadamard`
(not off the closed form there), unless transform matrices are requested.
Any other matrix goes through the vectorized sweep in
:mod:`torsionforge._kernels`, which starts on int64, breaking ties among
its smallest pivots toward low growth, and, once an entry would outgrow
the int64-safe bound, continues on int64 modulo a multiple of the
determinant of the input or of the block left, whichever is cheaper
(Hafner and McCurley 1991, with the largest invariant factor from a
rational solve as in Saunders and Wan 2004).  Without such a modulus the
same sweep goes on in Python ints from where it stands.  With transform
matrices requested, the same sweep runs on Python ints throughout and
records its operations in them.  Groups are put in invariant-factor form
by gcd and lcm, with no factoring.  Only the prime-power view factors, and
only the largest invariant factor, by trial division, Miller-Rabin and
Pollard-Brent rho.  Rho has a fixed step budget, and a probable prime
above the Miller-Rabin bound cannot be certified; either way
:class:`FactorizationBudgetError` names the cofactor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .hadamard import walsh_smith_factors

_INT64_MAX = np.iinfo(np.int64).max


def int_matrix(rows: Iterable[Iterable[int]]) -> np.ndarray:
    """The 2-D matrix of ``rows``: int64 when every entry fits, otherwise
    ``dtype=object`` holding Python ints.  The dtype is never left to numpy's
    inference, which makes ``[[-1, 2**63]]`` float64 and ``[[2**63]]``
    uint64.  Rows must be non-empty, of one length, and hold ints."""
    rows = [list(r) for r in rows]
    # check each distinct entry type once, not each entry
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    bad = {t for t in kinds if not issubclass(t, (int, np.integer)) or issubclass(t, bool)}
    if bad:
        x = next(x for x in itertools.chain.from_iterable(rows) if type(x) in bad)
        raise ValueError(f"non-integer matrix entry {x!r}")
    width = len(rows[0]) if rows else 0
    for i, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ValueError(f"ragged matrix: row {i} has {len(r)} entries, expected {width}")
    if not width:
        raise ValueError("matrix needs at least one row and one column")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array([[int(x) for x in r] for r in rows], dtype=object)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``original = s @ a @ t`` with unimodular s, t.

    ``s`` and ``t`` are only populated when transforms were requested, as
    ``dtype=object`` arrays of Python ints, so products with them are exact;
    ``a`` is int64 unless its diagonal outgrows it.  ``invariant_factors``
    are the positive diagonal entries (zeros trimmed, unit factors kept),
    chain-divisible.
    """

    a: np.ndarray
    s: np.ndarray | None
    t: np.ndarray | None
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group Z^free_rank x Z_d1 x ... x Z_dm.

    ``invariant_factors`` is the chain-divisible presentation d1 | ... | dm
    with unit factors dropped; ``primary_decomposition`` derives the
    multiset of prime powers from it on first use.  Use
    :func:`group_from_factors` to build one from raw factors.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank cannot be negative")
        for f in self.invariant_factors:
            if f <= 1:
                raise ValueError(f"invariant factor {f} must exceed 1")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors not chain-divisible: {a} does not divide {b}")

    @functools.cached_property
    def primary_decomposition(self) -> tuple[int, ...]:
        """Prime powers of the torsion, ascending.  Only the largest
        invariant factor is factored: every other one divides it, so the
        same primes split them all."""
        if not self.invariant_factors:
            return ()
        primes = _prime_factors(self.invariant_factors[-1])
        out = []
        for f in self.invariant_factors:
            for p in primes:
                pe = 1
                while f % p == 0:
                    f //= p
                    pe *= p
                if pe > 1:
                    out.append(pe)
        return tuple(sorted(out))

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


# Trial division runs up to this divisor; past it, a cofactor that
# Miller-Rabin finds composite is split by Pollard-Brent rho.
_RHO_START = 1000

_TRIAL_DIVISORS = (2, 3) + tuple(f + d for f in range(6, _RHO_START, 6) for d in (-1, 1))

# Polynomial steps Pollard-Brent rho may take on one cofactor, about 1.5 s
# of Python on a 2-vCPU machine.  Rho needs about sqrt(p) steps to find a
# prime factor p, so this typically splits a cofactor whose second-largest
# prime factor has up to about 40 bits.
_RHO_STEPS = 1 << 21


class FactorizationBudgetError(ValueError):
    """``cofactor`` could not be factored: Pollard-Brent rho found no
    divisor within _RHO_STEPS steps, or it passes Miller-Rabin at or above
    _MR_LIMIT, where it cannot be certified prime."""

    def __init__(self, cofactor: int, reason: str):
        self.cofactor = cofactor
        super().__init__(f"cannot factor {cofactor}: {reason}")


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
                    reason = f"Pollard-Brent rho found no divisor within {_RHO_STEPS} steps"
                    raise FactorizationBudgetError(m, reason)
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


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n > 1, ascending.  After trial division,
    each cofactor is prime if it passes Miller-Rabin below _MR_LIMIT, or
    else split by its root (rho needs about sqrt(p) steps on a power of the
    prime p) or by Pollard-Brent rho.  One that passes at or above the
    limit is only a probable prime: :class:`FactorizationBudgetError`."""
    primes, m = set(), n
    for p in _TRIAL_DIVISORS:
        if p * p > m:
            break
        if m % p == 0:
            primes.add(p)
            while m % p == 0:
                m //= p
    todo = [m] if m > 1 else []
    while todo:
        x = todo.pop()
        if not _passes_miller_rabin(x):
            root = _perfect_root(x)
            d = root if root is not None else _brent_divisor(x)
            todo += (d, x // d)
        elif x < _MR_LIMIT:
            primes.add(x)
        else:
            reason = f"it passes Miller-Rabin but cannot be certified prime at or above {_MR_LIMIT}"
            raise FactorizationBudgetError(x, reason)
    return sorted(primes)


def group_from_factors(factors: Iterable[int], free_rank: int = 0) -> AbelianGroup:
    """Canonical AbelianGroup of Z^free_rank x Z_f1 x ... x Z_fk for
    arbitrary positive factors, without factoring any of them.

    Each factor is merged into an ascending chain-divisible list by
    Z_a x Z_b = Z_gcd(a, b) x Z_lcm(a, b), or appended when the last entry
    divides it, as with Smith normal form diagonals.  Unit factors are
    dropped.  Non-positive factors are rejected.
    """
    if free_rank < 0:
        raise ValueError("free rank cannot be negative")
    chain: list[int] = []
    for f in factors:
        f = int(f)
        if f <= 0:
            raise ValueError(f"group factor {f} must be positive")
        if f == 1:
            continue
        if not chain or f % chain[-1] == 0:
            chain.append(f)
            continue
        # from the top down, each entry takes the lcm and passes the gcd on;
        # every new entry still divides the next one up
        for i in range(len(chain) - 1, -1, -1):
            g = math.gcd(chain[i], f)
            chain[i], f = chain[i] // g * f, g
            if f == 1:
                break
        else:
            chain.insert(0, f)
    return AbelianGroup(free_rank, tuple(chain))


def free_group(rank: int) -> AbelianGroup:
    return AbelianGroup(rank, ())


def smith_normal_form(m: np.ndarray, transforms: bool = False) -> SnfResult:
    """Smith normal form with divisibility-ordered nonnegative diagonal.

    ``m`` is a matrix as :func:`int_matrix` makes it.  Without
    ``transforms``, a matrix that is walsh(n) up to signed row and column
    permutations takes its factors from the checked Kronecker certificate
    of :func:`torsionforge.hadamard.walsh_smith_factors`, and ``a`` is
    their diagonal; any other matrix, or that one with ``transforms``,
    goes through the sweep.  The vectorized sweep of
    :mod:`torsionforge._kernels` runs on int64 with low-growth pivots while
    entries stay small, then modulo a determinant multiple.  When none
    fits, it goes on in Python ints from where it stands.  With
    ``transforms`` it runs on Python ints throughout and records its row
    and column operations in ``s`` and ``t``, which start as identities;
    an all-zero matrix keeps them so.
    """
    if m.ndim != 2 or m.dtype not in (np.int64, object):
        raise ValueError(f"expected a 2-D int64 or object matrix, got {m.ndim}-D {m.dtype}")
    s = t = None
    diag = None if transforms else walsh_smith_factors(m)
    if diag is None:
        bound = _kernels.ENTRY_BOUND
        if m.dtype == np.int64 and (m.max(initial=0) > bound or m.min(initial=0) < -bound):
            m = m.astype(object)
        if transforms:
            s, t = np.identity(len(m), dtype=object), np.identity(m.shape[1], dtype=object)
        diag = _kernels.smith_diagonal_int64(m, s, t)
    a = np.zeros(m.shape, dtype=np.int64 if not diag or diag[-1] <= _INT64_MAX else object)
    r = np.arange(len(diag))
    a[r, r] = np.array(diag, dtype=a.dtype)
    return SnfResult(a, s, t, tuple(diag))
