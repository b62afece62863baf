"""Valid sequences: per-disc orderings of the cycles of a +-1 matrix such
that no ordered pair of consecutive labels repeats across discs with the
same entry signs.  That property is exactly what keeps the shield diagonals
of the Hadamard triangulations disjoint.

Sequences are indexed 1-based throughout (disc numbers, positions, cycle
labels), matching the file format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactmat import IntMatrix
from .hadamard import is_power_of_two


@dataclass(frozen=True)
class ValidSequence:
    """One ordering per disc.  Validity is decided by :func:`check_valid`,
    so the constructor only enforces shape: n tuples of n integers."""

    n: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sequence needs n >= 1")
        if len(self.perms) != self.n:
            raise ValueError(f"expected {self.n} orderings, got {len(self.perms)}")
        for i, p in enumerate(self.perms):
            if len(p) != self.n:
                raise ValueError(f"ordering {i + 1} has length {len(p)}, expected {self.n}")
            if not all(isinstance(x, int) for x in p):
                raise ValueError(f"ordering {i + 1} has non-integer labels")


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    condition: int | None = None
    detail: str = ""
    # (disc1, position1, disc2, position2), 1-based, for condition-2 failures
    violation: tuple[int, int, int, int] | None = None

    def __bool__(self):
        return self.ok


def check_valid(seq: ValidSequence, m: IntMatrix) -> ValidityReport:
    """Check a sequence against a +-1 square matrix.

    Condition 1: every ordering is a permutation of 1..n starting with 1.
    Condition 2: whenever two distinct discs carry the same ordered pair of
    cyclically consecutive labels, the matrix entries under at least one of
    the two labels differ in sign.

    Runs in O(n^2) by hashing (label pair, sign pair); reports the
    lexicographically first violating (disc1, pos1, disc2, pos2).
    """
    if any(e not in (1, -1) for e in m.entries):
        raise ValueError("validity is defined against a matrix with +-1 entries")
    if not m.is_square or m.rows != seq.n:
        raise ValueError(f"sequence for n={seq.n} cannot be checked against a {m.rows}x{m.cols} matrix")
    n = seq.n
    full = frozenset(range(1, n + 1))
    for i, p in enumerate(seq.perms, start=1):
        if frozenset(p) != full or len(p) != n:
            return ValidityReport(False, 1, f"disc {i}: not a permutation of 1..{n}")
        if p[0] != 1:
            return ValidityReport(False, 1, f"disc {i}: ordering starts with {p[0]}, not 1")

    seen: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    best: tuple[int, int, int, int] | None = None
    for i, p in enumerate(seq.perms, start=1):
        mrow = m.row(i - 1)
        for j in range(1, n + 1):
            a = p[j - 1]
            b = p[j % n]
            key = (a, b, mrow[a - 1], mrow[b - 1])
            first = seen.get(key)
            if first is None:
                seen[key] = (i, j)
            else:
                cand = (first[0], first[1], i, j)
                if best is None or cand < best:
                    best = cand
    if best is not None:
        i1, j1, i2, j2 = best
        a = seq.perms[i1 - 1][j1 - 1]
        b = seq.perms[i1 - 1][j1 % n]
        return ValidityReport(
            False,
            2,
            f"discs {i1} and {i2} repeat the pair ({a},{b}) at positions {j1} and {j2} "
            "with identical signs",
            best,
        )
    return ValidityReport(True, None, "ok")


def _doubled(perms: np.ndarray) -> np.ndarray:
    """Orderings for the doubled matrix, as one (2n, 2n) array: the rows
    are the plain copies [P, P + n], then the alternating merges
    [P + n*odd, P + n*even] (odd/even: the position of a label)."""
    n = perms.shape[0]
    odd = np.arange(n) % 2 * n
    return np.block([[perms, perms + n], [perms + odd, perms + (n - odd)]])


def extend_sequence(seq: ValidSequence) -> ValidSequence:
    """Sequence for the doubled matrix from one for the half-size matrix.

    Each ordering contributes two of length 2n: a plain copy followed by the
    copy shifted by n, and an alternating merge where the shift lands on the
    even positions of the first copy and the odd positions of the second.
    Validity is preserved.
    """
    perms = _doubled(np.array(seq.perms, dtype=np.int64))
    return ValidSequence(2 * seq.n, tuple(map(tuple, perms.tolist())))


def sequence_array(n: int) -> np.ndarray:
    """The canonical valid sequence for the order-n Walsh matrix as an
    (n, n) array of 1-based labels, one ordering per row.

    Obtained by iterated doubling from ((1)); total work O(n^2).
    """
    if not is_power_of_two(n):
        raise ValueError(f"order must be a power of two, got {n}")
    perms = np.ones((1, 1), dtype=np.int64)
    while len(perms) < n:
        perms = _doubled(perms)
    return perms


def valid_sequence(n: int) -> ValidSequence:
    """The canonical valid sequence for the order-n Walsh matrix."""
    return ValidSequence(n, tuple(map(tuple, sequence_array(n).tolist())))
