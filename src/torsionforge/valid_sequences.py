"""Valid sequences: per-disc orderings of the cycles of a +-1 matrix such
that no ordered pair of consecutive labels repeats across discs with the
same entry signs.  That property is exactly what keeps the shield diagonals
of the Hadamard triangulations disjoint.

A sequence is one read-only (n, n) int64 array of 1-based cycle labels,
row i the ordering of disc i + 1: built by doubling, checked by one sort,
and the same array is read, written and used by ``build_hmt``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hadamard import _require_power_of_two


@dataclass(frozen=True, eq=False)
class ValidSequence:
    """One ordering per disc, as the rows of a square int64 array.  Validity
    is decided by :func:`check_valid`, so the constructor only enforces
    shape and integer labels; it keeps a read-only copy."""

    perms: np.ndarray

    def __post_init__(self):
        perms = np.asarray(self.perms)
        if perms.ndim != 2 or perms.shape[0] != perms.shape[1] or not perms.size:
            raise ValueError(f"expected an (n, n) array of orderings with n >= 1, got shape {perms.shape}")
        if perms.dtype.kind not in "iu":
            raise ValueError(f"orderings must hold integer labels, got dtype {perms.dtype}")
        perms = perms.astype(np.int64)
        perms.flags.writeable = False
        object.__setattr__(self, "perms", perms)

    @property
    def n(self) -> int:
        return len(self.perms)

    def __eq__(self, other):
        if not isinstance(other, ValidSequence):
            return NotImplemented
        return np.array_equal(self.perms, other.perms)


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    condition: int | None = None
    detail: str = ""
    # (disc1, position1, disc2, position2), 1-based, for condition-2 failures
    violation: tuple[int, int, int, int] | None = None

    def __bool__(self):
        return self.ok


def check_valid(seq: ValidSequence, m: np.ndarray) -> ValidityReport:
    """Check a sequence against a +-1 square matrix.

    Condition 1: every ordering is a permutation of 1..n starting with 1;
    the first disc that breaks it is reported.
    Condition 2: whenever two distinct discs carry the same ordered pair of
    cyclically consecutive labels, the matrix entries under at least one of
    the two labels differ in sign.

    One stable sort of the (label pair, sign pair) keys of every position
    puts repeats next to each other in disc-major order; the
    lexicographically first violating (disc1, pos1, disc2, pos2) is the
    repeat whose first position comes first.
    """
    if not (np.abs(m) == 1).all():
        raise ValueError("validity is defined against a matrix with +-1 entries")
    n = seq.n
    if m.shape != (n, n):
        raise ValueError(f"sequence for n={n} cannot be checked against a {len(m)}x{m.shape[1]} matrix")
    perms = seq.perms
    not_perm = (np.sort(perms, axis=1) != np.arange(1, n + 1)).any(axis=1)
    bad = np.flatnonzero(not_perm | (perms[:, 0] != 1))
    if bad.size:
        i = int(bad[0])
        if not_perm[i]:
            return ValidityReport(False, 1, f"disc {i + 1}: not a permutation of 1..{n}")
        return ValidityReport(False, 1, f"disc {i + 1}: ordering starts with {perms[i, 0]}, not 1")

    negative = m < 0
    sign = np.take_along_axis(negative, perms - 1, axis=1)
    succ = np.roll(perms, -1, axis=1)
    keys = ((((perms - 1) * n + succ - 1) * 2 + sign) * 2 + np.roll(sign, -1, axis=1)).ravel()
    order = np.argsort(keys, kind="stable")
    repeats = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    if not repeats.size:
        return ValidityReport(True, None, "ok")
    k = repeats[np.argmin(order[repeats])]
    (i1, j1), (i2, j2) = divmod(int(order[k]), n), divmod(int(order[k + 1]), n)
    detail = (
        f"discs {i1 + 1} and {i2 + 1} repeat the pair ({perms[i1, j1]},{succ[i1, j1]}) "
        f"at positions {j1 + 1} and {j2 + 1} with identical signs"
    )
    return ValidityReport(False, 2, detail, (i1 + 1, j1 + 1, i2 + 1, j2 + 1))


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
    return ValidSequence(_doubled(seq.perms))


def valid_sequence(n: int) -> ValidSequence:
    """The canonical valid sequence for the order-n Walsh matrix, by
    iterated doubling from ((1)); total work O(n^2)."""
    _require_power_of_two(n)
    perms = np.ones((1, 1), dtype=np.int64)
    while len(perms) < n:
        perms = _doubled(perms)
    return ValidSequence(perms)
