"""Valid sequences: per-disc orderings of the cycles of a +-1 matrix such
that no ordered pair of consecutive labels repeats across discs with the
same entry signs.  That property is exactly what keeps the shield diagonals
of the Hadamard triangulations disjoint.

A sequence is one read-only (n, n) int64 array of 1-based cycle labels,
row i the ordering of disc i + 1: read off a closed form, checked by one
sort, and the same array is read, written and used by ``build_hmt``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hadamard import _require_power_of_two


@dataclass(frozen=True, eq=False)
class ValidSequence:
    """One ordering per disc, as the rows of a square int64 array.  Validity
    is decided by :func:`check_valid`, so the constructor only enforces
    shape and integer labels within int64; it keeps a read-only copy."""

    perms: np.ndarray

    def __post_init__(self):
        perms = np.asarray(self.perms)
        if perms.ndim != 2 or perms.shape[0] != perms.shape[1] or not perms.size:
            raise ValueError(f"expected an (n, n) array of orderings with n >= 1, got shape {perms.shape}")
        if perms.dtype == object and all(type(x) is int for x in perms.flat):
            # numpy holds Python ints past int64 as objects
            outside = next((x for x in perms.flat if not -(2**63) <= x < 2**63), None)
            if outside is not None:
                raise ValueError(f"orderings must hold labels within int64, got {outside}")
            perms = perms.astype(np.int64)
        if perms.dtype.kind not in "iu":
            raise ValueError(f"orderings must hold integer labels, got dtype {perms.dtype}")
        if perms.dtype.kind == "u" and perms.max() > np.iinfo(np.int64).max:
            raise ValueError(f"orderings must hold labels within int64, got {perms.max()}")
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
        raise ValueError(f"sequence for n={n} cannot be checked against a matrix of shape {m.shape}")
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


def valid_sequence(n: int) -> ValidSequence:
    """The canonical valid sequence for the order-n Walsh matrix, in closed
    form: disc i, position j (both 0-based) holds 1 + (j ^ (j & 1) * (i & -2)).
    Even positions hold j + 1; odd positions hold j XOR i, with bit 0 of i
    cleared, plus 1.

    This is the sequence doubled from ((1)): each ordering P for order m
    gives a plain row [P, P + m] and a merged row [P + m*odd, P + m*even]
    (odd, even: the parity of the position), and the merged rows are those
    whose disc has bit log2(m) set.  So the doubling sets bit log2(m) of
    label - 1.  In a plain row that bit equals the same bit of the position;
    in a merged row it equals that bit XOR the parity of the position, for
    m >= 2.  At m = 1 it equals position bit 0 in both kinds of row, hence
    bit 0 of i is cleared.
    """
    _require_power_of_two(n)
    i, j = np.ogrid[:n, :n]
    perms = (i & -2) * (j & 1)
    perms ^= j
    perms += 1
    return ValidSequence(perms)
