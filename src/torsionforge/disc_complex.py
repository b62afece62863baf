"""CW blueprints from integer matrices: one base vertex, one edge cycle per
column, one polygonal disc per row whose boundary word spells out the row.

Homology of any such complex depends only on the matrix, so it is computed
directly from the Smith normal form without building geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactmat import AbelianGroup, free_group, group_from_factors, smith_normal_form

ORDERINGS = ("grouped", "interleaved")


@dataclass(frozen=True)
class DiscComplexSpec:
    """Boundary words of the discs, as signed 1-based cycle indices.

    A letter +j traverses cycle j forward, -j backward.  All occurrences of
    a cycle within one word must share orientation (they realize one matrix
    entry), and every cycle must be used by some disc.  ``n_cycles`` and
    every letter must be ints, not bools, and ``discs`` is kept as a tuple
    of tuples whatever sequences it was given as.
    """

    n_cycles: int
    discs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.n_cycles, int) or isinstance(self.n_cycles, bool):
            raise ValueError(f"n_cycles must be an int, got {self.n_cycles!r}")
        if self.n_cycles < 1:
            raise ValueError("spec needs at least one cycle")
        object.__setattr__(self, "discs", tuple(tuple(word) for word in self.discs))
        if not self.discs:
            raise ValueError("spec needs at least one disc")
        used = set()
        for i, word in enumerate(self.discs, start=1):
            if not word:
                raise ValueError(f"disc {i} has an empty boundary word")
            signs: dict[int, int] = {}
            for letter in word:
                if not isinstance(letter, int) or isinstance(letter, bool) or letter == 0:
                    raise ValueError(f"disc {i}: letter {letter!r} is not a signed cycle index")
                j = abs(letter)
                if j > self.n_cycles:
                    raise ValueError(f"disc {i}: cycle {j} exceeds n_cycles={self.n_cycles}")
                sgn = 1 if letter > 0 else -1
                if signs.setdefault(j, sgn) != sgn:
                    raise ValueError(
                        f"disc {i}: cycle {j} appears with both orientations; "
                        "a word realizes one matrix entry per cycle"
                    )
                used.add(j)
        missing = sorted(set(range(1, self.n_cycles + 1)) - used)
        if missing:
            raise ValueError(f"cycle {missing[0]} is used by no disc (zero column)")


def _reject_zero_lines(m: np.ndarray) -> None:
    """Raise ValueError naming the first zero row, else the first zero column."""
    nonzero = m != 0
    for axis, line in ((1, "row"), (0, "column")):
        zero = np.flatnonzero(~nonzero.any(axis=axis))
        if zero.size:
            raise ValueError(f"{line} {zero[0] + 1} of the matrix is zero")


# Largest total word length sum |a_ij| that :func:`from_matrix` accepts.
# Each letter becomes a few triangles: `torsionforge triangulate` on the
# 1x1 matrix (262144) took 1.5 s and 585 MB peak RSS in a fresh process on
# a 2-vCPU Xeon, and time and memory grow linearly in the word length.
MAX_WORD_LETTERS = 1 << 18


def from_matrix(m: np.ndarray, ordering: str = "grouped") -> DiscComplexSpec:
    """Boundary words for a matrix with no zero rows or columns and at most
    MAX_WORD_LETTERS letters in all.

    "grouped" emits all copies of column 1, then column 2, ...;
    "interleaved" sorts the copies by (copy, column), dealing one copy of
    each remaining column per round.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    _reject_zero_lines(m)
    rows = m.tolist()
    letters = sum(abs(x) for row in rows for x in row)
    if letters > MAX_WORD_LETTERS:
        raise ValueError(f"matrix needs {letters} boundary letters, more than the {MAX_WORD_LETTERS} allowed")
    words = []
    for row in rows:
        # copy r of column j as (r, j, letter), built in (j, r) order
        copies = [(r, j, j if x > 0 else -j) for j, x in enumerate(row, start=1) if x for r in range(abs(x))]
        if ordering == "interleaved":
            copies.sort()
        words.append(tuple(letter for _, _, letter in copies))
    return DiscComplexSpec(m.shape[1], tuple(words))


def cellular_homology(m: np.ndarray) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
    """(H0, H1, H2) of every complex built on ``m``.

    The matrix itself is the boundary map from discs to cycles: H0 = Z,
    H1 has free rank cols - rank plus the torsion of the Smith diagonal,
    H2 is free of rank rows - rank.
    """
    _reject_zero_lines(m)
    snf = smith_normal_form(m)
    r = snf.rank
    return (
        free_group(1),
        group_from_factors(snf.invariant_factors, m.shape[1] - r),
        free_group(len(m) - r),
    )
