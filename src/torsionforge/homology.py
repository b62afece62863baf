"""Exact simplicial homology of pure 2-complexes from sparse integer
boundary maps.

The boundaries are assembled once as sparse rows: an edge is the pair of
its endpoint indices, a triangle a ``{edge index: +-1}`` row.  A complex
is checked once by its constructor and frozen; both indices come from
:func:`torsionforge.triangulation.validate_complex`, which looks every
triangle side up among the edges once and raises on a claimed interior
edge that is not an edge, so this module never indexes a complex itself
and only adds the signs; :func:`boundary_matrices` fills
dense int64 d1 and d2 straight from the same index arrays.  Following
Dumas, Heckenbach, Saunders and Welker (2003), most of the work never
reaches a dense Smith form:

- rank d1 and H0 come from union-find on the 1-skeleton;
- every +-1 entry of d2 that survives is eliminated as a unit pivot,
  sparsest column first, each adding 1 to rank d2 and a unit invariant
  factor;
- only the rows and columns still nonzero afterwards (the core) are
  densified into a numpy matrix, int64 unless an entry outgrows it, and
  passed to :func:`torsionforge.exactmat.smith_normal_form`, which
  supplies the remaining rank and every torsion coefficient.

Unimodular row and column operations leave the invariant factors
unchanged, so the result equals the Smith form of the full d2.  Simplices
are oriented by ascending vertex id; homology is independent of that
convention (and the test suite checks so by relabeling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactmat import AbelianGroup, free_group, group_from_factors, int_matrix, smith_normal_form
from .triangulation import SimplicialComplex2, validate_complex


@dataclass(frozen=True)
class HomologyResult:
    h0: AbelianGroup
    h1: AbelianGroup
    h2: AbelianGroup

    def as_tuple(self) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
        return (self.h0, self.h1, self.h2)

    def __str__(self):
        return f"H0 = {self.h0}; H1 = {self.h1}; H2 = {self.h2}"


def _validated(k: SimplicialComplex2) -> tuple[np.ndarray, np.ndarray]:
    """The boundary index of ``k`` (see
    :func:`torsionforge.triangulation.validate_complex`); ValueError if
    ``k`` has no triangles."""
    if not len(k.triangles):
        raise ValueError("complex has no triangles")
    return validate_complex(k)


def _sparse_boundaries(k: SimplicialComplex2) -> tuple[int, list[tuple[int, int]], list[dict[int, int]]]:
    """Validate ``k`` and assemble its boundaries sparsely.

    Returns (vertex count, d1, d2): d1 lists each edge as its (tail, head)
    vertex indices, d2 each triangle as a ``{edge index: +-1}`` row.
    Simplex indices follow the sorted orders of the complex.
    """
    ev, te = _validated(k)
    d2 = [{ab: 1, ac: -1, bc: 1} for ab, ac, bc in zip(*te.T.tolist())]
    return len(k.labels), list(zip(*ev.T.tolist())), d2


def _densify(rows: list[dict[int, int]], columns) -> np.ndarray:
    """Dense matrix of sparse ``rows`` over the listed column ids, int64
    unless an entry outgrows it (a Speyer core holds k itself)."""
    where = {c: t for t, c in enumerate(columns)}
    dense = []
    for row in rows:
        line = [0] * len(where)
        for c, v in row.items():
            line[where[c]] = v
        dense.append(line)
    return int_matrix(dense)


def boundary_matrices(k: SimplicialComplex2) -> tuple[np.ndarray, np.ndarray]:
    """(edges x vertices, triangles x edges) dense int64 boundary matrices.

    Row (a, b) of the first has -1 at a and +1 at b; row (a, b, c) of the
    second has +1 at (a,b), -1 at (a,c), +1 at (b,c).  Their composition
    vanishes.  Simplex indices follow the sorted orders of the complex and
    come from the boundary index of the complex.
    """
    ev, te = _validated(k)
    d1 = np.zeros((len(ev), len(k.labels)), dtype=np.int64)
    d1[np.arange(len(ev))[:, None], ev] = (-1, 1)
    d2 = np.zeros((len(te), len(ev)), dtype=np.int64)
    d2[np.arange(len(te))[:, None], te] = (1, -1, 1)
    return d1, d2


def _component_count(n0: int, edges: list[tuple[int, int]]) -> int:
    """Connected components of the graph on range(n0), by union-find."""
    parent = list(range(n0))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components


def _eliminate_unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Eliminate the +-1 pivots of the sparse matrix ``rows``, in place.

    Each pass visits the columns in ascending order of their entry count
    (ties in order of first appearance).  A column holding a unit entry is
    pivoted on the sparsest such row (ties to the lowest row index): row
    operations clear the column, and the pivot row and column are deleted
    (the row is then cleared by column operations that touch nothing
    else).  Rows that become zero are deleted too.  Passes repeat until one
    makes no pivot.  Returns the number of pivots and the nonzero rows
    left, the core, which has no unit entries.
    """
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    alive = dict(enumerate(rows))

    pivots, before = 0, None
    while pivots != before:
        before = pivots
        for j in sorted(cols, key=lambda c: len(cols[c])):
            units = [r for r in cols[j] if alive[r][j] in (1, -1)]
            if not units:
                continue
            i = min(units, key=lambda r: (len(alive[r]), r))
            row = alive.pop(i)
            p = row[j]
            col = cols.pop(j)
            # pivot (i, j): clear column j from every other row
            col.discard(i)
            for r in col:
                target = alive[r]
                f = target.pop(j) * p
                for c, v in row.items():
                    if c == j:
                        continue
                    x = target.get(c, 0) - f * v
                    if x:
                        if c not in target:
                            cols[c].add(r)
                        target[c] = x
                    elif c in target:
                        del target[c]
                        cols[c].discard(r)
                if not target:
                    del alive[r]
            for c in row:
                if c != j:
                    cols[c].discard(i)
            pivots += 1
    return pivots, list(alive.values())


def simplicial_homology(k: SimplicialComplex2) -> HomologyResult:
    """Integer homology: free ranks from the two boundary ranks, torsion
    from the invariant factors of the triangle boundary.

    rank d1 is the vertex count minus the number of components; d2 is
    reduced by sparse unit-pivot elimination, and only its remaining core
    goes through a dense Smith form (none when the core is empty)."""
    n0, d1, d2 = _sparse_boundaries(k)
    n1, n2 = len(d1), len(d2)
    components = _component_count(n0, d1)
    r1 = n0 - components
    r2, core = _eliminate_unit_pivots(d2)
    torsion = ()
    if core:
        snf = smith_normal_form(_densify(core, sorted({c for row in core for c in row})))
        r2 += snf.rank
        torsion = snf.invariant_factors
    return HomologyResult(
        h0=free_group(components),
        h1=group_from_factors(torsion, n1 - r1 - r2),
        h2=free_group(n2 - r2),
    )
