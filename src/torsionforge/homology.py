"""Exact simplicial homology of pure 2-complexes from sparse integer
boundary maps.

A complex is checked once by its constructor and frozen; its boundary
index comes from :func:`torsionforge.triangulation.validate_complex`,
which sorts the triangle sides once per call and raises on a complex with
no triangles or a claimed interior edge that is not an edge.  So this
module never indexes a complex itself: an edge is the pair of its
endpoint indices, and d2 is held as int64 coordinate arrays (triangle,
edge, sign), the signs of a triangle's sides (a,b), (a,c), (b,c) being
+1, -1, +1; the full index is dropped before the reduction rounds.
:func:`boundary_matrices` fills dense int64 d1 and d2 from the same
index.  Following Dumas, Heckenbach, Saunders and Welker (2003), most of
the work never reaches a dense Smith form:

- a spanning forest of the 1-skeleton, by min-root hooking and pointer
  jumping, gives H0 and rank d1.  Its edges leave the columns of d2: a
  vertex-edge coreduction after Mrozek and Batko ("Coreduction homology
  algorithm", DCG 2009), which keeps H1 as the cokernel of d2 on the
  other edges;
- d2 is then reduced by unit pivots in vectorised rounds, each adding 1
  to rank d2 and a unit invariant factor.  A round runs one fill-free
  step on the rows and then on the transpose.  The step deletes the
  column of every unit alone in its row, then contracts the rows holding
  exactly two unit entries (x_a = +-x_b) with the same forest helper,
  signed.  On the transpose it deletes the row of every unit alone in its
  column and merges the two rows of every column holding exactly two
  unit entries (a pair reduction after Kaczynski, Mrozek and Slusarek,
  1998).  Rounds repeat until one makes no pivot;
- a dense residue, in which every row left meets every column left,
  becomes one int64 numpy array by a single scatter and goes whole to
  :func:`torsionforge.exactmat.smith_normal_form`, units included.  For
  HMT(n), n >= 4, the residue is dense, n x n with every entry +-1, and
  the Smith form recognises it as walsh(n) up to signed row and column
  permutations and reads its factors off the checked Kronecker
  certificate of :mod:`torsionforge.hadamard`, not off the closed form
  that ``certify`` compares them with.  HMT(2) leaves [[-2]];
- any other residue (a Speyer chain, say) becomes ``{edge index: entry}``
  dicts in Python ints, whose unit entries are eliminated one by one,
  sparsest column first; only the rows and columns still nonzero
  afterwards (the core) are densified into a numpy matrix, int64 unless
  an entry outgrows it, and passed to the Smith form.  Either way the
  Smith form supplies the remaining rank and every torsion coefficient.

Every step is a unimodular row or column operation, so the result equals
the Smith form of the full d2.  A contraction that could sum entries past
int64 is not made; those entries go on to the Python-int elimination or
the Smith form, both exact at any size.  Simplices are oriented by
ascending vertex id; homology is independent of that convention (and the
test suite checks so by relabeling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactmat import AbelianGroup, free_group, group_from_factors, int_matrix, smith_normal_form
from .triangulation import SimplicialComplex2, validate_complex


@dataclass(frozen=True)
class HomologyResult:
    """H0, H1, H2 and ``face_vector`` (f0, f1, f2), the chain group ranks, f1
    from the boundary index; ``str`` and :meth:`as_tuple` show the groups."""
    h0: AbelianGroup
    h1: AbelianGroup
    h2: AbelianGroup
    face_vector: tuple[int, int, int]

    def as_tuple(self) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
        return (self.h0, self.h1, self.h2)

    def __str__(self):
        return f"H0 = {self.h0}; H1 = {self.h1}; H2 = {self.h2}"


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
    ev, te = validate_complex(k)
    d1 = np.zeros((len(ev), len(k.labels)), dtype=np.int64)
    d1[np.arange(len(ev))[:, None], ev] = (-1, 1)
    d2 = np.zeros((len(te), len(ev)), dtype=np.int64)
    d2[np.arange(len(te))[:, None], te] = (1, -1, 1)
    return d1, d2


_INT64_MAX = np.iinfo(np.int64).max


def _forest(n: int, a: np.ndarray, b: np.ndarray,
            sign: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spanning forest of the graph on range(n) whose edge e joins a[e] and
    b[e], by min-root hooking and pointer jumping on int arrays.

    Each round, every root with an edge to another tree hooks onto the
    least root it reaches, through the first such edge, and the trees are
    then flattened.  A hook always points to a smaller root, so the
    hooking edges form a forest.  Returns (root, rel, tree): root[v] is
    the least vertex of v's component and tree marks the forest's edges.
    With ``sign``, edge e states x[a[e]] = sign[e] * x[b[e]], and rel[v]
    is the +-1 with x[v] = rel[v] * x[root[v]] along the forest (all 1
    without ``sign``).
    """
    root = np.arange(n)
    rel = np.ones(n, dtype=np.int64)
    tree = np.zeros(len(a), dtype=bool)
    edge = np.arange(len(a))
    sign = np.ones(len(a), dtype=np.int64) if sign is None else sign
    while True:
        ra, rb = root[a], root[b]
        live = ra != rb
        if not live.any():
            return root, rel, tree
        a, b, sign, edge, ra, rb = (x[live] for x in (a, b, sign, edge, ra, rb))
        m = len(a)
        best = np.full(n, _INT64_MAX)
        np.minimum.at(best, np.maximum(ra, rb), np.minimum(ra, rb) * m + np.arange(m))
        hooked = np.flatnonzero(best != _INT64_MAX)
        pick = best[hooked] % m
        root[hooked] = best[hooked] // m
        rel[hooked] = rel[a[pick]] * sign[pick] * rel[b[pick]]
        tree[edge[pick]] = True
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            rel *= rel[root]
            root = up


def _contract(entries: list[np.ndarray], shape: tuple[int, int]) -> int:
    """Fill-free unit pivots on the rows of the matrix of the given shape
    whose entries are v at (r, c), in any order, given as the list
    ``entries`` = [r, c, v]: the list is emptied on entry, so the arrays
    it held are freed once this step has filtered them, and holds the
    (r, c, v) left on return.

    A row whose one entry is a unit s says s x_a = 0: its pivot deletes
    column a with all of its entries, and a second such row on column a
    becomes a zero row.  Then, on the entries left, a row holding exactly
    two unit entries s_a x_a + s_b x_b says x_a = -s_a s_b x_b in the
    cokernel.  Its pivot deletes the row and adds column a, times
    -s_a s_b, into column b.  The rows of a spanning forest of these
    relations are pivoted together: every column goes into its tree's
    root with the sign :func:`_forest` gives, and the entries that meet
    in one row and column are summed (a row that closes a cycle becomes
    one entry of 0 or +-2).  No contraction is made when a sum could
    pass int64.  Returns the number of pivots.  Called on [c, r, v] and
    the reversed shape, the same step works on the columns: a unit alone
    in its column deletes its row, and a column holding exactly two unit
    entries merges its two rows.
    """
    r, c, v = entries
    entries.clear()
    unit = np.abs(v) == 1
    dead = np.zeros(shape[1], dtype=bool)
    dead[c[unit & (np.bincount(r, minlength=shape[0])[r] == 1)]] = True
    keep = ~dead[c]
    r, c, v, unit = r[keep], c[keep], v[keep], unit[keep]
    dropped = int(np.count_nonzero(dead))
    rows = np.bincount(r, minlength=shape[0])
    units = np.bincount(r[unit], minlength=shape[0])
    pair = np.flatnonzero(((rows == 2) & (units == 2))[r])
    if not len(pair) or int(np.abs(v).max()) * int(rows.max()) > _INT64_MAX:
        entries[:] = r, c, v
        return dropped
    pair = pair[np.argsort(r[pair], kind="stable")]
    first, second = pair[0::2], pair[1::2]
    root, rel, tree = _forest(shape[1], c[first], c[second], -v[first] * v[second])
    dead = np.zeros(shape[0], dtype=bool)
    dead[r[first[tree]]] = True
    keep = ~dead[r]
    r, c, v = r[keep], root[c[keep]], v[keep] * rel[c[keep]]
    key = r * shape[1] + c
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    r, c, v = r[order[start]], c[order[start]], np.add.reduceat(v[order], start)
    nonzero = v != 0
    entries[:] = r[nonzero], c[nonzero], v[nonzero]
    return dropped + int(np.count_nonzero(tree))


def _reduce(entries: list[np.ndarray], shape: tuple[int, int]) -> tuple[int, np.ndarray | None]:
    """Unit pivots of the int64 matrix of the given shape with entries v at
    (r, c), given as the list ``entries`` = [r, c, v], which
    :func:`_contract` empties: rounds of it on the rows and on the columns
    until a round makes no pivot.  A dense residue, in which every row
    left meets every column left, is then one numpy scatter; any other
    residue goes row by row to :func:`_eliminate_unit_pivots` in Python
    ints, and its core to :func:`_densify`.  Returns the number of pivots
    and the matrix left for the dense Smith form, None if nothing is
    left; only a dense residue can still hold a unit."""
    pivots, made = 0, True
    while made:
        made = _contract(entries, shape)
        entries[:2] = entries[1::-1]  # the same step on the transpose
        made += _contract(entries, shape[::-1])
        entries[:2] = entries[1::-1]
        pivots += made
    r, c, v = entries
    entries.clear()
    order = np.argsort(r, kind="stable")
    r, c, v = r[order], c[order], v[order]
    bounds = np.flatnonzero(np.diff(r, prepend=-1))
    seen = np.zeros(shape[1], dtype=bool)
    seen[c] = True
    columns = np.flatnonzero(seen)
    if len(r) and len(r) == len(bounds) * len(columns):
        dense = np.zeros((len(bounds), len(columns)), dtype=np.int64)
        dense[np.arange(len(r)) // len(columns), np.searchsorted(columns, c)] = v
        return pivots, dense
    bounds = bounds.tolist() + [len(r)]
    cl, vl = c.tolist(), v.tolist()
    more, core = _eliminate_unit_pivots([dict(zip(cl[s:e], vl[s:e])) for s, e in zip(bounds, bounds[1:])])
    if not core:
        return pivots + more, None
    return pivots + more, _densify(core, sorted({j for row in core for j in row}))


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

    A spanning forest of the 1-skeleton gives H0 and rank d1, and its edges
    leave the columns of d2; unit pivots then reduce d2 (see
    :func:`_reduce`), and only what they leave goes through a dense Smith
    form (none when nothing is left)."""
    ev, te = validate_complex(k)
    n0, n1, n2 = len(k.labels), len(ev), len(te)
    # nothing below reads the complex: a caller that keeps no reference of
    # its own has it freed before the rounds
    del k
    root, _, tree = _forest(n0, ev[:, 0], ev[:, 1])
    components = int(np.count_nonzero(root == np.arange(n0)))
    r1 = n0 - components
    # d2 off the forest's columns; the full index is freed before the
    # rounds, and these entries by their first step
    keep = ~tree[te]
    r, side = np.nonzero(keep)
    entries = [r, te[keep], np.array([1, -1, 1])[side]]
    del ev, te, root, tree, keep, r, side
    r2, core = _reduce(entries, (n2, n1))
    torsion = ()
    if core is not None:
        snf = smith_normal_form(core)
        r2 += snf.rank
        torsion = snf.invariant_factors
    return HomologyResult(
        h0=free_group(components),
        h1=group_from_factors(torsion, n1 - r1 - r2),
        h2=free_group(n2 - r2),
        face_vector=(n0, n1, n2),
    )
