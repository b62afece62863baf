"""Pure 2-dimensional simplicial complexes held as integer arrays, and the
generic disc-complex triangulation: subdivide every cycle with two
vertices, ring each disc with an inner polygon of ceil(3s/2) fresh
vertices, cone the annulus, fan the inside.

Vertex ids are deterministic: 0, then the cycle subdivision vertices by
(cycle, copy), then disc-interior vertices by (disc, position).  Facet
output is therefore bit-exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .disc_complex import DiscComplexSpec

Triangle = tuple[int, int, int]


def _int_rows(x, width: int) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).reshape(-1, width)


def _ints(row) -> tuple[int, ...]:
    """A row as a tuple of Python ints, so messages print plain numbers."""
    return tuple(int(v) for v in row)


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the entries (or rows) of a sorted array that differ from the
    one before."""
    starts = np.ones(len(x), dtype=bool)
    diff = x[1:] != x[:-1]
    starts[1:] = diff.any(axis=1) if x.ndim == 2 else diff
    return starts


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """Ascending distinct values of x, by sorting and an adjacent-difference
    mask (np.unique takes a much slower hashing path on int64 keys)."""
    x = np.sort(x, axis=None)
    return x[_run_starts(x)]


def _index_in(ids: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of every entry of x in the ascending ids, and whether the
    entry is one of them."""
    idx = np.searchsorted(ids, x)
    if not len(ids):
        return idx, np.zeros(x.shape, dtype=bool)
    return idx, ids.take(idx, mode="clip") == x


def _lex_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts the rows lexicographically, and the mask
    of the sorted rows that differ from the one before."""
    order = np.lexsort(rows.T[::-1])
    return order, _run_starts(rows[order])


def _increasing(rows: np.ndarray) -> bool:
    """Whether consecutive rows increase strictly in lexicographic order."""
    later, earlier = rows[1:], rows[:-1]
    up = later[:, -1] > earlier[:, -1]
    for j in range(rows.shape[1] - 2, -1, -1):
        up = (later[:, j] > earlier[:, j]) | ((later[:, j] == earlier[:, j]) & up)
    return bool(up.all())


@dataclass(eq=False)
class SimplicialComplex2:
    """Vertex labels plus edge and triangle arrays.

    ``triangles`` is an (f2, 3) and ``edges`` an (f1, 2) int64 array; the
    constructor coerces array-likes to these shapes.  In a complex made by
    :func:`make_complex` every row is ascending and the rows are in
    lexicographic order, which the writers and the boundary assembly rely
    on; :func:`validate_complex` checks it for a complex assembled
    directly.

    ``claims`` lists the interior edges of the construction units
    (discs/digons) and ``claim_owner`` the index of each one's unit in
    ``owners``; the validator uses them to certify that no two units share
    an edge.  Complexes loaded from files carry no claims.
    """

    labels: dict[int, str]
    edges: np.ndarray
    triangles: np.ndarray
    claims: np.ndarray = ()
    claim_owner: np.ndarray = ()
    owners: tuple[str, ...] = ()

    def __post_init__(self):
        self.edges = _int_rows(self.edges, 2)
        self.triangles = _int_rows(self.triangles, 3)
        self.claims = _int_rows(self.claims, 2)
        self.claim_owner = np.asarray(self.claim_owner, dtype=np.int64).reshape(-1)
        if len(self.claim_owner) != len(self.claims):
            raise ValueError(f"{len(self.claims)} claimed edges but {len(self.claim_owner)} owners")

    def same_simplices(self, other: SimplicialComplex2) -> bool:
        """Same vertex ids, edges and triangles; both complexes canonical."""
        return (
            sorted(self.labels) == sorted(other.labels)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.triangles, other.triangles)
        )


@dataclass(frozen=True)
class FaceVector:
    f0: int
    f1: int
    f2: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.f0, self.f1, self.f2)


@dataclass(frozen=True)
class ValidationReport:
    """Whether a complex is valid, the problems found if not, and for a
    valid complex its boundary index: ``edge_vertices`` holds the (f1, 2)
    vertex indices of the edges and ``triangle_edges`` the (f2, 3) edge
    indices of each triangle's (a,b), (a,c), (b,c), with vertices indexed
    by ascending id and edges and triangles in the complex's order.  Both
    are None when the complex is invalid, and neither takes part in
    equality or printing."""

    ok: bool
    problems: tuple[str, ...] = ()
    edge_vertices: np.ndarray | None = field(default=None, compare=False, repr=False)
    triangle_edges: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.ok


def make_complex(
    labels: dict[int, str],
    triangles,
    claims=(),
    claim_owner=(),
    owners: tuple[str, ...] = (),
    edges=None,
) -> SimplicialComplex2:
    """The canonical complex on ``triangles``, checked in vectorised passes.

    Rejects degenerate triangles, triangles with a vertex outside
    ``labels``, duplicate triangles, and an interior edge claimed by two
    different owners (claim i is edge ``claims[i]`` for unit
    ``owners[claim_owner[i]]``; repeats by one owner count once).  Rows come
    out ascending and lexicographically sorted.  Edges are derived from the
    triangles unless given, in which case they are only put in canonical
    order and left for :func:`validate_complex` to check.
    """
    tri = np.sort(_int_rows(triangles, 3), axis=1)
    bad = np.flatnonzero((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]))
    if bad.size:
        raise ValueError(f"degenerate triangle {_ints(tri[bad[0]])}")
    vids = np.array(sorted(labels), dtype=np.int64)
    nv = len(vids)
    idx, known = _index_in(vids, tri)
    bad = np.flatnonzero(~known.all(axis=1))
    if bad.size:
        raise ValueError(f"triangle {_ints(tri[bad[0]])} uses an unknown vertex")

    order, starts = _lex_order(tri)
    if not starts.all():
        raise ValueError(f"duplicate triangle {_ints(tri[order[~starts].min()])}")
    tri = tri[order]

    if edges is None:
        a, b, c = idx.T
        ekeys = _sorted_unique(np.concatenate((a * nv + b, a * nv + c, b * nv + c)))
        edges = vids[np.stack((ekeys // nv, ekeys % nv), axis=1)]
    else:
        edges = np.sort(_int_rows(edges, 2), axis=1)
        edges = edges[_lex_order(edges)[0]]

    claims, claim_owner = _owned_claims(vids, claims, claim_owner, owners)
    return SimplicialComplex2(labels, edges, tri, claims, claim_owner, tuple(owners))


def _owned_claims(vids: np.ndarray, claims, owner, owners) -> tuple[np.ndarray, np.ndarray]:
    """One (edge, owner index) per claimed edge, sorted by edge; raises on
    an edge claimed by two owners, naming the first conflicting claim."""
    claims = np.sort(_int_rows(claims, 2), axis=1)
    owner = np.asarray(owner, dtype=np.int64).reshape(-1)
    nv = len(vids)
    idx, known = _index_in(vids, claims)
    bad = np.flatnonzero(~known.all(axis=1))
    if bad.size:
        raise ValueError(f"interior edge {_ints(claims[bad[0]])} uses an unknown vertex")
    keys = idx[:, 0] * nv + idx[:, 1]
    order = np.argsort(keys, kind="stable")
    keys, sorted_owner = keys[order], owner[order]
    first = _run_starts(keys)
    first_owner = sorted_owner[first][np.cumsum(first) - 1]
    clash = np.flatnonzero(sorted_owner != first_owner)
    if clash.size:
        at = clash[np.argmin(order[clash])]
        raise ValueError(
            f"interior edge {_ints(claims[order[at]])} claimed by both "
            f"{owners[first_owner[at]]} and {owners[sorted_owner[at]]}"
        )
    return claims[order[first]], sorted_owner[first]


def triangulate_generic(spec: DiscComplexSpec) -> SimplicialComplex2:
    """Triangulation of a disc-complex blueprint.

    Cycle j becomes the path 0 - v(j,1) - v(j,2) - 0.  A disc with word
    length s has boundary walk length 3s and gets an inner polygon of
    p = ceil(3s/2) vertices: vertex t of the polygon cones over walk
    positions 2t..2t+2 (the last one over just two when 3s is odd), a rung
    triangle joins consecutive polygon vertices, and the polygon interior is
    fanned from its first vertex.
    """
    n = spec.n_cycles
    labels = {0: "0"}
    for j in range(1, n + 1):
        labels[2 * (j - 1) + 1] = f"v{j}.1"
        labels[2 * (j - 1) + 2] = f"v{j}.2"
    nxt = 2 * n + 1

    triangles: list[Triangle] = []
    claims: list[tuple[int, int, int]] = []  # (u, v, owner index)
    for i, word in enumerate(spec.discs):
        walk: list[int] = []
        for letter in word:
            j = abs(letter)
            v1, v2 = 2 * (j - 1) + 1, 2 * (j - 1) + 2
            walk.extend((0, v1, v2) if letter > 0 else (0, v2, v1))
        size = len(walk)  # 3s
        p = (size + 1) // 2  # ceil(3s/2)
        inner = list(range(nxt, nxt + p))
        for t in range(p):
            labels[nxt + t] = f"c{i + 1}.{t + 1}"
        nxt += p

        for t in range(p):
            start = 2 * t
            steps = 1 if (size % 2 == 1 and t == p - 1) else 2
            for s_ in range(steps):
                u = walk[(start + s_) % size]
                w = walk[(start + s_ + 1) % size]
                triangles.append((inner[t], u, w))
                claims += ((inner[t], u, i), (inner[t], w, i))
            rung_v = walk[(start + steps) % size]
            triangles.append((inner[t], inner[(t + 1) % p], rung_v))
            claims += ((inner[t], inner[(t + 1) % p], i), (inner[(t + 1) % p], rung_v, i))
        for t in range(1, p - 1):
            triangles.append((inner[0], inner[t], inner[t + 1]))
            claims += ((inner[0], inner[t], i), (inner[0], inner[t + 1], i), (inner[t], inner[t + 1], i))

    claims_arr = _int_rows(claims, 3)
    owners = tuple(f"disc{i}" for i in range(1, len(spec.discs) + 1))
    return make_complex(labels, triangles, claims_arr[:, :2], claims_arr[:, 2], owners)


def vertex_count_formula(spec: DiscComplexSpec) -> int:
    """1 + 2n + sum of ceil(3s_i/2); what triangulate_generic produces."""
    return 1 + 2 * spec.n_cycles + sum((3 * len(w) + 1) // 2 for w in spec.discs)


def _row_problems(rows: np.ndarray, known: np.ndarray, what: str, bad_text: str) -> tuple[list[str], np.ndarray]:
    """Problems of rows with a repeated vertex or an unknown one, in row
    order, and the mask of rows without a repeated vertex."""
    srt = np.sort(rows, axis=1)
    proper = (srt[:, 1:] != srt[:, :-1]).all(axis=1)
    problems = []
    for i in np.flatnonzero(~proper | ~known.all(axis=1)):
        row = _ints(rows[i])
        if not proper[i]:
            problems.append(f"{bad_text} {row}")
        else:
            problems.extend(f"{what} {row} uses unknown vertex {v}" for v, ok in zip(row, known[i]) if not ok)
    return problems, proper


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows equal to an earlier row, ascending."""
    order, starts = _lex_order(rows)
    return np.sort(order[~starts])


def validate_complex(k: SimplicialComplex2) -> ValidationReport:
    """Report-style check of all structural invariants.

    Covers loop-freeness, duplicate simplices, closure (triangle edges are
    present, every edge and vertex lies in a triangle), vertex-set
    consistency, single ownership of claimed interior edges, and the
    canonical order of the arrays (ascending rows, sorted
    lexicographically).

    Closure looks every triangle side up once among the edges, encoded as
    keys ``i * nv + j`` of vertex indices; a valid complex's report keeps
    those lookups as its boundary index (see :class:`ValidationReport`).
    """
    tri, edges, claims = k.triangles, k.edges, k.claims
    vids = np.array(sorted(k.labels), dtype=np.int64)
    tidx, tknown = _index_in(vids, tri)
    eidx, eknown = _index_in(vids, edges)
    cidx, cknown = _index_in(vids, claims)
    ids = vids
    if not (tknown.all() and eknown.all() and cknown.all()):
        # index every id that occurs, so unknown ones can still be compared
        ids = _sorted_unique(np.concatenate((vids, tri.ravel(), edges.ravel(), claims.ravel())))
        tidx, eidx, cidx = (np.searchsorted(ids, x) for x in (tri, edges, claims))
    nv = len(ids)

    problems, proper = _row_problems(tri, tknown, "triangle", "degenerate triangle")
    tsorted = np.sort(tidx[proper], axis=1)
    if proper.all() and np.array_equal(tsorted, tidx) and _increasing(tidx):
        tris = tidx
    else:
        dups = _repeats(tsorted)
        problems += [f"duplicate triangle {_ints(ids[tsorted[i]])}" for i in dups]
        if proper.all() and not dups.size:
            problems.append("triangles are not in canonical order (ascending rows, lexicographically sorted)")
        tris = np.delete(tsorted, dups, axis=0)

    edge_problems, not_loop = _row_problems(edges, eknown, "edge", "loop or malformed edge")
    problems += edge_problems
    esorted = np.sort(eidx[not_loop], axis=1)
    ekeys = esorted[:, 0] * nv + esorted[:, 1]
    if not (not_loop.all() and np.array_equal(esorted, eidx) and _increasing(eidx)):
        if _repeats(esorted).size:
            problems.append("duplicate edges present")
        elif not_loop.all():
            problems.append("edges are not in canonical order (ascending rows, lexicographically sorted)")
        ekeys = _sorted_unique(ekeys)

    a, b, c = tris.T
    # one row per triangle side, so each row's keys come in near-ascending
    # runs, which binary search walks faster than interleaved sides
    tedges, present = _index_in(ekeys, np.stack((a * nv + b, a * nv + c, b * nv + c)))
    for i in np.flatnonzero(~present.all(axis=0)):
        t = _ints(ids[tris[i]])
        pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        problems.extend(f"triangle {t} misses edge {e}" for e, ok in zip(pairs, present[:, i]) if not ok)
    hit = np.zeros(len(ekeys), dtype=bool)
    hit[tedges[present]] = True
    problems += [f"edge {_ints(ids[[e // nv, e % nv]])} lies in no triangle" for e in ekeys[~hit]]
    covered = np.zeros(nv, dtype=bool)
    covered[tris.ravel()] = True
    problems += [f"vertex {int(v)} lies in no triangle" for v in vids[~covered[np.searchsorted(ids, vids)]]]

    ckeys = cidx[:, 0] * nv + cidx[:, 1]
    _, is_edge = _index_in(ekeys, ckeys)
    problems += [f"claimed interior edge {_ints(e)} is not an edge of the complex" for e in claims[~is_edge]]
    if not (ckeys[1:] > ckeys[:-1]).all():  # unsorted, or some edge claimed twice
        order = np.argsort(ckeys, kind="stable")
        ckeys, owner = ckeys[order], k.claim_owner[order]
        for key in _sorted_unique(ckeys[1:][(ckeys[1:] == ckeys[:-1]) & (owner[1:] != owner[:-1])]):
            names = sorted({k.owners[o] for o in owner[ckeys == key]})
            if len(names) > 1:
                problems.append(f"interior edge {_ints(ids[[key // nv, key % nv]])} shared by {names}")

    if problems:
        return ValidationReport(False, tuple(problems))
    return ValidationReport(True, (), eidx, tedges.T)


def face_vector(k: SimplicialComplex2) -> FaceVector:
    return FaceVector(len(k.labels), len(k.edges), len(k.triangles))


def euler_characteristic(k: SimplicialComplex2) -> int:
    fv = face_vector(k)
    return fv.f0 - fv.f1 + fv.f2
