"""Pure 2-dimensional simplicial complexes held as integer arrays, checked
once by their constructor on int32 vertex indices, packed into one int64
key per triangle, and frozen, with edges derived on first read; their
boundary index, from one sort of the triangle sides per call, which
checks that every claimed interior edge is an edge; and the generic
disc-complex triangulation: subdivide every cycle with two vertices, ring
each disc with an inner polygon of ceil(3s/2) fresh vertices, cone the
annulus, fan the inside, and claim every side that ends at an inner
vertex.

Vertex ids are deterministic: 0, then the cycle subdivision vertices by
(cycle, copy), then disc-interior vertices by (disc, position).  Facet
output is therefore bit-exact across runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .disc_complex import DiscComplexSpec

# Vertices a complex may have: every vertex index, and every claim's owner
# index, fits in _BITS bits, so the three indices of a triangle, or the two
# of an edge and its owner's, pack into one int64 key (see :func:`_pack`).
MAX_VERTICES = 2**21
_BITS = 21
_MASK = 2**_BITS - 1


def _int_rows(x, *width: int) -> np.ndarray:
    """x reshaped to (-1, *width): as it is if it is an array of a signed
    integer dtype, else coerced to int64."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind == "i"):
        x = np.asarray(x, dtype=np.int64)
    return x.reshape(-1, *width)


def _sorted_columns(rows: np.ndarray) -> list[np.ndarray]:
    """The columns of an (m, 2) or (m, 3) array with each row sorted
    ascending, by compare-exchange of whole columns (np.sort along rows is
    slower)."""
    cols = list(rows.T)
    for i, j in [(0, 1)] if len(cols) == 2 else [(0, 1), (1, 2), (0, 1)]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return cols


def _pack(*columns: np.ndarray) -> np.ndarray:
    """One int64 key per row of the columns, indices below 2**_BITS, the
    first column in the highest bits: the keys sort as the rows do."""
    keys = columns[0].astype(np.int64)
    for c in columns[1:]:
        keys <<= _BITS
        keys |= c
    return keys


def _unpack(keys: np.ndarray, *out: np.ndarray) -> None:
    """Write the fields of every key of :func:`_pack` into the int64 arrays
    ``out``, one per column."""
    *high, low = out
    for i, o in enumerate(high):
        np.right_shift(keys, _BITS * (len(out) - 1 - i), out=o)
        if i:
            o &= _MASK
    np.bitwise_and(keys, _MASK, out=low)


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


def _is_run(ids: np.ndarray) -> bool:
    """Whether the ascending distinct ids are one nonempty contiguous run."""
    return len(ids) > 0 and int(ids[-1]) - int(ids[0]) == len(ids) - 1


def _index_in(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Position of every entry of x in the ascending distinct ids, if it is
    one (see :func:`_unknown_rows`): by offset when the ids form one
    contiguous run, else by binary search."""
    if _is_run(ids):
        return x - ids[0]
    return np.searchsorted(ids, x)


def _unknown_rows(ids: np.ndarray, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Indices of the rows of x with an entry outside the ids, given idx
    from :func:`_index_in`: an offset out of range (one that wraps past
    int64 lands below 0 or at len(ids) and beyond, as the last id is an
    int64), or a searched position that holds another id."""
    n = len(ids)
    known = (0 <= idx) & (idx < n)
    if n and not _is_run(ids):
        known &= ids.take(idx, mode="clip") == x
    if known.all():
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~known.all(axis=1))


def _vertex_indices(ids: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """The int32 position of every entry of x in the ascending distinct
    ids, or None if some entry is not one of them: by offset when the ids
    form one contiguous run (x itself when it is int32 and the run starts
    at 0), else by binary search."""
    if not x.size:
        return np.zeros(x.shape, dtype=np.int32)
    if not len(ids) or x.min() < ids[0] or x.max() > ids[-1]:
        return None
    if _is_run(ids):
        # every entry lies in the run, so its offset is exact in int64
        idx = np.subtract(x, ids[0], dtype=np.int64) if ids[0] else x
    else:
        idx = np.searchsorted(ids, x)
        if not (ids[idx] == x).all():
            return None
    return idx.astype(np.int32, copy=False)


def _ids(ids: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The ids at the int64 positions idx, written over idx when the ids
    form one contiguous run."""
    if not _is_run(ids):
        return ids[idx]
    if ids[0]:
        idx += ids[0]
    return idx


@dataclass(frozen=True, eq=False)
class SimplicialComplex2:
    """A pure 2-complex: vertex labels, triangles and the edges they span,
    valid for its lifetime.

    The constructor reads ``triangles`` as (f2, 3) integers (an array of a
    signed integer dtype as it is, anything else coerced to int64), sorts
    every row ascending and the rows lexicographically, and raises
    ValueError on more than MAX_VERTICES labels or owners, a degenerate
    triangle, a triangle or claim with a vertex outside ``labels``, a
    duplicate triangle, a label that lies in no triangle, a claim owner
    index outside range(len(owners)), and an interior edge claimed by two
    different owners.  It works on int32 vertex indices, and sorts the
    triangles, and the claims, as one int64 key each that packs the
    indices (see :func:`_pack`); a fault is named by a scan of the input
    in the order of the checks above.  ``edges`` is neither a parameter
    nor a field: the distinct sides of the triangles, an (f1, 2) int64
    array in the same canonical order, are derived on its first read and
    kept.  The complex is frozen and the int64 arrays it keeps are
    read-only, so no field, nor ``edges``, can be reassigned and no array
    written after these checks; ``labels`` is kept as a read-only mapping
    over a copy of the one given.

    ``claims`` lists the interior edges of the construction units
    (discs/digons) and ``claim_owner`` the index of each one's unit in
    ``owners``; claim i is edge ``claims[i]`` for unit
    ``owners[claim_owner[i]]``, and repeats by one owner count once.  They
    are kept once per edge, sorted by edge.  Complexes loaded from files
    carry no claims.
    """

    labels: Mapping[int, str]
    triangles: np.ndarray
    claims: np.ndarray = ()
    claim_owner: np.ndarray = ()
    owners: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        if len(self.labels) > MAX_VERTICES:
            raise ValueError(f"{len(self.labels)} vertices, more than the {MAX_VERTICES} allowed")
        tri = _int_rows(self.triangles, 3)
        vids = np.array(sorted(self.labels), dtype=np.int64)
        idx = _vertex_indices(vids, tri)
        if idx is None:
            _triangle_fault(vids, self.triangles)
        # every array is dropped once it is used, which keeps the peak
        # memory of a build down
        del tri
        a, b, c = _sorted_columns(idx)
        del idx
        if (a == b).any() or (b == c).any():
            _triangle_fault(vids, self.triangles)
        covered = np.zeros(len(vids), dtype=bool)
        covered[a] = covered[b] = covered[c] = True
        # the sorted keys are the triangles in lexicographic order; a
        # facet file's keys ascend already
        keys = _pack(a, b, c)
        del a, b, c
        if not (keys[1:] > keys[:-1]).all():
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                _triangle_fault(vids, self.triangles)
        if not covered.all():
            raise ValueError(f"vertex {int(vids[~covered][0])} lies in no triangle")

        triangles = np.empty((len(keys), 3), dtype=np.int64)
        _unpack(keys, *triangles.T)
        del keys
        triangles = _ids(vids, triangles)
        claims, claim_owner = _owned_claims(vids, self.claims, self.claim_owner, self.owners)
        for name, x in (("triangles", triangles), ("claims", claims), ("claim_owner", claim_owner)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)
        object.__setattr__(self, "owners", tuple(self.owners))

    @cached_property
    def edges(self) -> np.ndarray:
        """The distinct sides of the triangles, read-only (see above)."""
        vids, keys = _side_keys(self)
        edges = vids[np.stack(np.divmod(_sorted_unique(keys), len(vids)), axis=1)]
        edges.flags.writeable = False
        return edges


def _triangle_fault(vids: np.ndarray, triangles):
    """Raise on the first fault of the triangles, in the order the
    constructor lists them: a degenerate triangle, then one with a vertex
    that is not among the ascending ids, then the first repeat in input
    order.  Each names the first such row in input order, sorted."""
    tri = np.sort(_int_rows(triangles, 3), axis=1)
    bad = np.flatnonzero((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]))
    if bad.size:
        raise ValueError(f"degenerate triangle {_ints(tri[bad[0]])}")
    bad = _unknown_rows(vids, tri, _index_in(vids, tri))
    if bad.size:
        raise ValueError(f"triangle {_ints(tri[bad[0]])} uses an unknown vertex")
    order = np.lexsort(tri.T[::-1])
    raise ValueError(f"duplicate triangle {_ints(tri[order[~_run_starts(tri[order])].min()])}")


def _owned_claims(vids: np.ndarray, claims, owner, owners) -> tuple[np.ndarray, np.ndarray]:
    """One (edge, owner index) per claimed edge, sorted by edge; raises on
    a claim whose vertex is not a label or whose owner index is outside
    range(len(owners)), and on an edge claimed by two owners, naming the
    first conflicting claim in input order."""
    claims = _int_rows(claims, 2)
    owner = _int_rows(owner)
    if len(owner) != len(claims):
        raise ValueError(f"{len(claims)} claimed edges but {len(owner)} owners")
    m = len(owners)
    if m > MAX_VERTICES:
        raise ValueError(f"{m} owners, more than the {MAX_VERTICES} allowed")
    idx = _vertex_indices(vids, claims)
    if idx is None:
        at = _unknown_rows(vids, claims, _index_in(vids, claims))[0]
        raise ValueError(f"interior edge {_ints(np.sort(claims[at]))} uses an unknown vertex")
    if len(owner) and (owner.min() < 0 or owner.max() >= m):
        at = np.flatnonzero((owner < 0) | (owner >= m))[0]
        raise ValueError(f"interior edge {_ints(np.sort(claims[at]))} has owner index {int(owner[at])}, not one of {m} owners")
    p, q = _sorted_columns(idx)
    del idx
    # one key (edge, owner) per claim: its distinct sorted values are the
    # claims by edge, unless some edge comes with two owners
    keys = _pack(p, q, owner)
    keys.sort()
    keys = keys[_run_starts(keys)]
    edge = keys >> _BITS
    if (edge[1:] == edge[:-1]).any():
        edge = _pack(p, q)
        order = np.argsort(edge, kind="stable")
        sorted_owner = owner[order]
        first = _run_starts(edge[order])
        first_owner = sorted_owner[first][np.cumsum(first) - 1]
        clash = np.flatnonzero(sorted_owner != first_owner)
        at = clash[np.argmin(order[clash])]
        raise ValueError(
            f"interior edge {_ints(np.sort(claims[order[at]]))} claimed by both "
            f"{owners[first_owner[at]]} and {owners[sorted_owner[at]]}"
        )
    del edge, p, q
    out = np.empty((len(keys), 2), dtype=np.int64)
    claim_owner = np.empty(len(keys), dtype=np.int64)
    _unpack(keys, *out.T, claim_owner)
    return _ids(vids, out), claim_owner


def triangulate_generic(spec: DiscComplexSpec) -> SimplicialComplex2:
    """Triangulation of a disc-complex blueprint.

    Cycle j becomes the path 0 - v(j,1) - v(j,2) - 0.  A disc with word
    length s has the closed boundary walk w of length 3s (w[3s] = w[0] = 0)
    and gets a closed inner polygon c of p = ceil(3s/2) vertices
    (c[p] = c[0]).  It emits three kinds of triangle: the cones
    (c[q//2], w[q], w[q+1]) for q < 3s, so the last polygon vertex cones
    over one walk step when 3s is odd; the rungs (c[t], c[t+1],
    w[min(2t+2, 3s)]) for t < p; and the fan (c[0], c[t], c[t+1]) of the
    polygon interior for 0 < t < p-1.  The disc claims the sides of its
    triangles that end at an inner vertex, that is above 2n.
    """
    n = spec.n_cycles
    labels = {0: "0"}
    for j in range(1, n + 1):
        labels[2 * j - 1] = f"v{j}.1"
        labels[2 * j] = f"v{j}.2"
    nxt = 2 * n + 1

    triangles: list[tuple[int, int, int]] = []
    owner: list[int] = []
    for i, word in enumerate(spec.discs):
        w = [v for x in word for v in ((0, 2 * x - 1, 2 * x) if x > 0 else (0, -2 * x, -2 * x - 1))] + [0]
        size = len(w) - 1  # 3s
        p = (size + 1) // 2
        c = [*range(nxt, nxt + p), nxt]
        labels.update((nxt + t, f"c{i + 1}.{t + 1}") for t in range(p))
        nxt += p
        tris = [(c[q // 2], w[q], w[q + 1]) for q in range(size)]
        tris += [(c[t], c[t + 1], w[min(2 * t + 2, size)]) for t in range(p)]
        tris += [(c[0], c[t], c[t + 1]) for t in range(1, p - 1)]
        triangles += tris
        owner += [i] * len(tris)

    tri = _int_rows(triangles, 3)
    sides = tri[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
    inner = sides.max(axis=1) > 2 * n
    claims, claim_owner = sides[inner], np.repeat(owner, 3)[inner]
    # the triangle tuples (in `triangles`, and the last disc's in `tris`),
    # sides and owner list are dropped before the constructor, which keeps
    # the peak memory of a build down
    del triangles, tris, sides, inner, owner
    owners = tuple(f"disc{i}" for i in range(1, len(spec.discs) + 1))
    return SimplicialComplex2(labels, tri, claims, claim_owner, owners)


def _side_keys(k: SimplicialComplex2) -> tuple[np.ndarray, np.ndarray]:
    """Ascending vertex ids, and the keys i * nv + j of all sides (a,b), then (a,c), then (b,c)."""
    vids = np.array(sorted(k.labels), dtype=np.int64)
    nv = len(vids)
    a, b, c = _index_in(vids, k.triangles).T
    return vids, np.concatenate((a * nv + b, a * nv + c, b * nv + c))


def validate_complex(k: SimplicialComplex2) -> tuple[np.ndarray, np.ndarray]:
    """The boundary index of ``k``: the (f1, 2) vertex indices of its edges
    and the (f2, 3) edge indices of each triangle's sides (a,b), (a,c),
    (b,c), with vertices indexed by ascending id and edges and triangles in
    the complex's order.

    Both come from one stable argsort of the side keys ``i * nv + j``, whose
    near-ascending runs it merges fast, made on each call and kept by
    nobody: the distinct sorted keys are the edges, and a side's edge
    index is the count of distinct keys up to its own.  ValueError if ``k``
    has no triangles or a claimed interior edge is not an edge.
    """
    if not len(k.triangles):
        raise ValueError("complex has no triangles")
    vids, keys = _side_keys(k)
    nv = len(vids)
    order = np.argsort(keys, kind="stable")
    starts = _run_starts(keys[order])
    keys = keys[order[starts]]
    sides = np.empty_like(order)
    sides[order] = np.cumsum(starts) - 1
    cidx = _index_in(vids, k.claims)
    claimed = (cidx[:, 0] * nv + cidx[:, 1])[:, None]
    bad = _unknown_rows(keys, claimed, _index_in(keys, claimed))
    if bad.size:
        edge = _ints(k.claims[bad[0]])
        raise ValueError(f"invalid complex: claimed interior edge {edge} is not an edge of the complex")
    return np.stack(np.divmod(keys, nv), axis=1), sides.reshape(3, -1).T
