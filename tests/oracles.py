"""Independent brute-force oracles.  Nothing here shares code with the
package: determinants come from cofactor expansion or fraction-free
Bareiss elimination, determinants modulo a prime from Gaussian elimination
on Python ints, invariant factors from gcds of k x k minors or from a
diagonal form by extended-gcd elimination, components from union-find,
sequence validity from the direct quartic scan of the definition,
Hadamard-ness from the Gram matrix, and HMT(n) and the generic
disc-complex triangulation from face-by-face plain-Python constructions,
the latter's words by dealing out letters, its vertex count by a closed
form, and the matrix a blueprint realizes by counting letters.  Face
vectors count a set of Python tuples.  Speyer's matrix M(k) is a dense
matrix of identity diagonals.  Rows of integers
become text by one join of Python strings, each distinct value's words
made once and looked up by index.

One exception shares the package's valid sequence and constructor:
:func:`hmt_reference`, the array builder of HMT(n) as it was before its
signs came from ``walsh(n)``, with popcount parity signs and separate id
formulas for rings, centers, digons and labels.  And
:func:`low_growth_pivot` is the sweep's tie-break rule as first written,
kept to check the later, cheaper search against, and
:func:`complex_fields_reference` is the constructor of
``SimplicialComplex2`` as it was before it packed int32 vertex indices
into shifted keys, with the helpers it used copied beside it.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

import numpy as np

from torsionforge.triangulation import SimplicialComplex2
from torsionforge.valid_sequences import valid_sequence


def det_cofactor(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def det_bareiss(m: np.ndarray) -> int:
    """Exact determinant by fraction-free elimination on Python ints."""
    n, cols = m.shape
    if n != cols:
        raise ValueError(f"determinant needs a square matrix, got {n}x{cols}")
    a = m.tolist()
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


def det_mod(rows, q: int) -> int:
    """The determinant of the integer matrix ``rows`` modulo the prime
    ``q``, in [0, q), by Gaussian elimination on Python ints."""
    a = [[x % q for x in r] for r in rows]
    n = len(a)
    det = 1
    for k in range(n):
        i = next((i for i in range(k, n) if a[i][k]), None)
        if i is None:
            return 0
        if i != k:
            a[k], a[i] = a[i], a[k]
            det = -det
        piv = a[k]
        det = det * piv[k] % q
        inv = pow(piv[k], -1, q)
        for r in a[k + 1 :]:
            f = r[k] * inv % q
            if f:
                r[k:] = [(x - f * y) % q for x, y in zip(r[k:], piv[k:])]
    return det


def snf_factors_by_minor_gcds(rows) -> list[int]:
    """alpha_k = d_k / d_{k-1}, d_k = gcd of all k x k minors (d_0 = 1).

    Exponential; fine for the tiny matrices the tests feed it.
    """
    m, n = len(rows), len(rows[0])
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ris in combinations(range(m), k):
            for cjs in combinations(range(n), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                g = gcd(g, det_cofactor(sub))
            if g == 1:
                # gcd over the remaining minors cannot shrink further
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def snf_factors_by_elimination(rows) -> list[int]:
    """Invariant factors from a diagonal form.  Each pivot's row and column
    are cleared by unimodular 2 x 2 extended-gcd combinations, so the pivot
    becomes the gcd instead of moving to the smallest entry; the diagonal is
    then put in divisibility order by (a, b) -> (gcd, lcm).

    Polynomial, for the matrices too large for the minor gcds.
    """
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    diag = []
    for k in range(min(m, n)):
        at = next(((i, j) for i in range(k, m) for j in range(k, n) if a[i][j]), None)
        if at is None:
            break
        i, j = at
        a[k], a[i] = a[i], a[k]
        for r in a:
            r[k], r[j] = r[j], r[k]
        while any(a[i][k] for i in range(k + 1, m)) or any(a[k][j] for j in range(k + 1, n)):
            for i in range(k + 1, m):
                a[k], a[i] = _gcd_combination(a[k], a[i], a[k][k], a[i][k])
            cols = [list(c) for c in zip(*a)]
            for j in range(k + 1, n):
                cols[k], cols[j] = _gcd_combination(cols[k], cols[j], cols[k][k], cols[j][k])
            a = [list(r) for r in zip(*cols)]
        diag.append(abs(a[k][k]))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _gcd_combination(u, v, x, y):
    """Rows (u', v') = U (u, v) for a unimodular U taking (x, y) to (g, 0),
    x != 0; U is a plain row subtraction when x divides y."""
    if y % x == 0:
        return u, [b - y // x * a for a, b in zip(u, v)]
    # s x + t y = g by the extended Euclidean algorithm
    r0, r1, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    g = r0
    return ([s0 * a + t0 * b for a, b in zip(u, v)],
            [-y // g * a + x // g * b for a, b in zip(u, v)])


def snf_factors(rows) -> list[int]:
    """Invariant factors by the minor gcds up to 5 x 5, else by elimination."""
    if max(len(rows), len(rows[0])) <= 5:
        return snf_factors_by_minor_gcds(rows)
    return snf_factors_by_elimination(rows)


def low_growth_pivot(sub: np.ndarray) -> tuple[int, int] | None:
    """The low-growth pivot of the int64 block ``sub``, or None when it is
    all zero: among the entries of least nonzero magnitude, the first row
    whose largest magnitude is least, and in it the first such entry whose
    column's largest magnitude is least.  The sweep's first formulation of
    that rule, copying the tied rows."""
    mag = np.abs(sub)
    if not mag.any():
        return None
    least = mag[mag > 0].min()
    ties = mag == least
    rows = np.flatnonzero(ties.any(axis=1))
    i = rows[mag[rows].max(axis=1).argmin()]
    cols = np.flatnonzero(ties[i])
    return int(i), int(cols[mag[:, cols].max(axis=0).argmin()])


def component_count(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in vertices})


def is_hadamard_by_gram(h: np.ndarray) -> bool:
    """All entries +-1 and h h^T = n I, n the order of the square h."""
    n = len(h)
    return h.shape == (n, n) and (abs(h) == 1).all() and np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64))


def check_valid_bruteforce(perms, mat_rows):
    """Mirror of the package checker, by the quartic definition scan.

    Returns ("ok",), ("cond1", disc), or ("cond2", (i1, j1, i2, j2)) with
    the lexicographically first ordered violation.
    """
    n = len(perms)
    want = list(range(1, n + 1))
    for i, p in enumerate(perms, start=1):
        if sorted(p) != want or p[0] != 1:
            return ("cond1", i)
    for i1 in range(1, n + 1):
        for j1 in range(1, n + 1):
            for i2 in range(1, n + 1):
                if i2 == i1:
                    continue
                for j2 in range(1, n + 1):
                    a1 = perms[i1 - 1][j1 - 1]
                    b1 = perms[i1 - 1][j1 % n]
                    a2 = perms[i2 - 1][j2 - 1]
                    b2 = perms[i2 - 1][j2 % n]
                    if a1 != a2 or b1 != b2:
                        continue
                    if (
                        mat_rows[i1 - 1][a1 - 1] == mat_rows[i2 - 1][a2 - 1]
                        and mat_rows[i1 - 1][b1 - 1] == mat_rows[i2 - 1][b2 - 1]
                    ):
                        return ("cond2", (i1, j1, i2, j2))
    return ("ok",)


def valid_sequence_perms(n: int) -> list[tuple[int, ...]]:
    """The canonical valid sequence by doubling, one ordering at a time: a
    plain copy plus its shift by m, and an alternating merge."""
    perms = [(1,)]
    while len(perms) < n:
        m = len(perms)
        plain = [p + tuple(x + m for x in p) for p in perms]
        alternating = [
            tuple(x + m if t % 2 else x for t, x in enumerate(p)) + tuple(x if t % 2 else x + m for t, x in enumerate(p))
            for p in perms
        ]
        perms = plain + alternating
    return perms


def hmt_facets(n: int, keep_first_digon: bool = False) -> list[tuple[int, int, int]]:
    """Sorted triangles of HMT(n), one face at a time.

    The Walsh matrix comes from Sylvester doubling and the valid sequence
    from doubling its orderings, both as plain lists; vertex ids, rings,
    shields, fans and digons follow the construction face by face.
    """
    rows = [[1]]
    while len(rows) < n:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    perms = valid_sequence_perms(n)

    shift = 0 if keep_first_digon else 2
    v1, v2, w1, w2 = {}, {}, {}, {}
    for j in range(1, n + 1):
        if j == 1 and not keep_first_digon:
            v1[j], v2[j] = 1, 2
            continue
        base = 4 * (j - 1) - shift
        v1[j], v2[j], w1[j], w2[j] = base + 1, base + 2, base + 3, base + 4
    centers = {i: 4 * n - shift + i for i in range(1, n + 1)}

    faces = []
    for i in range(1, n + 1):
        ring = []
        for j in perms[i - 1]:
            ring.extend((v1[j], v2[j]) if rows[i - 1][j - 1] > 0 else (w1[j], w2[j]))
        for p in range(n):
            faces.append((0, ring[2 * p + 1], ring[(2 * p + 2) % (2 * n)]))
        for t in range(2 * n):
            faces.append((centers[i], ring[t], ring[(t + 1) % (2 * n)]))
    for j in range(1 if keep_first_digon else 2, n + 1):
        a1, a2, b1, b2 = v1[j], v2[j], w1[j], w2[j]
        faces += [(0, a1, b2), (a1, a2, b2), (a2, b1, b2), (0, a2, b1)]
    return sorted(tuple(sorted(f)) for f in faces)


def face_vector(k) -> tuple[int, int, int]:
    """(f0, f1, f2) of a complex: its labels, the distinct sides of its
    triangles (as a set of Python tuples) and its triangles."""
    sides = {s for a, b, c in k.triangles.tolist() for s in ((a, b), (a, c), (b, c))}
    return (len(k.labels), len(sides), len(k.triangles))


def euler_characteristic(k) -> int:
    f0, f1, f2 = face_vector(k)
    return f0 - f1 + f2


def speyer_matrix_dense(k: int) -> np.ndarray:
    """M(k) built densely: a 2 on the diagonal and a 1 just left of it in
    every row, then the first row overwritten with the binary digits of k
    (leading digit first) in alternating signs.  No bound on k."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    digits = [int(c) for c in bin(k)[2:]]
    out = np.eye(len(digits), k=-1, dtype=np.int64) + 2 * np.eye(len(digits), dtype=np.int64)
    out[0] = [(-1) ** i * d for i, d in enumerate(digits)]
    return out


def format_rows(rows: np.ndarray) -> str:
    """The rows of an int64 array as lines of space-separated decimals, by
    the object-join formatter: each distinct value is formatted once,
    followed by a space and by a newline, and the lines are one join of
    those words looked up by index."""
    ids, idx = np.unique(rows, return_inverse=True)
    idx = idx.reshape(rows.shape)
    words = [str(v) for v in ids.tolist()]
    out = np.empty(rows.shape, dtype=object)
    out[:, :-1] = np.array([w + " " for w in words], dtype=object)[idx[:, :-1]]
    out[:, -1] = np.array([w + "\n" for w in words], dtype=object)[idx[:, -1]]
    return "".join(out.ravel().tolist())


def disc_words(rows, ordering: str) -> list[tuple[int, ...]]:
    """Boundary words of a matrix's rows, one letter at a time: "grouped"
    emits all copies of column 1, then column 2, ...; "interleaved" deals
    one copy of each remaining column per round."""
    words = []
    for row in rows:
        if ordering == "grouped":
            word = []
            for j, x in enumerate(row, start=1):
                word.extend([j if x > 0 else -j] * abs(x))
        else:
            remaining = [abs(x) for x in row]
            word = []
            while any(remaining):
                for j, x in enumerate(row, start=1):
                    if remaining[j - 1]:
                        word.append(j if x > 0 else -j)
                        remaining[j - 1] -= 1
        words.append(tuple(word))
    return words


def word_matrix(spec) -> np.ndarray:
    """The int64 matrix whose rows a blueprint's boundary words realize,
    by counting letters: +j adds 1 and -j subtracts 1 in column j."""
    m = np.zeros((len(spec.discs), spec.n_cycles), dtype=np.int64)
    for i, word in enumerate(spec.discs):
        for letter in word:
            m[i, abs(letter) - 1] += 1 if letter > 0 else -1
    return m


def vertex_count_formula(spec) -> int:
    """1 + 2n + sum of ceil(3s_i/2): the vertices of the generic
    triangulation of a blueprint with n cycles and word lengths s_i."""
    return 1 + 2 * spec.n_cycles + sum((3 * len(w) + 1) // 2 for w in spec.discs)


def generic_disc_faces(n_cycles: int, discs) -> tuple[dict, list, list]:
    """Labels, triangles and (u, v, disc index) interior-edge claims of the
    generic triangulation of a disc-complex blueprint, one letter, cone,
    rung and fan at a time, each claim listed beside its triangle.

    Cycle j becomes the path 0 - v(j,1) - v(j,2) - 0.  A disc with word
    length s has boundary walk length 3s and gets an inner polygon of
    p = ceil(3s/2) vertices: vertex t of the polygon cones over walk
    positions 2t..2t+2 (the last one over just two when 3s is odd), a rung
    triangle joins consecutive polygon vertices, and the polygon interior is
    fanned from its first vertex.
    """
    n = n_cycles
    labels = {0: "0"}
    for j in range(1, n + 1):
        labels[2 * (j - 1) + 1] = f"v{j}.1"
        labels[2 * (j - 1) + 2] = f"v{j}.2"
    nxt = 2 * n + 1

    triangles = []
    claims = []  # (u, v, owner index)
    for i, word in enumerate(discs):
        walk = []
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
    return labels, triangles, claims


def _reference_labels(n: int, keep_first_digon: bool) -> dict[int, str]:
    """Deterministic id map: 0, cycle copies by (column, v1, v2, w1, w2),
    centers last; the w slots of column 1 are compacted away by default."""
    shift = 0 if keep_first_digon else 2
    labels = {0: "0", 1: "v1.1", 2: "v1.2"}
    if keep_first_digon:
        labels.update({3: "w1.1", 4: "w1.2"})
    for j in range(2, n + 1):
        base = 4 * (j - 1) - shift
        labels.update({base + 1: f"v{j}.1", base + 2: f"v{j}.2", base + 3: f"w{j}.1", base + 4: f"w{j}.2"})
    c0 = 4 * n - shift
    labels.update({c0 + i: f"c{i}" for i in range(1, n + 1)})
    return labels


def _rows(*columns) -> np.ndarray:
    """One row per position of the broadcast columns, in row-major order."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(columns))


def hmt_reference(n: int, keep_first_digon: bool = False) -> SimplicialComplex2:
    """HMT(n) as the array builder made it with popcount signs and its own
    id formulas, kept to pin labels, claims and owners.  Built for n = 2^k, k >= 1.

    n = 1 is rejected: with a single all-positive disc the complex
    degenerates to a triangle and needs none of this machinery.

    Every index array is computed at once.  Disc i walks the ring of its
    ordering: column j contributes its v pair, or its w pair where the Walsh
    entry (-1)^popcount((i-1) & (j-1)) is negative.  Each base-vertex visit
    gets a shield triangle (0, ring[2p+1], ring[2p+2]), whose far edge is
    the diagonal that the valid sequence keeps unique; the center c_i fans
    over the ring; and each digon column j contributes four triangles.
    """
    if n == 1:
        raise ValueError(
            "n=1 is excluded: its single all-positive disc triangulates as one "
            "triangle with a subdivided boundary; this family needs a power of two >= 2"
        )
    col = valid_sequence(n).perms - 1  # 0-based column of each ring step; rejects other orders
    shift = 0 if keep_first_digon else 2
    disc = np.arange(n)[:, None]
    # parity of the k = log2(n) bits of (i-1) & (j-1)
    common = disc & col
    negative = np.zeros_like(common)
    for bit in range(n.bit_length() - 1):
        negative ^= (common >> bit) & 1
    # column j's pair starts at 4(j-1)+1, less the compaction shift past column 1
    first = 4 * col + 1 + 2 * negative - shift * (col > 0)
    ring = np.empty((n, 2 * n + 1), dtype=np.int64)
    ring[:, 0:-1:2] = first
    ring[:, 1:-1:2] = first + 1
    ring[:, -1] = ring[:, 0]
    centers = 4 * n - shift + 1 + disc

    discs = disc.ravel()
    triangles = [_rows(0, ring[:, 1:-1:2], ring[:, 2::2]), _rows(centers, ring[:, :-1], ring[:, 1:])]
    claims = [_rows(ring[:, 1:-1:2], ring[:, 2::2]), _rows(centers, ring[:, :-1])]
    owner = [np.repeat(discs, n), np.repeat(discs, 2 * n)]

    columns = np.arange(1 if keep_first_digon else 2, n + 1)
    a1 = 4 * (columns - 1) + 1 - shift
    a2, b1, b2 = a1 + 1, a1 + 2, a1 + 3
    triangles.append(_rows(0, a1, b2, a1, a2, b2, a2, b1, b2, 0, a2, b1).reshape(-1, 3))
    claims.append(_rows(a1, b2, a2, b2, a2, b1).reshape(-1, 2))
    owner.append(np.repeat(n + np.arange(len(columns)), 3))

    owners = tuple(f"disc{i}" for i in range(1, n + 1)) + tuple(f"digon{j}" for j in columns.tolist())
    # the constructor's peak comes on top of whatever is still alive here
    triangles, claims, owner = np.concatenate(triangles), np.concatenate(claims), np.concatenate(owner)
    del ring, col, common, negative, first, centers, a1, a2, b1, b2
    return SimplicialComplex2(_reference_labels(n, keep_first_digon), triangles, claims, owner, owners)


# The previous constructor (see the module docstring): rows sorted on
# int64 ids, one key (a * nv + b) * nv + c per triangle and
# edge * len(owners) + owner per claim, decoded by divmod.

REFERENCE_MAX_VERTICES = 2**21


def _ref_int_rows(x, width: int) -> np.ndarray:
    return np.asarray(x, dtype=np.int64).reshape(-1, width)


def _ref_sorted_rows(rows: np.ndarray) -> np.ndarray:
    cols = list(rows.T)
    for i, j in [(0, 1)] if len(cols) == 2 else [(0, 1), (1, 2), (0, 1)]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return np.stack(cols, axis=1)


def _ref_ints(row) -> tuple[int, ...]:
    return tuple(int(v) for v in row)


def _ref_run_starts(x: np.ndarray) -> np.ndarray:
    starts = np.ones(len(x), dtype=bool)
    diff = x[1:] != x[:-1]
    starts[1:] = diff.any(axis=1) if x.ndim == 2 else diff
    return starts


def _ref_sorted_unique(x: np.ndarray) -> np.ndarray:
    x = np.sort(x, axis=None)
    return x[_ref_run_starts(x)]


def _ref_index_in(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    if len(ids) and int(ids[-1]) - int(ids[0]) == len(ids) - 1:
        return x - ids[0]
    return np.searchsorted(ids, x)


def _ref_unknown_rows(ids: np.ndarray, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n = len(ids)
    known = (0 <= idx) & (idx < n)
    if n and int(ids[-1]) - int(ids[0]) != n - 1:
        known &= ids.take(idx, mode="clip") == x
    if known.all():
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~known.all(axis=1))


def complex_fields_reference(labels, triangles, claims=(), claim_owner=(), owners=()) -> dict:
    """The fields the constructor of SimplicialComplex2 keeps, as a dict,
    or the ValueError it raises, by the reference code above."""
    labels = dict(labels)
    if len(labels) > REFERENCE_MAX_VERTICES:
        raise ValueError(f"{len(labels)} vertices, more than the {REFERENCE_MAX_VERTICES} allowed")
    tri = _ref_sorted_rows(_ref_int_rows(triangles, 3))
    bad = np.flatnonzero((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]))
    if bad.size:
        raise ValueError(f"degenerate triangle {_ref_ints(tri[bad[0]])}")
    vids = np.array(sorted(labels), dtype=np.int64)
    nv = len(vids)
    idx = _ref_index_in(vids, tri)
    bad = _ref_unknown_rows(vids, tri, idx)
    if bad.size:
        raise ValueError(f"triangle {_ref_ints(tri[bad[0]])} uses an unknown vertex")
    keys = np.sort((idx[:, 0] * nv + idx[:, 1]) * nv + idx[:, 2])
    if (keys[1:] == keys[:-1]).any():
        order = np.lexsort(tri.T[::-1])
        raise ValueError(f"duplicate triangle {_ref_ints(tri[order[~_ref_run_starts(tri[order])].min()])}")
    ab, c = np.divmod(keys, nv)
    a, b = np.divmod(ab, nv)
    covered = np.zeros(nv, dtype=bool)
    covered[a] = covered[b] = covered[c] = True
    if not covered.all():
        raise ValueError(f"vertex {int(vids[~covered][0])} lies in no triangle")
    triangles = vids[np.stack((a, b, c), axis=1)]
    claims, claim_owner = _ref_owned_claims(vids, claims, claim_owner, owners)
    return {
        "labels": labels,
        "triangles": triangles,
        "claims": claims,
        "claim_owner": claim_owner,
        "owners": tuple(owners),
    }


def _ref_owned_claims(vids: np.ndarray, claims, owner, owners) -> tuple[np.ndarray, np.ndarray]:
    claims = _ref_sorted_rows(_ref_int_rows(claims, 2))
    owner = np.asarray(owner, dtype=np.int64).reshape(-1)
    if len(owner) != len(claims):
        raise ValueError(f"{len(claims)} claimed edges but {len(owner)} owners")
    nv, m = len(vids), len(owners)
    if m > REFERENCE_MAX_VERTICES:
        raise ValueError(f"{m} owners, more than the {REFERENCE_MAX_VERTICES} allowed")
    idx = _ref_index_in(vids, claims)
    bad = _ref_unknown_rows(vids, claims, idx)
    if bad.size:
        raise ValueError(f"interior edge {_ref_ints(claims[bad[0]])} uses an unknown vertex")
    bad = np.flatnonzero((owner < 0) | (owner >= m))
    if bad.size:
        at = bad[0]
        raise ValueError(f"interior edge {_ref_ints(claims[at])} has owner index {int(owner[at])}, not one of {m} owners")
    keys = idx[:, 0] * nv + idx[:, 1]
    edge, edge_owner = np.divmod(_ref_sorted_unique(keys * m + owner), m)
    if (edge[1:] == edge[:-1]).any():
        order = np.argsort(keys, kind="stable")
        sorted_owner = owner[order]
        first = _ref_run_starts(keys[order])
        first_owner = sorted_owner[first][np.cumsum(first) - 1]
        clash = np.flatnonzero(sorted_owner != first_owner)
        at = clash[np.argmin(order[clash])]
        raise ValueError(
            f"interior edge {_ref_ints(claims[order[at]])} claimed by both "
            f"{owners[first_owner[at]]} and {owners[sorted_owner[at]]}"
        )
    return vids[np.stack(np.divmod(edge, nv), axis=1)], edge_owner
